"""Which pnlab functions the traced run wraps, and the per-layer metrics.

A per-layer metric is named `<module>.<function>.<measure>`.  Times are
seconds per pass and counts are per pass, averaged over the traced
passes, so they compare directly with `wall_s`.  `self_s` is time in
the function minus time in wrapped callees; `s` is inclusive time.
"""

from __future__ import annotations

PEAK_NAMES = frozenset({"normality.lr_level"})

SUITES = ("collapstheo", "collapsindex", "leastsuffix", "smallsum", "palchar")


def _letters(tracer, label, args, kwargs, result):
    tracer.add(label, "letters", args[0].n)


def _states(tracer, label, item):
    tracer.add(label, "states", len(item[1]))


def _partition(tracer, label, args, kwargs, result):
    tracer.add(label, "words", 1 << args[0])
    tracer.add(label, "classes", len(result.classes))


def _scan_label(frame, args, kwargs):
    return "palindromes.pool" if frame.pooled else "palindromes.scan"


def _scan_counts(tracer, label, args, kwargs, result):
    if label == "palindromes.scan":
        tracer.add(label, "halves", 1 << ((args[0] + 1) // 2))
        tracer.add(label, "found", result if isinstance(result, int) else result.count)


def _engine_label(frame, args, kwargs):
    engine = kwargs.get("engine", args[1] if len(args) > 1 else "brute")
    return f"collapse.{engine}"


def _classes(tracer, label, args, kwargs, result):
    tracer.add(label, "classes", len(result))


def _accepted(tracer, label, args, kwargs, result):
    tracer.add(label, "accepted", len(result))


def _suite(tracer, suite):
    """Wrapper factory for one verify suite.  `instances` counts the
    objects the suite examines: words for palchar (kept in its
    exhaustive range), partition classes for leastsuffix, collapse
    classes for the rest."""
    label = f"verify.{suite}"
    if suite == "leastsuffix":
        source = ("normality.class_partition", "classes")
    else:
        source = ("collapse.brute", "classes")

    def seen():
        st = tracer.stats.get(source[0])
        return st.counters.get(source[1], 0) if st else 0

    def factory(fn):
        def counted(n_max):
            before = seen()
            result = fn(n_max)
            if suite == "palchar":
                instances = (1 << (min(n_max, 16) + 1)) - 1
            else:
                instances = seen() - before
            tracer.add(label, "instances", instances)
            return result

        return tracer.wrap(counted, label)

    return factory


def targets(tracer, mods):
    """(module, attribute, wrapper factory) for every traced function."""
    words, normality, palindromes, collapse, verify, cli = (
        mods.words, mods.normality, mods.palindromes, mods.collapse, mods.verify, mods.cli,
    )

    def plain(name, on_result=None):
        return lambda fn: tracer.wrap(fn, name, on_result)

    def pool_factory(executor):
        def make(*args, **kwargs):
            if tracer.stack:
                tracer.stack[-1].pooled = True
            return executor(*args, **kwargs)

        return make

    out = [
        (words, "max_ones", plain("words.max_ones", _letters)),
        (words, "prefix_ones", plain("words.prefix_ones")),
        (words, "suffix_ones", plain("words.suffix_ones")),
        (words, "reverse_progress", plain("words.reverse_progress")),
        (normality, "iter_lr_levels",
         lambda fn: tracer.wrap_generator(fn, "normality.iter_lr_levels", _states)),
        (normality, "lr_level", plain("normality.lr_level")),
        (normality, "class_partition", plain("normality.class_partition", _partition)),
        (normality, "is_prefix_normal", plain("normality.is_prefix_normal")),
        (normality, "is_suffix_normal", plain("normality.is_suffix_normal")),
        (palindromes, "count_prefix_normal_palindromes", plain(_scan_label, _scan_counts)),
        (palindromes, "enumerate_prefix_normal_palindromes", plain(_scan_label, _scan_counts)),
        (palindromes, "ProcessPoolExecutor", pool_factory),
        (collapse, "collapse_classes", plain(_engine_label, _classes)),
        (collapse, "candidate_collapsers", plain("collapse.candidate_collapsers", _accepted)),
        (collapse, "class_size_bound", plain("collapse.class_size_bound")),
        (mods.jpm, "build_index", plain("jpm.build_index")),
        (cli, "main", plain("cli.main")),
    ]
    for suite in SUITES:
        out.append((verify, f"check_{suite}", _suite(tracer, suite)))
    return out


def _m(name, unit, better):
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = [
    _m("words.max_ones.calls", "count", "lower"),
    _m("words.max_ones.self_s", "s", "lower"),
    _m("words.max_ones.letters", "count", "lower"),
    _m("words.prefix_ones.calls", "count", "lower"),
    _m("words.prefix_ones.self_s", "s", "lower"),
    _m("words.suffix_ones.calls", "count", "lower"),
    _m("words.suffix_ones.self_s", "s", "lower"),
    _m("words.reverse_progress.calls", "count", "lower"),
    _m("words.reverse_progress.self_s", "s", "lower"),
    _m("normality.iter_lr_levels.self_s", "s", "lower"),
    _m("normality.iter_lr_levels.states", "count", "lower"),
    _m("normality.lr_level.peak_mb", "MB", "lower"),
    _m("normality.class_partition.self_s", "s", "lower"),
    _m("normality.class_partition.words", "count", "lower"),
    _m("normality.is_prefix_normal.calls", "count", "lower"),
    _m("normality.is_prefix_normal.self_s", "s", "lower"),
    _m("normality.is_suffix_normal.calls", "count", "lower"),
    _m("normality.is_suffix_normal.self_s", "s", "lower"),
    _m("palindromes.scan.self_s", "s", "lower"),
    _m("palindromes.scan.halves", "count", "lower"),
    _m("palindromes.scan.found", "count", "higher"),
    _m("palindromes.scan.hit_ratio", "ratio", "higher"),
    _m("palindromes.pool.calls", "count", "lower"),
    _m("palindromes.pool.s", "s", "lower"),
    _m("collapse.brute.self_s", "s", "lower"),
    _m("collapse.brute.classes", "count", "higher"),
    _m("collapse.band.self_s", "s", "lower"),
    _m("collapse.band.classes", "count", "higher"),
    _m("collapse.candidate_collapsers.calls", "count", "lower"),
    _m("collapse.candidate_collapsers.accepted", "count", "higher"),
    _m("collapse.class_size_bound.self_s", "s", "lower"),
    _m("jpm.build_index.self_s", "s", "lower"),
    _m("jpm.build_index.s", "s", "lower"),
    _m("jpm.query.calls", "count", "higher"),
    _m("jpm.query.self_s", "s", "lower"),
    _m("jpm.query.per_s", "1/s", "higher"),
    *[
        m
        for suite in SUITES
        for m in (_m(f"verify.{suite}.s", "s", "lower"), _m(f"verify.{suite}.instances", "count", "higher"))
    ],
    _m("cli.main.calls", "count", "lower"),
    _m("cli.main.self_s", "s", "lower"),
    _m("cli.main.stdout_bytes", "B", "lower"),
    _m("trace.overhead_frac", "ratio", "lower"),
    _m("trace.other_s", "s", "lower"),
]


def per_layer_values(tracer, peaks, passes, overhead_frac, other_s):
    """Every PER_LAYER metric as a number, per traced pass."""
    values = {}
    for metric in PER_LAYER:
        name = metric["name"]
        label, measure = name.rsplit(".", 1)
        st = tracer.stats.get(label)
        if label == "trace":
            value = overhead_frac if measure == "overhead_frac" else other_s
        elif measure == "peak_mb":
            value = peaks.get(label, 0.0)
        elif st is None:
            value = 0
        elif measure == "calls":
            value = st.calls / passes
        elif measure == "self_s":
            value = st.self_s / passes
        elif measure == "s":
            value = st.incl / passes
        elif measure == "hit_ratio":
            halves = st.counters.get("halves", 0)
            value = st.counters.get("found", 0) / halves if halves else 0.0
        elif measure == "per_s":
            value = st.calls / st.self_s if st.self_s else 0.0
        else:
            value = st.counters.get(measure, 0) / passes
        values[name] = {"value": value, "unit": metric["unit"]}
    return values
