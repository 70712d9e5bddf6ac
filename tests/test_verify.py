"""Drive every named verification suite at its intended depth."""

from dataclasses import replace

import pytest

from pnlab import verify
from pnlab.cli import main
from pnlab.collapse import CollapseClass
from pnlab.limits import LimitExceededError
from pnlab.verify import CHECKS
from pnlab.words import prefix_ones, reversed_bits, suffix_ones


@pytest.mark.parametrize(
    "name,n_max",
    [
        ("palchar", 10),
        ("collapstheo", 11),
        ("collapsindex", 13),
        ("notpal", 14),
        ("symminf", 14),
        ("leastsuffix", 11),
        ("corlol", 11),
        ("falsecollapse", 12),
        ("smallsum", 12),
        ("lexsmall", 12),
        ("pchar", 14),
        ("ww-w0w-1ww1", 14),
        ("counting-identity", 15),
    ],
)
def test_suite_passes(name, n_max):
    report = CHECKS[name][0](n_max)
    assert report.name == name
    assert report.ok, report.counterexample
    assert report.lines
    assert all(line.startswith("PASS") for line in report.lines)


def test_palupperbound_flags_small_lengths_only():
    report = CHECKS["palupperbound"][0](14)
    assert report.ok
    flagged = {int(line.split()[1][2:]) for line in report.lines if line.startswith("FLAGGED")}
    assert flagged == {2, 3, 4}


def test_palcol_reports_the_known_failure():
    # the bracket's upper bound is arithmetically false from n = 6 on; the
    # suite must surface that instead of hiding it
    report = CHECKS["palcol"][0](14)
    assert not report.ok
    assert "n=6" in report.counterexample
    assert len([line for line in report.lines if line.startswith("PASS")]) == 4  # n = 2..5


def test_every_registered_check_has_a_description():
    for name, (checker, description) in CHECKS.items():
        assert callable(checker)
        assert description
    module_checks = {getattr(verify, name) for name in dir(verify) if name.startswith("check_")}
    assert module_checks == {checker for checker, _ in CHECKS.values()}


@pytest.mark.parametrize(
    "name,cap,kind",
    [
        ("smallsum", "0", "collapse partition"),
        ("lexsmall", "0", "collapse partition"),
        ("collapstheo", "0", "collapse partition"),
        ("collapsindex", "0", "collapse partition"),
        ("leastsuffix", "4", "partition"),
        ("corlol", "4", "partition"),
        ("palchar", "0", "palindrome test"),
    ],
)
def test_over_cap_suite_fails_before_any_work(monkeypatch, name, cap, kind):
    # each suite's walk checks n_max itself, not the first length past the cap
    monkeypatch.setenv("PNLAB_MAX_N", cap)
    with pytest.raises(LimitExceededError, match=f"^{kind} at length 7 exceeds the limit of 0$"):
        CHECKS[name][0](7)



def _at(length, broken):
    """Patch factory: the original answer, but broken(original, arg) for an argument of `length` letters."""
    return lambda original: lambda arg: broken(original, arg) if len(arg) == length else original(arg)


def _forms_at(length, broken):
    """Patch factory for `prefix_normal_forms`: broken(original, values) for words of `length` letters."""
    return lambda original: lambda n, values: broken(original, values) if n == length else original(n, values)


def _palindrome_dropped(original):
    return lambda n_max: ((n, packed[1:] if n == 5 else packed) for n, packed in original(n_max))


def _all_zeros_class_dropped(original):
    return lambda n_max: ((n, classes[1:] if n == 5 else classes) for n, classes in original(n_max))


def _all_ones_dropped(original):
    """The last item at n = 5 dropped: 1^5 from the palindromes and the level, its singleton class from the classes."""
    return lambda n_max: ((n, items[:-1] if n == 5 else items) for n, items in original(n_max))


def _all_zeros_partition_class_dropped(original):
    return lambda n_max, **kwargs: (
        replace(part, classes={sig: c for sig, c in part.classes.items() if c.lr.bits}) if part.n == 5 else part
        for part in original(n_max, **kwargs)
    )


def _band_drops_last_class(original):
    return lambda n_max, engine: (
        (n, classes[:-1] if n == 5 and engine == "band" else classes) for n, classes in original(n_max, engine)
    )


def _classes_claim_every_word(original):
    return lambda n_max: (
        (n, [CollapseClass(n, c.packed + tuple(range(1 << n))) for c in classes] if n == 5 else classes)
        for n, classes in original(n_max)
    )


def _corrected_bound_one_short(original):
    return lambda n_max: (
        (n, actual, replace(b, upper_remark_corrected=actual - 1) if n == 5 else b) for n, actual, b in original(n_max)
    )


# every `raise Counterexample` of the suites that pass in test_suite_passes, each set off at length 5
# by one patched name of `verify`; a 1-prepend or 1-append of a 5-letter word has 6 letters, a doubled one 10 to 12
BROKEN_AT_5 = [
    # the two tests still agree on every 5-letter word, but the scan's npal(5) lost 00000
    (
        "palchar", "iter_prefix_normal_palindromes", _palindrome_dropped,
        "n=5 (5 words pass both tests, expected npal(5) = 4)",
    ),
    ("leastsuffix", "prefix_ones", _at(5, lambda f, m: ()), "00000 (canonical member not unique)"),
    (
        "leastsuffix", "prefix_ones", _at(5, lambda f, m: suffix_ones(m)),
        "00001 (prefix normal member is not the maximum)",
    ),
    (
        "leastsuffix", "suffix_ones", _at(5, lambda f, m: prefix_ones(m)),
        "10000 (least representative is not the reversed maximum)",
    ),
    (
        "leastsuffix", "iter_class_partitions", _all_zeros_partition_class_dropped,
        "n=5 (31 words in the classes, expected 32)",
    ),
    (
        "corlol", "iter_prefix_normal_palindromes", _palindrome_dropped,
        "00000 (singleton classes differ from palindromes)",
    ),
    # every prefix normal palindrome but 0^n starts with 1: the comparison must reach those too
    (
        "corlol", "iter_prefix_normal_palindromes", _all_ones_dropped,
        "11111 (singleton classes differ from palindromes)",
    ),
    ("pchar", "validate_lr_profile", _at(6, lambda f, s: False), "00000 (profile violates the shape inequalities)"),
    ("pchar", "iter_lr_levels", _all_ones_dropped, "n=5 (13 words checked, expected 14)"),
    # 00000 read as 00011: its profile 0,0,0,1,2 against 1,1,1,1,1 after the 1-prepend changes on 1..5 but 4
    (
        "symminf", "prefix_normal_forms", _forms_at(5, lambda f, vs: [form or 0b11 for form in f(5, vs)]),
        "00000 (asymmetric change at position 2)",
    ),
    # the 0-prepends' forms for the 1-prepends': no profile changes, where 5 of the 14 words do not extend
    (
        "symminf", "prefix_normal_forms", _forms_at(6, lambda f, vs: f(6, [v ^ 1 << 5 for v in vs])),
        "n=5 (0 profiles change, expected 5)",
    ),
    (
        "falsecollapse", "prefix_normal_forms", _forms_at(6, lambda f, vs: [0 for _ in vs]),
        "11111 (unexpected overlap with 00000)",
    ),
    # keys that never match, as the packed words themselves: the one overlap the theorem fixes goes missing
    ("falsecollapse", "prefix_normal_forms", _forms_at(6, lambda f, vs: list(vs)), "00001 (no overlap with 00000)"),
    ("smallsum", "max_ones_sum", _at(6, lambda f, p: 0), "10001 (not dominated by extender 00011)"),
    ("smallsum", "iter_collapse_classes", _all_zeros_class_dropped, "n=5 (13 words in the classes, expected 14)"),
    (
        "lexsmall", "prefix_normal_forms", _forms_at(6, lambda f, vs: [reversed_bits(v, 6) for v in vs]),
        "00000 (all-zeros class should not extend)",
    ),
    (
        "lexsmall", "prefix_normal_forms", _forms_at(6, lambda f, vs: [0 for _ in vs]),
        "00001 (extending member is not the minimum alone)",
    ),
    ("lexsmall", "iter_collapse_classes", _all_ones_dropped, "n=5 (8 extending members, expected 9)"),
    ("collapstheo", "iter_collapse_classes", _band_drops_last_class, "11111 (engines disagree)"),
    ("collapsindex", "iter_collapse_classes", _classes_claim_every_word, "00001 (size 33 above bound 2)"),
    (
        "collapsindex", "iter_collapse_classes", _all_zeros_class_dropped,
        "n=5 (0 classes have no bound, expected 1)",
    ),
    ("notpal", "is_suffix_normal", _at(6, lambda f, w: True), "00000 (1-prepend unexpectedly canonical)"),
    ("notpal", "is_suffix_normal", _at(6, lambda f, w: False), "00000 (1-append unexpectedly not canonical)"),
    # without 1^5 no palindrome's 1-prepend is canonical, and the witness the theorem fixes goes missing
    ("notpal", "iter_prefix_normal_palindromes", _all_ones_dropped, "11111 (1-prepend not canonical)"),
    ("ww-w0w-1ww1", "is_prefix_normal_palindrome", _at(10, lambda f, v: True), "10001 (ww stayed prefix normal)"),
    ("ww-w0w-1ww1", "is_prefix_normal_palindrome", _at(11, lambda f, v: v[6] == 1), "10001 (w1w stayed prefix normal)"),
    (
        "ww-w0w-1ww1", "is_prefix_normal_palindrome", _at(11, lambda f, v: v[6] == 0),
        "10001 (w0w without the single-zero shape)",
    ),
    ("ww-w0w-1ww1", "is_prefix_normal_palindrome", _at(12, lambda f, v: True), "11011 (1ww1 without a 10 prefix)"),
    (
        "counting-identity", "prefix_normal_forms", _forms_at(6, lambda f, vs: [0 for _ in vs]),
        "n=5 (got 23, expected 14)",
    ),
    ("palupperbound", "bounds_by_length", _corrected_bound_one_short, "n=5 (corrected bound 22 below 23)"),
]


@pytest.mark.parametrize("name, patched, breaks, instance", BROKEN_AT_5)
def test_suite_reports_a_broken_instance(monkeypatch, name, patched, breaks, instance):
    # a suite that cannot be shown to fail is no gate; its lines stop at the last length that held
    lines_before = CHECKS[name][0](4).lines
    monkeypatch.setattr(verify, patched, breaks(getattr(verify, patched)))
    report = CHECKS[name][0](7)
    assert not report.ok
    assert report.counterexample == f"counterexample {instance}"
    assert report.lines == lines_before


def test_cli_ends_a_broken_suite_with_its_counterexample(monkeypatch, capsys):
    lines_before = CHECKS["notpal"][0](4).lines
    monkeypatch.setattr(verify, "is_suffix_normal", _at(6, lambda f, w: True)(verify.is_suffix_normal))
    assert main(["verify", "notpal", "7"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [*lines_before, "counterexample 00000 (1-prepend unexpectedly canonical)"]
