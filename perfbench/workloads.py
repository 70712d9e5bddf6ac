"""The four benchmark workloads.

Each workload is a closed loop: one caller, one call in flight, running
a fixed job list (one "pass") over and over.  Only the calls into pnlab
are timed; every result is checked after its call returns, against
references recorded from the seed code, against the workload's own
invariants, and (once per run, on a seeded sample) against
`pnlab.oracle`.

Why these four (see README.md for the ROADMAP item each one shows):

  levels       level construction and brute collapse grouping; heavy on
               memory, never calls `max_ones`: the control for kernel changes.
  palindromes  the half-scan on short palindromes and the process pool.
  jpm          seeded long words of varied density: the O(n^2) kernel,
               index build (write) and query (read).
  sweep        millions of `max_ones` calls on short words, the band
               engine and the verify suites.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
from time import perf_counter

# Sizes per scale.  "full" is what the benchmark measures; "tiny" keeps the
# smoke test fast.  Full sizes keep every call under about half a second
# and a pass near one second (Python 3.11, 2-core x86 VM), so a run
# repeats each call 15 to 30 times; see run.py for why that matters.
SCALES = {
    "full": {
        "levels": (16, 17),
        # (npal length, --pnpals length); the second has 12 free letters,
        # the least at which the scan shards over the process pool.
        "palindromes": (22, 24),
        "sweep": 12,
        # (word length, words per pass); each stratum cycles the densities.
        "jpm": ((256, 12), (512, 4), (1024, 4)),
        "queries": 200,
    },
    "tiny": {
        "levels": (6, 7),
        "palindromes": (8, 10),
        "sweep": 5,
        "jpm": ((16, 4), (32, 4)),
        "queries": 8,
    },
}

DENSITIES = (0.05, 0.25, 0.5, 0.9)
ORACLE_QUERIES = 64
CANARY_SEED = 0xCA11


class Failure(Exception):
    """A result that does not match its reference."""


class HashSink:
    """Stands in for stdout: hashes and counts what is printed."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.nbytes = 0

    def write(self, text):
        data = text.encode()
        self.sha.update(data)
        self.nbytes += len(data)
        return len(text)

    def flush(self):
        pass


def digest(parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(str(part).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def calibrate() -> float:
    """Time of the calibration loop, fastest of five (about a millisecond).

    Fixed Python work (integer arithmetic, tuple building, list and dict
    stores) that shares no code with pnlab, so no pnlab change moves it;
    it moves only with the host's speed.
    """
    best = float("inf")
    for _ in range(5):
        start = perf_counter()
        acc = 0
        table = {}
        items = []
        for i in range(3000):
            acc += (i * 7) >> 2
            items.append((i, acc & 255))
            table[i & 511] = i
        best = min(best, perf_counter() - start)
    return best


class Log:
    """Times calls for one run and counts attempted and failed operations.

    Every call is timed in seconds and also in `cal`, units of the
    calibration loop's time measured just before the call (refreshed
    when older than CAL_FRESH_S); a call longer than that is divided by
    the mean of the loop's times before and after it.  `pass_s` and
    `pass_cal` total the current pass; `times` and `cal` map each call of
    the job list to its values over the passes; `latency` names the
    calls that are latency samples.
    """

    CAL_FRESH_S = 0.1

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.pass_s = 0.0
        self.pass_cal = 0.0
        self.times: dict[str, list[float]] = {}
        self.cal: dict[str, list[float]] = {}
        self.latency: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.query_s = 0.0
        self.queries = 0
        self._unit = 0.0
        self._unit_at = float("-inf")

    def fail(self, label: str, detail: str, count: int = 1) -> None:
        self.failed += count
        if len(self.messages) < 20:
            self.messages.append(f"{label}: {detail}")

    def check(self, label: str, ok: bool, detail: str = "mismatch") -> bool:
        self.attempted += 1
        if not ok:
            self.fail(label, detail)
        return ok

    def _calibrate(self) -> float:
        self._unit = calibrate()
        self._unit_at = perf_counter()
        return self._unit

    def _timed(self, label, fn):
        """Time fn() with tracing on; record it under label.  Exceptions propagate."""
        if perf_counter() - self._unit_at > self.CAL_FRESH_S:
            self._calibrate()
        unit = self._unit
        tracer = self.tracer
        if tracer is not None:
            tracer.active = True
        start = perf_counter()
        try:
            return fn()
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.active = False
            if elapsed > self.CAL_FRESH_S:
                unit = (unit + self._calibrate()) / 2
            self.pass_s += elapsed
            self.pass_cal += elapsed / unit
            self.times.setdefault(label, []).append(elapsed)
            self.cal.setdefault(label, []).append(elapsed / unit)

    def call(self, label, fn, *args, sample=True, check=None):
        """Run one timed call; then check its result outside the timing.

        Returns the result, or None when the call raised or failed its check.
        """
        self.attempted += 1
        if sample:
            self.latency.add(label)
        try:
            result = self._timed(label, lambda: fn(*args))
        except Exception as exc:  # a failing call is counted, not fatal
            self.fail(label, f"raised {exc!r}")
            return None
        if check is not None:
            try:
                check(result)
            except Failure as exc:
                self.fail(label, str(exc))
                return None
        return result

    def queries_batch(self, label, query, idx, pairs):
        """Answer a batch of JPM queries; one timed region for the batch."""
        self.attempted += len(pairs)
        tracer = self.tracer
        if tracer is not None:
            answer_all = lambda: tracer.batch("jpm.query", lambda k, d: query(idx, k, d), pairs)
        else:
            answer_all = lambda: [query(idx, k, d) for k, d in pairs]
        try:
            answers = self._timed(label, answer_all)
        except Exception as exc:
            self.fail(label, f"raised {exc!r}", len(pairs))
            return None
        self.query_s += self.times[label][-1]
        self.queries += len(pairs)
        return answers


def expect(ok: bool, detail: str) -> None:
    if not ok:
        raise Failure(detail)


class Workload:
    """Base: subclasses implement the hooks."""

    name = ""

    def __init__(self, pnlab, seed: int, scale: str, refs: dict):
        self.p = pnlab
        self.sizes = SCALES[scale]
        self.refs = refs.get(self.name, {})
        self.rng = random.Random(seed)
        # When set, `match` records observed values here instead of
        # comparing (used by record_refs.py on the seed code).
        self.recording: dict | None = None

    def match(self, key, value, detail) -> None:
        """Compare value with the reference recorded under key."""
        if self.recording is not None:
            self.recording[key] = value
        elif key not in self.refs:
            raise Failure(f"no reference recorded for {key!r}")
        elif self.refs[key] != value:
            raise Failure(detail)

    def cli(self, argv):
        """Run the CLI in-process; stdout goes to a hashing sink."""
        sink = HashSink()
        with contextlib.redirect_stdout(sink):
            code = self.p.cli.main(argv)
        return code, sink.sha.hexdigest(), sink.nbytes

    def cli_call(self, log, argv, key=None):
        key = key or " ".join(argv)

        def check(out):
            code, sha, nbytes = out
            if log.tracer is not None:
                log.tracer.add("cli.main", "stdout_bytes", nbytes)
            expect(code == 0, f"exit code {code}")
            self.match(key, sha, "stdout differs from the reference")

        return log.call("cli " + " ".join(argv), self.cli, argv, check=check)

    # hooks
    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self, log: Log) -> None:
        raise NotImplementedError

    def oracle_check(self, log: Log) -> None:
        raise NotImplementedError

    def info(self) -> dict:
        raise NotImplementedError


def collapse_digest(classes) -> str:
    return digest(f"{c.extender.bits}:{','.join(str(v.bits) for v in c.members)}" for c in classes)


def partition_digest(part) -> str:
    return digest(f"{cls.signature}|{cls.size}|{cls.npf.bits}|{cls.lr.bits}" for cls in part)


# --- levels -----------------------------------------------------------------


class Levels(Workload):
    name = "levels"

    def __init__(self, *args):
        super().__init__(*args)
        self.lengths = self.sizes["levels"]

    def warm_up(self):
        self.cli(["sequence", "pn-count", "4"])
        self.p.collapse.collapse_classes(4, "brute")

    def run_pass(self, log):
        for n in self.lengths:
            self.cli_call(log, ["sequence", "pn-count", str(n)])
            self.cli_call(log, ["sequence", "collapse-classes", str(n)])
            self.cli_call(log, ["enumerate", str(n)])
        n = self.lengths[-1]
        key = f"collapse_classes {n} brute"

        def check(classes):
            self.match(key, collapse_digest(classes), "collapse classes differ")

        log.call(key, self.p.collapse.collapse_classes, n, "brute", check=check)

    def oracle_check(self, log):
        n = self.rng.randint(5, 9)
        oracle, p = self.p.oracle, self.p
        fast = [[v.bits for v in c.members] for c in p.collapse.collapse_classes(n, "brute")]
        slow = [[v.bits for v in group] for group in oracle.brute_collapse_partition(n)]
        log.check(f"oracle collapse n={n}", fast == slow)
        count = p.normality.count_least_representatives(n)[n]
        log.check(f"oracle classes n={n}", count == len(oracle.brute_class_partition(n)))

    def info(self):
        n = self.lengths[-1]
        return {"n": n, "result_count": self.p.normality.count_least_representatives(n)[n]}


# --- palindromes ------------------------------------------------------------


class Palindromes(Workload):
    name = "palindromes"

    def __init__(self, *args):
        super().__init__(*args)
        self.lengths = self.sizes["palindromes"]
        self.jobs = min(2, os.cpu_count() or 1)

    def warm_up(self):
        self.cli(["sequence", "npal", "6", "--jobs", "1"])

    def run_pass(self, log):
        n_count, n_list = self.lengths
        self.cli_call(log, ["sequence", "npal", str(n_count), "--jobs", "1"])
        key = f"enumerate {n_list} --pnpals"
        one = self.cli_call(log, ["enumerate", str(n_list), "--pnpals", "--jobs", "1"], key)
        many = self.cli_call(log, ["enumerate", str(n_list), "--pnpals", "--jobs", str(self.jobs)], key)
        if one is not None and many is not None:
            log.check(f"{key} jobs 1 vs {self.jobs}", one[1] == many[1], "stdout depends on --jobs")

    def oracle_check(self, log):
        n = self.rng.randint(8, 14)
        oracle, pal = self.p.oracle, self.p.palindromes
        slow = [w.bits for w in oracle.all_words(n) if w == w.reverse() and oracle.brute_is_prefix_normal(w)]
        fast = [w.bits for w in pal.enumerate_prefix_normal_palindromes(n).words]
        log.check(f"oracle palindromes n={n}", fast == slow)

    def info(self):
        n = self.lengths[-1]
        return {"n": n, "result_count": self.p.palindromes.count_prefix_normal_palindromes(n)}


# --- sweep ------------------------------------------------------------------


class Sweep(Workload):
    name = "sweep"

    def __init__(self, *args):
        super().__init__(*args)
        self.n = self.sizes["sweep"]
        # Reference for the band engine, computed once outside the timing.
        self.brute = collapse_digest(self.p.collapse.collapse_classes(self.n, "brute"))

    def warm_up(self):
        self.p.collapse.collapse_classes(4, "band")
        self.p.verify.check_collapstheo(3)

    def run_pass(self, log):
        p, n = self.p, self.n

        def partition_ok(part):
            self.match(f"class_partition {n}", partition_digest(part), "partition differs")

        def band_ok(classes):
            got = collapse_digest(classes)
            expect(got == self.brute, "band engine differs from brute engine")
            self.match(f"collapse_classes {n} brute", got, "collapse classes differ")

        log.call(f"class_partition {n}", p.normality.class_partition, n, check=partition_ok)
        log.call(f"collapse_classes {n} band", p.collapse.collapse_classes, n, "band", check=band_ok)
        for suite in ("collapstheo", "collapsindex", "leastsuffix", "smallsum", "palchar"):
            key = f"verify {suite} {n}"

            def suite_ok(report, key=key):
                expect(report.ok, f"counterexample: {report.counterexample}")
                self.match(key, digest(report.lines), "report differs")

            log.call(key, getattr(p.verify, f"check_{suite}"), n, check=suite_ok)

    def oracle_check(self, log):
        n = self.rng.randint(5, 8)
        oracle, p = self.p.oracle, self.p
        slow = oracle.brute_class_partition(n)
        fast = p.normality.class_partition(n, materialize=True).classes
        same = sorted(slow) == sorted(fast) and all(
            [w.bits for w in slow[sig]] == [w.bits for w in fast[sig].members] for sig in slow
        )
        log.check(f"oracle partition n={n}", same)
        band = [[v.bits for v in c.members] for c in p.collapse.collapse_classes(n, "band")]
        brute = [[v.bits for v in group] for group in oracle.brute_collapse_partition(n)]
        log.check(f"oracle band n={n}", band == brute)

    def info(self):
        return {"n": self.n, "result_count": len(self.p.normality.class_partition(self.n).classes)}


# --- jpm --------------------------------------------------------------------


def random_word(Word, rng, n, density):
    bits = 0
    for _ in range(n):
        bits = (bits << 1) | (rng.random() < density)
    return Word(n, bits)


def random_queries(rng, n, density, count):
    """Half near the expected count of ones (mostly hits), half uniform
    over 0..k (mostly misses for long factors)."""
    pairs = []
    for i in range(count):
        k = rng.randint(1, n)
        if i % 2 == 0:
            spread = max(1.0, (k * density * (1 - density)) ** 0.5)
            d = round(rng.gauss(k * density, 2 * spread))
        else:
            d = rng.randint(0, k)
        pairs.append((k, min(max(d, 0), k)))
    return pairs


def make_jpm_inputs(Word, rng, strata, queries):
    inputs = []
    for n, count in strata:
        offset = rng.randrange(len(DENSITIES))
        for i in range(count):
            density = DENSITIES[(i + offset) % len(DENSITIES)]
            w = random_word(Word, rng, n, density)
            inputs.append((w, random_queries(rng, n, density, queries)))
    return inputs


def npf_from_profile(Word, fmax):
    """Prefix normal form read off the max envelope, independent of pnlab's own."""
    return Word.from_bits(fmax[k] - fmax[k - 1] for k in range(1, len(fmax)))


class Jpm(Workload):
    name = "jpm"

    def __init__(self, *args):
        super().__init__(*args)
        self.inputs = make_jpm_inputs(self.p.Word, self.rng, self.sizes["jpm"], self.sizes["queries"])
        self.first: list | None = None

    def warm_up(self):
        w = self.p.Word(8, 0b10110010)
        idx = self.p.jpm.build_index(w)
        self.p.jpm.query(idx, 3, 2)
        self.report(w)

    def report(self, w):
        p = self.p
        return (
            p.normality.prefix_normal_form(w),
            p.normality.least_representative(w),
            p.palindromes.is_prefix_normal_palindrome_by_profile(w),
        )

    def answer(self, w, pairs):
        """Build, query and report on one word without timing (canary and oracle use)."""
        idx = self.p.jpm.build_index(w)
        return idx, [self.p.jpm.query(idx, k, d) for k, d in pairs], self.report(w)

    def run_pass(self, log):
        p = self.p
        results = []
        for i, (w, pairs) in enumerate(self.inputs):
            label = f"word {i} n={w.n}"

            def index_ok(idx, i=i, w=w):
                expect(idx.n == w.n and len(idx.fmax) == len(idx.fmin) == w.n + 1, "index shape")
                expect(all(lo <= hi for lo, hi in zip(idx.fmin, idx.fmax)), "envelopes cross")
                if self.first is not None:
                    expect((idx.fmax, idx.fmin) == self.first[i][0], "index changed between passes")

            idx = log.call(f"build_index {label}", p.jpm.build_index, w, check=index_ok)
            answers = None if idx is None else log.queries_batch(f"queries {label}", p.jpm.query, idx, pairs)
            if answers is not None and self.first is not None:
                wrong = sum(a != b for a, b in zip(answers, self.first[i][1]))
                if wrong:
                    log.fail(f"query {label}", "answers changed between passes", wrong)

            def report_ok(rep, w=w, idx=idx):
                npf, lr, pnpal = rep
                if idx is not None:
                    expect(npf == npf_from_profile(p.Word, idx.fmax), "prefix normal form")
                expect(lr == npf.reverse(), "least representative is not the reversed form")
                expect(pnpal == (w.bits == 0 or (w == w.reverse() and w == npf)), "palindrome test")

            rep = log.call(f"report {label}", self.report, w, sample=False, check=report_ok)
            results.append(((idx.fmax, idx.fmin) if idx else None, answers, rep))
        if self.first is None:
            self.first = results

    def canary(self, log):
        """Seed-independent inputs whose answers were recorded from the seed code."""
        rng = random.Random(CANARY_SEED)
        parts = []
        for w, pairs in make_jpm_inputs(self.p.Word, rng, SCALES["tiny"]["jpm"], 16):
            idx, answers, (npf, lr, pnpal) = self.answer(w, pairs)
            parts.append(f"{idx.fmax}|{idx.fmin}|{answers}|{npf.bits}|{lr.bits}|{pnpal}")
        try:
            self.match("canary", digest(parts), "canary answers differ")
            ok = True
        except Failure:
            ok = False
        log.check("jpm canary", ok, "canary answers differ")

    def oracle_check(self, log):
        brute = self.p.oracle.brute_jumbled_query
        picks = [(self.rng.randrange(len(self.inputs)), self.rng.randrange(self.sizes["queries"]))
                 for _ in range(ORACLE_QUERIES)]
        for i, j in picks:
            w, pairs = self.inputs[i]
            k, d = pairs[j]
            answers = self.first[i][1] if self.first and self.first[i][1] else None
            got = answers[j] if answers else self.p.jpm.query(self.p.jpm.build_index(w), k, d)
            log.check(f"oracle query word {i} k={k} d={d}", got == brute(w, k, d))
        self.canary(log)

    def info(self):
        return {
            "n": max(w.n for w, _ in self.inputs),
            "result_count": sum(len(q) for _, q in self.inputs),
        }


WORKLOADS = {cls.name: cls for cls in (Levels, Palindromes, Jpm, Sweep)}
