"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 7's middle part states a two-sided palcol bracket on class
counts.  Its upper bound is arithmetically false from n = 6 on (the
reference table values reproduced by criteria 1 and 2 witness it), so
`test_c07b_palcol_bracket_as_stated` pins where the bracket holds and
where it fails, and checks the cause.  Every acceptance test must pass.
"""

import contextlib
import io
import random
import time
from fractions import Fraction

from pnlab import oracle
from pnlab.collapse import (
    adjusted_lower_band,
    class_size_bound,
    collapse_classes,
    index_bounds,
    lower_band_word,
    prepend_one_profile,
    recursive_lr_step,
)
from pnlab.cli import main
from pnlab.jpm import build_index, query
from pnlab.normality import (
    class_partition,
    count_least_representatives,
    enumerate_least_representatives,
    iter_lr_levels,
    profile_increments_word,
)
from pnlab.palindromes import (
    count_prefix_normal_palindromes,
    enumerate_prefix_normal_palindromes,
    is_prefix_normal_palindrome,
)
from pnlab.verify import check_palchar
from pnlab.words import Word, max_ones, prefix_ones, suffix_ones

TABLE1 = [2, 3, 5, 8, 14, 23, 41, 70]
TABLE2 = [
    2, 2, 3, 3, 5, 4, 8, 7, 12, 11, 21, 18, 36, 31, 57,
    55, 104, 91, 182, 166, 308, 292, 562, 512, 1009, 928, 1755, 1697, 3247, 2972,
]


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_c01_table1_reproduction():
    t0 = time.monotonic()
    code, out = run_cli(["sequence", "pn-count", "8"])
    elapsed = time.monotonic() - t0
    assert code == 0
    assert out == "n,value\n" + "".join(f"{n},{v}\n" for n, v in enumerate(TABLE1, start=1))
    assert elapsed < 5.0, f"took {elapsed:.2f}s"

    # extended run: level construction stays consistent with the class-based
    # recursion (counting identity) at every length up to 20
    levels = iter_lr_levels(20)
    _, prev = next(levels)
    counts = {0: len(prev)}
    for m, states in levels:
        counts[m] = len(states)
        if m - 1 >= 1:
            classes_prev = len({prepend_one_profile(bits, m - 1) for bits in prev})
            assert counts[m] == counts[m - 1] + classes_prev - 1, f"inconsistent at n={m - 1}"
        prev = states
    assert [counts[n] for n in range(1, 9)] == TABLE1
    print(f"\nACCEPTANCE 1 PASS (pn-count 1..8 exact in {elapsed:.2f}s; recursion-consistent to n=20)")


def test_c02_table2_reproduction():
    t0 = time.monotonic()
    code, out = run_cli(["sequence", "npal", "30"])
    elapsed = time.monotonic() - t0
    assert code == 0
    assert out == "n,value\n" + "".join(f"{n},{v}\n" for n, v in enumerate(TABLE2, start=1))
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 2 PASS (npal 1..30 exact in {elapsed:.2f}s)")


def test_c03_palindrome_test_equivalence():
    report = check_palchar(18)
    assert report.ok, report.counterexample
    # exhaustive through 16, then at least 10^6 random words over 17..18
    assert sum(1 for line in report.lines if "exhaustive" in line) == 17
    random_words = sum(
        int(line.split("words=")[1].split()[0]) for line in report.lines if "random" in line
    )
    assert random_words >= 1_000_000
    print(f"ACCEPTANCE 3 PASS (exhaustive to 16, {random_words} random words at 17..18, zero mismatches)")


def test_c04_canonical_form_suite():
    for n in range(0, 15):
        part = class_partition(n, materialize=True)
        assert sum(cls.size for cls in part) == 2**n
        singletons = set()
        for cls in part:
            members = cls.members
            pn = [m for m in members if prefix_ones(m) == cls.signature]
            sn = [m for m in members if suffix_ones(m) == cls.signature]
            assert len(pn) == 1 and len(sn) == 1, f"n={n} sig={cls.signature}"
            assert pn[0] == cls.npf == max(members)
            assert sn[0] == cls.lr == min(members) == cls.npf.reverse()
            if cls.size == 1:
                singletons.add(members[0])
        pals = set(enumerate_prefix_normal_palindromes(n).words)
        assert singletons == pals, f"n={n}"
    print("ACCEPTANCE 4 PASS (canonical members unique and extremal, singletons = palindromes, n <= 14)")


def test_c05_recursive_construction_fidelity():
    counts = count_least_representatives(14)
    for n in range(1, 14):
        lrs = list(enumerate_least_representatives(n))
        stepped = recursive_lr_step(lrs)
        direct = list(enumerate_least_representatives(n + 1))
        assert stepped == direct, f"n={n}"
        classes = len(collapse_classes(n))
        assert counts[n + 1] == counts[n] + classes - 1, f"identity fails at n={n}"
    print("ACCEPTANCE 5 PASS (recursion = enumeration and counting identity, n = 1..13)")


def test_c06_collapse_engine_agreement():
    from pnlab.normality import is_suffix_normal
    from pnlab.words import max_ones_sum

    for n in range(1, 14):
        brute = collapse_classes(n, engine="brute")
        band = collapse_classes(n, engine="band")
        assert [c.members for c in brute] == [c.members for c in band], f"n={n}"
        for cls in brute:
            assert cls.extender == min(cls.members)
            extending = {v for v in cls.members if is_suffix_normal(v.prepend(1))}
            if cls.extender.bits == 0:
                assert extending == set()
                continue
            assert extending == {cls.extender}
            fe = max_ones(cls.extender)
            for v in cls.members[1:]:
                fv = max_ones(v)
                assert all(fv[i] <= fe[i] for i in range(n + 1))
                assert max_ones_sum(fv) < max_ones_sum(fe)
    print("ACCEPTANCE 6 PASS (band search = brute partition with extender extremality, n <= 13)")


def test_c07a_collapse_class_size_bound():
    for n in range(2, 15):
        for cls in collapse_classes(n):
            if cls.extender.bits == 0:
                continue
            bound = class_size_bound(cls.extender)
            assert cls.size <= bound, f"n={n} extender={cls.extender}"
    print("ACCEPTANCE 7a PASS (2^ceil(pd/2) dominates every collapse-class size, n = 2..14)")


def palcol_upper(ell, npal_next):
    """The stated palcol upper bound ell + npal(n+1) + (ell - npal(n+1))/2."""
    return Fraction(ell + npal_next) + Fraction(ell - npal_next, 2)


def test_c07b_palcol_bracket_as_stated():
    # The bracket ell + npal(n-1) <= classes(n+1) <= palcol_upper(ell, npal(n+1)),
    # ell = classes(n), checked as stated: the lower bound holds on n = 2..14, the
    # upper bound holds on n = 2..5 and is false on n = 6..14.  README.md
    # ("Expected outcome") gives the analysis; `pnlab verify palcol 14` reports it.
    where = "see README.md, Expected outcome, and `pnlab verify palcol 14`"

    # the n = 6 counterexample from the reference tables alone
    ell, actual, npal_next = TABLE1[5], TABLE1[6], TABLE2[6]
    upper = palcol_upper(ell, npal_next)
    assert upper == Fraction(77, 2) and upper < actual, (
        f"n=6 from the tables: {ell} + {npal_next} + ({ell} - {npal_next})/2 = {upper}, "
        f"classes(7) = {actual}; {where}"
    )

    counts = count_least_representatives(15)
    pal = [count_prefix_normal_palindromes(i) for i in range(16)]
    upper_fails = set()
    for n in range(2, 15):
        ell, actual = counts[n], counts[n + 1]
        lower = ell + pal[n - 1]
        upper = palcol_upper(ell, pal[n + 1])
        b = index_bounds(ell, pal[n - 1], pal[n + 1], pal[n])
        assert (b.lower, b.upper_palcol) == (lower, upper), (
            f"n={n}: index_bounds gives {b.lower}..{b.upper_palcol}, the stated bracket is {lower}..{upper}"
        )
        assert lower <= actual, f"lower bound fails at n={n}: {ell} + npal({n - 1}) = {lower} > {actual}"
        if actual > upper:
            upper_fails.add(n)
    assert counts[2] + pal[1] == counts[3] == 5, f"lower bound not tight at n=2: {counts[2]} + {pal[1]} vs {counts[3]}"
    assert palcol_upper(counts[5], pal[6]) == counts[6] == 23, (
        f"upper bound not tight at n=5: {palcol_upper(counts[5], pal[6])} vs {counts[6]}"
    )
    assert upper_fails == set(range(6, 15)), (
        f"the palcol upper bound fails at n in {sorted(upper_fails)}, expected exactly 6..14; {where}"
    )
    # the same n = 6 counterexample from this build's own counts
    assert palcol_upper(counts[6], pal[7]) == Fraction(77, 2) < counts[7], (
        f"n=6: {counts[6]} + {pal[7]} + ({counts[6]} - {pal[7]})/2 = {palcol_upper(counts[6], pal[7])}, "
        f"classes(7) = {counts[7]}; {where}"
    )

    # The cause: the halving argument needs every singleton collapse class to
    # extend by a 1 to a prefix normal palindrome, and from n = 4 on some do not.
    first_breakers = {2: [], 3: [], 4: ["0111"], 5: ["00111", "01111"]}
    for n in range(2, 15):
        classes = collapse_classes(n)
        singletons = [cls.members[0] for cls in classes if cls.size == 1]
        others = [w for w in singletons if not is_prefix_normal_palindrome(w.prepend(1))]
        assert Word.zeros(n) in others, f"n={n}: 0^{n} is not a non-extending singleton"
        breakers = [str(w) for w in others if w.bits]
        if n in first_breakers:
            assert breakers == first_breakers[n], f"n={n}: non-palindromic singleton extensions {breakers}"
        # every prefix normal palindrome of length n + 1 but 0^(n+1) is 1.w for a singleton w
        s = len(singletons)
        assert s == pal[n + 1] - 1 + len(others), (
            f"n={n}: {s} singletons, npal({n + 1}) = {pal[n + 1]}, {len(others)} non-palindromic extensions"
        )
        # counting identity, then halving with S(n) in place of npal(n+1); the
        # -1 is the all-zeros class, which does not extend
        ell, actual = counts[n], counts[n + 1]
        assert actual == ell + len(classes) - 1, f"counting identity fails at n={n}"
        bound = palcol_upper(ell, s) - 1
        assert actual <= bound, f"n={n}: {ell} + {s} + ({ell} - {s})/2 - 1 = {bound} < {actual}"
    print("ACCEPTANCE 7b PASS (palcol lower bound holds n = 2..14; upper bound holds n = 2..5 and "
          "fails n = 6..14, explained by singleton classes that extend to no palindrome)")


def test_c07c_doubling_bound_flagged_and_corrected():
    counts = count_least_representatives(15)
    flagged = set()
    for n in range(2, 15):
        pal_here = count_prefix_normal_palindromes(n)
        actual = counts[n + 1]
        paper_form = 2 * counts[n] - pal_here
        corrected = 2 * counts[n] - (pal_here - 1)
        assert actual <= corrected, f"corrected form fails at n={n}"
        if actual > paper_form:
            flagged.add(n)
    assert 4 in flagged
    assert flagged == {2, 3, 4}
    print("ACCEPTANCE 7c PASS (paper-literal doubling bound FLAGGED at n=2,3,4 incl. the documented n=4; corrected form holds, n = 2..14)")


def test_c08_jumbled_queries_vs_oracle():
    t0 = time.monotonic()
    rng = random.Random(0xACCE55)
    words = 10_000
    pairs = 0
    for _ in range(words):
        n = rng.randint(0, 64)
        w = Word(n, rng.getrandbits(n))
        idx = build_index(w)
        for k in range(n + 1):
            for d in range(k + 1):
                assert query(idx, k, d) == oracle.brute_jumbled_query(w, k, d), (w, k, d)
                pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 8 PASS ({words} random words, {pairs} (k,d) pairs, zero mismatches, {elapsed:.1f}s)")


def test_c09_band_rows_reproduction():
    f_w = (0, 1, 2, 3, 4, 5, 5, 6, 7, 8, 8, 8, 9, 10, 10, 11, 12, 13)
    f_u = (0, 1, 2, 3, 4, 4, 5, 6, 7, 7, 7, 8, 9, 9, 10, 11, 12, 13)
    f_hat = (0, 1, 2, 3, 4, 4, 5, 6, 7, 7, 8, 8, 9, 9, 10, 11, 12, 13)
    w = profile_increments_word(f_w).reverse()
    assert max_ones(w) == f_w
    u = lower_band_word(w)
    assert max_ones(u) == f_u
    assert adjusted_lower_band(w, u) == f_hat
    print("ACCEPTANCE 9 PASS (length-17 band rows reproduced bit-exactly)")


def test_c10_output_determinism_across_jobs():
    commands = [
        ["sequence", "npal", "26"],
        ["sequence", "pn-count", "12"],
        ["sequence", "collapse-classes", "10"],
        ["enumerate", "12"],
        ["enumerate", "15", "--pnpals"],
        ["collapse-classes", "10"],
    ]
    for cmd in commands:
        code1, out1 = run_cli(cmd + ["--jobs", "1"])
        code8, out8 = run_cli(cmd + ["--jobs", "8"])
        assert code1 == code8 == 0, cmd
        assert out1 == out8, f"output differs across jobs for {cmd}"
    print("ACCEPTANCE 10 PASS (byte-identical outputs for --jobs 1 vs --jobs 8)")
