"""Named verification suites.

Each check sweeps one structural claim over all instances up to a given
length and reports per-length PASS lines, stopping at the first
counterexample.  The `palupperbound` check is special: the literal
form of that bound fails for a few small lengths, so those are reported
as FLAGGED while only the corrected form gates the result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .collapse import (
    class_size_bound,
    collapse_classes,
    index_bounds,
    prepend_one_profile,
    validate_lr_profile,
)
from .normality import (
    class_partition,
    count_least_representatives,
    is_suffix_normal,
    iter_lr_levels,
    lr_level,
)
from .palindromes import (
    count_prefix_normal_palindromes,
    enumerate_prefix_normal_palindromes,
    is_prefix_normal_palindrome,
    is_prefix_normal_palindrome_by_profile,
)
from .words import Word, max_ones, max_ones_sum, prefix_ones, suffix_ones

RANDOM_SEED = 0x5EED
EXHAUSTIVE_PROFILE_LIMIT = 16
RANDOM_WORDS_PER_LENGTH = 500_000


@dataclass
class VerifyReport:
    name: str
    ok: bool
    lines: list[str] = field(default_factory=list)
    counterexample: str | None = None


def _fail(name: str, lines: list[str], word: Word, detail: str) -> VerifyReport:
    return VerifyReport(
        name=name,
        ok=False,
        lines=lines,
        counterexample=f"counterexample {word!s} ({detail})",
    )


def check_palchar(n_max: int) -> VerifyReport:
    """Palindrome test by definition and by profile mirror must agree."""
    lines = []
    for n in range(0, min(n_max, EXHAUSTIVE_PROFILE_LIMIT) + 1):
        for value in range(1 << n):
            w = Word(n, value)
            if is_prefix_normal_palindrome(w) != is_prefix_normal_palindrome_by_profile(w):
                return _fail("palchar", lines, w, "definition and profile test disagree")
        lines.append(f"PASS n={n} words={1 << n} (exhaustive)")
    rng = random.Random(RANDOM_SEED)
    for n in range(EXHAUSTIVE_PROFILE_LIMIT + 1, n_max + 1):
        for _ in range(RANDOM_WORDS_PER_LENGTH):
            w = Word(n, rng.getrandbits(n))
            if is_prefix_normal_palindrome(w) != is_prefix_normal_palindrome_by_profile(w):
                return _fail("palchar", lines, w, "definition and profile test disagree")
        lines.append(f"PASS n={n} words={RANDOM_WORDS_PER_LENGTH} (random)")
    return VerifyReport("palchar", True, lines)


def check_leastsuffix(n_max: int) -> VerifyReport:
    """Each class: one prefix normal member (its maximum), one suffix normal
    member (its minimum), and the two are reversals of each other."""
    lines = []
    for n in range(0, n_max + 1):
        part = class_partition(n, materialize=True)
        for cls in part:
            members = cls.members
            pn = [m for m in members if prefix_ones(m) == cls.signature]
            sn = [m for m in members if suffix_ones(m) == cls.signature]
            if len(pn) != 1 or len(sn) != 1:
                return _fail("leastsuffix", lines, members[0], "canonical member not unique")
            if pn[0] != max(members) or pn[0] != cls.npf:
                return _fail("leastsuffix", lines, pn[0], "prefix normal member is not the maximum")
            if sn[0] != min(members) or sn[0] != cls.lr or sn[0] != cls.npf.reverse():
                return _fail("leastsuffix", lines, sn[0], "least representative is not the reversed maximum")
        lines.append(f"PASS n={n} classes={len(part.classes)}")
    return VerifyReport("leastsuffix", True, lines)


def check_corlol(n_max: int) -> VerifyReport:
    """Singleton classes are exactly the prefix normal palindromes."""
    lines = []
    for n in range(0, n_max + 1):
        part = class_partition(n)
        singles = {cls.lr for cls in part if cls.size == 1}
        pals = set(enumerate_prefix_normal_palindromes(n).words)
        if singles != pals:
            odd = (singles ^ pals).pop()
            return _fail("corlol", lines, odd, "singleton classes differ from palindromes")
        lines.append(f"PASS n={n} singletons={len(singles)}")
    return VerifyReport("corlol", True, lines)


def check_pchar(n_max: int) -> VerifyReport:
    """Every least representative satisfies the suffix-profile inequalities."""
    lines = []
    for n in range(0, n_max + 1):
        for bits in lr_level(n):
            if not validate_lr_profile(suffix_ones(Word(n, bits))):
                return _fail("pchar", lines, Word(n, bits), "profile violates the shape inequalities")
        lines.append(f"PASS n={n}")
    return VerifyReport("pchar", True, lines)


def check_symminf(n_max: int) -> VerifyReport:
    """Profile changes caused by prepending 1 appear at mirror positions."""
    lines = []
    for n in range(0, n_max + 1):
        for bits in lr_level(n):
            w = Word(n, bits)
            f = max_ones(w)
            f1 = max_ones(w.prepend(1))
            for i in range(1, n + 1):
                if (f1[i] != f[i]) != (f1[n - i + 1] != f[n - i + 1]):
                    return _fail("symminf", lines, w, f"asymmetric change at position {i}")
        lines.append(f"PASS n={n}")
    return VerifyReport("symminf", True, lines)


def check_falsecollapse(n_max: int) -> VerifyReport:
    """A 0-prepend and a 1-prepend of distinct least representatives share a
    class only for the all-zeros word and its odd sibling."""
    lines = []
    for n in range(1, n_max + 1):
        zero_side = {}
        one_side = {}
        for bits in lr_level(n):
            w = Word(n, bits)
            zero_side[max_ones(w.prepend(0))] = w
            one_side.setdefault(max_ones(w.prepend(1)), []).append(w)
        expected = (Word(n, 1), Word(n, 0))  # 0^(n-1)1 under 0, 0^n under 1
        for sig, w in zero_side.items():
            for v in one_side.get(sig, []):
                if (w, v) != expected:
                    return _fail("falsecollapse", lines, w, f"unexpected overlap with {v}")
        lines.append(f"PASS n={n}")
    return VerifyReport("falsecollapse", True, lines)


def check_smallsum(n_max: int) -> VerifyReport:
    """Extenders dominate their class pointwise and strictly in profile sum."""
    lines = []
    for n in range(1, n_max + 1):
        for cls in collapse_classes(n):
            if cls.extender.bits == 0:
                continue
            fe = max_ones(cls.extender)
            se = max_ones_sum(fe)
            for v in cls.members[1:]:
                fv = max_ones(v)
                if any(fv[i] > fe[i] for i in range(n + 1)) or max_ones_sum(fv) >= se:
                    return _fail("smallsum", lines, v, f"not dominated by extender {cls.extender}")
        lines.append(f"PASS n={n}")
    return VerifyReport("smallsum", True, lines)


def check_lexsmall(n_max: int) -> VerifyReport:
    """In each class, exactly the lexicographic minimum extends; the
    all-zeros class has no extending member at all."""
    lines = []
    for n in range(1, n_max + 1):
        for cls in collapse_classes(n):
            extending = {v for v in cls.members if is_suffix_normal(v.prepend(1))}
            if cls.extender.bits == 0:
                if extending:
                    return _fail("lexsmall", lines, cls.extender, "all-zeros class should not extend")
            elif extending != {cls.extender}:
                return _fail("lexsmall", lines, cls.extender, "extending member is not the minimum alone")
        lines.append(f"PASS n={n}")
    return VerifyReport("lexsmall", True, lines)


def check_collapstheo(n_max: int) -> VerifyReport:
    """Band-search collapse classes equal the grouping by definition."""
    lines = []
    for n in range(1, n_max + 1):
        brute = [tuple(v.bits for v in c.members) for c in collapse_classes(n, engine="brute")]
        band = [tuple(v.bits for v in c.members) for c in collapse_classes(n, engine="band")]
        if brute != band:
            diff = next(b for b, d in zip(brute, band) if b != d)
            return _fail("collapstheo", lines, Word(n, diff[0]), "engines disagree")
        lines.append(f"PASS n={n} classes={len(brute)}")
    return VerifyReport("collapstheo", True, lines)


def check_collapsindex(n_max: int) -> VerifyReport:
    """The palindromic-distance bound dominates every collapse-class size."""
    lines = []
    for n in range(1, n_max + 1):
        worst = 1
        for cls in collapse_classes(n):
            if n >= 1 and cls.extender.bits == 0:
                continue
            bound = class_size_bound(cls.extender)
            if cls.size > bound:
                return _fail("collapsindex", lines, cls.extender, f"size {cls.size} above bound {bound}")
            worst = max(worst, cls.size)
        lines.append(f"PASS n={n} max-class-size={worst}")
    return VerifyReport("collapsindex", True, lines)


def bounds_by_length(n_max: int):
    """Yield (n, class count at n + 1, its `index_bounds`) for n = 2..n_max."""
    counts = count_least_representatives(n_max + 1)
    pal = [count_prefix_normal_palindromes(i) for i in range(n_max + 2)]
    for n in range(2, n_max + 1):
        yield n, counts[n + 1], index_bounds(counts[n], pal[n - 1], pal[n + 1], pal[n])


def check_palcol(n_max: int) -> VerifyReport:
    """Palindrome-count bracket around the class count of the next length."""
    lines = []
    for n, actual, b in bounds_by_length(n_max):
        if not b.lower <= actual <= b.upper_palcol:
            return VerifyReport(
                "palcol", False, lines,
                counterexample=f"counterexample n={n} (bracket {b.lower}..{b.upper_palcol} misses {actual})",
            )
        lines.append(f"PASS n={n} {b.lower} <= {actual} <= {b.upper_palcol}")
    return VerifyReport("palcol", True, lines)


def check_notpal(n_max: int) -> VerifyReport:
    """Prefix normal palindromes other than all-ones: prepending 1 never
    gives a least representative, appending 1 always does."""
    lines = []
    for n in range(1, n_max + 1):
        for w in enumerate_prefix_normal_palindromes(n).words:
            if w.bits == (1 << n) - 1:
                continue
            if is_suffix_normal(w.prepend(1)):
                return _fail("notpal", lines, w, "1-prepend unexpectedly canonical")
            if not is_suffix_normal(w.append(1)):
                return _fail("notpal", lines, w, "1-append unexpectedly not canonical")
        lines.append(f"PASS n={n}")
    return VerifyReport("notpal", True, lines)


def check_ww_family(n_max: int) -> VerifyReport:
    """Doubling constructions: ww and w1w never stay prefix normal
    palindromes; w0w forces a single 0 after the leading 1-run; 1ww1
    forces the word to start 10."""
    lines = []
    one = Word(1, 1)
    zero = Word(1, 0)
    for n in range(1, n_max + 1):
        all_ones = (1 << n) - 1
        for w in enumerate_prefix_normal_palindromes(n).words:
            if w.bits in (0, all_ones):
                continue
            if is_prefix_normal_palindrome(w + w):
                return _fail("ww-w0w-1ww1", lines, w, "ww stayed prefix normal")
            if is_prefix_normal_palindrome(w + one + w):
                return _fail("ww-w0w-1ww1", lines, w, "w1w stayed prefix normal")
            if n >= 3 and is_prefix_normal_palindrome(w + zero + w):
                k = 0
                while w[k + 1] == 1:
                    k += 1
                if not (k + 2 <= n and w[k + 1] == 0 and w[k + 2] == 1):
                    return _fail("ww-w0w-1ww1", lines, w, "w0w without the single-zero shape")
            if is_prefix_normal_palindrome(one + w + w + one):
                if not (w[1] == 1 and n >= 2 and w[2] == 0):
                    return _fail("ww-w0w-1ww1", lines, w, "1ww1 without a 10 prefix")
        lines.append(f"PASS n={n}")
    return VerifyReport("ww-w0w-1ww1", True, lines)


def check_counting_identity(n_max: int) -> VerifyReport:
    """Classes at n + 1 = classes at n + collapse classes at n - 1."""
    lines = []
    levels = [level for _, level in iter_lr_levels(n_max + 1)]
    for n in range(1, n_max + 1):
        groups = {prepend_one_profile(bits, n) for bits in levels[n]}
        expected = len(levels[n]) + len(groups) - 1
        if len(levels[n + 1]) != expected:
            return VerifyReport(
                "counting-identity", False, lines,
                counterexample=f"counterexample n={n} (got {len(levels[n + 1])}, expected {expected})",
            )
        lines.append(f"PASS n={n} ({len(levels[n])} + {len(groups)} - 1 = {expected})")
    return VerifyReport("counting-identity", True, lines)


def check_palupperbound(n_max: int) -> VerifyReport:
    """Published doubling bound versus the corrected one.

    The published form 2*classes(n) - pal(n) undercounts for small n;
    such lengths are FLAGGED and only the corrected form
    2*classes(n) - (pal(n) - 1) gates the result.
    """
    lines = []
    for n, actual, b in bounds_by_length(n_max):
        paper, corrected = b.upper_remark_paper, b.upper_remark_corrected
        if actual > corrected:
            return VerifyReport(
                "palupperbound", False, lines,
                counterexample=f"counterexample n={n} (corrected bound {corrected} below {actual})",
            )
        if actual > paper:
            lines.append(f"FLAGGED n={n} paper-form bound {paper} below actual {actual}; corrected {corrected} holds")
        else:
            lines.append(f"PASS n={n} paper-form {paper} and corrected {corrected} hold ({actual})")
    return VerifyReport("palupperbound", True, lines)


CHECKS = {
    "palchar": (check_palchar, "palindrome test by definition equals the profile-mirror test"),
    "collapstheo": (check_collapstheo, "band-search collapse classes equal the definitional grouping"),
    "collapsindex": (check_collapsindex, "palindromic-distance bound dominates collapse-class sizes"),
    "palcol": (check_palcol, "palindrome-count bracket around the next class count"),
    "notpal": (check_notpal, "palindromes extend by appending 1, never by prepending"),
    "symminf": (check_symminf, "1-prepend profile changes appear at mirror positions"),
    "leastsuffix": (check_leastsuffix, "unique canonical members, maximum reversed onto minimum"),
    "corlol": (check_corlol, "singleton classes are exactly the prefix normal palindromes"),
    "falsecollapse": (check_falsecollapse, "mixed prepends overlap only at the all-zeros pair"),
    "smallsum": (check_smallsum, "extenders dominate their class profiles"),
    "lexsmall": (check_lexsmall, "the minimum of each class is the only extending member"),
    "pchar": (check_pchar, "least representatives satisfy the profile shape inequalities"),
    "ww-w0w-1ww1": (check_ww_family, "doubled-palindrome exclusions"),
    "counting-identity": (check_counting_identity, "class counts grow by collapse classes minus one"),
    "palupperbound": (check_palupperbound, "doubling bound, published and corrected forms"),
}
