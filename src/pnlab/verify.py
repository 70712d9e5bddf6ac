"""Named verification suites.

Each suite sweeps one structural claim over all instances up to a given
length.  It is a generator that yields one PASS line per length and
raises `Counterexample` at the first instance that breaks the claim; the
`suite` decorator registers it in CHECKS and turns it into the
check_*(n_max) -> VerifyReport that callers use (the CLI streams the
generator, `check.__wrapped__`).  A suite that yields no line checked
nothing, so both raise `UsageError` for it rather than pass.  Each suite
checks n_max against its cap before any work, most through the walk over
the lengths that they read, so an over-cap run fails at once.  The
`palupperbound` check is special: the literal form of that bound fails
for a few small lengths, so those are reported as FLAGGED while only the
corrected form gates the result.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import wraps
from itertools import accumulate, islice, zip_longest
from operator import gt, ne

from . import limits
from .collapse import index_bounds, iter_collapse_classes, validate_lr_profile
from .normality import (
    count_least_representatives,
    count_one_prepends,
    is_suffix_normal,
    iter_class_partitions,
    iter_lr_levels,
)
from .palindromes import (
    is_prefix_normal_palindrome,
    is_prefix_normal_palindrome_by_profile,
    iter_prefix_normal_palindromes,
)
from .words import Word, letters, max_ones_sum, prefix_normal_forms, prefix_ones, reversed_bits, suffix_ones

RANDOM_SEED = 0x5EED
EXHAUSTIVE_PROFILE_LIMIT = 16
RANDOM_WORDS_PER_LENGTH = 500_000


@dataclass
class VerifyReport:
    name: str
    lines: list[str] = field(default_factory=list)
    counterexample: str | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


class Counterexample(Exception):
    """Raised by a suite at the first instance that breaks its claim."""

    def __init__(self, instance, detail: str):
        super().__init__(f"counterexample {instance} ({detail})")


CHECKS: dict[str, tuple[Callable[[int], VerifyReport], str]] = {}


def suite(name: str, description: str):
    """Register a suite generator in CHECKS under `name`; return its check_*(n_max)."""

    def register(lines_of):
        @wraps(lines_of)
        def checked_lines(n_max: int):
            lines = lines_of(n_max)
            first = next(lines, None)
            if first is None:
                raise limits.UsageError(f"{name} checks nothing up to length {n_max}")
            yield first
            yield from lines

        @wraps(checked_lines)
        def check(n_max: int) -> VerifyReport:
            lines: list[str] = []
            try:
                for line in checked_lines(n_max):
                    lines.append(line)
            except Counterexample as exc:
                return VerifyReport(name, lines, str(exc))
            return VerifyReport(name, lines)

        CHECKS[name] = (check, description)
        return check

    return register


@suite("palchar", "palindrome test by definition equals the profile-mirror test")
def check_palchar(n_max: int):
    """Palindrome test by definition and by profile mirror must agree: on
    every word up to EXHAUSTIVE_PROFILE_LIMIT letters, where the words both
    accept number npal(n) of the scan, and on seeded random words beyond."""
    limits.check_length(n_max, kind="palindrome test")
    npal = [len(packed) for _, packed in iter_prefix_normal_palindromes(min(n_max, EXHAUSTIVE_PROFILE_LIMIT))]
    rng = random.Random(RANDOM_SEED)
    for n in range(n_max + 1):
        exhaustive = n <= EXHAUSTIVE_PROFILE_LIMIT
        count = 1 << n if exhaustive else RANDOM_WORDS_PER_LENGTH
        accepted = 0
        for value in range(count):
            w = Word(n, value if exhaustive else rng.getrandbits(n))
            by_definition = is_prefix_normal_palindrome(w)
            if by_definition != is_prefix_normal_palindrome_by_profile(w):
                raise Counterexample(w, "definition and profile test disagree")
            accepted += by_definition
        if exhaustive and accepted != npal[n]:
            raise Counterexample(f"n={n}", f"{accepted} words pass both tests, expected npal({n}) = {npal[n]}")
        yield f"PASS n={n} words={count} ({'exhaustive' if exhaustive else 'random'})"


@suite("leastsuffix", "unique canonical members, maximum reversed onto minimum")
def check_leastsuffix(n_max: int):
    """Each class: one prefix normal member (its maximum), one suffix normal
    member (its minimum), and the two are reversals of each other.  The
    classes partition all 2^n words, so their members number 2^n."""
    for part in iter_class_partitions(n_max, materialize=True):
        words = 0
        for cls in part:
            members = cls.members
            words += len(members)
            pn = [m for m in members if prefix_ones(m) == cls.signature]
            sn = [m for m in members if suffix_ones(m) == cls.signature]
            if len(pn) != 1 or len(sn) != 1:
                raise Counterexample(members[0], "canonical member not unique")
            if pn[0] != max(members) or pn[0] != cls.npf:
                raise Counterexample(pn[0], "prefix normal member is not the maximum")
            if sn[0] != min(members) or sn[0] != cls.lr or sn[0] != cls.npf.reverse():
                raise Counterexample(sn[0], "least representative is not the reversed maximum")
        if words != 1 << part.n:
            raise Counterexample(f"n={part.n}", f"{words} words in the classes, expected {1 << part.n}")
        yield f"PASS n={part.n} classes={len(part.classes)}"


@suite("corlol", "singleton classes are exactly the prefix normal palindromes")
def check_corlol(n_max: int):
    """Singleton classes are exactly the prefix normal palindromes."""
    for (n, packed), part in zip(iter_prefix_normal_palindromes(n_max), iter_class_partitions(n_max)):
        singles = {cls.lr.bits for cls in part.classes.values() if cls.size == 1}
        if wrong := singles.symmetric_difference(packed):
            raise Counterexample(Word(n, min(wrong)), "singleton classes differ from palindromes")
        yield f"PASS n={n} singletons={len(singles)}"


@suite("pchar", "least representatives satisfy the profile shape inequalities")
def check_pchar(n_max: int):
    """Every least representative satisfies the suffix-profile inequalities;
    the words checked number the class count that the count walk gives."""
    counts = count_least_representatives(n_max)
    for n, level in iter_lr_levels(n_max):
        checked = 0
        for bits in level:
            if not validate_lr_profile(suffix_ones(Word(n, bits))):
                raise Counterexample(Word(n, bits), "profile violates the shape inequalities")
            checked += 1
        if checked != counts[n]:
            raise Counterexample(f"n={n}", f"{checked} words checked, expected {counts[n]}")
        yield f"PASS n={n}"


@suite("symminf", "1-prepend profile changes appear at mirror positions")
def check_symminf(n_max: int):
    """Profile changes caused by prepending 1 appear at mirror positions, and
    they appear on 1..n for exactly the least representatives that do not
    extend (`extends_by_one`): len(level) minus those that `count_one_prepends`
    counts.  Each profile is the prefix counts of its prefix normal form, which
    one lane loop gives for the level and one for its 1-prepends."""
    extending = count_one_prepends(n_max)
    for n, level in iter_lr_levels(n_max):
        changed = 0
        forms = zip(level, prefix_normal_forms(n, level), prefix_normal_forms(n + 1, (v | 1 << n for v in level)))
        for bits, form, form1 in forms:
            # f1(i) != f(i) for i = 1..n: map stops with the shorter profile
            changes = bytes(map(ne, accumulate(letters(form1, n + 1)), accumulate(letters(form, n))))
            if changes != changes[::-1]:
                i = next(i for i in range(1, n + 1) if changes[i - 1] != changes[n - i])
                raise Counterexample(Word(n, bits), f"asymmetric change at position {i}")
            changed += any(changes)
        if changed != len(level) - extending[n]:
            raise Counterexample(f"n={n}", f"{changed} profiles change, expected {len(level) - extending[n]}")
        yield f"PASS n={n}"


@suite("falsecollapse", "mixed prepends overlap only at the all-zeros pair")
def check_falsecollapse(n_max: int):
    """A 0-prepend and a 1-prepend of least representatives share a class
    exactly once per length: 0^(n-1)1 under 0 and 0^n under 1, both with
    profile 0, 1, ..., 1.  One dict maps each 0-prepend's prefix normal form,
    a key for its profile, to its word, and each 1-prepend's form is looked
    up in it; the pair must be found, and no other."""
    for n, level in islice(iter_lr_levels(n_max), 1, None):
        zero_side = dict(zip(prefix_normal_forms(n + 1, level), level))
        one_side = prefix_normal_forms(n + 1, (v | 1 << n for v in level))
        overlaps = [(zero_side[form], v) for form, v in zip(one_side, level) if form in zero_side]
        for w, v in overlaps:
            if (w, v) != (1, 0):
                raise Counterexample(Word(n, w), f"unexpected overlap with {Word(n, v)}")
        if not overlaps:
            raise Counterexample(Word(n, 1), f"no overlap with {Word(n, 0)}")
        yield f"PASS n={n}"


@suite("smallsum", "extenders dominate their class profiles")
def check_smallsum(n_max: int):
    """Extenders dominate their class pointwise and strictly in profile sum.
    Each member's profile is the prefix counts of its prefix normal form,
    which one lane loop gives for every member of the level.  The classes
    partition the level, so their members number the class count."""
    walk = iter_collapse_classes(n_max)
    next(walk)  # n = 0, with nothing to dominate; the first `next` checks the cap
    counts = count_least_representatives(n_max)
    for n, classes in walk:
        forms = prefix_normal_forms(n, (bits for cls in classes for bits in cls.packed))
        words = 0
        for cls in classes:
            words += cls.size
            # zip tests cls.packed first, so it reads no form past the class
            fe, *others = [tuple(accumulate(letters(form, n), initial=0)) for _, form in zip(cls.packed, forms)]
            if cls.packed[0] == 0:
                continue
            se = max_ones_sum(fe)
            for v, fv in zip(cls.packed[1:], others):
                if any(map(gt, fv, fe)) or max_ones_sum(fv) >= se:
                    raise Counterexample(Word(n, v), f"not dominated by extender {cls.extender}")
        if words != counts[n]:
            raise Counterexample(f"n={n}", f"{words} words in the classes, expected {counts[n]}")
        yield f"PASS n={n}"


@suite("lexsmall", "the minimum of each class is the only extending member")
def check_lexsmall(n_max: int):
    """In each class, exactly the lexicographic minimum extends; the
    all-zeros class has no extending member at all.  1·v is a least
    representative exactly when it is the reversal of its prefix normal
    form, which one lane loop gives for every member of the level.  The
    extending members found number the kept 1-prepends of the count walk."""
    walk = iter_collapse_classes(n_max)
    next(walk)  # n = 0: the one class is the all-zeros word; the first `next` checks the cap
    kept = count_one_prepends(n_max)
    for n, classes in walk:
        forms = prefix_normal_forms(n + 1, (bits | 1 << n for cls in classes for bits in cls.packed))
        found = 0
        for cls in classes:
            pairs = zip(cls.packed, forms)  # zip tests cls.packed first, so it reads no form past the class
            extending = {bits for bits, form in pairs if reversed_bits(form, n + 1) == bits | 1 << n}
            if cls.packed[0] == 0:
                if extending:
                    raise Counterexample(cls.extender, "all-zeros class should not extend")
            elif extending != {cls.packed[0]}:
                raise Counterexample(cls.extender, "extending member is not the minimum alone")
            found += len(extending)
        if found != kept[n]:
            raise Counterexample(f"n={n}", f"{found} extending members, expected {kept[n]}")
        yield f"PASS n={n}"


@suite("collapstheo", "band-search collapse classes equal the definitional grouping")
def check_collapstheo(n_max: int):
    """Band-search collapse classes equal the grouping by definition."""
    engines = zip(iter_collapse_classes(n_max, engine="brute"), iter_collapse_classes(n_max, engine="band"))
    for (n, brute), (_, band) in islice(engines, 1, None):
        if brute != band:
            diff = next(b or d for b, d in zip_longest(brute, band) if b != d)  # one list may run out first
            raise Counterexample(diff.extender, "engines disagree")
        yield f"PASS n={n} classes={len(brute)}"


@suite("collapsindex", "palindromic-distance bound dominates collapse-class sizes")
def check_collapsindex(n_max: int):
    """The palindromic-distance bound dominates every collapse-class size.
    Only the all-zeros class, of size 1, has no bound."""
    for n, classes in islice(iter_collapse_classes(n_max), 1, None):
        unbounded = 0
        for cls in classes:
            bound = cls.bound
            if bound is None:
                unbounded += 1
            elif cls.size > bound:
                raise Counterexample(cls.extender, f"size {cls.size} above bound {bound}")
        if unbounded != 1:
            raise Counterexample(f"n={n}", f"{unbounded} classes have no bound, expected 1")
        yield f"PASS n={n} max-class-size={max(cls.size for cls in classes)}"


def bounds_by_length(n_max: int):
    """Yield (n, class count at n + 1, its `index_bounds`) for n = 2..n_max."""
    if n_max < 2:
        raise limits.UsageError(f"index bounds start at length 2, so there are none up to length {n_max}")
    counts = count_least_representatives(n_max + 1)
    pal = [len(packed) for _, packed in iter_prefix_normal_palindromes(n_max + 1)]
    for n in range(2, n_max + 1):
        yield n, counts[n + 1], index_bounds(counts[n], pal[n - 1], pal[n + 1], pal[n])


@suite("palcol", "palindrome-count bracket around the next class count")
def check_palcol(n_max: int):
    """Palindrome-count bracket around the class count of the next length."""
    for n, actual, b in bounds_by_length(n_max):
        if not b.lower <= actual <= b.upper_palcol:
            raise Counterexample(f"n={n}", f"bracket {b.lower}..{b.upper_palcol} misses {actual}")
        yield f"PASS n={n} {b.lower} <= {actual} <= {b.upper_palcol}"


@suite("notpal", "palindromes extend by appending 1, never by prepending")
def check_notpal(n_max: int):
    """Appending 1 to a prefix normal palindrome always gives a least
    representative, and prepending 1 does so for all-ones alone, as
    1^(n+1) is one: the palindromes whose 1-prepend is one are {1^n}."""
    for n, packed in islice(iter_prefix_normal_palindromes(n_max), 1, None):
        for bits in packed:
            if not is_suffix_normal(Word(n + 1, bits << 1 | 1)):
                raise Counterexample(Word(n, bits), "1-append unexpectedly not canonical")
        extending = {bits for bits in packed if is_suffix_normal(Word(n + 1, bits | 1 << n))}
        if wrong := extending ^ {(1 << n) - 1}:
            bits = min(wrong)
            detail = "1-prepend unexpectedly canonical" if bits in extending else "1-prepend not canonical"
            raise Counterexample(Word(n, bits), detail)
        yield f"PASS n={n}"


@suite("ww-w0w-1ww1", "doubled-palindrome exclusions")
def check_ww_family(n_max: int):
    """Doubling constructions: ww and w1w never stay prefix normal
    palindromes; w0w forces a single 0 after the leading 1-run; 1ww1
    forces the word to start 10."""
    for n, packed in islice(iter_prefix_normal_palindromes(n_max), 1, None):
        all_ones = (1 << n) - 1
        for bits in packed:
            if bits in (0, all_ones):
                continue  # so n >= 2 below
            w = Word(n, bits)
            if is_prefix_normal_palindrome(w + w):
                raise Counterexample(w, "ww stayed prefix normal")
            if is_prefix_normal_palindrome(w.append(1) + w):
                raise Counterexample(w, "w1w stayed prefix normal")
            if n >= 3 and is_prefix_normal_palindrome(w.append(0) + w):
                z = (all_ones ^ bits).bit_length()  # the first 0 is bit z - 1, the letter after it bit z - 2
                if not (z >= 2 and bits >> z - 2 & 1):
                    raise Counterexample(w, "w0w without the single-zero shape")
            if is_prefix_normal_palindrome(w.prepend(1) + w.append(1)) and bits >> n - 2 != 0b10:
                raise Counterexample(w, "1ww1 without a 10 prefix")
        yield f"PASS n={n}"


@suite("counting-identity", "class counts grow by collapse classes minus one")
def check_counting_identity(n_max: int):
    """Classes at n + 1 = classes at n + collapse classes at n - 1.  The class
    counts come from the count walk; the collapse classes at n are the
    distinct prefix normal forms of the level's 1-prepends, one level held
    at a time."""
    counts = count_least_representatives(n_max + 1)
    for n, level in islice(iter_lr_levels(n_max), 1, None):
        groups = len(set(prefix_normal_forms(n + 1, (v | 1 << n for v in level))))
        expected = counts[n] + groups - 1
        if counts[n + 1] != expected:
            raise Counterexample(f"n={n}", f"got {counts[n + 1]}, expected {expected}")
        yield f"PASS n={n} ({counts[n]} + {groups} - 1 = {expected})"


@suite("palupperbound", "doubling bound, published and corrected forms")
def check_palupperbound(n_max: int):
    """Published doubling bound versus the corrected one.

    The published form 2*classes(n) - pal(n) undercounts for small n;
    such lengths are FLAGGED and only the corrected form
    2*classes(n) - (pal(n) - 1) gates the result.
    """
    for n, actual, b in bounds_by_length(n_max):
        paper, corrected = b.upper_remark_paper, b.upper_remark_corrected
        if actual > corrected:
            raise Counterexample(f"n={n}", f"corrected bound {corrected} below {actual}")
        if actual > paper:
            yield f"FLAGGED n={n} paper-form bound {paper} below actual {actual}; corrected {corrected} holds"
        else:
            yield f"PASS n={n} paper-form {paper} and corrected {corrected} hold ({actual})"
