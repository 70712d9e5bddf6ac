"""The collapsing relation on least representatives.

Two words of equal length collapse when prepending 1 to both yields
profile-equivalent words.  Among least representatives this is an
equivalence; each class has a lexicographically smallest member (the
extender) whose 1-prepend is again a least representative, every other
member's 1-prepend is not, and the extender's profile dominates the
profiles of all other members pointwise.

Classes can be computed two ways:

* engine "brute": group least representatives by the profile after
  prepending 1 (the defining property, read off the suffix counts in
  O(n) by `prepend_one_profile`).
* engine "band": for each extender, derive the band of profiles its
  collapsers may have.  The band's top is the extender's own profile;
  its bottom starts from the word obtained by rotating a 1 in at the
  front (reverse of 1·w[1..n-1]) and is then lifted wherever the two
  profiles differ on only one side of a mirror pair (i, n-i+1), because
  collapsers that are least representatives differ from the top profile
  symmetrically.  Every subset of the open mirror pairs gives one
  candidate profile, realized as a word through its increments and kept
  after a direct collapse check.

Both engines must agree; the test suites compare them exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .limits import check_length
from .normality import (
    is_suffix_normal,
    lr_level,
    profile_increments_word,
)
from .words import Profile, Word, letters, max_ones


def collapses(w: Word, v: Word) -> bool:
    """True when prepending 1 to both words gives the same profile."""
    if len(w) != len(v):
        raise ValueError(f"length mismatch: {len(w)} vs {len(v)}")
    return max_ones(w.prepend(1)) == max_ones(v.prepend(1))


def _require_lr(w: Word) -> None:
    if not is_suffix_normal(w):
        raise ValueError(f"{w} is not a least representative")


def extends_to_lr(w: Word) -> bool:
    """Does prepending 1 to this least representative give another one?

    Holds exactly when the 1-prepend leaves the profile unchanged on
    1..n (the last entry always grows by one), and exactly when w does
    not collapse with any lexicographically smaller least representative.
    """
    _require_lr(w)
    return prepend_one_profile(w.bits, len(w))[:-1] == max_ones(w)


def extension_critical(w: Word) -> bool:
    """A least representative whose 1-prepend is not one."""
    return not extends_to_lr(w)


def lower_band_word(w: Word) -> Word:
    """Bottom-of-band word for an extender: reverse of 1·w[1..n-1].

    It always collapses with w and no collapsing least representative
    has a profile below its profile anywhere.
    """
    _require_lr(w)
    n = len(w)
    if w.bits == 0:
        raise ValueError("zero-weight words have no collapse band")
    if not extends_to_lr(w):
        raise ValueError(f"{w} collapses with a smaller least representative")
    return w.slice(1, n - 1).prepend(1).reverse()


def adjusted_lower_band(w: Word, u: Word) -> Profile:
    """Lift the band bottom to the profiles least-representative collapsers can reach.

    Wherever u's profile drops below w's on exactly one position of a
    mirror pair (i, n-i+1), the dropped side is raised back, since
    collapsers that are least representatives drop symmetrically.  The
    result bounds all such collapsers from below; it is not itself
    guaranteed to belong to a collapsing word.
    """
    if not extends_to_lr(w):
        raise ValueError(f"{w} does not extend to a least representative")
    if not collapses(w, u):
        raise ValueError(f"{u} does not collapse with {w}")
    n = len(w)
    fw = max_ones(w)
    fu = max_ones(u)
    for i in range(1, n + 1):
        if fu[i] not in (fw[i], fw[i] - 1):
            raise AssertionError("band bottom strays more than one below the top")
    g = list(fu)
    for i in range(1, n // 2 + 1):
        j = n - i + 1
        low_i = fu[i] != fw[i]
        low_j = fu[j] != fw[j]
        if low_i != low_j:
            if low_i:
                g[i] += 1
            else:
                g[j] += 1
    return tuple(g)


@dataclass(frozen=True)
class BandSpec:
    """Profile band for one extender: all collapser profiles live inside."""

    upper: Profile
    lower: Profile
    free_positions: frozenset[int]


def band_spec(w: Word) -> BandSpec:
    upper = max_ones(w)
    lower = adjusted_lower_band(w, lower_band_word(w))
    n = len(w)
    free = frozenset(i for i in range(1, n // 2 + 1) if lower[i] != upper[i])
    return BandSpec(upper=upper, lower=lower, free_positions=free)


def validate_lr_profile(s: Profile) -> bool:
    """Necessary suffix-profile shape for a least representative.

    Early suffix counts may not fall behind what the tail of the profile
    forces: s(i) >= s(n) - s(n-i+1), strictly more when position i holds
    a 1 (seen as s(n-i+1) > s(n-i)).
    """
    n = len(s) - 1
    for i in range(1, n + 1):
        need = s[n] - s[n - i + 1]
        if s[n - i + 1] != s[n - i]:
            need += 1
        if s[i] < need:
            return False
    return True


def candidate_collapsers(w: Word) -> list[Word]:
    """All least representatives other than w that collapse with the extender w.

    Candidate profiles are the band top with any subset of its open
    mirror pairs lowered by one; each is materialized through its
    increments, reversed into least-representative shape, and kept only
    if it realizes the profile and passes the direct collapse check.
    """
    n = len(w)
    u = lower_band_word(w)
    fw = max_ones(w)
    lower = adjusted_lower_band(w, u)
    target = max_ones(w.prepend(1))

    units: list[tuple[int, ...]] = []
    for i in range(1, (n + 1) // 2 + 1):
        j = n - i + 1
        if lower[i] != fw[i]:
            units.append((i,) if i == j else (i, j))

    found: list[Word] = []
    for mask in range(1, 1 << len(units)):
        g = list(fw)
        for t, unit in enumerate(units):
            if (mask >> t) & 1:
                for pos in unit:
                    g[pos] -= 1
        if any(not 0 <= g[k] - g[k - 1] <= 1 for k in range(1, n + 1)):
            continue
        profile = tuple(g)
        if not validate_lr_profile(profile):
            continue
        cand = profile_increments_word(profile).reverse()
        if cand == w or max_ones(cand) != profile:
            continue
        if not is_suffix_normal(cand):
            continue
        if max_ones(cand.prepend(1)) != target:
            continue
        found.append(cand)
    found.sort()
    return found


def prepend_one_profile(bits: int, n: int) -> Profile:
    """max_ones(1·w) for the least representative w = Word(n, bits): the collapse key.

    w's profile is its suffix counts s, and 1·w adds the windows starting at
    the new letter, so f(i) = max(s(i), p(i-1) + 1) for i <= n and f(n+1) = s(n) + 1.
    """
    x = letters(bits, n)
    s = accumulate(x[::-1])
    return (0, *map(max, s, accumulate(x, initial=1)), bits.bit_count() + 1)


@dataclass(frozen=True)
class CollapseClass:
    n: int
    extender: Word
    members: tuple[Word, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def collapse_classes(n: int, engine: str = "brute", limit: int | None = None) -> list[CollapseClass]:
    """Partition the least representatives of length n by collapsing."""
    check_length(n, limit, kind="collapse partition")
    if engine == "brute":
        # the level is increasing, so groups come out sorted and in extender order
        groups: dict[Profile, list[int]] = {}
        for bits in lr_level(n, limit):
            groups.setdefault(prepend_one_profile(bits, n), []).append(bits)
        return [
            CollapseClass(n=n, extender=Word(n, vals[0]), members=tuple(Word(n, v) for v in vals))
            for vals in groups.values()
        ]
    if engine == "band":
        return _collapse_classes_band(n, limit)
    raise ValueError(f"unknown engine {engine!r}")


def _collapse_classes_band(n: int, limit: int | None) -> list[CollapseClass]:
    lrs = [Word(n, bits) for bits in lr_level(n, limit)]
    if n == 0:
        return [CollapseClass(n=0, extender=lrs[0], members=(lrs[0],))]
    claimed: set[int] = set()
    classes: list[CollapseClass] = []
    for w in lrs:
        if w.bits in claimed:
            continue
        if n >= 1 and w.bits == 0:
            members = (w,)
        else:
            others = candidate_collapsers(w)
            for v in others:
                if v.bits in claimed or not w < v:
                    raise RuntimeError(f"band engine produced an out-of-order collapser {v}")
            members = (w, *others)
        claimed.update(v.bits for v in members)
        classes.append(CollapseClass(n=n, extender=w, members=members))
    if len(claimed) != len(lrs):
        raise RuntimeError("band engine failed to cover every least representative")
    return classes


def recursive_lr_step(lrs: list[Word]) -> list[Word]:
    """Least representatives of length n + 1 from the full set at length n.

    Prepend 0 to everything; prepend 1 to each collapse-class extender,
    except the all-zeros extender whose 1-prepend lands in the class of
    an already produced 0-prepend.
    """
    if not lrs:
        raise ValueError("input must be the non-empty set of least representatives")
    n = len(lrs[0])
    seen = set()
    for w in lrs:
        if len(w) != n:
            raise ValueError("mixed word lengths in input")
        if w.bits in seen:
            raise ValueError(f"duplicate input word {w}")
        seen.add(w.bits)
        _require_lr(w)
    ordered = sorted(lrs)
    extender_of: dict[Profile, int] = {}
    for w in ordered:
        sig = max_ones(w.prepend(1))
        if sig not in extender_of:
            extender_of[sig] = w.bits
    out = [w.prepend(0) for w in ordered]
    out += [
        Word(n, bits).prepend(1)
        for bits in sorted(extender_of.values())
        if not (n >= 1 and bits == 0)
    ]
    return out


def palindromic_distance(w: Word) -> int:
    """Flips needed to make the word a palindrome: mismatches between the
    first half and the reversed second half (odd middle letter ignored)."""
    n = len(w)
    half = n // 2
    if half == 0:
        return 0
    first = w.slice(1, half)
    second = w.slice(n - half + 1, n).reverse()
    return (first.bits ^ second.bits).bit_count()


def palindromic_prefix_length(w: Word) -> int:
    """Length of the longest prefix that is a palindrome."""
    n = len(w)
    if n == 0:
        raise ValueError("empty word has no palindromic prefix length")
    for k in range(n, 0, -1):
        prefix = w.slice(1, k)
        if prefix == prefix.reverse():
            return k
    raise AssertionError("single letters are palindromes")


def class_size_bound(w: Word) -> int:
    """Upper bound 2^ceil(pd/2) on the collapse-class size of an extender.

    pd is the palindromic distance of w concatenated with the reversed
    band-bottom tail w[n-1..1]·1; each mirror pair of openings in the
    band doubles the candidate count at most once.
    """
    if not extends_to_lr(w):
        raise ValueError(f"{w} does not extend to a least representative")
    n = len(w)
    tail = w.slice(1, n - 1).reverse().append(1)
    pd = palindromic_distance(w + tail)
    return 1 << ((pd + 1) // 2)


@dataclass(frozen=True)
class IndexBounds:
    lower: int
    upper_palcol: Fraction
    upper_remark_paper: int
    upper_remark_corrected: int


def index_bounds(ell: int, npal_prev: int, npal_next: int, npal_here: int) -> IndexBounds:
    """Bounds on the number of classes at length n + 1.

    ell is the class count at length n; npal_prev/here/next are the
    prefix normal palindrome counts at lengths n-1, n, n+1.  The first
    upper bound is exact rational; the doubling bound is computed both
    in its literal form (which undercounts for some small lengths) and
    with the one-off correction that discounts the all-ones palindrome.
    The first upper bound is likewise kept in its literal form, so that
    `bounds` and `verify palcol` can report it: it is false from n = 6
    on (77/2 against 41 classes at length 7).
    """
    lower = ell + npal_prev
    upper_palcol = Fraction(ell + npal_next) + Fraction(ell - npal_next, 2)
    upper_remark_paper = 2 * ell - npal_here
    upper_remark_corrected = 2 * ell - (npal_here - 1)
    return IndexBounds(
        lower=lower,
        upper_palcol=upper_palcol,
        upper_remark_paper=upper_remark_paper,
        upper_remark_corrected=upper_remark_corrected,
    )
