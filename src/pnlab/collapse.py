"""The collapsing relation on least representatives.

Two words of equal length collapse when prepending 1 to both yields
profile-equivalent words.  Among least representatives this is an
equivalence; each class has a lexicographically smallest member (the
extender) whose 1-prepend is again a least representative, every other
member's 1-prepend is not, and the extender's profile dominates the
profiles of all other members pointwise.

Classes can be computed two ways:

* engine "brute": group least representatives by the profile after
  prepending 1 (the defining property), read off the level walk as one
  packed int per word by `normality.prepend_one_groups`.
* engine "band": for each extender w, the band of profiles its
  collapsers may have is w's suffix counts (its profile) over
  `adjusted_lower_band(w)`.  The bottom starts from the word obtained by
  rotating a 1 in at the front (reverse of 1·w[1..n-1]) and is lifted
  wherever the two profiles differ on only one side of a mirror pair
  (i, n-i+1), because collapsers that are least representatives differ
  from the top profile symmetrically.  Every subset of the open mirror
  pairs lowers the top by one on its units: lowering the suffix counts
  at i moves a 1 of the extender one step left, from position n+1-i to
  n-i; each candidate is the extender with those letters moved, kept
  after a direct collapse check.  Both profiles come from the profile g
  of w[1..n-1]: g(k) is w's best length-k window that does not end at n,
  so w's profile is max(g, s) for its suffix counts s, and the bottom
  word's is max(1 + p(k-1), g(k)) for its prefix counts p.  The engine
  reads g as the prefix counts of w[1..n-1]'s prefix normal form, which
  `words.prefix_normal_forms` gives for the whole level in one lane loop;
  the one-word callers take it from one `max_ones` call.  Either way
  `_band` packs s, p and g into fields of one int each and decides every
  test of the band, the extender checks included, with one biased
  subtract over all positions at once.

Both engines must agree; the test suites compare them exhaustively.
Either way a class is a `CollapseClass`: its members as packed ints,
extender first, with its size bound read off the extender.

One word's class needs no level: by the lexsmall theorem its extender e
is the least representative of 1·w with the leading 1 stripped, and by
the band theorem the class is e with `candidate_collapsers(e)`
(`collapse_class`).  The same theorem makes `recursive_lr_step` a
1-prepend of every word that `extends_by_one`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import sub

from .limits import UsageError, check_length
from .normality import (
    extends_by_one,
    is_suffix_normal,
    least_representative,
    lr_level,
    prefix_normal_form,
    prepend_one_groups,
    prepend_one_profile,
)
from .words import Profile, Word, letters, max_ones, prefix_normal_forms


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

    Decided by p(i) < s(i+1) for all i < n (`normality.extends_by_one`).
    Equivalently, the 1-prepend leaves the profile unchanged on 1..n (the
    last entry always grows by one), and w does not collapse with any
    lexicographically smaller least representative.
    """
    _require_lr(w)
    return extends_by_one(w.bits, len(w))


def extension_critical(w: Word) -> bool:
    """A least representative whose 1-prepend is not one."""
    return not extends_to_lr(w)


def lower_band_word(w: Word) -> Word:
    """Bottom-of-band word for an extender: reverse of 1·w[1..n-1].

    It always collapses with w and no collapsing least representative
    has a profile below its profile anywhere.  A word that is not an
    extender is refused as the band refuses it.
    """
    n = len(w)
    _band(w.bits, n, _head_form(w))
    return Word(n, w.bits >> 1 | 1 << n - 1).reverse()


def adjusted_lower_band(w: Word) -> Profile:
    """The bottom of the extender's band; its top is w's suffix counts (w's profile).

    Start from the profile of `lower_band_word(w)`, which collapses with w,
    and wherever it drops below w's on exactly one position of a mirror
    pair (i, n-i+1), raise the dropped side back, since collapsers that
    are least representatives drop symmetrically.  The result bounds all
    such collapsers from below; it is not itself guaranteed to belong to a
    collapsing word.

    Let g be the profile of w's first n-1 letters: g(k) is the best
    length-k window of w that does not end at n.  So w is a least
    representative exactly when g <= s, its suffix counts, and the bottom
    word 1·w[1..n-1], reversed (which keeps the profile), has profile
    max(1 + p(i-1), g(i)) for i < n and 1 + p(n-1) at n, for w's prefix
    counts p.  That profile is s or s - 1 at each i, and it drops below s
    exactly when D(i) = [p(i-1) + 2 <= s(i)] and [g(i) < s(i)].  So the
    bottom is s minus 1 where D(i) and D(n+1-i) both hold (`_band`).  g
    comes from one `max_ones` call here; the band engine reads it off the
    level's forms.
    """
    n = len(w)
    x = letters(w.bits, n)
    return (0, *map(sub, accumulate(x[::-1]), letters(_band(w.bits, n, _head_form(w)), n)))


def _head_form(w: Word) -> int:
    """The prefix normal form of w's first n-1 letters, by one `max_ones` call: the one-word
    callers' g for `_band`.  A zero-weight word is refused first, as it has no band."""
    if not w.bits:
        raise ValueError("zero-weight words have no collapse band")
    return prefix_normal_form(Word(len(w) - 1, w.bits >> 1)).bits


# the digits of `_band`'s flags, one byte of value 0 or 1 per position
_BIT_TO_DIGIT = bytes.maketrans(b"\x00\x01", b"01")


def _band(bits: int, n: int, form: int) -> int:
    """The open units of the extender w = Word(n, bits): bit n-i set where the band's bottom is
    one below its top at i, for g the prefix counts of `form`, the prefix normal form of w[1..n-1].

    s(i), p(i-1) and g(i) are packed into n fields of B bits, position i in field n - i, with
    g(n) = 0 and B the narrowest whole-byte width with 2^(B-1) > n: one byte up to 127 letters.
    Each test below is one biased subtract over all fields: field n - i of (S | tops) - X - c·ones
    holds 2^(B-1) + s(i) - x(i) - c, whose top bit is [x(i) + c <= s(i)].  No field borrows, as
    in `normality._walk`.  s(i) <= n < 2^(B-1) lets the OR add the top bits, and p(i-1) and
    g(i) lie in 0..n - 1, so before the subtract of c·ones a field lies in
    2^(B-1) - n .. 2^(B-1) + n, inside 0..2^B - 1.  The first test is g <= s, where c = 0;
    once it holds, w is suffix normal, so p(i-1) <= s(i) as well, and the later tests, with
    c <= 3, stay at or above 2^(B-1) - 3.  The tests, in order:

    * w is a least representative exactly when g <= s on 1..n-1;
    * it extends exactly when p(i-1) < s(i) on 1..n (`extends_by_one`);
    * the bottom word's profile max(1 + p(i-1), g(i)) may not drop two below s(i);
    * D(i) = [p(i-1) + 2 <= s(i)] and [g(i) + 1 <= s(i)], where it drops one below.

    Unit i is open when D(i) and D(n+1-i): the flags are read as an n-bit int and ANDed with
    their own reversal.
    """
    x = letters(bits, n)
    size = (n.bit_length() + 8) // 8
    width = 8 * size
    ones = int.from_bytes((b"\x00" * (size - 1) + b"\x01") * n, "big")
    tops = ones << width - 1
    suffix = _fields(accumulate(x[::-1]), size) | tops
    above_p = suffix - _fields(accumulate(x[:-1], initial=0), size)  # 2^(B-1) + s(i) - p(i-1)
    above_g = suffix - (_fields(accumulate(letters(form, n - 1)), size) << width)  # 2^(B-1) + s(i) - g(i)
    if above_g & tops != tops:
        raise ValueError(f"{Word(n, bits)} is not a least representative")
    if above_p - ones & tops != tops:
        raise ValueError(f"{Word(n, bits)} does not extend to a least representative")
    if above_p - 3 * ones & above_g - 2 * ones & tops:
        raise AssertionError("band bottom strays more than one below the top")
    drops = (above_p - 2 * ones & above_g - ones & tops) >> width - 1
    digits = drops.to_bytes(size * n, "big")[size - 1 :: size].translate(_BIT_TO_DIGIT)
    return int(digits, 2) & int(digits[::-1], 2)


def _fields(counts: Iterable[int], size: int) -> int:
    """The counts as fields of `size` bytes of one int, the first in the highest field."""
    if size == 1:
        return int.from_bytes(bytes(counts), "big")
    return int.from_bytes(b"".join(count.to_bytes(size, "big") for count in counts), "big")


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

    The band is w's suffix counts over `adjusted_lower_band(w)`; a mirror
    unit is open where the two differ.  A candidate lowers the band top by
    one on a subset of the open units: lowering at i moves a 1 of w from bit i-1 to
    bit i of the packed value.  A subset that moves a letter w lacks would
    leave unit steps and is skipped.  A candidate is kept when its
    `prepend_one_profile` is w's, which is w's profile with s(n) + 1 appended,
    and it is suffix normal: the formula is its 1-prepend profile only then,
    so the cheap comparison runs first and the `max_ones` call after it.
    """
    n = len(w)
    return [Word(n, bits) for bits in _collapsers(w.bits, n, _head_form(w))]


def _collapsers(bits: int, n: int, form: int) -> list[int]:
    """`candidate_collapsers` of Word(n, bits) as increasing packed ints, for `form` the
    prefix normal form of its first n-1 letters."""
    opened = _band(bits, n, form)
    if not opened:
        return []
    # unit {i, n-i+1} is open where the band's ends differ at i, up to the middle;
    # an odd middle unit is one bit, and unit {1, n} is never open, so no move leaves the word
    units = [1 << i - 1 | 1 << n - i for i in range(1, (n + 1) // 2 + 1) if opened >> i - 1 & 1]
    x = letters(bits, n)
    target = (0, *accumulate(x[::-1]), bits.bit_count() + 1)

    # the lowered units of every subset, the empty one first
    masks = [0]
    for unit in units:
        masks += [mask | unit for mask in masks]
    found: list[int] = []
    for lowered in masks[1:]:
        moved = lowered ^ lowered << 1
        if (bits ^ lowered) & moved:
            continue
        cand = bits ^ moved
        if prepend_one_profile(cand, n) == target and is_suffix_normal(Word(n, cand)):
            found.append(cand)
    # subset order is not word order: four-member classes come out unsorted from n = 9
    return sorted(found)


@dataclass(frozen=True, slots=True)
class CollapseClass:
    """One collapse class of length n: its members as packed ints, extender first."""

    n: int
    packed: tuple[int, ...]

    @property
    def extender(self) -> Word:
        return Word(self.n, self.packed[0])

    @property
    def members(self) -> tuple[Word, ...]:
        return tuple(Word(self.n, bits) for bits in self.packed)

    @property
    def size(self) -> int:
        return len(self.packed)

    @property
    def bound(self) -> int | None:
        """`class_size_bound` of the extender; None for the all-zeros class at n >= 1, which has no band."""
        if self.packed[0] == 0 and self.n >= 1:
            return None
        return _size_bound(self.packed[0], self.n)


def collapse_classes(n: int, engine: str = "brute") -> list[CollapseClass]:
    """Partition the least representatives of length n by collapsing."""
    check_length(n, kind="collapse partition")
    if engine == "brute":
        return [CollapseClass(n, tuple(group)) for group in prepend_one_groups(n)]
    if engine != "band":
        raise ValueError(f"unknown engine {engine!r}")
    level = lr_level(n)
    # the prefix normal forms of every word's first n-1 letters, for the extenders' bands
    forms = prefix_normal_forms(n - 1, (bits >> 1 for bits in level)) if n else [0]
    claimed: set[int] = set()
    classes: list[CollapseClass] = []
    for bits, form in zip(level, forms):
        if bits in claimed:
            continue
        packed = [bits]
        if bits:
            for v in _collapsers(bits, n, form):
                if v in claimed or v <= bits:
                    raise RuntimeError(f"band engine produced an out-of-order collapser {Word(n, v)}")
                packed.append(v)
        claimed.update(packed)
        classes.append(CollapseClass(n, tuple(packed)))
    if len(claimed) != len(level):
        raise RuntimeError("band engine failed to cover every least representative")
    return classes


def iter_collapse_classes(n_max: int, engine: str = "brute"):
    """Yield (n, collapse_classes(n, engine)) for n = 0..n_max.  Like any
    generator, it checks n_max against the cap at the first `next`."""
    check_length(n_max, kind="collapse partition")
    for n in range(n_max + 1):
        yield n, collapse_classes(n, engine)


def collapse_class(w: Word) -> tuple[Word, ...]:
    """w's collapse class, extender first, read off the two collapse theorems
    (`verify lexsmall`, `verify collapstheo`) without building the level.

    By the lexsmall theorem the extender e of a class other than the
    all-zeros one is the one member whose 1-prepend is a least
    representative, and 1·e is profile equivalent to 1·w, so 1·e is
    `least_representative(w.prepend(1))`.  By the band theorem the class is
    e with `candidate_collapsers(e)`.
    """
    n = check_length(len(w), kind="collapse partition")
    _require_lr(w)
    if w.bits == 0:
        return (w,)
    top = least_representative(w.prepend(1))
    e = Word(n, top.bits ^ 1 << n)
    members = (e, *candidate_collapsers(e))
    if w not in members:
        raise RuntimeError(f"band construction lost {w} from its class")
    return members


def recursive_lr_step(lrs: list[Word]) -> list[Word]:
    """Least representatives of length n + 1 from the full set at length n.

    Prepend 0 to everything, and 1 to each word that `extends_by_one`: by
    the lexsmall theorem, the extender of every collapse class except the
    all-zeros one, whose 1-prepend lands in the class of an already
    produced 0-prepend.  At n = 0 the empty word extends, to 1.
    """
    if not lrs:
        raise ValueError("input must be the non-empty set of least representatives")
    n = len(lrs[0])
    if any(len(w) != n for w in lrs):
        raise ValueError("mixed word lengths in input")
    level = lr_level(n)
    if sorted(w.bits for w in lrs) != level:
        raise ValueError(f"input is not the set of least representatives of length {n}")
    extended = [bits | 1 << n for bits in level if extends_by_one(bits, n)]
    return [Word(n + 1, bits) for bits in level + extended]


def palindromic_distance(w: Word) -> int:
    """Flips needed to make the word a palindrome: mismatched mirror pairs, each of
    which differs from the reversal at both positions (an odd middle never differs)."""
    return (w.bits ^ w.reverse().bits).bit_count() // 2


def palindromic_prefix_length(w: Word) -> int:
    """Length of the longest prefix that is a palindrome: the largest k whose
    prefix equals the length-k suffix of the reversal."""
    n = len(w)
    if n == 0:
        raise UsageError("empty word has no palindromic prefix length")
    rev = w.reverse().bits
    return next(k for k in range(n, 0, -1) if w.bits >> (n - k) == rev & ((1 << k) - 1))


def class_size_bound(w: Word) -> int:
    """Upper bound 2^ceil(pd/2) on the collapse-class size of an extender.

    pd is the palindromic distance of w concatenated with the reversed
    band-bottom tail w[n-1..1]·1; each mirror pair of openings in the
    band doubles the candidate count at most once.  The reversed second
    half of that 2n-letter word is 1·w[1..n-1], so
    pd(w·w[n-1..1]·1) = the number of letter changes in 1·w.
    """
    if not extends_to_lr(w):
        raise ValueError(f"{w} does not extend to a least representative")
    return _size_bound(w.bits, len(w))


def _size_bound(bits: int, n: int) -> int:
    """2^ceil(c/2), c the letter changes in 1·w: w against 1·w[1..n-1], letter by letter.
    `1 << n >> 1` is the leading 1, and 0 at n = 0, where the bound is 1."""
    changes = (bits ^ (bits >> 1 | 1 << n >> 1)).bit_count()
    return 1 << ((changes + 1) // 2)


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
