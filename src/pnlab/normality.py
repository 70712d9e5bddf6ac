"""Canonical forms and enumeration for profile equivalence.

Two words of the same length are equivalent when their max-ones profiles
coincide.  Each class contains exactly one prefix normal word (profile
equals prefix counts), which is the lexicographic maximum of the class
and is recovered by reading the profile increments as letters, and one
suffix normal word (profile equals suffix counts), which is the reversal
of the former, the lexicographic minimum, and is called the least
representative.

Least representatives of length n + 1 arise only by prepending a letter
to least representatives of length n: prepending 0 always works, and
prepending 1 works exactly when every prefix strictly under-counts the
suffix of the next length (`p(k) < s(k+1)` for all k).  So they form a
tree under prepending, rooted at the empty word, and one depth-first
walk of that tree, carrying each node's prefix and suffix counts as
packed ints, yields every level up to lengths around 24 without
touching the full 2^n space.  Counting needs only the walk's stack,
O(n) memory, with no level held.  The questions about 1·w read the same
counts p and s of w: the walk tests p(k) < s(k+1) on all fields at
once, `extends_by_one` asks it of one word, and `prepend_one_profile`
is the profile of 1·w (the collapse key), which the walk also packs
into one int per leaf for `prepend_one_groups`.

The partition of all 2^n words by profile is a second depth-first walk,
of the tree that appending letters makes of all words.  It carries each
node's suffix counts and profile so far as packed ints, in the field width
of max_ones (`words.field_constants`), so no word goes through max_ones; a
leaf's packed profile is its class key, unpacked once per class, and
`class_members` is the same walk cut by one profile.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter, lt, sub

from .limits import check_length, max_partition_length
from .words import Profile, Word, field_constants, fieldwise_max, letters, max_ones, prefix_ones, suffix_ones


def is_prefix_normal(w: Word) -> bool:
    return max_ones(w) == prefix_ones(w)


def is_suffix_normal(w: Word) -> bool:
    return max_ones(w) == suffix_ones(w)


# A suffix normal word is the least representative of its class.
is_least_representative = is_suffix_normal


def pn_equivalent(u: Word, v: Word) -> bool:
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return max_ones(u) == max_ones(v)


# the steps 0 and 1 spell their digits; every other byte spells "2", which int() refuses in base 2
_STEP_DIGITS = b"01" + b"2" * 254


def profile_increments_word(f: Profile) -> Word:
    """Word whose letter at position k is f(k) - f(k-1), read by one int() off the steps as digits."""
    try:
        # bytes() refuses a step outside 0..255, int() one of 2..255
        steps = bytes(map(sub, f[1:], f[:-1]))
        return Word(len(steps), int(b"0" + steps.translate(_STEP_DIGITS), 2))
    except ValueError:
        raise ValueError("profile steps must be 0 or 1") from None


def prefix_normal_form(w: Word) -> Word:
    """The unique prefix normal word sharing w's max-ones profile."""
    return profile_increments_word(max_ones(w))


def least_representative(w: Word) -> Word:
    """The unique suffix normal word sharing w's max-ones profile."""
    return prefix_normal_form(w).reverse()


# --- least representatives by a depth-first walk -------------------------
#
# A level is the increasing list of packed least representatives of one length.
# The walk keeps (bits, P, S) only for the nodes on its stack: P and S pack the
# prefix and suffix counts in fields of B bits, 2^(B-1) above the leaves' length,
# so that one subtract tests a 1-prepend.  Levels are plain sorted ints.


def prepend_one_profile(bits: int, n: int) -> Profile:
    """max_ones(1·w) for the least representative w = Word(n, bits): the collapse key.

    w's profile is its suffix counts s, and 1·w adds the windows starting at
    the new letter, so f(i) = max(s(i), p(i-1) + 1) for i <= n and f(n+1) = s(n) + 1.
    """
    x = letters(bits, n)
    return (0, *map(max, accumulate(x[::-1]), accumulate(x, initial=1)), bits.bit_count() + 1)


def extends_by_one(bits: int, m: int) -> bool:
    """Is 1·w a least representative, for the least representative w = Word(m, bits)?

    It is when `prepend_one_profile` leaves the profile unchanged on 1..m,
    that is p(i) < s(i+1) for all i < m.  By the lexsmall theorem this holds
    for exactly one member of every collapse class except the all-zeros one.
    """
    x = letters(bits, m)
    return all(map(lt, accumulate(x, initial=0), accumulate(x[::-1])))


def _walk(n: int, leaves: list[int] | None, groups: dict[int, list[int]] | None = None) -> list[int]:
    """Walk the least representatives shorter than n depth first, and append
    those of length n to leaves, or file them in groups under the packed key
    of their `prepend_one_profile`, unless None.  Returns kept, where kept[m]
    counts the least representatives of length m whose 1-prepend is one, for m < n.

    A node is (m, bits, P, S, weight) for w = Word(m, bits): field i of P (B bits
    wide) holds p(i) and field i of S holds s(i+1), for i < m.  Its children are
    0·w, with P << B and S | weight << B·m, and 1·w, with
    (P << B) + (ones(m+1) ^ 1) and S | (weight + 1) << B·m, kept exactly when
    p(i) < s(i+1) for all i < m.  Field i of (S | tops) - P - ones holds
    2^(B-1) + s(i+1) - p(i) - 1, whose top bit is that test, as long as it stays
    in 0..2^B - 1: w is suffix normal, so p(i) <= s(i) <= s(i+1) and the value is
    at least 2^(B-1) - 1, and s(i+1) <= m < 2^(B-1) keeps it below 2^B and lets
    the OR with the top bits add them.  So no field borrows.

    Leaves are taken from their parent, never pushed.  A leaf's key holds
    f(i+1) = max(s(i+1), p(i) + 1) <= n in field i < n, the `fieldwise_max` of S
    and P + ones(n) (so B is the width of `field_constants(n)`), and weight + 1
    above: f(n+1) is not fixed by f(1..n), as 1·0 and 1·1 share f(1).
    """
    kept = [0] * n
    if not n:
        if leaves is not None:
            leaves.append(0)
        if groups is not None:
            groups[1] = [0]
        return kept
    width, all_ones, all_tops = field_constants(n)
    ones = [all_ones >> width * (n - m) for m in range(n + 1)]  # 1 in m fields
    tops = [o << width - 1 for o in ones]
    last, end = width * (n - 1), width * n
    stack = [(0, 0, 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        m, bits, P, S, weight = pop()
        top = tops[m]
        one = ((S | top) - P - ones[m]) & top == top
        kept[m] += one
        if m + 1 < n:
            shift = width * m
            push((m + 1, bits, P << width, S | weight << shift, weight))
            if one:
                push((m + 1, bits | 1 << m, (P << width) + (ones[m + 1] ^ 1), S | (weight + 1) << shift, weight + 1))
        elif groups is not None:
            # S and P + ones(n) of 0·w; those of 1·w add 1 to s(n) and to p(1..n-1)
            S, P = S | weight << last, (P << width) + all_ones
            groups.setdefault(fieldwise_max(S, P, width, all_tops) | (weight + 1) << end, []).append(bits)
            if one:
                S, P, weight = S + (1 << last), P + (all_ones ^ 1), weight + 1
                groups.setdefault(fieldwise_max(S, P, width, all_tops) | (weight + 1) << end, []).append(bits | 1 << m)
        elif leaves is not None:
            leaves.append(bits)
            if one:
                leaves.append(bits | 1 << m)
    return kept


def lr_level(n: int) -> list[int]:
    check_length(n)
    level: list[int] = []
    _walk(n, level)
    level.sort()
    return level


def prepend_one_groups(n: int) -> list[list[int]]:
    """The level of length n grouped by `prepend_one_profile`, each group increasing
    and the groups in order of their least members, keyed in the walk by one int each."""
    check_length(n)
    groups: dict[int, list[int]] = {}
    _walk(n, None, groups)
    ordered = list(groups.values())
    for group in ordered:  # increasing for every n <= 24, but nothing in the walk makes it so
        group.sort()
    ordered.sort(key=itemgetter(0))  # the walk meets the leaves depth first, not in word order
    return ordered


def iter_lr_levels(n_max: int):
    """Yield (m, level) for m = 0..n_max; a level is the increasing list of
    packed least representatives of length m, up to the word cap.  Like any
    generator, it checks n_max against the cap at the first `next`.

    Prepending 0 keeps a least representative, and least representatives are
    suffix-closed, so level m is the part of level n_max below 2^m."""
    level = lr_level(n_max)
    for m in range(n_max):
        yield m, level[: bisect_left(level, 1 << m)]
    yield n_max, level


def enumerate_least_representatives(n: int):
    """All suffix normal words of length n, lexicographically."""
    for bits in lr_level(n):
        yield Word(n, bits)


def count_least_representatives(n_max: int) -> list[int]:
    """Class counts per length; entry [n] is the number of length-n classes.
    Length m + 1 has one class per length-m class, plus one per kept 1-prepend."""
    check_length(n_max)
    return list(accumulate(_walk(n_max, None), initial=1))


def count_one_prepends(n_max: int) -> list[int]:
    """Entry [m] is the number of least representatives of length m whose
    1-prepend is one too, for m = 0..n_max; no level is held."""
    check_length(n_max)
    return _walk(n_max + 1, None)


# --- full partition of one length ------------------------------------------


def _profile_walk(n: int, materialize: bool, target: Profile | None = None) -> dict:
    """Group the words of length n by packed profile, in lexicographic order:
    each group is the list of its packed members when materialize, else a count.

    A node w of length m is (m, bits, S, F, weight), with s(j+1) in field j of
    S and f(j+1) in field j of F, in n fields of B bits (`field_constants(n)`).
    Appending a gives s'(k) = a + s(k-1) and f'(k) = max(f(k), s'(k)), so
    S' = (S << B) + a·ones(m+1) and F' is the fieldwise max of F and S': for
    a = 0 it is F with the weight in field m, as s(k-1) <= f(k-1) <= f(k); for
    a = 1 it is `fieldwise_max(F, S')`.  Leaves are taken from their parent
    at depth n - 1 and never pushed.

    With a target profile t, a 1-child is cut when a field of F passes t, since
    F never decreases (a 0-child's one new field, its weight, is at most t(m+1)),
    and a 0-child when its weight is under t(n) - t(n-m-1), as its last n-m-1
    letters hold at most t(n-m-1) ones (a 1-child meets that when its parent
    did).  Without one the bound is n in every field and nothing is cut.
    """
    if not n:
        return {0: [0] if materialize else 1}
    width, all_ones, tops = field_constants(n)
    ones = [all_ones >> width * (n - m) for m in range(n + 1)]  # 1 in m fields
    if target is None:
        bound, least = n * all_ones, [0] * (n + 1)
    else:
        bound, least = _packed(target, width), [target[n] - v for v in reversed(target)]
    bound |= tops
    groups: dict = {}
    get = groups.get
    stack = [(0, 0, 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        m, bits, S, F, weight = pop()
        bits <<= 1
        S1 = (S << width) + ones[m + 1]
        F1 = fieldwise_max(F, S1, width, tops)
        F0 = F | weight << width * m
        one = (bound - F1) & tops == tops
        zero = weight >= least[m + 1]
        if m + 1 < n:
            if one:
                push((m + 1, bits | 1, S1, F1, weight + 1))
            if zero:
                push((m + 1, bits, S << width, F0, weight))
        elif materialize:
            if zero:
                groups.setdefault(F0, []).append(bits)
            if one:
                groups.setdefault(F1, []).append(bits | 1)
        else:
            if zero:
                groups[F0] = get(F0, 0) + 1
            if one:
                groups[F1] = get(F1, 0) + 1
    return groups


def _packed(f: Profile, width: int) -> int:
    """f(1..n) in fields of the given width, field j holding f(j+1)."""
    return sum(v << width * j for j, v in enumerate(f[1:]))


def class_members(w: Word) -> list[Word]:
    """All words with w's profile, in lexicographic order: the leaves of the
    profile walk cut by w's profile whose packed profile equals it."""
    n = len(w)
    check_length(n, kind="class materialization")
    f = max_ones(w)
    group = _profile_walk(n, True, f)[_packed(f, field_constants(n)[0])]  # w is one of them
    return [Word(n, v) for v in group]


@dataclass(frozen=True)
class PnClass:
    signature: Profile
    npf: Word
    lr: Word
    size: int
    members: tuple[Word, ...] | None = None


@dataclass(frozen=True)
class ClassPartition:
    n: int
    classes: dict[Profile, PnClass]

    def __iter__(self):
        return iter(sorted(self.classes.values(), key=lambda c: c.signature))


def class_partition(n: int, materialize: bool = False) -> ClassPartition:
    """Partition all 2^n words by max-ones profile.

    Walks the full space, so it is far more expensive than the level
    construction; sizes and optional member lists are what it buys.
    Without materialize each class is counted, and no member is held.
    It has its own cap, the partition cap.

    A class's record is read off its key, which holds f(j+1) in field j:
    field j of key - (key << B), masked to n fields, is f(j+1) - f(j), the
    npf's letter j+1, so the low digit of every field, read high to low
    after a marker bit, spells the lr in one `int`.  The npf is its
    reversal and the signature the npf's prefix counts.
    """
    check_length(n, max_partition_length(), kind="partition")
    width = field_constants(n)[0]
    top, marker = 1 << width * n, 1 << n
    classes: dict[Profile, PnClass] = {}
    for key, group in _profile_walk(n, materialize).items():
        lr = Word(n, int(bin((key - (key << width)) & top - 1 | top)[2::width], 2) ^ marker)
        npf = lr.reverse()
        sig = prefix_ones(npf)
        classes[sig] = PnClass(
            signature=sig,
            npf=npf,
            lr=lr,
            size=len(group) if materialize else group,
            members=tuple(Word(n, v) for v in group) if materialize else None,
        )
    return ClassPartition(n=n, classes=classes)


def iter_class_partitions(n_max: int, materialize: bool = False):
    """Yield class_partition(n, materialize) for n = 0..n_max.  Like any
    generator, it checks n_max against the partition cap at the first `next`."""
    check_length(n_max, max_partition_length(), kind="partition")
    for n in range(n_max + 1):
        yield class_partition(n, materialize)
