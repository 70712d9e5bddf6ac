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
suffix of the next length (`p(k) < s(k+1)` for all k).  The level
iterator below builds length after length on that rule, which reaches
lengths around 24 without touching the full 2^n space.  Both questions
about 1·w live here and read the same running counts p and s of w:
`prepend_one_profile` is its profile (the collapse key), and
`extends_by_one` asks that this profile equal s on 1..n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import lt

from .limits import check_length, max_partition_length
from .words import Profile, Word, letters, max_ones, prefix_ones, suffix_ones


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


def profile_increments_word(f: Profile) -> Word:
    """Word whose letter at position k is f(k) - f(k-1)."""
    return Word.from_bits(f[k] - f[k - 1] for k in range(1, len(f)))


def prefix_normal_form(w: Word) -> Word:
    """The unique prefix normal word sharing w's max-ones profile."""
    return profile_increments_word(max_ones(w))


def least_representative(w: Word) -> Word:
    """The unique suffix normal word sharing w's max-ones profile."""
    return prefix_normal_form(w).reverse()


def class_members(w: Word) -> list[Word]:
    """All words with w's profile, in lexicographic order.

    Candidates are grown letter by letter, pruned when the running prefix
    count leaves the feasible range, and verified exactly at full length.
    """
    n = len(w)
    check_length(n, kind="class materialization")
    f = max_ones(w)
    total = f[n]
    out: list[Word] = []

    def extend(value: int, i: int, ones: int) -> None:
        if i == n:
            cand = Word(n, value)
            if max_ones(cand) == f:
                out.append(cand)
            return
        for b in (0, 1):
            o = ones + b
            if o > f[i + 1]:
                continue
            if total - o > f[n - i - 1]:
                continue
            extend((value << 1) | b, i + 1, o)

    extend(0, 0, 0)
    return out


# --- level-by-level construction of least representatives -----------------
#
# A level is the increasing list of packed least representatives of one length.
# Their profile is their suffix counts s, so the bits are the whole state.  A 0-prepend
# keeps the value; a 1-prepend sets bit m, kept when p(i) < s(i+1) for all i < m.
# Both 1-prepend functions read p and s as running counts of the same letters.


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


def iter_lr_levels(n_max: int):
    """Yield (m, level) for m = 0..n_max; a level is the increasing list of
    packed least representatives of length m, up to the word cap."""
    check_length(n_max)
    level = [0]
    yield 0, level
    for m in range(n_max):
        level = level + [bits | 1 << m for bits in level if extends_by_one(bits, m)]
        yield m + 1, level


def lr_level(n: int) -> list[int]:
    level: list[int] = []
    for _, level in iter_lr_levels(n):
        pass
    return level


def enumerate_least_representatives(n: int):
    """All suffix normal words of length n, lexicographically."""
    for bits in lr_level(n):
        yield Word(n, bits)


def count_least_representatives(n_max: int) -> list[int]:
    """Class counts per length; entry [n] is the number of length-n classes."""
    return [len(level) for _, level in iter_lr_levels(n_max)]


# --- full partition of one length ------------------------------------------


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

    Scans the full space, so it is far more expensive than the level
    construction; sizes and optional member lists are what it buys.
    It has its own cap, the partition cap.
    """
    check_length(n, max_partition_length(), kind="partition")
    buckets: dict[Profile, list[int]] = {}
    for value in range(1 << n):
        sig = max_ones(Word(n, value))
        buckets.setdefault(sig, []).append(value)
    classes: dict[Profile, PnClass] = {}
    for sig, values in buckets.items():
        npf = profile_increments_word(sig)
        classes[sig] = PnClass(
            signature=sig,
            npf=npf,
            lr=npf.reverse(),
            size=len(values),
            members=tuple(Word(n, v) for v in values) if materialize else None,
        )
    return ClassPartition(n=n, classes=classes)


def iter_class_partitions(n_max: int, materialize: bool = False):
    """Yield class_partition(n, materialize) for n = 0..n_max.  Like any
    generator, it checks n_max against the partition cap at the first `next`."""
    check_length(n_max, max_partition_length(), kind="partition")
    for n in range(n_max + 1):
        yield class_partition(n, materialize)
