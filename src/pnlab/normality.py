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
lengths around 24 without touching the full 2^n space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .limits import check_length, max_partition_length
from .words import Profile, Word, max_ones, prefix_ones, profile_text, suffix_ones


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


def class_members(w: Word, limit: int | None = None) -> list[Word]:
    """All words with w's profile, in lexicographic order.

    Candidates are grown letter by letter, pruned when the running prefix
    count leaves the feasible range, and verified exactly at full length.
    """
    n = len(w)
    check_length(n, limit, kind="class materialization")
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


def _extends_by_one(bits: int, m: int) -> bool:
    return all((bits >> (m - i)).bit_count() < (bits & (2 << i) - 1).bit_count() for i in range(m))


def iter_lr_levels(n_max: int, limit: int | None = None):
    """Yield (m, level) for m = 0..n_max; a level is the increasing list of
    packed least representatives of length m."""
    check_length(n_max, limit)
    level = [0]
    yield 0, level
    for m in range(n_max):
        level = level + [bits | 1 << m for bits in level if _extends_by_one(bits, m)]
        yield m + 1, level


def lr_level(n: int, limit: int | None = None) -> list[int]:
    level: list[int] = []
    for _, level in iter_lr_levels(n, limit):
        pass
    return level


def enumerate_least_representatives(n: int, limit: int | None = None):
    """All suffix normal words of length n, lexicographically."""
    for bits in lr_level(n, limit):
        yield Word(n, bits)


def count_least_representatives(n_max: int, limit: int | None = None) -> list[int]:
    """Class counts per length; entry [n] is the number of length-n classes."""
    return [len(level) for _, level in iter_lr_levels(n_max, limit)]


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

    def to_jsonl(self):
        for cls in self:
            yield json.dumps(
                {
                    "signature": profile_text(cls.signature),
                    "npf": str(cls.npf),
                    "lr": str(cls.lr),
                    "size": cls.size,
                }
            )


def class_partition(n: int, materialize: bool = False, limit: int | None = None) -> ClassPartition:
    """Partition all 2^n words by max-ones profile.

    Scans the full space, so it is far more expensive than the level
    construction; sizes and optional member lists are what it buys.
    It has its own cap, the partition cap, unless a limit is given.
    """
    check_length(n, max_partition_length() if limit is None else limit, kind="partition")
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
