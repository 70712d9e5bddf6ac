"""Indexed binary jumbled pattern matching.

The index stores, per factor length k, the largest and smallest number
of 1s any factor of that length contains.  Because both envelopes move
in unit steps while a window slides, every count between them is
realized by some factor, so a query is an interval test.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

from .limits import UsageError
from .words import Profile, Word, max_ones


@dataclass(frozen=True)
class JumbledIndex:
    n: int
    fmax: Profile
    fmin: Profile


def build_index(w: Word) -> JumbledIndex:
    """Max envelope is the max-ones profile; min envelope comes from the
    complement (fewest 1s = length minus most 0s)."""
    fmax = max_ones(w)
    zeros_best = max_ones(w.complement())
    fmin = tuple(map(sub, range(len(w) + 1), zeros_best))
    return JumbledIndex(n=len(w), fmax=fmax, fmin=fmin)


def query(idx: JumbledIndex, k: int, d: int) -> bool:
    """Does some factor of length k contain exactly d ones?"""
    if not 0 <= k <= idx.n:
        raise UsageError(f"factor length {k} outside 0..{idx.n}")
    return idx.fmin[k] <= d <= idx.fmax[k]
