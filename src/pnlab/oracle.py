"""Slow reference implementations used as ground truth by the test suites.

Everything here is a direct transcription of a defining property: factor
scans, full 2^n filters, literal letter counting.  Nothing shares code
with the optimized modules, and nothing should be optimized; trust comes
from being obviously correct.
"""

from __future__ import annotations

from .limits import UsageError, check_length
from .words import Profile, Word

BRUTE_LIMIT = 16
BRUTE_COLLAPSE_LIMIT = 14
BRUTE_FACTOR_LIMIT = 256


def _count_ones(w: Word, i: int, j: int) -> int:
    return sum(w[t] for t in range(i, j + 1))


def brute_max_ones(w: Word) -> Profile:
    """Scan every factor of every length and keep the best count.  The scan is
    cubic in the length, so it checks the length against BRUTE_FACTOR_LIMIT."""
    n = check_length(len(w), BRUTE_FACTOR_LIMIT, kind="brute factor scan")
    best = [0] * (n + 1)
    for k in range(1, n + 1):
        for i in range(1, n - k + 2):
            c = _count_ones(w, i, i + k - 1)
            if c > best[k]:
                best[k] = c
    return tuple(best)


def brute_prefix_ones(w: Word) -> Profile:
    n = len(w)
    return tuple(_count_ones(w, 1, k) if k else 0 for k in range(n + 1))


def brute_suffix_ones(w: Word) -> Profile:
    n = len(w)
    return tuple(_count_ones(w, n - k + 1, n) if k else 0 for k in range(n + 1))


def brute_is_prefix_normal(w: Word) -> bool:
    return brute_max_ones(w) == brute_prefix_ones(w)


def brute_is_suffix_normal(w: Word) -> bool:
    return brute_max_ones(w) == brute_suffix_ones(w)


def all_words(n: int):
    """All words of length n in lexicographic order.  Every 2^n scan here
    starts from this one, so it checks n against BRUTE_LIMIT at the first `next`."""
    check_length(n, BRUTE_LIMIT, kind="brute scan")
    for value in range(1 << n):
        yield Word(n, value)


def brute_class_members(w: Word) -> list[Word]:
    """Every word of the same length whose max-ones profile matches."""
    target = brute_max_ones(w)
    return [v for v in all_words(len(w)) if brute_max_ones(v) == target]


def brute_class_partition(n: int) -> dict[Profile, list[Word]]:
    """Partition all 2^n words by their max-ones profile."""
    classes: dict[Profile, list[Word]] = {}
    for v in all_words(n):
        classes.setdefault(brute_max_ones(v), []).append(v)
    return classes


def brute_least_representatives(n: int) -> list[Word]:
    return [v for v in all_words(n) if brute_is_suffix_normal(v)]


def brute_prefix_normal_palindromes(n: int) -> list[Word]:
    """Every word of length n that equals its reversal and is prefix normal."""
    return [v for v in all_words(n) if v == v.reverse() and brute_is_prefix_normal(v)]


def brute_collapse_partition(n: int) -> list[list[Word]]:
    """Group suffix normal words by the profile obtained after prepending 1."""
    check_length(n, BRUTE_COLLAPSE_LIMIT, kind="brute collapse partition")
    groups: dict[Profile, list[Word]] = {}
    for v in brute_least_representatives(n):
        groups.setdefault(brute_max_ones(v.prepend(1)), []).append(v)
    return sorted(groups.values(), key=lambda members: members[0].bits)


def brute_jumbled_query(w: Word, k: int, d: int) -> bool:
    """Does some factor of length k contain exactly d ones?

    Scans every factor of length k; each factor's ones are counted on its
    packed bits so the scan stays usable inside large randomized sweeps.
    """
    return brute_jumbled_witness(w, k, d) is not None


def brute_jumbled_witness(w: Word, k: int, d: int) -> int | None:
    """First 1-based start position of a length-k factor with d ones, if any."""
    n = len(w)
    if not 0 <= k <= n:
        raise UsageError(f"factor length {k} outside 0..{n}")
    if k == 0:
        return 1 if d == 0 else None
    bits = w.bits
    mask = (1 << k) - 1
    for i in range(1, n - k + 2):
        if ((bits >> (n - i - k + 1)) & mask).bit_count() == d:
            return i
    return None
