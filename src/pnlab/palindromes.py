"""Prefix normal palindromes.

A palindrome is prefix normal exactly when its max-ones profile read
forwards equals its reverse-progress profile read backwards (the all
zeros word passes trivially and is treated as an explicit special case).

A prefix normal palindrome equals its reversal, so it is also suffix
normal, and every suffix of a suffix normal word is suffix normal (its
factors and its suffixes are factors and suffixes of the whole word).
So the last ceil(n/2) letters of a prefix normal palindrome are a least
representative: enumeration mirrors each member of that level into a
palindrome and keeps those that pass the profile test, instead of
walking all 2^ceil(n/2) free halves.
"""

from __future__ import annotations

# unused here; kept because perfbench/layers.py wraps palindromes.ProcessPoolExecutor
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass

from .limits import check_length, max_palindrome_length
from .normality import is_prefix_normal, lr_level
from .words import Profile, Word, max_ones, prefix_ones, reverse_progress


def is_palindrome(w: Word) -> bool:
    return w == w.reverse()


def is_prefix_normal_palindrome(w: Word) -> bool:
    """Definitional route: a palindrome that is prefix normal."""
    return is_palindrome(w) and is_prefix_normal(w)


def is_prefix_normal_palindrome_by_profile(w: Word) -> bool:
    """Profile route: the max-ones profile mirrors its own reverse progress.

    The all-zeros word is answered True up front; it is the one word the
    mirror criterion is not meant to cover, yet it is a prefix normal
    palindrome.
    """
    if w.bits == 0:
        return True
    n = len(w)
    f = max_ones(w)
    g = reverse_progress(f)
    return all(f[k] == g[n - k + 1] for k in range(1, n + 1))


def palindrome_from_half(n: int, half: int) -> Word:
    """The length-n palindrome whose free half is the packed value `half`.

    The free half is the first ceil(n/2) letters; the rest mirrors.
    """
    half_len = (n + 1) // 2
    mirror_len = n // 2
    if half >> half_len:
        raise ValueError("half value does not fit")
    if mirror_len == 0:
        return Word(n, half)
    top = half >> (half_len - mirror_len)
    mirrored = int(format(top, f"0{mirror_len}b")[::-1], 2)
    return Word(n, (half << mirror_len) | mirrored)


@dataclass(frozen=True)
class PnPalRecord:
    n: int
    words: tuple[Word, ...]
    count: int


def _prefix_normal_palindromes(n: int, limit: int | None) -> list[Word]:
    """Sorted prefix normal palindromes of length n, from the least
    representatives of length ceil(n/2), each reversed into a free half."""
    cap = max_palindrome_length() if limit is None else limit
    check_length(n, cap, kind="palindrome enumeration")
    half_len = (n + 1) // 2
    found = []
    for tail in lr_level(half_len, cap):
        w = palindrome_from_half(n, Word(half_len, tail).reverse().bits)
        if is_prefix_normal_palindrome_by_profile(w):
            found.append(w)
    return sorted(found)


def count_prefix_normal_palindromes(n: int, limit: int | None = None) -> int:
    return len(_prefix_normal_palindromes(n, limit))


def enumerate_prefix_normal_palindromes(n: int, limit: int | None = None) -> PnPalRecord:
    """All prefix normal palindromes of length n, lexicographically."""
    words = tuple(_prefix_normal_palindromes(n, limit))
    return PnPalRecord(n=n, words=words, count=len(words))


def extension_profile(inner: Word) -> Profile:
    """Max-ones profile of 1·v·1 from prefix counts of the inner palindrome v.

    Valid when v is a palindrome and 1·v·1 is a prefix normal palindrome;
    under that premise the wrapped word's profile is its prefix-ones
    profile, so no factor scan is needed:

        f(1) = 1
        f(k) = p_v(k - 1) + 1    for 1 < k < |v| + 2
        f(n) = f(n - 1) + 1      at the full length n = |v| + 2
    """
    m = len(inner)
    p = prefix_ones(inner)
    out = [0, 1]
    for k in range(2, m + 2):
        out.append(p[k - 1] + 1)
    out.append(out[-1] + 1)
    return tuple(out)
