"""Prefix normal palindromes.

A word is a prefix normal palindrome exactly when its max-ones profile
satisfies f(k) + f(n - k) = f(n) for all k: the paper's mirror criterion
f(k) = fbar(n - k + 1), as fbar(j) = f(n) - f(j - 1).

A prefix normal palindrome equals its reversal, so it is also suffix
normal, and every suffix of a suffix normal word is suffix normal (its
factors and its suffixes are factors and suffixes of the whole word).
So the last ceil(n/2) letters of a prefix normal palindrome are a least
representative: enumeration mirrors each member of that level into a
palindrome, instead of walking all 2^ceil(n/2) free halves, and keeps a
candidate exactly when it is its own prefix normal form, which
`words.prefix_normal_forms` answers for the whole level in one lane loop.
Level m serves lengths 2m - 1 and 2m.  The profile test
`is_prefix_normal_palindrome_by_profile` stays the test of one word.
"""

from __future__ import annotations

# unused here; kept because perfbench/layers.py wraps palindromes.ProcessPoolExecutor
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass

from .limits import check_length, max_palindrome_length
from .normality import is_prefix_normal, iter_lr_levels, lr_level
from .words import Word, max_ones, prefix_normal_forms, reversed_bits


def is_palindrome(w: Word) -> bool:
    return w.bits == reversed_bits(w.bits, w.n)


def is_prefix_normal_palindrome(w: Word) -> bool:
    """Definitional route: a palindrome that is prefix normal."""
    return is_palindrome(w) and is_prefix_normal(w)


def is_prefix_normal_palindrome_by_profile(w: Word) -> bool:
    """Profile route: f(k) + f(n - k) = f(n) for k = 1..floor(n/2), the rest mirroring.

    At k = 1, f(1) = 1 and f(n - 1) = weight - min(first, last letter)
    unless w is all zeros, so the end letters decide that case before
    max_ones runs: both must be 1, or the word all zeros.
    """
    n, bits = w.n, w.bits
    if not (bits & 1 and bits >> (n - 1)):
        return not bits
    f = max_ones(w)
    return all(f[k] + f[n - k] == f[n] for k in range(2, n // 2 + 1))


def palindrome_from_tail(n: int, tail: int) -> Word:
    """The length-n palindrome whose last ceil(n/2) letters are the packed value `tail`:
    p = t | rev_n(t), the tail OR its reversal at length n, which share only the
    middle letter of an odd n, where they agree."""
    if tail >> (n + 1) // 2:
        raise ValueError("tail value does not fit")
    return Word(n, tail | reversed_bits(tail, n))


@dataclass(frozen=True)
class PnPalRecord:
    n: int
    words: tuple[Word, ...]

    @property
    def count(self) -> int:
        return len(self.words)


def _palindromes_from_tails(n: int, tails: list[int]) -> tuple[Word, ...]:
    """Prefix normal palindromes of length n, from the least representatives
    of length ceil(n/2) as their tails, sorted by packed value: the words'
    order, as they all have length n.  A candidate is kept when it equals
    its prefix normal form: it is a palindrome by construction, and prefix
    normal exactly when it is the one prefix normal word of its class."""
    candidates = [tail | reversed_bits(tail, n) for tail in tails]  # `palindrome_from_tail`, unchecked
    kept = sorted(c for c, form in zip(candidates, prefix_normal_forms(n, candidates)) if c == form)
    return tuple(Word(n, bits) for bits in kept)


def _palindromes_of_length(n: int) -> tuple[Word, ...]:
    check_length(n, max_palindrome_length(), kind="palindrome enumeration")
    return _palindromes_from_tails(n, lr_level((n + 1) // 2))


def count_prefix_normal_palindromes(n: int) -> int:
    return len(_palindromes_of_length(n))


def enumerate_prefix_normal_palindromes(n: int) -> PnPalRecord:
    """All prefix normal palindromes of length n, lexicographically."""
    return PnPalRecord(n=n, words=_palindromes_of_length(n))


def iter_prefix_normal_palindromes(n_max: int):
    """Yield (n, words) for n = 0..n_max, words as in
    `enumerate_prefix_normal_palindromes`, from one walk over the levels.

    Like any generator, it checks n_max against the cap at the first `next`.
    """
    check_length(n_max, max_palindrome_length(), kind="palindrome enumeration")
    for m, tails in iter_lr_levels((n_max + 1) // 2):
        for n in (2 * m - 1, 2 * m):
            if 0 <= n <= n_max:
                yield n, _palindromes_from_tails(n, tails)
