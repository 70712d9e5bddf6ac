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
Level m serves lengths 2m - 1 and 2m, whose palindromes are handed on
as increasing packed ints, like a level.  The profile test
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


@dataclass(frozen=True)
class PnPalRecord:
    """The prefix normal palindromes of length n as packed ints, increasing."""

    n: int
    packed: tuple[int, ...]

    @property
    def words(self) -> tuple[Word, ...]:
        return tuple(Word(self.n, bits) for bits in self.packed)

    @property
    def count(self) -> int:
        return len(self.packed)


def _palindromes_from_tails(n: int, tails: list[int]) -> tuple[int, ...]:
    """Prefix normal palindromes of length n as increasing packed ints, from
    the least representatives of length ceil(n/2) as their tails.  Tail t
    gives the candidate t | rev_n(t), kept when it equals its prefix normal
    form: it is a palindrome by construction, and prefix normal exactly
    when it is the one prefix normal word of its class."""
    candidates = [tail | reversed_bits(tail, n) for tail in tails]
    return tuple(sorted(c for c, form in zip(candidates, prefix_normal_forms(n, candidates)) if c == form))


def _palindromes_of_length(n: int) -> tuple[int, ...]:
    check_length(n, max_palindrome_length(), kind="palindrome enumeration")
    return _palindromes_from_tails(n, lr_level((n + 1) // 2))


def count_prefix_normal_palindromes(n: int) -> int:
    return len(_palindromes_of_length(n))


def enumerate_prefix_normal_palindromes(n: int) -> PnPalRecord:
    """All prefix normal palindromes of length n, lexicographically."""
    return PnPalRecord(n, _palindromes_of_length(n))


def iter_prefix_normal_palindromes(n_max: int):
    """Yield (n, packed) for n = 0..n_max, packed as in
    `enumerate_prefix_normal_palindromes`, from one walk over the levels.

    Like any generator, it checks n_max against the cap at the first `next`.
    """
    check_length(n_max, max_palindrome_length(), kind="palindrome enumeration")
    for m, tails in iter_lr_levels((n_max + 1) // 2):
        for n in (2 * m - 1, 2 * m):
            if 0 <= n <= n_max:
                yield n, _palindromes_from_tails(n, tails)
