"""Guard rails for exhaustive enumeration.

Word enumeration walks spaces that grow like 2^n, palindrome enumeration
like 2^(n/2), so both are capped.  The default word cap of 24 keeps every
run at desk scale; the environment variable PNLAB_MAX_N raises or lowers
it.  The palindrome cap follows it with fixed headroom above, but stays
within twice the word cap: a palindrome of length n mirrors a least
representative of length ceil(n/2), whose level must fit under the word
cap.  The cap of full-space operations, which walk every one of the 2^n
words, follows it with fixed headroom below.
"""

import os

DEFAULT_MAX_N = 24
PALINDROME_HEADROOM = 10
PARTITION_HEADROOM = 4
ENV_VAR = "PNLAB_MAX_N"


class LimitExceededError(Exception):
    """Requested length is above the configured enumeration cap."""


class UsageError(ValueError):
    """A request pnlab cannot serve as asked: a bad length, cap, word or query."""


def max_word_length() -> int:
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_N
    if not raw.strip().isdecimal():
        raise UsageError(f"{ENV_VAR} must be a non-negative integer, got {raw!r}")
    return int(raw)


def max_palindrome_length() -> int:
    return min(max_word_length() + PALINDROME_HEADROOM, 2 * max_word_length())


def max_partition_length() -> int:
    return max(max_word_length() - PARTITION_HEADROOM, 0)


def check_length(n: int, limit: int | None = None, kind: str = "enumeration") -> int:
    """Return n when 0 <= n <= the cap (limit, else the word cap)."""
    if n < 0:
        raise UsageError(f"{kind} length must be >= 0, got {n}")
    cap = max_word_length() if limit is None else limit
    if n > cap:
        raise LimitExceededError(f"{kind} at length {n} exceeds the limit of {cap}")
    return n
