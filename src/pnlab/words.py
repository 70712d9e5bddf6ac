"""Binary words over {0, 1} and their ones-counting profiles.

Words use 1-based positions at the interface; position 1 is the leftmost
letter.  Storage is bit-packed with the leftmost letter in the most
significant bit, so for words of equal length lexicographic order is the
numeric order of the packed value.

A profile is a tuple (v(0), v(1), ..., v(n)) over factor lengths:

  max_ones     v(k) is the most 1s found in any factor of length k
  prefix_ones  v(k) is the number of 1s in the prefix of length k
  suffix_ones  v(k) is the number of 1s in the suffix of length k

All three are read off the word's prefix counts p(0..n).  `letters`
turns a word into one byte per letter (value 0 or 1) in one C-level pass;
prefix_ones and suffix_ones accumulate it, and max_ones packs it.

max_ones is word-parallel.  It packs p(1..n) into n fields of B bits of one
int P, field j holding p(n - j), with B chosen so that 2^(B-1) > n.  For
each length k, P - (P >> B·k) holds every window count of length k at
once: p never decreases, so no field borrows, and the fields past n - k
hold counts of prefixes shorter than k, which never exceed v(k-1).  The
profile moves in unit steps, so v(k) = v(k-1) + 1 exactly when some field
exceeds v(k-1): biasing every field by 2^(B-1) - 1 - v(k-1) makes that
the field's top bit, and one AND with the top-bit mask tests them all.
That is O(n) big-int operations on n·B-bit ints, each running over
n·B/30 machine digits in C, where one window scan per length takes
O(n²) interpreted steps.

reverse_progress derives from a profile the sequence that replays its
increments backwards, starting from v(n); comparing it against max_ones
is the fast palindrome test implemented in `palindromes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

Profile = tuple[int, ...]


class WordParseError(ValueError):
    """Raised when input text contains a letter other than '0' or '1'."""


@dataclass(frozen=True, slots=True)
class Word:
    """Immutable fixed-length binary word, bit-packed."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("word length must be >= 0")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("packed value does not fit the word length")

    @staticmethod
    def parse(text: str) -> "Word":
        return parse_word(text)

    @staticmethod
    def from_bits(bits) -> "Word":
        value = 0
        count = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bit must be 0 or 1, got {b!r}")
            value = (value << 1) | b
            count += 1
        return Word(count, value)

    @staticmethod
    def zeros(n: int) -> "Word":
        return Word(n, 0)

    @staticmethod
    def ones(n: int) -> "Word":
        return Word(n, (1 << n) - 1)

    def __len__(self) -> int:
        return self.n

    def __str__(self) -> str:
        return format(self.bits, f"0{self.n}b") if self.n else ""

    def __repr__(self) -> str:
        return f"Word('{self}')"

    def __getitem__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"position {i} outside 1..{self.n}")
        return (self.bits >> (self.n - i)) & 1

    def __iter__(self):
        for shift in range(self.n - 1, -1, -1):
            yield (self.bits >> shift) & 1

    def __lt__(self, other: "Word") -> bool:
        if self.n == other.n:
            return self.bits < other.bits
        return str(self) < str(other)

    def __le__(self, other: "Word") -> bool:
        return self == other or self < other

    def weight(self) -> int:
        """Number of 1s in the word."""
        return self.bits.bit_count()

    def reverse(self) -> "Word":
        if self.n <= 1:
            return self
        return Word(self.n, int(str(self)[::-1], 2))

    def complement(self) -> "Word":
        return Word(self.n, self.bits ^ ((1 << self.n) - 1))

    def __add__(self, other: "Word") -> "Word":
        return Word(self.n + other.n, (self.bits << other.n) | other.bits)

    def prepend(self, bit: int) -> "Word":
        return Word(self.n + 1, self.bits | (bit << self.n))

    def append(self, bit: int) -> "Word":
        return Word(self.n + 1, (self.bits << 1) | bit)

    def slice(self, i: int, j: int) -> "Word":
        """Factor w[i..j], 1-based and inclusive; empty when j < i."""
        if j < i:
            return Word(0, 0)
        if i < 1 or j > self.n:
            raise IndexError(f"factor bounds {i}..{j} outside 1..{self.n}")
        length = j - i + 1
        return Word(length, (self.bits >> (self.n - j)) & ((1 << length) - 1))

    def bit_tuple(self) -> tuple[int, ...]:
        return tuple(self)


def parse_word(text: str) -> Word:
    """Parse a string of '0'/'1' letters; the empty string is the empty word."""
    value = 0
    for pos, ch in enumerate(text, start=1):
        if ch == "1":
            value = (value << 1) | 1
        elif ch == "0":
            value <<= 1
        else:
            raise WordParseError(f"invalid letter {ch!r} at position {pos}")
    return Word(len(text), value)


_DIGIT_TO_BIT = bytes.maketrans(b"01", b"\x00\x01")
_BIT_TO_DIGIT = bytes.maketrans(b"\x00\x01", b"01")


def letters(bits: int, n: int) -> bytes:
    """The letters of Word(n, bits), leftmost first, as bytes of value 0 or 1."""
    return bin(bits | 1 << n)[3:].encode().translate(_DIGIT_TO_BIT)


def max_ones(w: Word) -> Profile:
    """Most 1s per factor length, by one word-parallel unit-step test per length.

    The prefix counts p(1..n) are packed into n fields of B bits of one
    int P, field j holding p(n - j); B is the least width with
    2^(B-1) > n, so every field value and every biased window count
    below fits its field.  For length k, field j of P - (P >> B·k) is the
    count of the window ending at position n - j (for j <= n - k) or of a
    prefix shorter than k (beyond), so no field borrows and no field
    exceeds v(k-1) except a length-k window holding v(k-1) + 1 ones.
    """
    n = w.n
    if not n:
        return (0,)
    width = n.bit_length() + 1
    fields = bytearray(width * n)
    fields[width - 1 :: width] = letters(w.bits, n)
    # field n - i holds letter i, read by int() from ASCII digits; adding
    # to every field all fields above it (log2 n shift-adds) turns field j
    # into p(n - j)
    packed = int(fields.translate(_BIT_TO_DIGIT), 2)
    shift = width
    while shift < width * n:
        packed += packed >> shift
        shift <<= 1
    ones = ((1 << width * n) - 1) // ((1 << width) - 1)  # 1 in every field
    tops = ones << (width - 1)
    biased = packed + tops - ones  # each field + 2^(B-1) - 1 - v(k-1)
    out = [0]
    best = 0
    for shift in range(width, width * n + 1, width):
        if (biased - (packed >> shift)) & tops:
            best += 1
            biased -= ones
        out.append(best)
    return tuple(out)


def prefix_ones(w: Word) -> Profile:
    return tuple(accumulate(letters(w.bits, w.n), initial=0))


def suffix_ones(w: Word) -> Profile:
    return tuple(accumulate(letters(w.bits, w.n)[::-1], initial=0))


def reverse_progress(f: Profile) -> Profile:
    """Replay a profile's increments backwards.

    The result g has g(0) = f(n) and g(k) = g(k-1) - (f(k-1) - f(k-2)),
    reading f(-1) = f(0) = 0.  Equivalently g(k) = f(n) - f(k-1).
    """
    n = len(f) - 1
    out = [f[n]]
    for k in range(1, n + 1):
        step = f[k - 1] - (f[k - 2] if k >= 2 else 0)
        out.append(out[-1] - step)
    return tuple(out)


def max_ones_sum(f: Profile) -> int:
    """Sum of a profile over lengths 1..n."""
    return sum(f[1:])


def profile_text(f: Profile) -> str:
    """Serialize v(1..n) as comma-separated integers; v(0) stays implicit."""
    return ",".join(str(v) for v in f[1:])


def is_unit_step(f: Profile) -> bool:
    """True when v(0) = 0, steps are 0 or 1, and v(k) never exceeds k."""
    if f[0] != 0:
        return False
    return all(0 <= f[k] - f[k - 1] <= 1 and f[k] <= k for k in range(1, len(f)))
