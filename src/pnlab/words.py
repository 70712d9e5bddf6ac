"""Binary words over {0, 1} and their ones-counting profiles.

Words use 1-based positions at the interface; position 1 is the leftmost
letter.  Storage is bit-packed with the leftmost letter in the most
significant bit, so for words of equal length lexicographic order is the
numeric order of the packed value.

A profile is a tuple (v(0), v(1), ..., v(n)) over factor lengths:

  max_ones     v(k) is the most 1s found in any factor of length k
  prefix_ones  v(k) is the number of 1s in the prefix of length k
  suffix_ones  v(k) is the number of 1s in the suffix of length k

All three are read off the word's prefix counts p(0..n).  A word is spelled
in digits one way, `bin` of its packed value with a marker bit 1 << n that
keeps leading zeros.  `str`, `reversed_bits` and `spelling(n)`, the one
spelling the CLI reads, use it; max_ones writes it into its fields, and
`letters` turns it into bytes of value 0 or 1.

max_ones is word-parallel.  It packs p(1..n) into n fields of B bits of one
int P, field j holding p(n - j), with B chosen so that 2^(B-1) > n
(`field_constants` gives B and the masks, for normality's walks too).  For
each length k, P - (P >> B·k) holds every window count of length k at
once: p never decreases, so no field borrows, and the fields past n - k
hold counts of prefixes shorter than k, which never exceed v(k-1).  The
profile moves in unit steps, so v(k) = v(k-1) + 1 exactly when some field
exceeds v(k-1): biasing every field by 2^(B-1) - 1 - v(k-1) makes that
the field's top bit, and one AND with the top-bit mask tests them all.
That is O(n) big-int operations on n·B-bit ints, each running over
n·B/30 machine digits in C, where one window scan per length takes
O(n²) interpreted steps.

A long word with a rare letter takes a second loop, over the positions
of its sparser letter, packed one per field of 8, 16, 32 or 64 bits by
`array` and `int.from_bytes`, the narrowest with 2^(B-1) >= n.  Let the
ones sit at q_1 < ... < q_W and v = v(k-1).  Then v(k) = v + 1 exactly
when v + 1 ones fit in a window of length k, that is when some span
q_{j+v} - q_j is at most k - 1.  With X the packed positions, X >> B·v
minus X holds all W - v spans at once in its low fields.  A span
subtracted from 2^(B-1) + k - 1 stays inside its field and sets the
field's top bit exactly when it is at most k - 1, so one AND with the top
bits of the valid fields tests every window.  The fields above those hold
0 minus a position and go negative, but a borrow runs only upward, so
they never disturb the valid fields.  The zeros, packed between
sentinels 0 and n + 1, give z(k) = k - v(k) the same way: z rises at k
when no span of z + 1 gaps reaches k + 1.  Each loop shifts once more
only when v, or z, rises, so a length costs two big-int operations on
min(W, n - W) + 2 fields instead of three on n.  Once v = W, or
z = n - W, no window can take in a letter more, so the loop stops and
the profile ends in W, or in k - (n - W).  max_ones takes this loop from
64 letters on when the sparser letter fills at most a third of the word;
its docstring has the measurements behind that rule.

reverse_progress derives from a profile the sequence v(n) - v(k-1) that
replays its increments backwards, starting from v(n); it serves `word --fbar`.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from itertools import accumulate, compress, repeat

from .limits import UsageError

Profile = tuple[int, ...]


class WordParseError(UsageError):
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
        return _digits(self.bits, self.n)

    def __repr__(self) -> str:
        return f"Word('{self}')"

    def __getitem__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"position {i} outside 1..{self.n}")
        return (self.bits >> (self.n - i)) & 1

    def __iter__(self):
        return iter(letters(self.bits, self.n))

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
        return Word(self.n, reversed_bits(self.bits, self.n))

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


def parse_word(text: str) -> Word:
    """Parse a string of '0'/'1' letters; the empty string is the empty word."""
    # checked first, since int() also accepts '_' and surrounding whitespace
    rest = text.lstrip("01")
    if rest:
        raise WordParseError(f"invalid letter {rest[0]!r} at position {len(text) - len(rest) + 1}")
    return Word(len(text), int("0" + text, 2))


_DIGIT_TO_BIT = bytes.maketrans(b"01", b"\x00\x01")
_ZERO_TO_BIT = bytes.maketrans(b"01", b"\x01\x00")


def _digits(bits: int, n: int) -> str:
    """The letters of Word(n, bits) as '0'/'1' text; length 0 gives "", where `format(0, "00b")` gives "0"."""
    return bin(bits | 1 << n)[3:]


def spelling(n: int) -> Callable[[int], str]:
    """`_digits` for words of length n, as a closure that takes 1 << n once: the CLI's spelling."""
    top = 1 << n
    return lambda bits: bin(bits | top)[3:]


def letters(bits: int, n: int) -> bytes:
    """The letters of Word(n, bits), leftmost first, as bytes of value 0 or 1."""
    return _digits(bits, n).encode().translate(_DIGIT_TO_BIT)


def reversed_bits(bits: int, n: int) -> int:
    """The packed value of Word(n, bits) read right to left."""
    return int("0" + _digits(bits, n)[::-1], 2)


def field_constants(n: int) -> tuple[int, int, int]:
    """(B, ones, tops) for n packed fields that hold values 0..n.

    B is the least width with 2^(B-1) > n.  Then 2^(B-1) + x - y lies in
    1..2^B - 1 for any x and y in 0..n, so (X | tops) - Y takes every
    field's difference at once without a borrow, and the field's top bit
    tells whether x >= y.  ones has 1 in each of the n fields and tops has
    their top bits.  It is the one place the width rule is written.
    """
    width = n.bit_length() + 1
    ones = ((1 << width * n) - 1) // ((1 << width) - 1)
    return width, ones, ones << width - 1


def fieldwise_max(x: int, y: int, width: int, tops: int) -> int:
    """Field by field max(x, y) of packed ints holding 0..n in the fields of
    `field_constants(n)`: the top bits of (x | tops) - y mark where x >= y,
    and spread over their fields they take x there and y elsewhere."""
    mask = ((((x | tops) - y) & tops) >> width - 1) * ((1 << width) - 1)
    return x & mask | y & ~mask


# max_ones packs the sparser letter's positions when the word has at least this many
# letters and that letter fills at most 1/_POSITION_LOOP_SHARE of it; the measurements
# behind both numbers are in max_ones' docstring
_POSITION_LOOP_MIN_LENGTH = 64
_POSITION_LOOP_SHARE = 3


def max_ones(w: Word) -> Profile:
    """Most 1s per factor length, by one word-parallel unit-step test per length.

    The test runs over one of two packed ints.  A word of at least 64
    letters whose sparser letter fills at most a third of it packs that
    letter's positions (`_max_ones_by_ones`, `_max_ones_by_zeros`); any
    other word packs its prefix counts (`_max_ones_by_counts`).  The
    length is tested first, so a short word pays nothing for the rule.

    The rule is measured, best of 7 in process on a shared 2-core VM.  At
    n = 1024 one call by prefix counts took 1.5-2.1 ms at every ones
    density; by positions it took 0.17-0.28 ms at density 0.05,
    0.49-0.86 ms at 0.25, 0.64-1.17 ms at 1/3 and 0.24 ms at 0.9, and
    `jpm.build_index` at n = 4096 fell from 55-62 ms to 2.8 / 13 / 5-8 ms
    at 0.05 / 0.25 / 0.9.  At density 1/2 the position loop saved little
    (0.9x at n = 64), and at n = 12-24 it ran at 0.7-1.2x the prefix
    counts for densities 1/4 to 3/4: its setup, three C passes over the
    letters, costs what its narrower ints save.  So the words of 24
    letters or fewer that the palindrome scans and the band engine pass
    keep the prefix-count loop.
    """
    n = w.n
    if n >= _POSITION_LOOP_MIN_LENGTH:
        weight = w.bits.bit_count()
        if _POSITION_LOOP_SHARE * weight <= n:
            return _max_ones_by_ones(w.bits, n, weight)
        if _POSITION_LOOP_SHARE * (n - weight) <= n:
            return _max_ones_by_zeros(w.bits, n, n - weight)
    return _max_ones_by_counts(w.bits, n)


def _max_ones_by_counts(bits: int, n: int) -> Profile:
    """max_ones by the prefix counts.

    The prefix counts p(1..n) are packed into n fields of B bits of one
    int P, field j holding p(n - j); B is the least width with
    2^(B-1) > n, so every field value and every biased window count
    below fits its field.  For length k, field j of P - (P >> B·k) is the
    count of the window ending at position n - j (for j <= n - k) or of a
    prefix shorter than k (beyond), so no field borrows and no field
    exceeds v(k-1) except a length-k window holding v(k-1) + 1 ones.
    """
    if not n:
        return (0,)
    width, ones, tops = field_constants(n)
    fields = bytearray(b"0") * (width * n)
    fields[width - 1 :: width] = _digits(bits, n).encode()
    # field n - i holds letter i, read by int() from ASCII digits; adding
    # to every field all fields above it (log2 n shift-adds) turns field j
    # into p(n - j)
    packed = int(fields, 2)
    shift = width
    while shift < width * n:
        packed += packed >> shift
        shift <<= 1
    biased = packed + tops - ones  # each field + 2^(B-1) - 1 - v(k-1)
    out = [0]
    best = 0
    for shift in range(width, width * n + 1, width):
        if (biased - (packed >> shift)) & tops:
            best += 1
            biased -= ones
        out.append(best)
    return tuple(out)


def _position_fields(n: int) -> array:
    """An empty array of fields of B bits, the narrowest of 8, 16, 32 and 64 with 2^(B-1) >= n.

    The position loops' fields then hold 0..n + 1, and every biased span
    they test lies in 0..2^B - 1 (see `_max_ones_by_zeros`), so none spills
    into its neighbour.
    """
    for code in "BHIQ":
        fields = array(code)
        if n <= 1 << 8 * fields.itemsize - 1:
            return fields
    raise OverflowError(f"word length {n} needs fields wider than 64 bits")


def _pack_fields(fields: array) -> tuple[int, int, int]:
    """(packed, B, ones): the items as fields of one int, item 0 lowest, and 1 in each field."""
    if sys.byteorder == "big":
        fields.byteswap()
    size = fields.itemsize
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * len(fields), "little")
    return int.from_bytes(fields, "little"), 8 * size, ones


def _max_ones_by_ones(bits: int, n: int, weight: int) -> Profile:
    """max_ones by the positions q_1 < ... < q_W of the ones, W = weight.

    Field j of `packed` holds q_{j+1} and `shifted` is packed >> B·v, with
    v = v(k-1).  At length k, `test` is tops + (k - 1)·ones + packed -
    shifted: its W - v valid fields, marked by `valid`, hold 2^(B-1) + k - 1
    less the span q_{j+1+v} - q_{j+1} of v + 1 ones.  No such span is below
    k - 1, or v + 1 ones would fit a window of length k - 1, and none is
    above n - 1, so each valid field lies in 2^(B-1) + 1 - n .. 2^(B-1).
    Its top bit is set exactly where the span is k - 1, where a length-k
    window holds v + 1 ones.
    """
    if not weight:  # v = W already
        return (0,) * (n + 1)
    fields = _position_fields(n)
    fields.extend(compress(range(1, n + 1), letters(bits, n)))
    packed, width, ones = _pack_fields(fields)
    tops = ones << width - 1
    test = valid = tops
    shifted = packed
    best = 0
    out = [0]
    for k in range(1, n + 1):
        if test & valid:
            best += 1
            if best == weight:
                out.extend(repeat(weight, n + 1 - k))
                break
            moved = shifted >> width
            test += shifted - moved
            shifted = moved
            valid >>= width
        out.append(best)
        test += ones
    return tuple(out)


def _max_ones_by_zeros(bits: int, n: int, count: int) -> Profile:
    """max_ones by the zeros' positions r_1 < ... < r_Z, Z = count, between r_0 = 0 and r_{Z+1} = n + 1.

    Field j of `packed` holds r_j and `shifted` is packed >> B·(z + 1),
    with z = z(k-1) = k - 1 - v(k-1), so each of the Z - z + 1 valid fields
    of shifted - packed holds a span r_{j+z+1} - r_j: the window strictly
    between those two holds z zeros.  At length k, `test` adds
    2^(B-1) - k - 1 to each span, which sets the top bit where the span
    reaches k + 1, where a length-k window holds only z zeros.  Where no
    valid field's top bit is set, every length-k window holds z + 1 zeros.
    A span lies in 1..n, so each valid field lies in 2^(B-1) - n ..
    2^(B-1) + n - 2.  The width rule 2^(B-1) >= n is tight here: a lone 0
    at either end reaches the low end at k = n.
    """
    if not count:  # z = n - W already
        return tuple(range(n + 1))
    fields = _position_fields(n)
    fields.append(0)
    fields.extend(compress(range(1, n + 1), _digits(bits, n).encode().translate(_ZERO_TO_BIT)))
    fields.append(n + 1)
    packed, width, ones = _pack_fields(fields)
    tops = ones << width - 1
    shifted = packed >> width
    test = shifted - packed + tops - ones
    valid = tops >> width
    zeros = 0
    out = [0]
    for k in range(1, n + 1):
        test -= ones
        if not test & valid:
            zeros += 1
            if zeros == count:
                out.extend(range(k - count, n + 1 - count))
                break
            moved = shifted >> width
            test += moved - shifted
            shifted = moved
            valid >>= width
        out.append(k - zeros)
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
    return (f[n], *(f[n] - v for v in f[:-1]))


def max_ones_sum(f: Profile) -> int:
    """Sum of a profile over lengths 1..n."""
    return sum(f[1:])


def profile_text(f: Profile) -> str:
    """Serialize v(1..n) as comma-separated integers; v(0) stays implicit."""
    return ",".join(str(v) for v in f[1:])

