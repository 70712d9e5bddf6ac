import random

import pytest

from pnlab import oracle, words
from pnlab.words import (
    Word,
    WordParseError,
    field_constants,
    fieldwise_max,
    letters,
    max_ones,
    max_ones_sum,
    parse_word,
    prefix_ones,
    profile_text,
    reverse_progress,
    suffix_ones,
)


def all_words(n):
    return (Word(n, v) for v in range(1 << n))


class TestParse:
    def test_basic(self):
        w = parse_word("110101")
        assert len(w) == 6
        assert w[1] == 1 and w[2] == 1 and w[3] == 0 and w[6] == 1
        assert str(w) == "110101"

    def test_empty(self):
        w = parse_word("")
        assert len(w) == 0
        assert str(w) == ""

    def test_rejects_other_letters(self):
        with pytest.raises(WordParseError, match="position 1"):
            parse_word("2")
        with pytest.raises(WordParseError, match="position 3"):
            parse_word("01x1")
        # int() would accept these, so the letters are checked first
        for text, letter, pos in [("1_0", "_", 2), ("10 ", " ", 3), (" 1", " ", 1), ("01\n", "\n", 3)]:
            with pytest.raises(WordParseError) as exc:
                parse_word(text)
            assert str(exc.value) == f"invalid letter {letter!r} at position {pos}"

    def test_roundtrip(self):
        for n in range(0, 7):
            for w in all_words(n):
                assert parse_word(str(w)) == w


class TestWordOps:
    def test_reverse(self):
        assert str(parse_word("1101").reverse()) == "1011"
        assert str(parse_word("10101").reverse()) == "10101"
        assert str(parse_word("0011").reverse()) == "1100"
        assert parse_word("").reverse() == parse_word("")

    def test_reverse_involution(self):
        for w in all_words(8):
            assert w.reverse().reverse() == w

    def test_complement(self):
        assert str(parse_word("110101").complement()) == "001010"
        assert str(parse_word("0000").complement()) == "1111"
        assert parse_word("").complement() == parse_word("")
        for w in all_words(7):
            assert w.complement().complement() == w

    def test_concat_prepend_append(self):
        a, b = parse_word("110"), parse_word("01")
        assert str(a + b) == "11001"
        assert str(b.prepend(1)) == "101"
        assert str(b.append(0)) == "010"

    def test_slice(self):
        w = parse_word("110101")
        assert str(w.slice(2, 4)) == "101"
        assert str(w.slice(1, 6)) == "110101"
        assert len(w.slice(3, 2)) == 0

    def test_ordering_is_lexicographic(self):
        ws = sorted(all_words(4))
        assert [str(w) for w in ws] == sorted(str(w) for w in all_words(4))

    def test_weight(self):
        assert parse_word("110101").weight() == 4
        assert parse_word("").weight() == 0

    def test_iter_reads_the_letters(self):
        for n in range(11):
            for w in all_words(n):
                assert list(w) == [w[i] for i in range(1, n + 1)] == list(letters(w.bits, n))


class TestProfiles:
    def test_max_ones_examples(self):
        assert max_ones(parse_word("11011")) == (0, 1, 2, 2, 3, 4)
        assert max_ones(parse_word("101101")) == (0, 1, 2, 2, 3, 3, 4)
        assert max_ones(parse_word("0000")) == (0, 0, 0, 0, 0)

    def test_prefix_suffix_examples(self):
        assert prefix_ones(parse_word("101101")) == (0, 1, 1, 2, 3, 3, 4)
        assert prefix_ones(parse_word("1111")) == (0, 1, 2, 3, 4)
        # 101101 is a palindrome, so the suffix profile equals the prefix one
        assert suffix_ones(parse_word("101101")) == (0, 1, 1, 2, 3, 3, 4)
        assert suffix_ones(parse_word("1101")) == (0, 1, 1, 2, 3)

    def test_reverse_progress_examples(self):
        f = max_ones(parse_word("11011"))
        assert reverse_progress(f) == (4, 4, 3, 2, 2, 1)
        f = max_ones(parse_word("101101"))
        assert reverse_progress(f) == (4, 4, 3, 2, 2, 1, 1)
        f = max_ones(parse_word("0000"))
        assert reverse_progress(f) == (0, 0, 0, 0, 0)

    def test_max_ones_sum(self):
        assert max_ones_sum(max_ones(parse_word("11011"))) == 12
        assert max_ones_sum(max_ones(parse_word("0000"))) == 0
        assert max_ones_sum(max_ones(parse_word("111"))) == 6

    def test_profile_text(self):
        assert profile_text(max_ones(parse_word("11011"))) == "1,2,2,3,4"
        assert profile_text((0,)) == ""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 16, 24])
    def test_fieldwise_max(self, n):
        # values 0..n in every field, the ends included: the walks' keys reach n
        width, _, tops = field_constants(n)
        rng = random.Random(n)
        pairs = [([0] * n, [n] * n), ([n] * n, [0] * n), ([n] * n, [n] * n)]
        pairs += [([rng.randint(0, n) for _ in range(n)], [rng.randint(0, n) for _ in range(n)]) for _ in range(200)]
        for xs, ys in pairs:
            x, y = (sum(v << width * i for i, v in enumerate(vs)) for vs in (xs, ys))
            expected = sum(max(a, b) << width * i for i, (a, b) in enumerate(zip(xs, ys)))
            assert fieldwise_max(x, y, width, tops) == expected

    def test_empty_word_profiles(self):
        e = parse_word("")
        assert max_ones(e) == (0,)
        assert prefix_ones(e) == (0,)
        assert suffix_ones(e) == (0,)
        assert max_ones_sum(max_ones(e)) == 0


class TestAgainstOracle:
    def test_profiles_exhaustive(self):
        for n in range(0, 11):
            for w in all_words(n):
                assert max_ones(w) == oracle.brute_max_ones(w)
                assert prefix_ones(w) == oracle.brute_prefix_ones(w)
                assert suffix_ones(w) == oracle.brute_suffix_ones(w)

    def test_loops_agree_exhaustive(self):
        # max_ones takes the prefix-count loop below 64 letters and a position loop from 64 on,
        # but each loop answers for any word
        for n in range(0, 15):
            for w in all_words(n):
                assert all_loops(w) == [max_ones(w)] * 3, w

    @pytest.mark.parametrize("n", [63, 64, 125, 126, 127, 128, 129, 255, 256])
    def test_profiles_long_words(self, n):
        # max_ones packs the rarer letter's positions from n = 64 on; every loop's fields are 8 bits
        # wide to n = 128 and 16 bits from n = 129.  Every loop runs on every word.
        rng = random.Random(n)
        cases = [Word.zeros(n), Word.ones(n)]
        for density in (0.05, 0.25, 0.5, 0.9):
            cases.append(Word.from_bits(int(rng.random() < density) for _ in range(n)))
        # one 1 and one 0, each at the start, a third of either letter, then one more, and half of
        # either letter, then one more: the tie where the ones loop hands over to the zeros loop
        one = Word(n, 1 << n - 1)
        cases += [one, one.complement()]
        for count in (n // 3, n // 3 + 1, n // 2, n // 2 + 1):
            ones = Word(n, sum(1 << i for i in rng.sample(range(n), count)))
            cases += [ones, ones.complement()]
        for w in cases:
            expected = oracle.brute_max_ones(w)
            assert max_ones(w) == expected, w
            assert all_loops(w) == [expected] * 3, w
            assert prefix_ones(w) == oracle.brute_prefix_ones(w), w
            assert suffix_ones(w) == oracle.brute_suffix_ones(w), w

    def test_counts_loop_every_length_it_serves(self):
        # max_ones takes the prefix-count loop below 64 letters; the exhaustive cases stop at 14
        rng = random.Random(15)
        for n in range(15, 64):
            for density in (0.1, 0.5, 0.9):
                w = Word.from_bits(int(rng.random() < density) for _ in range(n))
                expected = oracle.brute_max_ones(w)
                assert words._max_ones_by_counts(w.bits, n) == expected, w
                assert max_ones(w) == expected, w

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_loops_agree_past_the_oracle(self, n):
        # brute_max_ones stops at 256 letters; past it the position loops answer for the prefix-count loop
        rng = random.Random(n)
        for density in (0.05, 0.25, 0.75, 0.95):
            w = Word(n, sum((rng.random() < density) << i for i in range(n)))
            assert max_ones(w) == words._max_ones_by_counts(w.bits, n), density

    @pytest.mark.parametrize("density", [0.01, 0.99])
    def test_loops_agree_past_the_16_bit_fields(self, density):
        # n = 2^15 + 1 is the first length whose positions take 32-bit fields
        n = (1 << 15) + 1
        rng = random.Random(n)
        w = Word(n, sum((rng.random() < density) << i for i in range(n)))
        assert max_ones(w) == words._max_ones_by_counts(w.bits, n)

    def test_one_zero_past_the_16_bit_fields(self):
        # a lone 0 at the start tests a span of 1 at k = n, the low end of a field: 16 bits would borrow
        n = (1 << 15) + 1
        assert max_ones(Word(n, (1 << n - 1) - 1)) == (*range(n), n - 1)

    @pytest.mark.parametrize("n,size", [(64, 1), (128, 1), (129, 2), (32768, 2), (32769, 4)])
    def test_position_field_width(self, n, size):
        # the narrowest whole array item with 2^(B-1) >= n
        assert words._position_fields(n).itemsize == size

    def test_loop_picked_by_length(self, monkeypatch):
        # from 64 letters on a word of either weight takes a position loop, below 64 the prefix counts
        rng = random.Random(64)
        half = [
            Word(n, sum(1 << i for i in rng.sample(range(n), count)))
            for n in (64, 128, 256)
            for count in (n // 2, n // 2 + 1)
        ]
        short = [Word(63, rng.getrandbits(63)) for _ in range(4)] + [Word.zeros(63), Word.ones(63)]
        expected = [words._max_ones_by_counts(w.bits, w.n) for w in half + short]

        def refuse(*args):
            raise AssertionError("loop not picked by the length rule")

        with monkeypatch.context() as patch:
            patch.setattr(words, "_max_ones_by_counts", refuse)
            assert [max_ones(w) for w in half] == expected[: len(half)]
        monkeypatch.setattr(words, "_max_ones_by_ones", refuse)
        monkeypatch.setattr(words, "_max_ones_by_zeros", refuse)
        assert [max_ones(w) for w in short] == expected[len(half) :]


def all_loops(w):
    n, weight = w.n, w.weight()
    return [
        words._max_ones_by_counts(w.bits, n),
        words._max_ones_by_ones(w.bits, n, weight),
        words._max_ones_by_zeros(w.bits, n, n - weight),
    ]


class TestInvariants:
    def test_reversal_keeps_max_ones(self):
        for n in range(0, 12):
            for w in all_words(n):
                assert max_ones(w) == max_ones(w.reverse())

    def test_prefix_suffix_below_max(self):
        for w in all_words(10):
            f, p, s = max_ones(w), prefix_ones(w), suffix_ones(w)
            assert all(p[k] <= f[k] and s[k] <= f[k] for k in range(11))

    def test_prefix_suffix_splits(self):
        for w in all_words(9):
            p, s = prefix_ones(w), suffix_ones(w)
            n = len(w)
            for i in range(n + 1):
                assert p[n] == p[n - i] + s[i]
                assert s[n] == p[i] + s[n - i]

    def test_suffix_is_reversed_prefix(self):
        for w in all_words(10):
            assert suffix_ones(w) == prefix_ones(w.reverse())

    def test_palindrome_suffix_equals_reverse_progress_of_prefix(self):
        for n in range(0, 13):
            for w in all_words(n):
                if w != w.reverse():
                    continue
                s = suffix_ones(w)
                g = reverse_progress(prefix_ones(w))
                assert all(s[k] == g[n - k + 1] for k in range(1, n + 1))

    def test_unit_step_exhaustive(self):
        # direct property of the sliding-window maxima, checked to n = 14
        for n in range(0, 15):
            for w in all_words(n):
                f = max_ones(w)
                assert f[0] == 0 and all(f[k] - f[k - 1] in (0, 1) for k in range(1, n + 1))


@pytest.mark.parametrize(
    "call,expected",
    [
        pytest.param(lambda: Word(-1, 0), ValueError, id="negative-length"),
        pytest.param(lambda: Word(2, 4), ValueError, id="bits-overflow"),
        pytest.param(lambda: Word.from_bits([0, 2]), ValueError, id="from-bits-letter"),
        pytest.param(lambda: parse_word("101")[0], IndexError, id="position-0"),
        pytest.param(lambda: parse_word("101")[4], IndexError, id="position-n+1"),
        pytest.param(lambda: parse_word("101").slice(0, 1), IndexError, id="slice-start-0"),
        pytest.param(lambda: parse_word("101").slice(1, 4), IndexError, id="slice-end-n+1"),
        pytest.param(lambda: list(parse_word("1101")), [1, 1, 0, 1], id="iter"),
        pytest.param(lambda: parse_word("10") <= parse_word("10"), True, id="le-equal"),
        pytest.param(lambda: parse_word("011") <= parse_word("10"), True, id="le-longer-first"),
        pytest.param(lambda: parse_word("011") < parse_word("10"), True, id="lt-longer-first"),
        pytest.param(lambda: parse_word("10") < parse_word("011"), False, id="lt-shorter-first"),
    ],
)
def test_guards_and_operators(call, expected):
    # the packed-value guards raise; between lengths, order is the order of the strings
    if isinstance(expected, type):
        with pytest.raises(expected):
            call()
    else:
        assert call() == expected
