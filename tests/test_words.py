import random

import pytest

from pnlab import oracle
from pnlab.words import (
    Word,
    WordParseError,
    is_unit_step,
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

    def test_roundtrip(self):
        for n in range(0, 7):
            for w in all_words(n):
                assert parse_word(str(w)) == w


class TestWordOps:
    def test_reverse(self):
        assert str(parse_word("1101").reverse()) == "1011"
        assert str(parse_word("10101").reverse()) == "10101"
        assert str(parse_word("0011").reverse()) == "1100"

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

    @pytest.mark.parametrize("n", [127, 128, 129, 255, 256])
    def test_profiles_long_words(self, n):
        # the packed kernel's field width steps up at n = 128 and n = 256
        rng = random.Random(n)
        words = [Word.zeros(n), Word.ones(n)]
        for density in (0.05, 0.25, 0.5, 0.9):
            words.append(Word.from_bits(int(rng.random() < density) for _ in range(n)))
        for w in words:
            assert max_ones(w) == oracle.brute_max_ones(w), w
            assert prefix_ones(w) == oracle.brute_prefix_ones(w), w
            assert suffix_ones(w) == oracle.brute_suffix_ones(w), w


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
                assert is_unit_step(max_ones(w))
