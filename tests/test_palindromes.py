import pytest

from pnlab import oracle
from pnlab.limits import LimitExceededError
from pnlab.normality import iter_lr_levels
from pnlab.palindromes import (
    count_prefix_normal_palindromes,
    enumerate_prefix_normal_palindromes,
    is_palindrome,
    is_prefix_normal_palindrome,
    is_prefix_normal_palindrome_by_profile,
    iter_prefix_normal_palindromes,
    palindrome_from_tail,
)
from pnlab.words import Word, parse_word

TABLE_COUNTS = [2, 2, 3, 3, 5, 4, 8, 7, 12, 11, 21, 18, 36, 31, 57, 55]


def all_words(n):
    return (Word(n, v) for v in range(1 << n))


class TestPalindrome:
    def test_examples(self):
        assert is_palindrome(parse_word("10101"))
        assert not is_palindrome(parse_word("1101"))
        assert is_palindrome(parse_word(""))

    def test_matches_the_spelling(self):
        # the packed test against the definition, a word that reads the same both ways
        for n in range(13):
            for w in all_words(n):
                assert is_palindrome(w) == (str(w) == str(w)[::-1]), w


class TestDetection:
    def test_examples(self):
        assert is_prefix_normal_palindrome(parse_word("1001001"))
        assert not is_prefix_normal_palindrome(parse_word("101101"))
        assert is_prefix_normal_palindrome(parse_word("10001"))

    def test_profile_route_examples(self):
        assert is_prefix_normal_palindrome_by_profile(parse_word("11011"))
        assert not is_prefix_normal_palindrome_by_profile(parse_word("101101"))
        assert is_prefix_normal_palindrome_by_profile(parse_word("0000"))

    def test_routes_agree_exhaustively(self):
        for n in range(0, 13):
            for w in all_words(n):
                assert is_prefix_normal_palindrome(w) == is_prefix_normal_palindrome_by_profile(w)


class TestEnumeration:
    def test_half_expansion(self):
        assert str(palindrome_from_tail(5, 0b011)) == "11011"
        assert str(palindrome_from_tail(4, 0b01)) == "1001"
        assert str(palindrome_from_tail(1, 1)) == "1"
        assert str(palindrome_from_tail(0, 0)) == ""
        with pytest.raises(ValueError):
            palindrome_from_tail(4, 0b100)

    def test_every_tail_mirrors(self):
        # the tail OR its reversal at length n, against the mirror spelled out
        for n in range(17):
            half = (n + 1) // 2
            for tail in range(1 << half):
                text = format(tail, f"0{half}b") if half else ""
                assert str(palindrome_from_tail(n, tail)) == text[::-1][: n // 2] + text

    def test_tail_round_trip(self):
        # every least representative is the tail of the palindromes of lengths 2m - 1 and 2m
        for m, level in iter_lr_levels(12):
            for n in (2 * m - 1, 2 * m):
                if n < 0:
                    continue
                for tail in level:
                    w = palindrome_from_tail(n, tail)
                    assert is_palindrome(w), (n, tail)
                    assert w.slice(n - m + 1, n) == Word(m, tail), (n, tail)

    def test_listed_words_for_small_lengths(self):
        listed = {
            1: ["0", "1"],
            2: ["00", "11"],
            3: ["000", "101", "111"],
            4: ["0000", "1001", "1111"],
            5: ["00000", "10001", "10101", "11011", "11111"],
            6: ["000000", "100001", "110011", "111111"],
            7: ["0000000", "1000001", "1001001", "1010101", "1101011", "1100011", "1110111", "1111111"],
        }
        for n, words in listed.items():
            got = [str(w) for w in enumerate_prefix_normal_palindromes(n).words]
            assert got == sorted(words), n

    def test_counts_match_table(self):
        for n, expected in enumerate(TABLE_COUNTS, start=1):
            assert count_prefix_normal_palindromes(n) == expected

    def test_record_fields(self):
        rec = enumerate_prefix_normal_palindromes(6)
        assert rec.n == 6 and rec.count == len(rec.words) == 4
        assert all(is_palindrome(w) and is_prefix_normal_palindrome(w) for w in rec.words)
        assert str(rec.words[0]) == "000000" and str(rec.words[-1]) == "111111"

    def test_limit(self):
        with pytest.raises(LimitExceededError):
            count_prefix_normal_palindromes(35)

    def test_words_match_brute_filter(self):
        for n in range(0, 17):
            brute = [
                w for w in oracle.all_words(n)
                if w == w.reverse() and oracle.brute_is_prefix_normal(w)
            ]
            assert list(enumerate_prefix_normal_palindromes(n).words) == brute, n
            assert oracle.brute_prefix_normal_palindromes(n) == brute, n

    def test_words_increase_past_brute_range(self):
        # the brute filter pins the order to n = 16; the scan sorts by packed value at every length
        for n in range(17, 25):
            values = [w.bits for w in enumerate_prefix_normal_palindromes(n).words]
            assert all(a < b for a, b in zip(values, values[1:])), n

    def test_walk_matches_per_length_enumeration(self):
        walked = list(iter_prefix_normal_palindromes(24))
        assert walked == [(n, enumerate_prefix_normal_palindromes(n).words) for n in range(25)]

    def test_walk_checks_length_before_yielding(self, monkeypatch):
        with pytest.raises(LimitExceededError):
            next(iter_prefix_normal_palindromes(35))
        monkeypatch.setenv("PNLAB_MAX_N", "5")
        assert [n for n, _ in iter_prefix_normal_palindromes(10)] == list(range(11))
        with pytest.raises(LimitExceededError):
            next(iter_prefix_normal_palindromes(11))
        with pytest.raises(ValueError):
            next(iter_prefix_normal_palindromes(-1))

    def test_counts_beyond_brute_range(self):
        # values of the exhaustive scan over all 2^ceil(n/2) free halves
        counts = [104, 91, 182, 166, 308, 292, 562, 512, 1009, 928, 1755, 1697, 3247, 2972, 5906, 5555]
        for n, expected in enumerate(counts, start=17):
            assert count_prefix_normal_palindromes(n) == expected, n
