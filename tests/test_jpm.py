import random

import pytest

from pnlab import oracle
from pnlab.jpm import build_index, query
from pnlab.words import Word, parse_word


def test_build_examples():
    idx = build_index(parse_word("110101"))
    assert idx.fmax[3] == 2
    assert idx.fmin[3] == 1

    idx = build_index(parse_word("00000"))
    assert idx.fmax == idx.fmin == (0,) * 6

    idx = build_index(parse_word("1111"))
    assert idx.fmax == idx.fmin == (0, 1, 2, 3, 4)


def test_query_examples():
    idx = build_index(parse_word("110101"))
    assert query(idx, 2, 2) is True
    assert query(idx, 3, 0) is False
    assert query(idx, 4, 5) is False
    assert query(idx, 0, 0) is True
    assert query(idx, 0, 1) is False


def test_query_range_error():
    idx = build_index(parse_word("1101"))
    with pytest.raises(ValueError):
        query(idx, 5, 1)
    with pytest.raises(ValueError):
        query(idx, -1, 0)


def test_envelopes_step_by_at_most_one():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(0, 40)
        idx = build_index(Word(n, rng.getrandbits(n)))
        for k in range(1, n + 1):
            assert idx.fmax[k] - idx.fmax[k - 1] in (0, 1)
            assert idx.fmin[k] - idx.fmin[k - 1] in (0, 1)
            assert idx.fmin[k] <= idx.fmax[k]


def test_full_length_entries_equal_weight():
    for text in ("", "0", "110101", "111000111"):
        w = parse_word(text)
        idx = build_index(w)
        assert idx.fmin[len(w)] == idx.fmax[len(w)] == w.weight()


def test_index_reversal_symmetry():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(0, 32)
        w = Word(n, rng.getrandbits(n))
        assert build_index(w) == build_index(w.reverse())


def test_exhaustive_small_against_oracle():
    for n in range(0, 9):
        for value in range(1 << n):
            w = Word(n, value)
            idx = build_index(w)
            for k in range(n + 1):
                for d in range(k + 2):
                    assert query(idx, k, d) == oracle.brute_jumbled_query(w, k, d)


def test_random_against_oracle():
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randint(0, 48)
        w = Word(n, rng.getrandbits(n))
        idx = build_index(w)
        for k in range(n + 1):
            for d in range(k + 1):
                assert query(idx, k, d) == oracle.brute_jumbled_query(w, k, d)


def test_long_word_against_oracle():
    rng = random.Random(17)
    w = Word.from_bits(int(rng.random() < 0.5) for _ in range(129))
    idx = build_index(w)
    for k in range(w.n + 1):
        for d in range(k + 2):
            assert query(idx, k, d) == oracle.brute_jumbled_query(w, k, d), (k, d)
