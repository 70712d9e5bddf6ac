import pytest

from pnlab import oracle
from pnlab.limits import LimitExceededError, UsageError
from pnlab.words import parse_word


def test_brute_max_ones_examples():
    assert oracle.brute_max_ones(parse_word("11011")) == (0, 1, 2, 2, 3, 4)
    assert oracle.brute_max_ones(parse_word("101101")) == (0, 1, 2, 2, 3, 3, 4)
    assert oracle.brute_max_ones(parse_word("0")) == (0, 0)


def test_brute_class_partition_counts():
    assert len(oracle.brute_class_partition(3)) == 5
    assert len(oracle.brute_class_partition(6)) == 23
    assert len(oracle.brute_class_partition(0)) == 1


def test_brute_partition_sizes_sum():
    part = oracle.brute_class_partition(7)
    assert sum(len(m) for m in part.values()) == 2**7


def test_brute_collapse_partition_counts():
    assert len(oracle.brute_collapse_partition(4)) == 7
    assert len(oracle.brute_collapse_partition(1)) == 2
    assert len(oracle.brute_collapse_partition(2)) == 3


def test_brute_collapse_merges_only_one_pair_at_4():
    sizes = sorted(len(g) for g in oracle.brute_collapse_partition(4))
    assert sizes == [1, 1, 1, 1, 1, 1, 2]
    big = next(g for g in oracle.brute_collapse_partition(4) if len(g) == 2)
    assert [str(w) for w in big] == ["0011", "1001"]


def test_brute_jumbled_query():
    w = parse_word("110101")
    assert oracle.brute_jumbled_query(w, 2, 2) is True
    assert oracle.brute_jumbled_query(w, 0, 0) is True
    assert oracle.brute_jumbled_query(w, 0, 1) is False
    assert oracle.brute_jumbled_query(w, 3, 0) is False
    with pytest.raises(ValueError):
        oracle.brute_jumbled_query(w, 7, 1)


def test_brute_jumbled_witness():
    w = parse_word("110101")
    assert oracle.brute_jumbled_witness(w, 2, 2) == 1
    assert oracle.brute_jumbled_witness(w, 2, 0) is None
    assert oracle.brute_jumbled_witness(w, 3, 2) == 1


def test_limits_raise():
    with pytest.raises(LimitExceededError):
        oracle.brute_class_partition(17)
    with pytest.raises(LimitExceededError):
        oracle.brute_collapse_partition(15)
    with pytest.raises(LimitExceededError):
        oracle.brute_least_representatives(17)
    with pytest.raises(LimitExceededError):
        oracle.brute_prefix_normal_palindromes(17)


def test_all_words_checks_its_length():
    # every 2^n scan of the oracle starts here; like any generator, it checks at the first `next`
    words = oracle.all_words(17)
    with pytest.raises(LimitExceededError, match="exceeds the limit of 16"):
        next(words)
    with pytest.raises(UsageError):
        next(oracle.all_words(-1))
    assert [str(w) for w in oracle.all_words(2)] == ["00", "01", "10", "11"]


def test_normality_checks():
    assert oracle.brute_is_prefix_normal(parse_word("110101"))
    assert not oracle.brute_is_prefix_normal(parse_word("101101"))
    assert oracle.brute_is_suffix_normal(parse_word("101011"))
    assert not oracle.brute_is_suffix_normal(parse_word("110101"))
