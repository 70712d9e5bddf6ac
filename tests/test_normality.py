import pytest

from pnlab import oracle
from pnlab.collapse import collapse_classes
from pnlab.limits import LimitExceededError
from pnlab.normality import (
    class_members,
    class_partition,
    count_least_representatives,
    enumerate_least_representatives,
    is_least_representative,
    is_prefix_normal,
    is_suffix_normal,
    least_representative,
    lr_level,
    pn_equivalent,
    prefix_normal_form,
)
from pnlab.palindromes import count_prefix_normal_palindromes
from pnlab.words import Word, max_ones, parse_word


def all_words(n):
    return (Word(n, v) for v in range(1 << n))


class TestPredicates:
    def test_prefix_normal_examples(self):
        assert is_prefix_normal(parse_word("110101"))
        assert not is_prefix_normal(parse_word("101101"))
        assert is_prefix_normal(parse_word("0000"))

    def test_suffix_normal_examples(self):
        assert is_suffix_normal(parse_word("101011"))
        assert not is_suffix_normal(parse_word("110101"))
        assert is_suffix_normal(parse_word("1111"))
        assert is_least_representative is is_suffix_normal

    def test_vs_oracle(self):
        for n in range(0, 11):
            for w in all_words(n):
                assert is_prefix_normal(w) == oracle.brute_is_prefix_normal(w)
                assert is_suffix_normal(w) == oracle.brute_is_suffix_normal(w)

    def test_reversal_swaps_normality(self):
        for w in all_words(10):
            assert is_prefix_normal(w) == is_suffix_normal(w.reverse())


class TestEquivalence:
    def test_examples(self):
        assert pn_equivalent(parse_word("110101"), parse_word("101101"))
        w = parse_word("10110")
        assert pn_equivalent(w, w)
        assert pn_equivalent(parse_word("10"), parse_word("01"))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pn_equivalent(parse_word("10"), parse_word("100"))


class TestCanonicalForms:
    def test_npf_examples(self):
        assert str(prefix_normal_form(parse_word("101101"))) == "110101"
        assert str(prefix_normal_form(parse_word("110101"))) == "110101"
        assert str(prefix_normal_form(parse_word("0011"))) == "1100"

    def test_lr_examples(self):
        assert str(least_representative(parse_word("110101"))) == "101011"
        assert str(least_representative(parse_word("00000"))) == "00000"
        assert str(least_representative(parse_word("1001"))) == "1001"

    def test_canonical_forms_exhaustive(self):
        # increments construction equals the class scan result
        for n in range(0, 10):
            for w in all_words(n):
                members = oracle.brute_class_members(w)
                npf = prefix_normal_form(w)
                assert npf == max(members)
                assert oracle.brute_is_prefix_normal(npf)
                lr = least_representative(w)
                assert lr == min(members)
                assert oracle.brute_is_suffix_normal(lr)

    def test_idempotent_and_class_invariant(self):
        for w in all_words(9):
            npf = prefix_normal_form(w)
            assert prefix_normal_form(npf) == npf
            assert pn_equivalent(w, npf)
            assert max_ones(least_representative(w)) == max_ones(w)


class TestClassMembers:
    def test_examples(self):
        assert [str(w) for w in class_members(parse_word("10101"))] == ["10101"]
        members = [str(w) for w in class_members(parse_word("110101"))]
        assert members[0] == "101011" and members[-1] == "110101"
        assert [str(w) for w in class_members(parse_word("000000"))] == ["000000"]

    def test_vs_oracle(self):
        for n in range(0, 9):
            for w in all_words(n):
                assert class_members(w) == oracle.brute_class_members(w)

    def test_limit(self):
        with pytest.raises(LimitExceededError):
            class_members(Word(30, 0), limit=29)


class TestEnumeration:
    def test_counts(self):
        expected = {3: 5, 5: 14, 8: 70}
        for n, count in expected.items():
            assert len(list(enumerate_least_representatives(n))) == count

    def test_lexicographic_and_matches_oracle(self):
        for n in range(0, 11):
            fast = list(enumerate_least_representatives(n))
            assert fast == sorted(fast)
            assert fast == oracle.brute_least_representatives(n)

    def test_limit(self):
        with pytest.raises(LimitExceededError):
            list(enumerate_least_representatives(25))

    @pytest.mark.parametrize(
        "build", [count_least_representatives, lr_level, collapse_classes, count_prefix_normal_palindromes]
    )
    def test_negative_length_rejected(self, build):
        with pytest.raises(ValueError, match="must be >= 0"):
            build(-3)
        build(0)

    def test_prepends(self):
        # prepending 0 preserves canonical words, non-canonical words stay lost
        for n in range(1, 10):
            canon = set(oracle.brute_least_representatives(n))
            for w in all_words(n):
                if w in canon:
                    assert is_suffix_normal(w.prepend(0))
                else:
                    assert not is_suffix_normal(w.prepend(0))
                    assert not is_suffix_normal(w.prepend(1))


class TestPartition:
    def test_class_counts(self):
        assert len(class_partition(1).classes) == 2
        assert len(class_partition(4).classes) == 8
        assert len(class_partition(6).classes) == 23

    def test_matches_oracle(self):
        for n in range(0, 9):
            mine = class_partition(n, materialize=True)
            brute = oracle.brute_class_partition(n)
            assert set(mine.classes) == set(brute)
            for sig, members in brute.items():
                cls = mine.classes[sig]
                assert list(cls.members) == members
                assert cls.size == len(members)

    def test_sizes_sum(self):
        for n in range(0, 11):
            part = class_partition(n)
            assert sum(cls.size for cls in part) == 2**n

    def test_jsonl_shape(self):
        import json

        lines = list(class_partition(3).to_jsonl())
        assert len(lines) == 5
        first = json.loads(lines[0])
        assert set(first) == {"signature", "npf", "lr", "size"}
