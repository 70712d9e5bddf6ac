import random
import tracemalloc

import pytest

from pnlab import oracle
from pnlab.collapse import collapse_class, collapse_classes, iter_collapse_classes
from pnlab.limits import (
    LimitExceededError,
    max_palindrome_length,
    max_partition_length,
    max_word_length,
)
from pnlab.normality import (
    class_members,
    class_partition,
    count_least_representatives,
    count_one_prepends,
    enumerate_least_representatives,
    extends_by_one,
    is_prefix_normal,
    is_suffix_normal,
    iter_class_partitions,
    iter_lr_levels,
    least_representative,
    lr_level,
    pn_equivalent,
    prefix_normal_form,
    prepend_one_groups,
    prepend_one_profile,
    profile_increments_word,
)
from pnlab.palindromes import count_prefix_normal_palindromes, enumerate_prefix_normal_palindromes
from pnlab.words import Word, max_ones, parse_word, prefix_ones


# OEIS A194850: the number of prefix normal words, so of classes, of length n
A194850 = [
    1, 2, 3, 5, 8, 14, 23, 41, 70, 125, 218, 395, 697, 1273, 2279, 4185, 7568,
    13997, 25500, 47414, 87024, 162456, 299947, 562345, 1043212,
]


def all_words(n):
    return (Word(n, v) for v in range(1 << n))


def oracle_members(n):
    """(w, the oracle's member list of w's class) for every word of length n, in word order,
    from one 2^n partition scan instead of one scan per word."""
    group = {}
    for members in oracle.brute_class_partition(n).values():
        for v in members:
            group[v] = members
    return ((w, group[w]) for w in all_words(n))


class TestPredicates:
    def test_prefix_normal_examples(self):
        assert is_prefix_normal(parse_word("110101"))
        assert not is_prefix_normal(parse_word("101101"))
        assert is_prefix_normal(parse_word("0000"))

    def test_suffix_normal_examples(self):
        assert is_suffix_normal(parse_word("101011"))
        assert not is_suffix_normal(parse_word("110101"))
        assert is_suffix_normal(parse_word("1111"))

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
            for w, members in oracle_members(n):
                npf = prefix_normal_form(w)
                assert npf == max(members)
                assert oracle.brute_is_prefix_normal(npf)
                lr = least_representative(w)
                assert lr == min(members)
                assert oracle.brute_is_suffix_normal(lr)

    def test_increments_word(self):
        assert profile_increments_word((0,)) == parse_word("")
        assert profile_increments_word((0, 1, 1, 2, 3, 3)) == parse_word("10110")
        assert profile_increments_word((0, 0, 0)) == parse_word("00")
        long = Word(1024, random.Random(1024).getrandbits(1024))
        assert profile_increments_word(prefix_ones(long)) == long

    # steps outside 0..255 fail in bytes(); 32, 48, 95 and 98 spell " ", "0", "_" and "b", which int() could take
    @pytest.mark.parametrize("step", [2, -1, 256, 32, 48, 95, 98])
    def test_increments_word_rejects_a_step(self, step):
        with pytest.raises(ValueError, match="profile steps must be 0 or 1"):
            profile_increments_word((0, 1, 1 + step, 2 + step))

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
            for w, members in oracle_members(n):
                assert class_members(w) == members
                if n <= 7:
                    # the per-word oracle scan agrees with the partition group
                    assert oracle.brute_class_members(w) == members

    def test_matches_the_partition(self):
        # past the oracle's range, every word's walk cut by its profile finds its partition class
        for n in range(0, 13):
            classes = class_partition(n, materialize=True).classes
            for w in all_words(n):
                assert class_members(w) == list(classes[max_ones(w)].members)

    def test_limit(self):
        with pytest.raises(LimitExceededError):
            class_members(Word(25, 0))


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

    @pytest.mark.parametrize(
        "build,cap",
        [
            pytest.param(lambda n: list(enumerate_least_representatives(n)), max_word_length, id="enumerate_lr"),
            pytest.param(count_least_representatives, max_word_length, id="count_lr"),
            pytest.param(lr_level, max_word_length, id="lr_level"),
            pytest.param(lambda n: collapse_classes(n, "brute"), max_word_length, id="collapse_brute"),
            pytest.param(lambda n: collapse_classes(n, "band"), max_word_length, id="collapse_band"),
            pytest.param(lambda n: collapse_class(Word(n, 0)), max_word_length, id="collapse_class"),
            pytest.param(lambda n: class_members(Word(n, 0)), max_word_length, id="class_members"),
            pytest.param(class_partition, max_partition_length, id="class_partition"),
            pytest.param(lambda n: list(iter_collapse_classes(n)), max_word_length, id="iter_collapse_brute"),
            pytest.param(lambda n: list(iter_collapse_classes(n, "band")), max_word_length, id="iter_collapse_band"),
            pytest.param(lambda n: list(iter_class_partitions(n)), max_partition_length, id="iter_class_partitions"),
            pytest.param(count_prefix_normal_palindromes, max_palindrome_length, id="count_pnpal"),
            pytest.param(enumerate_prefix_normal_palindromes, max_palindrome_length, id="enumerate_pnpal"),
        ],
    )
    def test_cap_follows_environment(self, monkeypatch, build, cap):
        # PNLAB_MAX_N is the only way to move a cap: word 6, partition 2, palindrome 12
        monkeypatch.setenv("PNLAB_MAX_N", "6")
        build(cap())
        with pytest.raises(LimitExceededError):
            build(cap() + 1)

    @pytest.mark.parametrize("n", [0, 5, 9, 10, 24])
    def test_palindrome_cap_keeps_half_levels_under_word_cap(self, monkeypatch, n):
        monkeypatch.setenv("PNLAB_MAX_N", str(n))
        assert max_palindrome_length() == min(n + 10, 2 * n)
        assert (max_palindrome_length() + 1) // 2 <= max_word_length()

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


class TestWalk:
    def test_counts_are_a194850(self):
        assert count_least_representatives(24) == A194850

    def test_one_prepends_match_the_single_word_test(self):
        # extends_by_one reads each word's letters, not the walk's packed counts
        expected = [sum(extends_by_one(bits, m) for bits in lr_level(m)) for m in range(17)]
        assert count_one_prepends(16) == expected

    def test_every_depth_is_its_level(self):
        levels = list(iter_lr_levels(14))
        assert [m for m, _ in levels] == list(range(15))
        for m, level in levels:
            assert level == lr_level(m)

    @pytest.mark.parametrize("n", [2, 3, 9, 17])
    def test_width_holds_the_longest_tested_node(self, n):
        # the deepest node tested is 1^(n-1), with s(n-1) = n - 1 a power of two here:
        # a field one bit narrower holds it in its top bit and loses 1^n
        level = lr_level(n)
        assert len(level) == A194850[n] and level[-1] == (1 << n) - 1
        assert count_least_representatives(n)[n] == A194850[n]
        assert count_one_prepends(n - 1)[n - 1] == A194850[n] - A194850[n - 1]

    def test_groups_are_the_prepend_one_grouping(self):
        # prepend_one_profile reads each word's letters, not the walk's packed key; the lengths
        # run through n = 0 and every power of two, where the fields first need one bit more
        for n in range(17):
            groups = {}
            for bits in lr_level(n):
                groups.setdefault(prepend_one_profile(bits, n), []).append(bits)
            assert prepend_one_groups(n) == list(groups.values())

    def test_counts_hold_no_level(self):
        def peak(build):
            tracemalloc.start()
            try:
                build(16)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        level_peak = peak(lr_level)
        assert peak(count_least_representatives) * 10 < level_peak
        assert peak(count_one_prepends) * 10 < level_peak


class TestPartition:
    def test_class_counts(self):
        assert len(class_partition(1).classes) == 2
        assert len(class_partition(4).classes) == 8
        assert len(class_partition(6).classes) == 23

    def test_matches_oracle(self):
        for n, walked in zip(range(0, 9), iter_class_partitions(8, materialize=True)):
            mine = class_partition(n, materialize=True)
            assert walked == mine
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

    def test_counts_past_the_oracle(self):
        for n in range(9, 15):
            part = class_partition(n)
            assert len(part.classes) == A194850[n]
            assert sum(cls.size for cls in part) == 2**n

    def test_groups_equal_the_max_ones_grouping(self):
        # max_ones reads each word's letters, not the walk's packed counts
        groups = {}
        for w in all_words(13):
            groups.setdefault(max_ones(w), []).append(w)
        part = class_partition(13, materialize=True)
        assert list(part.classes) == list(groups)
        for sig, members in groups.items():
            cls = part.classes[sig]
            assert list(cls.members) == members and cls.size == len(members)
            assert cls.npf == max(members) and cls.lr == min(members)

    def test_records_read_off_the_key(self):
        # the key's field differences spell the lr; the old route read the signature's increments,
        # and the signature must be the lr's profile, which max_ones reads off its letters
        for n in range(15):
            part = class_partition(n)
            assert len(part.classes) == A194850[n]
            for sig, cls in part.classes.items():
                assert cls.signature == sig == max_ones(cls.lr)
                assert cls.npf == profile_increments_word(sig)
                assert cls.lr == cls.npf.reverse()

    def test_npf_is_the_greatest_member(self):
        assert [(str(c.npf), str(c.lr)) for c in class_partition(0, materialize=True)] == [("", "")]
        assert [(str(c.npf), str(c.lr)) for c in class_partition(1, materialize=True)] == [("0", "0"), ("1", "1")]
        for n in range(13):
            for cls in class_partition(n, materialize=True).classes.values():
                assert cls.npf == max(cls.members) and cls.lr == min(cls.members)

    @pytest.mark.parametrize("n", [7, 8, 15, 16])
    def test_width_holds_the_longest_word(self, n):
        # fields hold values up to n: 7 and 15 are the longest lengths of widths 4 and 5,
        # 8 and 16 the shortest of widths 5 and 6, so one bit less misreads the top classes
        part = class_partition(n)
        assert len(part.classes) == A194850[n]
        assert sum(cls.size for cls in part) == 2**n
        top = part.classes[tuple(range(n + 1))]
        assert top.size == 1 and top.npf == Word.ones(n)
        below = part.classes[(*range(n), n - 1)]  # 1^(n-1)·0 and 0·1^(n-1)
        assert below.size == 2 and below.lr == Word(n, (1 << n - 1) - 1)

    def test_counts_hold_no_members(self):
        def peak(materialize):
            tracemalloc.start()
            try:
                class_partition(14, materialize)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # both hold the 2279 classes; only materialize holds the 2^14 words
        assert peak(False) * 2 < peak(True)
