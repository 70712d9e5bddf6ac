from fractions import Fraction

import pytest

from pnlab import oracle
from pnlab.collapse import (
    adjusted_lower_band,
    band_spec,
    candidate_collapsers,
    class_size_bound,
    collapse_classes,
    collapses,
    extends_to_lr,
    extension_critical,
    index_bounds,
    lower_band_word,
    palindromic_distance,
    palindromic_prefix_length,
    prepend_one_profile,
    recursive_lr_step,
    validate_lr_profile,
)
from pnlab.normality import enumerate_least_representatives, lr_level, profile_increments_word
from pnlab.words import Word, max_ones, max_ones_sum, parse_word

# golden profile rows for the length-17 worked example
F_W = (0, 1, 2, 3, 4, 5, 5, 6, 7, 8, 8, 8, 9, 10, 10, 11, 12, 13)
F_U = (0, 1, 2, 3, 4, 4, 5, 6, 7, 7, 7, 8, 9, 9, 10, 11, 12, 13)
F_HAT = (0, 1, 2, 3, 4, 4, 5, 6, 7, 7, 8, 8, 9, 9, 10, 11, 12, 13)


class TestCollapses:
    def test_examples(self):
        assert collapses(parse_word("1001"), parse_word("0011"))
        w = parse_word("01101")
        assert collapses(w, w)
        assert not collapses(parse_word("0011"), parse_word("0101"))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            collapses(parse_word("01"), parse_word("011"))

    def test_equivalence_relation(self):
        # symmetry and transitivity over all least representatives
        for n in range(1, 11):
            lrs = list(enumerate_least_representatives(n))
            sig = {w: max_ones(w.prepend(1)) for w in lrs}
            for a in lrs:
                for b in lrs:
                    assert collapses(a, b) == (sig[a] == sig[b])


class TestExtension:
    def test_examples(self):
        assert extends_to_lr(parse_word("0011"))
        assert not extends_to_lr(parse_word("1001"))
        assert extends_to_lr(parse_word("11111"))

    def test_extension_critical(self):
        assert extension_critical(parse_word("101"))
        assert extension_critical(parse_word("1001"))
        # the all-zeros word never extends: its 1-prepend is equivalent to
        # the 0-prepend of the odd sibling, so it is extension-critical too
        assert extension_critical(parse_word("0000"))

    def test_requires_canonical_input(self):
        with pytest.raises(ValueError):
            extends_to_lr(parse_word("110101"))

    def test_matches_direct_check(self):
        from pnlab.normality import is_suffix_normal

        for n in range(1, 12):
            for w in enumerate_least_representatives(n):
                assert extends_to_lr(w) == is_suffix_normal(w.prepend(1))


class TestPrependOneProfile:
    def test_matches_definition(self):
        # levels are increasing lists of packed ints that match the oracle,
        # and the collapse key is the max-ones profile of the 1-prepend
        for n in range(0, 15):
            level = lr_level(n)
            assert all(type(bits) is int for bits in level)
            if n <= 10:
                assert [Word(n, bits) for bits in level] == oracle.brute_least_representatives(n)
            for bits in level:
                w = Word(n, bits)
                assert prepend_one_profile(w.bits, n) == max_ones(w.prepend(1))


class TestBand:
    def test_lower_band_word_examples(self):
        assert str(lower_band_word(parse_word("11"))) == "11"
        assert str(lower_band_word(parse_word("0011"))) == "1001"

    def test_lower_band_word_preconditions(self):
        with pytest.raises(ValueError):
            lower_band_word(parse_word("0000"))
        with pytest.raises(ValueError):
            lower_band_word(parse_word("1001"))

    def test_lower_band_word_always_collapses(self):
        for n in range(1, 12):
            for w in enumerate_least_representatives(n):
                if w.bits == 0 or not extends_to_lr(w):
                    continue
                u = lower_band_word(w)
                assert collapses(w, u)

    def test_golden_rows(self):
        w = profile_increments_word(F_W).reverse()
        assert max_ones(w) == F_W
        u = lower_band_word(w)
        assert max_ones(u) == F_U
        assert adjusted_lower_band(w, u) == F_HAT

    def test_adjustment_noop_when_symmetric(self):
        w, u = parse_word("0011"), parse_word("1001")
        assert adjusted_lower_band(w, u) == max_ones(u)

    def test_band_spec_invariants(self):
        for n in range(1, 12):
            for w in enumerate_least_representatives(n):
                if w.bits == 0 or not extends_to_lr(w):
                    continue
                spec = band_spec(w)
                assert all(spec.lower[i] <= spec.upper[i] for i in range(n + 1))
                assert spec.lower[n] == spec.upper[n]
                if n >= 1:
                    assert spec.lower[1] == spec.upper[1]
                diffs = {i for i in range(1, n + 1) if spec.lower[i] != spec.upper[i]}
                assert {n - i + 1 for i in diffs} == diffs
                assert spec.free_positions == {i for i in diffs if i <= n // 2}

    def test_band_contains_all_collapser_profiles(self):
        for n in range(1, 12):
            by_sig = {}
            for w in enumerate_least_representatives(n):
                by_sig.setdefault(max_ones(w.prepend(1)), []).append(w)
            for members in by_sig.values():
                ext = members[0]
                if ext.bits == 0:
                    continue
                spec = band_spec(ext)
                for v in members:
                    fv = max_ones(v)
                    assert all(spec.lower[i] <= fv[i] <= spec.upper[i] for i in range(n + 1))


class TestLrProfileShape:
    def test_examples(self):
        assert not validate_lr_profile((0, 1, 1, 2, 3, 3, 4, 5))
        assert validate_lr_profile((0, 1, 1, 2, 2, 3))
        assert validate_lr_profile(max_ones(parse_word("101011")))

    def test_necessary_for_canonical_words(self):
        for n in range(0, 12):
            for w in enumerate_least_representatives(n):
                assert validate_lr_profile(max_ones(w))


class TestCandidates:
    def test_examples(self):
        assert [str(v) for v in candidate_collapsers(parse_word("0011"))] == ["1001"]
        assert candidate_collapsers(parse_word("111111")) == []

    def test_golden_example_class(self):
        w = profile_increments_word(F_W).reverse()
        others = candidate_collapsers(w)
        assert [str(v) for v in others] == ["11110100111101111"]


class TestClasses:
    def test_counts(self):
        assert len(collapse_classes(1)) == 2
        assert len(collapse_classes(2)) == 3
        assert len(collapse_classes(4)) == 7

    def test_engines_and_oracle_agree(self):
        for n in range(1, 11):
            brute = [tuple(map(str, c.members)) for c in collapse_classes(n, engine="brute")]
            band = [tuple(map(str, c.members)) for c in collapse_classes(n, engine="band")]
            reference = [tuple(map(str, g)) for g in oracle.brute_collapse_partition(n)]
            assert brute == band == reference

    def test_extender_properties(self):
        for n in range(1, 12):
            for cls in collapse_classes(n):
                assert cls.extender == min(cls.members)
                if cls.extender.bits == 0:
                    assert cls.size == 1
                    continue
                fe = max_ones(cls.extender)
                for v in cls.members[1:]:
                    fv = max_ones(v)
                    assert all(fv[i] <= fe[i] for i in range(n + 1))
                    assert max_ones_sum(fv) < max_ones_sum(fe)


class TestRecursiveStep:
    def test_counts(self):
        lrs4 = list(enumerate_least_representatives(4))
        assert len(recursive_lr_step(lrs4)) == 14
        lrs1 = list(enumerate_least_representatives(1))
        assert [str(w) for w in recursive_lr_step(lrs1)] == ["00", "01", "11"]
        lrs7 = list(enumerate_least_representatives(7))
        assert len(recursive_lr_step(lrs7)) == 70

    def test_matches_enumeration(self):
        for n in range(0, 11):
            step = recursive_lr_step(list(enumerate_least_representatives(n)))
            assert step == list(enumerate_least_representatives(n + 1))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            recursive_lr_step([])
        with pytest.raises(ValueError):
            recursive_lr_step([parse_word("110101")])
        with pytest.raises(ValueError):
            recursive_lr_step([parse_word("01"), parse_word("011")])
        with pytest.raises(ValueError):
            recursive_lr_step([parse_word("01"), parse_word("01")])


class TestPalindromicMeasures:
    def test_distance_examples(self):
        assert palindromic_distance(parse_word("110011001")) == 2
        assert palindromic_distance(parse_word("10")) == 1
        for text in ("10101", "1001", "", "0"):
            assert palindromic_distance(parse_word(text)) == 0

    def test_prefix_length_examples(self):
        assert palindromic_prefix_length(parse_word("1101")) == 2
        assert palindromic_prefix_length(parse_word("01101")) == 4
        assert palindromic_prefix_length(parse_word("10101")) == 5

    def test_prefix_length_empty(self):
        with pytest.raises(ValueError):
            palindromic_prefix_length(parse_word(""))


class TestSizeBound:
    def test_examples(self):
        assert class_size_bound(parse_word("0011")) == 2
        assert class_size_bound(parse_word("1111")) == 1
        assert class_size_bound(parse_word("1")) == 1

    def test_precondition(self):
        with pytest.raises(ValueError):
            class_size_bound(parse_word("1001"))

    def test_dominates_class_sizes(self):
        for n in range(1, 13):
            for cls in collapse_classes(n):
                if cls.extender.bits == 0:
                    continue
                assert cls.size <= class_size_bound(cls.extender)


class TestIndexBounds:
    def test_rows(self):
        b = index_bounds(14, 3, 4, 5)
        assert b.lower == 17
        assert b.upper_palcol == Fraction(23)
        assert b.upper_remark_paper == 23
        assert b.upper_remark_corrected == 24

        b = index_bounds(8, 3, 5, 3)
        assert b.lower == 11
        assert b.upper_palcol == Fraction(29, 2)
        assert b.upper_remark_paper == 13  # undercounts: 14 classes exist at length 5
        assert b.upper_remark_corrected == 14

        b = index_bounds(3, 2, 3, 2)
        assert b.lower == 5
