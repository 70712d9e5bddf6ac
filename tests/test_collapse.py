import random
from fractions import Fraction
from operator import add

import pytest

from pnlab import collapse, normality, oracle, words
from pnlab.collapse import (
    adjusted_lower_band,
    candidate_collapsers,
    class_size_bound,
    collapse_class,
    collapse_classes,
    collapses,
    extends_to_lr,
    extension_critical,
    index_bounds,
    iter_collapse_classes,
    lower_band_word,
    palindromic_distance,
    palindromic_prefix_length,
    prepend_one_profile,
    recursive_lr_step,
    validate_lr_profile,
)
from pnlab.normality import (
    enumerate_least_representatives,
    extends_by_one,
    is_suffix_normal,
    least_representative,
    lr_level,
    profile_increments_word,
)
from pnlab.words import Word, max_ones, max_ones_sum, parse_word, prefix_normal_forms, suffix_ones

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
        # a class always holds its word, so a word outside every class is refused
        with pytest.raises(ValueError, match="not a least representative"):
            collapse_class(parse_word("10"))

    def test_matches_direct_check(self):
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
                key = prepend_one_profile(w.bits, n)
                assert key == max_ones(w.prepend(1))
                # the 1-prepend test is the key left unchanged on 1..n
                extends = extends_by_one(bits, n)
                assert extends == is_suffix_normal(Word(n + 1, bits | 1 << n))
                assert extends == (key[1 : n + 1] == suffix_ones(w)[1:])


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
        assert adjusted_lower_band(w) == F_HAT

    def test_adjustment_noop_when_symmetric(self):
        w, u = parse_word("0011"), parse_word("1001")
        assert adjusted_lower_band(w) == max_ones(u)

    def test_adjustment_preconditions(self):
        # 1001 is a least representative whose 1-prepend is not one
        with pytest.raises(ValueError, match="1001 does not extend"):
            adjusted_lower_band(parse_word("1001"))

    def test_refuses_every_word_that_is_not_an_extender(self):
        # the band's packed tests on w's first n-1 letters validate w, in the order and words of
        # the explicit checks: not suffix normal first, then not extending
        for fn in (adjusted_lower_band, candidate_collapsers, lower_band_word):
            for w in (Word(0, 0), Word(5, 0)):
                with pytest.raises(ValueError, match="^zero-weight words have no collapse band$"):
                    fn(w)
            with pytest.raises(ValueError, match="^0110 is not a least representative$"):
                fn(parse_word("0110"))
            for n in range(1, 11):
                for bits in range(1, 1 << n):
                    w = Word(n, bits)
                    if not is_suffix_normal(w):
                        message = f"^{w} is not a least representative$"
                    elif not extends_by_one(bits, n):
                        message = f"^{w} does not extend to a least representative$"
                    else:
                        fn(w)
                        continue
                    with pytest.raises(ValueError, match=message):
                        fn(w)

    def test_bottom_is_the_lifted_lower_band_word(self):
        # the definition: the profile of lower_band_word(w), raised by one wherever it is below
        # w's profile on one side of a mirror pair only; on every extender to n = 12, and on seeded
        # extenders of 120-130 letters, where the band's fields widen from one byte to two at 128
        # and the all-ones word's suffix counts pass 127
        extenders = [Word(n, bits) for n in range(1, 13) for bits in lr_level(n) if bits and extends_by_one(bits, n)]
        rng = random.Random(120)
        for n in range(120, 131):
            for density in (0.5, 0.5, 0.97, 1):
                w = least_representative(Word(n, int("".join("01"[rng.random() < density] for _ in range(n)), 2)))
                if not extends_by_one(w.bits, n):  # its class's extender, as `collapse_class` finds it
                    w = Word(n, least_representative(w.prepend(1)).bits ^ 1 << n)
                assert extends_by_one(w.bits, n)
                extenders.append(w)
        for w in extenders:
            n = len(w)
            fu, fw = max_ones(lower_band_word(w)), max_ones(w)
            lifts = [0, *(fu[i] != fw[i] and fu[n - i + 1] == fw[n - i + 1] for i in range(1, n + 1))]
            assert adjusted_lower_band(w) == tuple(map(add, fu, lifts)), w

    def test_level_forms_give_the_one_word_band(self):
        # the band engine reads each extender's g off the level's forms, the one-word callers off
        # max_ones; both give the same band, and a word that is not an extender is refused alike
        for n in range(1, 15):
            level = lr_level(n)
            for bits, form in zip(level, prefix_normal_forms(n - 1, (v >> 1 for v in level))):
                w = Word(n, bits)
                if not bits:
                    continue
                if not extends_by_one(bits, n):
                    with pytest.raises(ValueError, match=f"^{w} does not extend to a least representative$"):
                        collapse._collapsers(bits, n, form)
                    continue
                assert collapse._band(bits, n, form) == collapse._band(bits, n, collapse._head_form(w))
                assert collapse._collapsers(bits, n, form) == [v.bits for v in candidate_collapsers(w)]
        # 0110 is not suffix normal: g, the profile of 011, exceeds its suffix counts at 2
        with pytest.raises(ValueError, match="^0110 is not a least representative$"):
            collapse._collapsers(0b0110, 4, 0b110)

    def test_band_invariants(self):
        for n in range(1, 12):
            for w in enumerate_least_representatives(n):
                if w.bits == 0 or not extends_to_lr(w):
                    continue
                upper, lower = suffix_ones(w), adjusted_lower_band(w)
                assert all(lower[i] <= upper[i] for i in range(n + 1))
                assert lower[n] == upper[n]
                if n >= 1:
                    assert lower[1] == upper[1]
                diffs = {i for i in range(1, n + 1) if lower[i] != upper[i]}
                assert {n - i + 1 for i in diffs} == diffs
        # 101 collapses with 011 by lowering f(2), the middle of length 3
        assert [str(v) for v in candidate_collapsers(parse_word("011"))] == ["101"]

    def test_band_contains_all_collapser_profiles(self):
        for n in range(1, 12):
            by_sig = {}
            for w in enumerate_least_representatives(n):
                by_sig.setdefault(max_ones(w.prepend(1)), []).append(w)
            for members in by_sig.values():
                ext = members[0]
                if ext.bits == 0:
                    continue
                upper, lower = suffix_ones(ext), adjusted_lower_band(ext)
                for v in members:
                    fv = max_ones(v)
                    assert all(lower[i] <= fv[i] <= upper[i] for i in range(n + 1))


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
        with pytest.raises(ValueError, match="unknown engine"):
            collapse_classes(3, "nope")
        with pytest.raises(ValueError, match="unknown engine"):
            next(iter_collapse_classes(3, "nope"))

    def test_engines_and_oracle_agree(self):
        walks = zip(iter_collapse_classes(10, engine="brute"), iter_collapse_classes(10, engine="band"))
        for n, ((_, brute_walk), (_, band_walk)) in enumerate(walks):
            brute = [tuple(map(str, c.members)) for c in collapse_classes(n, engine="brute")]
            band = [tuple(map(str, c.members)) for c in collapse_classes(n, engine="band")]
            reference = [tuple(map(str, g)) for g in oracle.brute_collapse_partition(n)]
            assert brute == band == reference
            assert brute_walk == band_walk == collapse_classes(n)
        for n in range(14, 17):
            assert [c.packed for c in collapse_classes(n, "band")] == [c.packed for c in collapse_classes(n)]

    @pytest.mark.parametrize("engine", ["brute", "band"])
    def test_walk_over_lengths_reads_each_length(self, monkeypatch, engine):
        # the traced benchmark counts classes where `collapse.collapse_classes` is called
        calls = []
        direct = collapse.collapse_classes

        def counted(n, engine):
            calls.append((n, engine))
            return direct(n, engine)

        monkeypatch.setattr(collapse, "collapse_classes", counted)
        walked = list(iter_collapse_classes(6, engine))
        assert calls == [(n, engine) for n in range(7)]
        assert walked == [(n, direct(n, engine)) for n in range(7)]

    def test_band_engine_work(self, monkeypatch):
        # the extenders' bands come from the level's prefix normal forms, with no max_ones call; a
        # candidate is its extender with letters moved, its 1-prepend profile is read only when it
        # moves letters the extender has (314 candidates), and only a match is checked for suffix
        # normality (139 max_ones calls)
        calls = {max_ones: 0, prepend_one_profile: 0}

        def counted(f):
            def call(*args):
                calls[f] += 1
                return f(*args)

            return call

        for module in (words, normality, collapse):
            monkeypatch.setattr(module, "max_ones", counted(max_ones))
        monkeypatch.setattr(collapse, "prepend_one_profile", counted(prepend_one_profile))
        collapse_classes(12, "band")
        assert calls[max_ones] <= 139 and calls[prepend_one_profile] <= 314

    @pytest.mark.parametrize(
        "stray,message",
        [
            (lambda bits, n, form: [bits], "out-of-order collapser 0001"),
            # 1000 is not suffix normal, so the classes claim one word more than the level holds
            (lambda bits, n, form: [0b1000] if bits == 1 else [], "failed to cover"),
        ],
        ids=["not-above-the-extender", "outside-the-level"],
    )
    def test_band_engine_rejects_a_stray_candidate(self, monkeypatch, stray, message):
        monkeypatch.setattr(collapse, "_collapsers", stray)
        with pytest.raises(RuntimeError, match=message):
            collapse_classes(4, "band")

    def test_one_class_matches_partition(self):
        for n in range(0, 15):
            for cls in collapse_classes(n):
                for w in cls.members:
                    assert collapse_class(w) == cls.members

    def test_one_class_builds_no_level(self, monkeypatch):
        def no_level(*_):
            raise AssertionError("collapse_class built a level")

        for module in (collapse, normality):
            monkeypatch.setattr(module, "lr_level", no_level)
            monkeypatch.setattr(module, "prepend_one_groups", no_level)
        monkeypatch.setattr(normality, "iter_lr_levels", no_level)
        members = collapse_class(parse_word("111000010000011010010111"))
        assert ",".join(map(str, members)) == (
            "110100010000011010001111,110100100000011100001111,111000010000011010010111,111000100000011100010111"
        )

    def test_one_class_rejects_a_band_that_loses_the_word(self, monkeypatch):
        # 1001 is the non-extender of the class 0011,1001: a band without it must not pass as its class
        monkeypatch.setattr(collapse, "candidate_collapsers", lambda e: [])
        assert collapse_class(parse_word("0011")) == (parse_word("0011"),)
        with pytest.raises(RuntimeError, match="lost 1001"):
            collapse_class(parse_word("1001"))

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

    def test_rejects_anything_but_the_whole_level(self):
        level = list(enumerate_least_representatives(4))
        for bad in (
            [w for w in level if str(w) != "0011"],  # partial: 11001 would come out as if it were one
            [*level, parse_word("1000")],
            [*level, level[3]],
        ):
            with pytest.raises(ValueError, match="not the set of least representatives of length 4"):
                recursive_lr_step(bad)


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

    def test_match_definitions(self):
        for n in range(1, 13):
            for bits in range(1 << n):
                w = Word(n, bits)
                assert palindromic_distance(w) == sum(w[i] != w[n + 1 - i] for i in range(1, n // 2 + 1))
                pl = max(k for k in range(1, n + 1) if all(w[i] == w[k + 1 - i] for i in range(1, k + 1)))
                assert palindromic_prefix_length(w) == pl
        assert palindromic_distance(Word(0, 0)) == 0

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
        # the closed form (letter changes of 1·w) against the definition:
        # palindromic distance of w·w[n-1..1]·1, for every extender
        assert collapse_classes(0)[0].bound == 1
        for n in range(1, 15):
            for cls in collapse_classes(n):
                w = cls.extender
                if w.bits == 0:
                    assert cls.bound is None
                    continue
                pd = palindromic_distance(w + w.slice(1, n - 1).reverse().append(1))
                assert cls.bound == class_size_bound(w) == 1 << ((pd + 1) // 2)
                assert cls.size <= cls.bound


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
