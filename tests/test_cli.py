import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import pnlab
from pnlab import collapse, normality, oracle, palindromes, verify
from pnlab.cli import SEQUENCE_NAMES, build_parser, main
from pnlab.limits import max_palindrome_length, max_partition_length, max_word_length
from pnlab.words import profile_text

SRC = str(Path(pnlab.__file__).resolve().parents[1])


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def written_lines(argv):
    """main(argv)'s stdout lines, and the number of lines in each write to stdout."""
    writes = []

    class Sink(io.StringIO):
        def write(self, text):
            writes.append(text.count("\n"))
            return super().write(text)

    out = Sink()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    lines = out.getvalue().split("\n")
    assert lines.pop() == ""
    return lines, writes


def outcome(argv):
    """Like run, with argparse's SystemExit read as the exit code it carries."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def commands():
    """The subcommand parsers of `pnlab`, by name."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def spawn(argv, **kwargs):
    """Start `python -m pnlab argv` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.Popen(
        [sys.executable, "-m", "pnlab", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kwargs,
    )


class TestSequence:
    def test_pn_count(self):
        code, out, _ = run(["sequence", "pn-count", "8"])
        assert code == 0
        assert out == "n,value\n1,2\n2,3\n3,5\n4,8\n5,14\n6,23\n7,41\n8,70\n"

    def test_npal(self):
        code, out, _ = run(["sequence", "npal", "8"])
        assert code == 0
        assert out == "n,value\n1,2\n2,2\n3,3\n4,3\n5,5\n6,4\n7,8\n8,7\n"

    def test_npal_zero_is_empty(self):
        code, out, _ = run(["sequence", "npal", "0"])
        assert code == 0
        assert out == "n,value\n"

    def test_collapse_classes_sequence(self):
        code, out, _ = run(["sequence", "collapse-classes", "4"])
        assert code == 0
        assert out == "n,value\n1,2\n2,3\n3,4\n4,7\n"
        # the CLI counts extenders plus one; check that against grouping by definition
        code, out, _ = run(["sequence", "collapse-classes", "14"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [int(n) for n, _ in rows] == list(range(1, 15))
        values = [int(v) for _, v in rows]
        assert values == [len(pnlab.collapse_classes(n, "brute")) for n in range(1, 15)]
        assert values[:10] == [len(pnlab.oracle.brute_collapse_partition(n)) for n in range(1, 11)]

    def test_max_class_size(self):
        code, out, _ = run(["sequence", "max-class-size", "4"])
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "n,value"
        assert rows[1] == "1,1" and rows[2] == "2,2"

    def test_max_class_size_matches_oracle(self):
        from pnlab import oracle

        _, out, _ = run(["sequence", "max-class-size", "9"])
        got = [int(row.split(",")[1]) for row in out.splitlines()[1:]]
        want = [
            max(len(m) for m in oracle.brute_class_partition(n).values())
            for n in range(1, 10)
        ]
        assert got == want

    def test_oracle_engine_agrees(self):
        _, fast, _ = run(["sequence", "pn-count", "8"])
        _, brute, _ = run(["sequence", "pn-count", "8", "--oracle"])
        assert fast == brute

    @pytest.mark.parametrize(
        "name,brute",
        [
            ("pn-count", "brute_class_partition"),
            ("npal", "brute_prefix_normal_palindromes"),
            ("collapse-classes", "brute_collapse_partition"),
            ("max-class-size", "brute_class_partition"),
        ],
    )
    def test_every_sequence_has_an_oracle(self, monkeypatch, name, brute):
        calls = []
        scan = getattr(oracle, brute)

        def counted(n):
            calls.append(n)
            return scan(n)

        monkeypatch.setattr(oracle, brute, counted)
        fast = run(["sequence", name, "10"])
        assert calls == []
        assert run(["sequence", name, "10", "--oracle"]) == fast
        assert calls == list(range(11))

    def test_unknown_name_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["sequence", "nonsense", "5"])
        assert exc.value.code == 2

    def test_limit_exceeded(self):
        code, _, err = run(["sequence", "pn-count", "99"])
        assert code == 3
        assert "limit" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pn-count", "30"],
            ["pn-count", "17", "--oracle"],
            ["npal", "40"],
            ["collapse-classes", "30"],
            ["max-class-size", "25"],
            ["npal", "17", "--oracle"],
            ["collapse-classes", "15", "--oracle"],
            ["max-class-size", "17", "--oracle"],
        ],
    )
    def test_over_cap_prints_nothing(self, argv):
        code, out, err = run(["sequence", *argv])
        assert code == 3
        assert out == ""
        assert "limit" in err


class TestVerify:
    def test_pass_path(self):
        code, out, _ = run(["verify", "leastsuffix", "8"])
        assert code == 0
        assert all(line.startswith("PASS n=") for line in out.splitlines())

    def test_counterexample_path(self):
        # the published palcol upper bound fails from n = 6 on, which makes
        # this the one honest exit-1 route
        code, out, _ = run(["verify", "palcol", "8"])
        assert code == 1
        assert "counterexample" in out.splitlines()[-1]
        assert "n=6" in out.splitlines()[-1]

    def test_failing_suite_path(self, monkeypatch):
        # flip the profile test on one word, so that palchar finds a disagreement
        profile_test = verify.is_prefix_normal_palindrome_by_profile
        monkeypatch.setattr(
            verify, "is_prefix_normal_palindrome_by_profile", lambda w: profile_test(w) != (str(w) == "1001")
        )
        code, out, _ = run(["verify", "palchar", "4"])
        assert code == 1
        assert out.splitlines() == [
            *(f"PASS n={n} words={1 << n} (exhaustive)" for n in range(4)),
            "counterexample 1001 (definition and profile test disagree)",
        ]

    def test_lines_stream(self, monkeypatch):
        # the patched profile test looks at stdout when palchar reaches its first 1-letter word
        printed_before_n1 = []
        profile_test = verify.is_prefix_normal_palindrome_by_profile

        def spy(w):
            if len(w) == 1 and not printed_before_n1:
                printed_before_n1.append("PASS n=0" in out.getvalue())
            return profile_test(w)

        monkeypatch.setattr(verify, "is_prefix_normal_palindrome_by_profile", spy)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["verify", "palchar", "2"]) == 0
        assert printed_before_n1 == [True]
        assert out.getvalue().splitlines() == [f"PASS n={n} words={1 << n} (exhaustive)" for n in range(3)]

    def test_palupperbound_flags_but_passes(self):
        code, out, _ = run(["verify", "palupperbound", "10"])
        assert code == 0
        flagged = [line for line in out.splitlines() if line.startswith("FLAGGED")]
        assert [line.split()[1] for line in flagged] == ["n=2", "n=3", "n=4"]

    def test_unknown_theorem_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "nonsense", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "name,n_max",
        [
            *((name, 0) for name in (
                "collapsindex", "collapstheo", "counting-identity", "falsecollapse", "lexsmall",
                "notpal", "palcol", "palupperbound", "smallsum", "ww-w0w-1ww1",
            )),
            ("palcol", 1),
            ("palupperbound", 1),
        ],
    )
    def test_nothing_to_check_is_usage_error(self, name, n_max):
        # a report with no line checked nothing: it neither passes nor prints
        code, out, err = run(["verify", name, str(n_max)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith(f" up to length {n_max}\n") and err.count("\n") == 1
        with pytest.raises(pnlab.UsageError):
            verify.CHECKS[name][0](n_max)


class TestWord:
    def test_profile_pair(self):
        code, out, _ = run(["word", "11011", "--f", "--fbar"])
        assert code == 0
        assert out == "f=1,2,2,3,4 fbar=4,3,2,2,1\n"

    def test_single_flag_prints_bare_value(self):
        assert run(["word", "101101", "--npf"])[1] == "110101\n"
        assert run(["word", "1101", "--pl"])[1] == "2\n"
        assert run(["word", "110101", "--lr"])[1] == "101011\n"
        assert run(["word", "110011001", "--pd"])[1] == "2\n"

    def test_full_report(self):
        code, out, _ = run(["word", "110101"])
        assert code == 0
        report = dict(line.split("=", 1) for line in out.splitlines())
        assert report["word"] == "110101"
        assert report["pn"] == "true"
        assert report["sn"] == "false"
        assert report["s"] == "1,1,2,2,3,4"
        assert report["pnpal"] == "false"
        code, out, _ = run(["word", ""])
        assert code == 0
        report = dict(line.split("=", 1) for line in out.splitlines())
        assert (report["n"], report["pd"], report["pl"]) == ("0", "0", "n/a")
        # alone, the empty word's missing palindromic prefix is a usage error
        code, out, err = run(["word", "", "--pl"])
        assert (code, out) == (2, "") and "empty word" in err

    def test_oracle_flag_matches(self):
        _, fast, _ = run(["word", "101101"])
        _, brute, _ = run(["word", "101101", "--oracle"])
        assert fast == brute

    def test_oracle_factor_scan_cap(self, monkeypatch):
        # the oracle's factor scan is cubic, so it has a fixed cap, which PNLAB_MAX_N does not move
        monkeypatch.setenv("PNLAB_MAX_N", "300")
        cap = oracle.BRUTE_FACTOR_LIMIT
        word = ("1101100" * cap)[:cap]
        code, out, _ = run(["word", word, "--f", "--oracle"])
        assert (code, out) == run(["word", word, "--f"])[:2]
        code, out, err = run(["word", word + "1", "--f", "--oracle"])
        assert (code, out) == (3, "") and f"exceeds the limit of {cap}" in err

    def test_collapse_info(self):
        code, out, _ = run(["word", "0011", "--collapse"])
        assert code == 0
        assert out == "extension_critical=false class=0011,1001\n"
        # the empty word's class is itself, printed as the empty string like its word=
        assert run(["word", "", "--collapse"]) == (0, "extension_critical=false class=\n", "")
        assert run(["word", "0110", "--collapse"]) == (0, "n/a (not a least representative)\n", "")

    def test_collapse_oracle_matches(self):
        for n in range(0, 9):
            for w in pnlab.enumerate_least_representatives(n):
                line = run(["word", str(w), "--collapse"])
                assert run(["word", str(w), "--collapse", "--oracle"]) == line, w
                assert line[1].startswith("extension_critical=")
        # the oracle groups all least representatives of 15 letters: one over BRUTE_COLLAPSE_LIMIT
        code, out, err = run(["word", "000000000000001", "--collapse", "--oracle"])
        assert (code, out) == (3, "") and "exceeds the limit of 14" in err
        not_lr = "n/a (not a least representative)\n"
        assert run(["word", "100000000000000", "--collapse", "--oracle"]) == (0, not_lr, "")

    def test_collapse_matches_collapse_classes(self):
        for n in range(0, 11):
            for cls in pnlab.collapse_classes(n):
                members = ",".join(map(str, cls.members))
                for w in cls.members:
                    critical = "true" if pnlab.extension_critical(w) else "false"
                    expected = f"extension_critical={critical} class={members}\n"
                    assert run(["word", str(w), "--collapse"]) == (0, expected, ""), w

    def test_oracle_class_scan_runs_once(self, monkeypatch):
        brute_class_members = oracle.brute_class_members
        calls = []

        def counted(w):
            calls.append(w)
            return brute_class_members(w)

        monkeypatch.setattr(oracle, "brute_class_members", counted)
        _, brute, _ = run(["word", "1101101", "--oracle"])
        assert len(calls) == 1
        assert brute == run(["word", "1101101"])[1]
        run(["word", "1101101", "--f", "--oracle"])
        assert len(calls) == 1

    def test_oracle_class_scan_cap(self):
        long_word = "10110111011101110"  # 17 letters, one over oracle.BRUTE_LIMIT
        for flags in ([], ["--lr"], ["--npf"], ["--f", "--lr"]):
            code, out, err = run(["word", long_word, "--oracle", *flags])
            assert (code, out) == (3, ""), flags
            assert "limit" in err
        code, out, _ = run(["word", long_word, "--f", "--oracle"])
        assert code == 0
        assert out == f"{pnlab.profile_text(pnlab.max_ones(pnlab.parse_word(long_word)))}\n"

    def test_parse_error_exit_code(self):
        code, _, err = run(["word", "01021"])
        assert code == 2
        assert "position 4" in err


class TestEnumerate:
    def test_stream(self):
        code, out, _ = run(["enumerate", "3"])
        assert code == 0
        assert out.splitlines() == ["000", "001", "011", "101", "111"]

    def test_oracle_agrees(self):
        _, fast, _ = run(["enumerate", "9"])
        _, brute, _ = run(["enumerate", "9", "--oracle"])
        assert fast == brute

    def test_pnpals(self):
        code, out, _ = run(["enumerate", "5", "--pnpals"])
        assert out.splitlines() == ["00000", "10001", "10101", "11011", "11111"]

    def test_pnpals_oracle_agrees(self):
        for n in (5, 9):
            _, fast, _ = run(["enumerate", str(n), "--pnpals"])
            _, brute, _ = run(["enumerate", str(n), "--pnpals", "--oracle"])
            assert fast == brute

    def test_classes_oracle_agrees(self):
        _, fast, _ = run(["enumerate", "7", "--classes"])
        _, brute, _ = run(["enumerate", "7", "--classes", "--oracle"])
        assert fast == brute

    def test_classes_jsonl(self):
        code, out, _ = run(["enumerate", "4", "--classes"])
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 8
        assert sum(r["size"] for r in records) == 16
        by_sig = {r["signature"]: r for r in records}
        assert by_sig["1,2,2,2"]["npf"] == "1100"
        assert by_sig["1,2,2,2"]["lr"] == "0011"

    def test_jsonl_shape(self):
        lines = run(["enumerate", "3", "--classes"])[1].splitlines()
        assert len(lines) == 5
        first = json.loads(lines[0])
        assert set(first) == {"signature", "npf", "lr", "size"}

    def test_limit_exit_code(self):
        assert run(["enumerate", "40"])[0] == 3

    def test_lines_are_the_words(self):
        # the CLI spells packed ints itself; the library's `Word`s are the reference
        for n in range(15):
            expected = "".join(f"{w}\n" for w in normality.enumerate_least_representatives(n))
            assert run(["enumerate", str(n)]) == (0, expected, "")

    def test_pnpal_lines_are_the_words(self):
        for n in range(21):
            expected = "".join(f"{w}\n" for w in palindromes.enumerate_prefix_normal_palindromes(n).words)
            assert run(["enumerate", str(n), "--pnpals"]) == (0, expected, "")

    def test_output_crosses_chunks(self):
        # 7568 lines: two writes, a full chunk of 4096 lines and the rest
        lines, writes = written_lines(["enumerate", "16"])
        level = normality.lr_level(16)
        assert len(lines) == sum(writes) == normality.count_least_representatives(16)[16]
        assert lines[0] == f"{min(level):016b}" and lines[-1] == f"{max(level):016b}"
        assert writes == [4096, len(lines) - 4096]

    def test_classes_cross_chunks(self):
        # one record per class of length 16 in signature order, the bytes json.dumps gives, in two writes
        lines, writes = written_lines(["enumerate", "16", "--classes"])
        records = [
            {"signature": profile_text(cls.signature), "npf": str(cls.npf), "lr": str(cls.lr), "size": cls.size}
            for cls in normality.class_partition(16)
        ]
        assert [json.loads(line) for line in lines] == records
        assert lines == [json.dumps(record) for record in records]
        assert writes == [4096, 3472]


class TestCollapseClasses:
    def test_jsonl(self):
        code, out, _ = run(["collapse-classes", "4"])
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 7
        merged = next(r for r in records if r["size"] == 2)
        assert merged == {"extender": "0011", "members": ["0011", "1001"], "size": 2, "bound": 2}
        zeros = next(r for r in records if r["extender"] == "0000")
        assert zeros["bound"] is None

    def test_records_are_the_classes(self):
        for n in range(13):
            code, out, _ = run(["collapse-classes", str(n)])
            assert code == 0
            records = [json.loads(line) for line in out.splitlines()]
            classes = collapse.collapse_classes(n)
            assert [(r["extender"], r["members"], r["size"], r["bound"]) for r in records] == [
                (str(cls.extender), list(map(str, cls.members)), cls.size, cls.bound) for cls in classes
            ]

    def test_oracle_engine_same_output(self):
        _, fast, _ = run(["collapse-classes", "8"])
        _, brute, _ = run(["collapse-classes", "8", "--oracle"])
        assert fast == brute

    def test_band_search_counts_match_the_sequence(self):
        # `verify collapstheo` is the CLI's route to the band search; its class counts must be
        # the kept 1-prepends plus one that `sequence collapse-classes` prints (lexsmall theorem)
        code, out, _ = run(["verify", "collapstheo", "12"])
        assert code == 0
        band = [line.removeprefix("PASS n=").replace(" classes=", ",") for line in out.splitlines()]
        code, out, _ = run(["sequence", "collapse-classes", "12"])
        assert code == 0
        assert band == out.splitlines()[1:]
        assert [int(row.split(",")[0]) for row in band] == list(range(1, 13))


class TestLengthZero:
    # the empty word is one line of no letters, where format(0, "00b") would spell "0"
    EMPTY_CLASS = '{"extender": "", "members": [""], "size": 1, "bound": 1}\n'
    EMPTY_PROFILE_CLASS = '{"signature": "", "npf": "", "lr": "", "size": 1}\n'

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["enumerate", "0"], "\n"),
            (["enumerate", "0", "--pnpals"], "\n"),
            (["enumerate", "0", "--oracle"], "\n"),
            (["collapse-classes", "0"], EMPTY_CLASS),
            (["collapse-classes", "0", "--oracle"], EMPTY_CLASS),
            (["enumerate", "0", "--classes"], EMPTY_PROFILE_CLASS),
            (["enumerate", "0", "--classes", "--oracle"], EMPTY_PROFILE_CLASS),
        ],
    )
    def test_stdout(self, argv, out):
        assert run(argv) == (0, out, "")


class TestBounds:
    def test_csv(self):
        code, out, _ = run(["bounds", "5"])
        rows = out.splitlines()
        assert rows[0] == "n,lower,actual,upper_palcol,upper_remark_paper,upper_remark_corrected,violations"
        assert rows[1] == "2,5,5,6,4,5,upper_remark_paper"
        assert rows[3] == "4,11,14,29/2,13,14,upper_remark_paper"
        assert rows[4] == "5,17,23,23,23,24,"

    @pytest.mark.parametrize("n_max", [0, 1])
    def test_no_rows_is_usage_error(self, n_max):
        # the first row is n = 2, so a shorter table would be its header alone
        code, out, err = run(["bounds", str(n_max)])
        assert (code, out) == (2, "")
        assert err == f"error: index bounds start at length 2, so there are none up to length {n_max}\n"

    def test_over_cap_prints_nothing(self, monkeypatch):
        # the class counts are read at n_max + 1, so the table stops one below the word cap
        monkeypatch.setenv("PNLAB_MAX_N", "6")
        assert run(["bounds", "5"])[0] == 0
        code, out, err = run(["bounds", "6"])
        assert (code, out) == (3, "")
        assert "length 7 exceeds the limit of 6" in err


class TestJpm:
    def test_yes_no(self):
        assert run(["jpm", "110101", "--query", "2,2"])[1] == "yes\n"
        assert run(["jpm", "110101", "--query", "3,0"])[1] == "no\n"

    def test_oracle_witness(self):
        assert run(["jpm", "110101", "--query", "3,2", "--oracle"])[1] == "yes (factor at position 1)\n"
        assert run(["jpm", "110101", "--query", "3,0", "--oracle"])[1] == "no\n"

    def test_out_of_range(self):
        code, _, err = run(["jpm", "1101", "--query", "9,1"])
        assert code == 2

    @pytest.mark.parametrize("oracle_flag", [[], ["--oracle"]])
    @pytest.mark.parametrize("query", ["1,5", "1,-1"])
    def test_ones_count_outside_the_factor_is_no(self, oracle_flag, query):
        # k indexes the envelopes, so only k is range-checked; no factor holds d ones outside 0..k
        assert run(["jpm", "101", "--query", query, *oracle_flag]) == (0, "no\n", "")

    def test_internal_error_is_not_a_usage_error(self, monkeypatch):
        # a plain ValueError from inside pnlab is a bug, reported with its traceback
        def broken(w):
            raise ValueError("broken index")

        monkeypatch.setattr(pnlab.jpm, "build_index", broken)
        code, out, err = run(["jpm", "1101", "--query", "2,1"])
        assert (code, out) == (4, "")
        assert err.startswith("internal error:\n")
        assert "Traceback" in err and "ValueError: broken index" in err

    def test_malformed_query(self):
        with pytest.raises(SystemExit) as exc:
            run(["jpm", "1101", "--query", "nope"])
        assert exc.value.code == 2


class TestNegativeLength:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sequence", "pn-count", "-3"],
            ["verify", "palchar", "-2"],
            ["enumerate", "-1"],
            ["collapse-classes", "-1"],
            ["bounds", "-1"],
            ["enumerate", "3", "--pnpals", "--classes"],
            ["collapse-classes", "3", "--engine", "band"],
        ],
    )
    def test_usage_error(self, argv):
        code, out, _ = outcome(argv)
        assert (code, out) == (2, "")

    def test_non_integer_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["bounds", "x"])
        assert exc.value.code == 2


def test_every_option_has_help():
    # a lint: `pnlab <command> --help` explains every flag it lists
    bare = [
        f"{name} {action.option_strings[-1]}"
        for name, parser in commands().items()
        for action in parser._actions
        if action.option_strings and not action.help
    ]
    assert bare == []
    # the band search is a library engine, reached from the CLI through `verify collapstheo`
    assert "--engine" not in commands()["collapse-classes"]._option_string_actions


class TestParser:
    def test_built_once_per_process(self, monkeypatch):
        assert build_parser() is build_parser()
        run(["sequence", "pn-count", "3"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run(["sequence", "pn-count", "3"]) == (0, "n,value\n1,2\n2,3\n3,5\n", "")
        assert built == []

    def test_failed_calls_leave_the_next_one_as_if_alone(self):
        # the usage error trips the mutually exclusive group that the last command uses
        with spawn(["enumerate", "5", "--classes"]) as proc:
            alone, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert outcome(["enumerate", "3", "--pnpals", "--classes"])[:2] == (2, "")
        assert outcome(["sequence", "pn-count", "99"])[:2] == (3, "")
        assert outcome(["verify", "palcol", "8"])[0] == 1
        assert outcome(["enumerate", "5", "--classes"]) == (0, alone, "")


class TestProcess:
    def test_python_m_runs_the_cli(self):
        with spawn(["sequence", "pn-count", "3"]) as proc:
            out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert out == "n,value\n1,2\n2,3\n3,5\n"

    def test_closed_pipe_exits_quietly(self):
        # enumerate 18 prints far more than a pipe buffer holds, so the
        # writer is still running when the reader goes away
        with spawn(["enumerate", "18"]) as proc:
            assert proc.stdout.readline() == "000000000000000000\n"
            assert proc.stdout.readline() == "000000000000000001\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert err == ""

    def test_closed_pipe_exits_quietly_from_json_lines(self):
        # collapse-classes 18 writes 21 915 records, about 2 MB, in chunks of lines
        with spawn(["collapse-classes", "18"]) as proc:
            assert json.loads(proc.stdout.readline())["extender"] == "000000000000000000"
            assert json.loads(proc.stdout.readline())["extender"] == "000000000000000001"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert err == ""


class TestJobs:
    @pytest.mark.parametrize(
        "argv", [["sequence", "pn-count", "12"], ["sequence", "collapse-classes", "12"], ["enumerate", "12"]]
    )
    def test_output_ignores_jobs(self, argv):
        # --jobs is accepted and ignored, zero and negative values too
        plain = run(argv)
        assert plain[0] == 0 and plain[1]
        for jobs in ("0", "-2"):
            assert run([*argv, "--jobs", jobs]) == plain


class TestEnvLimit:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("PNLAB_MAX_N", "5")
        assert run(["enumerate", "6"])[0] == 3
        assert run(["enumerate", "5"])[0] == 0
        monkeypatch.setenv("PNLAB_MAX_N", "12")
        assert run(["enumerate", "12"])[0] == 0

    def test_palindrome_cap_is_above_word_cap(self, monkeypatch):
        # palindrome cap min(5 + 10, 2 * 5) = 10: the half levels, of length 5 at most, fit the word cap
        monkeypatch.setenv("PNLAB_MAX_N", "5")
        assert run(["sequence", "npal", "10"]) == (
            0, "n,value\n1,2\n2,2\n3,3\n4,3\n5,5\n6,4\n7,8\n8,7\n9,12\n10,11\n", ""
        )
        code, out, _ = run(["enumerate", "10", "--pnpals"])
        assert code == 0
        assert out.split() == [
            "0000000000", "1000000001", "1001001001", "1010000101", "1100000011", "1100110011",
            "1101001011", "1110000111", "1110110111", "1111001111", "1111111111",
        ]
        code, out, err = run(["sequence", "npal", "11"])
        assert code == 3 and out == "" and "limit of 10" in err

    @pytest.mark.parametrize(
        "argv,cap",
        [
            pytest.param(["enumerate", "17", "--oracle"], 16, id="enumerate"),
            pytest.param(["enumerate", "17", "--pnpals", "--oracle"], 16, id="enumerate-pnpals"),
            pytest.param(["enumerate", "17", "--classes", "--oracle"], 16, id="enumerate-classes"),
            pytest.param(["word", "10110111011101110", "--oracle"], 16, id="word"),
            pytest.param(["sequence", "pn-count", "17", "--oracle"], 16, id="sequence-pn-count"),
            pytest.param(["collapse-classes", "15", "--oracle"], 14, id="collapse-classes"),
        ],
    )
    def test_oracle_caps(self, monkeypatch, argv, cap):
        # the oracle's caps are fixed constants, which PNLAB_MAX_N does not move
        monkeypatch.setenv("PNLAB_MAX_N", "30")
        code, out, err = run(argv)
        assert (code, out) == (3, "")
        assert f"exceeds the limit of {cap}" in err

    def test_partition_cap(self, monkeypatch):
        monkeypatch.setenv("PNLAB_MAX_N", "8")
        for argv in (["enumerate", "5", "--classes"], ["sequence", "max-class-size", "5"]):
            code, out, err = run(argv)
            assert code == 3 and out == "", argv
            assert "limit of 4" in err
        assert run(["enumerate", "4", "--classes"])[0] == 0
        assert run(["sequence", "max-class-size", "4"])[0] == 0

    def test_negative_cap_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("PNLAB_MAX_N", "-5")
        code, _, err = run(["enumerate", "3"])
        assert code == 2
        assert "PNLAB_MAX_N" in err


class TestContract:
    """The CLI contract on seeded, generated command lines (README: exit codes, caps, --oracle, --jobs)."""

    SUITES = sorted(verify.CHECKS)
    FLAGS = [a.option_strings[0] for a in commands()["word"]._actions if a.dest not in ("help", "word", "oracle")]

    @staticmethod
    def word(rng, n):
        letters = [rng.choice("01") for _ in range(n)]
        if rng.random() < 0.15:
            letters.insert(rng.randint(0, n), rng.choice("2a "))
        return "".join(letters)

    def draw(self, rng, monkeypatch):
        """Set PNLAB_MAX_N and return an argv and its length (for `word`, the word's)."""
        env = rng.choice([*map(str, range(10)), "x", "-1", None])
        if env is None:
            monkeypatch.delenv("PNLAB_MAX_N", raising=False)
        else:
            monkeypatch.setenv("PNLAB_MAX_N", env)
        if env is not None and env.isdecimal():
            caps = {max_word_length() - 1, max_word_length(), max_palindrome_length(), max_partition_length()}
            lengths = [-1, 0, *(cap + step for cap in caps for step in (-1, 0, 1))]
        else:
            # a run at a default cap (24, 34, 20) takes seconds, so only lengths that do no work: 35 is over them all
            lengths = [-1, 0, 35]
        n = rng.choice(lengths)
        command = rng.choice(["sequence", "verify", "word", "enumerate", "collapse-classes", "bounds", "jpm"])
        if command == "sequence":
            return ["sequence", rng.choice(SEQUENCE_NAMES), str(n)], n
        if command == "verify":
            return ["verify", rng.choice(self.SUITES), str(n)], n
        if command == "enumerate":
            return ["enumerate", str(n), *rng.choice([[], ["--pnpals"], ["--classes"]])], n
        if command == "collapse-classes":
            return ["collapse-classes", str(n), *rng.choice([[], [], ["--engine", "band"]])], n
        if command == "bounds":
            return ["bounds", str(n)], n
        if command == "jpm":
            w = self.word(rng, rng.randint(0, 10))
            k = rng.randint(-1, len(w) + 1)
            return ["jpm", w, "--query", f"{k},{rng.randint(-1, k + 1)}"], len(w)
        n = rng.choice([rng.randint(0, 10), rng.randint(257, 300)])
        return ["word", self.word(rng, n), *rng.sample(self.FLAGS, rng.choice([0, 1, 2]))], n

    @staticmethod
    def check(argv):
        code, out, err = outcome(argv)
        assert code in (0, 1, 2, 3), (argv, err)
        if code in (2, 3):
            assert out == "" and "error:" in err.splitlines()[-1], (argv, out, err)
        if code == 0:
            assert err == "", (argv, err)
        return code, out, err

    def test_generated_command_lines(self, monkeypatch):
        rng = random.Random(18)
        for _ in range(300):
            argv, n = self.draw(rng, monkeypatch)
            code, out, err = self.check(argv)
            if argv[0] in ("sequence", "enumerate", "collapse-classes"):
                assert outcome([*argv, "--jobs", str(rng.randint(-3, 8))]) == (code, out, err), argv
            if argv[0] in ("sequence", "enumerate", "collapse-classes", "word"):
                # the oracle runs where it is cheap: short enough to agree, or over its caps (14, 16 and 256)
                if code == 0 and n <= 10:
                    assert self.check([*argv, "--oracle"]) == (0, out, ""), argv
                elif n > oracle.BRUTE_LIMIT:
                    self.check([*argv, "--oracle"])
