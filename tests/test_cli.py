import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pnlab
from pnlab.cli import main

SRC = str(Path(pnlab.__file__).resolve().parents[1])


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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

    def test_palupperbound_flags_but_passes(self):
        code, out, _ = run(["verify", "palupperbound", "10"])
        assert code == 0
        flagged = [line for line in out.splitlines() if line.startswith("FLAGGED")]
        assert [line.split()[1] for line in flagged] == ["n=2", "n=3", "n=4"]

    def test_unknown_theorem_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "nonsense", "5"])
        assert exc.value.code == 2


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

    def test_oracle_flag_matches(self):
        _, fast, _ = run(["word", "101101"])
        _, brute, _ = run(["word", "101101", "--oracle"])
        assert fast == brute

    def test_collapse_info(self):
        code, out, _ = run(["word", "0011", "--collapse"])
        assert code == 0
        assert out == "extension_critical=false class=0011,1001\n"

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

    def test_limit_exit_code(self):
        assert run(["enumerate", "40"])[0] == 3


class TestCollapseClasses:
    def test_jsonl(self):
        code, out, _ = run(["collapse-classes", "4"])
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 7
        merged = next(r for r in records if r["size"] == 2)
        assert merged == {"extender": "0011", "members": ["0011", "1001"], "size": 2, "bound": 2}
        zeros = next(r for r in records if r["extender"] == "0000")
        assert zeros["bound"] is None

    def test_band_engine_same_output(self):
        _, brute, _ = run(["collapse-classes", "9"])
        _, band, _ = run(["collapse-classes", "9", "--engine", "band"])
        assert brute == band

    def test_oracle_engine_same_output(self):
        _, fast, _ = run(["collapse-classes", "8"])
        _, brute, _ = run(["collapse-classes", "8", "--oracle"])
        assert fast == brute


class TestBounds:
    def test_csv(self):
        code, out, _ = run(["bounds", "5"])
        rows = out.splitlines()
        assert rows[0] == "n,lower,actual,upper_palcol,upper_remark_paper,upper_remark_corrected,violations"
        assert rows[1] == "2,5,5,6,4,5,upper_remark_paper"
        assert rows[3] == "4,11,14,29/2,13,14,upper_remark_paper"
        assert rows[4] == "5,17,23,23,23,24,"


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
        ],
    )
    def test_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    def test_non_integer_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["bounds", "x"])
        assert exc.value.code == 2


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


class TestEnvLimit:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("PNLAB_MAX_N", "5")
        assert run(["enumerate", "6"])[0] == 3
        assert run(["enumerate", "5"])[0] == 0
        monkeypatch.setenv("PNLAB_MAX_N", "12")
        assert run(["enumerate", "12"])[0] == 0

    def test_palindrome_cap_is_above_word_cap(self, monkeypatch):
        # the half-length levels are built under the palindrome cap, not the word cap of 0
        monkeypatch.setenv("PNLAB_MAX_N", "0")
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
