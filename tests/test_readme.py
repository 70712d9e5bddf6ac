"""The README's CLI examples run, its Limits paragraph states the caps of `limits.py`, and its lists are complete."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

import pnlab
from pnlab import oracle, verify
from pnlab.cli import main
from pnlab.limits import max_palindrome_length, max_partition_length, max_word_length
from pnlab.normality import lr_level

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


# (argv, commented output) for each `pnlab ...` line of the CLI code block
EXAMPLES = [
    (shlex.split(command)[1:], comment.strip())
    for command, _, comment in (
        line.partition("#") for line in section("CLI").split("```")[1].splitlines() if line.startswith("pnlab ")
    )
]


def test_cli_block_is_found():
    assert len(EXAMPLES) >= 10
    assert (["word", "0011", "--collapse"], "extension_critical=false class=0011,1001") in EXAMPLES


@pytest.mark.parametrize("argv,comment", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_cli_example_runs(monkeypatch, argv, comment):
    monkeypatch.delenv("PNLAB_MAX_N", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue().splitlines()
    if argv == ["word", "0011", "--collapse"]:
        assert out.getvalue() == f"{comment}\n"


def test_limits_paragraph_matches_the_caps(monkeypatch):
    monkeypatch.delenv("PNLAB_MAX_N", raising=False)
    text = " ".join(section("Limits").split())
    assert f"capped at length {max_word_length()} by default" in text
    assert f"palindrome enumeration at {max_palindrome_length()}," in text
    assert f"words, at {max_partition_length()}." in text
    half = (max_palindrome_length() + 1) // 2
    assert f"palindrome of length {max_palindrome_length()} ends in a least representative of length {half}," in text
    assert f"tries the {len(lr_level(half))} least representatives of that length, not all `2^{half}` halves" in text
    assert f"`BRUTE_LIMIT` = {oracle.BRUTE_LIMIT}" in text
    assert f"`BRUTE_COLLAPSE_LIMIT` = {oracle.BRUTE_COLLAPSE_LIMIT}" in text
    assert f"`BRUTE_FACTOR_LIMIT` = {oracle.BRUTE_FACTOR_LIMIT}" in text
    assert f"one below the word cap, at {max_word_length() - 1} by default" in text


def test_layout_and_suite_lists_are_complete():
    layout = section("Layout").split("```")[1]
    modules = {path.name for path in Path(pnlab.__file__).parent.glob("*.py")} - {"__init__.py", "__main__.py"}
    assert set(re.findall(r"^  (\w+\.py) ", layout, re.M)) == modules
    suites = section("CLI").split("Verification suite names:", 1)[1].split("\n\n", 1)[0]
    assert sorted(re.findall(r"`([\w-]+)`", suites)) == sorted(verify.CHECKS)
