"""Drive every named verification suite at its intended depth."""

import pytest

from pnlab import verify
from pnlab.limits import LimitExceededError
from pnlab.verify import CHECKS


@pytest.mark.parametrize(
    "name,n_max",
    [
        ("palchar", 10),
        ("collapstheo", 11),
        ("collapsindex", 13),
        ("notpal", 14),
        ("symminf", 14),
        ("leastsuffix", 11),
        ("corlol", 11),
        ("falsecollapse", 12),
        ("smallsum", 12),
        ("lexsmall", 12),
        ("pchar", 14),
        ("ww-w0w-1ww1", 14),
        ("counting-identity", 15),
    ],
)
def test_suite_passes(name, n_max):
    report = CHECKS[name][0](n_max)
    assert report.name == name
    assert report.ok, report.counterexample
    assert report.lines
    assert all(line.startswith("PASS") for line in report.lines)


def test_palupperbound_flags_small_lengths_only():
    report = CHECKS["palupperbound"][0](14)
    assert report.ok
    flagged = {int(line.split()[1][2:]) for line in report.lines if line.startswith("FLAGGED")}
    assert flagged == {2, 3, 4}


def test_palcol_reports_the_known_failure():
    # the bracket's upper bound is arithmetically false from n = 6 on; the
    # suite must surface that instead of hiding it
    report = CHECKS["palcol"][0](14)
    assert not report.ok
    assert "n=6" in report.counterexample
    assert len([line for line in report.lines if line.startswith("PASS")]) == 4  # n = 2..5


def test_every_registered_check_has_a_description():
    for name, (checker, description) in CHECKS.items():
        assert callable(checker)
        assert description
    module_checks = {getattr(verify, name) for name in dir(verify) if name.startswith("check_")}
    assert module_checks == {checker for checker, _ in CHECKS.values()}


@pytest.mark.parametrize(
    "name,cap,kind",
    [
        ("smallsum", "0", "collapse partition"),
        ("lexsmall", "0", "collapse partition"),
        ("collapstheo", "0", "collapse partition"),
        ("collapsindex", "0", "collapse partition"),
        ("leastsuffix", "4", "partition"),
        ("corlol", "4", "partition"),
        ("palchar", "0", "palindrome test"),
    ],
)
def test_over_cap_suite_fails_before_any_work(monkeypatch, name, cap, kind):
    # each suite's walk checks n_max itself, not the first length past the cap
    monkeypatch.setenv("PNLAB_MAX_N", cap)
    with pytest.raises(LimitExceededError, match=f"^{kind} at length 7 exceeds the limit of 0$"):
        CHECKS[name][0](7)
