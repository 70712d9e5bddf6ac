"""Command line interface.

Subcommands: sequence, verify, word, enumerate, collapse-classes,
bounds, jpm.  Sequences print CSV with an "n,value" header, structured
records print JSON lines, word reports print plain text.  Exit codes:
0 success, 1 verification counterexample, 2 usage error, 3 enumeration
limit exceeded, 4 internal error (a bug in pnlab; the traceback goes to
stderr).  PNLAB_MAX_N moves every cap but the oracle's.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback
from collections.abc import Callable, Sequence

from . import collapse, jpm, normality, oracle, palindromes, verify
from .limits import LimitExceededError, UsageError, check_length
from .words import (
    Word,
    max_ones,
    max_ones_sum,
    parse_word,
    prefix_ones,
    profile_text,
    reverse_progress,
    spelling,
    suffix_ones,
)

SEQUENCE_NAMES = ("pn-count", "npal", "collapse-classes", "max-class-size")
JOBS_HELP = "ignored: every command runs in one process"


# --- sequence ---------------------------------------------------------------


def cmd_sequence(args) -> int:
    n_max = args.n_max
    if args.oracle:
        # the oracle answers one length at a time, so its cap is checked here, before the header
        cap = oracle.BRUTE_COLLAPSE_LIMIT if args.name == "collapse-classes" else oracle.BRUTE_LIMIT
        check_length(n_max, cap, kind=f"brute {args.name}")
        brute = {
            "pn-count": lambda n: len(oracle.brute_class_partition(n)),
            "npal": lambda n: len(oracle.brute_prefix_normal_palindromes(n)),
            "collapse-classes": lambda n: len(oracle.brute_collapse_partition(n)),
            "max-class-size": lambda n: max(map(len, oracle.brute_class_partition(n).values())),
        }[args.name]
        rows = ((n, brute(n)) for n in range(n_max + 1))
    elif args.name == "pn-count":
        rows = enumerate(normality.count_least_representatives(n_max))
    elif args.name == "npal":
        rows = ((n, len(packed)) for n, packed in palindromes.iter_prefix_normal_palindromes(n_max))
    elif args.name == "collapse-classes":
        # lexsmall theorem: one member per class extends, except in the all-zeros class
        rows = ((m, kept + 1) for m, kept in enumerate(normality.count_one_prepends(n_max)))
    else:
        rows = ((p.n, max(c.size for c in p.classes.values())) for p in normality.iter_class_partitions(n_max))
    # row 0 is never printed; taking it runs a lazy walk's cap check, so an over-cap run prints nothing
    next(rows)
    print("n,value")
    for n, value in rows:
        print(f"{n},{value}")
    return 0


# --- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    checker, _ = verify.CHECKS[args.theorem]
    try:
        for line in checker.__wrapped__(args.n_max):
            print(line, flush=True)
    except verify.Counterexample as exc:
        print(exc)
        return 1
    return 0


# --- word -------------------------------------------------------------------

# the `word` field flags in report order, with their help; the full report leaves out `collapse`
_WORD_FLAGS = {
    "f": "max-ones profile: most 1s in a factor, per length",
    "p": "prefix-ones profile",
    "s": "suffix-ones profile",
    "fbar": "the max-ones profile's increments replayed backwards",
    "npf": "prefix normal form: the prefix normal member of the word's class",
    "lr": "least representative: the suffix normal member of the word's class",
    "pn": "is the word prefix normal",
    "sn": "is the word suffix normal, that is, a least representative",
    "pal": "is the word a palindrome",
    "pnpal": "is the word a prefix normal palindrome",
    "pd": "palindromic distance: letter flips that make the word a palindrome",
    "pl": "length of the longest palindromic prefix",
    "collapse": "whether a least representative's 1-prepend is one, and its collapse class",
}
_WORD_REPORT = ("word", "n", "weight", *list(_WORD_FLAGS)[:-1], "max_ones_sum")


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def cmd_word(args) -> int:
    w = parse_word(args.word)
    if args.oracle:
        f, p, s = oracle.brute_max_ones(w), oracle.brute_prefix_ones(w), oracle.brute_suffix_ones(w)
    else:
        f, p, s = max_ones(w), prefix_ones(w), suffix_ones(w)

    @functools.cache
    def canonical() -> tuple[Word, Word]:
        """npf and lr; the oracle finds both in one scan of w's class."""
        if args.oracle:
            members = oracle.brute_class_members(w)
            npf = next(m for m in members if oracle.brute_is_prefix_normal(m))
            return npf, next(m for m in members if oracle.brute_is_suffix_normal(m))
        npf = normality.profile_increments_word(f)
        return npf, npf.reverse()

    def pnpal() -> bool:
        if args.oracle:
            return palindromes.is_palindrome(w) and f == p
        return palindromes.is_prefix_normal_palindrome_by_profile(w)

    def collapse_info() -> str:
        if f != s:
            return "n/a (not a least representative)"
        if args.oracle:
            members = next(group for group in oracle.brute_collapse_partition(len(w)) if w in group)
            critical = not oracle.brute_is_suffix_normal(w.prepend(1))
        else:
            members = collapse.collapse_class(w)
            critical = collapse.extension_critical(w)
        return f"extension_critical={_bool_text(critical)} class={','.join(map(str, members))}"

    fields = {
        "word": lambda: str(w),
        "n": lambda: str(len(w)),
        "weight": lambda: str(w.weight()),
        "f": lambda: profile_text(f),
        "p": lambda: profile_text(p),
        "s": lambda: profile_text(s),
        "fbar": lambda: profile_text(reverse_progress(f)),
        "npf": lambda: str(canonical()[0]),
        "lr": lambda: str(canonical()[1]),
        "pn": lambda: _bool_text(f == p),
        "sn": lambda: _bool_text(f == s),
        "pal": lambda: _bool_text(palindromes.is_palindrome(w)),
        "pnpal": lambda: _bool_text(pnpal()),
        "pd": lambda: str(collapse.palindromic_distance(w)),
        "pl": lambda: str(collapse.palindromic_prefix_length(w)),
        "collapse": collapse_info,
        "max_ones_sum": lambda: str(max_ones_sum(f)),
    }
    selected = [key for key in _WORD_FLAGS if getattr(args, key)]
    if not (selected or w):
        fields["pl"] = lambda: "n/a"  # the empty word has no palindromic prefix: `--pl` is a usage error there
    # every value is computed before the first print, so an oracle over its cap prints nothing
    values = {key: fields[key]() for key in selected or _WORD_REPORT}
    if len(selected) == 1:
        print(values[selected[0]])
    else:
        print((" " if selected else "\n").join(f"{key}={value}" for key, value in values.items()))
    return 0


# --- line output ------------------------------------------------------------

_CHUNK_LINES = 4096  # lines per write: the text held at once stays small, whatever the level
# a JSON line is an f-string with the bytes of json.dumps: digits, commas, 0s and 1s need no escape


def _write_lines(items: Sequence, line: Callable[..., str]) -> None:
    """Write line(item) and a newline per item, one `sys.stdout.write` per chunk of lines."""
    for start in range(0, len(items), _CHUNK_LINES):
        sys.stdout.write("\n".join(map(line, items[start : start + _CHUNK_LINES])) + "\n")


# --- enumerate --------------------------------------------------------------


def cmd_enumerate(args) -> int:
    n = args.n
    spell = spelling(n)
    if args.classes:
        if args.oracle:
            groups = sorted(oracle.brute_class_partition(n).items())
            classes = [normality.PnClass(sig, max(members), min(members), len(members)) for sig, members in groups]
        else:
            classes = list(normality.class_partition(n))

        def record(cls: normality.PnClass) -> str:
            sig, npf, lr = profile_text(cls.signature), spell(cls.npf.bits), spell(cls.lr.bits)
            return f'{{"signature": "{sig}", "npf": "{npf}", "lr": "{lr}", "size": {cls.size}}}'

        _write_lines(classes, record)
        return 0
    # lines are spelled from packed ints: a `Word` and a `print` per line took longer than the walk
    if args.pnpals and args.oracle:
        level = [w.bits for w in oracle.brute_prefix_normal_palindromes(n)]
    elif args.pnpals:
        level = palindromes.enumerate_prefix_normal_palindromes(n).packed
    elif args.oracle:
        level = [w.bits for w in oracle.brute_least_representatives(n)]
    else:
        level = normality.lr_level(n)
    _write_lines(level, spell)  # `enumerate 0` prints one empty line: the empty word
    return 0


# --- collapse-classes -------------------------------------------------------


def cmd_collapse_classes(args) -> int:
    n = args.n
    if args.oracle:
        groups = oracle.brute_collapse_partition(n)
        classes = [collapse.CollapseClass(n, tuple(v.bits for v in group)) for group in groups]
    else:
        classes = collapse.collapse_classes(n)
    spell = spelling(n)

    def record(cls: collapse.CollapseClass) -> str:
        # no `Word` per member; at n = 0 the one class is the empty word, bound 1
        members = '", "'.join(map(spell, cls.packed))  # extender first
        bound = cls.bound  # None for the all-zeros class at n >= 1
        return (
            f'{{"extender": "{spell(cls.packed[0])}", "members": ["{members}"], '
            f'"size": {cls.size}, "bound": {"null" if bound is None else bound}}}'
        )

    _write_lines(classes, record)
    return 0


# --- bounds -----------------------------------------------------------------


def cmd_bounds(args) -> int:
    # every count is taken before the header, so an over-cap run prints nothing
    rows = list(verify.bounds_by_length(args.n_max))
    print("n,lower,actual,upper_palcol,upper_remark_paper,upper_remark_corrected,violations")
    for n, actual, b in rows:
        holds = {
            "lower": actual >= b.lower,
            "upper_palcol": actual <= b.upper_palcol,
            "upper_remark_paper": actual <= b.upper_remark_paper,
            "upper_remark_corrected": actual <= b.upper_remark_corrected,
        }
        violations = ";".join(name for name, ok in holds.items() if not ok)
        print(
            f"{n},{b.lower},{actual},{b.upper_palcol},{b.upper_remark_paper},"
            f"{b.upper_remark_corrected},{violations}"
        )
    return 0


# --- jpm --------------------------------------------------------------------


def _query_pair(text: str) -> tuple[int, int]:
    try:
        k_text, d_text = text.split(",")
        return int(k_text), int(d_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"query must be k,d with integers, got {text!r}") from None


def cmd_jpm(args) -> int:
    w = parse_word(args.word)
    k, d = args.query
    if args.oracle:
        hit = oracle.brute_jumbled_witness(w, k, d)
        print(f"yes (factor at position {hit})" if hit is not None else "no")
        return 0
    print("yes" if jpm.query(jpm.build_index(w), k, d) else "no")
    return 0


# --- parser -----------------------------------------------------------------


def length(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"length must be >= 0, got {n}")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `pnlab` parser, built once per process and reused by every `main` call.
    It binds the `cmd_*` functions and reads `verify.CHECKS` at that first build."""
    parser = argparse.ArgumentParser(
        prog="pnlab",
        description="Prefix normal binary words: profiles, canonical forms, "
        "palindromes, collapsing classes, jumbled pattern matching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("sequence", help="emit a counting sequence as CSV")
    p_seq.add_argument("name", choices=SEQUENCE_NAMES)
    p_seq.add_argument("n_max", type=length)
    p_seq.add_argument("--jobs", type=int, default=None, help=JOBS_HELP)
    p_seq.add_argument("--oracle", action="store_true", help="use the brute-force engine")
    p_seq.set_defaults(func=cmd_sequence)

    p_ver = sub.add_parser(
        "verify",
        help="run one named verification suite",
        epilog="suites:" + "".join(f"\n  {name:18} {text}" for name, (_, text) in sorted(verify.CHECKS.items())),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_ver.add_argument("theorem", choices=sorted(verify.CHECKS))
    p_ver.add_argument("n_max", type=length)
    p_ver.set_defaults(func=cmd_verify)

    p_word = sub.add_parser("word", help="report on a single word")
    p_word.add_argument("word")
    for key, text in _WORD_FLAGS.items():
        p_word.add_argument(f"--{key}", action="store_true", help=text)
    p_word.add_argument("--oracle", action="store_true", help="use the brute-force engine")
    p_word.set_defaults(func=cmd_word)

    p_enum = sub.add_parser("enumerate", help="stream least representatives of one length")
    p_enum.add_argument("n", type=length)
    kind = p_enum.add_mutually_exclusive_group()
    kind.add_argument("--pnpals", action="store_true", help="prefix normal palindromes instead")
    kind.add_argument("--classes", action="store_true", help="class partition as JSON lines")
    p_enum.add_argument("--jobs", type=int, default=None, help=JOBS_HELP)
    p_enum.add_argument("--oracle", action="store_true", help="use the brute-force engine")
    p_enum.set_defaults(func=cmd_enumerate)

    p_cc = sub.add_parser("collapse-classes", help="collapse classes as JSON lines")
    p_cc.add_argument("n", type=length)
    p_cc.add_argument("--jobs", type=int, default=None, help=JOBS_HELP)
    p_cc.add_argument("--oracle", action="store_true", help="use the brute-force engine")
    p_cc.set_defaults(func=cmd_collapse_classes)

    p_bounds = sub.add_parser("bounds", help="index bounds per length as CSV")
    p_bounds.add_argument("n_max", type=length)
    p_bounds.set_defaults(func=cmd_bounds)

    p_jpm = sub.add_parser("jpm", help="jumbled factor query: is there a length-k factor with d ones")
    p_jpm.add_argument("word")
    p_jpm.add_argument("--query", type=_query_pair, required=True, metavar="K,D", help="length k, ones count d")
    p_jpm.add_argument("--oracle", action="store_true", help="answer by factor scan, with witness")
    p_jpm.set_defaults(func=cmd_jpm)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left early (`| head`); devnull keeps the exit-time flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except LimitExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:  # WordParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
