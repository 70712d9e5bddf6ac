"""Command line interface.

Subcommands: sequence, verify, word, enumerate, collapse-classes,
bounds, jpm.  Sequences print CSV with an "n,value" header, structured
records print JSON lines, word reports print plain text.  Exit codes:
0 success, 1 verification counterexample, 2 usage error, 3 enumeration
limit exceeded.  PNLAB_MAX_N overrides the enumeration limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import collapse, jpm, normality, oracle, palindromes, verify
from .limits import LimitExceededError, check_length, max_palindrome_length, max_partition_length
from .words import (
    Word,
    max_ones,
    max_ones_sum,
    parse_word,
    prefix_ones,
    profile_text,
    reverse_progress,
    suffix_ones,
)

SEQUENCE_NAMES = ("pn-count", "npal", "collapse-classes", "max-class-size")
JOBS_HELP = "ignored: every command runs in one process"


# --- sequence ---------------------------------------------------------------


def cmd_sequence(args) -> int:
    n_max = args.n_max
    # an over-cap run prints nothing, not a header with no rows
    if args.name == "npal":
        check_length(n_max, max_palindrome_length(), kind="palindrome enumeration")
    elif args.name == "pn-count" and args.oracle:
        check_length(n_max, 16, kind="brute partition")
    elif args.name == "max-class-size":
        check_length(n_max, max_partition_length(), kind="partition")
    else:
        check_length(n_max)
    print("n,value")
    if args.name == "pn-count":
        if args.oracle:
            for n in range(1, n_max + 1):
                print(f"{n},{len(oracle.brute_class_partition(n))}")
        else:
            for m, level in normality.iter_lr_levels(n_max):
                if m >= 1:
                    print(f"{m},{len(level)}")
    elif args.name == "npal":
        for n in range(1, n_max + 1):
            print(f"{n},{palindromes.count_prefix_normal_palindromes(n)}")
    elif args.name == "collapse-classes":
        for m, level in normality.iter_lr_levels(n_max):
            if m >= 1:
                groups = {collapse.prepend_one_profile(bits, m) for bits in level}
                print(f"{m},{len(groups)}")
    elif args.name == "max-class-size":
        for n in range(1, n_max + 1):
            part = normality.class_partition(n)
            print(f"{n},{max(cls.size for cls in part)}")
    return 0


# --- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    checker, _ = verify.CHECKS[args.theorem]
    report = checker(args.n_max)
    for line in report.lines:
        print(line)
    if not report.ok:
        print(report.counterexample)
        return 1
    return 0


# --- word -------------------------------------------------------------------

_WORD_FIELDS = ("f", "p", "s", "fbar", "npf", "lr", "pn", "sn", "pal", "pnpal", "pd", "pl")


def _word_value(w: Word, key: str, use_oracle: bool) -> str:
    if use_oracle:
        f = oracle.brute_max_ones(w)
        p = oracle.brute_prefix_ones(w)
        s = oracle.brute_suffix_ones(w)
    else:
        f = max_ones(w)
        p = prefix_ones(w)
        s = suffix_ones(w)
    if key == "f":
        return profile_text(f)
    if key == "p":
        return profile_text(p)
    if key == "s":
        return profile_text(s)
    if key == "fbar":
        return profile_text(reverse_progress(f))
    if key == "npf":
        if use_oracle:
            members = oracle.brute_class_members(w)
            return str(next(m for m in members if oracle.brute_is_prefix_normal(m)))
        return str(normality.prefix_normal_form(w))
    if key == "lr":
        if use_oracle:
            members = oracle.brute_class_members(w)
            return str(next(m for m in members if oracle.brute_is_suffix_normal(m)))
        return str(normality.least_representative(w))
    if key == "pn":
        ok = oracle.brute_is_prefix_normal(w) if use_oracle else (f == p)
        return "true" if ok else "false"
    if key == "sn":
        ok = oracle.brute_is_suffix_normal(w) if use_oracle else (f == s)
        return "true" if ok else "false"
    if key == "pal":
        return "true" if palindromes.is_palindrome(w) else "false"
    if key == "pnpal":
        if use_oracle:
            ok = palindromes.is_palindrome(w) and oracle.brute_is_prefix_normal(w)
        else:
            ok = palindromes.is_prefix_normal_palindrome_by_profile(w)
        return "true" if ok else "false"
    if key == "pd":
        return str(collapse.palindromic_distance(w))
    if key == "pl":
        return str(collapse.palindromic_prefix_length(w))
    raise AssertionError(key)


def cmd_word(args) -> int:
    w = parse_word(args.word)
    selected = [key for key in _WORD_FIELDS if getattr(args, key)]
    if args.collapse:
        selected.append("collapse")

    def value_of(key: str) -> str:
        if key != "collapse":
            return _word_value(w, key, args.oracle)
        if not normality.is_suffix_normal(w):
            return "n/a (not a least representative)"
        critical = collapse.extension_critical(w)
        cls = next(c for c in collapse.collapse_classes(len(w)) if w in c.members)
        return f"extension_critical={'true' if critical else 'false'} class={','.join(map(str, cls.members))}"

    if len(selected) == 1:
        print(value_of(selected[0]))
    elif selected:
        print(" ".join(f"{key}={value_of(key)}" for key in selected))
    else:
        print(f"word={w}")
        print(f"n={len(w)}")
        print(f"weight={w.weight()}")
        for key in _WORD_FIELDS:
            if key == "pl" and len(w) == 0:
                print("pl=n/a")
            else:
                print(f"{key}={_word_value(w, key, args.oracle)}")
        print(f"max_ones_sum={max_ones_sum(max_ones(w))}")
    return 0


# --- enumerate --------------------------------------------------------------


def cmd_enumerate(args) -> int:
    n = args.n
    if args.classes:
        if args.oracle:
            part = oracle.brute_class_partition(n)
            for sig in sorted(part):
                members = part[sig]
                print(
                    json.dumps(
                        {
                            "signature": profile_text(sig),
                            "npf": str(max(members)),
                            "lr": str(min(members)),
                            "size": len(members),
                        }
                    )
                )
        else:
            for line in normality.class_partition(n).to_jsonl():
                print(line)
        return 0
    if args.pnpals:
        if args.oracle:
            check_length(n, 16, kind="brute palindrome filter")
            for w in oracle.all_words(n):
                if w == w.reverse() and oracle.brute_is_prefix_normal(w):
                    print(w)
        else:
            for w in palindromes.enumerate_prefix_normal_palindromes(n).words:
                print(w)
        return 0
    if args.oracle:
        for w in oracle.brute_least_representatives(n):
            print(w)
        return 0
    for w in normality.enumerate_least_representatives(n):
        print(w)
    return 0


# --- collapse-classes -------------------------------------------------------


def cmd_collapse_classes(args) -> int:
    if args.oracle:
        classes = [
            collapse.CollapseClass(n=args.n, extender=group[0], members=tuple(group))
            for group in oracle.brute_collapse_partition(args.n)
        ]
    else:
        classes = collapse.collapse_classes(args.n, engine=args.engine)
    for cls in classes:
        if args.n >= 1 and cls.extender.bits == 0:
            bound = None
        else:
            bound = collapse.class_size_bound(cls.extender)
        print(
            json.dumps(
                {
                    "extender": str(cls.extender),
                    "members": [str(v) for v in cls.members],
                    "size": cls.size,
                    "bound": bound,
                }
            )
        )
    return 0


# --- bounds -----------------------------------------------------------------


def cmd_bounds(args) -> int:
    print("n,lower,actual,upper_palcol,upper_remark_paper,upper_remark_corrected,violations")
    for n, actual, b in verify.bounds_by_length(args.n_max):
        violations = []
        if actual < b.lower:
            violations.append("lower")
        if actual > b.upper_palcol:
            violations.append("upper_palcol")
        if actual > b.upper_remark_paper:
            violations.append("upper_remark_paper")
        if actual > b.upper_remark_corrected:
            violations.append("upper_remark_corrected")
        print(
            f"{n},{b.lower},{actual},{b.upper_palcol},{b.upper_remark_paper},"
            f"{b.upper_remark_corrected},{';'.join(violations)}"
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
    idx = jpm.build_index(w)
    print("yes" if jpm.query(idx, k, d) else "no")
    return 0


# --- parser -----------------------------------------------------------------


def length(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"length must be >= 0, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
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

    p_ver = sub.add_parser("verify", help="run one named verification suite")
    p_ver.add_argument("theorem", choices=sorted(verify.CHECKS))
    p_ver.add_argument("n_max", type=length)
    p_ver.set_defaults(func=cmd_verify)

    p_word = sub.add_parser("word", help="report on a single word")
    p_word.add_argument("word")
    for key in _WORD_FIELDS:
        p_word.add_argument(f"--{key}", action="store_true")
    p_word.add_argument("--collapse", action="store_true")
    p_word.add_argument("--oracle", action="store_true")
    p_word.set_defaults(func=cmd_word)

    p_enum = sub.add_parser("enumerate", help="stream least representatives of one length")
    p_enum.add_argument("n", type=length)
    p_enum.add_argument("--pnpals", action="store_true", help="prefix normal palindromes instead")
    p_enum.add_argument("--classes", action="store_true", help="class partition as JSON lines")
    p_enum.add_argument("--jobs", type=int, default=None, help=JOBS_HELP)
    p_enum.add_argument("--oracle", action="store_true")
    p_enum.set_defaults(func=cmd_enumerate)

    p_cc = sub.add_parser("collapse-classes", help="collapse classes as JSON lines")
    p_cc.add_argument("n", type=length)
    p_cc.add_argument("--engine", choices=("brute", "band"), default="brute")
    p_cc.add_argument("--jobs", type=int, default=None, help=JOBS_HELP)
    p_cc.add_argument("--oracle", action="store_true")
    p_cc.set_defaults(func=cmd_collapse_classes)

    p_bounds = sub.add_parser("bounds", help="index bounds per length as CSV")
    p_bounds.add_argument("n_max", type=length)
    p_bounds.set_defaults(func=cmd_bounds)

    p_jpm = sub.add_parser("jpm", help="jumbled factor query: is there a length-k factor with d ones")
    p_jpm.add_argument("word")
    p_jpm.add_argument("--query", type=_query_pair, required=True, metavar="K,D")
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
    except ValueError as exc:  # WordParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
