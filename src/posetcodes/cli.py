"""Command-line front end: file-driven analyses emitting JSON reports.

Machine-readable JSON goes to standard output (or ``--out``); when standard
error is a terminal, a short human-readable summary is printed there too.

Exit codes: 0 success / condition holds; 1 condition fails; 2 input error;
3 enumeration budget exceeded; 4 property-verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .codes import _load_code, analyze_code, support_of_code
from .counting import _census_sizes, census, chain_condition_lower_bound, load_partition
from .errors import BudgetExceeded, InputError, check_budget
from .linalg import DEFAULT_BUDGET
from .poset import _is_int, _read_json, poset_builder
from .verify import batch_checks, instance_checks

EXIT_OK = 0
EXIT_CONDITION_FAILS = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_PROPERTY = 4


def _common_options(p):
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="enumeration budget")
    p.add_argument("--out", type=Path, help="write the JSON report to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetcodes",
        description="Analyze linear codes over finite fields under poset metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def code_command(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--poset", type=Path, required=True, help="poset description (JSON)")
        p.add_argument("--code", type=Path, required=True, help="generator matrix file")
        p.add_argument(
            "--flatten",
            choices=("auto", "row", "col"),
            default="auto",
            help="matrix-to-vector convention for generator blocks "
            "(auto: col for disjoint-chains posets, else row)",
        )
        _common_options(p)
        return p

    code_command("hierarchy", "weight hierarchy, support, and total-order test").set_defaults(
        handler=_cmd_hierarchy
    )
    code_command("chain", "chain condition, maximal flag, uniqueness").set_defaults(
        handler=_cmd_chain
    )
    code_command("flag", "print the maximal flag achieving the hierarchy").set_defaults(
        handler=_cmd_flag
    )

    p = sub.add_parser("bound", help="lower bound on the number of chain-condition codes")
    p.add_argument("--poset", type=Path, required=True)
    p.add_argument("--q", type=int, default=2, help="field order")
    p.add_argument("--partition", type=Path, help="chain partition (JSON); default: minimal")
    _common_options(p)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("census", help="exhaustive chain-condition census vs the bound")
    p.add_argument("--poset", type=Path, required=True)
    p.add_argument("--q", type=int, default=2, help="field order")
    p.add_argument("--max-dim", type=int, help="largest code dimension to enumerate")
    p.add_argument("--partition", type=Path, help="chain partition for the bound comparison")
    _common_options(p)
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("verify", help="run the invariant suite on an instance or a batch")
    p.add_argument("--poset", type=Path, help="poset file (instance mode)")
    p.add_argument("--code", type=Path, help="generator file (instance mode)")
    p.add_argument(
        "--flatten", choices=("auto", "row", "col"), default="auto", help="as in 'hierarchy'"
    )
    p.add_argument("--expect", type=Path, help="JSON with expected results to compare against")
    p.add_argument("--seed", type=int, default=0, help="batch seed")
    p.add_argument("--batch", type=int, help="number of random instances (batch mode)")
    p.add_argument("--q", type=int, help="restrict batch to one field order (default: 2 and 3)")
    p.add_argument("--max-n", type=int, default=8, help="largest code length in batch mode")
    _common_options(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


# -- shared helpers ---------------------------------------------------------------


def _load_instance(args):
    pdict = _read_json(args.poset)
    size, build = poset_builder(pdict)
    flatten = args.flatten
    chain_shape = None
    if "disjoint_chains" in pdict:
        chain_shape = (pdict["disjoint_chains"]["length"], pdict["disjoint_chains"]["count"])
        if flatten == "auto":
            flatten = "col"
    elif flatten == "auto":
        flatten = "row"
    return _load_code(args.code, size, build, flatten, chain_shape)


def _load_expect(path):
    """Read a ``verify --expect`` file: an object with some of the keys
    hierarchy and support (integer lists), chain_condition and unique
    (booleans)."""
    expect = _read_json(path)
    lists, flags = ("hierarchy", "support"), ("chain_condition", "unique")
    if not isinstance(expect, dict) or not set(expect) <= {*lists, *flags}:
        raise InputError(
            f"{path}: expected results must be an object with keys among "
            "hierarchy, support, chain_condition, unique"
        )
    for key in lists:
        if key in expect and not (
            isinstance(expect[key], list) and all(map(_is_int, expect[key]))
        ):
            raise InputError(f'{path}: "{key}" must be a list of integers')
    for key in flags:
        if key in expect and not isinstance(expect[key], bool):
            raise InputError(f'{path}: "{key}" must be true or false')
    return expect


def _render(value, indent=""):
    """``json.dumps(value, indent=2)`` byte for byte, for the values a report
    holds: dicts with string keys, lists, tuples, strings, ints, booleans and
    None.  ``json`` falls back to its pure-Python encoder whenever ``indent``
    is set; here only the booleans and None are left to it."""
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is str:
        return encode_basestring_ascii(value)
    if isinstance(value, (list, tuple, dict)):
        if not value:
            return "{}" if isinstance(value, dict) else "[]"
        inner = indent + "  "
        if isinstance(value, dict):
            items = [
                encode_basestring_ascii(k) + ": " + _render(v, inner) for k, v in value.items()
            ]
            start, end = "{", "}"
        else:
            # most items are ints: rendered in place, without a call
            items = [int.__repr__(v) if type(v) is int else _render(v, inner) for v in value]
            start, end = "[", "]"
        # the brackets join the first and the last item, so that the items
        # and the result are the only copies of the text held at once
        items[0] = start + "\n" + inner + items[0]
        items[-1] += "\n" + indent + end
        return (",\n" + inner).join(items)
    return json.dumps(value)


def _emit(report, args):
    text = _render(report)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # The reader left early (``| head -1``); the result stands, so
            # the command keeps its exit code.  Later writes, including the
            # flush at shutdown, go to devnull instead of raising again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    if sys.stderr.isatty():
        for line in _human_lines(report):
            print(line, file=sys.stderr)


def _human_lines(report, prefix=""):
    for key, value in report.items():
        if isinstance(value, dict):
            yield from _human_lines(value, prefix + key + ".")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            yield f"{prefix}{key}: [{len(value)} entries]"
        else:
            yield f"{prefix}{key}: {value}"


def _render_flag(flag):
    return [[list(row) for row in d.basis] for d in flag.subspaces]


# -- command handlers --------------------------------------------------------------


def _cmd_hierarchy(args):
    code = _load_instance(args)
    hier = analyze_code(code, args.budget).hierarchy
    supp = sorted(support_of_code(code))
    report = {
        "q": code.field.q,
        "n": code.n,
        "k": code.k,
        "hierarchy": list(hier),
        "support": supp,
        "support_totally_ordered": code.poset.is_total_on(supp),
    }
    _emit(report, args)
    return EXIT_OK


def _analyze_flags(args):
    code = _load_instance(args)
    analysis = analyze_code(code, args.budget)
    return analysis.hierarchy, analysis.flag_count, analysis.witness()


def _cmd_chain(args):
    hier, count, flag = _analyze_flags(args)
    satisfied = flag is not None
    report = {
        "hierarchy": list(hier),
        "chain_condition": satisfied,
        "flag": _render_flag(flag) if satisfied else None,
        "unique": count == 1,
    }
    _emit(report, args)
    return EXIT_OK if satisfied else EXIT_CONDITION_FAILS


def _cmd_flag(args):
    _, count, flag = _analyze_flags(args)
    satisfied = flag is not None
    report = {
        "flag": _render_flag(flag) if satisfied else None,
        "weights": list(flag.weights) if satisfied else None,
        "flag_count": count,
    }
    _emit(report, args)
    return EXIT_OK if satisfied else EXIT_CONDITION_FAILS


def _resolve_partition(args, poset):
    if args.partition:
        return load_partition(args.partition, poset)
    return poset.width_and_min_chain_partition()[1]


def _check_pairs(size, budget):
    """Refuse a positive size whose n (n - 1) / 2 pairs exceed the budget, before the
    order masks and the chain partition's matching, which grow with the pairs, exist."""
    if size > 0:
        message = "{count} pairs of a poset on {size} elements exceed the budget {budget}"
        check_budget(size * (size - 1) // 2, budget, message, size=size)


def _cmd_bound(args):
    size, build = poset_builder(_read_json(args.poset))
    _check_pairs(size, args.budget)
    poset = build()
    partition = _resolve_partition(args, poset)
    rep = chain_condition_lower_bound(partition, args.q)
    bound = str(rep.bound)
    # Chains of one size share a row, and [s j]_q = [s s-j]_q, so few
    # values are distinct; render each of them once.
    text = {x: str(x) for x in set().union(*rep.addends)}
    report = {
        "q": rep.q,
        "chains": [list(c) for c in partition.chains],
        "nu": list(rep.nu),
        "bound": bound,
        "addends": [[text[x] for x in row] for row in rep.addends],
    }
    _emit(report, args)
    return EXIT_OK


def _cmd_census(args):
    size, build = poset_builder(_read_json(args.poset))
    if size > 0:
        # the size checks come before the order masks; past n = 1 + log2(budget)
        # the subspace counts exceed the budget, so only --max-dim 0 meets _check_pairs
        _census_sizes(size, args.q, args.max_dim, args.budget)
    _check_pairs(size, args.budget)
    poset = build()
    rep = census(poset, args.q, args.max_dim, args.budget)
    report = {
        "q": rep.q,
        "n": rep.n,
        "max_dim": rep.max_dim,
        "per_dim": [
            {"dim": r + 1, "codes": str(t), "chain_condition": str(c)}
            for r, (t, c) in enumerate(zip(rep.per_dim_total, rep.per_dim_chain))
        ],
        "chain_condition_total": str(rep.chain_condition_total),
    }
    if rep.max_dim == rep.n:
        partition = _resolve_partition(args, poset)
        brep = chain_condition_lower_bound(partition, args.q)
        report["bound"] = str(brep.bound)
        report["census_ge_bound"] = rep.chain_condition_total >= brep.bound
        report["tight"] = rep.chain_condition_total == brep.bound
    _emit(report, args)
    return EXIT_OK


def _cmd_verify(args):
    if args.batch is not None and args.batch < 1:
        raise InputError(f"--batch must be at least 1, got {args.batch}")
    if args.max_n < 1:
        raise InputError(f"--max-n must be at least 1, got {args.max_n}")
    if args.expect and not args.code:
        raise InputError("--expect requires --code")
    if args.code:
        if not args.poset:
            raise InputError("instance mode requires both --poset and --code")
        code = _load_instance(args)
        expect = _load_expect(args.expect) if args.expect else None
        results = instance_checks(code, args.budget, expect)
        report = {"mode": "instance"}
    else:
        if not args.batch:
            raise InputError("either --code (instance mode) or --batch (batch mode) is required")
        qs = (args.q,) if args.q is not None else (2, 3)
        results = batch_checks(args.seed, args.batch, qs, args.max_n, args.budget)
        report = {"mode": "batch", "seed": args.seed, "batch": args.batch}
    ok = all(r.ok for r in results)
    report["ok"] = ok
    report["checks"] = [
        {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
    ]
    _emit(report, args)
    if not ok:
        for r in results:
            if not r.ok:
                print(f"FAILED {r.name}\n{r.detail}", file=sys.stderr)
        return EXIT_PROPERTY
    return EXIT_OK


@cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call, not at import; parse_args keeps no state
    # between calls, so every later call reuses it.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.budget < 0:
            raise InputError(f"--budget must be non-negative, got {args.budget}")
        return args.handler(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
