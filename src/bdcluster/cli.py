"""Command-line interface.

Verbs:

    seed     print the initial extended cluster
    quiver   print the quiver arcs (or GraphViz with --dot)
    bracket  Poisson bracket and log-canonical coefficient of two seed functions
    mutate   one-step exchange at a mutable label
    check    run verification suites (exit 1 if any check fails)
    cybe     Yang-Baxter and unitarity check for the r tensor

Output is byte-deterministic for fixed inputs, except for the
"seconds" field of JSON check reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from .bdseed import BDTriple, normalize_triple, seed_labels
from .poisson import bracket_from_tables, pair_test, unscale
from .quiver import FrozenDirection, NotLaurentPolynomial, mutate_seed, to_dot
from .tasks import WorkerDied
from .verify import CHECKS, Fault, VerificationReport, Workspace, run_checks


class CliError(Exception):
    pass


def _parse_label(text: str) -> Tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"label must look like 'i,j', got {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise CliError(f"label must be two integers, got {text!r}") from None


def _add_pair_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="matrix size")
    p.add_argument("--alpha", type=int, help="first simple root")
    p.add_argument("--beta", type=int, help="second simple root")
    p.add_argument("--sl", action="store_true", help="SL mode: drop the determinant vertex")
    p.add_argument(
        "--standard",
        action="store_true",
        help="use the standard structure (with a pair: its standard companion bracket)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")


def _triple(args) -> Optional[BDTriple]:
    if args.alpha is None and args.beta is None:
        return None
    if args.alpha is None or args.beta is None:
        raise CliError("--alpha and --beta must be given together")
    return normalize_triple(args.n, args.alpha, args.beta)


def _workspace(args) -> Workspace:
    return Workspace(_triple(args), args.n, args.sl, args.standard)


def _cmd_seed(args) -> int:
    ws = _workspace(args)
    cluster, triple = ws.cluster(), ws.triple
    if args.format == "json":
        payload = {
            "n": args.n,
            "alpha": triple.alpha if triple else None,
            "beta": triple.beta if triple else None,
            "transposed": triple.transposed if triple else False,
            "sl": args.sl,
            "standard": ws.standard,
            "frozen": sorted(f"{i},{j}" for i, j in cluster.frozen),
            "functions": {
                f"{i},{j}": str(cluster.functions[(i, j)]) for i, j in cluster.labels
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for lab in cluster.labels:
            kind = "frozen " if lab in cluster.frozen else "mutable"
            print(f"({lab[0]},{lab[1]}) {kind} {cluster.functions[lab]}")
    return 0


def _cmd_quiver(args) -> int:
    q = _workspace(args).quiver()
    if args.dot:
        print(to_dot(q))
        return 0
    if args.format == "json":
        payload = {
            "n": args.n,
            "frozen": sorted(f"{i},{j}" for i, j in q.frozen),
            "arcs": [
                {"from": f"{s[0]},{s[1]}", "to": f"{d[0]},{d[1]}", "weight": q.arcs[(s, d)]}
                for s, d in sorted(q.arcs)
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for s, d in sorted(q.arcs):
            w = q.arcs[(s, d)]
            suffix = "" if w == 1 else f" weight {w}"
            print(f"({s[0]},{s[1]}) -> ({d[0]},{d[1]}){suffix}")
        print("frozen: " + " ".join(f"({i},{j})" for i, j in sorted(q.frozen)))
    return 0


def _cmd_bracket(args) -> int:
    ws = _workspace(args)
    cluster, op = ws.cluster(), ws.op()
    la = _parse_label(args.f)
    lb = _parse_label(args.g)
    for lab in (la, lb):
        if lab not in cluster.functions:
            raise CliError(f"({lab[0]},{lab[1]}) is not a label of this cluster")
    ta, tb = ws.tables(cluster.functions[la], op), ws.tables(cluster.functions[lb], op)
    # A reason in place of omega is a failed pair; a bracket that overflows exits 2.
    omega = pair_test(ta, tb)
    br = unscale(bracket_from_tables(ta, tb), op.n)
    log_canonical = not isinstance(omega, str)
    if args.format == "json":
        payload = {
            "f": f"{la[0]},{la[1]}",
            "g": f"{lb[0]},{lb[1]}",
            "bracket": str(br),
            "omega": str(omega) if log_canonical else None,
            "log_canonical": log_canonical,
            "reason": None if log_canonical else omega,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{{f,g}} = {br}")
        print(f"omega = {omega}" if log_canonical else f"not log-canonical: {omega}")
    return 0


def _cmd_mutate(args) -> int:
    ws = _workspace(args)
    lab = _parse_label(args.at)
    if lab not in seed_labels(ws.n, ws.triple, ws.sl)[0]:
        raise CliError(f"{lab} is not a vertex")
    # On SL the printed GL variable represents the SL one.
    try:
        new_seed = mutate_seed(ws.exchange_seed(), lab)
    except (FrozenDirection, NotLaurentPolynomial) as e:
        raise CliError(str(e)) from None
    new_var = new_seed.cluster.functions[lab]
    if args.format == "json":
        payload = {"at": f"{lab[0]},{lab[1]}", "new_variable": str(new_var)}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(new_var)
    return 0


def _print_reports(reports: List[VerificationReport], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True))
        return
    for r in reports:
        pair = f" alpha={r.alpha} beta={r.beta}" if r.alpha is not None else ""
        print(f"check={r.check} n={r.n}{pair} status={r.status} witnesses={len(r.witnesses)}")
        for w in r.witnesses:
            print(f"  {w}")


def _cmd_check(args) -> int:
    triple = _triple(args)
    fault = Fault(args.inject_fault) if args.inject_fault else None
    reports = run_checks(
        [args.which],
        triple=triple,
        n=args.n,
        sl=args.sl,
        standard=args.standard,
        fault=fault,
        processes=args.processes,
    )
    _print_reports(reports, args.format)
    return 0 if all(r.passed for r in reports) else 1


def _seed_args(p: argparse.ArgumentParser) -> None:
    _add_pair_args(p)
    p.set_defaults(func=_cmd_seed)


def _quiver_args(p: argparse.ArgumentParser) -> None:
    _add_pair_args(p)
    p.add_argument("--dot", action="store_true", help="GraphViz output")
    p.set_defaults(func=_cmd_quiver)


def _bracket_args(p: argparse.ArgumentParser) -> None:
    _add_pair_args(p)
    p.add_argument("--f", required=True, help="label 'i,j' of the first function")
    p.add_argument("--g", required=True, help="label 'i,j' of the second function")
    p.set_defaults(func=_cmd_bracket)


def _mutate_args(p: argparse.ArgumentParser) -> None:
    _add_pair_args(p)
    p.add_argument("--at", required=True, help="mutable label 'i,j'")
    p.set_defaults(func=_cmd_mutate)


def _check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("which", choices=[*CHECKS, "all"])
    _add_pair_args(p)
    p.add_argument(
        "--inject-fault",
        choices=[f.value for f in Fault],
        default=None,
        help="negative control: plant a defect and watch the checks fail",
    )
    p.add_argument("--processes", type=int, default=None, help="worker processes for sweeps and exchanges")
    p.set_defaults(func=_cmd_check)


def _cybe_args(p: argparse.ArgumentParser) -> None:
    # This verb is the check of the same name, run on its own.
    _add_pair_args(p)
    p.set_defaults(func=_cmd_check, which="cybe", inject_fault=None, processes=None)


# Each verb: its help line and what adds its arguments to its subparser.
VERBS = {
    "seed": ("print the initial extended cluster", _seed_args),
    "quiver": ("print quiver arcs", _quiver_args),
    "bracket": ("bracket of two cluster functions", _bracket_args),
    "mutate": ("one-step exchange at a label", _mutate_args),
    "check": ("run verification suites", _check_args),
    "cybe": ("Yang-Baxter and unitarity check", _cybe_args),
}


def build_parser(verb: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every verb, or, with verb given, one that lists every
    verb but gives arguments to verb's subparser alone: the same parser
    for that verb's command lines, its usage and errors included, for
    less start-up work."""
    parser = argparse.ArgumentParser(
        prog="bdcluster",
        description="Exact cluster seeds and Sklyanin brackets for minimal Belavin-Drinfeld pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_args) in VERBS.items():
        if verb in (None, name):
            add_args(sub.add_parser(name, help=summary))
        else:
            # Listed for the usage line, the help and the error for an
            # unknown verb, and never parsed, so it needs no -h either.
            sub.add_parser(name, help=summary, add_help=False)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Without a known verb first (--help, a typo, nothing), every verb's parser is built.
    parser = build_parser(argv[0] if argv and argv[0] in VERBS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, ArithmeticError, WorkerDied) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
