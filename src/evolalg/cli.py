"""Batch command-line front end.

Every subcommand reads a structure (a JSON spec file, '-' for stdin, or
--family NAME [--params JSON]), runs one analysis, and prints a JSON report
to standard output.  Reports are byte-identical for identical invocations
except for the "timestamp" field.

Exit codes: 0 success, 2 validation/parse error, 3 analysis left inconclusive
by the budget (analyze/index) or by --n-max (oracle), 64 usage error.
"""
from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

from ._version import __version__
from .errors import EvolAlgError, ParseError
from .families import FAMILY_DOCS, list_families
from .graph import export_window_dot
from .nilpotency import (IndexExact, IndexInfinite, brute_force_nilpotent,
                         classify, triangularize_window)
from .algebra import principal_power
from .operators import (ONES, OperatorKind, apply_operator,
                        frobenius_certificate, schur_certificate)
from .scalars import _echo_rational, _fraction
from .serialize import (element_jsonable, jsonable, parse_element,
                        parse_structure, read_json, serialize_structure)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that exits 64 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(64)


def _add_spec_args(sp):
    sp.add_argument("spec", nargs="?",
                    help="path to a JSON input spec, or '-' for stdin")
    sp.add_argument("--family", metavar="NAME",
                    help="build a named family instead of reading a spec")
    sp.add_argument("--params", metavar="JSON", default="{}",
                    help="parameters for --family (JSON object)")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="evolalg",
                description="evolution-algebra analysis over weighted digraphs")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = sub.add_parser("analyze", help="nil/nilpotency classification")
    _add_spec_args(sp)
    sp.add_argument("--budget", type=int, default=64)

    sp = sub.add_parser("index", help="index of right nilpotency")
    _add_spec_args(sp)
    sp.add_argument("--budget", type=int, default=64)

    sp = sub.add_parser("power", help="principal power of an element")
    _add_spec_args(sp)
    sp.add_argument("--element", required=True, metavar="JSON")
    sp.add_argument("-n", dest="n", type=int, required=True,
                    help="power exponent (>= 1)")
    sp.add_argument("--cutoff", type=int, default=None,
                    help="truncation vertex for structures with infinite rows")

    sp = sub.add_parser("apply", help="apply an adjacency operator")
    _add_spec_args(sp)
    sp.add_argument("--op", required=True,
                    choices=[k.value for k in OperatorKind])
    sp.add_argument("--vector", required=True, metavar="JSON")
    sp.add_argument("--cutoff", type=int, default=None)

    sp = sub.add_parser("bounds", help="operator-norm certificates")
    _add_spec_args(sp)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--schur", metavar="ALPHA,BETA,M1,M2",
                       help="Schur test; weight names from {ones}")
    group.add_argument("--frobenius", action="store_true")
    sp.add_argument("--window", type=int, default=32)

    sp = sub.add_parser("triangularize",
                        help="strictly-lower reordering of a window")
    _add_spec_args(sp)
    sp.add_argument("--window", type=int, required=True)

    sp = sub.add_parser("export-dot", help="DOT rendering of a window")
    _add_spec_args(sp)
    sp.add_argument("--window", type=int, required=True)

    sp = sub.add_parser("oracle",
                        help="finite brute force: subspace-chain dimensions")
    _add_spec_args(sp)
    sp.add_argument("--n-max", type=int, default=None)

    sp = sub.add_parser("families", help="list built-in families")
    sp.add_argument("action", choices=["list"])
    return p


def _load_structure(args):
    if getattr(args, "family", None):
        return parse_structure({"family": args.family,
                                "params": read_json(args.params)})
    if args.spec is None:
        raise _UsageError("provide a spec file, '-', or --family NAME")
    if args.spec == "-":
        text = sys.stdin.read()
    else:
        path = Path(args.spec)
        if not path.exists():
            raise ParseError(f"no such spec file: {args.spec}")
        text = path.read_text()
    return parse_structure(text)


def _parse_schur_spec(text: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ParseError("--schur wants ALPHA,BETA,M1,M2")
    weights = {"ones": ONES}
    alpha, beta = parts[0], parts[1]
    if alpha not in weights or beta not in weights:
        raise ParseError(f"unknown Schur weights; available: "
                         f"{', '.join(sorted(weights))}")
    try:
        m1, m2 = _fraction(parts[2]), _fraction(parts[3])
        _echo_rational(m1, parts[2]), _echo_rational(m2, parts[3])
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"M1/M2 must be rationals: {e}") from e
    except ParseError as e:  # past the digit limit
        raise ParseError(f"M1/M2: {e}") from e
    return weights[alpha], weights[beta], m1, m2


# -- subcommand handlers: take the structure, return (params, result,
# exit_code); run() renders the structure as the report's input -------------


def _cmd_analyze(args, s):
    rep = classify(s, args.budget)
    code = 0
    if rep.nil.status == "inconclusive" or rep.nilpotent.status == "inconclusive":
        code = 3
    return {"budget": args.budget}, jsonable(rep), code


def _cmd_index(args, s):
    idx = classify(s, args.budget).index
    decided = isinstance(idx, (IndexExact, IndexInfinite))
    return ({"budget": args.budget}, {"index": jsonable(idx)},
            0 if decided else 3)


def _cmd_power(args, s):
    elem = parse_element(args.element)
    result = principal_power(s, elem, args.n, cutoff=args.cutoff)
    params = {"n": args.n, "cutoff": args.cutoff,
              "element": element_jsonable(elem)}
    return params, {"power": jsonable(result)}, 0


def _cmd_apply(args, s):
    vec = parse_element(args.vector)
    result = apply_operator(s, OperatorKind(args.op), vec, cutoff=args.cutoff)
    params = {"op": args.op, "cutoff": args.cutoff,
              "vector": element_jsonable(vec)}
    return params, {"image": jsonable(result)}, 0


def _cmd_bounds(args, s):
    if args.frobenius:
        cert = frobenius_certificate(s, args.window)
        params = {"kind": "frobenius", "window": args.window}
    else:
        alpha, beta, m1, m2 = _parse_schur_spec(args.schur)
        cert = schur_certificate(s, alpha, beta, m1, m2, args.window)
        params = {"kind": "schur", "window": args.window,
                  "M1": str(m1), "M2": str(m2)}
    return params, jsonable(cert), 0


def _cmd_triangularize(args, s):
    out = triangularize_window(s, args.window)
    return {"window": args.window}, jsonable(out), 0


def _cmd_export_dot(args, s):
    dot = export_window_dot(s, args.window)
    return {"window": args.window}, {"dot": dot}, 0


def _cmd_oracle(args, s):
    rep = brute_force_nilpotent(s, n_max=args.n_max)
    return ({"n_max": args.n_max}, jsonable(rep),
            3 if rep.nilpotent is None else 0)


_HANDLERS = {
    "analyze": _cmd_analyze,
    "index": _cmd_index,
    "power": _cmd_power,
    "apply": _cmd_apply,
    "bounds": _cmd_bounds,
    "triangularize": _cmd_triangularize,
    "export-dot": _cmd_export_dot,
    "oracle": _cmd_oracle,
}


def run(argv=None) -> int:
    """Parse argv, execute one subcommand, print the JSON report."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "families":
            listing = [{"name": name, "doc": FAMILY_DOCS[name]}
                       for name in list_families()]
            input_part, params, code = None, {}, 0
            result = {"families": listing}
        else:
            s = _load_structure(args)
            params, result, code = _HANDLERS[args.command](args, s)
            input_part = serialize_structure(s)
    except _UsageError as e:
        print(f"evolalg: error: {e}", file=sys.stderr)
        return 64
    except EvolAlgError as e:
        print(f"evolalg: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    report = {
        "tool": "evolalg",
        "version": __version__,
        "command": args.command,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "input": input_part,
        "params": params,
        "result": result,
        "status": "inconclusive" if code == 3 else "ok",
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


def main() -> int:
    return run()


if __name__ == "__main__":
    raise SystemExit(main())
