"""Command-line surface: diagram arithmetic, exploration, and claim checks.

Exit codes: 0 success/pass, 1 verification failure, 2 usage or parse error,
3 inconclusive (a search or effort budget ran out). All subcommands accept
--json for machine-readable output with a "schema": 1 field.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .diagrams import inverse, multiply, parse_diagram, reduce
from .characters import Character, chi
from .steinfarley import explore
from . import verify as verify_mod

SCHEMA = 1

# flag -> runner keyword, per claim
_VERIFY_FLAGS = {
    "diagram-calculus": {"limit": "samples"},
    "characters": {"limit": "pairs"},
    "morse-property": {"limit": "max_vertices"},
    "link-model": {"limit": "per_feet"},
    "matching-connectivity": {"n_max": "n_max"},
    "long-interval-ascending": {"limit": "pi1_budget"},
    "ascending-nonempty": {"limit": "per_combo"},
    "l-invariant-disconnection": {"limit": "max_vertices"},
    "ascending-connected": {"limit": "per_feet"},
    "nerve-cycle": {"limit": "max_steps", "char": "characters"},
    "homology-oracle": {"limit": "n_random"},
    "morse-lemma-instance": {},
}


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        payload = dict(payload)
        payload["schema"] = SCHEMA
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def cmd_reduce(args) -> int:
    d = reduce(parse_diagram(args.diagram))
    _emit(args, {"input": args.diagram, "result": d.canon}, d.canon)
    return 0


def cmd_mul(args) -> int:
    left = parse_diagram(args.left)
    right = parse_diagram(args.right)
    d = multiply(left, right)
    _emit(args, {"left": args.left, "right": args.right,
                 "result": d.canon}, d.canon)
    return 0


def cmd_inv(args) -> int:
    d = reduce(inverse(parse_diagram(args.diagram)))
    _emit(args, {"input": args.diagram, "result": d.canon}, d.canon)
    return 0


def cmd_chi(args) -> int:
    char = Character.parse(args.char)
    d = reduce(parse_diagram(args.diagram))
    value = chi(char, d)
    _emit(args, {"input": args.diagram, "character": char.to_json(),
                 "value": str(value)}, str(value))
    return 0


def cmd_explore(args) -> int:
    seeds = [parse_diagram(s) for s in args.seed]
    band = _parse_band(args.band)
    floor = None
    if args.chi_min is not None:
        floor = (Character.parse(args.char or "1,0"), Fraction(args.chi_min))
    elif args.char is not None:
        raise ValueError("--char sets the floor's character and needs "
                         "--chi-min")
    frag = explore(seeds, band, chi_floor=floor,
                   max_vertices=args.limit,
                   max_radius=args.radius)
    summary = (f"{len(frag.vertices)} vertices, {len(frag.edges)} edges, "
               f"{len(frag.cubes)} cubes"
               + (" (truncated)" if frag.provenance.get("truncated") else ""))
    _emit(args, frag.to_json(), summary)
    return 0


def _parse_band(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'p,q', got {text!r}")
    return (int(parts[0]), int(parts[1]))


def _flag_name(key: str) -> str:
    return "--" + key.replace("_", "-")


def _int_at_least(low: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected a {what} integer, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")


def cmd_verify(args) -> int:
    claim = args.claim
    runner = verify_mod.RUNNERS.get(claim)
    if runner is None:
        print(f"unknown claim {claim!r}; known: "
              f"{', '.join(verify_mod.RUNNERS)}", file=sys.stderr)
        return 2
    mapping = _VERIFY_FLAGS[claim]
    chars = None if args.char is None else [Character.parse(args.char)]
    given = {"limit": args.limit, "n_max": args.n_max, "char": chars}
    unused = [flag for flag, value in given.items()
              if value is not None and flag not in mapping]
    if unused:
        accepted = ", ".join(map(_flag_name, mapping)) or "no flags"
        print(f"error: claim {claim!r} does not take "
              f"{', '.join(map(_flag_name, unused))}; it accepts {accepted}",
              file=sys.stderr)
        return 2
    kwargs = {mapping[flag]: value for flag, value in given.items()
              if value is not None}
    try:
        report = runner(**kwargs)
    except RuntimeError as exc:
        report = {"claim": claim, "ok": False, "checks": [],
                  "parameters": kwargs, "verdict": "inconclusive",
                  "error": str(exc)}
        _emit(args, report, f"INCONCLUSIVE {claim}: {exc}")
        return 3
    report["verdict"] = "pass" if report["ok"] else "fail"
    lines = []
    for c in report["checks"]:
        status = "PASS" if c["ok"] else "FAIL"
        detail = f"  ({c['detail']})" if c["detail"] else ""
        lines.append(f"{status} {c['name']}{detail}")
    lines.append(f"{report['verdict'].upper()} {claim}")
    _emit(args, report, "\n".join(lines))
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitmerge",
        description="split-merge diagram calculus, banded cube-complex "
                    "fragments, and claim verification")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a diagram to normal form")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("mul", help="compose two diagrams")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("inv", help="invert a diagram")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_inv)

    p = sub.add_parser("chi", help="evaluate a character on a diagram")
    p.add_argument("diagram")
    p.add_argument("--char", default="1,0",
                   help="character as 'a,b' (default 1,0)")
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("explore",
                       help="breadth-first fragment of the banded complex")
    p.add_argument("--seed", action="append", required=True,
                   help="seed vertex diagram (repeatable)")
    p.add_argument("--band", required=True, help="foot-count band 'p,q'")
    p.add_argument("--char", default=None,
                   help="character for the floor (with --chi-min; "
                        "default 1,0)")
    p.add_argument("--chi-min", default=None,
                   help="drop vertices with character value below this")
    p.add_argument("--limit", type=_positive_int, default=100000,
                   help="vertex budget")
    p.add_argument("--radius", type=_int_at_least(0, "nonnegative"),
                   default=None, help="exploration radius from the seeds")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("verify", help="run one claim's verification")
    p.add_argument("claim", help=", ".join(verify_mod.RUNNERS))
    p.add_argument("--char", default=None, help="character as 'a,b'")
    p.add_argument("--limit", type=_positive_int, default=None)
    p.add_argument("--n-max", type=_positive_int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors and --help; keep main int-valued
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
