"""Command-line pipeline: generate, detect, plan, verify, render.

Every subcommand reads and writes explicit paths, succeeds with exit code
0, and fails with a single-line ``error: <kind>: <message>`` on stderr.
"""
from __future__ import annotations

import argparse
import sys

from .errors import TricoverError, UsageError
from .files import load_report, load_scenario, save_report, save_scenario
from .pipeline import generate_scenario, run_detect, run_plan, run_verify
from .render import render_svg


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # single-line, machine-parsable
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tricover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="create a random scenario file")
    p.add_argument("--width", type=float, required=True)
    p.add_argument("--height", type=float, required=True)
    p.add_argument("--n-stationary", type=int, required=True)
    p.add_argument("--n-mobile", type=int, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--mobile-radius", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("detect", help="triangulate and measure every hole")
    p.add_argument("--scenario", required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("plan", help="plan mobile relocations for detected holes")
    p.add_argument("--scenario", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--mobile-radius", type=float, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="Monte-Carlo coverage before/after a plan")
    p.add_argument("--scenario", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("render", help="draw a scenario (and report) as SVG")
    p.add_argument("--scenario", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--out", required=True)

    return parser


# Built once, on import: every call of ``main`` parses with the same parser.
_PARSER = _build_parser()


def _cmd_generate(args: argparse.Namespace) -> None:
    doc = generate_scenario(
        width=args.width,
        height=args.height,
        n_stationary=args.n_stationary,
        n_mobile=args.n_mobile,
        sensing_radius=args.radius,
        mobile_radius=args.mobile_radius,
        seed=args.seed,
    )
    save_scenario(doc, args.out)


def _cmd_detect(args: argparse.Namespace) -> None:
    scenario = load_scenario(args.scenario)
    report = run_detect(scenario, epsilon=args.epsilon)
    save_report(report, args.out)


def _cmd_plan(args: argparse.Namespace) -> None:
    scenario = load_scenario(args.scenario)
    report = load_report(args.report)
    save_report(run_plan(report, scenario, args.mobile_radius), args.out)


def _cmd_verify(args: argparse.Namespace) -> None:
    scenario = load_scenario(args.scenario)
    report = load_report(args.report) if args.report is not None else None
    save_report(run_verify(scenario, report, args.samples, args.seed), args.out)


def _cmd_render(args: argparse.Namespace) -> None:
    scenario = load_scenario(args.scenario)
    report = load_report(args.report) if args.report is not None else None
    svg = render_svg(scenario, report)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(svg)


_COMMANDS = {
    "generate": _cmd_generate,
    "detect": _cmd_detect,
    "plan": _cmd_plan,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        _COMMANDS[args.command](args)
    except TricoverError as exc:
        print(f"error: {exc.kind}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
