"""Command line entry points.

Exit codes: 0 on success, 1 when the scenario file is rejected (every
located issue goes to stderr), 2 on execution errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import HyperallocError
from .network import MODES
from .report import FORMATS, emit_report
from .runner import inspect_flows, inspect_pi, inspect_routes, run
from .scenario import ScenarioError, parse_scenario

FORMAT_ENV = "HYPERALLOC_FORMAT"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperalloc",
        description="Score candidate nodes per subspace and allocate arriving tasks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("allocate", help="run a scenario and print the decision report")
    p_run.add_argument("--scenario", required=True, help="scenario file")
    p_run.add_argument("--mode", choices=MODES, help="delay handling")
    p_run.add_argument("--seed", type=int, help="seed for sample mode")
    p_run.add_argument("--subspaces", help="comma-separated selection, e.g. cmpt,cplt")
    p_run.add_argument(
        "--format",
        choices=FORMATS,
        help=f"output format (default: ${FORMAT_ENV} or table)",
    )
    p_run.add_argument("--step", type=float, help="dynamics step size in (0, 1]")
    p_run.add_argument("--tol", type=float, help="dynamics convergence tolerance")
    p_run.add_argument("--max-iter", type=int, dest="max_iter", help="dynamics iteration cap")
    p_run.add_argument("--out", help="write the report here instead of stdout")

    p_inspect = sub.add_parser("inspect", help="print derived structures as JSON")
    p_inspect.add_argument("--scenario", required=True, help="scenario file")
    p_inspect.add_argument(
        "--what",
        choices=("flows", "pi", "routes"),
        required=True,
        help="flows: execution flows; pi: converged probabilities; routes: cheapest routes",
    )
    p_inspect.add_argument("--out", help="write the output here instead of stdout")

    return parser


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = _load(args.scenario)
        if args.command == "allocate":
            fmt = args.format or os.environ.get(FORMAT_ENV) or "table"
            report = run(
                scenario,
                mode=args.mode,
                seed=args.seed,
                subspaces=args.subspaces,
                step=args.step,
                tol=args.tol,
                max_iter=args.max_iter,
            )
            text = emit_report(report, fmt)
        else:
            build = {"flows": inspect_flows, "pi": inspect_pi, "routes": inspect_routes}
            text = json.dumps(build[args.what](scenario), indent=2) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except ScenarioError as exc:
        for issue in exc.issues:
            print(f"{args.scenario}: {issue}", file=sys.stderr)
        return 1
    except (HyperallocError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
