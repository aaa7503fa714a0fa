"""Command line entry point.

    rough-transport run <config.json>     execute a scenario, write CSVs
    rough-transport list [filter]         show the scenario registry
    rough-transport emit-defaults <id>    print a scenario's default config

Exit codes: 0 all contracts pass, 1 contract failure, 2 usage or IO error.
"""

import argparse
import json
import sys

from .config import ParseError, ValidationError, default_config, load_config
from .errors import PipelineError, RoughTransportError
from .scenarios import REGISTRY, list_scenarios, run_scenario


def _cmd_run(args):
    try:
        cfg = load_config(args.config)
    except ParseError as exc:
        loc = f" (line {exc.line}, column {exc.column})" if exc.line else ""
        print(f"error: {exc}{loc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_scenario(cfg)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RoughTransportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        report.write(cfg.output_dir)
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 2
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        note = f"  ({r.note})" if r.note else ""
        print(f"[{status}] {cfg.scenario_id}/{r.name}  "
              f"{r.seconds:.2f}s{note}")
    print(f"report written to {cfg.output_dir}/diagnostics.csv")
    return 0 if report.passed else 1


def _cmd_list(args):
    rows = list_scenarios(args.filter)
    if rows:
        width = max(len(r[0]) for r in rows)
        for sid, dim, desc in rows:
            print(f"{sid:<{width}}  d={dim}  {desc}")
    return 0


def _cmd_emit_defaults(args):
    if args.scenario_id not in REGISTRY:
        print(f"error: unknown scenario {args.scenario_id!r}", file=sys.stderr)
        return 2
    print(json.dumps(default_config(args.scenario_id), indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rough-transport",
        description="Verification lab for the damped continuity equation "
                    "along rough Lagrangian flows.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario configuration")
    p_run.add_argument("config", help="path to a JSON configuration file")
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list", help="list registered scenarios")
    p_list.add_argument("filter", nargs="?", default=None,
                        help="substring filter on scenario ids")
    p_list.set_defaults(func=_cmd_list)

    p_emit = sub.add_parser("emit-defaults",
                            help="print the resolved defaults of a scenario")
    p_emit.add_argument("scenario_id")
    p_emit.set_defaults(func=_cmd_emit_defaults)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
