"""Command-line interface.

Exit codes: 0 clean, 1 invariant violations or divergence, 2 usage/config
errors.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from typing import List, Optional

from ..errors import ConfigError, ParseError
from .audit import audit
from .config import ScenarioConfig, load_config
from .runner import Trace, replay_check, run

DEFAULT_SCENARIO_DIR = "scenarios"


def _load(args) -> ScenarioConfig:
    """The scenario args.config names, under args.seed when one is given."""
    config = load_config(args.config)
    return config if args.seed is None else config.with_seed(args.seed)


def _print_summary(trace: Trace) -> None:
    summary = trace.summary
    print(f"scenario: {summary['name']}")
    print(f"events: {len(trace.events)}  history: {summary['history_len']}  "
          f"current date: {summary['current_date']}  best tip: {summary['best_tip_ordinal']}")
    print(f"final supply: {summary['supply']}")
    print(f"trace digest: {trace.digest()}")


def _print_audit(trace: Trace) -> int:
    """Audit a trace and print the outcome; returns the exit code."""
    report = audit(trace.events)
    for warning in report.warnings:
        print(f"warning: {warning}")
    if report.violations:
        print(f"VIOLATIONS ({len(report.violations)}):")
        for v in report.violations:
            print(f"  {v}")
        return 1
    print(f"audit: clean ({report.events} events, {report.burns_checked} burns checked)")
    return 0


def cmd_run(args) -> int:
    trace = run(_load(args))
    if args.out:
        trace.write(args.out)
        print(f"trace written to {args.out}")
    _print_summary(trace)
    return _print_audit(trace)


def cmd_audit(args) -> int:
    return _print_audit(Trace.read(args.trace))


def cmd_replay(args) -> int:
    config = _load(args)
    trace = Trace.read(args.trace)
    result = replay_check(config, trace)
    if result:
        print(f"replay: identical ({len(trace.events)} events)")
        return 0
    print(f"replay: DIVERGED at event {result.first_divergence}: {result.detail}")
    return 1


def cmd_scenarios(args) -> int:
    paths = sorted(glob.glob(os.path.join(args.dir, "*.json")))
    if not paths:
        print(f"no scenarios found in {args.dir!r}", file=sys.stderr)
        return 2
    if args.action == "list":
        for path in paths:
            try:
                config = load_config(path)
                print(f"{os.path.basename(path):40s} seed={config.seed:<6d} "
                      f"end={config.end_time:<8d} tags={','.join(config.tags) or '-'}")
            except ConfigError as exc:
                print(f"{os.path.basename(path):40s} INVALID: {exc}")
        return 0

    failed = 0
    for path in paths:
        trace = run(load_config(path))
        violations = audit(trace.events).violations
        status = "ok" if not violations else f"{len(violations)} VIOLATIONS"
        print(f"{os.path.basename(path):40s} {len(trace.events):6d} events  {status}")
        for v in violations[:5]:
            print(f"    {v}")
        failed += 1 if violations else 0
    print(f"{len(paths) - failed}/{len(paths)} scenarios clean")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pegsim",
        description="Deterministic collateralized two-way peg simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and audit it")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None, help="write the trace as NDJSON")
    p_run.set_defaults(fn=cmd_run)

    p_audit = sub.add_parser("audit", help="audit an existing trace file")
    p_audit.add_argument("trace")
    p_audit.set_defaults(fn=cmd_audit)

    p_replay = sub.add_parser("replay", help="re-run a config and compare against a trace")
    p_replay.add_argument("config")
    p_replay.add_argument("trace")
    p_replay.add_argument("--seed", type=int, default=None)
    p_replay.set_defaults(fn=cmd_replay)

    p_sc = sub.add_parser("scenarios", help="operate on the bundled scenario corpus")
    p_sc.add_argument("action", choices=["list", "run-all"])
    p_sc.add_argument("--dir", default=DEFAULT_SCENARIO_DIR)
    p_sc.set_defaults(fn=cmd_scenarios)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"trace parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
