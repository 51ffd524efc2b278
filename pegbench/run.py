"""pegsim benchmark: host cost per simulated event, end to end and per layer.

Run from the repository root:

    python3 pegbench/run.py --workload corpus --seed 0 --seconds 10 --trace 0

One single-threaded process repeats passes of the workload (see
workloads.py) in a closed loop until --seconds of host time have gone, then
prints each metric with its unit and, as its last line, one JSON object with
the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 runs one untraced reference
pass and then traced passes, and reports the per-layer metrics.

Every scenario run is checked: the trace must audit clean, its digest must
repeat on every pass, and at seed 0 it must match the golden digest and
counts in golden.json.  Corpus runs also write the trace, read it back and
replay it.  A run fails on an exception, an audit violation, a replay
divergence or a golden mismatch; failed / attempted is the fail ratio.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
OUT = os.path.join(HERE, "_out")
SETUP_SAMPLES = (7, 21)  # set-up timings per run: at least, and at most
SETUP_EXTRA_S = 2.0  # host time allowed for set-up repeats beyond the first minimum
NS = 1e9


def _fail_usage(message: str) -> None:
    print(f"pegbench: {message}", file=sys.stderr)
    sys.exit(2)


def _median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _percentile(xs: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, int(round(q * len(s))) - 1))]


class Pass:
    """What one pass measured and observed."""

    def __init__(self) -> None:
        self.setup_ns = 0.0
        self.wall_ns = 0.0
        self.run_ns: Dict[str, float] = {}
        self.events: Dict[str, int] = {}
        self.digests: Dict[str, str] = {}
        self.blocks: Dict[str, int] = {}
        self.fired: Dict[str, Counter] = {}
        self.horizon_sums = [0.0, 0, 0.0, 0]  # StepTimer.sums added over the pass
        self.peak_rss_kib = 0  # ru_maxrss when the pass ended
        self.rejected = 0  # action_rejected events
        self.counts: Counter = Counter()  # traced passes: tracer counters of this pass
        self.failures: List[str] = []
        self.span_lo = self.span_hi = 0
        self.setup_span_hi = 0


class Bench:
    def __init__(self, workload, seed: int, trace: bool) -> None:
        from probes import StepTimer
        from refclock import RefClock

        # The modules themselves: the harness package re-exports functions
        # under the same names, which would shadow `import ... as`.
        self.audit_mod = importlib.import_module("pegsim.harness.audit")
        self.config_mod = importlib.import_module("pegsim.harness.config")
        self.runner_mod = importlib.import_module("pegsim.harness.runner")
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.scenarios = os.path.join(ROOT, "scenarios")
        corpus = sorted(f[:-5] for f in os.listdir(self.scenarios) if f.endswith(".json"))
        self.specs = workload.specs(corpus, seed)
        self.clock = RefClock(workload.kernel)
        self.timer = StepTimer(self.clock)
        self.tracer = None
        self.golden: Optional[dict] = None
        if seed == 0 and os.path.exists(GOLDEN):
            with open(GOLDEN, encoding="utf-8") as fh:
                self.golden = json.load(fh).get(workload.name)
        os.makedirs(OUT, exist_ok=True)
        self.trace_path = os.path.join(OUT, f"trace-{workload.name}.ndjson")
        self.first_digest: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    # -- one pass --------------------------------------------------------------

    def setup(self) -> tuple:
        """Load every config and construct every runner; returns (ns, runners)."""
        now = self.clock.now
        self.clock.calibrate()
        t0 = now()
        built = []
        for spec in self.specs:
            if self.tracer is not None:
                self.tracer.run_id += 1
            cfg = spec.config(self.scenarios, self.config_mod.load_config)
            built.append((spec, cfg, self.runner_mod.SimulationRunner(cfg), self.tracer and self.tracer.run_id))
        return now() - t0, built

    def one_pass(self) -> Pass:
        p = Pass()
        now = self.clock.now
        tracer = self.tracer
        if tracer is not None:
            p.span_lo = tracer.mark()
            counts_before = Counter(tracer.counts)
            tracer.roots.clear()
        p.setup_ns, built = self.setup()
        if tracer is not None:
            p.setup_span_hi = tracer.mark()
        t_pass = now()
        for spec, cfg, runner, run_id in built:
            if tracer is not None:
                tracer.run_id = run_id
            label = spec.label
            self.attempted += 1
            try:
                problem = self.run_and_check(p, spec, cfg, runner)
            except Exception as exc:  # the run itself is at fault
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                self.failed += 1
                p.failures.append(f"{label}: {problem}")
        p.wall_ns = now() - t_pass
        p.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            p.span_hi = tracer.mark()
            p.counts = tracer.counts - counts_before
            p.counts["proofsys.commitment_root.distinct"] = len(tracer.roots)
        return p

    def run_and_check(self, p: Pass, spec, cfg, runner) -> Optional[str]:
        now = self.clock.now
        label = spec.label
        timer = self.timer
        fired_before = Counter(timer.fired)
        timer.sums[:] = [0.0, 0, 0.0, 0]
        timer.cut = cfg.end_time // 8
        timer.runner = runner
        if self.tracer is not None:
            self.tracer.main_run = True
        t0 = now()
        try:
            trace = runner.run()
        finally:
            t1 = now()
            timer.runner = None
            if self.tracer is not None:
                self.tracer.main_run = False
        p.run_ns[label] = t1 - t0
        p.events[label] = len(trace.events)
        kinds = Counter(e["kind"] for e in trace.events)
        p.blocks[label] = kinds["doge_block"]
        p.rejected += kinds["action_rejected"]
        p.fired[label] = timer.fired - fired_before
        p.horizon_sums = [a + b for a, b in zip(p.horizon_sums, timer.sums)]

        digest = trace.digest()
        p.digests[label] = digest
        if self.first_digest.setdefault(label, digest) != digest:
            return "trace digest differs from an earlier pass"
        if spec.full_check:
            trace.write(self.trace_path)
            back = self.runner_mod.Trace.read(self.trace_path)
            if back.digest() != digest:
                return "trace changed on write and read back"
            trace = back
        report = self.audit_mod.audit(trace.events)
        if not report.ok:
            return f"audit: {len(report.violations)} violations, first {report.violations[0]}"
        if spec.full_check:
            replay = self.runner_mod.replay_check(cfg, trace)
            if not replay:
                return f"replay diverged: {replay.detail}"
        if self.golden is not None:
            want = self.golden["runs"].get(label)
            if want is None:
                return "no golden entry"
            got = {"digest": digest, "events": p.events[label], "blocks": p.blocks[label],
                   "fired": dict(sorted(p.fired[label].items()))}
            for key, value in got.items():
                if want.get(key) != value:
                    return f"golden {key} mismatch: {want.get(key)} != {value}"
        return None

    # -- the closed loop -----------------------------------------------------------

    def loop(self, seconds: float) -> List[Pass]:
        passes = []
        deadline = time.monotonic() + seconds
        while True:
            passes.append(self.one_pass())
            if time.monotonic() >= deadline:
                return passes


def end_to_end(bench: Bench, passes: List[Pass]) -> Dict[str, float]:
    setups = [q.setup_ns for q in passes]
    deadline = time.monotonic() + SETUP_EXTRA_S
    while len(setups) < SETUP_SAMPLES[0] or (
            len(setups) < SETUP_SAMPLES[1] and time.monotonic() < deadline):
        setups.append(bench.setup()[0])
    steps = bench.timer.samples
    eps = [sum(q.events.values()) / (sum(q.run_ns.values()) / NS) for q in passes]
    return {
        "setup_s": _median(setups) / NS,
        "wall_s": _median([q.wall_ns for q in passes]) / NS,
        "events_per_s": _median(eps),
        "step_ms_p50": _percentile(steps, 0.50) / 1e6,
        "step_ms_p98": _percentile(steps, 0.98) / 1e6,
        "horizon_ratio": _median([horizon_ratio(bench, q) for q in passes]),
        # After the first pass: later passes repeat its work, and only the
        # benchmark's own records would keep growing.
        "peak_rss_mib": passes[0].peak_rss_kib / 1024,
    }


def horizon_ratio(bench: Bench, p: Pass) -> float:
    """Host cost per trace event over a long horizon divided by that over a short one.

    On long_horizon: the x8 runs over the x1 runs.  The other workloads have
    no x8 run; there it is whole runs over the first eighth of their
    simulated time, counting only steps other than doge_block, whose PoW
    search costs the same per block at any horizon but varies by seed.
    """
    longs = [s.label for s in bench.specs if s.horizon > 1]
    if longs:
        shorts = [s.label for s in bench.specs if s.horizon == 1]
        long_cost = sum(p.run_ns[x] for x in longs) / sum(p.events[x] for x in longs)
        short_cost = sum(p.run_ns[x] for x in shorts) / sum(p.events[x] for x in shorts)
        return long_cost / short_cost
    ns, ev, early_ns, early_ev = p.horizon_sums
    return (ns / ev) / (early_ns / early_ev)


def per_layer(bench: Bench, reference: Pass, passes: List[Pass], names: List[str]) -> tuple:
    """Per-layer metrics of the traced passes, plus a list of problems found."""
    tracer = bench.tracer
    problems: List[str] = []
    selfs = [tracer.self_times(q.span_lo, q.span_hi) for q in passes]
    calls = [tracer.span_calls(q.span_lo, q.span_hi) for q in passes]
    counts = [q.counts for q in passes]
    if any(x != calls[0] for x in calls[1:]) or any(x != counts[0] for x in counts[1:]):
        problems.append("call counts differ between traced passes of the same inputs")
    for attr in ("digests", "events", "blocks", "fired"):
        if not all(getattr(q, attr) == getattr(reference, attr) for q in passes):
            problems.append(f"traced run changed {attr} against the untraced reference pass")
    c, k = calls[0], counts[0]

    def self_s(span: str) -> float:
        return _median([s.get(span, 0.0) for s in selfs]) / NS

    out: Dict[str, float] = {}
    fired = Counter()
    for f in passes[0].fired.values():
        fired.update(f)
    attempts = k["chainsim.search_pow.attempts"]
    headers = c["chainsim.search_pow"]
    actions = k["agents.actions"]
    traced_wall = _median([q.wall_ns for q in passes])
    attributed = _median([sum(tracer.self_times(q.setup_span_hi, q.span_hi).values()) for q in passes])
    for name in names:
        if name.startswith("scheduler.fired."):
            out[name] = fired[name[len("scheduler.fired."):]]
        elif name.endswith(".self_s"):
            out[name] = self_s(name[: -len(".self_s")])
        elif name.endswith(".calls"):
            out[name] = c[name[: -len(".calls")]]
        elif name.endswith(".rejected"):
            out[name] = k[name]
        elif name in ("chainsim.visible_view.blocks_copied", "chainsim.search_pow.attempts",
                      "merkle.merkle_root.leaves", "bridge.state_digest.bytes"):
            out[name] = k[name]
    out["chainsim.pow_recompute_per_block"] = (c["chainsim.pow_digest"] - attempts) / headers if headers else 0.0
    out["proofsys.commitment_root.distinct_ratio"] = (
        k["proofsys.commitment_root.distinct"] / c["proofsys.commitment_root"]
        if c["proofsys.commitment_root"] else 0.0)
    out["agents.action_reject_ratio"] = passes[0].rejected / actions if actions else 0.0
    out["chainsim.blocks_mined"] = sum(passes[0].blocks.values())
    out["harness.trace_events"] = sum(passes[0].events.values())
    out["harness.unattributed_s"] = (traced_wall - attributed) / NS
    out["harness.trace_overhead_s"] = (traced_wall - reference.wall_ns) / NS

    gaps = [m for m in bench.workload.must_call if c[m] == 0]
    gaps += [m for m in bench.workload.must_not_call if c[m] != 0]
    out["bench.coverage_gaps"] = len(gaps)
    for m in gaps:
        print(f"pegbench: coverage: {m} has {c[m]} calls on {bench.workload.name}", file=sys.stderr)
    return out, problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record golden digests and counts for this workload at seed 0")
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "pegsim")):
        _fail_usage(f"no simulator source under {os.path.join(ROOT, 'src')}")
    if not os.path.isdir(os.path.join(ROOT, "scenarios")):
        _fail_usage("no scenario corpus")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    import pegsim  # noqa: F401  (loads every layer before any wrapper is installed)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail_usage(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    if args.write_golden and args.seed != 0:
        _fail_usage("golden values are recorded at seed 0 only")
    bench = Bench(WORKLOADS[args.workload], args.seed, bool(args.trace) or args.write_golden)
    if args.write_golden:
        bench.golden = None

    problems: List[str] = []
    if not bench.trace:
        passes = bench.loop(args.seconds)
        metrics = end_to_end(bench, passes)
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        from probes import Tracer

        reference = bench.one_pass()
        bench.tracer = Tracer(bench.clock)
        bench.tracer.install()
        for site in bench.tracer.sites:
            print(f"# wrapped {site}")
        for site in bench.tracer.missing:
            print(f"pegbench: not found, not traced: {site}", file=sys.stderr)
        passes = bench.loop(args.seconds)
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, problems = per_layer(bench, reference, passes, names)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        n_spans = bench.tracer.write(spans_path)
        print(f"# {n_spans} spans written to {os.path.relpath(spans_path, ROOT)}")

    failures = [f for q in passes for f in q.failures]
    if bench.trace:
        failures += reference.failures
    for f in failures:
        print(f"pegbench: FAILED {f}", file=sys.stderr)
    for p in problems:
        print(f"pegbench: FAILED {p}", file=sys.stderr)

    if args.write_golden:
        q = reference
        golden = {}
        if os.path.exists(GOLDEN):
            with open(GOLDEN, encoding="utf-8") as fh:
                golden = json.load(fh)
        golden[args.workload] = {
            "search_attempts": metrics["chainsim.search_pow.attempts"],
            "runs": {label: {"digest": q.digests[label], "events": q.events[label],
                             "blocks": q.blocks[label], "fired": dict(sorted(q.fired[label].items()))}
                     for label in q.digests},
        }
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"# golden values for {args.workload} written to {os.path.relpath(GOLDEN, ROOT)}")
    elif bench.trace and bench.golden is not None:
        want = bench.golden.get("search_attempts")
        if want != metrics["chainsim.search_pow.attempts"]:
            problems.append(f"golden search attempts {want} != {metrics['chainsim.search_pow.attempts']}")
            print(f"pegbench: FAILED {problems[-1]}", file=sys.stderr)

    missing = [n for n in names if n not in metrics]
    if missing:
        _fail_usage(f"metrics not computed: {', '.join(missing)}")
    print(f"# workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"runs/pass={len(bench.specs)} steps={len(bench.timer.samples)} "
          f"host_speed={bench.clock.speed():.2f}")
    for n in names:
        print(f"{n:48s} {metrics[n]:>16.6f} {units[n]}")
    correct = not failures and not problems
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
