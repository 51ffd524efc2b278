"""Instrumentation installed from outside the simulator.

Two levels:

* `StepTimer` is always on.  It wraps the handler the runner hands to
  `EventQueue.run_until`, so every scheduler event of a timed run yields one
  host-time sample and one `scheduler.fired.<kind>` count.
* `Tracer` is on only for `--trace 1`.  It replaces each public layer
  function at every name its callers look it up by (module globals such as
  `pegsim.harness.runner.visible_view`, `pegsim.agents.commitment_root`,
  `merkle_root` in both `chainsim` and `proofsys`, and methods on their
  classes), and records one span (name, start, end, parent, run id) per call
  into flat arrays.  Self time is derived afterwards as a span's duration
  minus the durations of its direct children.

Neither level changes what the simulator computes: the benchmark checks that
traced and untraced runs produce identical trace digests and counts.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

# Public BridgeContract calls; each reports bridge.<call>.{calls,rejected}.
BRIDGE_CALLS = (
    "open_bridge", "register_crossing", "expire_registrations", "become_relayer",
    "withdraw_relayer_deposit", "submit_extension", "accept_on_timeout",
    "challenge_range", "challenge_commitment", "supply_proof", "resolve_proof",
    "report_lock", "burn_wow", "report_unlock", "unlock_timeout",
    "report_missing_doge", "backtrack", "propose_deep_backtrack",
    "object_deep_backtrack", "finalize_deep_backtrack", "chunked_backtrack",
    "wow_transfer",
)

# Module-level functions: (defining module, attribute, span name).
FUNCTIONS = (
    ("pegsim.chainsim", "visible_view", "chainsim.visible_view"),
    ("pegsim.chainsim", "pow_digest", "chainsim.pow_digest"),
    ("pegsim.chainsim", "search_pow", "chainsim.search_pow"),
    ("pegsim.merkle", "merkle_root", "merkle.merkle_root"),
    ("pegsim.proofsys", "commitment_root", "proofsys.commitment_root"),
    ("pegsim.proofsys", "prove_extension_for", "proofsys.prove_extension_for"),
    ("pegsim.proofsys", "verify_extension_proof", "proofsys.verify_extension_proof"),
    ("pegsim.proofsys", "oracle_verify", "proofsys.oracle_verify"),
    ("pegsim.harness.config", "load_config", "harness.load_config"),
    ("pegsim.harness.audit", "audit", "harness.audit"),
    ("pegsim.harness.runner", "replay_check", "harness.replay_check"),
)

# Methods: (module, class, method, span name).
METHODS = (
    ("pegsim.chainsim", "ChainView", "add_block", "chainsim.add_block"),
    ("pegsim.chainsim", "ChainView", "path_blocks", "chainsim.path_blocks"),
    ("pegsim.bridge", "BridgeContract", "state_digest", "bridge.state_digest"),
    ("pegsim.bridge", "BridgeContract", "aggregates", "bridge.aggregates"),
    ("pegsim.harness.runner", "Trace", "write", "harness.trace_io"),
    ("pegsim.harness.runner", "Trace", "read", "harness.trace_io"),
) + tuple(("pegsim.bridge", "BridgeContract", call, f"bridge.{call}") for call in BRIDGE_CALLS)


class StepTimer:
    """Host time per scheduler event of the run being timed.

    Besides every step's time it sums, over the steps that are not PoW block
    production (`doge_block`), host time and trace events for the whole run
    and for its steps at or before `cut`.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.runner = None  # only this runner's steps are sampled
        self.cut = 0  # simulated time that ends the early part of the run
        self.samples = array("d")  # host ns per step
        self.fired: Counter = Counter()
        self.sums = [0.0, 0, 0.0, 0]  # ns, events; whole run, then early part
        from pegsim import scheduler

        original = scheduler.EventQueue.run_until
        timer = self

        def run_until(queue, t_end, handler):
            runner = getattr(handler, "__self__", None)
            if runner is None or runner is not timer.runner:
                return original(queue, t_end, handler)
            now = timer.clock.now
            samples, fired, sums = timer.samples, timer.fired, timer.sums
            events = runner.events

            def timed(at, event):
                n = len(events)
                t0 = now()
                handler(at, event)
                dt = now() - t0
                samples.append(dt)
                kind = event[0]
                fired[kind] += 1
                if kind != "doge_block":
                    ev = len(events) - n
                    sums[0] += dt
                    sums[1] += ev
                    if at <= timer.cut:
                        sums[2] += dt
                        sums[3] += ev

            return original(queue, t_end, timed)

        scheduler.EventQueue.run_until = run_until


class Tracer:
    """Span recorder plus the per-call counters the per-layer metrics need."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.run_id = 0
        self.counts: Counter = Counter()
        self.roots: set = set()
        self.main_run = False  # set while the benchmark's own run() executes
        self.sites: List[str] = []  # every name a wrapper was installed at
        self.missing: List[str] = []  # layer functions not found

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def enter(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(self.clock.now())
        return i

    def leave(self, i: int) -> None:
        self.end[i] = self.clock.now()
        self.stack.pop()

    def innermost(self) -> Optional[str]:
        return self.names[self.name[self.stack[-1]]] if self.stack else None

    def mark(self) -> int:
        return len(self.name)

    def self_times(self, lo: int, hi: int) -> Dict[str, float]:
        """Self time in ns per span name over spans [lo, hi)."""
        child = defaultdict(float)
        parent, start, end = self.parent, self.start, self.end
        for i in range(lo, hi):
            p = parent[i]
            if p >= lo:
                child[p] += end[i] - start[i]
        out: Dict[str, float] = defaultdict(float)
        names, name = self.names, self.name
        for i in range(lo, hi):
            out[names[name[i]]] += end[i] - start[i] - child.get(i, 0.0)
        return out

    def span_calls(self, lo: int, hi: int) -> Counter:
        c = Counter(self.name[lo:hi])
        return Counter({self.names[k]: v for k, v in c.items()})

    def write(self, path: str) -> int:
        """Write every span as one gzipped TSV line: name, start_ns, end_ns, parent, run."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("# span\tname\tstart_ns\tend_ns\tparent\trun\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(f"{i}\t{names[self.name[i]]}\t{self.start[i]:.0f}\t{self.end[i]:.0f}"
                         f"\t{self.parent[i]}\t{self.run[i]}\n")
        return len(self.name)

    # -- installation ----------------------------------------------------------

    def _wrap(self, fn: Callable, span: str, after: Optional[Callable] = None,
              on_error: Optional[Callable] = None) -> Callable:
        sid = self.name_id(span)
        enter, leave = self.enter, self.leave

        def wrapper(*args, **kwargs):
            i = enter(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(i)
                if on_error is not None:
                    on_error()
                raise
            leave(i)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def _patch_everywhere(self, original: Callable, wrapper: Callable, attr: str) -> None:
        """Rebind `attr` in every loaded pegsim module that holds `original`."""
        for modname, module in sorted(sys.modules.items()):
            if (modname == "pegsim" or modname.startswith("pegsim.")) and \
                    getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                self.sites.append(f"{modname}.{attr}")

    def install(self) -> None:
        import pegsim.agents as agents
        import pegsim.bridge as bridge

        counts, roots = self.counts, self.roots

        def count(key: str, fn: Callable) -> Callable:
            def after(args, result):
                counts[key] += fn(args, result)
            return after

        def bump(key: str) -> Callable:
            def on_error():
                counts[key] += 1
            return on_error

        def remember_root(args, result):
            roots.add(result)

        after = {
            "chainsim.visible_view": count("chainsim.visible_view.blocks_copied",
                                           lambda a, r: len(r.blocks)),
            "chainsim.search_pow": count("chainsim.search_pow.attempts", lambda a, r: r[1]),
            "merkle.merkle_root": count("merkle.merkle_root.leaves", lambda a, r: len(a[0])),
            "proofsys.commitment_root": remember_root,
        }
        # A layer function that no longer exists is skipped: its metrics read
        # 0 and the workload's coverage check reports the gap.
        for modname, attr, span in FUNCTIONS:
            original = getattr(sys.modules[modname], attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._patch_everywhere(original, self._wrap(original, span, after.get(span)), attr)

        for modname, cls_name, method, span in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            original = getattr(cls, method, None)
            if original is None:
                self.missing.append(f"{modname}.{cls_name}.{method}")
                continue
            on_error = bump(f"{span}.rejected") if method in BRIDGE_CALLS else None
            setattr(cls, method, self._wrap(original, span, on_error=on_error))
            self.sites.append(f"{modname}.{cls_name}.{method}")

        # One span name per policy class; the base class owns step().
        step = agents.Policy.step
        ids = {cls: self.name_id(f"agents.{cls.__name__}.step") for cls in agents.POLICIES.values()}
        enter, leave = self.enter, self.leave

        def policy_step(policy, obs, priv):
            i = enter(ids[type(policy)])
            try:
                actions, new_priv = step(policy, obs, priv)
            finally:
                leave(i)
            if self.main_run:
                counts["agents.actions"] += sum(1 for a in actions if a.kind != "idle")
            return actions, new_priv

        agents.Policy.step = policy_step
        self.sites.append("pegsim.agents.Policy.step")

        # Bytes hashed by state_digest: the canonical JSON document it hashes.
        sha256 = bridge.sha256

        def counting_sha256(data):
            if self.innermost() == "bridge.state_digest":
                counts["bridge.state_digest.bytes"] += len(data)
            return sha256(data)

        bridge.sha256 = counting_sha256
        self.sites.append("pegsim.bridge.sha256")
