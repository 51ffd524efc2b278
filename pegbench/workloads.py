"""The benchmark's workloads, derived in memory from the bundled scenario corpus.

A workload is a list of scenario runs (`RunSpec`).  One pass of a workload
performs each run once; the benchmark repeats passes in a closed loop.  The
workload seed `n` is added to each scenario's own seed: a workload with `V`
variants runs every scenario at offsets `n*V .. n*V+V-1`, so different seeds
give disjoint inputs and seed 0 is the corpus as committed.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class RunSpec:
    scenario: str  # corpus file stem
    offset: int  # added to the scenario's seed
    horizon: int = 1  # multiplier on end.sim_time
    pow_fn: Optional[str] = None  # override of pow.fn
    full_check: bool = False  # also write, read back and replay the trace
    rep: int = 0  # repetition of the same run within a pass

    @property
    def label(self) -> str:
        parts = [self.scenario]
        if self.horizon != 1:
            parts.append(f"x{self.horizon}")
        if self.pow_fn:
            parts.append(self.pow_fn)
        return f"{'/'.join(parts)}+{self.offset}" + (f"#{self.rep}" if self.rep else "")

    def config(self, scenarios_dir: str, load_config: Callable):
        cfg = load_config(os.path.join(scenarios_dir, self.scenario + ".json"))
        return dataclasses.replace(
            cfg,
            seed=cfg.seed + self.offset,
            end_time=cfg.end_time * self.horizon,
            pow_fn=self.pow_fn or cfg.pow_fn,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    variants: int
    runs: Callable[[List[str], int], List[RunSpec]]  # (corpus stems, offset) -> runs
    # Per-layer metrics that must record at least one call on this workload,
    # and those that must record none.
    must_call: Tuple[str, ...]
    must_not_call: Tuple[str, ...] = ()
    kernel: str = "python"  # reference kernel of the normalised clock (refclock.KERNELS)

    def specs(self, corpus: List[str], seed: int) -> List[RunSpec]:
        out: List[RunSpec] = []
        for v in range(self.variants):
            out.extend(self.runs(corpus, seed * self.variants + v))
        return out


X1_REPEATS = 4

_CORE = ("chainsim.search_pow", "chainsim.pow_digest", "chainsim.add_block",
         "bridge.state_digest", "bridge.aggregates", "harness.audit")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="corpus",
            variants=1,
            runs=lambda corpus, off: [RunSpec(s, off, full_check=True) for s in corpus],
            must_call=_CORE + (
                "chainsim.visible_view", "chainsim.path_blocks", "merkle.merkle_root",
                "proofsys.commitment_root", "proofsys.prove_extension_for",
                "proofsys.verify_extension_proof", "proofsys.oracle_verify",
                "harness.load_config", "harness.replay_check", "harness.trace_io",
                "agents.HonestRelayer.step", "agents.LazyRelayer.step",
                "agents.OrphanAttacker.step", "agents.HighRangeAttacker.step",
                "agents.DosChallenger.step", "agents.FalseChallenger.step",
                "agents.RationalOperator.step", "agents.HonestCrosser.step",
                "agents.VigilantHodler.step", "agents.GreedyReporter.step",
            ),
        ),
        Workload(
            name="long_horizon",
            variants=3,
            # The x1 run is short, so it is repeated to time it as steadily as x8.
            runs=lambda corpus, off: [RunSpec("fuzz_random", off, 1, rep=r) for r in range(X1_REPEATS)]
            + [RunSpec("fuzz_random", off, 8)],
            must_call=_CORE + (
                "chainsim.visible_view", "chainsim.path_blocks", "merkle.merkle_root",
                "proofsys.commitment_root",
                "agents.HonestRelayer.step", "agents.RationalOperator.step",
                "agents.VigilantHodler.step", "agents.GreedyReporter.step",
                "agents.OrphanAttacker.step", "agents.DosChallenger.step",
            ),
        ),
        Workload(
            name="scrypt_pow",
            variants=4,
            runs=lambda corpus, off: [RunSpec("two_rates", off, 1, pow_fn="scrypt")],
            must_call=_CORE + ("agents.HonestRelayer.step",),
            must_not_call=("chainsim.visible_view",),
            kernel="mixed",
        ),
    )
}
