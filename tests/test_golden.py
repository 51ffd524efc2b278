"""Golden trace digests: every corpus scenario, at its committed seed, must
reproduce the trace digest and event count recorded in pegbench/golden.json.

A change that alters behaviour on purpose re-records the goldens with
`python3 pegbench/run.py --workload corpus --seed 0 --write-golden` and says
why in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from pegsim.harness import load_config, run

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
GOLDEN = json.loads((ROOT / "pegbench" / "golden.json").read_text())["corpus"]["runs"]


def test_every_scenario_has_a_golden():
    assert SCENARIOS
    assert {f"{p.stem}+0" for p in SCENARIOS} == set(GOLDEN)


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_trace_matches_golden(path):
    trace = run(load_config(str(path)))
    want = GOLDEN[f"{path.stem}+0"]
    assert (trace.digest(), len(trace.events)) == (want["digest"], want["events"])
