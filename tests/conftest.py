"""Hypothesis profiles, and the corpus runs the test modules share.

The default profile is small and derandomized, so the tier-1 suite draws the
same examples on every run.  `HYPOTHESIS_PROFILE=deep pytest tests/test_contract_fuzz.py`
gives the property tests a larger, randomized budget.  A test that fixes its
own `max_examples` keeps it under either profile.

`corpus_run` runs each corpus scenario at its committed seed once per test
session; the golden, acceptance and harness tests read those traces and must
not mutate them (one mutated before the golden tests run fails them).
"""

import functools
import os
from collections import Counter
from pathlib import Path

from hypothesis import settings

from pegsim.harness import SimulationRunner, load_config

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

settings.register_profile("default", max_examples=60, stateful_step_count=30, derandomize=True, deadline=None)
settings.register_profile("deep", max_examples=1_000, stateful_step_count=50, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def counted_run(config):
    """The trace of a run, and the scheduler events the runner handled in it, by kind."""
    runner, fired = SimulationRunner(config), Counter()
    handle = runner._handle

    def counted(t, event):
        fired[event[0]] += 1
        handle(t, event)

    runner._handle = counted
    return runner.run(), fired


@functools.cache
def corpus_run(name):
    """counted_run of the corpus scenario `name` at its committed seed."""
    return counted_run(load_config(str(SCENARIO_DIR / f"{name}.json")))
