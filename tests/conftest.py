"""Hypothesis profiles, and the corpus runs the test modules share.

The default profile is small and derandomized, so the tier-1 suite draws the
same examples on every run.  `HYPOTHESIS_PROFILE=deep pytest tests/test_contract_fuzz.py`
gives the property tests a larger, randomized budget.  A test that fixes its
own `max_examples` keeps it under either profile.

`corpus_run` runs each corpus scenario at its committed seed once per test
session; the golden, acceptance and harness tests read those traces and must
not mutate them (one mutated before the golden tests run fails them).

`skipped_steps` shows a check each step the runner lets an agent sleep through.
"""

import contextlib
import functools
import os
from collections import Counter
from pathlib import Path

import pytest
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


@contextlib.contextmanager
def skipped_steps(visit):
    """While open, each step a SimulationRunner skips, by the per-agent rule or with its whole turn, is
    passed as visit(runner, agent, obs), obs the observation the step would have had.  Yields a Counter
    of those steps by policy class; its "whole turns" key counts the turns skipped whole."""
    asleep, take_turns = SimulationRunner._asleep, SimulationRunner._take_turns
    handle = SimulationRunner._handle
    skipped, taken = Counter(), [0]

    def skip(runner, agent):
        now = runner.contract.now_s
        obs = runner._observe(agent, runner.view.best_tip(now - agent.visibility_delay_s),
                              runner.config.rate_path.segment(now)[0])
        visit(runner, agent, obs)
        skipped[type(agent.policy)] += 1

    def checked_asleep(runner, agent):
        if not asleep(runner, agent):
            return False
        skip(runner, agent)
        return True

    def checked_handle(runner, t, event):
        before = taken[0]
        handle(runner, t, event)
        if event[0] == "turns" and taken[0] == before:  # skipped whole
            skipped["whole turns"] += 1
            for agent in runner.agents:
                assert asleep(runner, agent), (agent.policy.name, t)
                skip(runner, agent)

    def counted_turns(runner, t):
        taken[0] += 1
        take_turns(runner, t)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimulationRunner, "_asleep", checked_asleep)
        patch.setattr(SimulationRunner, "_handle", checked_handle)
        patch.setattr(SimulationRunner, "_take_turns", counted_turns)
        yield skipped
