"""Golden trace digests: every corpus scenario, at its committed seed, must
reproduce the trace digest, event count and scheduler events handled per
kind (`fired`) recorded in pegbench/golden.json,
also with every policy param it leaves unset written out at the value the
policies fell back to before their params were declared; those values must
also be the declared defaults.  The long-horizon runs (fuzz_random at seed
offsets 0-2, at x1 and x8 its end.sim_time) must reproduce their digest,
event count, blocks mined and `fired`, and so must two_rates with scrypt PoW
at its committed seed.  Every event kind the contract emits
is in a corpus trace, or is listed in REACHED_OUTSIDE_THE_CORPUS with the test
that reaches it, and none is a kind the runner records itself.

A change that alters behaviour on purpose re-records the goldens with
`python3 pegbench/run.py --workload <corpus|long_horizon|scrypt_pow> --seed 0 --write-golden` and says
why in CHANGES.md.
"""

import ast
import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from pegsim import bridge
from pegsim.harness import load_config, parse_config, run
from pegsim.harness import runner as runner_module

from conftest import corpus_run, counted_run

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
GOLDENS = json.loads((ROOT / "pegbench" / "golden.json").read_text())
GOLDEN = GOLDENS["corpus"]["runs"]
LONG_HORIZON = [(offset, horizon) for offset in range(3) for horizon in (1, 8)]


def test_every_scenario_has_a_golden():
    assert SCENARIOS
    assert {f"{p.stem}+0" for p in SCENARIOS} == set(GOLDEN)


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_trace_matches_golden(path):
    trace, fired = corpus_run(path.stem)
    want = GOLDEN[f"{path.stem}+0"]
    assert (trace.digest(), len(trace.events)) == (want["digest"], want["events"])
    assert fired == want["fired"]


# The contract event kinds that no corpus trace holds, each with the test that reaches it.  A kind that
# a corpus trace starts to hold, or a new kind that none does, fails the ledger until this is edited.
FUZZER = "tests/test_contract_fuzz.py::test_contract_state_machine"
REACHED_OUTSIDE_THE_CORPUS = {
    "registration_expired": FUZZER,
    "report_ignored": FUZZER,
    "challenge_range_ignored": FUZZER,
    "withdraw_relayer": FUZZER,
    "wow_transfer": FUZZER,
    "deep_proposed": FUZZER,
    "deep_objected": FUZZER,
    "deep_cancelled": FUZZER,
    "deep_finalized": FUZZER,
}


def called_kinds(module, method):
    """The first argument of each call of method in module's source."""
    tree = ast.parse(Path(module.__file__).read_text())
    return {node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == method}


def contract_event_kinds():
    """The event kinds BridgeContract can emit: the first argument of each _emit call in bridge.py."""
    return called_kinds(bridge, "_emit")


def runner_event_kinds():
    """The event kinds the runner records itself: the first argument of each _record call in runner.py."""
    return called_kinds(runner_module, "_record")


def test_the_contract_emits_no_kind_the_runner_records_itself():
    """Of the runner's own kinds only genesis computes a snapshot; the rest carry the snapshot of the event
    before them, which is sound only while no contract call writes them."""
    assert runner_event_kinds() == {"genesis", "doge_block", "doge_tx", "action_rejected", "run_summary"}
    assert not contract_event_kinds() & runner_event_kinds()


def test_every_contract_event_kind_is_in_the_corpus_or_reached_elsewhere():
    in_corpus = {event["kind"] for path in SCENARIOS for event in corpus_run(path.stem)[0].events}
    assert contract_event_kinds() - in_corpus == set(REACHED_OUTSIDE_THE_CORPUS)


def long_horizon_label(offset, horizon):
    return f"fuzz_random{'/x8' if horizon == 8 else ''}+{offset}"


def test_every_long_horizon_golden_is_run():
    runs = GOLDENS["long_horizon"]["runs"]
    assert {label.split("#")[0] for label in runs} == {long_horizon_label(*run) for run in LONG_HORIZON}


def assert_run_matches(config, want):
    """The run's trace digest, event count, blocks mined and `fired` are the golden's."""
    trace, fired = counted_run(config)
    blocks = sum(e["kind"] == "doge_block" for e in trace.events)
    assert (trace.digest(), len(trace.events), blocks) == (want["digest"], want["events"], want["blocks"])
    assert fired == want["fired"]


@pytest.mark.parametrize("offset,horizon", LONG_HORIZON, ids=[long_horizon_label(*r) for r in LONG_HORIZON])
def test_long_horizon_trace_matches_golden(offset, horizon):
    config = load_config(str(ROOT / "scenarios" / "fuzz_random.json"))
    config = dataclasses.replace(config, seed=config.seed + offset, end_time=config.end_time * horizon)
    assert_run_matches(config, GOLDENS["long_horizon"]["runs"][long_horizon_label(offset, horizon)])


def test_scrypt_trace_matches_golden():
    """two_rates with scrypt PoW: the one golden run whose nonce search is not sha256d's."""
    config = dataclasses.replace(load_config(str(ROOT / "scenarios" / "two_rates.json")), pow_fn="scrypt")
    assert_run_matches(config, GOLDENS["scrypt_pow"]["runs"]["two_rates/scrypt+0"])


# Every policy key a scenario may leave unset, at the value the policies fell
# back to before each key was declared (their `params.get(key, default)` reads).
# `cross` was read as `params.get("cross")`, for which false is the same.
PARENT_DEFAULTS = {
    "honest_relayer": {"online_at": 0},
    "lazy_relayer": {"activate_at": 0},
    "orphan_attacker": {"activate_at": 0},
    "high_range_attacker": {"activate_at": 0, "overshoot": 60},
    "false_challenger": {"activate_at": 0, "rounds": 1},
    "dos_challenger": {"activate_at": 0, "rounds": 3},
    "rational_operator": {"open_at": 0, "burn_bounty": 0, "crossing_fee": 0},
    "honest_crosser": {"crossings": 1, "register": True, "lock_bounty": 0},
    "vigilant_hodler": {"crossings": 1, "register": True, "lock_bounty": 0, "cross": False,
                        "report_missing": True, "burn_on_rate": True, "headroom": "1/10"},
    "greedy_reporter": {},
}
REQUIRED = {"rational_operator": {"y", "collateral"}, "honest_crosser": {"y"}, "vigilant_hodler": {"y"}}
# keys whose unset meaning has no value to write out: the bridge's capacity, never, no cap
NO_DEFAULT = {"honest_crosser": {"amount"}, "vigilant_hodler": {"amount", "burn_at", "burn_amount"}}


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_defaults_written_out_match_golden(path):
    doc = json.loads(path.read_text())
    for agent in doc["agents"]:
        agent["params"] = {**PARENT_DEFAULTS[agent["policy"]], **agent.get("params", {})}
    trace = run(parse_config(doc))
    want = GOLDEN[f"{path.stem}+0"]
    assert (trace.digest(), len(trace.events)) == (want["digest"], want["events"])


def test_declared_params_are_the_parent_defaults():
    from pegsim.agents import POLICIES, declared_defaults

    assert set(POLICIES) == set(PARENT_DEFAULTS)
    for policy, cls in POLICIES.items():
        table = PARENT_DEFAULTS[policy]
        assert set(cls.PARAMS) == set(table) | REQUIRED.get(policy, set()) | NO_DEFAULT.get(policy, set())
        defaults = declared_defaults(cls.PARAMS)
        want = {key: Fraction(value) if isinstance(value, str) else value for key, value in table.items()}
        assert {key: (type(defaults[key]), defaults[key]) for key in table} == \
            {key: (type(value), value) for key, value in want.items()}
        assert all(defaults[key] is None for key in NO_DEFAULT.get(policy, ()))
