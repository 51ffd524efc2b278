"""Harness tests: config validation, run/audit/replay, fault injection, CLI."""

import copy
import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import UnionType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegsim.agents import POLICIES
from pegsim.bridge import canonical_json
from pegsim.errors import ConfigError, ParseError, SimError
from pegsim.harness import audit, load_config, parse_config, replay_check, run
from pegsim.harness.audit import _AGG_FIELDS, SNAPSHOT_COPIES, AuditReport, Violation
from pegsim.harness.cli import main as cli_main
from pegsim.harness.runner import Trace

from conftest import corpus_run, skipped_steps
from test_contract_fuzz import CALLS, COLLATERALS, RATES, ContractMachine
from test_golden import runner_event_kinds

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
GOLDENS = json.loads((SCENARIO_DIR.parent / "pegbench" / "golden.json").read_text())
GOLDEN, LONG_HORIZON = GOLDENS["corpus"]["runs"], GOLDENS["long_horizon"]["runs"]
BASE = {
    "schema_version": 1,
    "name": "mini",
    "tags": [],
    "seed": 5,
    "clock": {"eth_block_seconds": 14, "doge_block_seconds": 62},
    "params": {"relay_tax": 0},
    "cost_model": {"base_cost": 100, "per_block_cost": 1, "latency_per_block_s": 2},
    "pow": {"target_bits": 250},
    "rate_path": [[0, "1/500"]],
    "agents": [
        {"name": "relay1", "policy": "honest_relayer", "eth": 20000},
    ],
    "end": {"sim_time": 3000},
}


OPERATOR = {"name": "op", "policy": "rational_operator", "eth": 1_100_000,
            "params": {"y": "1/1000", "collateral": 1_000_000}}
HODLER = {"name": "hodler", "policy": "vigilant_hodler", "eth": 50_000, "params": {"y": "1/1000"}}


def _set(where, **values):
    """A change to mini_config that updates the object at where (a key path) with values."""
    def change(doc):
        target = doc
        for key in where:
            target = target[key]
        target.update(values)
    return change


def _add(agent, **params):
    """A change to mini_config that adds agent with params merged into its own."""
    return lambda doc: doc["agents"].append({**agent, "params": {**agent["params"], **params}})


# Inputs refused with exit 2 and the field path named: an undeclared key in
# each kind of object, a value of the wrong type, a missing required key.
REFUSED = [
    pytest.param(_set((), zap=1), "zap", id="top-level-key"),
    pytest.param(_set(("clock",), eth_block_secs=14), "clock.eth_block_secs", id="clock-key"),
    pytest.param(_set(("params",), zap=1), "params.zap", id="params-key"),
    pytest.param(_set(("cost_model",), base=100), "cost_model.base", id="cost-model-key"),
    pytest.param(_set(("pow",), target_bit=250), "pow.target_bit", id="pow-key"),
    pytest.param(_set(("end",), wall_time=5), "end.wall_time", id="end-key"),
    pytest.param(_set(("agents", 0), visibility_delay=5), "agents[0].visibility_delay", id="agent-key"),
    pytest.param(_set(("agents", 0), params={"online": 5}), "agents[0].params.online", id="policy-key"),
    pytest.param(_set(("agents", 0), params={"online_at": "x"}), "agents[0].params.online_at",
                 id="online-at-string"),
    pytest.param(_add(HODLER, burn_at="soon"), "agents[1].params.burn_at", id="burn-at-string"),
    pytest.param(lambda doc: doc["agents"].append({**OPERATOR, "params": {"y": "1/1000"}}),
                 "agents[1].params.collateral", id="missing-collateral"),
    pytest.param(_set(("pow",), fn=[]), "pow.fn", id="pow-fn-list"),
    pytest.param(_set(("agents", 0), policy=[]), "agents[0].policy", id="policy-list"),
    pytest.param(_set((), name=5), "name", id="name-int"),
    pytest.param(_add(OPERATOR, head="ab" * 20), "agents[1].params.head", id="operator-head"),
]


def _edit(*path, to):
    """A change to a trace event that replaces the value at path (a key path) with to(value)."""
    def change(event):
        *keys, last = path
        for key in keys:
            event = event[key]
        event[last] = to(event[last])
    return change


# (corpus scenario, event kind, change, audit rule, part of its detail): the change edits one field of the
# first event of that kind in the scenario's trace, and the rule must flag that event's seq.
TAMPERED = [
    pytest.param("lifecycle_happy_path", "burn", _edit("seq", to=lambda n: n + 1), "SeqOrder", "expected seq 50",
                 id="SeqOrder"),
    pytest.param("lifecycle_happy_path", "mint", _edit("agg", "paid", to=lambda n: n + 1), "EthConservation",
                 "received", id="EthConservation"),
    pytest.param("lifecycle_happy_path", "burn", _edit("payload", "portions", 0, 0, to=lambda b: b + 1), "FIFO",
                 "burn touched [1]", id="FIFO"),
    pytest.param("lifecycle_happy_path", "burn_settled", _edit("payload", "d_recv", to=lambda d: d + 1),
                 "Invariant2", "d_recv 1001 outside [0, 1000]", id="Invariant2-d_recv"),
    pytest.param("lifecycle_happy_path", "burn_settled", _edit("payload", "eth_received", to=lambda n: n + 1),
                 "Invariant2", "eth 1 != (w-d)/y", id="Invariant2-eth"),
    pytest.param("lifecycle_happy_path", "mint", _edit("agg", "relay_mode", to=lambda m: "listening"),
                 "ModeExclusivity", "verification -> listening via mint", id="ModeExclusivity"),
    pytest.param("lifecycle_happy_path", "burn", _edit("agg", "used_tx_count", to=lambda n: n - 1),
                 "UsedTxMonotone", "1 -> 0", id="UsedTxMonotone"),
    pytest.param("lifecycle_happy_path", "mint", _edit("agg", "queues", to=lambda q: {}), "QueueDelta",
                 "running queues {'1/1000': [0]} vs snapshot {}", id="QueueDelta-mint"),
    pytest.param("missing_doge", "missing_doge_paid", _edit("agg", "queues", to=lambda q: {}), "QueueDelta",
                 "running queues {'1/1000': [0]} vs snapshot {}", id="QueueDelta-missing_doge_paid"),
    pytest.param("unregistered_cross", "run_summary", _edit("payload", "quiescent", to=lambda q: not q),
                 "Invariant3", "did not end quiescent", id="Invariant3-quiescent"),
    pytest.param("unregistered_cross", "run_summary", _edit("payload", "locked_on_best", "1/1000", to=lambda n: n - 1),
                 "Invariant3", "locked[1/1000]=999 != supply 1000", id="Invariant3-locked"),
]


def mini_config(**changes):
    doc = copy.deepcopy(BASE)
    doc.update(changes)
    return doc


# (change, message): a value of the right type outside its range, refused with its section named
OUT_OF_RANGE = [
    pytest.param(_set(("params",), c=0), "params: c must be >= 1", id="c-0"),
    *(pytest.param(_set(("params",), **{rate: value}), f"params: {rate} must be in (0, 1]", id=f"{rate}-{value}")
      for rate in ("registration_void_fee_rate", "nonmax_penalty_rate", "challenge_reward_rate")
      for value in ("0", "3/2")),
    pytest.param(_set(("params",), max_extension_len=19), "params: max_extension_len must be >= d",
                 id="max-extension-len-below-d"),
    *(pytest.param(_set(("params",), **{name: 0}), "params: all windows and delays must be positive", id=f"{name}-0")
      for name in ("registration_window_doge_blocks", "unlock_timeout_eth_blocks", "challenge_window_eth_blocks",
                   "proof_timeout_per_block_s", "deep_backtrack_delay_1_s", "deep_backtrack_delay_2_s")),
    pytest.param(_set(("clock",), eth_block_seconds=0), "clock: block intervals must be positive",
                 id="eth-block-seconds-0"),
    pytest.param(_set(("clock",), doge_interarrival="poisson"), "clock: unknown interarrival mode 'poisson'",
                 id="interarrival-poisson"),
    pytest.param(_set((), rate_path=[[0, "0"]]), "rate_path: rates must be positive", id="rate-0"),
    pytest.param(_set((), rate_path=[[0, "1/0"]]), "rate_path[0][1]: not a rational: Fraction(1, 0)", id="rate-1/0"),
]


# rate strings outside the n or n/d grammar that Fraction(str) would take or expand
OUTSIDE_THE_GRAMMAR = ["1e1000000", "0.001", " 1/1000", "1_000"]


class TestConfigValidation:
    def test_parses_base(self):
        config = parse_config(mini_config())
        assert config.seed == 5
        assert config.params.challenge_window_eth_blocks == 80

    def test_bad_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(mini_config(schema_version=2))

    def test_field_paths_in_errors(self):
        doc = mini_config()
        doc["agents"][0]["policy"] = "nope"
        with pytest.raises(ConfigError, match=r"agents\[0\]\.policy"):
            parse_config(doc)

    @pytest.mark.parametrize("section", ["clock", "params", "cost_model", "pow"])
    def test_sections_must_be_objects(self, section):
        with pytest.raises(ConfigError, match=f"^{section}: expected an object"):
            parse_config(mini_config(**{section: [1]}))

    def test_duplicate_agent_names(self):
        doc = mini_config()
        doc["agents"].append(dict(doc["agents"][0]))
        with pytest.raises(ConfigError, match=r"agents\[1\]\.name"):
            parse_config(doc)

    @pytest.mark.parametrize("names, bad", [(["relay1", "relay1"], 1), (["", "relay1"], 0),
                                            (["a", "b", "a"], 2)])
    def test_agent_name_error_text(self, names, bad):
        doc = mini_config()
        doc["agents"] = [dict(doc["agents"][0], name=name) for name in names]
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert str(err.value) == (f"agents[{bad}].name: expected a non-empty name no other agent has, "
                                  f"got {names[bad]!r}")

    def test_non_exact_y_rejected(self):
        doc = mini_config()
        doc["agents"][0] = {"name": "op", "policy": "rational_operator", "eth": 10,
                            "params": {"y": "2/3", "collateral": 9}}
        with pytest.raises(ConfigError, match=r"agents\[0\]\.params\.y"):
            parse_config(doc)

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match=r"params\.zap"):
            parse_config(mini_config(params={"zap": 1}))

    def test_bad_params_combination(self):
        with pytest.raises(ConfigError, match="params"):
            parse_config(mini_config(params={"k": 30, "d": 20}))

    @pytest.mark.parametrize("change, message", OUT_OF_RANGE)
    def test_a_value_out_of_its_range_is_refused_naming_its_section(self, change, message):
        doc = mini_config()
        change(doc)
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert str(err.value) == message

    def test_rate_path_must_start_at_zero(self):
        with pytest.raises(ConfigError, match=r"rate_path\[0\]"):
            parse_config(mini_config(rate_path=[[5, "1/500"]]))

    def test_window_recomputed_from_clock(self):
        doc = mini_config(clock={"eth_block_seconds": 10, "doge_block_seconds": 60})
        config = parse_config(doc)
        assert config.params.challenge_window_eth_blocks == 108  # ceil(18*60/10)

    @staticmethod
    def _rational_at(where, value):
        """mini_config with value as the rate_path rate, a ProtocolParams rate or a policy y."""
        doc = mini_config()
        if where == "rate_path":
            doc["rate_path"] = [[0, value]]
            return doc, "rate_path[0][1]"
        if where == "params":
            doc["params"]["challenge_reward_rate"] = value
            return doc, "params.challenge_reward_rate"
        doc["agents"].append({**OPERATOR, "params": {"y": value, "collateral": 1_000_000}})
        return doc, "agents[1].params.y"

    @pytest.mark.parametrize("where", ["rate_path", "params", "y"])
    @pytest.mark.parametrize("value", [True, [1.9, 500], [1.5, 1500], ["1", 500], [True, 500]],
                             ids=["bool", "float-numerator", "float-y", "string-entry", "bool-entry"])
    def test_rational_takes_integers_only(self, where, value):
        doc, path = self._rational_at(where, value)
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert str(exc.value).startswith(f"{path}: expected a rational")

    @pytest.mark.parametrize("where", ["rate_path", "params", "y"])
    def test_rational_forms_agree(self, where):
        read = {"rate_path": lambda c: c.rate_path.points[0][1],
                "params": lambda c: c.params.challenge_reward_rate,
                "y": lambda c: c.agents[1].params["y"]}[where]
        values = [read(parse_config(self._rational_at(where, v)[0])) for v in ("1/500", [1, 500], [2, 1000])]
        assert values == [Fraction(1, 500)] * 3


    @pytest.mark.parametrize("rate", OUTSIDE_THE_GRAMMAR)
    def test_rate_string_outside_the_grammar_is_refused_at_once(self, rate):
        doc = json.loads((SCENARIO_DIR / "lazy_relay.json").read_text())
        doc["rate_path"] = [[0, rate]]
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=r"rate_path\[0\]\[1\]: expected a rational"):
            parse_config(doc)
        assert time.perf_counter() - start < 1.0


class TestRunAndReplay:
    def test_deterministic_trace_digest(self):
        config = parse_config(mini_config())
        assert run(config).digest() == run(config).digest()

    def test_different_seed_diverges(self):
        config = parse_config(mini_config())
        t1 = run(config)
        t2 = run(config.with_seed(6))
        # the relay content differs even though block times are deterministic:
        # mining seeds derive from the scenario seed
        assert t1.digest() != t2.digest()

    def test_replay_check_self(self):
        config = parse_config(mini_config())
        trace = run(config)
        assert replay_check(config, trace)

    def test_replay_check_seed_mismatch(self):
        config = parse_config(mini_config())
        trace = run(config)
        result = replay_check(config.with_seed(6), trace)
        assert not result
        assert result.first_divergence is not None

    def test_replay_check_truncated(self):
        config = parse_config(mini_config())
        trace = run(config)
        truncated = Trace(trace.events[:-3])
        result = replay_check(config, truncated)
        assert not result
        assert result.first_divergence == len(truncated.events)

    @pytest.mark.parametrize("kind,field,value,named", [
        ("open_bridge", "payload", {"crossing_fee": 7}, "payload.crossing_fee: 7 vs 0"),
        ("open_bridge", "actor", "mallory", "actor: 'mallory' vs 'op1'"),
        ("doge_block", "t", 1, "t: 1 vs "),
    ], ids=["payload", "actor", "time"])
    def test_replay_check_compares_whole_events(self, kind, field, value, named):
        """A field the digest leaves out still diverges: the open_bridge crossing fee, an actor, a time."""
        config = load_config(str(SCENARIO_DIR / "lifecycle_happy_path.json"))
        events = [json.loads(line) for line in run(config).lines()]
        assert replay_check(config, Trace(events))  # a re-run equals its JSON round trip
        event = next(e for e in events if e["kind"] == kind)
        event[field] = {**event[field], **value} if isinstance(value, dict) else value
        result = replay_check(config, Trace(events))
        assert not result and result.first_divergence == event["seq"]
        assert f"event {event['seq']} ({kind}): {named}" in result.detail, result.detail


def dumps(value):
    """The canonical text canonical_json must give: one json.dumps with sorted keys and no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


CORPUS = sorted(p.stem for p in SCENARIO_DIR.glob("*.json"))


@functools.cache
def shared_snapshot_runs():
    """(name, trace) of fresh runs, not corpus_run's: each corpus scenario at seed offsets 0-2, then
    fuzz_random at x8.  A test that doctors one of these traces in place puts it back before it ends."""
    configs = [dataclasses.replace(config, seed=config.seed + offset)
               for config in (load_config(str(SCENARIO_DIR / f"{name}.json")) for name in CORPUS)
               for offset in range(3)]
    fuzz = load_config(str(SCENARIO_DIR / "fuzz_random.json"))
    configs.append(dataclasses.replace(fuzz, end_time=8 * fuzz.end_time))
    return [(f"{config.name} seed {config.seed} to {config.end_time}", run(config)) for config in configs]


class TestTraceText:
    """canonical_json is one C encoder built once, and a Trace keeps its lines: a run's trace encodes
    them once, and a read trace keeps the lines it parsed, so its digest is over the file's own text."""

    def test_every_corpus_event_encodes_as_json_dumps(self):
        assert len(CORPUS) == 16
        for name in CORPUS:
            trace, _ = corpus_run(name)
            for event, line in zip(trace.events, trace.lines(), strict=True):
                assert line == canonical_json(event) == dumps(event), (name, event["seq"])

    @pytest.mark.parametrize("value", ["é ☃ \U0001f600 \x00\"\\", "", None, True, False, 0, -7, 2**70,
                                       [], {}, [[], {}], {"b": {}, "a": [[]]}, {"ä": [None, True]}],
                             ids=repr)
    def test_a_top_level_value_encodes_as_json_dumps(self, value):
        assert canonical_json(value) == dumps(value)

    def test_a_failed_call_leaves_the_encoder_as_it_was(self):
        """The containers a failed call was inside are not remembered: fresh ones, which may reuse
        their ids, encode as well."""
        text = '{"a":null,"b":[1,{"c":"d"}]}'
        for bad in (b"x", {"k": [1, b"x"]}, [{"k": b"x"}]):
            with pytest.raises(TypeError, match="bytes is not JSON serializable"):
                canonical_json(bad)
            assert canonical_json(json.loads(text)) == text

    def test_a_written_trace_reads_back_its_own_text_without_encoding(self, tmp_path, monkeypatch):
        """For each corpus trace, a trace of one event and one of none: the lines read are the file's
        lines, and the digest over them is the run's, the SHA-256 of the lines joined by line feeds (of no
        bytes for no lines); reading and hashing them encodes nothing."""
        import pegsim.harness.runner as runner_mod

        def no_encoding(value):
            raise AssertionError("a read trace encoded an event")

        path = tmp_path / "trace.ndjson"
        first = corpus_run("lifecycle_happy_path")[0].events[:1]
        for name, trace in [*((name, corpus_run(name)[0]) for name in CORPUS),
                            ("one event", Trace(first)), ("no events", Trace([]))]:
            trace.write(str(path))
            with monkeypatch.context() as patch:
                patch.setattr(runner_mod, "canonical_json", no_encoding)
                back = Trace.read(str(path))
                assert back.lines() == path.read_text().splitlines(), name
                joined = hashlib.sha256("\n".join(back.lines()).encode()).hexdigest()
                assert back.digest() == trace.digest() == joined, name
            assert back.events == trace.events, name
        assert Trace([]).digest() == hashlib.sha256(b"").hexdigest()

    def test_a_read_trace_without_its_run_summary_has_no_summary(self, tmp_path):
        """A file cut before its last line reads to a trace with no run_summary event, and no summary."""
        path = tmp_path / "trace.ndjson"
        trace = corpus_run("lifecycle_happy_path")[0]
        assert trace.summary is trace.events[-1]["payload"]
        path.write_text("".join(line + "\n" for line in trace.lines()[:-1]))
        assert Trace.read(str(path)).summary is None

    def test_a_respaced_file_reads_to_the_same_events_but_not_the_same_text(self, tmp_path):
        """json.dumps's default separators give the same values in other bytes: the digest differs and
        replay refuses the file at event 0, while a new Trace of its events encodes afresh."""
        config = load_config(str(SCENARIO_DIR / "lifecycle_happy_path.json"))
        trace, _ = corpus_run("lifecycle_happy_path")
        path = tmp_path / "trace.ndjson"
        path.write_text("".join(json.dumps(event, sort_keys=True) + "\n" for event in trace.events))
        back = Trace.read(str(path))
        assert back.events == trace.events and back.lines() == path.read_text().splitlines()
        assert back.digest() != trace.digest()
        result = replay_check(config, back)
        assert not result and result.first_divergence == 0, result
        assert result.detail == "event 0 (genesis): the same values in other text"
        assert Trace(back.events).lines() == trace.lines()
        assert Trace(back.events).digest() == trace.digest()

    def test_a_new_trace_of_edited_events_encodes_them(self):
        trace, _ = corpus_run("lifecycle_happy_path")
        events = [json.loads(line) for line in trace.lines()]
        events[5]["actor"] = "mallory"
        edited = Trace(events)
        assert edited.lines() == [dumps(event) for event in events]
        assert [i for i, (a, b) in enumerate(zip(edited.lines(), trace.lines())) if a != b] == [5]
        assert edited.digest() != trace.digest()

    def test_each_line_of_a_run_is_its_events_canonical_encoding(self):
        """A run's trace encodes each snapshot object its events share once and splices that text into
        every line that holds it: each line is still canonical_json of its event."""
        runs = shared_snapshot_runs()
        assert len(runs) == 3 * len(CORPUS) + 1
        for name, trace in runs:
            shared = sum(e["agg"] is prev["agg"] for prev, e in zip(trace.events, trace.events[1:]))
            assert shared > 0, name
            assert trace.lines() == [canonical_json(e) for e in trace.events], name

    @pytest.mark.parametrize("i, change", [
        (5, lambda e: {**e, "note": "x"}),
        (5, lambda e: {**e, "seq": True}),
        (71, lambda e: {**e, "t": False}),
        (0, lambda e: {**e, "agg": None}),
        (None, None),
    ], ids=["extra_key", "bool_seq", "bool_t_on_a_copy", "null_agg_first", "parsed"])
    def test_an_event_outside_the_runners_form_encodes_as_json_dumps(self, i, change):
        """An event whose keys are not the runner's eight, or whose seq, t or eth is not an int, is
        encoded whole, and a first event may hold "agg": null; its neighbours still share their snapshot
        objects.  Events parsed from the lines share none, and encode to the same lines."""
        trace, _ = corpus_run("lifecycle_happy_path")
        if change is None:
            events = [json.loads(line) for line in trace.lines()]
        else:
            events = list(trace.events)  # a shallow copy: the snapshots stay shared
            assert events[71]["kind"] == "doge_block" and events[71]["agg"] is events[70]["agg"]
            events[i] = change(events[i])
        assert Trace(events).lines() == [dumps(event) for event in events]


# a change to the digest and to each agg field of an event's snapshot
SNAPSHOT_CHANGES = {
    "supply": lambda v: {**v, "1/1000": v.get("1/1000", 0) + 5},  # at 1/1000 even where it holds no rate
    "backing": lambda v: {**v, "1/1000": v.get("1/1000", 0) + 5000},
    "held": lambda v: v + 5,
    "received": lambda v: v + 5,
    "paid": lambda v: v + 5,
    "relay_mode": lambda v: "listening" if v == "verification" else "verification",
    "history_len": lambda v: v + 5,
    "current_date": lambda v: v + 5,
    "used_tx_count": lambda v: v + 5,
    "queues": lambda v: {**v, "1/1000": [*v.get("1/1000", []), 7]},
    "digest": lambda v: "00" * 32,
}
# the snapshot fields the auditor reads: all but the two it leaves to the digest
SNAPSHOT_READ = [name for name in SNAPSHOT_CHANGES if name not in ("history_len", "current_date", "digest")]


def bare_event(kind, payload, **agg):
    """Event 0 of kind with a digest and every snapshot field the auditor reads, as agg overrides them."""
    return {"seq": 0, "kind": kind, "payload": payload, "digest": "00" * 32,
            "agg": {"supply": {}, "backing": {}, "held": 0, "received": 0, "paid": 0, "relay_mode": "listening",
                    "used_tx_count": 0, "queues": {}, **agg}}


class TestAudit:
    def test_clean_run_audits_clean(self):
        trace = run(parse_config(mini_config()))
        report = audit(trace.events)
        assert report.ok
        assert report.events == len(trace.events)

    def test_empty_trace_warns(self):
        report = audit([])
        assert report.ok
        assert "EmptyTrace" in report.warnings

    def test_corrupted_mint_flagged_at_seq(self):
        config = load_config(str(SCENARIO_DIR / "lifecycle_happy_path.json"))
        trace = run(config)
        events = [json.loads(line) for line in trace.lines()]
        mint_seq = next(e["seq"] for e in events if e["kind"] == "mint")
        events[mint_seq]["payload"]["minted"] += 7
        report = audit(events)
        assert not report.ok
        assert any(v.seq == mint_seq and v.rule == "SupplyDelta" for v in report.violations)

    def test_corrupted_snapshot_flagged(self):
        config = load_config(str(SCENARIO_DIR / "lifecycle_happy_path.json"))
        trace = run(config)
        events = [json.loads(line) for line in trace.lines()]
        mint_seq = next(e["seq"] for e in events if e["kind"] == "mint")
        events[mint_seq]["agg"]["supply"]["1/1000"] += 3
        report = audit(events)
        assert not report.ok
        assert any(v.seq == mint_seq and v.rule in ("Invariant1", "SupplyDelta")
                   for v in report.violations)


    @pytest.mark.parametrize("fields", [[name] for name in SNAPSHOT_CHANGES] + [["received", "held"]],
                             ids="+".join)
    def test_a_doctored_copied_snapshot_is_flagged_first_at_its_seq(self, fields):
        """doge_block, doge_tx, action_rejected and run_summary copy the snapshot of the event before
        them, so a change to its digest or any agg field is flagged there even when it breaks no
        invariant, as received + 5 and held + 5 together do not."""
        events = [json.loads(line) for line in corpus_run("lifecycle_happy_path")[0].lines()]
        event = events[71]
        assert event["kind"] == "doge_block" and audit(events).ok
        assert set(SNAPSHOT_CHANGES) == {*event["agg"], "digest"}
        for name in fields:
            holder = event if name == "digest" else event["agg"]
            holder[name] = SNAPSHOT_CHANGES[name](holder[name])
        first = audit(events).violations[0]
        assert (first.seq, first.rule) == (71, "SnapshotCopy"), first

    @pytest.mark.parametrize("keys", [[name] for name in SNAPSHOT_READ] + [
        ["held", "received", "paid", "relay_mode", "used_tx_count", "queues"], ["digest"]], ids="+".join)
    def test_a_snapshot_field_missing_from_every_event_is_a_parse_error(self, tmp_path, keys):
        """The auditor fails closed: with fields it reads dropped from every event's snapshot, or the
        digest from every event, no check can go quiet (without the six fields together, or the digest,
        the trace once audited clean); the trace is refused, and `pegsim audit` exits 2."""
        events = [json.loads(line) for line in corpus_run("lifecycle_happy_path")[0].lines()]
        for event in events:
            for key in keys:
                del (event if key == "digest" else event["agg"])[key]
        error = "event 0 missing 'digest'" if keys == ["digest"] else f"malformed event 0: KeyError: '{keys[0]}'"
        with pytest.raises(ParseError, match=error):
            audit(events)
        path = tmp_path / "trace.ndjson"
        Trace(events).write(str(path))
        assert cli_main(["audit", str(path)]) == 2

    @pytest.mark.parametrize("key, value", [("held", "0"), ("received", True), ("paid", None),
                                            ("used_tx_count", 1.0), ("digest", 0)])
    def test_a_snapshot_field_of_another_type_is_a_parse_error(self, key, value):
        events = [json.loads(line) for line in corpus_run("lifecycle_happy_path")[0].lines()]
        (events[5] if key == "digest" else events[5]["agg"])[key] = value
        with pytest.raises(ParseError, match=f"event 5 (agg )?field '{key}' is not"):
            audit(events)

    def test_a_copy_whose_snapshot_equals_the_one_before_in_another_type_is_a_parse_error(self):
        """A copy equal to the event before it has its snapshot checks skipped, but not its field types: a
        parsed copy whose paid is false, where the event before it holds 0, is equal to that snapshot
        (False == 0) and is still refused."""
        events = [json.loads(line) for line in corpus_run("lifecycle_happy_path")[0].lines()]
        i = next(i for i, e in enumerate(events) if e["kind"] in SNAPSHOT_COPIES and e["agg"]["paid"] == 0)
        events[i]["agg"]["paid"] = False
        assert events[i]["agg"] == events[i - 1]["agg"]
        with pytest.raises(ParseError, match=f"event {i} agg field 'paid' is not int"):
            audit(events)

    def test_a_contract_event_whose_snapshot_equals_the_one_before_is_checked_in_full(self):
        """Only a copy's equal snapshot skips the checks: a mint that carries the previous event's agg and
        digest is flagged at its own seq, since the running supply it adds is not in that snapshot."""
        events = [json.loads(line) for line in corpus_run("lifecycle_happy_path")[0].lines()]
        mint = next(e for e in events if e["kind"] == "mint")
        before = events[mint["seq"] - 1]
        mint["agg"], mint["digest"] = copy.deepcopy(before["agg"]), before["digest"]
        violations = audit(events).violations
        assert violations[0].seq == mint["seq"], violations[0]
        assert "SupplyDelta" in {v.rule for v in violations if v.seq == mint["seq"]}

    @pytest.mark.parametrize("scenario", ["lifecycle_happy_path", "false_challenge"])
    @pytest.mark.parametrize("drops, doctored", [
        *(pytest.param([(-1, key)], False, id=key) for key in ("tags", "quiescent", "supply", "locked_on_best")),
        pytest.param([(0, "tags")], False, id="genesis_tags"),
        pytest.param([(-1, "supply")], True, id="supply-locked_on_best_doctored"),
        pytest.param([(0, "tags"), (-1, "tags")], True, id="both_tags-locked_on_best_doctored")])
    def test_a_field_the_end_state_check_reads_missing_is_a_parse_error(self, tmp_path, scenario, drops, doctored):
        """The end-state Invariant 3 fails closed: a genesis or run summary payload that lacks a field it
        reads is refused, whether or not the scenario is tagged rational_rate_ge_y, and `pegsim audit`
        exits 2.  A doctored locked_on_best is flagged; with the summary's supply dropped, or the tags
        dropped from both payloads, that trace once audited clean."""
        events = [json.loads(line) for line in corpus_run(scenario)[0].lines()]
        if doctored:
            events[-1]["payload"]["locked_on_best"] = {"1/1000": 5}
            if scenario == "lifecycle_happy_path":
                assert [v.rule for v in audit(events).violations] == ["Invariant3"]
        for i, key in drops:
            del events[i]["payload"][key]
        first, key = events[drops[0][0]], drops[0][1]
        with pytest.raises(ParseError, match=f"{first['kind']} event {first['seq']} missing '{key}'"):
            audit(events)
        path = tmp_path / "trace.ndjson"
        Trace(events).write(str(path))
        assert cli_main(["audit", str(path)]) == 2

    @pytest.mark.parametrize("i, key, value", [(-1, "tags", "rational_rate_ge_y"), (-1, "quiescent", 1),
                                               (-1, "supply", [["1/1000", 0]]), (-1, "locked_on_best", None),
                                               (0, "tags", "x")])
    def test_a_field_the_end_state_check_reads_of_another_type_is_a_parse_error(self, i, key, value):
        events = [json.loads(line) for line in corpus_run("lifecycle_happy_path")[0].lines()]
        events[i]["payload"][key] = value
        with pytest.raises(ParseError, match=f"{events[i]['kind']} event {events[i]['seq']} field '{key}' is not"):
            audit(events)

    @pytest.mark.parametrize("i", [0, -1], ids=["genesis", "run_summary"])
    def test_invariant3_is_checked_when_either_payload_carries_its_tag(self, i):
        """The genesis and run summary payloads both carry the scenario's tags: with rational_rate_ge_y
        taken out of one, a doctored locked_on_best is still flagged (out of genesis's, it once was not)."""
        events = [json.loads(line) for line in corpus_run("lifecycle_happy_path")[0].lines()]
        events[-1]["payload"]["locked_on_best"] = {"1/1000": 5}
        events[i]["payload"]["tags"] = ["lifecycle"]
        assert [(v.seq, v.rule) for v in audit(events).violations] == [(events[-1]["seq"], "Invariant3")]

    @pytest.mark.parametrize("scenario, kind, change, rule, detail", TAMPERED)
    def test_a_changed_field_is_flagged_at_its_seq(self, scenario, kind, change, rule, detail):
        trace, _ = corpus_run(scenario)
        events = [json.loads(line) for line in trace.lines()]
        assert audit(events).ok
        event = next(e for e in events if e["kind"] == kind)
        change(event)
        flagged = [(v.rule, v.detail) for v in audit(events).violations if v.seq == event["seq"]]
        assert any(r == rule and detail in d for r, d in flagged), flagged

    def test_a_refused_action_is_recorded_and_counted(self):
        """An operator whose collateral is not a multiple of 1/y has its open_bridge refused: the runner
        records the refusal, the trace still audits clean, and the audit counts it."""
        doc = mini_config()
        _add(OPERATOR, collateral=1_000_001)(doc)
        trace = run(parse_config(doc))
        rejected = [e["payload"] for e in trace.events if e["kind"] == "action_rejected"]
        assert [(r["action"], r["error"]) for r in rejected] == [("open_bridge", "BadCollateral")]
        report = audit(trace.events)
        assert report.ok
        assert report.rejected_actions == 1

    def test_an_unknown_action_kind_is_refused(self):
        """The runner refuses an action of a kind it does not dispatch with a SimError that names the
        kind; the refusal is recorded, and the trace still audits clean."""
        from pegsim.agents import ON_EXTENSION, Action, Policy
        from pegsim.harness import SimulationRunner

        class Flier(Policy):
            def decide(self, obs, priv):
                priv[ON_EXTENSION] = True
                flown, priv["flown"] = priv.get("flown"), True
                return [] if flown else [Action("fly", {})]

        runner = SimulationRunner(parse_config(mini_config()))
        relayer = runner.agents[0].policy
        runner.agents[0].policy = Flier(relayer.name, {}, relayer.agent_seed)
        trace = runner.run()
        rejected = [e["payload"] for e in trace.events if e["kind"] == "action_rejected"]
        assert rejected == [{"action": "fly", "error": "SimError", "detail": "unknown action kind 'fly'"}]
        report = audit(trace.events)
        assert report.ok and report.rejected_actions == 1

    def test_a_shared_snapshot_reports_what_its_parsed_copies_report(self):
        """A run's own trace audits as its parsed lines do, which share no object (a deep copy would keep
        them shared): clean, and with the first mint's snapshot doctored in place, so that the copies
        holding it carry it too.  The doctored mint is flagged at its own seq and at no copy: a copy equal
        to the event before it holds a state already checked there."""
        def report_of(events):
            report = audit(events)
            return ([(v.seq, v.rule, v.detail) for v in report.violations], report.warnings, report.events,
                    report.burns_checked, report.rejected_actions)

        shared = 0
        for name, trace in shared_snapshot_runs():
            assert report_of(trace.events) == report_of([json.loads(line) for line in trace.lines()]), name
            mint = next((e for e in trace.events if e["kind"] == "mint"), None)
            if mint is None:
                continue
            shared += any(e["agg"] is mint["agg"] for e in trace.events[mint["seq"] + 1:])
            mint["agg"]["received"] += 5
            try:
                doctored = report_of(trace.events)
                assert doctored == report_of([json.loads(dumps(e)) for e in trace.events]), name
            finally:
                mint["agg"]["received"] -= 5
            assert doctored[0] and {seq for seq, _, _ in doctored[0]} == {mint["seq"]}, (name, doctored[0])
        assert shared > 0

    @pytest.mark.parametrize("key", SNAPSHOT_READ)
    def test_skipping_the_checks_at_an_equal_copy_changes_no_verdict(self, key):
        """An equal copy's checks could only repeat the findings of the event it copies.  On each run, one
        contract event's snapshot field is doctored together with the copies after it, as a run with that
        snapshot writes them.  The audit gives the same verdict, the same first flagged seq and the same
        (rule, detail) findings as on a reference trace whose doge_block, doge_tx and action_rejected
        events take another kind, which the auditor checks in full."""
        assert set(SNAPSHOT_READ) == set(_AGG_FIELDS)

        def verdict(events):
            violations = audit(events).violations
            return (not violations, min((v.seq for v in violations), default=None),
                    {(v.rule, v.detail) for v in violations})

        flagged, skipped = 0, 0
        for name, trace in shared_snapshot_runs():
            events = [json.loads(line) for line in trace.lines()]
            copies, last = Counter(), 0  # the copies that follow each event of another kind
            for i, event in enumerate(events):
                if event["kind"] in SNAPSHOT_COPIES:
                    copies[last] += 1
                else:
                    last = i
            start = max((i for i in copies if i > 0), key=copies.__getitem__)  # a contract event, not genesis
            doctored = SNAPSHOT_CHANGES[key](events[start]["agg"][key])
            for event in events[start:start + copies[start] + 1]:
                event["agg"] = {**event["agg"], key: doctored}
            # the run summary keeps its kind, which the end-state check looks for
            reference = [{**e, "kind": f"full_{e['kind']}"} if e["kind"] in SNAPSHOT_COPIES - {"run_summary"}
                         else e for e in events]
            got = verdict(events)
            assert got == verdict(reference), name
            flagged += not got[0]
            skipped += copies[start]
        assert flagged > 0 and skipped > 0, (flagged, skipped)

    @pytest.mark.parametrize("kind,key,value", [
        ("mint", "minted", None),  # field missing
        ("burn", "portions", "0,1,2"),  # iterable, but not a list
    ])
    def test_malformed_payload_is_a_parse_error(self, tmp_path, kind, key, value):
        trace = run(load_config(str(SCENARIO_DIR / "lifecycle_happy_path.json")))
        events = [json.loads(line) for line in trace.lines()]
        payload = next(e for e in events if e["kind"] == kind)["payload"]
        if value is None:
            del payload[key]
        else:
            payload[key] = value
        with pytest.raises(ParseError, match=key):
            audit(events)
        path = tmp_path / "trace.ndjson"
        Trace(events).write(str(path))
        assert cli_main(["audit", str(path)]) == 2

    @pytest.mark.parametrize("agg, error", [
        ({"supply": {"1/1000": 1}, "backing": [1000]}, "event 0 agg field 'backing' is not dict"),
        ({"supply": {"1/1000": "1"}, "backing": {"1/1000": 1000}}, "malformed event 0: TypeError"),
    ], ids=["declared", "undeclared"])
    def test_a_field_of_an_unexpected_type_is_a_parse_error(self, tmp_path, agg, error):
        """A snapshot's backing as a list fails its declared check; no declared check covers the values
        of its supply, and a string there still ends in a ParseError, not a traceback.  Either way
        `pegsim audit` exits 2."""
        event = bare_event("mint", {"y": "1/1000", "minted": 1, "bridge_id": 0}, **agg)
        with pytest.raises(ParseError, match=error):
            audit([event])
        path = tmp_path / "trace.ndjson"
        Trace([event]).write(str(path))
        assert cli_main(["audit", str(path)]) == 2

    @pytest.mark.parametrize("event", [5, "mint", [0], None])
    def test_an_event_that_is_not_an_object_is_a_parse_error(self, event):
        with pytest.raises(ParseError, match="not an event object"):
            audit([event])

    @pytest.mark.parametrize("rate", ["1e10000000", "1/0x10", " 1/1000", "1_000", "0.001", "-1/1000"])
    def test_rate_outside_the_integer_grammar_is_a_parse_error(self, rate):
        event = bare_event("genesis", {"tags": []}, supply={rate: 0})
        start = time.perf_counter()
        with pytest.raises(ParseError, match="rate"):
            audit([event])
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("kind", ["mint", "burn_settled"])
    def test_payload_rate_outside_the_integer_grammar_is_a_parse_error(self, kind):
        events = [json.loads(line) for line in
                  run(load_config(str(SCENARIO_DIR / "lifecycle_happy_path.json"))).lines()]
        next(e for e in events if e["kind"] == kind)["payload"]["y"] = "1e-3"
        with pytest.raises(ParseError, match="rate '1e-3'"):
            audit(events)


class TestOracleAgreement:
    @pytest.mark.parametrize("scenario", ["orphan_attack", "fuzz_random", "dos_challenge",
                                          "false_challenge"])
    def test_three_way_agreement(self, scenario):
        # Every traced verdict is the one its thread kept.  For every proof thread
        # that received a proof: the oracle's verdict, direct verification, and
        # "revealed headers equal the best-chain segment" must all agree.
        from pegsim.harness.runner import SimulationRunner
        from pegsim.proofsys import verify_extension_proof

        runner = SimulationRunner(load_config(str(SCENARIO_DIR / f"{scenario}.json")))
        trace = runner.run()
        verdicts = {e["payload"]["thread_id"]: e["payload"]["verdict"]
                    for e in trace.events if e["kind"] == "proof_resolved"}
        checked = 0
        for thread in runner.contract.threads.values():
            traced = verdicts.get(thread.thread_id)
            assert traced == (thread.verdict if thread.resolved else None), thread.thread_id
            if thread.proof is None or traced is None:
                continue
            direct = verify_extension_proof(thread.prior_tip_header, thread.active.sub,
                                            thread.proof, runner.contract.params)
            assert (traced == "accept") == (direct is None)
            tip = runner.view.best_tip()
            tip_ord = runner.view.blocks[tip].header.ordinal
            on_best = False
            if thread.active.sub.range <= tip_ord:
                segment = runner.view.path_blocks(tip, thread.prior_tip_header.ordinal + 1, thread.active.sub.range)
                on_best = tuple(b.header for b in segment) == thread.proof.revealed_headers
            assert (direct is None) == on_best, thread.thread_id
            checked += 1
        if scenario in ("orphan_attack", "false_challenge"):
            assert checked >= 1


class TestFalseChallenge:
    def test_vindication_costs_the_challenger(self):
        # a baseless commitment challenge: the honest relayer proves out, the
        # challenger's deposit pays the oracle plus the compensation reward
        config = load_config(str(SCENARIO_DIR / "false_challenge.json"))
        trace = run(config)
        accepts = [e for e in trace.events if e["kind"] == "proof_resolved"
                   and e["payload"]["verdict"] == "accept"]
        assert len(accepts) == 1
        p = accepts[0]["payload"]
        assert p["payer"] == "griefer"
        assert p["paid"] == p["cost"] + p["reward"]
        summary = trace.summary
        assert summary["relayer_deposits"]["griefer"] == 10_110 - p["paid"]
        assert summary["relayer_deposits"]["relay1"] == 10_110  # untouched
        assert summary["history_len"] >= 3  # the relay kept progressing
        assert audit(trace.events).ok


class TestRelayLiveness:
    def test_current_date_tracks_tip(self):
        # with honest relayers and no adversary, every accepted extension
        # lands within c+d of the tip as of its acceptance
        config = load_config(str(SCENARIO_DIR / "lifecycle_happy_path.json"))
        trace = run(config)
        c_plus_d = config.params.c + config.params.d
        accepts = [e for e in trace.events if e["kind"] == "accept"]
        assert accepts
        for e in accepts:
            tip_ordinal = e["t"] // config.clock.doge_block_seconds
            assert tip_ordinal - e["payload"]["range"] <= c_plus_d, e


class TestDelayedVisibility:
    def test_delayed_relayer_sees_the_best_tip_at_its_cutoff(self):
        """Each step of every delayed agent of fuzz_random and maximality_gap, at seed offsets 0 and 1."""
        from pegsim.harness.runner import SimulationRunner

        lagged = []
        for name in ("fuzz_random", "maximality_gap"):
            config = load_config(str(SCENARIO_DIR / f"{name}.json"))
            for offset in (0, 1):
                runner = SimulationRunner(dataclasses.replace(config, seed=config.seed + offset))
                assert any(agent.visibility_delay_s for agent in runner.agents), name
                runner._observe = self.checked(runner, lagged)
                runner.run()
        assert len(lagged) > 100 and any(lagged), (len(lagged), sum(lagged))

    @staticmethod
    def checked(runner, lagged):
        observe = runner._observe

        def checked(agent, tip, true_rate):
            obs = observe(agent, tip, true_rate)
            assert obs.true_rate == runner.config.rate_path.segment(runner.contract.now_s)[0]
            if agent.visibility_delay_s:
                view, cutoff = runner.view, runner.contract.now_s - agent.visibility_delay_s
                assert obs.tip == view.visible(cutoff)[0]
                arrived = [h for h in view.blocks if view.arrival[h] <= cutoff] or [view.genesis_hash]
                assert obs.tip == min(arrived, key=lambda h: (-view.blocks[h].header.ordinal, view.arrival[h], h))
                lagged.append(obs.tip != view.best_tip())
            return obs
        return checked


class TestScryptVariant:
    def test_runs_with_reduced_scrypt_pow(self):
        doc = mini_config(pow={"target_bits": 254, "fn": "scrypt"})
        doc["end"] = {"sim_time": 1500}
        config = parse_config(doc)
        trace = run(config)
        assert audit(trace.events).ok
        blocks = [e for e in trace.events if e["kind"] == "doge_block"]
        assert len(blocks) >= 20


def _near_default(declared):
    """A strategy for policy params near their declared defaults: a time (`*_at`) in the first half hour
    (an optional one perhaps left out), the corpus's y and collateral, a flag, a count or a fraction at
    or just above its default, and an optional amount left out."""
    def near(key, decl):
        if key == "y":
            return st.just("1/1000")
        if key == "collateral":
            return st.just(1_000_000)
        if key.endswith("_at"):
            return st.integers(0, 1_800)
        if isinstance(decl, bool):
            return st.booleans()
        if isinstance(decl, int):
            return st.integers(decl, decl + 2)
        return st.sampled_from([str(decl), str(2 * decl)])  # a Fraction

    optional = {key for key, decl in declared.items() if isinstance(decl, UnionType)}
    required = {key: near(key, decl) for key, decl in declared.items() if key not in optional}
    times = {key: near(key, None) for key in optional if key.endswith("_at")}
    return st.fixed_dictionaries(required, optional=times)


@st.composite
def drawn_rosters(draw):
    """A config with an operator, a hodler, a relayer and a reporter, so that a run can lock, relay,
    report and scan for theft; each with params near their defaults and perhaps a visibility delay of
    up to 2,500 s; a horizon, a seed, and perhaps a rate crash.  In two draws of three, the hodler or
    the reporter lags 2,000 to 2,500 s, past the challenge window, and no agent joins, so that its tip
    reaches an entry's range while only the lone relay's events could wake it.  Then the hodler
    crosses and holds, as missing_doge's does, the horizon is at least 5,000 s, and a lagging hodler's
    run has a rate crash at 1,500 to 3,500 s, so that its theft scan has an abscond to find.  In the
    third, up to four agents of policies drawn from POLICIES join."""
    lagging = draw(st.sampled_from(["vigilant_hodler", "greedy_reporter", None]))
    policies = ["rational_operator", "vigilant_hodler", "honest_relayer", "greedy_reporter",
                *([] if lagging else draw(st.lists(st.sampled_from(sorted(POLICIES)), max_size=4)))]
    agents = [{"name": f"{policy}{i}", "policy": policy, "eth": 1_200_000, "doge": 1_000,
               "visibility_delay_s": draw(st.integers(2_000, 2_500) if policy == lagging
                                          else st.just(0) | st.integers(0, 2_500)),
               "params": draw(_near_default(POLICIES[policy].PARAMS))}
              for i, policy in enumerate(policies)]
    if lagging:
        agents[1]["params"] = {"y": "1/1000", "cross": True, "burn_on_rate": False}
    horizon = draw(st.integers(5_000 if lagging else 2_000, 8_000))
    crash = draw(st.integers(1_500, 3_500) if lagging == "vigilant_hodler" else st.none() | st.integers(1, horizon))
    interarrival = draw(st.sampled_from(["deterministic", "seeded-exponential"]))
    return parse_config({
        **BASE, "seed": draw(st.integers(0, 2**16)), "agents": agents, "end": {"sim_time": horizon},
        "rate_path": [[0, "1/500"]] + ([] if crash is None else [[crash, "1/2000"]]),
        "clock": {**BASE["clock"], "doge_interarrival": interarrival},
        "params": {**BASE["params"], "registration_window_doge_blocks": 60},  # as in the corpus: outlives a relay
    })


def no_op_checked():
    """skipped_steps, asserting that each skipped step, run anyway, returns no actions and the priv the
    agent kept."""
    def no_op(runner, agent, obs):
        assert agent.policy.step(obs, agent.priv) == ([], agent.priv), \
            f"{agent.policy.name} at {runner.contract.now_s}"

    return skipped_steps(no_op)


class TestTurnSkipping:
    """The runner skips an agent's turn while the trace has had no event but doge_block since its last
    step returned no actions, and neither that step's wake, the next rate point nor, unless the step's
    answer holds on every extension of its tip, its visible tip's next possible change has come; and
    it skips a whole turn while that holds for every agent.  A block changes only the chain, and
    extends every visible tip, because the runner mines each block on the best tip."""

    def test_a_skipped_turn_is_a_no_op(self):
        """On every corpus scenario and fuzz_random x8, each step skipped by the per-agent rule or
        with its whole turn, run anyway, returns no actions and the priv the agent kept, and running
        it leaves the trace as it was; so do fuzz_random x8 and maximality_gap at seed offset 1,
        which have no golden, and lifecycle_happy_path and missing_doge with a reporter or a hodler
        that lags by 2,000 s."""
        paths = sorted(SCENARIO_DIR.glob("*.json"))
        assert paths
        with no_op_checked() as skipped:
            for path in paths:
                trace = run(load_config(str(path)))
                want = GOLDEN[f"{path.stem}+0"]
                assert (trace.digest(), len(trace.events)) == (want["digest"], want["events"]), path.stem
            fuzz = load_config(str(SCENARIO_DIR / "fuzz_random.json"))
            trace = run(dataclasses.replace(fuzz, end_time=8 * fuzz.end_time))
            want = LONG_HORIZON["fuzz_random/x8+0"]
            assert (trace.digest(), len(trace.events)) == (want["digest"], want["events"])
            gap = load_config(str(SCENARIO_DIR / "maximality_gap.json"))
            for config in (dataclasses.replace(fuzz, seed=fuzz.seed + 1, end_time=8 * fuzz.end_time),
                           dataclasses.replace(gap, seed=gap.seed + 1)):
                run(config)
            # a reporter, and a hodler, that lag past the challenge window: each reports out of an entry
            # whose range stays past its tip long after the event that appended it
            for name, who, kinds in (("lifecycle_happy_path", "bob", ["mint", "unlock_settled"]),
                                     ("missing_doge", "alice", ["register", "doge_tx", "missing_doge_paid"])):
                config = load_config(str(SCENARIO_DIR / f"{name}.json"))
                config = dataclasses.replace(config, agents=tuple(
                    dataclasses.replace(a, visibility_delay_s=2000) if a.name == who else a for a in config.agents))
                assert [e["kind"] for e in run(config).events if e["actor"] == who] == kinds, name
            # a lone relayer that lags: no event marks the moment a block it has not seen becomes visible
            lagging = {**BASE["agents"][0], "visibility_delay_s": 31}
            submits = [e["t"] for e in run(parse_config(mini_config(agents=[lagging]))).events
                       if e["kind"] == "submit"]
            assert submits == [714, 1834, 2954]
        assert set(skipped) == {*POLICIES.values(), "whole turns"}, skipped

    @settings(max_examples=settings.default.max_examples // 2)
    @given(config=drawn_rosters())
    def test_a_skipped_turn_is_a_no_op_on_drawn_rosters(self, config):
        """The no-op check of test_a_skipped_turn_is_a_no_op on drawn rosters, half the Hypothesis
        profile's budget of them: 30, and 500 under `HYPOTHESIS_PROFILE=deep`.  Each drawn run also
        audits clean, so the auditor's rebuilt queues are checked on every roster."""
        with no_op_checked() as skipped:
            trace = run(config)
        assert skipped
        report = audit(trace.events)
        assert report.ok, report.violations[:3]

    def test_fuzz_random_x8_steps_under_a_fourteenth_of_the_turns(self, monkeypatch):
        from pegsim.agents import Policy
        from pegsim.harness.runner import SimulationRunner

        step, steps = Policy.step, Counter()
        take_turns, taken = SimulationRunner._take_turns, [0]

        def counted(policy, obs, priv):
            steps[policy.name] += 1
            return step(policy, obs, priv)

        def counted_turns(runner, t):
            taken[0] += 1
            take_turns(runner, t)

        monkeypatch.setattr(Policy, "step", counted)
        monkeypatch.setattr(SimulationRunner, "_take_turns", counted_turns)
        config = load_config(str(SCENARIO_DIR / "fuzz_random.json"))
        config = dataclasses.replace(config, end_time=8 * config.end_time)
        run(config)
        turns = config.end_time // config.clock.eth_block_seconds
        assert (turns, turns * len(config.agents)) == (4_000, 36_000)
        assert sum(steps.values()) < 1_000, steps
        # the reporter sleeps through blocks once its cursor has judged every history entry
        assert steps["bob"] <= 100, steps
        # relay2 lags 31 s, so a block reaches it a turn or more after relay1; it wakes for one only
        # when its answer can change
        assert steps["relay2"] <= steps["relay1"], steps
        assert turns - taken[0] > turns // 2, taken[0]  # more than half the turns skipped whole

    def test_no_run_forks(self):
        """Every corpus scenario at seed offsets 0 to 2 ends with one chain: no block is off the best
        tip's path, so each block extended every visible tip, as the sleep rule assumes."""
        from pegsim.harness.runner import SimulationRunner

        paths = sorted(SCENARIO_DIR.glob("*.json"))
        assert paths
        for path in paths:
            config = load_config(str(path))
            for offset in range(3):
                runner = SimulationRunner(dataclasses.replace(config, seed=config.seed + offset))
                runner.run()
                view = runner.view
                assert len(view.blocks) == view.blocks[view.best_tip()].header.ordinal + 1, (path.stem, offset)


def _snapshot_runs():
    """Every corpus config at its own horizon, then fuzz_random at x8."""
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    assert paths
    fuzz = load_config(str(SCENARIO_DIR / "fuzz_random.json"))
    return [load_config(str(p)) for p in paths] + [dataclasses.replace(fuzz, end_time=8 * fuzz.end_time)]


def _containers(value):
    if isinstance(value, (dict, list)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from _containers(item)


class TestSnapshotReuse:
    """Only genesis and the contract's own events compute a snapshot; every other event the runner
    records holds the very agg object and digest of the one before it.  This and turn skipping both rest
    on one premise: a call that changes the contract writes an event after the change."""

    def test_every_recorded_snapshot_equals_a_fresh_one(self, monkeypatch):
        """Each snapshot equals a fresh one when recorded.  A run's trace holds one agg object per
        contract state: an event of a SNAPSHOT_COPIES kind holds the agg and digest of the event before
        it, and genesis and each contract event an agg that shares no container with an earlier event."""
        from pegsim.bridge import BridgeContract
        from pegsim.harness.audit import SNAPSHOT_COPIES
        from pegsim.harness.runner import SimulationRunner

        record, state_digest = SimulationRunner._record, BridgeContract.state_digest
        digests, checking = [0], [False]

        def counted(contract):
            digests[0] += not checking[0]
            return state_digest(contract)

        def checked(runner, kind, actor, payload):
            record(runner, kind, actor, payload)
            event, contract = runner.events[-1], runner.contract
            checking[0] = True
            try:
                fresh = (contract.aggregates(), contract.state_digest())
            finally:
                checking[0] = False
            assert (event["agg"], event["digest"]) == fresh, (runner.config.name, event["seq"], kind)

        monkeypatch.setattr(BridgeContract, "state_digest", counted)
        monkeypatch.setattr(SimulationRunner, "_record", checked)
        for config in _snapshot_runs():
            digests[0] = 0
            events = SimulationRunner(config).run().events
            held = set()  # the ids of every container in an earlier event's agg; each event stays alive
            for prev, event in zip([None, *events], events):
                where = (config.name, event["seq"], event["kind"])
                if event["kind"] in SNAPSHOT_COPIES and prev is not None:
                    assert event["agg"] is prev["agg"] and event["digest"] == prev["digest"], where
                    continue
                ids = [id(obj) for obj in _containers(event["agg"])]
                assert held.isdisjoint(ids) and len(set(ids)) == len(ids), where
                held.update(ids)
            own = runner_event_kinds()
            computed = 1 + sum(event["kind"] not in own for event in events)
            assert len({id(event["agg"]) for event in events}) == computed, config.name
        # the last run is fuzz_random x8: genesis and each contract event computed one digest
        assert (len(events), digests[0]) == (990, computed) and computed == 120, digests[0]

    def test_a_first_event_of_a_copying_kind_computes_its_snapshot(self):
        """A block mined before run() records genesis has no event to copy a snapshot from."""
        from pegsim.harness.runner import SimulationRunner

        runner = SimulationRunner(parse_config(mini_config()))
        runner._mine_next_block()
        [event] = runner.events
        assert event["kind"] == "doge_block"
        assert (event["agg"], event["digest"]) == (runner.contract.aggregates(), runner.contract.state_digest())

    def test_a_call_that_changes_the_contract_writes_an_event(self, monkeypatch):
        from pegsim.bridge import BridgeContract
        from pegsim.errors import SimError

        depth, reached = [0], set()

        def snapshot(contract):
            return contract.aggregates(), contract.state_digest()

        def wrap(name, call):
            def measured(contract, *args, **kwargs):
                if depth[0]:  # only the outermost call is measured
                    return call(contract, *args, **kwargs)
                reached.add(name)
                events = contract.emit_hook.__self__.events
                before, count = snapshot(contract), len(events)
                depth[0] += 1
                try:
                    result = call(contract, *args, **kwargs)
                except SimError:
                    assert snapshot(contract) == before, f"refused {name} changed the contract"
                    raise
                finally:
                    depth[0] -= 1
                assert snapshot(contract) == before or len(events) > count, f"{name} wrote no event"
                return result
            return measured

        for name in sorted(CALLS):
            monkeypatch.setattr(BridgeContract, name, wrap(name, getattr(BridgeContract, name)))
        for config in _snapshot_runs():
            run(config)
        assert len(reached) >= 15, sorted(reached)


def one_shot_digest(contract):
    """state_digest as one json.dumps of its whole document, each history entry encoded afresh."""
    history = [[e.commitment.hex(), e.range, e.submitted_at_eth, e.relayer, e.tip_header.hash.hex()]
               for e in contract.history]
    doc = {**contract._digest_doc(), "history": history}
    return hashlib.sha256(dumps(doc).encode()).hexdigest()


@functools.cache
def kept_fact_runs():
    """Runs _snapshot_runs(), then plays the contract fuzzer's whole tour, with each fact a run keeps
    checked where it is used: every state_digest against one_shot_digest, each section of its
    document through canonical_json against json.dumps, and every root
    agents.segment_root gives against a fresh commitment_root.  Returns a Counter of the checks, the
    roots the memo served without computing them, and the history rewrites per run, and the event
    kinds recorded."""
    import pegsim.agents as agents
    from pegsim.bridge import BridgeContract
    from pegsim.proofsys import commitment_root

    state_digest, commit, segment_root = BridgeContract.state_digest, BridgeContract._commit, agents.segment_root
    seen, kinds = Counter(), Counter()

    def checked_digest(contract):
        digest = state_digest(contract)
        assert digest == one_shot_digest(contract), (len(contract.history), contract.now_s)
        for key, section in contract._digest_doc().items():
            assert canonical_json(section) == dumps(section), key
            seen["sections"] += 1
        seen["digests"] += 1
        return digest

    def counted_commit(contract, keep, *args):
        seen["rewrites", contract.emit_hook.__self__.config.name] += keep < len(contract.history)
        return commit(contract, keep, *args)

    def checked_root(view, last, prior, compute):
        seen["served"] += (last, prior) in view.segment_roots
        root = segment_root(view, last, prior, compute)
        assert root == commitment_root(view.path_blocks(last, prior + 1, view.blocks[last].header.ordinal))
        seen["roots"] += 1
        return root

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BridgeContract, "state_digest", checked_digest)
        patch.setattr(BridgeContract, "_commit", counted_commit)
        patch.setattr(agents, "segment_root", checked_root)
        for config in _snapshot_runs():
            kinds.update(event["kind"] for event in run(config).events)
        machine = ContractMachine()
        for name, *args in machine.tour(RATES[0], COLLATERALS[0]):
            assert machine.call(name, *args), name
        kinds.update(event["kind"] for event in machine.runner.events)
    return seen, kinds


class TestKeptFacts:
    """A run computes some facts once and keeps them: each history entry's text in state_digest's
    document, and each segment's commitment root in its chain view's memo.  Each must equal the fact
    computed afresh wherever it is used."""

    def test_every_state_digest_equals_a_one_shot_encoding(self):
        """On every contract event of the corpus, of fuzz_random x8 and of the contract fuzzer's tour,
        backtrack rewrites and a deep finalization among them."""
        seen, kinds = kept_fact_runs()
        assert seen["digests"] > 500, seen
        assert seen["rewrites", "backtrack_recovery"] and seen["rewrites", "contract_fuzz"], seen
        assert kinds["deep_finalized"] and kinds["accept"] > 100, kinds

    def test_every_digest_section_encodes_as_json_dumps(self):
        """canonical_json of each section of _digest_doc(), at every state_digest of those runs."""
        seen, _ = kept_fact_runs()
        assert seen["sections"] == 16 * seen["digests"] > 8000, seen

    def test_every_segment_root_equals_a_fresh_one(self):
        """On the corpus and fuzz_random x8, where honest relayers, reporters and hodlers judge claims."""
        seen, _ = kept_fact_runs()
        assert seen["roots"] > seen["served"] > seen["roots"] // 2, seen  # most judgments hit the memo


class TestUnlockDeadline:
    def test_a_burn_settled_by_report_unlock_draws_no_unlock_timeout(self, monkeypatch):
        """The unlock_deadline timer calls unlock_timeout only for a burn still unsettled then."""
        from pegsim.bridge import BridgeContract

        unlock_timeout, refused = BridgeContract.unlock_timeout, []

        def recording(self, burn_id):
            try:
                return unlock_timeout(self, burn_id)
            except SimError as exc:
                refused.append(exc)
                raise

        monkeypatch.setattr(BridgeContract, "unlock_timeout", recording)
        trace = run(load_config(str(SCENARIO_DIR / "two_rates.json")))
        assert any(e["kind"] == "unlock_settled" for e in trace.events)
        assert refused == []


class TestSendDoge:
    def test_unencodable_transfer_is_refused_and_changes_nothing(self):
        from pegsim.agents import Action
        from pegsim.chainsim import doge_address
        from pegsim.errors import EncodingError, SimError
        from pegsim.harness.runner import SimulationRunner

        doc = mini_config()
        doc["agents"][0]["doge"] = 2**64  # enough to pass the overdraft check
        runner = SimulationRunner(parse_config(doc))
        agent = runner.agents[0]
        before = (dict(runner.doge_balances), dict(runner._nonces), list(runner.mempool))
        for amount, memo in ((2**64, b""), (1, b"m" * 256)):
            send = Action("send_doge", {"sender": agent.policy.doge_addr, "receiver": doge_address("x"),
                                        "amount": amount, "memo": memo})
            with pytest.raises(EncodingError):  # a SimError: the turn records action_rejected
                runner._apply_action(agent.policy, send)
        assert issubclass(EncodingError, SimError)
        assert (runner.doge_balances, runner._nonces, runner.mempool) == before

    @pytest.mark.parametrize("own, amount, detail", [
        (False, 1, "relay1 does not control sender address"),
        (True, 101, "holds 100, sends 101"),
        (True, 0, "holds 100, sends 0"),
    ], ids=["foreign-sender", "overdraft", "zero"])
    def test_a_refused_transfer_is_recorded_and_changes_nothing(self, monkeypatch, own, amount, detail):
        from pegsim.agents import Action
        from pegsim.chainsim import doge_address
        from pegsim.harness.runner import SimulationRunner

        doc = mini_config()
        doc["agents"][0]["doge"] = 100
        runner = SimulationRunner(parse_config(doc))
        policy = runner.agents[0].policy
        send = Action("send_doge", {"sender": policy.doge_addr if own else doge_address("someone else"),
                                    "receiver": doge_address("x"), "amount": amount, "memo": b""})
        monkeypatch.setattr(policy, "step", lambda obs, priv: ([send], priv))
        runner._record("genesis", "system", {})
        before = (dict(runner.doge_balances), dict(runner._nonces), list(runner.mempool))
        runner._handle(runner.clock.eth_block_seconds, ("turns", {}))
        assert [e["kind"] for e in runner.events] == ["genesis", "action_rejected"]
        rejected = runner.events[-1]["payload"]
        assert (rejected["action"], rejected["error"]) == ("send_doge", "SimError")
        assert detail in rejected["detail"]
        assert (runner.doge_balances, runner._nonces, runner.mempool) == before


class TestAgentFacts:
    """An agent's name and DOGE address live on its policy; its clock and ETH on the contract."""

    def test_each_policy_holds_its_agents_address_and_the_runner_funds_it(self):
        from pegsim.chainsim import doge_address
        from pegsim.harness.runner import SimulationRunner

        paths = sorted(SCENARIO_DIR.glob("*.json"))
        assert paths
        for path in paths:
            config = load_config(str(path))
            runner = SimulationRunner(config)
            assert [(a.policy.name, a.policy.doge_addr) for a in runner.agents] == \
                [(spec.name, doge_address(spec.name)) for spec in config.agents], path.stem
            assert runner.doge_balances == \
                {doge_address(spec.name): spec.doge for spec in config.agents if spec.doge}, path.stem

    def test_a_stepped_policy_reads_the_turn_time_off_the_contract(self, monkeypatch):
        """Every time threshold a policy tests during a run is compared with the time of the turn
        being stepped, which the observation's contract holds."""
        import pegsim.agents as agents
        from pegsim.harness.runner import SimulationRunner

        runner = SimulationRunner(load_config(str(SCENARIO_DIR / "lifecycle_happy_path.json")))
        handle, reached, turn, answers = runner._handle, agents.reached, [None], Counter()

        def handling(t, event):
            turn[0] = t if event[0] == "turns" else None
            handle(t, event)

        def spied(obs, priv, t):
            answer = reached(obs, priv, t)
            assert obs.bridge is runner.contract and obs.bridge.now_s == turn[0]
            assert answer == (turn[0] >= t), (turn[0], t)
            answers[answer] += 1
            return answer

        runner._handle = handling
        monkeypatch.setattr(agents, "reached", spied)
        runner.run()
        assert answers[True] > 0 and answers[False] > 0, answers


class TestCli:
    def test_run_and_audit_and_replay(self, tmp_path):
        config_path = tmp_path / "mini.json"
        config_path.write_text(json.dumps(mini_config()))
        trace_path = tmp_path / "trace.ndjson"
        assert cli_main(["run", str(config_path), "--out", str(trace_path)]) == 0
        assert cli_main(["audit", str(trace_path)]) == 0
        assert cli_main(["replay", str(config_path), str(trace_path)]) == 0
        assert cli_main(["replay", str(config_path), str(trace_path), "--seed", "99"]) == 1

    def test_tampered_trace_exits_1_and_prints_its_violations(self, tmp_path, capsys):
        config_path = tmp_path / "mini.json"
        config_path.write_text(json.dumps(mini_config()))
        trace_path = tmp_path / "trace.ndjson"
        assert cli_main(["run", str(config_path), "--out", str(trace_path)]) == 0
        events = Trace.read(str(trace_path)).events
        events[-1]["agg"]["paid"] += 1
        Trace(events).write(str(trace_path))
        capsys.readouterr()
        assert cli_main(["audit", str(trace_path)]) == 1
        out = capsys.readouterr().out
        seq = events[-1]["seq"]
        assert "VIOLATIONS (2):" in out
        assert f"seq {seq}: [SnapshotCopy]" in out and f"seq {seq}: [EthConservation]" in out

    @pytest.mark.parametrize("keep, warning", [(0, "EmptyTrace"), (-1, "NoRunSummary")],
                             ids=["empty_file", "no_last_line"])
    def test_audit_prints_its_warning_and_exits_0(self, tmp_path, capsys, keep, warning):
        lines = corpus_run("lifecycle_happy_path")[0].lines()[:keep]
        path = tmp_path / "trace.ndjson"
        path.write_text("".join(line + "\n" for line in lines))
        capsys.readouterr()
        assert cli_main(["audit", str(path)]) == 0
        warned, clean = capsys.readouterr().out.splitlines()
        assert warned == f"warning: {warning}" and clean.startswith(f"audit: clean ({len(lines)} events, "), clean

    def test_an_unlock_of_a_burn_the_trace_never_holds_exits_2_without_a_traceback(self, tmp_path, capsys):
        events = [json.loads(line) for line in corpus_run("lifecycle_happy_path")[0].lines()]
        next(e for e in events if e["kind"] == "unlock_settled")["payload"]["burn_id"] = 99
        path = tmp_path / "trace.ndjson"
        Trace(events).write(str(path))
        capsys.readouterr()
        assert cli_main(["audit", str(path)]) == 2
        err = capsys.readouterr().err
        assert "KeyError: 99" in err and "Traceback" not in err

    def test_missing_trace_exits_2_without_a_traceback(self, tmp_path, capsys):
        missing = tmp_path / "absent.ndjson"
        assert cli_main(["audit", str(missing)]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and "Traceback" not in err

    def test_bad_config_exits_2(self, tmp_path):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(mini_config(schema_version=9)))
        assert cli_main(["run", str(config_path)]) == 2

    def test_target_past_the_header_field_exits_2(self, tmp_path, capsys):
        # a target of 1 << 256 does not fit the header's 32-byte target field
        config_path = tmp_path / "wide.json"
        config_path.write_text(json.dumps(mini_config(pow={"target_bits": 256})))
        assert cli_main(["run", str(config_path)]) == 2
        assert "pow.target_bits" in capsys.readouterr().err
        config_path.write_text(json.dumps(mini_config(pow={"target_bits": 255}, end={"sim_time": 200})))
        assert cli_main(["run", str(config_path)]) == 0

    def test_non_object_trace_line_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "mini.json"
        config_path.write_text(json.dumps(mini_config()))
        trace_path = tmp_path / "trace.ndjson"
        assert cli_main(["run", str(config_path), "--out", str(trace_path)]) == 0
        with trace_path.open("a") as fh:
            fh.write("[1,2]\n")
        capsys.readouterr()
        assert cli_main(["replay", str(config_path), str(trace_path)]) == 2
        assert "not an event object" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["1.0", "1e0", "NaN", "Infinity", "-Infinity"])
    def test_a_number_other_than_an_integer_exits_2(self, tmp_path, capsys, literal):
        """A run writes integers only, so reading refuses any other number, and audit and replay
        exit 2."""
        config_path = SCENARIO_DIR / "lifecycle_happy_path.json"
        trace_path = tmp_path / "trace.ndjson"
        assert cli_main(["run", str(config_path), "--out", str(trace_path)]) == 0
        lines = trace_path.read_text().splitlines(keepends=True)
        assert '"eth":1,' in lines[3] and '"seq":3,' in lines[3]
        lines[3] = lines[3].replace('"eth":1,', f'"eth":{literal},')
        trace_path.write_text("".join(lines))
        capsys.readouterr()
        for argv in (["audit", str(trace_path)], ["replay", str(config_path), str(trace_path)]):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert f"{trace_path}:4: {literal} is not an integer" in err and "Traceback" not in err

    @pytest.mark.parametrize("was,now,named", [('"seed":1,', '"seed":true,', "payload.seed: True vs 1"),
                                               ('"eth":0,', '"eth":false,', "eth: False vs 0")],
                             ids=["true_for_1", "false_for_0"])
    def test_a_boolean_for_an_integer_is_a_divergence(self, tmp_path, capsys, was, now, named):
        """Parsed, true equals 1 and false equals 0; replay compares the text, and names the field by
        value and type."""
        config_path = SCENARIO_DIR / "lifecycle_happy_path.json"
        trace_path = tmp_path / "trace.ndjson"
        corpus_run("lifecycle_happy_path")[0].write(str(trace_path))
        lines = trace_path.read_text().splitlines(keepends=True)
        assert lines[0].count(was) == 1
        lines[0] = lines[0].replace(was, now)
        trace_path.write_text("".join(lines))
        capsys.readouterr()
        assert cli_main(["replay", str(config_path), str(trace_path)]) == 1
        assert f"DIVERGED at event 0: event 0 (genesis): {named}" in capsys.readouterr().out

    @pytest.mark.parametrize("change, named", [
        (lambda payload: payload.pop("seed"), "payload.seed: '<absent>' vs 1"),
        (lambda payload: payload.update(zap=5), "payload.zap: 5 vs '<absent>'"),
    ], ids=["field_dropped", "field_added"])
    def test_a_field_only_one_event_holds_is_named_absent_in_the_other(self, tmp_path, capsys, change, named):
        config_path = SCENARIO_DIR / "lifecycle_happy_path.json"
        trace_path = tmp_path / "trace.ndjson"
        events = copy.deepcopy(corpus_run("lifecycle_happy_path")[0].events)
        change(events[0]["payload"])
        Trace(events).write(str(trace_path))
        capsys.readouterr()
        assert cli_main(["replay", str(config_path), str(trace_path)]) == 1
        assert f"DIVERGED at event 0: event 0 (genesis): {named}" in capsys.readouterr().out

    def test_run_at_another_seed_replays_only_at_that_seed(self, tmp_path, capsys):
        config_path = SCENARIO_DIR / "lifecycle_happy_path.json"
        trace_path = tmp_path / "trace.ndjson"
        assert cli_main(["run", str(config_path), "--seed", "7", "--out", str(trace_path)]) == 0
        digest = corpus_run("lifecycle_happy_path")[0].digest()
        out = capsys.readouterr().out
        assert "trace digest: " in out and f"trace digest: {digest}" not in out
        assert cli_main(["replay", str(config_path), str(trace_path), "--seed", "7"]) == 0
        assert "replay: identical" in capsys.readouterr().out
        assert cli_main(["replay", str(config_path), str(trace_path)]) == 1
        assert "DIVERGED at event 0: event 0 (genesis): payload.seed: 7 vs 1" in capsys.readouterr().out

    @pytest.mark.parametrize("edit", [lambda line: line[:-1] + "\r\n", lambda line: line[:-1] + " \n"],
                             ids=["crlf", "trailing_space"])
    def test_a_line_with_other_line_end_bytes_is_a_divergence(self, tmp_path, capsys, edit):
        """Reading keeps each line as written, so a copy of a trace with CRLF line ends or a trailing space
        still audits but does not replay identical, and its digest is not the run's."""
        config_path = SCENARIO_DIR / "lifecycle_happy_path.json"
        trace_path = tmp_path / "trace.ndjson"
        trace = corpus_run("lifecycle_happy_path")[0]
        trace.write(str(trace_path))
        lines = trace_path.read_text().splitlines(keepends=True)
        trace_path.write_bytes("".join(map(edit, lines)).encode())
        assert Trace.read(str(trace_path)).digest() != trace.digest()
        capsys.readouterr()
        assert cli_main(["audit", str(trace_path)]) == 0
        assert cli_main(["replay", str(config_path), str(trace_path)]) == 1
        assert "DIVERGED at event 0: event 0 (genesis): the same values in other text" in capsys.readouterr().out

    def test_a_last_line_without_a_line_feed_exits_2(self, tmp_path, capsys):
        """Every line a run writes ends in a line feed, and a trace's digest joins its lines with one, so a
        file cut before its last line feed is refused, not read as the run's own lines."""
        config_path = SCENARIO_DIR / "lifecycle_happy_path.json"
        trace_path = tmp_path / "trace.ndjson"
        corpus_run("lifecycle_happy_path")[0].write(str(trace_path))
        text = trace_path.read_bytes()
        trace_path.write_bytes(text[:-1])
        last = text.count(b"\n")
        capsys.readouterr()
        for argv in (["audit", str(trace_path)], ["replay", str(config_path), str(trace_path)]):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert f"{trace_path}:{last}: no line feed" in err and "Traceback" not in err

    @pytest.mark.parametrize("at", [0, 5, "end"])
    def test_a_blank_line_exits_2_naming_its_line(self, tmp_path, capsys, at):
        config_path = SCENARIO_DIR / "lifecycle_happy_path.json"
        trace_path = tmp_path / "trace.ndjson"
        corpus_run("lifecycle_happy_path")[0].write(str(trace_path))
        lines = trace_path.read_text().splitlines(keepends=True)
        n = len(lines) if at == "end" else at
        lines.insert(n, "\n")
        trace_path.write_text("".join(lines))
        capsys.readouterr()
        for argv in (["audit", str(trace_path)], ["replay", str(config_path), str(trace_path)]):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert f"{trace_path}:{n + 1}: blank line" in err and "Traceback" not in err

    @pytest.mark.parametrize("content", [b'{"name": "\xff"}\n', b"[" * 100_000 + b"\n"],
                             ids=["invalid_utf8", "nested_past_the_stack"])
    @pytest.mark.parametrize("argv", [["run", "{bad}"], ["audit", "{bad}"],
                                      ["replay", "{bad}", "{good}"], ["replay", "{good}", "{bad}"]])
    def test_unreadable_input_exits_2_without_a_traceback(self, tmp_path, capsys, content, argv):
        bad, good = tmp_path / "bad", tmp_path / "good"
        bad.write_bytes(content)
        good.write_text(json.dumps(mini_config()))  # a valid config, and as a trace a valid line
        assert cli_main([arg.format(bad=bad, good=good) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert f"{bad}" in err and "Traceback" not in err

    def test_non_string_digest_is_a_divergence(self, tmp_path, capsys):
        config_path = tmp_path / "mini.json"
        config_path.write_text(json.dumps(mini_config()))
        trace_path = tmp_path / "trace.ndjson"
        assert cli_main(["run", str(config_path), "--out", str(trace_path)]) == 0
        events = Trace.read(str(trace_path)).events
        events[0]["digest"] = 5
        Trace(events).write(str(trace_path))
        capsys.readouterr()
        assert cli_main(["replay", str(config_path), str(trace_path)]) == 1
        assert "DIVERGED at event 0" in capsys.readouterr().out

    def test_non_object_agent_params_exits_2(self, tmp_path, capsys):
        agents = [{"name": "relay1", "policy": "honest_relayer", "eth": 20000, "params": "x"}]
        config_path = tmp_path / "params.json"
        config_path.write_text(json.dumps(mini_config(agents=agents)))
        assert cli_main(["run", str(config_path)]) == 2
        assert "agents[0].params: expected an object" in capsys.readouterr().err

    @pytest.mark.parametrize("tags", [5, "ab", [5]])
    def test_tags_not_a_list_of_strings_exits_2(self, tmp_path, capsys, tags):
        config_path = tmp_path / "tags.json"
        config_path.write_text(json.dumps(mini_config(tags=tags)))
        assert cli_main(["run", str(config_path)]) == 2
        assert "tags: expected a list of strings" in capsys.readouterr().err

    @pytest.mark.parametrize("change, path", REFUSED)
    def test_refused_with_its_path(self, tmp_path, capsys, change, path):
        doc = mini_config()
        change(doc)
        config_path = tmp_path / "refused.json"
        config_path.write_text(json.dumps(doc))
        assert cli_main(["run", str(config_path)]) == 2
        assert f"config error: {path}: " in capsys.readouterr().err

    def test_rate_outside_the_grammar_exits_2_without_a_traceback(self, tmp_path):
        doc = json.loads((SCENARIO_DIR / "lazy_relay.json").read_text())
        doc["rate_path"] = [[0, OUTSIDE_THE_GRAMMAR[0]]]
        config_path = tmp_path / "rate.json"
        config_path.write_text(json.dumps(doc))
        src = str(SCENARIO_DIR.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "pegsim", "run", str(config_path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 2
        assert "config error: rate_path[0][1]: expected a rational" in done.stderr
        assert "Traceback" not in done.stderr + done.stdout

    def test_scenarios_list_and_run_all(self):
        assert cli_main(["scenarios", "list", "--dir", str(SCENARIO_DIR)]) == 0
        assert cli_main(["scenarios", "run-all", "--dir", str(SCENARIO_DIR)]) == 0

    def test_scenarios_list_marks_an_invalid_config_and_exits_0(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text(json.dumps(mini_config(schema_version=9)))
        (tmp_path / "good.json").write_text(json.dumps(mini_config()))
        capsys.readouterr()
        assert cli_main(["scenarios", "list", "--dir", str(tmp_path)]) == 0
        bad, good = capsys.readouterr().out.splitlines()
        assert bad.startswith("bad.json ") and " INVALID: schema_version" in bad, bad
        assert good.startswith("good.json ") and "INVALID" not in good and " seed=5 " in good, good

    def test_scenarios_run_all_prints_the_first_five_violations_and_exits_1(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "mini.json").write_text(json.dumps(mini_config()))
        report = AuditReport(violations=[Violation(seq, "Invariant1", f"doctored {seq}") for seq in range(7)])
        monkeypatch.setattr(sys.modules[cli_main.__module__], "audit", lambda events: report)
        capsys.readouterr()
        assert cli_main(["scenarios", "run-all", "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("mini.json ") and out[0].endswith(" events  7 VIOLATIONS"), out[0]
        assert out[1:] == [f"    seq {seq}: [Invariant1] doctored {seq}" for seq in range(5)] + ["0/1 scenarios clean"]

    @pytest.mark.parametrize("action", ["list", "run-all"])
    def test_scenarios_in_a_dir_without_configs_exits_2(self, tmp_path, capsys, action):
        (tmp_path / "notes.txt").write_text("no configs here")
        assert cli_main(["scenarios", action, "--dir", str(tmp_path)]) == 2
        assert f"no scenarios found in {str(tmp_path)!r}" in capsys.readouterr().err

    def test_corpus_has_at_least_ten(self):
        assert len(list(SCENARIO_DIR.glob("*.json"))) >= 10
