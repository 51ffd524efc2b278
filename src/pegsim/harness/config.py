"""Scenario configuration: versioned JSON schema, validation with field paths."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from ..agents import POLICIES, RatePath
from ..bridge import ProtocolParams
from ..chainsim import POW_FNS, doge_address
from ..errors import ConfigError
from ..proofsys import CostModel
from ..scheduler import ClockParams, challenge_window_eth_blocks

SCHEMA_VERSION = 1

_RATE_FIELDS = {"registration_void_fee_rate", "nonmax_penalty_rate", "challenge_reward_rate"}


@dataclass(frozen=True)
class AgentSpec:
    name: str
    policy: str
    eth: int
    doge: int
    visibility_delay_s: int
    params: dict

    @property
    def doge_addr(self) -> bytes:
        return doge_address(self.name)


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    tags: Tuple[str, ...]
    seed: int
    clock: ClockParams
    params: ProtocolParams
    cost_model: CostModel
    pow_target: int
    pow_fn: str
    rate_path: RatePath
    agents: Tuple[AgentSpec, ...]
    end_time: int

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return dataclasses.replace(self, seed=seed)


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _as_fraction(value, path: str) -> Fraction:
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return Fraction(int(value[0]), int(value[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{path}: not a rational: {exc}") from exc
    raise ConfigError(f"{path}: expected rational as 'n/d' string, int, or [n, d]")


def _as_int(value, path: str, minimum: Optional[int] = None) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
    if minimum is not None:
        _expect(value >= minimum, path, f"must be >= {minimum}")
    return value


def _check_exact_y(y: Fraction, path: str) -> Fraction:
    _expect(y > 0, path, "rate must be positive")
    _expect(y.numerator == 1, path,
            "rate must be exact-unit: 1/y must be an integer number of ETH units per DOGE unit")
    return y


def _object(value, path: str) -> dict:
    _expect(isinstance(value, dict), path, "expected an object")
    return value


def _agent_params(raw: dict, name: str, path: str) -> dict:
    """Normalize policy params: rationals parsed, addresses resolved."""
    params = dict(raw)
    for key in ("y",):
        if key in params:
            params[key] = _check_exact_y(_as_fraction(params[key], f"{path}.{key}"), f"{path}.{key}")
    if "headroom" in params:
        rate = _as_fraction(params["headroom"], f"{path}.headroom")
        _expect(rate >= 0, f"{path}.headroom", "must be non-negative")
        params["headroom"] = rate
    if "head" in params:
        try:
            params["head"] = bytes.fromhex(params["head"])
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}.head: expected hex string: {exc}") from exc
    return params


def parse_config(doc: dict) -> ScenarioConfig:
    _expect(isinstance(doc, dict), "$", "config must be a JSON object")
    _expect(doc.get("schema_version") == SCHEMA_VERSION, "schema_version",
            f"expected {SCHEMA_VERSION}")

    name = doc.get("name", "unnamed")
    tags = doc.get("tags", [])
    _expect(isinstance(tags, list) and all(isinstance(t, str) for t in tags), "tags",
            "expected a list of strings")
    tags = tuple(tags)
    seed = _as_int(doc.get("seed", 0), "seed", 0)

    clock_doc = _object(doc.get("clock", {}), "clock")
    try:
        clock = ClockParams(
            eth_block_seconds=_as_int(clock_doc.get("eth_block_seconds", 14), "clock.eth_block_seconds", 1),
            doge_block_seconds=_as_int(clock_doc.get("doge_block_seconds", 62), "clock.doge_block_seconds", 1),
            doge_interarrival=clock_doc.get("doge_interarrival", "deterministic"),
        )
    except ValueError as exc:
        raise ConfigError(f"clock: {exc}") from exc

    params_doc = _object(doc.get("params", {}), "params")
    overrides = {}
    for key, value in params_doc.items():
        _expect(hasattr(ProtocolParams, key) and key in ProtocolParams.__dataclass_fields__,
                f"params.{key}", "unknown parameter")
        if key in _RATE_FIELDS:
            overrides[key] = _as_fraction(value, f"params.{key}")
        else:
            overrides[key] = _as_int(value, f"params.{key}", 0)
    if "challenge_window_eth_blocks" not in overrides:
        d = overrides.get("d", ProtocolParams.d)
        k = overrides.get("k", ProtocolParams.k)
        overrides["challenge_window_eth_blocks"] = challenge_window_eth_blocks(d, k, clock)
    try:
        params = ProtocolParams(**overrides)
        params.validate()
    except Exception as exc:
        raise ConfigError(f"params: {exc}") from exc

    cm_doc = _object(doc.get("cost_model", {}), "cost_model")
    cost_model = CostModel(
        base_cost=_as_int(cm_doc.get("base_cost", 100), "cost_model.base_cost", 0),
        per_block_cost=_as_int(cm_doc.get("per_block_cost", 1), "cost_model.per_block_cost", 0),
        latency_per_block_s=_as_int(cm_doc.get("latency_per_block_s", 2), "cost_model.latency_per_block_s", 0),
    )

    pow_doc = _object(doc.get("pow", {}), "pow")
    target_bits = _as_int(pow_doc.get("target_bits", 250), "pow.target_bits", 8)
    _expect(target_bits <= 255, "pow.target_bits", "must be <= 255 (the target is a 32-byte field)")
    pow_fn = pow_doc.get("fn", "sha256d")
    _expect(pow_fn in POW_FNS, "pow.fn", f"one of {sorted(POW_FNS)}")

    rp_doc = doc.get("rate_path", [[0, "1/1000"]])
    _expect(isinstance(rp_doc, list) and rp_doc, "rate_path", "expected a non-empty list")
    points = []
    for i, pair in enumerate(rp_doc):
        _expect(isinstance(pair, (list, tuple)) and len(pair) == 2, f"rate_path[{i}]",
                "expected [time, rate]")
        t = _as_int(pair[0], f"rate_path[{i}][0]", 0)
        points.append((t, _as_fraction(pair[1], f"rate_path[{i}][1]")))
    _expect(points[0][0] == 0, "rate_path[0][0]", "schedule must start at time 0")
    try:
        rate_path = RatePath(tuple(points))
    except ConfigError as exc:
        raise ConfigError(f"rate_path: {exc}") from exc

    agents_doc = doc.get("agents", [])
    _expect(isinstance(agents_doc, list) and agents_doc, "agents", "expected a non-empty list")
    agents: List[AgentSpec] = []
    seen = set()
    for i, a in enumerate(agents_doc):
        path = f"agents[{i}]"
        _expect(isinstance(a, dict), path, "expected an object")
        aname = a.get("name")
        _expect(isinstance(aname, str) and aname, f"{path}.name", "expected a non-empty string")
        _expect(aname not in seen, f"{path}.name", f"duplicate agent name {aname!r}")
        seen.add(aname)
        policy = a.get("policy")
        _expect(policy in POLICIES, f"{path}.policy", f"one of {sorted(POLICIES)}")
        spec = AgentSpec(
            name=aname,
            policy=policy,
            eth=_as_int(a.get("eth", 0), f"{path}.eth", 0),
            doge=_as_int(a.get("doge", 0), f"{path}.doge", 0),
            visibility_delay_s=_as_int(a.get("visibility_delay_s", 0), f"{path}.visibility_delay_s", 0),
            params=_agent_params(_object(a.get("params", {}), f"{path}.params"), aname, f"{path}.params"),
        )
        if spec.policy == "rational_operator" and "head" not in spec.params:
            spec.params["head"] = doge_address(f"{aname}/head")
        agents.append(spec)

    end_doc = doc.get("end", {})
    _expect(isinstance(end_doc, dict) and "sim_time" in end_doc, "end", "expected {'sim_time': seconds}")
    end_time = _as_int(end_doc["sim_time"], "end.sim_time", 1)

    return ScenarioConfig(
        name=name,
        tags=tags,
        seed=seed,
        clock=clock,
        params=params,
        cost_model=cost_model,
        pow_target=1 << target_bits,
        pow_fn=pow_fn,
        rate_path=rate_path,
        agents=tuple(agents),
        end_time=end_time,
    )


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parse_config(doc)
