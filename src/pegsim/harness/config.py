"""Scenario configuration: versioned JSON schema, validation with field paths.

Each object is parsed against its declaration (see agents.declared_defaults):
an undeclared key, a wrong type or a missing required key is a ConfigError.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from fractions import Fraction
from types import UnionType
from typing import Callable, Tuple

from ..agents import POLICIES, Rate, RatePath, declared_defaults
from ..bridge import ProtocolParams
from ..chainsim import POW_FNS
from ..errors import BadParams, ConfigError
from ..proofsys import CostModel
from ..scheduler import ClockParams, challenge_window_eth_blocks
from .audit import RATIONAL

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AgentSpec:
    name: str
    policy: str
    eth: int
    doge: int
    visibility_delay_s: int
    params: dict


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
    pair = isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value)
    _expect(pair or type(value) is int or isinstance(value, str) and RATIONAL.fullmatch(value) is not None,
            path, "expected a rational: 'n/d', an integer, or [n, d] of integers")
    try:
        rate = Fraction(*value) if pair else Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{path}: not a rational: {exc}") from exc
    _expect(rate >= 0, path, "must be >= 0")
    return rate


def _as_int(value, path: str) -> int:
    if type(value) is not int or value < 0:
        raise ConfigError(f"{path}: {'must be >= 0' if type(value) is int else 'expected an integer'}")
    return value


def _check_exact_y(value, path: str) -> Fraction:
    y = _as_fraction(value, path)  # >= 0, and 0 has numerator 0
    _expect(y.numerator == 1, path, "rate must be exact-unit: 1/y (ETH units per DOGE unit) an integer")
    return y


def _is(accepts: Callable[[object], bool], message: str):
    def parse(value, path: str):
        _expect(accepts(value), path, message)
        return value
    return parse


# declared type -> parser; ints and rationals in a config are never negative
_PARSERS = {
    int: _as_int,
    int | None: _as_int,
    bool: _is(lambda v: isinstance(v, bool), "expected a boolean"),
    str: _is(lambda v: isinstance(v, str), "expected a string"),
    dict: _is(lambda v: isinstance(v, dict), "expected an object"),
    list: _is(lambda v: isinstance(v, list) and v != [], "expected a non-empty list"),
    tuple: _is(lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v), "expected a list of strings"),
    Fraction: _as_fraction,
    Rate: _check_exact_y,
}


def _table(declared) -> Tuple[dict, dict, Tuple[str, ...]]:
    """(key -> parser, defaults, required keys) of a declaration or of a dataclass's fields."""
    if dataclasses.is_dataclass(declared):
        declared = {f.name: f.default for f in dataclasses.fields(declared)}
    parsers = {key: _PARSERS[decl if isinstance(decl, (type, UnionType)) else type(decl)]
               for key, decl in declared.items()}
    required = tuple(key for key, decl in declared.items() if isinstance(decl, type))
    return parsers, declared_defaults(declared), required


def _declared(table: Tuple[dict, dict, Tuple[str, ...]], doc: dict, prefix: str) -> dict:
    """Every declared key of doc, parsed, with the declared default where unset."""
    parsers, defaults, required = table
    out = dict(defaults)
    for key, value in doc.items():
        if key not in parsers:
            raise ConfigError(f"{prefix}{key}: unknown key")
        out[key] = parsers[key](value, prefix + key)
    for key in required:
        _expect(key in doc, prefix + key, "missing required key")
    return out


_TOP = _table({"schema_version": int, "name": "unnamed", "tags": (), "seed": 0, "clock": {}, "params": {},
               "cost_model": {}, "pow": {}, "rate_path": [[0, "1/1000"]], "agents": list, "end": dict})
_CLOCK = _table(ClockParams)
_PROTOCOL = _table(ProtocolParams)
_COST_MODEL = _table(CostModel)
_POW = _table({"target_bits": 250, "fn": "sha256d"})
_END = _table({"sim_time": int})
_AGENT = _table({"name": str, "policy": str, "eth": 0, "doge": 0, "visibility_delay_s": 0, "params": {}})
_POLICY_PARAMS = {policy: _table(cls.PARAMS) for policy, cls in POLICIES.items()}
_ONE_OF_POW_FNS = f"one of {sorted(POW_FNS)}"
_ONE_OF_POLICIES = f"one of {sorted(POLICIES)}"


def parse_config(doc: dict) -> ScenarioConfig:
    _expect(isinstance(doc, dict), "$", "config must be a JSON object")
    _expect(doc.get("schema_version") == SCHEMA_VERSION, "schema_version", f"expected {SCHEMA_VERSION}")
    top = _declared(_TOP, doc, "")

    try:
        clock = ClockParams(**_declared(_CLOCK, top["clock"], "clock."))
    except ValueError as exc:
        raise ConfigError(f"clock: {exc}") from exc

    fields = _declared(_PROTOCOL, top["params"], "params.")
    if "challenge_window_eth_blocks" not in top["params"]:
        fields["challenge_window_eth_blocks"] = challenge_window_eth_blocks(fields["d"], fields["k"], clock)
    try:
        params = ProtocolParams(**fields)
        params.validate()
    except BadParams as exc:
        raise ConfigError(f"params: {exc}") from exc

    cost_model = CostModel(**_declared(_COST_MODEL, top["cost_model"], "cost_model."))

    pow_ = _declared(_POW, top["pow"], "pow.")
    _expect(8 <= pow_["target_bits"] <= 255, "pow.target_bits", "must be in 8..255 (a 32-byte target field)")
    _expect(pow_["fn"] in POW_FNS, "pow.fn", _ONE_OF_POW_FNS)

    points = []
    for i, pair in enumerate(top["rate_path"]):
        _expect(isinstance(pair, list) and len(pair) == 2, f"rate_path[{i}]", "expected [time, rate]")
        points.append((_as_int(pair[0], f"rate_path[{i}][0]"), _as_fraction(pair[1], f"rate_path[{i}][1]")))
    _expect(points[0][0] == 0, "rate_path[0][0]", "schedule must start at time 0")
    rate_path = RatePath(tuple(points))  # its errors name rate_path

    agents = []
    names = set()
    for i, agent_doc in enumerate(top["agents"]):
        path = f"agents[{i}]"
        _expect(isinstance(agent_doc, dict), path, "expected an object")
        a = _declared(_AGENT, agent_doc, path + ".")
        if not a["name"] or a["name"] in names:
            raise ConfigError(f"{path}.name: expected a non-empty name no other agent has, got {a['name']!r}")
        names.add(a["name"])
        _expect(a["policy"] in POLICIES, f"{path}.policy", _ONE_OF_POLICIES)
        a["params"] = _declared(_POLICY_PARAMS[a["policy"]], a["params"], f"{path}.params.")
        agents.append(AgentSpec(**a))

    end_time = _declared(_END, top["end"], "end.")["sim_time"]
    _expect(end_time >= 1, "end.sim_time", "must be >= 1")

    return ScenarioConfig(name=top["name"], tags=tuple(top["tags"]), seed=top["seed"], clock=clock,
                          params=params, cost_model=cost_model, pow_target=1 << pow_["target_bits"],
                          pow_fn=pow_["fn"], rate_path=rate_path, agents=tuple(agents), end_time=end_time)


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ConfigError(f"{path}: {exc}") from exc
    return parse_config(doc)
