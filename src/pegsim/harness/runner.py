"""The simulation driver: wires chain, clock, contract, and agents together.

Every state transition lands in the trace as one JSON-safe event carrying the
contract's aggregate snapshot and state digest, so the auditor can re-check
the economic invariants without consulting the live objects.  A call that
changes the contract writes an event after the change, so only genesis and
the contract's own events compute a snapshot, and every other event holds the
very agg and digest of the one before it.  A fixed (config, seed) pair replays
to a byte-identical trace.

Every coin block is mined on the best tip, so each block extends every tip an
agent can see: a `doge_block` event changes the chain alone, and an agent whose
answer holds on every extension of its tip sleeps through it (see _asleep).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..agents import ON_EXTENSION, WAKE, Observation, Policy, make_policy
from ..bridge import BridgeContract, EthAccounts, canonical_json
from ..chainsim import NEVER, ChainView, Transaction
from ..errors import ParseError, SimError
from ..merkle import sha256
from ..scheduler import EventQueue, next_doge_block_time
from .audit import SNAPSHOT_COPIES
from .config import ScenarioConfig


def _refuse_number(literal: str):
    raise ValueError(f"{literal} is not an integer: a trace holds integers only")


# a run writes integers only, and the auditor, which checks parsed values, would take a 3.0 for a 3
_TRACE_JSON = json.JSONDecoder(parse_float=_refuse_number, parse_constant=_refuse_number)

# the keys of every event _record writes, and the snapshot Trace.lines has encoded before its first event:
# none yet, and an event may hold "agg": null
_EVENT_KEYS = frozenset({"seq", "t", "eth", "kind", "actor", "payload", "agg", "digest"})
_NO_AGG = object()


@dataclass
class Trace:
    """A run's events and their canonical JSON lines.  A run's trace encodes its lines once, the first
    time they are needed, and each snapshot object its events share once, splicing that text into each
    line; a read trace keeps the lines as read, so its digest is over the file's own text.  A Trace is
    not edited in place, and a run's events share snapshot objects: edit parsed lines or a deep copy, and
    build a new Trace of them, which encodes afresh."""

    events: List[dict]
    _lines: Optional[List[str]] = field(default=None, repr=False, compare=False)

    def lines(self) -> List[str]:
        if self._lines is None:
            lines, last, text = [], _NO_AGG, ""
            for e in self.events:
                # the line canonical_json(e) gives, its sorted keys written out: for the runner's eight keys
                # only, and seq, t and eth of type int (an f-string writes a bool as True, not true)
                if e.keys() != _EVENT_KEYS or not type(e["seq"]) is type(e["t"]) is type(e["eth"]) is int:
                    lines.append(canonical_json(e))
                    continue
                if e["agg"] is not last:
                    last, text = e["agg"], canonical_json(e["agg"])
                lines.append(
                    f'{{"actor":{canonical_json(e["actor"])},"agg":{text},"digest":{canonical_json(e["digest"])},'
                    f'"eth":{e["eth"]},"kind":{canonical_json(e["kind"])},"payload":{canonical_json(e["payload"])},'
                    f'"seq":{e["seq"]},"t":{e["t"]}}}')
            self._lines = lines
        return self._lines

    def digest(self) -> str:
        """SHA-256 of the lines joined by line feeds, fed one line at a time: the joined text is never built."""
        h = hashlib.sha256()
        for i, line in enumerate(self.lines()):
            h.update(("\n" + line if i else line).encode())
        return h.hexdigest()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.lines():
                fh.write(line + "\n")

    @classmethod
    def read(cls, path: str) -> "Trace":
        """Parse an NDJSON trace, each line kept as written, a carriage return or space included.  Raises
        ParseError on a line that does not end in a line feed, a blank line, a line that is not a UTF-8 JSON
        object, or one that holds a number other than an integer (a fraction, an exponent, NaN or Infinity)."""
        events, lines = [], []
        with open(path, "rb") as fh:
            for n, raw in enumerate(fh, 1):  # a binary file splits on b"\n" only
                try:
                    if not raw.endswith(b"\n"):
                        raise ValueError("no line feed at the end of the file")
                    line = raw[:-1].decode("utf-8")
                    if not line:
                        raise ValueError("blank line")
                    event = _TRACE_JSON.decode(line)
                except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, a bad line end, or deep nesting
                    raise ParseError(f"{path}:{n}: {exc}") from exc
                if not isinstance(event, dict):
                    raise ParseError(f"{path}:{n}: not an event object: {event!r}")
                events.append(event)
                lines.append(line)
        return cls(events, lines)

    @property
    def summary(self) -> Optional[dict]:
        for event in reversed(self.events):
            if event["kind"] == "run_summary":
                return event["payload"]
        return None


@dataclass
class _AgentRuntime:
    policy: Policy
    visibility_delay_s: int
    priv: dict = field(default_factory=dict)
    until: float = 0  # I sleep until then; every event but doge_block sets it to 0 (see _asleep)


class SimulationRunner:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.clock = config.clock
        self.queue = EventQueue()

        self.view = ChainView.new(config.pow_target, config.pow_fn)
        self.accounts = EthAccounts({a.name: a.eth for a in config.agents})
        self.contract = BridgeContract(config.params, config.cost_model, self.accounts, self.clock,
                                       self.view.genesis.header)
        self.contract.emit_hook = self._record

        self.agents = [
            _AgentRuntime(make_policy(a.policy, a.name, a.params, agent_seed=_agent_seed(config.seed, a.name)),
                          a.visibility_delay_s)
            for a in config.agents
        ]
        self.doge_balances: Dict[bytes, int] = {
            agent.policy.doge_addr: a.doge for agent, a in zip(self.agents, config.agents) if a.doge}

        self.mempool: List[Transaction] = []
        self._nonces: Dict[bytes, int] = {}
        self._doge_rng = random.Random(f"{config.seed}/doge-times")

        self.events: List[dict] = []
        self._next_block_s = 0  # when the next coin block is mined
        self._quiet: float = 0  # the agents' smallest until: no turn is taken before it

    # -- trace plumbing ------------------------------------------------------

    def _record(self, kind: str, actor: str, payload: dict) -> None:
        if kind != "doge_block":  # the world but the chain changed: wake every agent
            self._quiet = 0
            for agent in self.agents:
                agent.until = 0
        if kind in SNAPSHOT_COPIES and self.events:  # the runner's own kinds but genesis, after a first event
            agg, digest = self.events[-1]["agg"], self.events[-1]["digest"]
        else:
            agg, digest = self.contract.aggregates(), self.contract.state_digest()
        event = {
            "seq": len(self.events),
            "t": self.contract.now_s,
            "eth": self.contract.eth_now,
            "kind": kind,
            "actor": actor,
            "payload": payload,
            "agg": agg,
            "digest": digest,
        }
        self.events.append(event)

    # -- world mechanics -------------------------------------------------------

    def _mine_next_block(self) -> None:
        txs, self.mempool = self.mempool, []
        parent = self.view.best_tip()
        mined = len(self.view.blocks) - 1  # every block but genesis was mined here
        seed = int.from_bytes(sha256(f"{self.config.seed}/mine/{mined}".encode())[:8], "big")
        now = self.contract.now_s
        block = self.view.mine_block(parent, txs, time=now, seed=seed)
        self.view.add_block(block, arrival_time=now)
        self._record("doge_block", "network", {
            "ordinal": block.header.ordinal,
            "hash": block.header.hash.hex(),
            "txs": [
                {"sender": tx.sender.hex(), "receiver": tx.receiver.hex(),
                 "amount": tx.amount, "tx_id": tx.tx_id.hex()}
                for tx in txs
            ],
        })
        self._schedule_block(now)

    def _schedule_block(self, after: int) -> None:
        self._next_block_s = next_doge_block_time(after, self.clock, self._doge_rng)
        self.queue.schedule(self._next_block_s, ("doge_block", {}))

    def _send_doge(self, policy: Policy, params: dict) -> None:
        sender: bytes = params["sender"]
        owns = sender == policy.doge_addr or any(
            b.operator == policy.name and b.head == sender for b in self.contract.bridges.values()
        )
        if not owns:
            raise SimError(f"{policy.name} does not control sender address")
        amount = params["amount"]
        balance = self.doge_balances.get(sender, 0)
        if amount <= 0 or balance < amount:
            raise SimError(f"overdraft: {sender.hex()[:8]} holds {balance}, sends {amount}")
        nonce = self._nonces.get(sender, 0)
        tx = Transaction(sender, params["receiver"], amount, nonce, params["memo"])
        self._nonces[sender] = nonce + 1
        self.doge_balances[sender] = balance - amount
        self.doge_balances[params["receiver"]] = self.doge_balances.get(params["receiver"], 0) + amount
        self.mempool.append(tx)
        self._record("doge_tx", policy.name, {
            "sender": tx.sender.hex(), "receiver": tx.receiver.hex(),
            "amount": tx.amount, "tx_id": tx.tx_id.hex(), "memo": tx.memo.decode("utf-8", "replace"),
        })

    def _observe(self, agent: _AgentRuntime, tip: bytes, true_rate: Fraction) -> Observation:
        return Observation(
            doge_balances=self.doge_balances,
            chain=self.view,
            tip=tip,
            bridge=self.contract,
            true_rate=true_rate,
            visibility_delay_s=agent.visibility_delay_s,
        )

    def _asleep(self, agent: _AgentRuntime) -> bool:
        """Whether the agent's until has not come.  Every event but doge_block sets it to 0, and so does
        a step that acts; one that does nothing sets the earliest of its wake (none: the next turn), the
        next rate point and, unless its answer holds on every extension of its visible tip, the next time
        that tip can change (when a block that arrived after its cutoff, or else the next block, becomes
        visible to it).  Each change to the contract or doge balances is an event, ETH moves only through
        contract calls, and a block only extends the tip: so until then the step would do nothing again."""
        return self.contract.now_s < agent.until

    # -- action dispatch ---------------------------------------------------------

    def _apply_action(self, policy: Policy, action) -> None:
        c = self.contract
        p = action.params
        kind = action.kind
        if kind == "become_relayer":
            c.become_relayer(policy.name, p["deposit"])
        elif kind == "open_bridge":
            c.open_bridge(policy.name, p["x"], p["y"], p["head"],
                          crossing_fee=p["crossing_fee"], burn_bounty=p["burn_bounty"])
        elif kind == "register":
            c.register_crossing(policy.name, p["head"], p["deposit"], crosser_doge=policy.doge_addr,
                                lock_bounty=p["lock_bounty"])
        elif kind == "send_doge":
            self._send_doge(policy, p)
        elif kind == "submit_extension":
            deadline = c.submit_extension(policy.name, p["sub"])
            self._schedule_accept(deadline)
        elif kind == "challenge_range":
            if c.challenge_range(policy.name, p["alt"]) == "replaced":
                self._schedule_accept(c.window_deadline())
        elif kind == "challenge_commitment":
            thread = c.challenge_commitment(policy.name)
            self.queue.schedule(thread.verdict_due_s, ("proof_timeout", {"thread": thread}))
        elif kind == "supply_proof":
            thread = c.supply_proof(policy.name, p["thread_id"], p["proof"])
            self.queue.schedule(thread.verdict_due_s, ("oracle", {"thread": thread}))
        elif kind == "report_lock":
            c.report_lock(policy.name, p["report"])
        elif kind == "report_unlock":
            c.report_unlock(policy.name, p["burn_id"], p["report"])
        elif kind == "report_missing":
            c.report_missing_doge(policy.name, p["report"], p["y"], p["n"])
        elif kind == "burn_wow":
            burn = c.burn_wow(policy.name, p["y"], p["w"], p["dest"])
            self.queue.schedule(burn.deadline_eth * self.clock.eth_block_seconds,
                                ("unlock_deadline", {"burn": burn}))
        elif kind == "backtrack":
            deadline = c.backtrack(policy.name, p["from_index"], p["sub"])
            self._schedule_accept(deadline)
        else:
            raise SimError(f"unknown action kind {kind!r}")

    def _schedule_accept(self, deadline_eth: int) -> None:
        self.queue.schedule(deadline_eth * self.clock.eth_block_seconds,
                            ("accept_check", {"active": self.contract.active}))

    # -- event handlers ---------------------------------------------------------

    def _handle(self, t: int, event: Tuple[str, dict]) -> None:
        kind, p = event
        c = self.contract
        c.advance_to(t)
        if kind == "doge_block":
            self._mine_next_block()
        elif kind == "turns":
            if t >= self._quiet:  # else every agent is _asleep
                self._take_turns(t)
            self.queue.schedule(t + self.clock.eth_block_seconds, ("turns", {}))
        elif kind == "accept_check":
            if c.active is p["active"]:
                c.accept_on_timeout()
        elif kind == "proof_timeout":
            if p["thread"].proof is None:  # no proof, so it times out; else the oracle event resolves it
                c.resolve_proof(p["thread"].thread_id)
        elif kind == "oracle":
            c.resolve_proof(p["thread"].thread_id)
        elif kind == "unlock_deadline":
            if not p["burn"].settled:  # its deadline has come, so all its unpaid portions are due
                c.unlock_timeout(p["burn"].burn_id)

    def _take_turns(self, t: int) -> None:
        """Step each agent not asleep, in roster order, and keep the smallest until for later turns."""
        true_rate, rate_until = self.config.rate_path.segment(t)
        for agent in self.agents:
            if not self._asleep(agent):
                tip, tip_until = self.view.visible(t - agent.visibility_delay_s)
                actions, agent.priv = agent.policy.step(self._observe(agent, tip, true_rate), agent.priv)
                chain_until = NEVER if agent.priv.get(ON_EXTENSION) else \
                    min(tip_until, self._next_block_s) + agent.visibility_delay_s
                agent.until = 0 if actions else min(agent.priv.get(WAKE, t), chain_until, rate_until)
                for action in actions:
                    try:
                        self._apply_action(agent.policy, action)
                    except SimError as exc:
                        self._record("action_rejected", agent.policy.name, {
                            "action": action.kind,
                            "error": type(exc).__name__,
                            "detail": str(exc),
                        })
        self._quiet = min((agent.until for agent in self.agents), default=NEVER)

    # -- entry point -------------------------------------------------------------

    def run(self) -> Trace:
        self._record("genesis", "system", {
            "name": self.config.name,
            "tags": list(self.config.tags),
            "seed": self.config.seed,
            "agents": [a.name for a in self.config.agents],
        })
        self._schedule_block(0)
        self.queue.schedule(self.clock.eth_block_seconds, ("turns", {}))
        self.queue.run_until(self.config.end_time, self._handle)
        self.contract.advance_to(self.config.end_time)
        self._record("run_summary", "system", self._summary())
        return Trace(self.events)

    def _summary(self) -> dict:
        c = self.contract
        # the rate of each minted bridge that has not closed, by its head; no two such bridges share a head
        rate_at = {b.head: str(b.y) for b in c.bridges.values() if b.state in ("queued", "escrowed")}
        locked: Dict[str, int] = dict.fromkeys(rate_at.values(), 0)
        tip = self.view.best_tip()
        tip_ord = self.view.blocks[tip].header.ordinal
        for block in self.view.path_blocks(tip, 0, tip_ord):
            for tx in block.txs:
                if tx.receiver in rate_at:
                    locked[rate_at[tx.receiver]] += tx.amount
                if tx.sender in rate_at:
                    locked[rate_at[tx.sender]] -= tx.amount
        open_inflight = any(
            b.state == "open" and self.doge_balances.get(b.head, 0) > 0
            for b in c.bridges.values()
        )
        quiescent = not c.registrations and not any(c.unsettled()) and not open_inflight
        return {
            "name": self.config.name,
            "tags": list(self.config.tags),
            "supply": {str(y): n for y, n in sorted(c.wow_supply.items(), key=lambda kv: str(kv[0]))},
            "locked_on_best": locked,
            "quiescent": quiescent,
            "history_len": len(c.history),
            "current_date": c.current_date,
            "best_tip_ordinal": tip_ord,
            "relayer_deposits": dict(sorted(c.relayer_deposits.items())),
            "eth_balances": dict(sorted(self.accounts.balances.items())),
            "doge_balances": {addr.hex(): amt for addr, amt in
                              sorted(self.doge_balances.items(), key=lambda kv: kv[0].hex())},
            "wow_balances": [[who, str(y), amt] for (who, y), amt in
                             sorted(c.wow_balances.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
                             if amt],
            "retained": c.retained,
        }


def _agent_seed(scenario_seed: int, name: str) -> int:
    return int.from_bytes(sha256(f"{scenario_seed}/agent/{name}".encode())[:8], "big")


def run(config: ScenarioConfig) -> Trace:
    return SimulationRunner(config).run()


@dataclass
class ReplayResult:
    ok: bool
    first_divergence: Optional[int] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def replay_check(config: ScenarioConfig, trace: Trace) -> ReplayResult:
    """Re-run the config and compare the trace's lines with the re-run's byte for byte, naming the
    first field of the first differing event that differs in value or type."""
    rerun = run(config)
    for i, (a, b) in enumerate(zip(trace.lines(), rerun.lines())):
        if a != b:
            a, b = trace.events[i], rerun.events[i]
            where = _first_difference(a, b) or "the same values in other text"
            return ReplayResult(False, i, f"event {i} ({b['kind']}): {where}")
    old, new = trace.events, rerun.events
    if len(old) != len(new):
        return ReplayResult(False, min(len(old), len(new)),
                            f"length mismatch: {len(old)} vs {len(new)}")
    return ReplayResult(True)


def _first_difference(a: dict, b: dict) -> Optional[str]:
    """The first field, in the re-run's order, where trace event a and re-run event b differ in value or
    type (so true differs from 1), or None: a field's canonical text is its value and type."""
    for key in [*b, *a]:
        if key not in a or key not in b:
            return f"{key}: {a.get(key, '<absent>')!r} vs {b.get(key, '<absent>')!r}"
        x, y = a[key], b[key]
        if isinstance(x, dict) and isinstance(y, dict):
            inner = _first_difference(x, y)
            if inner:
                return f"{key}.{inner}"
        elif canonical_json(x) != canonical_json(y):
            return f"{key}: {x!r} vs {y!r}"
    return None
