"""The simulation driver: wires chain, clock, contract, and agents together.

Every state transition lands in the trace as one JSON-safe event carrying the
contract's aggregate snapshot and state digest, so the auditor can re-check
the economic invariants without consulting the live objects.  A fixed
(config, seed) pair replays to a byte-identical trace.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..agents import Observation, make_policy
from ..bridge import BridgeContract, EthAccounts
from ..chainsim import ChainView, Transaction, block_hash
from ..errors import AlreadySettled, NotElapsed, ParseError, SimError
from ..merkle import sha256
from ..proofsys import oracle_verify
from ..scheduler import EventQueue, ethereum_time, next_doge_block_time
from .config import ScenarioConfig


@dataclass
class Trace:
    events: List[dict]

    def lines(self) -> List[str]:
        return [json.dumps(e, sort_keys=True, separators=(",", ":")) for e in self.events]

    def digest(self) -> str:
        h = sha256("\n".join(self.lines()).encode())
        return h.hex()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.lines():
                fh.write(line + "\n")

    @classmethod
    def read(cls, path: str) -> "Trace":
        """Parse an NDJSON trace; raises ParseError on a line that is not a JSON object."""
        events = []
        with open(path, "r", encoding="utf-8") as fh:
            for n, line in enumerate(fh, 1):
                line = line.strip()
                if line:
                    event = json.loads(line)
                    if not isinstance(event, dict):
                        raise ParseError(f"{path}:{n}: not an event object: {event!r}")
                    events.append(event)
        return cls(events)

    @property
    def summary(self) -> Optional[dict]:
        for event in reversed(self.events):
            if event["kind"] == "run_summary":
                return event["payload"]
        return None


@dataclass
class _AgentRuntime:
    name: str
    policy: object
    doge_addr: bytes
    visibility_delay_s: int
    priv: dict = field(default_factory=dict)


class SimulationRunner:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.clock = config.clock
        self.queue = EventQueue()
        self.now = 0
        self.eth_now = 0

        self.accounts = EthAccounts({a.name: a.eth for a in config.agents})
        self.contract = BridgeContract(config.params, config.cost_model, self.accounts)
        self.contract.emit_hook = self._record

        self.view = ChainView.new(config.pow_target, config.pow_fn)
        self.doge_balances: Dict[bytes, int] = {}
        for a in config.agents:
            if a.doge:
                self.doge_balances[a.doge_addr] = a.doge

        self.agents = [
            _AgentRuntime(
                name=a.name,
                policy=make_policy(a.policy, a.name, a.params,
                                   agent_seed=_agent_seed(config.seed, a.name)),
                doge_addr=a.doge_addr,
                visibility_delay_s=a.visibility_delay_s,
            )
            for a in config.agents
        ]

        self.mempool: List[Transaction] = []
        self._nonces: Dict[bytes, int] = {}
        self._doge_rng = random.Random(f"{config.seed}/doge-times")

        self.events: List[dict] = []

    # -- trace plumbing ------------------------------------------------------

    def _record(self, kind: str, actor: str, payload: dict) -> None:
        event = {
            "seq": len(self.events),
            "t": self.now,
            "eth": self.eth_now,
            "kind": kind,
            "actor": actor,
            "payload": payload,
            "agg": self.contract.aggregates(),
            "digest": self.contract.state_digest(),
        }
        self.events.append(event)

    # -- world mechanics -------------------------------------------------------

    def _mine_next_block(self) -> None:
        txs, self.mempool = self.mempool, []
        parent = self.view.best_tip()
        mined = len(self.view.blocks) - 1  # every block but genesis was mined here
        seed = int.from_bytes(sha256(f"{self.config.seed}/mine/{mined}".encode())[:8], "big")
        block = self.view.mine_block(parent, txs, time=self.now, seed=seed)
        self.view.add_block(block, arrival_time=self.now)
        self._record("doge_block", "network", {
            "ordinal": block.header.ordinal,
            "hash": block_hash(block.header).hex(),
            "txs": [
                {"sender": tx.sender.hex(), "receiver": tx.receiver.hex(),
                 "amount": tx.amount, "tx_id": tx.tx_id.hex()}
                for tx in txs
            ],
        })
        self.queue.schedule(next_doge_block_time(self.now, self.clock, self._doge_rng), ("doge_block", {}))

    def _send_doge(self, agent: _AgentRuntime, params: dict) -> None:
        sender: bytes = params["sender"]
        owns = sender == agent.doge_addr or any(
            b.operator == agent.name and b.head == sender for b in self.contract.bridges.values()
        )
        if not owns:
            raise SimError(f"{agent.name} does not control sender address")
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
        self._record("doge_tx", agent.name, {
            "sender": tx.sender.hex(), "receiver": tx.receiver.hex(),
            "amount": tx.amount, "tx_id": tx.tx_id.hex(), "memo": tx.memo.decode("utf-8", "replace"),
        })

    def _observe(self, agent: _AgentRuntime, true_rate: Fraction) -> Observation:
        return Observation(
            sim_time=self.now,
            eth_time=self.eth_now,
            me=agent.name,
            my_doge_addr=agent.doge_addr,
            my_eth=self.accounts.get(agent.name),
            doge_balances=self.doge_balances,
            chain=self.view,
            tip=self.view.best_tip(self.now - agent.visibility_delay_s),
            bridge=self.contract,
            true_rate=true_rate,
        )

    # -- action dispatch ---------------------------------------------------------

    def _apply_action(self, agent: _AgentRuntime, action) -> None:
        c = self.contract
        p = action.params
        kind = action.kind
        if kind == "become_relayer":
            c.become_relayer(agent.name, p["deposit"])
        elif kind == "open_bridge":
            c.open_bridge(agent.name, p["x"], p["y"], p["head"],
                          crossing_fee=p["crossing_fee"], burn_bounty=p["burn_bounty"])
        elif kind == "register":
            c.register_crossing(agent.name, p["head"], p["deposit"], crosser_doge=agent.doge_addr,
                                lock_bounty=p["lock_bounty"])
        elif kind == "send_doge":
            self._send_doge(agent, p)
        elif kind == "submit_extension":
            deadline = c.submit_extension(agent.name, p["sub"], self.eth_now)
            self._schedule_accept(deadline)
        elif kind == "challenge_range":
            if c.challenge_range(agent.name, p["alt"], self.eth_now) == "replaced":
                self._schedule_accept(c.window_deadline())
        elif kind == "challenge_commitment":
            thread = c.challenge_commitment(agent.name, self.eth_now, self.now)
            self.queue.schedule(thread.proof_deadline_s, ("proof_timeout", {"thread_id": thread.thread_id}))
        elif kind == "supply_proof":
            thread = c.supply_proof(agent.name, p["thread_id"], p["proof"], self.now)
            job = oracle_verify(thread.prior_tip_header, thread.sub, p["proof"], c.params, c.cost_model)
            verdict = "accept" if job.verdict.accepted else "reject"
            self.queue.schedule(self.now + job.delay_s,
                                ("oracle", {"thread_id": thread.thread_id, "verdict": verdict,
                                            "reason": job.verdict.reason}))
        elif kind == "report_lock":
            c.report_lock(agent.name, p["report"])
        elif kind == "report_unlock":
            c.report_unlock(agent.name, p["burn_id"], p["report"])
        elif kind == "report_missing":
            c.report_missing_doge(agent.name, p["report"], p["y"], p["n"])
        elif kind == "burn_wow":
            burn = c.burn_wow(agent.name, p["y"], p["w"], p["dest"], self.eth_now)
            self.queue.schedule(burn.portions[0].deadline_eth * self.clock.eth_block_seconds,
                                ("unlock_deadline", {"burn_id": burn.burn_id}))
        elif kind == "backtrack":
            deadline = c.backtrack(agent.name, p["from_index"], p["sub"], self.eth_now)
            self._schedule_accept(deadline)
        elif kind == "propose_deep":
            proposal = c.propose_deep_backtrack(agent.name, p["from_index"], p["sub"], self.now)
            self.queue.schedule(proposal.proposed_at_s + c.params.deep_backtrack_delay_1_s,
                                ("deep_finalize", {"proposal_seq": proposal.seq}))
        elif kind == "object_deep":
            c.object_deep_backtrack(agent.name, self.now)
        else:
            raise SimError(f"unknown action kind {kind!r}")

    def _schedule_accept(self, deadline_eth: int) -> None:
        sub_seq = self.contract.active.seq
        self.queue.schedule(deadline_eth * self.clock.eth_block_seconds,
                            ("accept_check", {"sub_seq": sub_seq}))

    # -- event handlers ---------------------------------------------------------

    def _handle(self, t: int, event: Tuple[str, dict]) -> None:
        self.now = t
        self.eth_now = ethereum_time(t, self.clock)
        kind, p = event
        c = self.contract
        if kind == "doge_block":
            self._mine_next_block()
        elif kind == "turns":
            true_rate = self.config.rate_path.rate_at(t)
            for agent in self.agents:
                obs = self._observe(agent, true_rate)
                actions, agent.priv = agent.policy.step(obs, agent.priv)
                for action in actions:
                    try:
                        self._apply_action(agent, action)
                    except SimError as exc:
                        self._record("action_rejected", agent.name, {
                            "action": action.kind,
                            "error": type(exc).__name__,
                            "detail": str(exc),
                        })
            self.queue.schedule(t + self.clock.eth_block_seconds, ("turns", {}))
        elif kind == "accept_check":
            if c.active is not None and c.active.seq == p["sub_seq"]:
                c.accept_on_timeout(self.eth_now, self.now)
        elif kind == "proof_timeout":
            thread = c.threads.get(p["thread_id"])
            if thread is not None and not thread.resolved and thread.proof is None:
                c.resolve_proof(thread.thread_id, "timed_out")
        elif kind == "oracle":
            thread = c.threads.get(p["thread_id"])
            if thread is not None and not thread.resolved:
                c.resolve_proof(thread.thread_id, p["verdict"])
        elif kind == "unlock_deadline":
            try:
                c.unlock_timeout(p["burn_id"], self.eth_now)
            except (NotElapsed, AlreadySettled):
                pass
        elif kind == "deep_finalize":
            if c.deep_proposal is not None and c.deep_proposal.seq == p["proposal_seq"]:
                if c.relay_mode == "verification":
                    # retry when the active submission's window closes; accepting it cancels the proposal
                    self.queue.schedule(c.window_deadline() * self.clock.eth_block_seconds, event)
                else:
                    c.finalize_deep_backtrack(self.now)

    # -- entry point -------------------------------------------------------------

    def run(self) -> Trace:
        self._record("genesis", "system", {
            "name": self.config.name,
            "tags": list(self.config.tags),
            "seed": self.config.seed,
            "agents": [a.name for a in self.config.agents],
        })
        self.queue.schedule(next_doge_block_time(0, self.clock, self._doge_rng), ("doge_block", {}))
        self.queue.schedule(self.clock.eth_block_seconds, ("turns", {}))
        self.queue.run_until(self.config.end_time, self._handle)
        self.now = self.config.end_time
        self.eth_now = ethereum_time(self.now, self.clock)
        self._record("run_summary", "system", self._summary())
        return Trace(self.events)

    def _summary(self) -> dict:
        c = self.contract
        live_heads: Dict[str, Dict[bytes, None]] = {}
        for b in c.bridges.values():
            if b.state in ("queued", "escrowed"):
                live_heads.setdefault(str(b.y), {})[b.head] = None
        locked: Dict[str, int] = {y: 0 for y in live_heads}
        tip = self.view.best_tip()
        tip_ord = self.view.blocks[tip].header.ordinal
        for block in self.view.path_blocks(tip, 0, tip_ord):
            for tx in block.txs:
                for y, heads in live_heads.items():
                    if tx.receiver in heads:
                        locked[y] += tx.amount
                    if tx.sender in heads:
                        locked[y] -= tx.amount
        open_inflight = any(
            b.state == "open" and self.doge_balances.get(b.head, 0) > 0
            for b in c.bridges.values()
        )
        pending_burns = any(not burn.settled for burn in c.burns.values())
        quiescent = not c.registrations and not pending_burns and not open_inflight
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
    """Re-run the config and compare digests event by event."""
    fresh = run(config)
    old, new = trace.events, fresh.events
    for i, (a, b) in enumerate(zip(old, new)):
        if a.get("digest") != b.get("digest") or a.get("kind") != b.get("kind"):
            return ReplayResult(False, i, f"event {i}: {a.get('kind')}/{str(a.get('digest', ''))[:12]} "
                                          f"vs {b.get('kind')}/{b['digest'][:12]}")
    if len(old) != len(new):
        return ReplayResult(False, min(len(old), len(new)),
                            f"length mismatch: {len(old)} vs {len(new)}")
    return ReplayResult(True)
