"""Agent policies: honest, rational, and Byzantine behavior profiles.

Each policy is a decision function from (observation, private state) to a
list of protocol actions plus updated private state.  Every value a decision
depends on lives in that private state, `priv`: step() hands decide() a
shallow copy and decide() replaces, never mutates, the values it changes.
The instance holds its configuration, a memo of the segments its chain has
matched (their blocks and transactions, keyed by commitment and range), and
a history cursor: the contract history entries it has judged, in order, with
the unused transactions of the matched ones.  Both are emptied whenever the
observed tip stops extending the tip they were filled on, so a memo hit
returns what recomputing from the observation would.  So does the cursor:
an entry is judged once my tip reaches its range, and ranges increase along
the history, so the judged entries are exactly the prefix my chain can
judge; the contract only appends entries or replaces a suffix with new
ones, so the cursor is still a prefix of the history iff its last entry is
still in place, and otherwise it drops its entries from the first one that
is not.  Decisions depend on (obs, priv) alone, and a fresh run with the
same seed produces identical action streams.  Policies never mutate the
world; the harness applies their actions in roster order each turn and
records rejected ones as policy bugs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import UnionType
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .bridge import (
    BridgeContract,
    HistoryEntry,
    ProofThread,
    Submission,
    proven_submission,
    rate_mul,
    segment_bounds,
    tx_report,
)
from .chainsim import (
    EMPTY_TX_ROOT,
    MAX_U64,
    Block,
    BlockHeader,
    ChainView,
    Transaction,
    block_hash,
    doge_address,
    mine_header,
    pow_check,
)
from .errors import BeforeStart, ConfigError, RangeUnavailable, SimError
from .merkle import sha256
from .proofsys import ExtensionProof, commitment_root, prove_extension_for


# ---------------------------------------------------------------------------
# rate path and observations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatePath:
    """Piecewise-constant DOGE-per-ETH-unit schedule."""

    points: Tuple[Tuple[int, Fraction], ...]

    def __post_init__(self):
        if not self.points:
            raise ConfigError("rate_path: must have at least one segment")
        times = [t for t, _ in self.points]
        if times != sorted(times):
            raise ConfigError("rate_path: times must be sorted")
        if any(r <= 0 for _, r in self.points):
            raise ConfigError("rate_path: rates must be positive")

    def rate_at(self, t: int) -> Fraction:
        if t < self.points[0][0]:
            raise BeforeStart(f"t={t} before rate path start {self.points[0][0]}")
        rate = self.points[0][1]
        for start, value in self.points:
            if start <= t:
                rate = value
            else:
                break
        return rate


@dataclass
class Observation:
    """What one agent sees at its turn: the whole chain, read only along the
    path of tip, the best tip the agent's visibility delay allows."""

    sim_time: int
    eth_time: int
    me: str
    my_doge_addr: bytes
    my_eth: int
    doge_balances: Dict[bytes, int]
    chain: ChainView
    tip: bytes
    bridge: BridgeContract
    true_rate: Fraction

    @property
    def my_doge(self) -> int:
        return self.doge_balances.get(self.my_doge_addr, 0)


@dataclass(frozen=True)
class Action:
    kind: str
    params: dict = field(default_factory=dict)


def should_abscond(locked_doge: int, true_rate: Fraction, collateral_eth: int) -> bool:
    """A rational operator keeps locked DOGE iff it outvalues the collateral."""
    return Fraction(locked_doge, 1) / true_rate > collateral_eth


def confirmed_max(view: ChainView, tip: bytes, c: int) -> int:
    """Ordinal of the newest block on tip's path with c valid PoWs on top of it."""
    return max(0, view.blocks[tip].header.ordinal - c)


def find_bad_header(parent: bytes, ordinal: int, timestamp: int, target: int,
                    pow_fn: str = "sha256d", seed: int = 0) -> BlockHeader:
    """A header that fails its own PoW check, for modeling fabricated blocks."""
    nonce = seed % MAX_U64
    while True:
        header = BlockHeader(parent, EMPTY_TX_ROOT, ordinal, timestamp, nonce, target, pow_fn)
        if not pow_check(header):
            return header
        nonce = (nonce + 1) % MAX_U64


# ---------------------------------------------------------------------------
# policy base and shared machinery
# ---------------------------------------------------------------------------


class Rate(Fraction):
    """Declared type of an exact-unit rate y: positive, with 1/y an integer."""


def declared_defaults(declared: dict) -> dict:
    """A declaration maps each key to its default, whose type is the key's type; a bare type
    declares a required key (no default), `T | None` an optional one that reads None."""
    return {key: None if isinstance(decl, UnionType) else decl
            for key, decl in declared.items() if not isinstance(decl, type)}


class Segment(NamedTuple):
    """Blocks of a matched commitment and their transactions, in block order."""

    blocks: Tuple[Block, ...]
    txs: Tuple[Transaction, ...]


class Policy:
    """Base: subclasses implement decide(); step() wraps it with purity plumbing."""

    # the scenario config validates params against PARAMS; __init__ only fills in defaults
    PARAMS: Dict[str, object] = {}
    DEFAULTS: Dict[str, object] = {}  # declared_defaults(PARAMS), built once per class

    def __init_subclass__(cls):
        cls.DEFAULTS = declared_defaults(cls.PARAMS)

    def __init__(self, name: str, params: dict, agent_seed: int):
        self.name = name
        self.params = {**self.DEFAULTS, **params}
        self.agent_seed = agent_seed
        self._memo_tip: Optional[bytes] = None  # the memo and the cursor hold for this tip's path
        self._forget()

    def _forget(self) -> None:
        self._segments: Dict[Tuple[bytes, int, int], Segment] = {}
        self._judged: List[HistoryEntry] = []  # history prefix already judged against my chain
        self._first_bogus: Optional[int] = None  # first judged entry my chain does not match
        self._pending: List[Tuple[int, Tuple[Block, ...], Transaction]] = []  # unused txs of matched entries

    def step(self, obs: Observation, priv: dict) -> Tuple[List[Action], dict]:
        priv = dict(priv)
        actions = self.decide(obs, priv)
        return actions, priv

    def decide(self, obs: Observation, priv: dict) -> List[Action]:
        raise NotImplementedError

    def onboard(self, obs: Observation, start: str = "activate_at") -> Optional[List[Action]]:
        """[] before params[start]; then the deposit when affordable; None once a relayer."""
        if obs.sim_time < self.params[start]:
            return []
        st = obs.bridge
        if st.is_relayer(self.name):
            return None
        need = st.required_relayer_deposit()
        return [Action("become_relayer", {"deposit": need})] if obs.my_eth >= need else []

    def supply_proofs(self, obs: Observation,
                      proof_for: Callable[[ProofThread], Optional[ExtensionProof]]) -> List[Action]:
        """A supply_proof for each of my unanswered challenges that proof_for can answer."""
        actions = []
        for thread in obs.bridge.threads.values():
            if not thread.resolved and thread.relayer == self.name and thread.proof is None:
                proof = proof_for(thread)
                if proof is not None:
                    actions.append(Action("supply_proof", {"thread_id": thread.thread_id, "proof": proof}))
        return actions

    def fake_submission(self, obs: Observation, rng: random.Random, range_b: int) -> Submission:
        """Random roots under a tip header that fails PoW, claiming range_b."""
        tip_header = find_bad_header(rng.randbytes(32), range_b, obs.sim_time,
                                     obs.chain.genesis.header.difficulty_target, seed=self.agent_seed)
        return Submission(range_b, rng.randbytes(32), rng.randbytes(32), tip_header, self.name)

    # -- shared views over the contract history ----------------------------

    def _follow(self, chain: ChainView, tip: bytes) -> None:
        """Empty the memo and the cursor unless tip extends the tip they were filled on."""
        if self._memo_tip != tip:
            anchor = chain.blocks.get(self._memo_tip)
            try:
                kept = anchor is not None and chain.ancestor_at(tip, anchor.header.ordinal) == self._memo_tip
            except RangeUnavailable:
                kept = False
            if not kept:
                self._forget()
            self._memo_tip = tip

    def matched(self, obs: Observation, claim: Submission | HistoryEntry, prior: int) -> Optional[Segment]:
        """Segment (prior, claim.range] of my chain if its blocks hash to claim's commitment
        and its last block is claim's tip header, else None.

        The memo holds the matches found on the path of _memo_tip, so a hit
        is what recomputing would return, also after a reorg.
        """
        chain, tip = obs.chain, obs.tip
        self._follow(chain, tip)
        key = (claim.commitment, prior, claim.range)
        segment = self._segments.get(key)
        if segment is None:
            try:
                blocks = tuple(chain.path_blocks(tip, prior + 1, claim.range))
            except RangeUnavailable:
                return None
            if commitment_root(blocks) != claim.commitment:
                return None
            segment = self._segments[key] = Segment(blocks, tuple(tx for b in blocks for tx in b.txs))
        return segment if segment.blocks[-1].header.hash == claim.tip_header.hash else None

    def matched_segment(self, obs: Observation, i: int) -> Optional[Segment]:
        """Segment of history entry i if it matches my chain (see matched), else None."""
        history = obs.bridge.history
        return self.matched(obs, history[i], segment_bounds(history, i)[0])

    def _judge_history(self, obs: Observation) -> None:
        """Bring the cursor up to the history entries my tip reaches (see the module docstring)."""
        self._follow(obs.chain, obs.tip)
        history, judged = obs.bridge.history, self._judged
        n = len(judged)
        if n and not (len(history) >= n and history[n - 1] is judged[n - 1]):
            k = next((i for i, (a, b) in enumerate(zip(history, judged)) if a is not b), len(history))
            del judged[k:]
            if self._first_bogus is not None and self._first_bogus >= k:
                self._first_bogus = None
            self._pending = [p for p in self._pending if p[0] < k]
        tip_ordinal = obs.chain.blocks[obs.tip].header.ordinal
        for i in range(len(judged), len(history)):
            if history[i].range > tip_ordinal:
                break  # unverifiable yet, and so is every later entry
            segment = self.matched_segment(obs, i)
            judged.append(history[i])
            if segment is not None:
                self._pending.extend((i, segment.blocks, tx) for tx in segment.txs)
            elif self._first_bogus is None:
                self._first_bogus = i

    def committed_txs(self, obs: Observation) -> Iterator[Tuple[int, Tuple[Block, ...], Transaction]]:
        """(index, blocks, tx) for each unused tx of the history entries my chain matches,
        in history then block order."""
        self._judge_history(obs)
        used = obs.bridge.used_txs
        self._pending = [p for p in self._pending if p[2].tx_id not in used]
        return iter(self._pending)

    def first_bogus_index(self, obs: Observation, cm: int) -> Optional[int]:
        """First history entry provably wrong against my view.

        An entry is judged only once my chain has confirmed past its range;
        until then it is unverifiable, not bogus.
        """
        self._judge_history(obs)
        i = self._first_bogus
        return i if i is not None and obs.bridge.history[i].range <= cm else None


# ---------------------------------------------------------------------------
# relayers
# ---------------------------------------------------------------------------


CM_WINDOW = 400  # confirmed-maximum samples a relayer keeps, one per contract block


def sample_window(window: Tuple[Tuple[int, int], ...], eth_time: int, cm: int) -> Tuple[Tuple[int, int], ...]:
    """The last CM_WINDOW (eth_time, cm) samples once this turn's is in, the latest per eth_time.

    A turn's eth_time never precedes the previous turn's.  cm itself may
    fall: my best tip is the one with most work, not the highest.
    """
    if window and window[-1][0] == eth_time:
        return window[:-1] + ((eth_time, cm),)
    return window[1 - CM_WINDOW:] + ((eth_time, cm),)


class HonestRelayer(Policy):
    """Submits maximal confirmed extensions, challenges mismatches, backtracks.

    Range challenges fire only against submissions whose range already lagged
    the challenger's confirmed maximum by >= d at submission time (sampled per
    turn), never against ones that were maximal when made; commitment
    challenges cover everything else that disagrees with this relayer's view.
    """

    # a claimed range more than k + RANGE_SLACK past my confirmed maximum,
    # still unverifiable RANGE_PATIENCE_ETH contract blocks after submission,
    # draws a commitment challenge
    RANGE_SLACK = 2
    RANGE_PATIENCE_ETH = 30
    PARAMS = {"online_at": 0}

    def decide(self, obs: Observation, priv: dict) -> List[Action]:
        joining = self.onboard(obs, "online_at")
        if joining is not None:
            return joining
        st = obs.bridge

        cm = confirmed_max(obs.chain, obs.tip, st.params.c)
        priv["cm_samples"] = sample_window(priv.get("cm_samples", ()), obs.eth_time, cm)

        actions = self.supply_proofs(obs, lambda t: self._try_prove(obs, t.prior_date, t.sub.range))

        if st.active is not None:
            if st.active.sub.relayer != self.name:
                challenge = self._evaluate_submission(obs, priv, cm)
                if challenge is not None:
                    actions.append(challenge)
            return actions

        bogus = self.first_bogus_index(obs, cm)
        if bogus is not None:
            _, prior = st.base(bogus)
            range_b = min(cm, prior + st.params.max_extension_len)
            if range_b > prior:
                sub = self._try_build(obs, prior, range_b)
                if sub is not None:
                    _, cost = st.backtrack_cost(bogus, range_b)
                    if cost <= st.relayer_deposits.get(self.name, 0):
                        actions.append(Action("backtrack", {"from_index": bogus, "sub": sub}))
            return actions

        date = st.current_date
        if cm > date:
            range_b = min(cm, date + st.params.max_extension_len)
            sub = self._try_build(obs, date, range_b)
            if sub is not None:
                actions.append(Action("submit_extension", {"sub": sub}))
        return actions

    def _try_prove(self, obs: Observation, prior: int, range_b: int) -> Optional[ExtensionProof]:
        try:
            return prove_extension_for(obs.chain, obs.tip, prior, range_b, obs.bridge.params.c)
        except SimError:
            return None

    def _try_build(self, obs: Observation, prior: int, range_b: int) -> Optional[Submission]:
        proof = self._try_prove(obs, prior, range_b)
        return None if proof is None else proven_submission(proof, self.name)

    def _evaluate_submission(self, obs: Observation, priv: dict, cm: int) -> Optional[Action]:
        """Judge the active submission against my own view.

        Three zones by claimed range: at or below my confirmed maximum the
        commitment is recomputable and any mismatch draws a challenge (range
        type when the submission was already >= d stale at submission time,
        commitment type otherwise); just above my confirmed maximum it may
        simply be fresher than my view, so wait; still unverifiably far ahead
        after a patience period, it claims blocks that cannot exist yet.
        """
        st = obs.bridge
        active = st.active
        sub = active.sub
        _, prior = st.base(active.backtrack_from)

        if sub.range > cm:
            waited = obs.eth_time - active.submitted_at_eth
            if sub.range > cm + st.params.k + self.RANGE_SLACK and waited >= self.RANGE_PATIENCE_ETH:
                return Action("challenge_commitment", {})
            return None  # plausibly fresher than my view; re-judge next turn

        if self.matched(obs, sub, prior) is not None:
            return None

        past = [v for t, v in priv.get("cm_samples", ()) if t <= active.submitted_at_eth]
        cm_at_sub = max(past) if past else cm
        stale = cm_at_sub - sub.range >= st.params.d
        if stale and cm - sub.range >= st.params.d:
            alt_range = min(cm, prior + st.params.max_extension_len)
            if alt_range - sub.range >= st.params.d:
                alt = self._try_build(obs, prior, alt_range)
                if alt is not None:
                    return Action("challenge_range", {"alt": alt})
        return Action("challenge_commitment", {})


class LazyRelayer(Policy):
    """Posts a deposit and then never acts; deposits alone do not relay."""

    PARAMS = {"activate_at": 0}

    def decide(self, obs: Observation, priv: dict) -> List[Action]:
        return self.onboard(obs) or []


class OrphanAttacker(Policy):
    """Commits a privately mined fork of the relay tip.

    The revealed segment is valid PoW forked off the contract's committed tip,
    but the confirmation witness is fabricated: a minority miner cannot
    confirm a branch the network has orphaned.  Supplies its (failing) proof
    when challenged.
    """

    PARAMS = {"activate_at": 0}

    def decide(self, obs: Observation, priv: dict) -> List[Action]:
        joining = self.onboard(obs)
        if joining is not None:
            return joining
        st = obs.bridge
        commitment, proof = priv.get("attack", (None, None))
        actions = self.supply_proofs(obs, lambda t: proof if t.sub.commitment == commitment else None)

        if proof is not None or st.relay_mode != "listening" or not st.history:
            return actions

        prior_tip, prior = st.base()
        cm = confirmed_max(obs.chain, obs.tip, st.params.c)
        range_b = max(prior + 1, cm)
        if range_b - prior > st.params.max_extension_len:
            return actions

        headers: List[BlockHeader] = []
        parent_header = prior_tip
        for i in range(range_b - prior):
            header = mine_header(parent_header, sha256(b"\x02"), obs.sim_time, seed=self.agent_seed + i)
            headers.append(header)
            parent_header = header
        target = headers[-1].difficulty_target
        witness = []
        parent = block_hash(headers[-1])
        for j in range(st.params.c):
            bad = find_bad_header(parent, headers[-1].ordinal + 1 + j, obs.sim_time, target,
                                  headers[-1].pow_fn, seed=self.agent_seed + 10_000 + j)
            witness.append(bad)
            parent = block_hash(bad)

        proof = ExtensionProof(tuple(headers), tuple(witness), tuple(() for _ in headers))
        sub = proven_submission(proof, self.name)
        priv["attack"] = (sub.commitment, proof)
        actions.append(Action("submit_extension", {"sub": sub}))
        return actions


class HighRangeAttacker(Policy):
    """Claims a range beyond anything mined, then never backs it up."""

    PARAMS = {"activate_at": 0, "overshoot": 60}

    def decide(self, obs: Observation, priv: dict) -> List[Action]:
        joining = self.onboard(obs)
        if joining is not None:
            return joining
        st = obs.bridge
        if priv.get("attacked") or st.relay_mode != "listening":
            return []
        cm = confirmed_max(obs.chain, obs.tip, st.params.c)
        overshoot = self.params["overshoot"]
        range_b = min(max(cm + st.params.d + overshoot, st.current_date + st.params.d + overshoot),
                      st.current_date + st.params.max_extension_len)
        if range_b <= st.current_date:
            return []
        sub = self.fake_submission(obs, random.Random(self.agent_seed), range_b)
        priv["attacked"] = True
        return [Action("submit_extension", {"sub": sub})]


class FalseChallenger(Policy):
    """Griefer that disputes honest commitments it has no evidence against."""

    PARAMS = {"activate_at": 0, "rounds": 1}

    def decide(self, obs: Observation, priv: dict) -> List[Action]:
        joining = self.onboard(obs)
        if joining is not None:
            return joining
        st = obs.bridge
        rounds = priv.get("rounds", self.params["rounds"])
        if rounds <= 0 or st.active is None:
            return []
        if st.active.sub.relayer == self.name:
            return []
        priv["rounds"] = rounds - 1
        return [Action("challenge_commitment", {})]


class DosChallenger(Policy):
    """Spams range challenges with inflated garbage alternatives."""

    PARAMS = {"activate_at": 0, "rounds": 3}

    def decide(self, obs: Observation, priv: dict) -> List[Action]:
        joining = self.onboard(obs)
        if joining is not None:
            return joining
        st = obs.bridge
        rounds = priv.get("rounds", self.params["rounds"])
        if rounds <= 0 or st.active is None:
            return []
        alt_range = st.active.sub.range + st.params.d
        _, prior = st.base(st.active.backtrack_from)
        if alt_range - prior > st.params.max_extension_len:
            return []
        alt = self.fake_submission(obs, random.Random(f"{self.agent_seed}/{st.active.seq}"), alt_range)
        priv["rounds"] = rounds - 1
        return [Action("challenge_range", {"alt": alt})]


# ---------------------------------------------------------------------------
# operators, crossers, hodlers, reporters
# ---------------------------------------------------------------------------


class RationalOperator(Policy):
    """Opens a bridge, pays unlocks while profitable, absconds when not.

    The abscond predicate is exactly: locked DOGE / true rate > remaining
    collateral, evaluated per bridge.
    """

    PARAMS = {"y": Rate, "collateral": int, "open_at": 0, "burn_bounty": 0, "crossing_fee": 0}

    def decide(self, obs: Observation, priv: dict) -> List[Action]:
        st = obs.bridge
        actions: List[Action] = []

        if not priv.get("opened") and obs.sim_time >= self.params["open_at"]:
            x = self.params["collateral"]
            bounty = self.params["burn_bounty"]
            if obs.my_eth >= x + bounty:
                actions.append(Action("open_bridge", {
                    "x": x, "y": self.params["y"], "head": doge_address(f"{self.name}/head"),
                    "crossing_fee": self.params["crossing_fee"], "burn_bounty": bounty,
                }))
                priv["opened"] = True

        paid = set(priv.get("paid", ()))
        absconded = set(priv.get("absconded", ()))

        for bridge in st.bridges.values():
            if bridge.operator != self.name or bridge.state not in ("queued", "escrowed"):
                continue
            if bridge.bridge_id not in absconded and \
                    should_abscond(bridge.capacity, obs.true_rate, bridge.collateral):
                balance = obs.doge_balances.get(bridge.head, 0)
                if balance > 0:
                    actions.append(Action("send_doge", {
                        "sender": bridge.head, "receiver": obs.my_doge_addr,
                        "amount": balance, "memo": b"",
                    }))
                    absconded.add(bridge.bridge_id)
                continue

        for burn in st.burns.values():
            for portion in burn.portions:
                if portion.settled is not None:
                    continue
                bridge = st.bridges[portion.bridge_id]
                if bridge.operator != self.name or bridge.bridge_id in absconded:
                    continue
                key = (burn.burn_id, portion.bridge_id)
                if key in paid:
                    continue
                # paying owed DOGE is rational while 1 unit of escrow outvalues it
                if obs.true_rate >= burn.y and obs.doge_balances.get(bridge.head, 0) >= portion.owed_doge:
                    actions.append(Action("send_doge", {
                        "sender": bridge.head, "receiver": burn.dest,
                        "amount": portion.owed_doge, "memo": b"",
                    }))
                    paid.add(key)

        priv["paid"] = paid
        priv["absconded"] = absconded
        return actions


class HonestCrosser(Policy):
    """Registers and locks DOGE when the rate clears a comfort margin over y.

    Crosses up to `crossings` bridges, one registration and one lock of
    `amount` (default: the capacity) at a time, tagged with its ETH identity.
    """

    PARAMS = {"y": Rate, "crossings": 1, "register": True, "amount": int | None, "lock_bounty": 0}

    RATE_MARGIN = Fraction(1, 4)  # crosses only while the rate is >= (1 + margin) * y
    DEPOSIT_MARGIN = 100  # registration deposit above the void fee, ETH units

    def __init__(self, name: str, params: dict, agent_seed: int):
        super().__init__(name, params, agent_seed)
        self._min_rate = (1 + self.RATE_MARGIN) * self.params["y"]

    def decide(self, obs: Observation, priv: dict) -> List[Action]:
        st = obs.bridge
        y = self.params["y"]
        if obs.true_rate < self._min_rate:
            return []
        sent_heads = priv.get("sent_heads", set())
        if len(sent_heads) >= self.params["crossings"]:
            return []
        register = self.params["register"]

        my_reg = None
        for r in st.registrations.values():
            if r.crosser == self.name and r.head not in sent_heads:
                my_reg = r
                break

        if register and my_reg is None:
            for bridge in st.bridges.values():
                if bridge.state == "open" and bridge.y == y and \
                        bridge.head not in st.registrations and bridge.head not in sent_heads:
                    if obs.my_doge < self._amount(bridge):
                        return []  # cannot fund the lock; don't waste a registration
                    void_fee = rate_mul(st.params.registration_void_fee_rate, bridge.collateral)
                    deposit = void_fee + self.DEPOSIT_MARGIN
                    if obs.my_eth >= deposit:
                        return [Action("register", {"head": bridge.head, "deposit": deposit,
                                                    "lock_bounty": self.params["lock_bounty"]})]
                    return []
            return []

        if register:
            bridge = next((b for b in st.bridges.values()
                           if b.head == my_reg.head and b.state == "open"), None)
        else:
            bridge = next((b for b in st.bridges.values()
                           if b.state == "open" and b.y == y and b.head not in sent_heads), None)
        if bridge is None:
            return []

        amount = self._amount(bridge)
        if obs.my_doge >= amount:
            priv["sent_heads"] = sent_heads | {bridge.head}
            return [Action("send_doge", {
                "sender": obs.my_doge_addr, "receiver": bridge.head,
                "amount": amount, "memo": self.name.encode(),
            })]
        return []

    def _amount(self, bridge) -> int:  # per lock
        return bridge.capacity if self.params["amount"] is None else self.params["amount"]


class VigilantHodler(Policy):
    """Burns out when the collateral margin thins; reports missing DOGE.

    With params["cross"] set, first behaves as an honest crosser (its params
    too) and then holds what gets minted (a crosser transmogrified into a hodler).
    """

    PARAMS = {**HonestCrosser.PARAMS, "cross": False, "report_missing": True, "headroom": Fraction(1, 10),
              "burn_at": int | None, "burn_on_rate": True, "burn_amount": int | None}

    def __init__(self, name: str, params: dict, agent_seed: int):
        super().__init__(name, params, agent_seed)
        self._crosser = HonestCrosser(name, params, agent_seed) if self.params["cross"] else None
        self._burn_below = (1 + self.params["headroom"]) * self.params["y"]

    def decide(self, obs: Observation, priv: dict) -> List[Action]:
        st = obs.bridge
        actions: List[Action] = []
        if self._crosser is not None:
            crosser_priv = dict(priv.get("crosser", {}))
            actions.extend(self._crosser.decide(obs, crosser_priv))
            priv["crosser"] = crosser_priv

        y = self.params["y"]
        balance = st.wow_balance(self.name, y)

        if self.params["report_missing"] and balance > 0:
            theft = self._find_theft(obs, y, balance)
            if theft is not None:
                return actions + [theft]

        burn_at = self.params["burn_at"]
        triggered = (burn_at is not None and obs.sim_time >= burn_at) or \
            (self.params["burn_on_rate"] and obs.true_rate < self._burn_below)
        if balance > 0 and triggered:
            queue = st.y_queues.get(y, [])
            coverage = sum(st.bridges[b].capacity for b in queue)
            cap = self.params["burn_amount"]
            budget = balance if cap is None else cap - priv.get("burned_total", 0)
            w = min(balance, coverage, budget)
            if w > 0:
                priv["burned_total"] = priv.get("burned_total", 0) + w
                actions.append(Action("burn_wow", {
                    "y": y, "w": w,
                    "dest": obs.my_doge_addr,
                }))
        return actions

    def _find_theft(self, obs: Observation, y: Fraction, balance: int) -> Optional[Action]:
        st = obs.bridge
        heads = {b.head: b for b in st.bridges.values()
                 if b.y == y and b.state in ("queued", "escrowed")}
        if not heads:
            return None
        unlock_dests = {burn.dest for burn in st.burns.values()}
        for i, blocks, tx in self.committed_txs(obs):
            bridge = heads.get(tx.sender)
            if bridge is None or tx.receiver in unlock_dests:
                continue  # not from a live head, or a legitimate unlock payment
            n = min(balance, tx.amount, bridge.capacity)
            if n >= 1:
                return Action("report_missing", {"report": tx_report(i, blocks, tx), "y": y, "n": n})
        return None


class GreedyReporter(Policy):
    """Reveals locks and unlock payments out of matched commitments for bounties."""

    MAX_PER_TURN = 4

    def decide(self, obs: Observation, priv: dict) -> List[Action]:
        st = obs.bridge
        reported = set(priv.get("reported", ()))
        actions: List[Action] = []
        open_heads = {b.head for b in st.bridges.values() if b.state == "open"}
        owing = {}
        for burn in st.burns.values():
            for portion in burn.portions:
                if portion.settled is None:
                    bridge = st.bridges[portion.bridge_id]
                    owing[(bridge.head, burn.dest)] = (burn, portion)

        for i, blocks, tx in self.committed_txs(obs):
            if tx.tx_id in reported:
                continue
            burn, portion = owing.get((tx.sender, tx.receiver), (None, None))
            if tx.receiver in open_heads:
                actions.append(Action("report_lock", {"report": tx_report(i, blocks, tx)}))
            elif burn is not None and i >= burn.history_len_at_burn and tx.amount >= portion.owed_doge:
                actions.append(Action("report_unlock", {"burn_id": burn.burn_id,
                                                        "report": tx_report(i, blocks, tx)}))
            else:
                continue
            reported.add(tx.tx_id)
            if len(actions) >= self.MAX_PER_TURN:
                break

        priv["reported"] = reported
        return actions


POLICIES = {
    "honest_relayer": HonestRelayer,
    "lazy_relayer": LazyRelayer,
    "orphan_attacker": OrphanAttacker,
    "high_range_attacker": HighRangeAttacker,
    "dos_challenger": DosChallenger,
    "false_challenger": FalseChallenger,
    "rational_operator": RationalOperator,
    "honest_crosser": HonestCrosser,
    "vigilant_hodler": VigilantHodler,
    "greedy_reporter": GreedyReporter,
}


def make_policy(policy_id: str, name: str, params: dict, agent_seed: int) -> Policy:
    if policy_id not in POLICIES:
        raise ConfigError(f"unknown policy {policy_id!r}")
    return POLICIES[policy_id](name, params, agent_seed)
