"""Agent policies: honest, rational, and Byzantine behavior profiles.

Each policy is a decision function from (observation, private state) to a
list of protocol actions plus updated private state.  Every value a decision
depends on lives in that private state, `priv`: step() hands decide() a
shallow copy and decide() replaces, never mutates, the values it changes.
The instance holds its configuration and a history cursor: the contract
history entries it has judged, in order, with the unused transactions of the
matched ones.  It is emptied whenever the observed tip stops extending the
tip it was filled on, so it answers what a walk of the whole history would:
an entry is judged once my tip reaches its range, and ranges increase along
the history, so the judged entries are exactly the prefix my chain can
judge; the contract only appends entries or replaces a suffix with new
ones, so the cursor is still a prefix of the history iff its last entry is
still in place, and otherwise it drops its entries from the first one that
is not.  Decisions depend on (obs, priv) alone, and a fresh run with the
same seed produces identical action streams.  Policies never mutate the
world; the harness applies their actions in roster order each turn and
records rejected ones as policy bugs.

An agent's own facts each have one home: its name, DOGE address and seed are
on its policy, and its clock and ETH balance are the contract's (`bridge.now_s`
and `bridge.accounts`); an observation holds only the world the agent sees.

A step also names its wake, and whether its answer holds on every extension
of its visible tip (see Policy.step); a step that reads neither the chain
nor its tip says it does, and so does one that reads the chain only through
the cursor once the cursor has judged every history entry
(Policy.judged_all).  When a step does nothing, the harness lets the agent
sleep until the trace gets an event other than a coin block, or the earliest
of that wake, the next rate point and, unless the answer holds on
extensions, the next time its visible tip can change comes.  The harness
mines every block on the best tip, so a block extends every visible tip: it
wakes only the agents whose answer may depend on their tip, a relayer that
lags wakes for it once it becomes visible, and a turn in which every agent
sleeps costs one comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import UnionType
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .bridge import (
    BridgeContract,
    HistoryEntry,
    ProofThread,
    Submission,
    proven_submission,
    rate_mul,
    tx_report,
)
from .chainsim import (
    EMPTY_TX_ROOT,
    MAX_U64,
    NEVER,
    Block,
    BlockHeader,
    ChainView,
    Transaction,
    doge_address,
    mine_header,
    pow_check,
)
from .errors import BeforeStart, ConfigError, RangeUnavailable, SimError
from .proofsys import ExtensionProof, commitment_root, date_of, prove_extension_for


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

    def segment(self, t: int) -> Tuple[Fraction, float]:
        """(rate at t, the next point's start after t, or NEVER).  That point may repeat the rate."""
        if t < self.points[0][0]:
            raise BeforeStart(f"t={t} before rate path start {self.points[0][0]}")
        rate = self.points[0][1]
        for start, value in self.points:
            if start > t:
                return rate, start
            rate = value
        return rate, NEVER


@dataclass
class Observation:
    """What one agent sees at its turn: the whole chain, read only along the
    path of tip, the best tip at bridge.now_s - visibility_delay_s."""

    doge_balances: Dict[bytes, int]
    chain: ChainView
    tip: bytes
    bridge: BridgeContract
    true_rate: Fraction
    visibility_delay_s: int


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


WAKE = "wake"  # the priv key of a step's wake (see Policy.step)
ON_EXTENSION = "on_extension"  # the priv key: whether a step's answer holds on every extension of its tip


def reached(obs: Observation, priv: dict, t: int) -> bool:
    """Whether the contract's clock has reached t; if not, name t as a wake of this step."""
    if obs.bridge.now_s < t:
        priv[WAKE] = min(priv[WAKE], t)
    return obs.bridge.now_s >= t


class Rate(Fraction):
    """Declared type of an exact-unit rate y: positive, with 1/y an integer."""


def declared_defaults(declared: dict) -> dict:
    """A declaration maps each key to its default, whose type is the key's type; a bare type
    declares a required key (no default), `T | None` an optional one that reads None."""
    return {key: None if isinstance(decl, UnionType) else decl
            for key, decl in declared.items() if not isinstance(decl, type)}


class Policy:
    """Base: subclasses implement decide(); step() wraps it with onboarding and purity plumbing."""

    # the scenario config validates params against PARAMS; __init__ only fills in defaults
    PARAMS: Dict[str, object] = {}
    DEFAULTS: Dict[str, object] = {}  # declared_defaults(PARAMS), built once per class
    ONBOARD_AT: Optional[str] = None  # a relayer policy's param holding the time it goes online

    def __init_subclass__(cls):
        cls.DEFAULTS = declared_defaults(cls.PARAMS)

    def __init__(self, name: str, params: dict, agent_seed: int):
        self.name = name
        self.doge_addr = doge_address(name)
        self.params = {**self.DEFAULTS, **params}
        self.agent_seed = agent_seed
        self._cursor_tip: Optional[bytes] = None  # the cursor holds for this tip's path
        self._judged: List[HistoryEntry] = []  # history prefix already judged against my chain
        self._first_bogus: Optional[int] = None  # first judged entry my chain does not match
        self._pending: List[Tuple[int, Tuple[Block, ...], Transaction]] = []  # unused txs of matched entries

    def step(self, obs: Observation, priv: dict) -> Tuple[List[Action], dict]:
        """(actions, priv), priv[WAKE] the earliest time on the contract's clock (bridge.now_s) at
        which this step could answer otherwise in an unchanged world (the same contract, doge
        balances, visible tip and true rate), or NEVER.  A step compares each time threshold with
        that clock through reached(), which names it while it is ahead.  Waking early only costs a
        step; waking late loses an action.  priv[ON_EXTENSION] is True when this step would answer
        the same on any tip that extends its visible one, the rest of that world unchanged: as
        onboarding and every step that reads neither obs.chain nor obs.tip do."""
        priv = {**priv, WAKE: NEVER, ON_EXTENSION: False}
        joining = None if self.ONBOARD_AT is None else self.onboard(obs, priv)
        if joining is None:
            return self.decide(obs, priv), priv
        priv[ON_EXTENSION] = True  # onboarding reads no chain
        return joining, priv

    def decide(self, obs: Observation, priv: dict) -> List[Action]:
        raise NotImplementedError

    def onboard(self, obs: Observation, priv: dict) -> Optional[List[Action]]:
        """[] before params[ONBOARD_AT]; then the deposit when affordable; None once a relayer."""
        if not reached(obs, priv, self.params[self.ONBOARD_AT]):
            return []
        st = obs.bridge
        if st.is_relayer(self.name):
            return None
        need = st.required_relayer_deposit()
        return [Action("become_relayer", {"deposit": need})] if st.accounts.get(self.name) >= need else []

    def supply_proofs(self, obs: Observation,
                      proof_for: Callable[[ProofThread], Optional[ExtensionProof]]) -> List[Action]:
        """A supply_proof for each of my unanswered challenges that proof_for can answer."""
        actions = []
        for thread in self.open_challenges(obs):
            proof = proof_for(thread)
            if proof is not None:
                actions.append(Action("supply_proof", {"thread_id": thread.thread_id, "proof": proof}))
        return actions

    def open_challenges(self, obs: Observation) -> List[ProofThread]:
        """Threads challenging a submission of mine that still wait for my proof."""
        return [t for t in obs.bridge.threads.values()
                if not t.resolved and t.active.relayer == self.name and t.proof is None]

    def fake_submission(self, obs: Observation, rng: random.Random, range_b: int) -> Submission:
        """Random roots under a tip header that fails PoW, claiming range_b."""
        tip_header = find_bad_header(rng.randbytes(32), range_b, obs.bridge.now_s,
                                     obs.chain.genesis.header.difficulty_target, seed=self.agent_seed)
        return Submission(rng.randbytes(32), rng.randbytes(32), tip_header)

    # -- shared views over the contract history ----------------------------

    def matched(self, obs: Observation, claim: Submission | HistoryEntry, prior: int) -> Optional[Tuple[Block, ...]]:
        """Blocks (prior, claim.range] of my chain if they hash to claim's commitment
        and the last is claim's tip header, else None."""
        try:
            blocks = tuple(obs.chain.path_blocks(obs.tip, prior + 1, claim.range))
        except RangeUnavailable:
            return None
        if commitment_root(blocks) != claim.commitment or blocks[-1].header.hash != claim.tip_header.hash:
            return None
        return blocks

    def matched_segment(self, obs: Observation, i: int) -> Optional[Tuple[Block, ...]]:
        """Blocks of history entry i if it matches my chain (see matched), else None."""
        return self.matched(obs, obs.bridge.history[i], obs.bridge.base(i)[1])

    def _judge_history(self, obs: Observation) -> None:
        """Bring the cursor up to the history entries my tip reaches (see the module docstring)."""
        chain, tip = obs.chain, obs.tip
        history, judged = obs.bridge.history, self._judged
        k = len(judged)
        if self._cursor_tip != tip:  # keep the cursor only if tip extends the one it was filled on
            anchor = chain.blocks.get(self._cursor_tip)
            try:
                if anchor is None or chain.ancestor_at(tip, anchor.header.ordinal) != self._cursor_tip:
                    k = 0
            except RangeUnavailable:
                k = 0
            self._cursor_tip = tip
        if k and not (len(history) >= k and history[k - 1] is judged[k - 1]):
            k = next((i for i, (a, b) in enumerate(zip(history, judged)) if a is not b), len(history))
        if k < len(judged):
            del judged[k:]
            if self._first_bogus is not None and self._first_bogus >= k:
                self._first_bogus = None
            self._pending = [p for p in self._pending if p[0] < k]
        tip_ordinal = chain.blocks[tip].header.ordinal
        for i in range(len(judged), len(history)):
            if history[i].range > tip_ordinal:
                break  # unverifiable yet, and so is every later entry
            blocks = self.matched_segment(obs, i)
            judged.append(history[i])
            if blocks is not None:
                self._pending.extend((i, blocks, tx) for b in blocks for tx in b.txs)
            elif self._first_bogus is None:
                self._first_bogus = i

    def committed_txs(self, obs: Observation) -> Iterator[Tuple[int, Tuple[Block, ...], Transaction]]:
        """(index, blocks, tx) for each unused tx of the history entries my chain matches,
        in history then block order."""
        self._judge_history(obs)
        used = obs.bridge.used_txs
        self._pending = [p for p in self._pending if p[2].tx_id not in used]
        return iter(self._pending)

    def judged_all(self, obs: Observation) -> bool:
        """Whether the cursor, filled at my tip, has judged every history entry: then an extension
        keeps it and gives it nothing to judge, so a step that reads my chain only through it holds."""
        return self._cursor_tip == obs.tip and len(self._judged) == len(obs.bridge.history)

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


class HonestRelayer(Policy):
    """Submits maximal confirmed extensions, challenges mismatches, backtracks.

    Range challenges fire only against submissions whose range already lagged
    the challenger's confirmed maximum by >= d at submission time (on the tip
    the chain's visibility record gives its view then), never against ones that
    were maximal when made; commitment challenges cover everything else that
    disagrees with this relayer's view.
    """

    # a claimed range more than k + RANGE_SLACK past my confirmed maximum,
    # still unverifiable RANGE_PATIENCE_ETH contract blocks after its tip could
    # first be visible to me, draws a commitment challenge
    RANGE_SLACK = 2
    RANGE_PATIENCE_ETH = 30
    PARAMS = {"online_at": 0}
    ONBOARD_AT = "online_at"

    def decide(self, obs: Observation, priv: dict) -> List[Action]:
        st = obs.bridge

        cm = confirmed_max(obs.chain, obs.tip, st.params.c)

        actions = self.supply_proofs(
            obs, lambda t: self._try_prove(obs, date_of(t.prior_tip_header), t.active.sub.range))

        if st.active is not None:
            if st.active.relayer != self.name:
                challenge = self._evaluate_submission(obs, priv, cm)
                if challenge is not None:
                    actions.append(challenge)
            else:
                priv[ON_EXTENSION] = True  # my own submission stands on any tip
            if self.open_challenges(obs):
                priv[ON_EXTENSION] = False  # a longer tip may give a proof this one could not
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
        return None if proof is None else proven_submission(proof)

    def _evaluate_submission(self, obs: Observation, priv: dict, cm: int) -> Optional[Action]:
        """Judge the active submission against my own view.

        Three zones by claimed range: at or below my confirmed maximum the
        commitment is recomputable and any mismatch draws a challenge (range
        type when the submission was already >= d stale at submission time,
        commitment type otherwise); just above my confirmed maximum it may
        simply be fresher than my view, so wait; still unverifiably far ahead
        after a patience period, counted from when its tip could first be
        visible to me (its submission plus my visibility delay), it claims
        blocks that cannot exist yet.

        So a far-ahead claim can be challenged only while the patience plus
        my delay fits the challenge window: with 30 blocks of patience and the
        default 80-block (1,120 s) window, a relayer whose delay is 700 s or
        more cannot challenge one in time, and leaves it to faster relayers.
        """
        st = obs.bridge
        active = st.active
        sub = active.sub
        _, prior = st.base(active.backtrack_from)
        eth_s = st.clock.eth_block_seconds

        if sub.range > cm:
            if sub.range > cm + st.params.k + self.RANGE_SLACK and reached(
                    obs, priv, (active.submitted_at_eth + self.RANGE_PATIENCE_ETH) * eth_s + obs.visibility_delay_s):
                return Action("challenge_commitment", {})
            return None  # plausibly fresher than my view; re-judge once my tip moves

        if self.matched(obs, sub, prior) is not None:
            priv[ON_EXTENSION] = True  # an extension keeps the matched segment and cm >= sub.range
            return None

        seen = obs.chain.best_tip(active.submitted_at_eth * eth_s - obs.visibility_delay_s)
        cm_at_sub = confirmed_max(obs.chain, seen, st.params.c)
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
    ONBOARD_AT = "activate_at"

    def decide(self, obs: Observation, priv: dict) -> List[Action]:
        priv[ON_EXTENSION] = True
        return []


class OrphanAttacker(Policy):
    """Commits a privately mined fork of the relay tip.

    The revealed segment is valid PoW forked off the contract's committed tip,
    but the confirmation witness is fabricated: a minority miner cannot
    confirm a branch the network has orphaned.  Supplies its (failing) proof
    when challenged.
    """

    PARAMS = {"activate_at": 0}
    ONBOARD_AT = "activate_at"

    def decide(self, obs: Observation, priv: dict) -> List[Action]:
        st = obs.bridge
        commitment, proof = priv.get("attack", (None, None))
        actions = self.supply_proofs(obs, lambda t: proof if t.active.sub.commitment == commitment else None)

        if proof is not None or st.relay_mode != "listening" or not st.history:
            priv[ON_EXTENSION] = True  # neither my proof nor this test reads my chain
            return actions

        prior_tip, prior = st.base()
        cm = confirmed_max(obs.chain, obs.tip, st.params.c)
        range_b = max(prior + 1, cm)
        if range_b - prior > st.params.max_extension_len:
            return actions

        headers: List[BlockHeader] = []
        parent_header = prior_tip
        for i in range(range_b - prior):
            header = mine_header(parent_header, EMPTY_TX_ROOT, st.now_s, seed=self.agent_seed + i)
            headers.append(header)
            parent_header = header
        target = headers[-1].difficulty_target
        witness = []
        parent = headers[-1].hash
        for j in range(st.params.c):
            bad = find_bad_header(parent, headers[-1].ordinal + 1 + j, st.now_s, target,
                                  headers[-1].pow_fn, seed=self.agent_seed + 10_000 + j)
            witness.append(bad)
            parent = bad.hash

        proof = ExtensionProof(tuple(headers), tuple(witness), tuple(() for _ in headers))
        sub = proven_submission(proof)
        priv["attack"] = (sub.commitment, proof)
        actions.append(Action("submit_extension", {"sub": sub}))
        return actions


class HighRangeAttacker(Policy):
    """Claims a range beyond anything mined, then never backs it up."""

    PARAMS = {"activate_at": 0, "overshoot": 60}
    ONBOARD_AT = "activate_at"

    def decide(self, obs: Observation, priv: dict) -> List[Action]:
        st = obs.bridge
        if priv.get("attacked") or st.relay_mode != "listening":
            priv[ON_EXTENSION] = True
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
    ONBOARD_AT = "activate_at"

    def decide(self, obs: Observation, priv: dict) -> List[Action]:
        st = obs.bridge
        priv[ON_EXTENSION] = True  # reads no chain
        rounds = priv.get("rounds", self.params["rounds"])
        if rounds <= 0 or st.active is None:
            return []
        if st.active.relayer == self.name:
            return []
        priv["rounds"] = rounds - 1
        return [Action("challenge_commitment", {})]


class DosChallenger(Policy):
    """Spams range challenges with inflated garbage alternatives."""

    PARAMS = {"activate_at": 0, "rounds": 3}
    ONBOARD_AT = "activate_at"

    def decide(self, obs: Observation, priv: dict) -> List[Action]:
        st = obs.bridge
        priv[ON_EXTENSION] = True  # reads no tip
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
        priv[ON_EXTENSION] = True  # reads no chain
        actions: List[Action] = []

        if not priv.get("opened") and reached(obs, priv, self.params["open_at"]):
            x = self.params["collateral"]
            bounty = self.params["burn_bounty"]
            if st.accounts.get(self.name) >= x + bounty:
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
                        "sender": bridge.head, "receiver": self.doge_addr,
                        "amount": balance, "memo": b"",
                    }))
                    absconded.add(bridge.bridge_id)

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
        priv[ON_EXTENSION] = True  # reads no chain
        y = self.params["y"]
        if obs.true_rate < self._min_rate:
            return []
        sent_heads = priv.get("sent_heads", set())
        if len(sent_heads) >= self.params["crossings"]:
            return []
        register = self.params["register"]

        my_reg = next((r for r in st.registrations.values()
                       if r.crosser == self.name and r.head not in sent_heads), None)

        if register and my_reg is None:
            for bridge in st.bridges.values():
                if bridge.state == "open" and bridge.y == y and \
                        bridge.head not in st.registrations and bridge.head not in sent_heads:
                    if obs.doge_balances.get(self.doge_addr, 0) < self._amount(bridge):
                        return []  # cannot fund the lock; don't waste a registration
                    void_fee = rate_mul(st.params.registration_void_fee_rate, bridge.collateral)
                    deposit = void_fee + self.DEPOSIT_MARGIN
                    if st.accounts.get(self.name) >= deposit:
                        return [Action("register", {"head": bridge.head, "deposit": deposit,
                                                    "lock_bounty": self.params["lock_bounty"]})]
                    return []
            return []

        bridge = next((b for b in st.bridges.values() if b.state == "open" and
                       (b.head == my_reg.head if register else b.y == y and b.head not in sent_heads)), None)
        if bridge is None:
            return []

        amount = self._amount(bridge)
        if obs.doge_balances.get(self.doge_addr, 0) >= amount:
            priv["sent_heads"] = sent_heads | {bridge.head}
            return [Action("send_doge", {
                "sender": self.doge_addr, "receiver": bridge.head,
                "amount": amount, "memo": self.name.encode(),
            })]
        return []

    def _amount(self, bridge) -> int:  # per lock
        return bridge.capacity if self.params["amount"] is None else self.params["amount"]


class VigilantHodler(HonestCrosser):
    """Burns out when the collateral margin thins; reports missing DOGE.

    With params["cross"] set, first behaves as an honest crosser (its params
    too) and then holds what gets minted (a crosser transmogrified into a hodler).
    """

    PARAMS = {**HonestCrosser.PARAMS, "cross": False, "report_missing": True, "headroom": Fraction(1, 10),
              "burn_at": int | None, "burn_on_rate": True, "burn_amount": int | None}

    def __init__(self, name: str, params: dict, agent_seed: int):
        super().__init__(name, params, agent_seed)
        self._burn_below = (1 + self.params["headroom"]) * self.params["y"]

    def decide(self, obs: Observation, priv: dict) -> List[Action]:
        st = obs.bridge
        actions = super().decide(obs, priv) if self.params["cross"] else []

        y = self.params["y"]
        balance = st.wow_balance(self.name, y)

        scans = self.params["report_missing"] and balance > 0
        if scans:
            theft = self._find_theft(obs, y, balance)
            if theft is not None:
                return actions + [theft]
        priv[ON_EXTENSION] = not scans or self.judged_all(obs)  # only the theft scan reads my chain

        burn_at = self.params["burn_at"]
        triggered = (burn_at is not None and reached(obs, priv, burn_at)) or \
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
                    "dest": self.doge_addr,
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
    """Reveals locks and unlock payments out of matched commitments for bounties; reads the chain only
    through the history cursor, so only while that has an entry left to judge do coin blocks wake it."""

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
        priv[ON_EXTENSION] = self.judged_all(obs)
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
