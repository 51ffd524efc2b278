"""The Bridge Contract state machine.

One mutable BridgeContract instance holds the whole contract: accepted
commitment history, the active submission, bridges and their FIFO per-rate
queues, the parametrized token ledger, relayer deposits, crossing
registrations, pending burns and their escrows, proof threads, and the
deep-backtracking proposal slot.  Each fact is stored once: a claim's range
is its tip header's ordinal, the relay is in Verification exactly while a
submission is active, the current date is the range of the last history
entry (0 before the first), a bridge has minted once it has left the "open"
state, and bridge, thread and burn ids count the records before them, none
of which is ever deleted.

Quantities are integer smallest units throughout.  A rate y is a Fraction
"DOGE units per ETH unit" with numerator 1, which makes every n/y conversion
an exact integer for any n (the config layer enforces this; open_bridge
re-checks the collateral side).

Token accounting that keeps the supply/backing equality exact after *every*
event: WOW pending a burn is moved to an internal contract address and stays
in total supply until the portion settles (unlock evidence or timeout), when
the tokens are destroyed in the same step that the matching escrow leaves
the contract.  Collateral of a bridge that has not yet minted backs nothing
and is excluded from the backing sum until the lock is reported.

All mutation happens on the simulation thread; snapshots handed to auditors
are plain values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from . import proofsys
from .chainsim import Block, BlockHeader, ChainView, Transaction
from .errors import (
    AlreadyRegistered,
    AlreadySettled,
    BadCollateral,
    BadIndex,
    BadParams,
    HeadInUse,
    InsufficientBalance,
    InsufficientDeposit,
    ActiveOrPending,
    InsufficientQueue,
    NoProposal,
    NotARelayer,
    NotElapsed,
    NotListening,
    NotStuck,
    NotVerifying,
    PastEvent,
    ProposalPending,
    RangeNotAhead,
    RangeTooLong,
    SimError,
    TooDeep,
    TooLate,
    UnknownHead,
    UnknownThread,
    WindowElapsed,
    WindowNotElapsed,
)
from .merkle import MerkleProof, merkle_prove, merkle_verify, sha256
from .proofsys import (
    CostModel,
    ExtensionProof,
    commitment_root,
    extension_leaves,
    prove_extension_for,
    verification_cost,
    witness_root,
)
from .scheduler import ClockParams, ethereum_time

BRIDGE_ADDR = "<bridge>"  # internal holder of WOW pending burn settlement

HOUR = 3600


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolParams:
    c: int = 10  # confirmation depth, coin blocks
    d: int = 20  # recently-confirmed threshold, coin blocks
    k: int = 2  # security parameter, k < d
    registration_void_fee_rate: Fraction = Fraction(1, 100)
    registration_window_doge_blocks: int = 20
    nonmax_penalty_rate: Fraction = Fraction(1, 10)
    unlock_timeout_eth_blocks: int = 20
    challenge_window_eth_blocks: int = 80  # recomputed from the clock by the config layer
    proof_timeout_per_block_s: int = 10
    max_extension_len: int = 10_000
    challenge_reward_rate: Fraction = Fraction(1, 100)
    deep_backtrack_delay_1_s: int = 24 * HOUR
    deep_backtrack_delay_2_s: int = 72 * HOUR
    relay_tax: int = 2  # WOW units per reported lock
    deposit_floor: int = 5_000  # ETH units; stand-in for the fiat floor

    def validate(self) -> None:
        if not 0 < self.k < self.d:
            raise BadParams(f"need 0 < k < d, got k={self.k} d={self.d}")
        if self.c < 1:
            raise BadParams("c must be >= 1")
        for name in ("registration_void_fee_rate", "nonmax_penalty_rate", "challenge_reward_rate"):
            rate = getattr(self, name)
            if not 0 < rate <= 1:
                raise BadParams(f"{name} must be in (0, 1]")
        if self.max_extension_len < self.d:
            raise BadParams("max_extension_len must be >= d")
        if min(
            self.registration_window_doge_blocks,
            self.unlock_timeout_eth_blocks,
            self.challenge_window_eth_blocks,
            self.proof_timeout_per_block_s,
            self.deep_backtrack_delay_1_s,
            self.deep_backtrack_delay_2_s,
        ) <= 0:
            raise BadParams("all windows and delays must be positive")
        if self.relay_tax < 0 or self.deposit_floor < 0:
            raise BadParams("relay_tax and deposit_floor must be >= 0")


def eth_per_doge(y: Fraction) -> int:
    """ETH units per DOGE unit for an exact-unit rate; raises BadParams otherwise."""
    inv = 1 / y
    if inv.denominator != 1:
        raise BadParams(f"rate {y} is not exact-unit (1/y must be an integer)")
    return inv.numerator


def rate_mul(rate: Fraction, amount: int) -> int:
    """floor(rate * amount); exact for the protocol's hand-computed values."""
    return int(rate * amount)


# ---------------------------------------------------------------------------
# accounts
# ---------------------------------------------------------------------------


class EthAccounts:
    """External ETH balances, owned by the harness; the contract debits/credits."""

    def __init__(self, balances: Optional[Dict[str, int]] = None):
        self.balances: Dict[str, int] = dict(balances or {})

    def get(self, who: str) -> int:
        return self.balances.get(who, 0)

    def credit(self, who: str, amount: int) -> None:
        self.balances[who] = self.get(who) + amount

    def debit(self, who: str, amount: int) -> None:
        if self.get(who) < amount:
            raise InsufficientBalance(f"{who} has {self.get(who)}, needs {amount}")
        self.balances[who] -= amount


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass
class Bridge:
    bridge_id: int
    operator: str
    y: Fraction
    head: bytes
    collateral: int
    crossing_fee: int
    bounty_pot: int
    bounty_paid: bool = False
    state: str = "open"  # open | queued | escrowed | closed; every state after open has minted

    @property
    def capacity(self) -> int:
        """Remaining lockable/locked DOGE, coupled to collateral via y."""
        cap = self.collateral * self.y
        assert cap.denominator == 1
        return cap.numerator


@dataclass
class Registration:
    head: bytes
    crosser: str  # ETH address to mint to
    crosser_doge: bytes  # expected lock sender
    deposit: int
    void_fee: int
    expiry_ordinal: int
    lock_bounty: int = 0


@dataclass(frozen=True)
class Submission:
    """A claimed valid extension: both roots and the claimed tip, whose ordinal is the range.  Its relayer is its caller."""

    commitment: bytes
    confirmation_witness: bytes
    tip_header: BlockHeader

    @property
    def range(self) -> int:
        return self.tip_header.ordinal


@dataclass
class ActiveSubmission:
    sub: Submission
    relayer: str
    submitted_at_eth: int
    seq: int
    backtrack_from: Optional[int] = None
    # penalty paid by the relayer this submission displaced, refundable if
    # this submission is later proven bogus
    pending_penalty: Optional[Tuple[str, int]] = None


@dataclass(frozen=True)
class HistoryEntry:
    commitment: bytes
    submitted_at_eth: int
    relayer: str
    tip_header: BlockHeader

    @property
    def range(self) -> int:
        return self.tip_header.ordinal

    def digest_text(self) -> str:
        """This entry's item of state_digest's history list, as canonical JSON."""
        return canonical_json([self.commitment.hex(), self.range, self.submitted_at_eth, self.relayer,
                               self.tip_header.hash.hex()])


@dataclass
class ProofThread:
    thread_id: int
    active: ActiveSubmission  # the challenged submission, with its relayer and pending penalty
    prior_tip_header: BlockHeader
    challenger: str
    verdict_due_s: int  # from when resolve_proof settles on verdict: the proof deadline until a proof comes
    proof: Optional[ExtensionProof] = None
    verdict: str = "timed_out"  # until a proof comes; then the oracle's accept or reject of it
    resolved: bool = False

    @property
    def ext_len(self) -> int:
        return self.active.sub.range - self.prior_tip_header.ordinal


@dataclass
class BurnPortion:
    bridge_id: int
    owed_doge: int
    escrow_eth: int
    settled: Optional[str] = None  # None | "doge" | "eth"


@dataclass
class Burn:
    burn_id: int
    hodler: str
    y: Fraction
    w: int
    dest: bytes
    deadline_eth: int  # every portion times out at this contract block
    history_len_at_burn: int
    portions: List[BurnPortion] = field(default_factory=list)
    d_recv: int = 0
    eth_received: int = 0

    @property
    def settled(self) -> bool:
        return all(p.settled for p in self.portions)


@dataclass(frozen=True)
class TxReport:
    """Pointer into a history commitment plus the transaction and its path."""

    history_index: int
    tx: Transaction
    leaf_proof: MerkleProof


@dataclass
class DeepProposal:
    proposer: str
    from_index: int
    sub: Submission
    proposed_at_s: int


EmitFn = Callable[[str, str, dict], None]

# the canonical JSON text of a value, json.dumps(value, sort_keys=True, separators=(",", ":")), through
# one C encoder built once; with no circular-reference markers it keeps no state between calls, so a
# failed call leaves nothing behind
_ENCODE = json.encoder.c_make_encoder(None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
                                      None, ":", ",", True, False, True)


def canonical_json(value) -> str:
    return "".join(_ENCODE(value, 0))


# ---------------------------------------------------------------------------
# the contract
# ---------------------------------------------------------------------------


class BridgeContract:
    """now_s, the current simulated second, is the contract's clock: only advance_to moves it, and
    eth_now is its contract block.  Like a block's timestamp it is environment, outside state_digest."""

    def __init__(self, params: ProtocolParams, cost_model: CostModel, accounts: EthAccounts, clock: ClockParams,
                 genesis: BlockHeader):
        params.validate()
        self.params = params
        self.cost_model = cost_model
        self.accounts = accounts
        self.clock = clock
        self.genesis = genesis  # the coin chain's genesis header: the base of an empty history
        self.now_s = 0

        self.history: List[HistoryEntry] = []
        self._history_text: List[str] = []  # digest_text() of each history entry, kept by _commit
        self.active: Optional[ActiveSubmission] = None
        self._next_sub_seq = 0

        self.bridges: Dict[int, Bridge] = {}
        self.y_queues: Dict[Fraction, List[int]] = {}
        self.registrations: Dict[bytes, Registration] = {}

        self.relayer_deposits: Dict[str, int] = {}
        self.threads: Dict[int, ProofThread] = {}
        self.burns: Dict[int, Burn] = {}

        self.used_txs: Set[bytes] = set()

        self.wow_balances: Dict[Tuple[str, Fraction], int] = {}
        self.wow_supply: Dict[Fraction, int] = {}

        self.retained = 0
        self.received_total = 0
        self.paid_total = 0

        self.deep_proposal: Optional[DeepProposal] = None
        self.last_progress_s = 0

        self.emit_hook: Optional[EmitFn] = None

    # -- the clock -----------------------------------------------------------

    def advance_to(self, t: int) -> None:
        """Move the clock to simulated second t; it never runs back."""
        if t < self.now_s:
            raise PastEvent(f"{t}s before the clock's {self.now_s}s")
        self.now_s = t

    @property
    def eth_now(self) -> int:
        """The newest contract block at the current second."""
        return ethereum_time(self.now_s, self.clock)

    # -- plumbing ----------------------------------------------------------

    def _emit(self, kind: str, actor: str, **payload) -> None:
        if self.emit_hook is not None:
            self.emit_hook(kind, actor, payload)

    def _inflow(self, who: str, amount: int) -> None:
        self.accounts.debit(who, amount)
        self.received_total += amount

    def _outflow(self, who: str, amount: int) -> None:
        if amount == 0:
            return
        self.accounts.credit(who, amount)
        self.paid_total += amount

    def _wow_credit(self, who: str, y: Fraction, amount: int) -> None:
        key = (who, y)
        self.wow_balances[key] = self.wow_balances.get(key, 0) + amount

    def _wow_debit(self, who: str, y: Fraction, amount: int) -> None:
        key = (who, y)
        have = self.wow_balances.get(key, 0)
        if have < amount:
            raise InsufficientBalance(f"{who} holds {have} WOW[{y}], needs {amount}")
        self.wow_balances[key] = have - amount

    def wow_balance(self, who: str, y: Fraction) -> int:
        return self.wow_balances.get((who, y), 0)

    def is_relayer(self, who: str) -> bool:
        return self.relayer_deposits.get(who, 0) > 0

    def required_relayer_deposit(self) -> int:
        return proofsys.required_relayer_deposit(self.cost_model, self.params)

    @property
    def relay_mode(self) -> str:
        """Verification while a submission is active, else Listening."""
        return "listening" if self.active is None else "verification"

    @property
    def current_date(self) -> int:
        """The date the whole history fixes: its last entry's range; 0 before the first."""
        return self.base().ordinal

    def base(self, index: Optional[int] = None) -> BlockHeader:
        """The tip header an extension starts from, whose ordinal is its date; genesis when it keeps no entry.

        index is the number of history entries the extension keeps, as a
        backtrack's from_index; None extends the whole history.
        """
        index = len(self.history) if index is None else index
        return self.history[index - 1].tip_header if index > 0 else self.genesis

    def unsettled(self) -> Iterator[Tuple[Burn, BurnPortion]]:
        """(burn, portion) for each burn portion still owed, in burn order and then portion order."""
        for burn in self.burns.values():
            for portion in burn.portions:
                if portion.settled is None:
                    yield burn, portion

    def aggregates(self) -> dict:
        """backing[y] is the ETH behind WOW[y]: minted live collateral plus unsettled escrow.  A bridge
        mints before it leaves "open", so each minted rate has a supply."""
        ys = sorted(self.wow_supply, key=str)
        backing = dict.fromkeys(ys, 0)
        held = self.retained + sum(self.relayer_deposits.values()) + sum(r.deposit for r in self.registrations.values())
        for b in self.bridges.values():
            held += b.collateral + (0 if b.bounty_paid else b.bounty_pot)
            if b.state in ("queued", "escrowed"):
                backing[b.y] += b.collateral
        for burn, p in self.unsettled():
            held += p.escrow_eth
            backing[burn.y] += p.escrow_eth
        # a fine stays pending until its submission is settled, so a resolved thread holds none
        actives = [self.active, *(t.active for t in self.threads.values())]
        held += sum(a.pending_penalty[1] for a in actives if a is not None and a.pending_penalty)
        return {
            "supply": {str(y): self.wow_supply[y] for y in ys},
            "backing": {str(y): backing[y] for y in ys},
            "held": held,
            "received": self.received_total,
            "paid": self.paid_total,
            "relay_mode": self.relay_mode,
            "history_len": len(self.history),
            "current_date": self.current_date,
            "used_tx_count": len(self.used_txs),
            "queues": {str(y): list(q) for y, q in sorted(self.y_queues.items(), key=lambda kv: str(kv[0])) if q},
        }

    def state_digest(self) -> str:
        """SHA-256 over the canonical JSON of the contract's ledgers and records: _digest_doc() with a
        "history" key added, the list of each entry's digest_text().  Each section is encoded on its own
        and joined in key order, which gives the same text; an entry's text is the one _commit kept.
        Two states share a digest if they differ only in the clock, last_progress_s, the next submission
        number, the active claim's witness or tip hash, a bridge's crossing_fee, a registration's
        crosser_doge or lock_bounty, a burn's dest or history_len_at_burn, a thread's verdict,
        verdict_due_s or proof (only whether it has one counts), the deep proposal's submission, or
        genesis, the coin chain's genesis header, which is fixed per run."""
        sections = {key: canonical_json(value) for key, value in self._digest_doc().items()}
        sections["history"] = f"[{','.join(self._history_text)}]"
        text = "{" + ",".join(f'"{key}":{sections[key]}' for key in sorted(sections)) + "}"
        return sha256(text.encode()).hex()

    def _digest_doc(self) -> dict:
        """Every section of the document state_digest hashes but its history."""
        return {
            "current_date": self.current_date,
            "relay_mode": self.relay_mode,
            "active": None
            if self.active is None
            else [
                self.active.sub.commitment.hex(),
                self.active.sub.range,
                self.active.relayer,
                self.active.submitted_at_eth,
                self.active.backtrack_from,
                self.active.pending_penalty,
            ],
            "bridges": [
                [b.bridge_id, b.operator, str(b.y), b.head.hex(), b.collateral, b.state, b.state != "open",
                 b.bounty_pot, b.bounty_paid]
                for _, b in sorted(self.bridges.items())
            ],
            "queues": {str(y): q for y, q in sorted(self.y_queues.items(), key=lambda kv: str(kv[0]))},
            "registrations": [
                [r.head.hex(), r.crosser, r.deposit, r.void_fee, r.expiry_ordinal]
                for _, r in sorted(self.registrations.items())
            ],
            "relayers": sorted(self.relayer_deposits.items()),
            "threads": [
                [t.thread_id, t.active.seq, t.active.relayer, t.challenger, t.ext_len, t.resolved, t.proof is not None]
                for _, t in sorted(self.threads.items())
            ],
            "burns": [
                [b.burn_id, b.hodler, str(b.y), b.w, b.d_recv, b.eth_received,
                 [[p.bridge_id, p.owed_doge, p.escrow_eth, b.deadline_eth, p.settled] for p in b.portions]]
                for _, b in sorted(self.burns.items())
            ],
            "used_txs": sorted(t.hex() for t in self.used_txs),
            "wow": [[who, str(y), amt] for (who, y), amt in sorted(self.wow_balances.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))],
            "supply": {str(y): n for y, n in sorted(self.wow_supply.items(), key=lambda kv: str(kv[0]))},
            "retained": self.retained,
            "received": self.received_total,
            "paid": self.paid_total,
            "deep": None
            if self.deep_proposal is None
            else [self.deep_proposal.proposer, self.deep_proposal.from_index, self.deep_proposal.proposed_at_s],
        }

    # -- bridge opening and crossing registration --------------------------

    def open_bridge(
        self,
        operator: str,
        x: int,
        y: Fraction,
        head: bytes,
        crossing_fee: int = 0,
        burn_bounty: int = 0,
    ) -> int:
        if x <= 0:
            raise BadCollateral(f"collateral must be positive, got {x}")
        k = eth_per_doge(y)
        if x % k != 0:
            raise BadCollateral(f"collateral {x} not a multiple of 1/y = {k}")
        if self._bridge_at(head) is not None:
            raise HeadInUse(head.hex())
        self._inflow(operator, x + burn_bounty)
        bid = len(self.bridges)
        bridge = Bridge(
            bridge_id=bid,
            operator=operator,
            y=y,
            head=head,
            collateral=x,
            crossing_fee=crossing_fee,
            bounty_pot=burn_bounty,
        )
        self.bridges[bid] = bridge
        self._emit(
            "open_bridge", operator,
            bridge_id=bid, y=str(y), collateral=x, capacity=bridge.capacity,
            head=head.hex(), crossing_fee=crossing_fee, burn_bounty=burn_bounty,
        )
        return bid

    def _bridge_at(self, head: bytes) -> Optional[Bridge]:
        """The bridge at head that has not closed, if any: open_bridge lets no two such bridges share a head."""
        return next((b for b in self.bridges.values() if b.head == head and b.state != "closed"), None)

    def register_crossing(
        self,
        crosser: str,
        head: bytes,
        deposit: int,
        crosser_doge: bytes,
        lock_bounty: int = 0,
    ) -> Registration:
        bridge = self._bridge_at(head)
        if bridge is None or bridge.state != "open":
            raise UnknownHead(head.hex())
        if head in self.registrations:
            raise AlreadyRegistered(head.hex())
        void_fee = rate_mul(self.params.registration_void_fee_rate, bridge.collateral)
        if deposit < void_fee:
            raise InsufficientDeposit(f"deposit {deposit} below void fee {void_fee}")
        self._inflow(crosser, deposit)
        reg = Registration(
            head=head,
            crosser=crosser,
            crosser_doge=crosser_doge,
            deposit=deposit,
            void_fee=void_fee,
            expiry_ordinal=self.current_date + self.params.registration_window_doge_blocks,
            lock_bounty=lock_bounty,
        )
        self.registrations[head] = reg
        self._emit(
            "register", crosser,
            head=head.hex(), deposit=deposit, void_fee=void_fee, expiry=reg.expiry_ordinal,
        )
        return reg

    def _expire_registrations(self) -> None:
        """Void registrations the advancing history has run past; fee retained."""
        for head, reg in list(self.registrations.items()):
            if self.current_date > reg.expiry_ordinal:
                del self.registrations[head]
                self.retained += reg.void_fee
                self._outflow(reg.crosser, reg.deposit - reg.void_fee)
                self._emit(
                    "registration_expired", reg.crosser,
                    head=head.hex(), fee_retained=reg.void_fee, refunded=reg.deposit - reg.void_fee,
                )

    # -- relayers -----------------------------------------------------------

    def become_relayer(self, who: str, deposit: int) -> None:
        required = self.required_relayer_deposit()
        if deposit < required:
            raise InsufficientDeposit(f"deposit {deposit} below required {required}")
        self._inflow(who, deposit)
        self.relayer_deposits[who] = self.relayer_deposits.get(who, 0) + deposit
        self._emit("become_relayer", who, deposit=deposit, total=self.relayer_deposits[who])

    def withdraw_relayer_deposit(self, who: str) -> int:
        if not self.is_relayer(who):
            raise NotARelayer(who)
        if self.active is not None and self.active.relayer == who:
            raise ActiveOrPending("active relayer")
        for t in self.threads.values():
            if not t.resolved and who in (t.active.relayer, t.challenger):
                raise ActiveOrPending(f"pending proof thread {t.thread_id}")
        refund = self.relayer_deposits.pop(who)
        self._outflow(who, refund)
        self._emit("withdraw_relayer", who, refund=refund)
        return refund

    # -- relay: listening, verification, challenges -------------------------

    def submit_extension(self, relayer: str, sub: Submission) -> int:
        """First valid submission flips the relay into Verification; returns deadline."""
        self._check_claim(relayer, sub)
        return self._activate(relayer, sub, backtrack_from=None)

    def _check_claim(self, relayer: str, sub: Submission, from_index: Optional[int] = None) -> int:
        """Checks every claim that enters Verification shares; returns its extension length.

        from_index is a backtrack's number of kept history entries; None extends the whole history.
        """
        if self.relay_mode != "listening":
            raise NotListening(self.relay_mode)
        if not self.is_relayer(relayer):
            raise NotARelayer(relayer)
        if from_index is not None and not 0 <= from_index < len(self.history):
            raise BadIndex(f"from_index {from_index} vs history of {len(self.history)}")
        prior_date = self.base(from_index).ordinal
        ext_len = sub.range - prior_date
        if ext_len < 1:
            raise RangeNotAhead(f"range {sub.range} vs prior date {prior_date}")
        if ext_len > self.params.max_extension_len:
            raise RangeTooLong(f"extension of {ext_len} blocks")
        return ext_len

    def _activate(self, relayer: str, sub: Submission, backtrack_from: Optional[int]) -> int:
        seq = self._verify(relayer, sub, backtrack_from).seq
        deadline = self.window_deadline()
        self._emit(
            "submit", relayer,
            range=sub.range, commitment=sub.commitment.hex(), at_eth=self.eth_now,
            deadline_eth=deadline, sub_seq=seq, backtrack_from=backtrack_from,
        )
        return deadline

    def _verify(self, relayer: str, sub: Submission, backtrack_from: Optional[int],
                pending_penalty: Optional[Tuple[str, int]] = None) -> ActiveSubmission:
        """Make sub, under the next submission sequence number, the submission in Verification."""
        self.active = ActiveSubmission(sub, relayer, self.eth_now, self._next_sub_seq, backtrack_from, pending_penalty)
        self._next_sub_seq += 1
        return self.active

    def window_deadline(self) -> int:
        """The contract block that closes the active submission's challenge window."""
        assert self.active is not None
        return self.active.submitted_at_eth + self.params.challenge_window_eth_blocks

    def _commit(self, keep: int, sub: Submission, submitted_at_eth: int, relayer: str) -> HistoryEntry:
        """Keep the first keep history entries and append sub's: the relay progressed."""
        del self.history[keep:], self._history_text[keep:]
        entry = HistoryEntry(sub.commitment, submitted_at_eth, relayer, sub.tip_header)
        self.history.append(entry)
        self._history_text.append(entry.digest_text())
        self.last_progress_s = self.now_s
        return entry

    def accept_on_timeout(self) -> HistoryEntry:
        """Append the unchallenged submission and advance the current date."""
        if self.active is None:
            raise NotVerifying("relay is listening")
        if self.eth_now < self.window_deadline():
            raise WindowNotElapsed(f"eth {self.eth_now} before deadline {self.window_deadline()}")
        active = self.active
        sub = active.sub
        keep = len(self.history) if active.backtrack_from is None else active.backtrack_from
        entry = self._commit(keep, sub, active.submitted_at_eth, active.relayer)
        self._settle_penalty(active, refund=False)
        self.active = None
        self._emit(
            "accept", active.relayer,
            range=sub.range, history_len=len(self.history), sub_seq=active.seq,
            backtrack_from=active.backtrack_from, commitment=sub.commitment.hex(),
        )
        if self.deep_proposal is not None:  # after accept, whose event records the relay's return to Listening
            self.deep_proposal = None
            self._emit("deep_cancelled", active.relayer, reason="relay progressed")
        self._expire_registrations()
        return entry

    def challenge_range(self, challenger: str, alt: Submission) -> str:
        """Claim the active submission's range is too small, offering a longer one.

        Short-by-less-than-d alternatives are ignored and the window keeps
        running.  A real replacement makes the challenger the active relayer,
        restarts the window, and debits the displaced relayer a penalty that
        stays refundable until this new submission survives or fails scrutiny.
        """
        active = self._check_challenge(challenger)
        sub = active.sub
        if alt.range - sub.range < self.params.d:
            self._emit("challenge_range_ignored", challenger, alt_range=alt.range, sub_range=sub.range)
            return "ignored"
        base = active.backtrack_from
        prior_date = self.base(base).ordinal
        if alt.range - prior_date > self.params.max_extension_len:
            raise RangeTooLong(f"alt extension of {alt.range - prior_date} blocks")
        displaced = active.relayer
        penalty = self._take_deposit(
            displaced, rate_mul(self.params.nonmax_penalty_rate, self.relayer_deposits.get(displaced, 0)))
        self._settle_penalty(active, refund=False)
        seq = self._verify(challenger, alt, base, (displaced, penalty)).seq
        self._emit(
            "challenge_range_replaced", challenger,
            displaced=displaced, penalty=penalty, alt_range=alt.range, sub_range=sub.range,
            at_eth=self.eth_now, deadline_eth=self.window_deadline(),
            sub_seq=seq, backtrack_from=base,
        )
        return "replaced"

    def challenge_commitment(self, challenger: str) -> ProofThread:
        """Claim the active submission's commitment is faulty.

        The contract forks: the relay returns to Listening without appending,
        while a proof thread awaits the active relayer's extension proof.
        The first challenge returns the relay to Listening, so a second is refused as NotVerifying.
        """
        active = self._check_challenge(challenger)
        prior_tip = self.base(active.backtrack_from)
        ext_len = active.sub.range - prior_tip.ordinal
        thread = ProofThread(
            thread_id=len(self.threads),
            active=active,
            prior_tip_header=prior_tip,
            challenger=challenger,
            verdict_due_s=self.now_s + self.params.proof_timeout_per_block_s * ext_len,
        )
        self.threads[thread.thread_id] = thread
        self.active = None
        self._emit(
            "challenge_commitment", challenger,
            relayer=active.relayer, thread_id=thread.thread_id, ext_len=ext_len,
            proof_deadline_s=thread.verdict_due_s, sub_seq=active.seq,
        )
        return thread

    def _check_challenge(self, challenger: str) -> ActiveSubmission:
        """Checks both challenges share; returns the challenged submission."""
        if self.active is None:
            raise NotVerifying("relay is listening")
        if not self.is_relayer(challenger):
            raise NotARelayer(challenger)
        if self.eth_now >= self.window_deadline():
            raise WindowElapsed(f"eth {self.eth_now} past deadline {self.window_deadline()}")
        return self.active

    def _take_deposit(self, who: str, amount: int) -> int:
        """Debit up to amount from who's relayer deposit; returns what it took.

        A deposit that reaches zero leaves relayer_deposits, so who is no longer a relayer.
        """
        have = self.relayer_deposits.pop(who, 0)
        taken = min(amount, have)
        if taken < have:
            self.relayer_deposits[who] = have - taken
        return taken

    def _settle_penalty(self, active: ActiveSubmission, refund: bool) -> None:
        """Settle the fine active's range replacement took from the relayer it displaced.

        It is retained unless refund is set and the payer is not active's own relayer.  A
        refund goes back into the payer's deposit while it is a relayer, else to its account.
        """
        if active.pending_penalty is None:
            return
        payer, amount = active.pending_penalty
        active.pending_penalty = None
        if not refund or payer == active.relayer:
            self.retained += amount
        elif self.is_relayer(payer):
            self.relayer_deposits[payer] += amount
        else:
            self._outflow(payer, amount)

    def supply_proof(self, relayer: str, thread_id: int, proof: ExtensionProof) -> ProofThread:
        thread = self.threads.get(thread_id)
        if thread is None or thread.resolved:
            raise UnknownThread(thread_id)
        if thread.active.relayer != relayer:
            raise NotARelayer(f"{relayer} is not the thread's relayer")
        if thread.proof is not None:
            raise TooLate("proof already supplied")
        if self.now_s > thread.verdict_due_s:  # a timed_out verdict is due
            raise TooLate(f"proof deadline {thread.verdict_due_s} passed at {self.now_s}")
        fault, delay_s = proofsys.oracle_verify(thread.prior_tip_header, thread.active.sub, proof,
                                                self.params, self.cost_model)
        thread.proof, thread.verdict_due_s = proof, self.now_s + delay_s
        thread.verdict = "reject" if fault else "accept"
        self._emit("proof_supplied", relayer, thread_id=thread_id, proof_len=proof.length)
        return thread

    def resolve_proof(self, thread_id: int) -> dict:
        """Settle a proof thread on its verdict once that is due; before, refuse it as NotElapsed.

        Timed out, at the proof deadline with no proof: the relayer's whole deposit is destroyed.  Else the
        oracle's verdict on the proof.  Accept: the challenger's deposit pays the verification cost and
        compensates the vindicated relayer.  Reject: the relayer's deposit pays the cost and rewards the
        challenger."""
        thread = self.threads.get(thread_id)
        if thread is None or thread.resolved:
            raise UnknownThread(thread_id)
        if self.now_s < thread.verdict_due_s:
            raise NotElapsed(f"thread {thread_id}'s {thread.verdict} is due at {thread.verdict_due_s}")
        relayer, verdict = thread.active.relayer, thread.verdict
        cost = verification_cost(self.cost_model, thread.ext_len, self.params.c)
        reward = rate_mul(self.params.challenge_reward_rate, cost)
        settlement = {"thread_id": thread_id, "verdict": verdict, "cost": cost, "reward": reward}

        if verdict == "timed_out":
            destroyed = self.relayer_deposits.pop(relayer, 0)
            self.retained += destroyed
            settlement.update(payer=relayer, paid=destroyed, destroyed=destroyed)
        else:  # the loser pays the cost and rewards the winner
            payer, payee = (relayer, thread.challenger) if verdict == "reject" else (thread.challenger, relayer)
            cost_part = self._take_deposit(payer, cost)
            reward_part = self._take_deposit(payer, reward)
            self.retained += cost_part
            self._outflow(payee, reward_part)
            settlement.update(payer=payer, paid=cost_part + reward_part)
        # the relayer the challenged claim displaced is vindicated unless that claim was proven
        self._settle_penalty(thread.active, refund=verdict != "accept")
        thread.resolved = True
        self._emit("proof_resolved", relayer, **settlement)
        return settlement

    # -- transaction evidence -------------------------------------------------

    def _evidence_fault(self, report: TxReport, min_index: int = 0) -> Optional[str]:
        """Why a report does not evidence its transaction, or None.

        The indexed commitment must exist, must not precede min_index, and
        must hold the transaction under the report's Merkle path; last, the
        transaction must not have been used by an earlier report.
        """
        if not 0 <= report.history_index < len(self.history):
            return "no such commitment"
        if report.history_index < min_index:
            return "commitment predates burn"
        if not merkle_verify(self.history[report.history_index].commitment, report.tx.encode(), report.leaf_proof):
            return "bad proof"
        if report.tx.tx_id in self.used_txs:
            return "transaction used"
        return None

    def _ignored(self, reporter: str, report_kind: str, reason: str) -> str:
        self._emit("report_ignored", reporter, report_kind=report_kind, reason=reason)
        return "ignored"

    # -- minting ------------------------------------------------------------

    def report_lock(self, reporter: str, report: TxReport) -> str:
        """Reveal a lock stored in a history commitment; mints on success.

        Malformed or redundant reports are ignored, never penalized: the
        contract verifies the Merkle proof itself, so reporters post nothing.
        """
        tx = report.tx
        reason = self._evidence_fault(report)
        if reason is not None:
            return self._ignored(reporter, "lock", reason)
        bridge = self._bridge_at(tx.receiver)
        if bridge is None or bridge.state != "open":
            return self._ignored(reporter, "lock", "receiver not an open bridge head")
        reg = self.registrations.get(tx.receiver)
        if reg is not None:
            if reg.crosser_doge != tx.sender:
                return self._ignored(reporter, "lock", "sender does not match registration")
            crosser = reg.crosser
        else:
            try:
                crosser = tx.memo.decode() or None
            except UnicodeDecodeError:
                crosser = None
        if crosser is None:
            return self._ignored(reporter, "lock", "no mintable recipient")

        y = bridge.y
        k = eth_per_doge(y)
        capacity = bridge.capacity
        minted = min(tx.amount, capacity)
        shortfall_refund = 0
        if minted < capacity:
            shortfall_refund = (capacity - minted) * k
            bridge.collateral -= shortfall_refund
            self._outflow(bridge.operator, shortfall_refund)

        fee = min(minted, bridge.crossing_fee)
        tax = min(minted - fee, self.params.relay_tax)
        bounty = min(minted - fee - tax, reg.lock_bounty if reg is not None else 0)
        to_crosser = minted - fee - tax - bounty

        self.wow_supply[y] = self.wow_supply.get(y, 0) + minted
        self._wow_credit(crosser, y, to_crosser)
        self._wow_credit(bridge.operator, y, fee)
        self._wow_credit(self.history[report.history_index].relayer, y, tax)
        self._wow_credit(reporter, y, bounty)

        bridge.state = "queued"
        self.y_queues.setdefault(y, []).append(bridge.bridge_id)
        self.used_txs.add(tx.tx_id)

        if reg is not None:
            del self.registrations[tx.receiver]
            self._outflow(reg.crosser, reg.deposit)

        self._emit(
            "mint", reporter,
            bridge_id=bridge.bridge_id, y=str(y), minted=minted, crosser=crosser,
            fee=fee, tax=tax, bounty=bounty, shortfall_refund=shortfall_refund,
            tx_id=tx.tx_id.hex(), history_index=report.history_index,
        )
        return "minted"

    # -- unlocking ----------------------------------------------------------

    def burn_wow(self, hodler: str, y: Fraction, w: int, dest: bytes) -> Burn:
        """Destroy spendability of w WOW[y] and escrow matching collateral FIFO.

        The front of the y-queue owes the hodler w DOGE at dest; the tokens
        sit at the contract's own address until each touched bridge's portion
        settles by payment evidence or timeout.
        """
        if w <= 0:
            raise InsufficientBalance(f"burn of {w} rejected")
        if self.wow_balance(hodler, y) < w:
            raise InsufficientBalance(f"{hodler} holds {self.wow_balance(hodler, y)} WOW[{y}]")
        queue = self.y_queues.get(y, [])
        coverage = sum(self.bridges[bid].capacity for bid in queue)
        if coverage < w:
            raise InsufficientQueue(f"y={y} queue covers {coverage}, burn of {w}")
        k = eth_per_doge(y)
        self._wow_debit(hodler, y, w)
        self._wow_credit(BRIDGE_ADDR, y, w)
        burn = Burn(
            burn_id=len(self.burns),
            hodler=hodler,
            y=y,
            w=w,
            dest=dest,
            deadline_eth=self.eth_now + self.params.unlock_timeout_eth_blocks,
            history_len_at_burn=len(self.history),
        )
        remaining = w
        while remaining > 0:
            bid = queue[0]
            bridge = self.bridges[bid]
            portion = min(remaining, bridge.capacity)
            escrow = portion * k
            bridge.collateral -= escrow
            burn.portions.append(BurnPortion(bid, portion, escrow))
            remaining -= portion
            if bridge.collateral == 0:
                queue.pop(0)
                bridge.state = "escrowed"
        self.burns[burn.burn_id] = burn
        self._emit(
            "burn", hodler,
            burn_id=burn.burn_id, y=str(y), w=w, dest=dest.hex(), deadline_eth=burn.deadline_eth,
            portions=[[p.bridge_id, p.owed_doge, p.escrow_eth] for p in burn.portions],
        )
        return burn

    def _maybe_close_bridge(self, bridge: Bridge) -> None:
        if bridge.state in ("open", "closed"):
            return
        pending = any(p.bridge_id == bridge.bridge_id for _, p in self.unsettled())
        if bridge.collateral == 0 and not pending:
            self._close_bridge(bridge)

    def _close_bridge(self, bridge: Bridge) -> None:
        bridge.state = "closed"
        queue = self.y_queues.get(bridge.y, [])
        if bridge.bridge_id in queue:
            queue.remove(bridge.bridge_id)
        refund = self._pay_bounty(bridge, bridge.operator)
        self._emit("bridge_closed", bridge.operator, bridge_id=bridge.bridge_id, bounty_refund=refund)

    def _pay_bounty(self, bridge: Bridge, to: str) -> int:
        """Pay out bridge's unpaid bounty pot, if any, to `to`; returns the amount paid."""
        if bridge.bounty_paid or not bridge.bounty_pot:
            return 0
        bridge.bounty_paid = True
        self._outflow(to, bridge.bounty_pot)
        return bridge.bounty_pot

    def _settle_portion(self, burn: Burn, portion: BurnPortion, how: str, escrow_to: str) -> None:
        """Settle a portion ("doge" paid, or "eth" timed out): its pending WOW is destroyed as its
        escrow leaves the contract for escrow_to."""
        portion.settled = how
        self._wow_debit(BRIDGE_ADDR, burn.y, portion.owed_doge)
        self.wow_supply[burn.y] -= portion.owed_doge
        self._outflow(escrow_to, portion.escrow_eth)

    def _burn_maybe_settled(self, burn: Burn) -> None:
        if burn.settled:
            self._emit(
                "burn_settled", burn.hodler,
                burn_id=burn.burn_id, y=str(burn.y), w=burn.w,
                d_recv=burn.d_recv, eth_received=burn.eth_received,
            )

    def report_unlock(self, reporter: str, burn_id: int, report: TxReport) -> str:
        """Evidence that an operator paid a burn's portion; refunds their escrow."""
        burn = self.burns.get(burn_id)
        tx = report.tx
        if burn is None:
            return self._ignored(reporter, "unlock", "no such burn")
        reason = self._evidence_fault(report, burn.history_len_at_burn)
        if reason is not None:
            return self._ignored(reporter, "unlock", reason)
        if tx.receiver != burn.dest:
            return self._ignored(reporter, "unlock", "wrong receiver")
        for portion in burn.portions:
            bridge = self.bridges[portion.bridge_id]
            if portion.settled is None and bridge.head == tx.sender:
                break
        else:
            return self._ignored(reporter, "unlock", "sender is not an owing bridge head")
        if tx.amount < portion.owed_doge:
            return self._ignored(reporter, "unlock", "payment below owed portion")

        self._settle_portion(burn, portion, "doge", bridge.operator)
        burn.d_recv += portion.owed_doge
        self.used_txs.add(tx.tx_id)
        bounty = self._pay_bounty(bridge, reporter)
        self._emit(
            "unlock_settled", reporter,
            burn_id=burn_id, bridge_id=bridge.bridge_id, owed=portion.owed_doge,
            escrow_refund=portion.escrow_eth, bounty=bounty, tx_id=tx.tx_id.hex(),
        )
        self._maybe_close_bridge(bridge)
        self._burn_maybe_settled(burn)
        return "settled"

    def unlock_timeout(self, burn_id: int) -> dict:
        """Pay the hodler the escrow of every unpaid portion once the burn's deadline has come."""
        burn = self.burns.get(burn_id)
        if burn is None:
            raise UnknownThread(f"burn {burn_id}")
        if burn.settled:
            raise AlreadySettled(f"burn {burn_id}")
        if self.eth_now < burn.deadline_eth:
            raise NotElapsed(f"burn {burn_id}")
        due = [p for p in burn.portions if p.settled is None]
        payouts = []
        for p in due:
            self._settle_portion(burn, p, "eth", burn.hodler)
            burn.eth_received += p.escrow_eth
            payouts.append([p.bridge_id, p.owed_doge, p.escrow_eth])
        self._emit("unlock_timeout", burn.hodler, burn_id=burn_id, payouts=payouts)
        for p in due:
            self._maybe_close_bridge(self.bridges[p.bridge_id])
        self._burn_maybe_settled(burn)
        return {"burn_id": burn_id, "payouts": payouts}

    # -- reporting missing DOGE ----------------------------------------------

    def report_missing_doge(self, hodler: str, report: TxReport, y: Fraction, n: int) -> str:
        """Backstop: burn n WOW[y] against evidence the operator moved locked DOGE.

        Pays n/y ETH straight from the offending bridge's collateral; the
        evidencing transaction is marked used whether or not it covered more
        than n, and the bridge closes once its collateral is exhausted.
        """
        if n <= 0 or self.wow_balance(hodler, y) < n:
            raise InsufficientBalance(f"{hodler} holds {self.wow_balance(hodler, y)} WOW[{y}], burn {n}")
        tx = report.tx
        reason = self._evidence_fault(report)
        if reason is not None:
            return self._ignored(hodler, "missing", reason)
        bridge = self._bridge_at(tx.sender)
        if bridge is None or bridge.y != y or bridge.state == "open":
            return self._ignored(hodler, "missing", "sender is not a live bridge head at this rate")
        if tx.amount < n:
            return self._ignored(hodler, "missing", "moved amount below burn")
        if n > bridge.capacity:
            return self._ignored(hodler, "missing", "burn exceeds bridge's remaining backing")

        k = eth_per_doge(y)
        payout = n * k
        self._wow_debit(hodler, y, n)
        self.wow_supply[y] -= n
        bridge.collateral -= payout
        self._outflow(hodler, payout)
        self.used_txs.add(tx.tx_id)
        self._emit(
            "missing_doge_paid", hodler,
            bridge_id=bridge.bridge_id, y=str(y), burned=n, eth=payout, tx_id=tx.tx_id.hex(),
        )
        if bridge.collateral == 0:
            self._close_bridge(bridge)
        return "paid"

    # -- backtracking ---------------------------------------------------------

    def backtrack(self, relayer: str, from_index: int, sub: Submission) -> int:
        """Re-enter Verification extending the history as of from_index entries.

        On acceptance the history is truncated to from_index and the new entry
        appended; used transactions stay used, so truncated locks cannot mint
        again.  Depth is bounded by what the relayer's deposit can pay to
        verify; anything deeper must go through the deep-backtracking modes.
        """
        self._check_claim(relayer, sub, from_index)
        depth, cost = self.backtrack_cost(from_index, sub.range)
        if cost > self.relayer_deposits[relayer]:
            raise TooDeep(f"depth {depth} not coverable by deposit")
        return self._activate(relayer, sub, backtrack_from=from_index)

    def backtrack_cost(self, from_index: int, range_b: int) -> Tuple[int, int]:
        """(depth, verification cost) of a backtrack from entry from_index to range_b."""
        prior_date = self.base(from_index).ordinal
        depth = max(self.current_date, range_b) - prior_date
        return depth, verification_cost(self.cost_model, depth, self.params.c)

    def propose_deep_backtrack(self, proposer: str, from_index: int, sub: Submission) -> DeepProposal:
        """Mode 1: anyone proposes an arbitrarily long extension or backtrack."""
        if self.deep_proposal is not None:
            raise ProposalPending("a proposal is already staged")
        if not 0 <= from_index <= len(self.history):
            raise BadIndex(f"from_index {from_index} vs history of {len(self.history)}")
        prior_date = self.base(from_index).ordinal
        if sub.range <= prior_date:
            raise RangeNotAhead(f"range {sub.range} vs prior date {prior_date}")
        proposal = DeepProposal(proposer, from_index, sub, self.now_s)
        self.deep_proposal = proposal
        self._emit(
            "deep_proposed", proposer,
            from_index=from_index, range=sub.range, finalize_at_s=self.now_s + self.params.deep_backtrack_delay_1_s,
        )
        return proposal

    def object_deep_backtrack(self, objector: str) -> str:
        """Any objection within the first delay cancels the staged proposal."""
        proposal = self.deep_proposal
        if proposal is None:
            raise NoProposal("nothing staged")
        if self.now_s >= proposal.proposed_at_s + self.params.deep_backtrack_delay_1_s:
            raise NoProposal("objection window passed")
        self.deep_proposal = None
        self._emit("deep_objected", objector, proposer=proposal.proposer, from_index=proposal.from_index)
        return "cancelled"

    def finalize_deep_backtrack(self) -> HistoryEntry:
        """Replace the history from the staged proposal's index once unopposed.

        Refused while a submission is in Verification: that submission
        extends the history the proposal would replace.  The entry was
        submitted in the contract block of the proposal.
        """
        proposal = self.deep_proposal
        if proposal is None:
            raise NoProposal("nothing staged")
        if self.now_s < proposal.proposed_at_s + self.params.deep_backtrack_delay_1_s:
            raise NotElapsed("objection window still open")
        if self.relay_mode != "listening":
            raise NotListening(self.relay_mode)
        entry = self._commit(proposal.from_index, proposal.sub, ethereum_time(proposal.proposed_at_s, self.clock),
                             proposal.proposer)
        self.deep_proposal = None
        self._emit(
            "deep_finalized", proposal.proposer,
            from_index=proposal.from_index, range=entry.range, history_len=len(self.history),
        )
        self._expire_registrations()
        return entry

    def chunked_backtrack(self, relayer: str, from_index: int, sub: Submission) -> int:
        """Mode 2: after prolonged stagnation, any depth in deposit-sized chunks."""
        if self.now_s - self.last_progress_s < self.params.deep_backtrack_delay_2_s:
            raise NotStuck(f"only {self.now_s - self.last_progress_s}s without progress")
        ext_len = self._check_claim(relayer, sub, from_index)
        if verification_cost(self.cost_model, ext_len, self.params.c) > self.relayer_deposits[relayer]:
            raise TooDeep(f"chunk of {ext_len} not coverable by deposit")
        return self._activate(relayer, sub, backtrack_from=from_index)

    # -- token transfers -------------------------------------------------------

    def wow_transfer(self, frm: str, to: str, y: Fraction, amount: int) -> None:
        if BRIDGE_ADDR in (frm, to):  # its WOW is owed to pending burns
            raise SimError(f"{BRIDGE_ADDR} neither sends nor receives transfers")
        if amount < 0:
            raise InsufficientBalance("negative transfer")
        self._wow_debit(frm, y, amount)
        self._wow_credit(to, y, amount)
        self._emit("wow_transfer", frm, to=to, y=str(y), amount=amount)


# ---------------------------------------------------------------------------
# chain-facing builders (shared by agent policies, tests and the README's library quick start)
# ---------------------------------------------------------------------------


def proven_submission(proof: ExtensionProof) -> Submission:
    """The submission an extension proof evidences: both roots and its tip."""
    headers = proof.revealed_headers
    return Submission(
        commitment=commitment_root([Block(h, txs) for h, txs in zip(headers, proof.txs_per_block)]),
        confirmation_witness=witness_root(proof.witness_headers),
        tip_header=headers[-1],
    )


def build_submission(view: ChainView, tip: bytes, prior_date: int, range_b: int, c: int) -> Submission:
    """Honest submission for the segment (prior_date, range_b] on tip's path.

    Raises InsufficientChain (a SimError) when tip's path does not reach range_b + c.
    """
    return proven_submission(prove_extension_for(view, tip, prior_date, range_b, c))


def tx_report(history_index: int, blocks: Sequence[Block], tx: Transaction) -> TxReport:
    """Report a transaction out of the committed blocks of history entry history_index.

    Raises ValueError when the transaction is not in those blocks.
    """
    leaves = extension_leaves(blocks)
    return TxReport(history_index, tx, merkle_prove(leaves, leaves.index(tx.encode())))


def build_tx_report(view: ChainView, tip: bytes, history: List[HistoryEntry],
                    history_index: int, tx: Transaction) -> TxReport:
    """Report a transaction out of a commitment, reconstructed from a chain view.

    Only works when the view's path actually matches the committed segment;
    raises ValueError when the transaction is not in that segment.
    """
    prior = history[history_index - 1].range if history_index > 0 else 0
    return tx_report(history_index, view.path_blocks(tip, prior + 1, history[history_index].range), tx)
