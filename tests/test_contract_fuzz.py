"""The Bridge Contract as a state machine, fuzzed one public call at a time.

`ContractMachine` is a Hypothesis `RuleBasedStateMachine` with one rule per
public contract call (CALLS, named as the call), `advance_to`, which moves
the contract's clock, included.  Its world is a small Dogecoin chain, mined
once: a lock payment to the operator's bridge head, the operator's unlock
payment, and a fork on which the operator moves the locked coins elsewhere.
So the rules can draw honest claims, bogus claims (made-up roots, or a tip
header that fails PoW) and transaction reports on either branch.

`ContractMachine.tour` is a fixed path on which every call succeeds and every
event kind the coverage ledger gives this test is recorded.  The test plays it
whole, so its coverage does not rest on the draw; each run of the machine
starts somewhere along it (`ContractMachine.begin`), next to the calls that
only a long history of earlier calls enables.

The contract lives in a `SimulationRunner`, so every event goes through the
runner's own `_record`, snapshot reuse included.  Each call and each step is
checked: see `ContractMachine.call` and `ContractMachine.holds`.

The budget comes from the Hypothesis profile (tests/conftest.py); run
`HYPOTHESIS_PROFILE=deep pytest tests/test_contract_fuzz.py` for a larger one.
"""

import functools
import inspect
from collections import Counter
from fractions import Fraction
from itertools import islice, product

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, precondition, rule,
                                 run_state_machine_as_test)

from pegsim.agents import find_bad_header
from pegsim.bridge import BRIDGE_ADDR, BridgeContract, Submission, build_submission, tx_report
from pegsim.chainsim import ChainView, Transaction, doge_address
from pegsim.errors import SimError
from pegsim.harness import SimulationRunner, audit, parse_config
from pegsim.proofsys import commitment_root, prove_extension_for

from test_golden import FUZZER, REACHED_OUTSIDE_THE_CORPUS

# public BridgeContract methods that only read; every other public method is a call the fuzzer drives
READS = {"wow_balance", "is_relayer", "required_relayer_deposit", "base", "unsettled", "aggregates",
         "state_digest", "window_deadline", "backtrack_cost"}
PUBLIC = {name for name, value in vars(BridgeContract).items() if inspect.isfunction(value) and name[0] != "_"}
CALLS = PUBLIC - READS

ACTORS = ("op", "alice", "relay1", "relay2")
RATES = (Fraction(1, 1000), Fraction(1, 500))
COLLATERALS = (500_000, 1_000_000, 2_000_000)
TARGET = 1 << 250
C = 2
HEADS = tuple(doge_address(f"op/head{i}") for i in range(3))
HEAD, OTHER_HEAD = HEADS[:2]
DEST = doge_address("alice/dest")
LOCK = Transaction(doge_address("alice"), HEAD, 1000, 0, b"alice")  # memo: mint to alice when unregistered
UNLOCK = Transaction(HEAD, DEST, 1000, 0)
THEFT = Transaction(HEAD, doge_address("mallory"), 1000, 0)  # on the fork
MAIN_LEN, FORK_AT, FORK_LEN = 36, 6, 30
FIRST = 8  # the date of the tour's first history entry, which commits the lock but not the unlock payment
TOUR_STEPS = 38
STAGED = range(15, 21)  # tour steps played: a deep proposal, a registration and burns pending; from 17 a thread
CONFIG = parse_config({
    "schema_version": 1,
    "name": "contract_fuzz",
    # windows and delays short enough that one Dogecoin block of waiting (advance_to) can end each
    "params": {"c": C, "d": 6, "k": 2, "registration_window_doge_blocks": 4, "max_extension_len": 40,
               "challenge_window_eth_blocks": 5, "unlock_timeout_eth_blocks": 5,
               "deep_backtrack_delay_1_s": 62, "deep_backtrack_delay_2_s": 62},
    "cost_model": {"base_cost": 100, "per_block_cost": 150},
    "agents": [{"name": name, "policy": "greedy_reporter", "eth": 10**9} for name in ACTORS],
    "end": {"sim_time": 1},
})

SUCCEEDED = Counter()  # call -> times it returned without a SimError, over one run of the machine
EMITTED = Counter()  # event kind -> times it was recorded, over one run of the machine


@functools.cache
def world():
    """(chain, (main tip, fork tip)): LOCK at ordinal 3 and UNLOCK at 14 on the main chain, THEFT at 9
    on a fork that leaves it after FORK_AT."""
    view = ChainView.new(TARGET)
    tips = []
    for length, start, pays in ((MAIN_LEN, view.genesis_hash, {3: LOCK, 14: UNLOCK}), (FORK_LEN, None, {9: THEFT})):
        tip = start or view.ancestor_at(tips[0], FORK_AT)
        for i in range(view.blocks[tip].header.ordinal + 1, length + 1):
            txs = [pays[i]] if i in pays else []
            block = view.mine_block(tip, txs, time=62 * i, seed=len(tips) * 1000 + i)
            assert view.add_block(block, 62 * i) is None
            tip = block.header.hash
        tips.append(tip)
    return view, tuple(tips)


@functools.cache
def claim(tip, prior, range_b):
    return build_submission(world()[0], tip, prior, range_b, C)


@functools.cache
def proof(tip, prior, range_b):
    return prove_extension_for(world()[0], tip, prior, range_b, C)


@functools.cache
def segment(tip, prior, range_b):
    """(commitment root, blocks) of (prior, range_b] on tip's path."""
    blocks = world()[0].path_blocks(tip, prior + 1, range_b)
    return commitment_root(blocks), blocks


def ordinal(tip):
    return world()[0].blocks[tip].header.ordinal


def branch_of(header):
    """The world tip whose path holds header, or None."""
    view, tips = world()
    return next((tip for tip in tips if header.ordinal <= ordinal(tip)
                 and view.ancestor_at(tip, header.ordinal) == header.hash), None)


@functools.cache
def report(index, tip, prior, range_b, tx):
    """A report of tx out of history entry index, which commits (prior, range_b] on tip's path."""
    return tx_report(index, segment(tip, prior, range_b)[1], tx)


@functools.cache
def bad_header(range_b):
    return find_bad_header(b"\0" * 32, range_b, 0, TARGET)


def usually(data, likely, unlikely):
    """One of likely, each weighted three times one of unlikely; either may be empty, not both."""
    return data.draw(st.sampled_from([*likely, *likely, *likely, *unlikely]))


class ContractMachine(RuleBasedStateMachine):
    """One public contract call per step, each checked twice over.  The call itself (call): a refused
    one (SimError) leaves the contract and its clock as they were, and one that changed the contract
    recorded an event, as turn skipping and snapshot reuse assume (the clock is not state).  Then the
    whole contract (holds): its ledgers, its history and the trace it has written so far."""

    def __init__(self):
        super().__init__()
        self.runner = SimulationRunner(CONFIG)
        self.contract = self.runner.contract
        self.accounts = self.runner.accounts
        self.eth_total = sum(self.accounts.balances.values())

    def snapshot(self):
        return self.contract.state_digest(), self.contract.aggregates(), dict(self.accounts.balances)

    def call(self, name, *args):
        events, c = self.runner.events, self.contract
        before, count, now = self.snapshot(), len(events), c.now_s
        try:
            getattr(c, name)(*args)
        except SimError:
            assert (c.now_s, self.snapshot()) == (now, before), f"refused {name} changed the contract"
            return False
        assert len(events) > count or self.snapshot() == before, f"{name} changed the contract and wrote no event"
        SUCCEEDED[name] += 1
        EMITTED.update(event["kind"] for event in events[count:])
        return True

    # -- what the rules draw ---------------------------------------------------

    def prior(self, index):
        """The date a claim kept index history entries starts from; the current date for a bad index."""
        history = self.contract.history
        return self.contract.base(index if 0 <= index <= len(history) else None).ordinal

    def draw_claim(self, data, prior):
        """An honest claim on either branch, or a bogus one: made-up roots, or a tip that fails PoW."""
        view, tips = world()
        kind = usually(data, ["main", "fork"], ["roots", "pow"])
        range_b = prior + data.draw(st.sampled_from([1, 4, 8, 12, 20, 45, 0, -2]))
        if kind in ("main", "fork"):
            tip = tips[kind == "fork"]
            top = ordinal(tip) - C
            if prior < top:
                return claim(tip, prior, min(max(range_b, prior + 1), top))
        range_b = max(0, range_b)
        if kind == "roots" and range_b <= MAIN_LEN:
            header = view.blocks[view.ancestor_at(tips[0], range_b)].header
        else:
            header = bad_header(range_b)
        return Submission(b"\x01" * 32, b"\x02" * 32, header)

    def draw_report(self, data):
        """An honest report of a world payment out of a history entry that commits it, or a stale one."""
        tips = world()[1]
        honest = []
        for index, entry in enumerate(self.contract.history):
            prior = self.contract.base(index).ordinal
            for tip in tips:
                if entry.range > ordinal(tip):
                    continue
                root, blocks = segment(tip, prior, entry.range)
                if root == entry.commitment:
                    honest += [report(index, tip, prior, entry.range, tx) for b in blocks for tx in b.txs]
        stale = report(0, tips[0], 0, 4, LOCK)
        return usually(data, honest, [stale])

    def draw_relayer(self, data):
        """Usually a relayer."""
        return usually(data, sorted(self.contract.relayer_deposits), ACTORS)

    def draw_index(self, data, valid):
        """Usually one of the valid indexes 0 to valid - 1, else valid, which is not."""
        return usually(data, range(valid), [valid])

    def draw_id(self, data, records, pending):
        """Usually the id of a pending record, else of any record or the next id, which names none."""
        return usually(data, [i for i, r in records.items() if pending(r)], [*records, len(records)])

    def holdings(self):
        """(holder, rate, WOW held) of every actor that holds WOW."""
        return [(who, y, n) for (who, y), n in sorted(self.contract.wow_balances.items(), key=str)
                if n > 0 and who != BRIDGE_ADDR]

    def draw_holding(self, data):
        """(holder, rate, amount): a holder's WOW at its rate, and usually an amount it can spend."""
        hodler, y, n = data.draw(st.sampled_from(self.holdings()))
        return hodler, y, usually(data, [n // 2, n], [n + 1, 0])

    def tour(self, y, x):
        """The fixed path: (call, *args) steps, each computed when it is reached.  A bridge is opened at the
        lock's head, the lock is relayed and minted, and alice burns twice; a commitment challenge of the
        claim that holds the unlock payment ends on the contract's verdict, and the payment settles one
        burn while the other times out.  Then a deep proposal is objected to and another finalized, a
        backtrack to the fork lets alice report the operator's theft, and a stalled relay backtracks in a
        chunk.  On the way an accepted claim cancels a staged proposal, and a registration expires unfilled."""
        c, (main, fork) = self.contract, world()[1]

        def until(t):
            return "advance_to", max(c.now_s, t)

        def window_end():
            return until(c.window_deadline() * c.clock.eth_block_seconds)

        yield "open_bridge", "op", x, y, HEAD, 0, 2_000
        for relayer in ("relay1", "relay2"):
            yield "become_relayer", relayer, c.required_relayer_deposit()
        yield "open_bridge", "op", x, y, OTHER_HEAD, 0, 0
        yield "submit_extension", "relay1", claim(main, 0, FIRST)
        yield "challenge_range", "relay2", claim(main, 0, FIRST + 2)  # less than d longer: ignored
        yield window_end()
        yield ("accept_on_timeout",)
        yield "register_crossing", "alice", OTHER_HEAD, 50_000, LOCK.sender, 0  # no payment will fill it
        yield "report_lock", "op", report(0, main, 0, FIRST, LOCK)
        yield "report_lock", "op", report(0, main, 0, FIRST, LOCK)  # ignored: the lock is used
        yield "wow_transfer", "alice", "relay1", y, 1
        for share in (2, 4):
            yield "burn_wow", "alice", y, c.wow_balance("alice", y) // share, DEST
        yield "propose_deep_backtrack", "alice", 0, claim(main, 0, 26)  # staged until the next accept
        yield "submit_extension", "relay2", claim(main, FIRST, 30)
        yield "challenge_commitment", "relay1"
        yield "submit_extension", "relay1", claim(main, FIRST, 30)
        yield "supply_proof", "relay2", 0, proof(main, FIRST, 30)
        yield until(c.threads[0].verdict_due_s)
        yield "resolve_proof", 0
        yield window_end()
        yield ("accept_on_timeout",)  # cancels the proposal, and the history passes the registration's expiry
        yield "report_unlock", "op", 0, report(1, main, FIRST, 30, UNLOCK)
        yield until(c.burns[1].deadline_eth * c.clock.eth_block_seconds)
        yield "unlock_timeout", 1
        yield "propose_deep_backtrack", "alice", 0, claim(main, 0, 26)
        yield "object_deep_backtrack", "relay1"
        yield "propose_deep_backtrack", "alice", 2, claim(main, 30, MAIN_LEN - C)
        yield until(c.deep_proposal.proposed_at_s + c.params.deep_backtrack_delay_1_s)
        yield ("finalize_deep_backtrack",)
        yield "backtrack", "relay2", 0, claim(fork, 0, 12)
        yield window_end()
        yield ("accept_on_timeout",)
        yield "report_missing_doge", "alice", report(0, fork, 0, 12, THEFT), y, 1
        yield "withdraw_relayer_deposit", "relay1"
        yield until(c.last_progress_s + c.params.deep_backtrack_delay_2_s)
        yield "chunked_backtrack", "relay2", 0, claim(main, 0, 20)

    @initialize(y=st.sampled_from(RATES), x=st.sampled_from(COLLATERALS), data=st.data())
    def begin(self, y, x, data):
        """Start after the first steps of the tour, then stay or move the clock to a deadline to come.

        Usually the start is STAGED, with much pending that the rules rarely set up on their own.  Else it
        follows any step from the third on: the first three (a bridge and two relayers) record the events
        whose snapshot a Dogecoin block copies.
        """
        c = self.contract
        steps = data.draw(st.sampled_from(usually(data, [STAGED], [range(3, TOUR_STEPS + 1)])))
        for name, *args in islice(self.tour(y, x), steps):
            getattr(c, name)(*args)
        c.advance_to(data.draw(st.sampled_from([c.now_s, c.now_s, *self.deadlines()])))

    # -- the clock -------------------------------------------------------------

    def deadlines(self):
        """The times still to come at which a contract deadline or delay ends."""
        c, eth_s = self.contract, self.runner.clock.eth_block_seconds
        ends = [t.verdict_due_s for t in c.threads.values() if not t.resolved]
        ends += [b.deadline_eth * eth_s for b in c.burns.values() if not b.settled]
        ends.append(c.last_progress_s + c.params.deep_backtrack_delay_2_s)
        if c.active is not None:
            ends.append(c.window_deadline() * eth_s)
        if c.deep_proposal is not None:
            ends.append(c.deep_proposal.proposed_at_s + c.params.deep_backtrack_delay_1_s)
        return sorted({t for t in ends if t > self.contract.now_s + 1})

    @rule(data=st.data())
    def advance_to(self, data):
        """Usually move the clock to a deadline still to come.  Else move it a second or a Dogecoin block
        on, to a second short of a deadline, or a second back, which the contract must refuse.  A move
        also mines a Dogecoin block on the runner's own chain, so the second of two moves in a row
        records its block with a copy of the first one's snapshot."""
        ends, now = self.deadlines(), self.contract.now_s
        self.call("advance_to", usually(data, ends, [now + 1, now + 62, *(t - 1 for t in ends), now - 1]))
        if self.contract.now_s > now:
            self.runner._mine_next_block()

    # -- one rule per contract call --------------------------------------------
    # Each mostly draws the arguments an honest caller would pass, else ones the contract should refuse
    # or ignore.

    @precondition(lambda self: len(self.contract.bridges) < 4)
    @rule(data=st.data(), operator=st.sampled_from(ACTORS), y=st.sampled_from(RATES),
          fee=st.sampled_from([0, 5]), bounty=st.sampled_from([0, 2_000]))
    def open_bridge(self, data, operator, y, fee, bounty):
        used = {b.head for b in self.contract.bridges.values()}
        head = usually(data, [h for h in HEADS if h not in used], HEADS)
        x = usually(data, [500_000, 1_000_000, 2_000_000], [0, 1_000_001])
        self.call("open_bridge", operator, x, y, head, fee, bounty)

    @precondition(lambda self: any(b.state == "open" and b.head not in self.contract.registrations
                                   for b in self.contract.bridges.values()))
    @rule(data=st.data(), crosser=st.sampled_from(ACTORS), bounty=st.sampled_from([0, 3]))
    def register_crossing(self, data, crosser, bounty):
        c = self.contract
        head = usually(data, [b.head for b in c.bridges.values() if b.state == "open" and b.head not in c.registrations],
                       HEADS)
        deposit = usually(data, [50_000], [0, 10_000])
        self.call("register_crossing", crosser, head, deposit, usually(data, [LOCK.sender], [DEST]), bounty)

    @precondition(lambda self: len(self.contract.relayer_deposits) < len(ACTORS))
    @rule(data=st.data(), who=st.sampled_from(ACTORS))
    def become_relayer(self, data, who):
        self.call("become_relayer", who, self.contract.required_relayer_deposit() + usually(data, [0, 5_000], [-1]))

    @precondition(lambda self: self.contract.relayer_deposits)
    @rule(data=st.data())
    def withdraw_relayer_deposit(self, data):
        self.call("withdraw_relayer_deposit", self.draw_relayer(data))

    @precondition(lambda self: self.contract.active is None)
    @rule(data=st.data())
    def submit_extension(self, data):
        relayer = self.draw_relayer(data)
        self.call("submit_extension", relayer, self.draw_claim(data, self.contract.current_date))

    @precondition(lambda self: self.contract.active and self.contract.eth_now + 1 >= self.contract.window_deadline())
    @rule()
    def accept_on_timeout(self):
        self.call("accept_on_timeout")

    @precondition(lambda self: self.contract.active and self.contract.eth_now <= self.contract.window_deadline())
    @rule(data=st.data())
    def challenge_range(self, data):
        challenger = self.draw_relayer(data)
        alt = self.draw_claim(data, self.contract.base(self.contract.active.backtrack_from).ordinal)
        self.call("challenge_range", challenger, alt)

    @precondition(lambda self: self.contract.active and self.contract.eth_now <= self.contract.window_deadline())
    @rule(data=st.data())
    def challenge_commitment(self, data):
        self.call("challenge_commitment", self.draw_relayer(data))

    @precondition(lambda self: any(not t.resolved and t.proof is None and self.contract.now_s <= t.verdict_due_s + 1
                                   for t in self.contract.threads.values()))
    @rule(data=st.data())
    def supply_proof(self, data):
        """The thread's relayer proves the segment the claim covers on the branch of its tip: the proof
        of an honest claim verifies."""
        threads = self.contract.threads
        thread_id = self.draw_id(data, threads, lambda t: not t.resolved and t.proof is None)
        thread = threads.get(thread_id)
        relayer = usually(data, [thread.active.relayer] if thread else [], ACTORS)
        tip, prior, range_b = world()[1][0], 0, 1
        if thread is not None:
            sub = thread.active.sub
            tip = branch_of(sub.tip_header) or tip
            if thread.prior_tip_header.ordinal < sub.range <= ordinal(tip) - C:
                prior, range_b = thread.prior_tip_header.ordinal, sub.range
        self.call("supply_proof", relayer, thread_id, proof(tip, prior, range_b))

    @precondition(lambda self: any(not t.resolved for t in self.contract.threads.values()))
    @rule(data=st.data())
    def resolve_proof(self, data):
        self.call("resolve_proof", self.draw_id(data, self.contract.threads, lambda t: not t.resolved))

    @precondition(lambda self: self.contract.history)
    @rule(reporter=st.sampled_from(ACTORS), data=st.data())
    def report_lock(self, reporter, data):
        self.call("report_lock", reporter, self.draw_report(data))

    @precondition(holdings)
    @rule(data=st.data())
    def burn_wow(self, data):
        hodler, y, w = self.draw_holding(data)
        self.call("burn_wow", hodler, y, w, usually(data, [DEST], [HEAD]))

    @precondition(lambda self: any(not b.settled for b in self.contract.burns.values()))
    @rule(reporter=st.sampled_from(ACTORS), data=st.data())
    def report_unlock(self, reporter, data):
        self.call("report_unlock", reporter, self.draw_id(data, self.contract.burns, lambda b: not b.settled),
                  self.draw_report(data))

    @precondition(lambda self: any(not b.settled and b.deadline_eth <= self.contract.eth_now + 1
                                   for b in self.contract.burns.values()))
    @rule(data=st.data())
    def unlock_timeout(self, data):
        self.call("unlock_timeout", self.draw_id(data, self.contract.burns, lambda b: not b.settled))

    @precondition(holdings)
    @rule(data=st.data())
    def report_missing_doge(self, data):
        hodler, y, n = self.draw_holding(data)
        self.call("report_missing_doge", hodler, self.draw_report(data), y, n)

    @precondition(lambda self: self.contract.history and self.contract.active is None)
    @rule(data=st.data())
    def backtrack(self, data):
        relayer, index = self.draw_relayer(data), self.draw_index(data, len(self.contract.history))
        self.call("backtrack", relayer, index, self.draw_claim(data, self.prior(index)))

    @precondition(lambda self: self.contract.deep_proposal is None)
    @rule(proposer=st.sampled_from(ACTORS), data=st.data())
    def propose_deep_backtrack(self, proposer, data):
        index = self.draw_index(data, len(self.contract.history) + 1)
        self.call("propose_deep_backtrack", proposer, index, self.draw_claim(data, self.prior(index)))

    def deep_delay_end(self):
        return self.contract.deep_proposal.proposed_at_s + self.contract.params.deep_backtrack_delay_1_s

    @precondition(lambda self: self.contract.deep_proposal and self.contract.now_s <= self.deep_delay_end())
    @rule(objector=st.sampled_from(ACTORS))
    def object_deep_backtrack(self, objector):
        self.call("object_deep_backtrack", objector)

    @precondition(lambda self: self.contract.deep_proposal and self.contract.now_s + 1 >= self.deep_delay_end())
    @rule()
    def finalize_deep_backtrack(self):
        self.call("finalize_deep_backtrack")

    @precondition(lambda self: self.contract.history and self.contract.active is None and self.contract.now_s + 1
                  >= self.contract.last_progress_s + self.contract.params.deep_backtrack_delay_2_s)
    @rule(data=st.data())
    def chunked_backtrack(self, data):
        relayer, index = self.draw_relayer(data), self.draw_index(data, len(self.contract.history))
        self.call("chunked_backtrack", relayer, index, self.draw_claim(data, self.prior(index)))

    @precondition(holdings)
    @rule(data=st.data(), to=st.sampled_from(ACTORS))
    def wow_transfer(self, data, to):
        """A holder's transfer, else one from or to the contract's own address or of a negative amount."""
        frm, y, amount = self.draw_holding(data)
        frm, to, amount = usually(data, [(frm, to, amount)], [(BRIDGE_ADDR, to, amount), (frm, BRIDGE_ADDR, amount),
                                                              (frm, to, -amount - 1)])
        self.call("wow_transfer", frm, to, y, amount)

    # -- after every step --------------------------------------------------------

    @invariant()
    def holds(self):
        c, events = self.contract, self.runner.events
        agg = c.aggregates()
        # Invariant 1 and ETH conservation, inside the contract and across the accounts
        for y, supply in agg["supply"].items():
            assert supply == Fraction(y) * agg["backing"][y]
        assert agg["received"] == agg["paid"] + agg["held"]
        assert sum(self.accounts.balances.values()) + agg["held"] == self.eth_total
        # the WOW ledger: balances sum to the supply, none is negative, and the contract holds
        # exactly the WOW of the burn portions still pending
        for y in set(c.wow_supply) | {y for _, y in c.wow_balances}:
            assert sum(n for (_, z), n in c.wow_balances.items() if z == y) == c.wow_supply.get(y, 0)
            pending = sum(p.owed_doge for b in c.burns.values() if b.y == y for p in b.portions if not p.settled)
            assert c.wow_balance(BRIDGE_ADDR, y) == pending
        assert min(c.wow_balances.values(), default=0) >= 0
        # history ranges strictly increase, and the digest text kept for each entry is its own
        ranges = [e.range for e in c.history]
        assert all(a < b for a, b in zip(ranges, ranges[1:])), ranges
        assert c._history_text == [e.digest_text() for e in c.history]
        # the trace audits clean (relay-mode legality included), and its last snapshot is the contract's
        audited = audit(events)
        assert audited.ok, [str(v) for v in audited.violations]
        if events:
            assert (events[-1]["agg"], events[-1]["digest"]) == (agg, c.state_digest())


def test_every_public_call_is_a_read_or_has_a_rule():
    assert READS <= PUBLIC
    assert len(CALLS) == 22
    assert {name for name in CALLS if callable(getattr(ContractMachine, name, None))} == CALLS


def test_contract_state_machine():
    """Plays the tour at each rate and collateral, every step of which must succeed, then runs the machine
    under the profile's budget.  Every call must succeed, and every event kind the coverage ledger says
    only this test reaches must be recorded, at least once."""
    SUCCEEDED.clear()
    EMITTED.clear()
    for y, x in product(RATES, COLLATERALS):
        machine, played = ContractMachine(), 0
        for name, *args in machine.tour(y, x):
            assert machine.call(name, *args), f"step {played} of the tour, {name}, refused at y={y}, x={x}"
            machine.holds()
            played += 1
        assert played == TOUR_STEPS
    run_state_machine_as_test(ContractMachine, settings=settings())
    assert set(SUCCEEDED) == CALLS, sorted(CALLS - set(SUCCEEDED))
    fuzzed = {kind for kind, test in REACHED_OUTSIDE_THE_CORPUS.items() if test == FUZZER}
    assert fuzzed <= set(EMITTED), sorted(fuzzed - set(EMITTED))


def test_an_accept_that_cancels_a_deep_proposal_audits_clean():
    """The accept that returns the relay to Listening is recorded before the deep_cancelled of the
    proposal it cancels, so the mode changes on an event kind the auditor allows to change it."""
    runner = SimulationRunner(CONFIG)
    c, main = runner.contract, world()[1][0]
    c.become_relayer("relay1", c.required_relayer_deposit())
    deadline = c.submit_extension("relay1", claim(main, 0, 8))
    c.propose_deep_backtrack("alice", 0, claim(main, 0, 20))
    c.advance_to(deadline * c.clock.eth_block_seconds)
    c.accept_on_timeout()
    assert [e["kind"] for e in runner.events[-2:]] == ["accept", "deep_cancelled"]
    assert audit(runner.events).ok
