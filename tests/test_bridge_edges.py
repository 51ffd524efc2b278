"""Edge-path coverage for the contract: bounties, backtrack challenges,
chunked-mode bounds, relayer re-entry, a bridge closed under a pending burn,
and the refusals no other test reaches.  The token-ledger properties are
checked after every call by the fuzzer in test_contract_fuzz.py."""

from fractions import Fraction

import pytest

from pegsim.bridge import (
    BRIDGE_ADDR,
    BridgeContract,
    CostModel,
    EthAccounts,
    ProtocolParams,
    build_submission,
    build_tx_report,
)
from pegsim.chainsim import Transaction, doge_address
from pegsim.errors import (
    InsufficientBalance,
    NoProposal,
    NotElapsed,
    NotVerifying,
    ProposalPending,
    RangeNotAhead,
    TooDeep,
    TooLate,
    UnknownThread,
)
from pegsim.harness import audit
from pegsim.proofsys import prove_extension_for

from test_bridge import (
    ALICE,
    BOB,
    ETH,
    OP,
    R1,
    R2,
    RICH,
    Y100,
    accept_first_extension,
    at_block,
    bogus_claim,
    chain_with_lock,
    fresh,
    ignored_reasons,
    minted_bridge,
)

Y2000 = Fraction(1, 2000)


def commit_block(contract, view, tip, txs, seed, at_eth):
    """Mine txs into block 46 on tip, bury it under 11 empty blocks, and have R1 extend a history
    ending at 30 to 46, submitted at contract block at_eth and accepted; returns the new tip."""
    block = view.mine_block(tip, txs, time=62 * 46, seed=seed + 46)
    view.add_block(block, 62 * 46)
    tip = block.header.hash
    for i in range(47, 58):
        b = view.mine_block(tip, [], time=62 * i, seed=seed + i)
        view.add_block(b, 62 * i)
        tip = b.header.hash
    at_block(contract, at_eth)
    deadline = contract.submit_extension(R1, build_submission(view, tip, 30, 46, 10))
    at_block(contract, deadline)
    contract.accept_on_timeout()
    return tip


def untouched(contract):
    """What a refused or ignored call must leave as it was: the state digest, the aggregates and the ETH balances."""
    return contract.state_digest(), contract.aggregates(), dict(contract.accounts.balances)


def recorded(contract) -> list:
    """Records every event the contract emits, with its aggregates and state digest, in the form the auditor reads."""
    events = []
    contract.emit_hook = lambda kind, actor, payload: events.append(
        {"seq": len(events), "kind": kind, "actor": actor, "payload": payload, "agg": contract.aggregates(),
         "digest": contract.state_digest()})
    return events


class TestBurnBountyPot:
    def paid_state(self):
        contract = fresh(ProtocolParams(unlock_timeout_eth_blocks=400,
                                        registration_window_doge_blocks=60, relay_tax=0))
        view, tip, bid, _ = minted_bridge(contract, bounty=2_000)
        dest = doge_address("alice/dest")
        at_block(contract, 300)
        burn = contract.burn_wow(ALICE, Y100, 1000, dest)
        pay = Transaction(contract.bridges[bid].head, dest, 1000, 0)
        tip = commit_block(contract, view, tip, [pay], seed=9000, at_eth=320)
        return contract, view, tip, bid, burn, pay

    def test_pot_pays_first_unlock_reporter(self):
        contract, view, tip, bid, burn, pay = self.paid_state()
        bob_before = contract.accounts.get(BOB)
        report = build_tx_report(view, tip, contract.history, 1, pay)
        assert contract.report_unlock(BOB, burn.burn_id, report) == "settled"
        assert contract.accounts.get(BOB) == bob_before + 2_000
        assert contract.bridges[bid].bounty_paid
        # fully consumed and settled: the bridge closes with nothing left over
        assert contract.bridges[bid].state == "closed"

    def test_pot_refunded_to_operator_when_unclaimed(self):
        contract = fresh()
        op_before = contract.accounts.get(OP)
        view, tip, bid, _ = minted_bridge(contract, bounty=2_000)
        at_block(contract, 300)
        burn = contract.burn_wow(ALICE, Y100, 1000, doge_address("d"))
        at_block(contract, 900)
        contract.unlock_timeout(burn.burn_id)
        # timeout path: hodler took the escrow, nobody evidenced an unlock
        assert contract.bridges[bid].state == "closed"
        assert contract.accounts.get(OP) == op_before - 10 * ETH  # pot back, collateral gone


class TestUnlockOverpayment:
    def test_amount_above_owed_still_settles_owed(self):
        contract = fresh(ProtocolParams(unlock_timeout_eth_blocks=400,
                                        registration_window_doge_blocks=60, relay_tax=0))
        view, tip, bid, _ = minted_bridge(contract)
        dest = doge_address("alice/dest")
        at_block(contract, 300)
        burn = contract.burn_wow(ALICE, Y100, 200, dest)
        generous = Transaction(contract.bridges[bid].head, dest, 450, 0)  # overpays the 200 owed
        tip = commit_block(contract, view, tip, [generous], seed=9100, at_eth=320)
        report = build_tx_report(view, tip, contract.history, 1, generous)
        assert contract.report_unlock(BOB, burn.burn_id, report) == "settled"
        assert burn.d_recv == 200  # the obligation, not the gift
        assert contract.wow_supply[Y100] == 800


class TestChallengeRangeOnBacktrack:
    def test_replacement_keeps_backtrack_base(self):
        contract = fresh()
        contract.become_relayer(R1, 10_110)
        contract.become_relayer(R2, 10_110)
        view, tip, _ = chain_with_lock(120)
        sub = build_submission(view, tip, 0, 30, 10)
        at_block(contract, 10)
        deadline = contract.submit_extension(R1, sub)
        at_block(contract, deadline)
        contract.accept_on_timeout()
        bogus = bogus_claim(60, b"\x99" * 32, b"\x98" * 32)
        at_block(contract, 200)
        deadline = contract.submit_extension(R1, bogus)
        at_block(contract, deadline)
        contract.accept_on_timeout()

        short = build_submission(view, tip, 30, 50, 10)
        at_block(contract, 400)
        contract.backtrack(R1, from_index=1, sub=short)
        longer = build_submission(view, tip, 30, 80, 10)
        at_block(contract, 410)
        assert contract.challenge_range(R2, longer) == "replaced"
        assert contract.active.backtrack_from == 1
        at_block(contract, 500)
        contract.accept_on_timeout()
        assert [e.range for e in contract.history] == [30, 80]

    def test_alt_bounded_by_extension_from_base(self):
        from pegsim.errors import RangeTooLong

        contract = fresh(ProtocolParams(max_extension_len=40,
                                        registration_window_doge_blocks=60, relay_tax=0))
        contract.become_relayer(R1, 10_110)
        contract.become_relayer(R2, 10_110)
        view, tip, _ = chain_with_lock(120)
        sub = build_submission(view, tip, 0, 30, 10)
        at_block(contract, 10)
        deadline = contract.submit_extension(R1, sub)
        at_block(contract, deadline)
        contract.accept_on_timeout()
        bogus = bogus_claim(60, b"\x99" * 32, b"\x98" * 32)
        at_block(contract, 200)
        deadline = contract.submit_extension(R1, bogus)
        at_block(contract, deadline)
        contract.accept_on_timeout()
        short = build_submission(view, tip, 30, 50, 10)
        at_block(contract, 400)
        contract.backtrack(R1, from_index=1, sub=short)
        too_long = build_submission(view, tip, 30, 75, 10)  # 45 > 40 from base
        at_block(contract, 410)
        with pytest.raises(RangeTooLong):
            contract.challenge_range(R2, too_long)


class TestChunkedBacktrackBounds:
    def test_oversized_chunk_rejected(self):
        contract = fresh()
        contract.become_relayer(R1, 10_110)
        view, tip, _ = chain_with_lock(60)
        sub = build_submission(view, tip, 0, 30, 10)
        at_block(contract, 10)
        deadline = contract.submit_extension(R1, sub)
        at_block(contract, deadline)
        contract.accept_on_timeout()
        contract.relayer_deposits[R1] = 130  # covers only tiny chunks
        big = build_submission(view, tip, 0, 40, 10)
        contract.advance_to(73 * 3600)  # past the 72 h stagnation gate
        with pytest.raises(TooDeep):
            contract.chunked_backtrack(R1, 0, big)
        small = build_submission(view, tip, 0, 15, 10)  # cost 125 <= 130
        contract.chunked_backtrack(R1, 0, small)
        assert contract.relay_mode == "verification"


class TestRelayerReentry:
    def test_withdraw_then_rejoin(self):
        contract = fresh()
        contract.become_relayer(R1, 10_110)
        contract.withdraw_relayer_deposit(R1)
        assert not contract.is_relayer(R1)
        contract.become_relayer(R1, 10_110)
        assert contract.relayer_deposits[R1] == 10_110

    def test_topup_accumulates(self):
        contract = fresh()
        contract.become_relayer(R1, 10_110)
        contract.become_relayer(R1, 10_110)
        assert contract.relayer_deposits[R1] == 20_220


class TestBridgeClosedUnderAPendingBurn:
    def test_a_bridge_closed_by_a_missing_doge_report_closes_once(self):
        """The report exhausts a bridge while a burn portion is pending and closes it; the portion's
        timeout then finds it closed and does not close it again."""
        contract = fresh()
        events = recorded(contract)
        view, tip, bid, _ = minted_bridge(contract)
        theft = Transaction(contract.bridges[bid].head, doge_address("op1/getaway"), 1000, 0)
        tip = commit_block(contract, view, tip, [theft], seed=5000, at_eth=300)
        burn = contract.burn_wow(ALICE, Y100, 400, doge_address("alice/dest"))
        report = build_tx_report(view, tip, contract.history, 1, theft)
        assert contract.report_missing_doge(ALICE, report, Y100, 600) == "paid"
        at_block(contract, burn.deadline_eth)
        contract.unlock_timeout(burn.burn_id)
        kinds = [e["kind"] for e in events]
        assert kinds[kinds.index("burn"):] == ["burn", "missing_doge_paid", "bridge_closed", "unlock_timeout",
                                               "burn_settled"]
        assert kinds.count("bridge_closed") == 1
        assert contract.bridges[bid].state == "closed" and burn.settled
        result = audit(events)
        assert result.ok, result.violations


class TestRefusalsChangeNothing:
    """Each refusal here raises, or is ignored with its reason, and leaves the contract as it was."""

    @pytest.mark.parametrize("call, error", [
        ("accept_on_timeout", NotVerifying),
        ("challenge_range", NotVerifying),
        ("challenge_commitment", NotVerifying),
        ("finalize_deep_backtrack", NoProposal),
        ("unlock_timeout", UnknownThread),
    ])
    def test_refused_on_a_listening_relay_with_nothing_staged(self, call, error):
        contract = fresh()
        contract.become_relayer(R2, 10_110)
        before = untouched(contract)
        with pytest.raises(error):
            {
                "accept_on_timeout": contract.accept_on_timeout,
                "challenge_range": lambda: contract.challenge_range(R2, bogus_claim(30, b"\x66" * 32, b"\x66" * 32)),
                "challenge_commitment": lambda: contract.challenge_commitment(R2),
                "finalize_deep_backtrack": contract.finalize_deep_backtrack,
                "unlock_timeout": lambda: contract.unlock_timeout(0),
            }[call]()
        assert untouched(contract) == before

    @pytest.mark.parametrize("call, needs", [
        ("become_relayer", 10_110),
        ("open_bridge", 10 * ETH + 3),
    ])
    def test_a_call_short_of_eth_is_refused(self, call, needs):
        contract = fresh(accounts={OP: needs - 1})
        before = untouched(contract)
        with pytest.raises(InsufficientBalance, match=f"{OP} has {needs - 1}, needs {needs}"):
            {
                "become_relayer": lambda: contract.become_relayer(OP, 10_110),
                "open_bridge": lambda: contract.open_bridge(OP, 10 * ETH, Y100, doge_address("op1/head"),
                                                            burn_bounty=3),
            }[call]()
        assert untouched(contract) == before

    @pytest.mark.parametrize("case, error, match", [
        ("unknown thread", UnknownThread, "99"),
        ("resolved thread", UnknownThread, "0"),
        ("second proof", TooLate, "already supplied"),
        ("late proof", TooLate, "deadline 580 passed at 581"),
    ])
    def test_supply_proof_refused(self, case, error, match):
        contract = fresh()
        contract.become_relayer(R1, 10_110)
        contract.become_relayer(R2, 10_110)
        view, tip, _ = chain_with_lock(45)
        at_block(contract, 10)
        contract.submit_extension(R1, build_submission(view, tip, 0, 30, 10))
        at_block(contract, 20)
        thread = contract.challenge_commitment(R2)  # proof due by 280 s + 10 s x 30 blocks
        proof = prove_extension_for(view, tip, 0, 30, 10)
        thread_id = 99 if case == "unknown thread" else thread.thread_id
        if case in ("resolved thread", "second proof"):
            contract.supply_proof(R1, thread.thread_id, proof)
        if case == "resolved thread":
            contract.advance_to(thread.verdict_due_s)
            contract.resolve_proof(thread.thread_id)
        if case == "late proof":
            contract.advance_to(thread.verdict_due_s + 1)
        before = untouched(contract)
        with pytest.raises(error, match=match):
            contract.supply_proof(R1, thread_id, proof)
        assert untouched(contract) == before

    @pytest.mark.parametrize("case, error, match", [
        ("unknown thread", UnknownThread, "99"),
        ("resolved thread", UnknownThread, "0"),
        ("no proof before its deadline", NotElapsed, "timed_out is due at 580"),
        ("a proof before its verdict is due", NotElapsed, "accept is due at 360"),
    ])
    def test_resolve_proof_refused(self, case, error, match):
        """Only the contract decides a thread's verdict, and only once it is due."""
        contract = fresh()
        contract.become_relayer(R1, 10_110)
        contract.become_relayer(R2, 10_110)
        view, tip, _ = chain_with_lock(45)
        at_block(contract, 10)
        contract.submit_extension(R1, build_submission(view, tip, 0, 30, 10))
        at_block(contract, 20)
        thread = contract.challenge_commitment(R2)  # proof due by 280 s + 10 s x 30 blocks
        if case in ("resolved thread", "a proof before its verdict is due"):
            # at 280 s; the oracle's verdict is due 2 s x (30 revealed + 10 witness blocks) later, at 360 s
            contract.supply_proof(R1, thread.thread_id, prove_extension_for(view, tip, 0, 30, 10))
        if case == "resolved thread":
            contract.advance_to(thread.verdict_due_s)
            contract.resolve_proof(thread.thread_id)
        if case == "no proof before its deadline":
            contract.advance_to(579)
        if case == "a proof before its verdict is due":
            contract.advance_to(359)
        before = untouched(contract)
        with pytest.raises(error, match=match):
            contract.resolve_proof(99 if case == "unknown thread" else thread.thread_id)
        assert untouched(contract) == before

    @pytest.mark.parametrize("case, from_index, prior_date, range_b, error", [
        ("a proposal staged", 1, 30, 33, ProposalPending),
        ("range not ahead", 1, 0, 30, RangeNotAhead),
    ])
    def test_propose_deep_backtrack_refused(self, case, from_index, prior_date, range_b, error):
        contract = fresh()
        view, tip, _ = chain_with_lock(45)
        accept_first_extension(contract, view, tip, range_b=30)
        if case == "a proposal staged":
            contract.propose_deep_backtrack("anyone", 1, build_submission(view, tip, 30, 32, 10))
        before = untouched(contract)
        with pytest.raises(error):
            contract.propose_deep_backtrack(BOB, from_index, build_submission(view, tip, prior_date, range_b, 10))
        assert untouched(contract) == before

    @pytest.mark.parametrize("memo", [b"", b"\xff\xfe"], ids=["empty", "not-utf8"])
    def test_unregistered_lock_without_a_recipient_ignored(self, memo):
        contract = fresh()
        head = doge_address(f"{OP}/head")
        contract.open_bridge(OP, 10 * ETH, Y100, head)
        view, tip, lock_tx = chain_with_lock(45, lock_at=3, head=head, memo=memo)
        accept_first_extension(contract, view, tip)
        report = build_tx_report(view, tip, contract.history, 0, lock_tx)
        reasons = ignored_reasons(contract)
        before = untouched(contract)
        assert contract.report_lock(BOB, report) == "ignored"
        assert reasons == ["no mintable recipient"]
        assert untouched(contract) == before

    @pytest.mark.parametrize("payer, amount, reason", [
        ("op2", 50, "sender is not an owing bridge head"),
        (OP, 49, "payment below owed portion"),
    ])
    def test_report_unlock_ignored(self, payer, amount, reason):
        contract = fresh(ProtocolParams(unlock_timeout_eth_blocks=400,
                                        registration_window_doge_blocks=60, relay_tax=0))
        view, tip, bid, _ = minted_bridge(contract)
        contract.open_bridge("op2", 10 * ETH, Y100, doge_address("op2/head"))  # owes nothing
        dest = doge_address("alice/dest")
        at_block(contract, 300)
        burn = contract.burn_wow(ALICE, Y100, 50, dest)
        pay = Transaction(doge_address(f"{payer}/head"), dest, amount, 0)
        tip = commit_block(contract, view, tip, [pay], seed=3000, at_eth=320)
        report = build_tx_report(view, tip, contract.history, 1, pay)
        reasons = ignored_reasons(contract)
        before = untouched(contract)
        assert contract.report_unlock(BOB, burn.burn_id, report) == "ignored"
        assert reasons == [reason]
        assert untouched(contract) == before

    @pytest.mark.parametrize("thief, y, n, reason", [
        ("op3", Y100, 100, "sender is not a live bridge head at this rate"),  # op3 has not minted
        (OP, Y2000, 50, "sender is not a live bridge head at this rate"),
        (OP, Y100, 1600, "moved amount below burn"),  # 1,500 moved
        (OP, Y100, 1200, "burn exceeds bridge's remaining backing"),  # OP's bridge backs 1,000
    ])
    def test_report_missing_doge_ignored(self, thief, y, n, reason):
        """ALICE holds 2,000 WOW[1/1000] from OP's and op2's bridges and 100 WOW[1/2000] from op4's."""
        contract = fresh(accounts={**RICH, "op3": 100 * ETH, "op4": 100 * ETH})
        view, tip, bid, _ = minted_bridge(contract)
        heads = {name: doge_address(f"{name}/head") for name in (OP, "op2", "op3", "op4")}
        contract.open_bridge("op2", 10 * ETH, Y100, heads["op2"])
        contract.open_bridge("op3", 10 * ETH, Y100, heads["op3"])
        contract.open_bridge("op4", 2 * ETH, Y2000, heads["op4"])
        locks = [Transaction(doge_address(ALICE), heads[op], amount, nonce, ALICE.encode())
                 for op, amount, nonce in (("op2", 1000, 1), ("op4", 100, 2))]
        theft = Transaction(heads[thief], doge_address("getaway"), 1500, 0)
        tip = commit_block(contract, view, tip, [*locks, theft], seed=6000, at_eth=300)
        for lock in locks:
            assert contract.report_lock(BOB, build_tx_report(view, tip, contract.history, 1, lock)) == "minted"
        assert (contract.wow_balance(ALICE, Y100), contract.wow_balance(ALICE, Y2000)) == (2000, 100)
        report = build_tx_report(view, tip, contract.history, 1, theft)
        reasons = ignored_reasons(contract)
        before = untouched(contract)
        assert contract.report_missing_doge(ALICE, report, y, n) == "ignored"
        assert reasons == [reason]
        assert untouched(contract) == before
