"""Bridge Contract state machine tests.

Unit scale used throughout these tests: 1 ETH = 100_000 units, 1 DOGE = 1
unit, rate "100 DOGE per ETH" = Fraction(1, 1000) DOGE units per ETH unit.
All expected values below are hand-computed at that scale.
"""

import copy
from fractions import Fraction

import pytest

from pegsim import bridge as br
from pegsim.bridge import (
    BridgeContract,
    CostModel,
    EthAccounts,
    ProtocolParams,
    Submission,
    build_submission,
    TxReport,
    build_tx_report,
    eth_per_doge,
    genesis,
    rate_mul,
)
from pegsim.chainsim import ChainView, Transaction, block_hash, doge_address
from pegsim.errors import (
    AlreadyRegistered,
    AlreadySettled,
    BadCollateral,
    BadIndex,
    BadParams,
    EncodingError,
    HeadInUse,
    InsufficientBalance,
    InsufficientDeposit,
    InsufficientQueue,
    ActiveOrPending,
    NoProposal,
    NotARelayer,
    NotElapsed,
    NotListening,
    NotStuck,
    RangeNotAhead,
    RangeTooLong,
    SecondChallenge,
    TooDeep,
    WindowElapsed,
    WindowNotElapsed,
)
from pegsim.proofsys import commitment_root, prove_extension_for, verification_cost

ETH = 100_000
Y100 = Fraction(1, 1000)  # 100 DOGE per ETH at this unit scale
TARGET = 1 << 250

OP, ALICE, BOB, R1, R2 = "op1", "alice", "bob", "relay1", "relay2"

RICH = {name: 100_000 * ETH for name in (OP, ALICE, BOB, R1, R2, "op2", "mallory")}


def fresh(params=None, accounts=None) -> BridgeContract:
    # registration window widened past one relay cycle (~28 blocks) so that
    # registrations survive until the lock report lands, and relay tax zeroed
    # so balances stay round; both are tested explicitly at their defaults
    if params is None:
        params = ProtocolParams(registration_window_doge_blocks=60, relay_tax=0)
    return genesis(params, CostModel(), EthAccounts(accounts or dict(RICH)))


def chain_with_lock(n_blocks=45, lock_at=3, head=None, sender=None, amount=1000, memo=b""):
    """A simple chain carrying one lock transaction at the given ordinal."""
    view = ChainView.new(TARGET)
    tip = view.genesis_hash
    lock_tx = None
    for i in range(1, n_blocks + 1):
        txs = []
        if i == lock_at and head is not None:
            lock_tx = Transaction(sender or doge_address(ALICE), head, amount, 0, memo)
            txs = [lock_tx]
        block = view.mine_block(tip, txs, time=62 * i, seed=1000 + i)
        assert view.add_block(block, 62 * i).accepted
        tip = block_hash(block.header)
    return view, tip, lock_tx


def ignored_reasons(contract) -> list:
    """Collects the reason of every report_ignored event the contract emits."""
    reasons = []

    def hook(kind, actor, payload):
        if kind == "report_ignored":
            reasons.append(payload["reason"])

    contract.emit_hook = hook
    return reasons


def tampered(report: TxReport) -> TxReport:
    """The same proof path over a transaction with a different amount."""
    tx = report.tx
    return TxReport(report.history_index,
                    Transaction(tx.sender, tx.receiver, tx.amount + 1, tx.nonce, tx.memo),
                    report.leaf_proof)


def assert_contiguous(contract, view, tip):
    """Each history entry's commitment covers the blocks after the previous entry's range."""
    prior = 0
    for entry in contract.history:
        assert commitment_root(view.path_blocks(tip, prior + 1, entry.range)) == entry.commitment
        prior = entry.range


def accept_first_extension(contract, view, tip, relayer=R1, range_b=30, at_eth=100):
    contract.become_relayer(relayer, contract.required_relayer_deposit())
    sub = build_submission(view, tip, contract.current_date, range_b, relayer, contract.params.c)
    deadline = contract.submit_extension(relayer, sub, at_eth)
    return contract.accept_on_timeout(deadline, now_s=deadline * 14)


class TestGenesisAndParams:
    def test_empty_state(self):
        contract = fresh()
        assert contract.current_date == 0
        assert contract.history == []
        assert contract.relay_mode == "listening"
        assert contract.y_queues == {}
        assert contract.wow_supply == {}

    def test_bad_params_k_ge_d(self):
        with pytest.raises(BadParams):
            genesis(ProtocolParams(k=20, d=20))

    def test_genesis_deterministic(self):
        assert fresh().state_digest() == fresh().state_digest()

    def test_exact_rate_required(self):
        assert eth_per_doge(Y100) == 1000
        with pytest.raises(BadParams):
            eth_per_doge(Fraction(2, 3))


class TestOpenBridge:
    def test_capacity_is_collateral_times_y(self):
        contract = fresh()
        bid = contract.open_bridge(OP, 10 * ETH, Y100, doge_address("op1/head"))
        assert contract.bridges[bid].capacity == 1000

    def test_unit_capacity(self):
        contract = fresh()
        bid = contract.open_bridge(OP, 1, Fraction(1, 1), doge_address("h"))
        assert contract.bridges[bid].capacity == 1

    def test_duplicate_head_rejected(self):
        contract = fresh()
        head = doge_address("h")
        contract.open_bridge(OP, 10 * ETH, Y100, head)
        with pytest.raises(HeadInUse):
            contract.open_bridge("op2", 10 * ETH, Y100, head)

    def test_bad_collateral(self):
        contract = fresh()
        with pytest.raises(BadCollateral):
            contract.open_bridge(OP, 0, Y100, doge_address("h"))
        with pytest.raises(BadCollateral):
            contract.open_bridge(OP, 10 * ETH + 1, Y100, doge_address("h"))  # not a multiple of 1/y

    def test_reopen_after_close_allowed(self):
        contract = fresh()
        head = doge_address("h")
        bid = contract.open_bridge(OP, 10 * ETH, Y100, head)
        contract.bridges[bid].state = "closed"
        contract.bridges[bid].collateral = 0
        bid2 = contract.open_bridge(OP, 10 * ETH, Y100, head)
        assert bid2 != bid


class TestRegistration:
    def test_void_fee_is_one_percent_of_cross_in_eth(self):
        contract = fresh(ProtocolParams())
        head = doge_address("h")
        contract.open_bridge(OP, 10 * ETH, Y100, head)
        view, tip, _ = chain_with_lock(510)
        accept_first_extension(contract, view, tip, range_b=500)
        reg = contract.register_crossing(ALICE, head, deposit=ETH // 2,
                                         crosser_doge=doge_address(ALICE))
        assert reg.void_fee == 10_000  # 0.1 ETH
        assert reg.expiry_ordinal == 520

    def test_insufficient_deposit(self):
        contract = fresh()
        head = doge_address("h")
        contract.open_bridge(OP, 10 * ETH, Y100, head)
        with pytest.raises(InsufficientDeposit):
            contract.register_crossing(ALICE, head, deposit=9_999,
                                       crosser_doge=doge_address(ALICE))

    def test_already_registered(self):
        contract = fresh()
        head = doge_address("h")
        contract.open_bridge(OP, 10 * ETH, Y100, head)
        contract.register_crossing(ALICE, head, ETH, doge_address(ALICE))
        with pytest.raises(AlreadyRegistered):
            contract.register_crossing(BOB, head, ETH, doge_address(BOB))

    def test_expiry_sweep_retains_fee(self):
        contract = fresh(ProtocolParams())
        head = doge_address("h")
        contract.open_bridge(OP, 10 * ETH, Y100, head)
        before = contract.accounts.get(ALICE)
        contract.register_crossing(ALICE, head, deposit=ETH // 2,
                                   crosser_doge=doge_address(ALICE))
        assert contract.expire_registrations() == []  # date 0, not expired
        voided = []

        def hook(kind, actor, payload):
            if kind == "registration_expired":
                voided.append(payload)

        contract.emit_hook = hook
        view, tip, _ = chain_with_lock(31)
        accept_first_extension(contract, view, tip, range_b=21)  # date 21 passes expiry 20: the accept sweeps
        assert len(voided) == 1
        # 0.5 ETH deposit: 0.1 ETH fee retained, 0.4 ETH refunded
        assert contract.retained == 10_000
        assert contract.accounts.get(ALICE) == before - 10_000
        assert head not in contract.registrations


class TestRelayerDeposits:
    def test_required_deposit_value(self):
        contract = fresh()
        # cost(10_000 blocks) = 100 + 1 * (10_000 + 10) = 10_110 > floor 5_000
        assert verification_cost(contract.cost_model, 10_000, 10) == 10_110
        assert contract.required_relayer_deposit() == 10_110

    def test_exact_deposit_ok_one_below_rejected(self):
        contract = fresh()
        contract.become_relayer(R1, 10_110)
        assert contract.is_relayer(R1)
        with pytest.raises(InsufficientDeposit):
            contract.become_relayer(R2, 10_109)

    def test_operator_collateral_does_not_confer_relayer_status(self):
        contract = fresh()
        contract.open_bridge(OP, 100 * ETH, Y100, doge_address("h"))
        view, tip, _ = chain_with_lock(45)
        sub = build_submission(view, tip, 0, 30, OP, 10)
        with pytest.raises(NotARelayer):
            contract.submit_extension(OP, sub, at_eth=10)

    def test_withdraw_idle_full_refund(self):
        contract = fresh()
        contract.become_relayer(R1, 10_110)
        before = contract.accounts.get(R1)
        assert contract.withdraw_relayer_deposit(R1) == 10_110
        assert contract.accounts.get(R1) == before + 10_110
        assert not contract.is_relayer(R1)

    def test_withdraw_active_rejected(self):
        contract = fresh()
        view, tip, _ = chain_with_lock(45)
        contract.become_relayer(R1, 10_110)
        sub = build_submission(view, tip, 0, 30, R1, 10)
        contract.submit_extension(R1, sub, at_eth=10)
        with pytest.raises(ActiveOrPending):
            contract.withdraw_relayer_deposit(R1)

    def test_withdraw_with_pending_thread_rejected(self):
        contract = fresh()
        view, tip, _ = chain_with_lock(45)
        contract.become_relayer(R1, 10_110)
        contract.become_relayer(R2, 10_110)
        sub = build_submission(view, tip, 0, 30, R1, 10)
        contract.submit_extension(R1, sub, at_eth=10)
        contract.challenge_commitment(R2, at_eth=20, now_s=280)
        for who in (R1, R2):
            with pytest.raises(ActiveOrPending):
                contract.withdraw_relayer_deposit(who)


class TestRelaySubmitAccept:
    def test_happy_path_first_extension(self):
        contract = fresh()
        view, tip, _ = chain_with_lock(45)
        entry = accept_first_extension(contract, view, tip, range_b=30)
        assert len(contract.history) == 1
        assert contract.current_date == 30
        assert entry.range == 30
        assert contract.relay_mode == "listening"

    def test_mode_exclusivity(self):
        contract = fresh()
        view, tip, _ = chain_with_lock(45)
        contract.become_relayer(R1, 10_110)
        contract.become_relayer(R2, 10_110)
        sub = build_submission(view, tip, 0, 30, R1, 10)
        contract.submit_extension(R1, sub, at_eth=10)
        with pytest.raises(NotListening):
            contract.submit_extension(R2, build_submission(view, tip, 0, 31, R2, 10), at_eth=11)

    def test_range_not_ahead_and_too_long(self):
        contract = fresh()
        view, tip, _ = chain_with_lock(45)
        contract.become_relayer(R1, 10_110)
        with pytest.raises(RangeNotAhead):
            contract.submit_extension(R1, build_submission(view, tip, 0, 30, R1, 10)._replace_range(0)
                                      if False else Submission(0, b"\0" * 32, b"\0" * 32,
                                                               view.genesis.header, R1), at_eth=1)
        too_long = Submission(10_001, b"\0" * 32, b"\0" * 32, view.genesis.header, R1)
        with pytest.raises(RangeTooLong):
            contract.submit_extension(R1, too_long, at_eth=1)

    def test_accept_before_window_rejected(self):
        contract = fresh()
        view, tip, _ = chain_with_lock(45)
        contract.become_relayer(R1, 10_110)
        sub = build_submission(view, tip, 0, 30, R1, 10)
        deadline = contract.submit_extension(R1, sub, at_eth=100)
        assert deadline == 180  # 100 + 80-block window
        with pytest.raises(WindowNotElapsed):
            contract.accept_on_timeout(at_eth=179, now_s=179 * 14)

    def test_consecutive_ranges_strictly_increase(self):
        contract = fresh()
        view, tip, _ = chain_with_lock(60)
        accept_first_extension(contract, view, tip, range_b=30)
        sub2 = build_submission(view, tip, 30, 45, R1, 10)
        deadline = contract.submit_extension(R1, sub2, at_eth=200)
        contract.accept_on_timeout(deadline, now_s=deadline * 14)
        assert [e.range for e in contract.history] == [30, 45]


class TestChallengeRange:
    def setup_verification(self, range_b=100):
        contract = fresh()
        contract.become_relayer(R1, 10_110)
        contract.become_relayer(R2, 10_110)
        view, tip, _ = chain_with_lock(140)
        # prior progress to date 80, its window closing at eth 0, before this test's submissions
        deadline = contract.submit_extension(R1, build_submission(view, tip, 0, 80, R1, 10), at_eth=-80)
        contract.accept_on_timeout(deadline, now_s=0)
        sub = build_submission(view, tip, 80, range_b, R1, 10)
        contract.submit_extension(R1, sub, at_eth=10)
        return contract, view, tip

    def test_less_than_d_ignored(self):
        contract, view, tip = self.setup_verification(100)
        alt = build_submission(view, tip, 80, 115, R2, 10)
        assert contract.challenge_range(R2, alt, at_eth=20) == "ignored"
        assert contract.active.sub.range == 100
        assert contract.relayer_deposits[R1] == 10_110  # no penalty

    def test_equal_range_ignored(self):
        contract, view, tip = self.setup_verification(100)
        alt = build_submission(view, tip, 80, 100, R2, 10)
        assert contract.challenge_range(R2, alt, at_eth=20) == "ignored"

    def test_replacement_penalty_10_percent(self):
        contract, view, tip = self.setup_verification(100)
        alt = build_submission(view, tip, 80, 125, R2, 10)
        assert contract.challenge_range(R2, alt, at_eth=20) == "replaced"
        assert contract.active.sub.range == 125
        assert contract.active.sub.relayer == R2
        assert contract.active.submitted_at_eth == 20  # window restarted
        assert contract.relayer_deposits[R1] == 10_110 - 1_011  # 10% of deposit
        assert contract.active.pending_penalty == (R1, 1_011)

    def test_window_elapsed(self):
        contract, view, tip = self.setup_verification(100)
        alt = build_submission(view, tip, 80, 125, R2, 10)
        with pytest.raises(WindowElapsed):
            contract.challenge_range(R2, alt, at_eth=90)

    def test_penalty_finalized_on_accept(self):
        contract, view, tip = self.setup_verification(100)
        alt = build_submission(view, tip, 80, 125, R2, 10)
        contract.challenge_range(R2, alt, at_eth=20)
        contract.accept_on_timeout(at_eth=100, now_s=1400)
        assert contract.retained == 1_011
        assert contract.relayer_deposits[R1] == 10_110 - 1_011


class TestChallengeCommitmentAndProofs:
    def make_verifying(self, honest=True):
        contract = fresh()
        contract.become_relayer(R1, 10_110)
        contract.become_relayer(R2, 10_110)
        view, tip, _ = chain_with_lock(45)
        sub = build_submission(view, tip, 0, 30, R1, 10)
        if not honest:
            sub = Submission(30, b"\x42" * 32, sub.confirmation_witness, sub.tip_header, R1)
        contract.submit_extension(R1, sub, at_eth=10)
        return contract, view, tip, sub

    def test_fork_returns_to_listening_without_append(self):
        contract, view, tip, sub = self.make_verifying()
        thread = contract.challenge_commitment(R2, at_eth=20, now_s=280)
        assert contract.relay_mode == "listening"
        assert contract.history == []
        assert thread.ext_len == 30
        assert thread.proof_deadline_s == 280 + 10 * 30

    def test_second_challenge_rejected(self):
        contract, view, tip, sub = self.make_verifying()
        contract.challenge_commitment(R2, at_eth=20, now_s=280)
        with pytest.raises(SecondChallenge):
            contract.challenge_commitment(R2, at_eth=21, now_s=294)

    def test_vindicated_relayer_paid_by_challenger(self):
        contract, view, tip, sub = self.make_verifying(honest=True)
        thread = contract.challenge_commitment(R2, at_eth=20, now_s=280)
        proof = prove_extension_for(view, tip, 0, 30, c=10)
        contract.supply_proof(R1, thread.thread_id, proof, now_s=290)
        cost = verification_cost(contract.cost_model, 30, 10)  # 100 + 40 = 140
        assert cost == 140
        reward = rate_mul(Fraction(1, 100), cost)  # 1
        r1_before = contract.accounts.get(R1)
        settle = contract.resolve_proof(thread.thread_id, "accept")
        assert settle["cost"] == 140 and settle["reward"] == 1
        assert contract.relayer_deposits[R2] == 10_110 - 141
        assert contract.accounts.get(R1) == r1_before + reward
        # the vindicated submission is NOT appended; relay already moved on
        assert contract.history == []

    def test_faulty_commitment_relayer_pays(self):
        contract, view, tip, sub = self.make_verifying(honest=False)
        thread = contract.challenge_commitment(R2, at_eth=20, now_s=280)
        proof = prove_extension_for(view, tip, 0, 30, c=10)
        contract.supply_proof(R1, thread.thread_id, proof, now_s=290)
        r2_before = contract.accounts.get(R2)
        contract.resolve_proof(thread.thread_id, "reject")
        assert contract.relayer_deposits[R1] == 10_110 - 141
        assert contract.accounts.get(R2) == r2_before + 1

    def test_timeout_destroys_whole_deposit(self):
        contract, view, tip, sub = self.make_verifying(honest=False)
        thread = contract.challenge_commitment(R2, at_eth=20, now_s=280)
        settle = contract.resolve_proof(thread.thread_id, "timed_out")
        assert settle["destroyed"] == 10_110
        assert not contract.is_relayer(R1)
        assert contract.retained >= 10_110

    def test_penalty_refund_when_replacer_proven_bogus(self):
        # R1 honest, displaced by R2's bogus higher-range sub; R1 contests and wins.
        contract = fresh()
        contract.become_relayer(R1, 10_110)
        contract.become_relayer(R2, 10_110)
        view, tip, _ = chain_with_lock(45)
        sub = build_submission(view, tip, 0, 30, R1, 10)
        contract.submit_extension(R1, sub, at_eth=10)
        bogus = Submission(50, b"\x66" * 32, b"\x66" * 32, sub.tip_header, R2)
        contract.challenge_range(R2, bogus, at_eth=12)
        assert contract.relayer_deposits[R1] == 10_110 - 1_011
        thread = contract.challenge_commitment(R1, at_eth=14, now_s=200)
        contract.resolve_proof(thread.thread_id, "timed_out")
        # penalty returned to R1's deposit; R2's deposit destroyed
        assert contract.relayer_deposits[R1] == 10_110
        assert not contract.is_relayer(R2)


def minted_bridge(contract, *, x=10 * ETH, fee=0, tax_override=None, bounty=0,
                  lock_amount=1000, register=True, lock_bounty=0, n_blocks=45,
                  operator=OP, crosser=ALICE, relayer=R1, at_eth=100):
    """Open, lock on-chain, relay, accept, and report: returns (view, tip, bridge_id, lock_tx)."""
    head = doge_address(f"{operator}/head")
    bid = contract.open_bridge(operator, x, Y100, head, crossing_fee=fee, burn_bounty=bounty)
    view, tip, lock_tx = chain_with_lock(
        n_blocks, lock_at=3, head=head, sender=doge_address(crosser),
        amount=lock_amount, memo=b"" if register else crosser.encode(),
    )
    if register:
        contract.register_crossing(crosser, head, deposit=rate_mul(Fraction(1, 100), x) + 100,
                                   crosser_doge=doge_address(crosser),
                                   lock_bounty=lock_bounty)
    accept_first_extension(contract, view, tip, relayer=relayer, range_b=30, at_eth=at_eth)
    report = build_tx_report(view, tip, contract.history, 0, lock_tx)
    assert contract.report_lock(BOB, report) == "minted"
    return view, tip, bid, lock_tx


class TestMinting:
    def test_fee_distribution(self):
        params = ProtocolParams(relay_tax=2, registration_window_doge_blocks=60)
        contract = fresh(params)
        minted_bridge(contract, fee=5, lock_bounty=1)
        assert contract.wow_balance(ALICE, Y100) == 992
        assert contract.wow_balance(OP, Y100) == 5
        assert contract.wow_balance(R1, Y100) == 2
        assert contract.wow_balance(BOB, Y100) == 1
        assert contract.wow_supply[Y100] == 1000

    def test_registration_deposit_fully_refunded_at_mint(self):
        contract = fresh()
        before = contract.accounts.get(ALICE)
        minted_bridge(contract)
        assert contract.accounts.get(ALICE) == before  # deposit in, deposit out
        assert contract.registrations == {}

    def test_replay_ignored(self):
        contract = fresh()
        view, tip, bid, lock_tx = minted_bridge(contract)
        report = build_tx_report(view, tip, contract.history, 0, lock_tx)
        assert contract.report_lock(BOB, report) == "ignored"
        assert contract.wow_supply[Y100] == 1000

    def test_shortfall_refunds_proportional_collateral(self):
        contract = fresh()
        op_before = contract.accounts.get(OP)
        view, tip, bid, _ = minted_bridge(contract, lock_amount=600)
        bridge = contract.bridges[bid]
        assert contract.wow_supply[Y100] == 600
        assert bridge.collateral == 6 * ETH
        assert contract.accounts.get(OP) == op_before - 6 * ETH  # 4 of 10 ETH back

    def test_surplus_mints_capacity_only(self):
        contract = fresh()
        minted_bridge(contract, lock_amount=1300)
        assert contract.wow_supply[Y100] == 1000

    def test_unregistered_crossing_mints_to_memo(self):
        contract = fresh()
        minted_bridge(contract, register=False)
        assert contract.wow_balance(ALICE, Y100) == 1000

    def test_wrong_sender_vs_registration_ignored(self):
        contract = fresh()
        head = doge_address(f"{OP}/head")
        contract.open_bridge(OP, 10 * ETH, Y100, head)
        view, tip, lock_tx = chain_with_lock(45, lock_at=3, head=head,
                                             sender=doge_address("mallory"), amount=1000)
        contract.register_crossing(ALICE, head, deposit=2 * ETH,
                                   crosser_doge=doge_address(ALICE))
        accept_first_extension(contract, view, tip)
        report = build_tx_report(view, tip, contract.history, 0, lock_tx)
        assert contract.report_lock(BOB, report) == "ignored"

    def test_invariant_one_holds_after_mint(self):
        contract = fresh()
        minted_bridge(contract)
        assert contract.wow_supply[Y100] == Y100 * contract.backing_eth(Y100)

    def test_ignored_reasons(self):
        contract = fresh()
        view, tip, bid, lock_tx = minted_bridge(contract)
        reasons = ignored_reasons(contract)
        report = build_tx_report(view, tip, contract.history, 0, lock_tx)
        assert contract.report_lock(BOB, TxReport(1, lock_tx, report.leaf_proof)) == "ignored"
        assert contract.report_lock(BOB, tampered(report)) == "ignored"
        # close the bridge and reopen its head so only the used transaction stands in the way
        burn = contract.burn_wow(ALICE, Y100, 1000, doge_address("alice/dest"), at_eth=300)
        contract.unlock_timeout(burn.burn_id, at_eth=320)
        assert contract.bridges[bid].state == "closed"
        contract.open_bridge(OP, 10 * ETH, Y100, contract.bridges[bid].head)
        assert contract.report_lock(BOB, report) == "ignored"
        assert reasons == ["no such commitment", "bad proof", "transaction used"]

    def test_amount_forged_past_u64_refused(self):
        # a 10-DOGE lock into a 10,000-capacity bridge; reduced mod 2^64, amount +- 2^64
        # would share the lock's encoding, tx id and Merkle leaf and mint the forged amount
        contract = fresh()
        head = doge_address(f"{OP}/head")
        contract.open_bridge(OP, 100 * ETH, Y100, head)
        view, tip, lock_tx = chain_with_lock(45, lock_at=3, head=head, amount=10, memo=ALICE.encode())
        accept_first_extension(contract, view, tip)
        report = build_tx_report(view, tip, contract.history, 0, lock_tx)
        for forged in (lock_tx.amount + 2**64, lock_tx.amount - 2**64):
            with pytest.raises(EncodingError):
                Transaction(lock_tx.sender, lock_tx.receiver, forged, lock_tx.nonce, lock_tx.memo)
            # altered after it was built, it still cannot be encoded, so its proof never checks
            altered = copy.copy(lock_tx)
            object.__setattr__(altered, "amount", forged)
            with pytest.raises(EncodingError):
                contract.report_lock(BOB, TxReport(0, altered, report.leaf_proof))
        assert contract.wow_supply.get(Y100, 0) == 0
        assert contract.report_lock(BOB, report) == "minted"
        assert contract.wow_supply[Y100] == 10

    def test_supply_equals_balance_sum(self):
        contract = fresh(ProtocolParams(relay_tax=2, registration_window_doge_blocks=60))
        minted_bridge(contract, fee=5, lock_bounty=1)
        contract.burn_wow(ALICE, Y100, 400, doge_address("d"), at_eth=300)
        total = sum(amt for (_, y), amt in contract.wow_balances.items() if y == Y100)
        assert total == contract.wow_supply[Y100] == 1000


class TestBurnAndUnlock:
    def test_burn_escrow_arithmetic(self):
        contract = fresh()
        minted_bridge(contract)
        burn = contract.burn_wow(ALICE, Y100, 50, doge_address("alice/dest"), at_eth=300)
        assert len(burn.portions) == 1
        assert burn.portions[0].escrow_eth == 50_000  # 0.5 ETH
        assert contract.bridges[burn.portions[0].bridge_id].collateral == 10 * ETH - 50_000
        # supply unchanged until settlement; tokens parked at the contract
        assert contract.wow_supply[Y100] == 1000
        assert contract.wow_balance(br.BRIDGE_ADDR, Y100) == 50

    def test_burn_zero_rejected(self):
        contract = fresh()
        minted_bridge(contract)
        with pytest.raises(InsufficientBalance):
            contract.burn_wow(ALICE, Y100, 0, doge_address("d"), at_eth=300)

    def test_burn_beyond_balance_rejected(self):
        contract = fresh()
        minted_bridge(contract)
        with pytest.raises(InsufficientBalance):
            contract.burn_wow(ALICE, Y100, 1001, doge_address("d"), at_eth=300)

    def test_fifo_spans_two_bridges(self):
        contract = fresh()
        view, tip, bid1, _ = minted_bridge(contract, operator=OP)
        head2 = doge_address("op2/head")
        bid2 = contract.open_bridge("op2", 10 * ETH, Y100, head2)
        # lock the second bridge via a later extension on the same chain
        lock2 = Transaction(doge_address(ALICE), head2, 1000, 1, ALICE.encode())
        tip2 = tip
        block = view.mine_block(tip2, [lock2], time=62 * 46, seed=2046)
        view.add_block(block, 62 * 46)
        tip2 = block_hash(block.header)
        for i in range(47, 58):
            b = view.mine_block(tip2, [], time=62 * i, seed=2000 + i)
            view.add_block(b, 62 * i)
            tip2 = block_hash(b.header)
        sub = build_submission(view, tip2, 30, 46, R1, 10)
        deadline = contract.submit_extension(R1, sub, at_eth=300)
        contract.accept_on_timeout(deadline, now_s=deadline * 14)
        report = build_tx_report(view, tip2, contract.history, 1, lock2)
        assert contract.report_lock(BOB, report) == "minted"
        assert contract.y_queues[Y100] == [bid1, bid2]
        assert contract.wow_balance(ALICE, Y100) == 2000

        burn = contract.burn_wow(ALICE, Y100, 1500, doge_address("alice/dest"), at_eth=700)
        assert [(p.bridge_id, p.owed_doge, p.escrow_eth) for p in burn.portions] == [
            (bid1, 1000, 10 * ETH),
            (bid2, 500, 5 * ETH),
        ]
        assert contract.y_queues[Y100] == [bid2]  # first fully consumed and popped
        assert contract.bridges[bid1].state == "escrowed"
        assert contract.bridges[bid2].collateral == 5 * ETH

    def test_insufficient_queue_loud(self):
        contract = fresh()
        minted_bridge(contract)
        contract.wow_balances[(ALICE, Y100)] += 5_000  # corrupt the ledger on purpose
        with pytest.raises(InsufficientQueue):
            contract.burn_wow(ALICE, Y100, 3_000, doge_address("d"), at_eth=300)

    def unlockable_state(self, w=50):
        """Minted bridge, burn of w, and the operator's payment mined and committed."""
        contract = fresh(ProtocolParams(unlock_timeout_eth_blocks=400,
                                        registration_window_doge_blocks=60))
        view, tip, bid, _ = minted_bridge(contract)
        dest = doge_address("alice/dest")
        burn = contract.burn_wow(ALICE, Y100, w, dest, at_eth=300)
        head = contract.bridges[bid].head
        pay_tx = Transaction(head, dest, w, 0)
        block = view.mine_block(tip, [pay_tx], time=62 * 46, seed=3046)
        view.add_block(block, 62 * 46)
        tip = block_hash(block.header)
        for i in range(47, 58):
            b = view.mine_block(tip, [], time=62 * i, seed=3000 + i)
            view.add_block(b, 62 * i)
            tip = block_hash(b.header)
        sub = build_submission(view, tip, 30, 46, R1, 10)
        deadline = contract.submit_extension(R1, sub, at_eth=320)
        contract.accept_on_timeout(deadline, now_s=deadline * 14)
        return contract, view, tip, bid, burn, pay_tx

    def test_unlock_report_refunds_escrow(self):
        contract, view, tip, bid, burn, pay_tx = self.unlockable_state()
        op_before = contract.accounts.get(OP)
        report = build_tx_report(view, tip, contract.history, 1, pay_tx)
        assert contract.report_unlock(BOB, burn.burn_id, report) == "settled"
        assert contract.accounts.get(OP) == op_before + 50_000  # 0.5 ETH back
        assert burn.d_recv == 50 and burn.eth_received == 0
        assert contract.wow_supply[Y100] == 950

    def test_unlock_report_wrong_receiver_ignored(self):
        contract, view, tip, bid, burn, _ = self.unlockable_state()
        head = contract.bridges[bid].head
        stray = Transaction(head, doge_address("somewhere/else"), 50, 5)
        block = view.mine_block(tip, [stray], time=62 * 58, seed=4000)
        view.add_block(block, 62 * 58)
        tip2 = block_hash(block.header)
        for i in range(59, 70):
            b = view.mine_block(tip2, [], time=62 * i, seed=4000 + i)
            view.add_block(b, 62 * i)
            tip2 = block_hash(b.header)
        sub = build_submission(view, tip2, 46, 58, R1, 10)
        deadline = contract.submit_extension(R1, sub, at_eth=800)
        contract.accept_on_timeout(deadline, now_s=deadline * 14)
        report = build_tx_report(view, tip2, contract.history, 2, stray)
        assert contract.report_unlock(BOB, burn.burn_id, report) == "ignored"

    def test_ignored_reasons(self):
        contract, view, tip, bid, burn, pay_tx = self.unlockable_state()
        reasons = ignored_reasons(contract)
        report = build_tx_report(view, tip, contract.history, 1, pay_tx)
        assert contract.report_unlock(BOB, burn.burn_id, TxReport(2, pay_tx, report.leaf_proof)) == "ignored"
        assert contract.report_unlock(BOB, burn.burn_id, TxReport(0, pay_tx, report.leaf_proof)) == "ignored"
        assert contract.report_unlock(BOB, burn.burn_id, tampered(report)) == "ignored"
        assert contract.report_unlock(BOB, burn.burn_id, report) == "settled"
        assert contract.report_unlock(BOB, burn.burn_id, report) == "ignored"
        assert reasons == ["no such commitment", "commitment predates burn", "bad proof", "transaction used"]

    def test_pre_burn_commitment_ignored(self):
        # a payment sitting in a commitment appended before the burn cannot settle it
        contract = fresh()
        view, tip, bid, lock_tx = minted_bridge(contract)
        dest = doge_address("alice/dest")
        burn = contract.burn_wow(ALICE, Y100, 50, dest, at_eth=300)
        report = build_tx_report(view, tip, contract.history, 0, lock_tx)
        assert contract.report_unlock(BOB, burn.burn_id, report) == "ignored"

    def test_partial_unlock_timeout_only_unpaid_escrow(self):
        # two-bridge burn; the first bridge's portion is paid, the second
        # times out: only the unpaid escrow moves to the hodler
        contract = fresh(ProtocolParams(unlock_timeout_eth_blocks=400,
                                        registration_window_doge_blocks=60))
        view, tip, bid1, _ = minted_bridge(contract, operator=OP)
        head2 = doge_address("op2/head")
        bid2 = contract.open_bridge("op2", 10 * ETH, Y100, head2)
        lock2 = Transaction(doge_address(ALICE), head2, 1000, 1, ALICE.encode())
        block = view.mine_block(tip, [lock2], time=62 * 46, seed=8046)
        view.add_block(block, 62 * 46)
        tip = block_hash(block.header)
        for i in range(47, 58):
            b = view.mine_block(tip, [], time=62 * i, seed=8000 + i)
            view.add_block(b, 62 * i)
            tip = block_hash(b.header)
        sub = build_submission(view, tip, 30, 46, R1, 10)
        deadline = contract.submit_extension(R1, sub, at_eth=300)
        contract.accept_on_timeout(deadline, now_s=deadline * 14)
        contract.report_lock(BOB, build_tx_report(view, tip, contract.history, 1, lock2))

        dest = doge_address("alice/dest")
        burn = contract.burn_wow(ALICE, Y100, 1500, dest, at_eth=500)
        pay1 = Transaction(contract.bridges[bid1].head, dest, 1000, 0)
        block = view.mine_block(tip, [pay1], time=62 * 58, seed=8100)
        view.add_block(block, 62 * 58)
        tip = block_hash(block.header)
        for i in range(59, 70):
            b = view.mine_block(tip, [], time=62 * i, seed=8100 + i)
            view.add_block(b, 62 * i)
            tip = block_hash(b.header)
        sub = build_submission(view, tip, 46, 58, R1, 10)
        deadline = contract.submit_extension(R1, sub, at_eth=600)
        contract.accept_on_timeout(deadline, now_s=deadline * 14)
        assert contract.report_unlock(BOB, burn.burn_id,
                                      build_tx_report(view, tip, contract.history, 2, pay1)) == "settled"

        alice_before = contract.accounts.get(ALICE)
        contract.unlock_timeout(burn.burn_id, at_eth=900)
        assert contract.accounts.get(ALICE) == alice_before + 5 * ETH  # bid2's 500 only
        assert burn.d_recv == 1000 and burn.eth_received == 5 * ETH

    def test_unlock_timeout_pays_hodler(self):
        contract = fresh()
        minted_bridge(contract)
        burn = contract.burn_wow(ALICE, Y100, 50, doge_address("d"), at_eth=300)
        alice_before = contract.accounts.get(ALICE)
        with pytest.raises(NotElapsed):
            contract.unlock_timeout(burn.burn_id, at_eth=319)
        contract.unlock_timeout(burn.burn_id, at_eth=320)
        assert contract.accounts.get(ALICE) == alice_before + 50_000  # 0.5 ETH
        assert burn.eth_received == 50_000 and burn.d_recv == 0
        assert contract.wow_supply[Y100] == 950
        with pytest.raises(AlreadySettled):
            contract.unlock_timeout(burn.burn_id, at_eth=999)

    def test_invariant_one_through_burn_lifecycle(self):
        contract, view, tip, bid, burn, pay_tx = self.unlockable_state()

        def check():
            assert contract.wow_supply[Y100] == Y100 * contract.backing_eth(Y100)

        check()
        report = build_tx_report(view, tip, contract.history, 1, pay_tx)
        contract.report_unlock(BOB, burn.burn_id, report)
        check()


class TestMissingDoge:
    def stolen_state(self, steal=1000):
        contract = fresh()
        view, tip, bid, _ = minted_bridge(contract)
        head = contract.bridges[bid].head
        theft = Transaction(head, doge_address("op1/getaway"), steal, 0)
        block = view.mine_block(tip, [theft], time=62 * 46, seed=5046)
        view.add_block(block, 62 * 46)
        tip = block_hash(block.header)
        for i in range(47, 58):
            b = view.mine_block(tip, [], time=62 * i, seed=5000 + i)
            view.add_block(b, 62 * i)
            tip = block_hash(b.header)
        sub = build_submission(view, tip, 30, 46, R1, 10)
        deadline = contract.submit_extension(R1, sub, at_eth=300)
        contract.accept_on_timeout(deadline, now_s=deadline * 14)
        return contract, view, tip, bid, theft

    def test_full_claim_pays_n_over_y(self):
        contract, view, tip, bid, theft = self.stolen_state()
        alice_before = contract.accounts.get(ALICE)
        report = build_tx_report(view, tip, contract.history, 1, theft)
        assert contract.report_missing_doge(ALICE, report, Y100, 1000) == "paid"
        assert contract.accounts.get(ALICE) == alice_before + 10 * ETH
        assert contract.bridges[bid].state == "closed"
        assert contract.wow_supply[Y100] == 0
        assert contract.y_queues[Y100] == []

    def test_second_report_same_tx_ignored(self):
        contract, view, tip, bid, theft = self.stolen_state()
        report = build_tx_report(view, tip, contract.history, 1, theft)
        contract.report_missing_doge(ALICE, report, Y100, 400)
        assert contract.report_missing_doge(ALICE, report, Y100, 400) == "ignored"

    def test_partial_claim_marks_tx_used(self):
        contract, view, tip, bid, theft = self.stolen_state()
        report = build_tx_report(view, tip, contract.history, 1, theft)
        assert contract.report_missing_doge(ALICE, report, Y100, 400) == "paid"
        assert theft.tx_id in contract.used_txs
        assert contract.bridges[bid].collateral == 6 * ETH
        assert contract.wow_supply[Y100] == 600
        assert contract.wow_supply[Y100] == Y100 * contract.backing_eth(Y100)

    def test_ignored_reasons(self):
        contract, view, tip, bid, theft = self.stolen_state()
        reasons = ignored_reasons(contract)
        report = build_tx_report(view, tip, contract.history, 1, theft)
        assert contract.report_missing_doge(ALICE, TxReport(2, theft, report.leaf_proof), Y100, 400) == "ignored"
        assert contract.report_missing_doge(ALICE, tampered(report), Y100, 400) == "ignored"
        assert contract.report_missing_doge(ALICE, report, Y100, 400) == "paid"
        assert contract.report_missing_doge(ALICE, report, Y100, 400) == "ignored"
        assert reasons == ["no such commitment", "bad proof", "transaction used"]

    def test_balance_pre_violation_raises(self):
        contract, view, tip, bid, theft = self.stolen_state()
        report = build_tx_report(view, tip, contract.history, 1, theft)
        with pytest.raises(InsufficientBalance):
            contract.report_missing_doge(BOB, report, Y100, 100)  # bob holds none


class TestBacktracking:
    def bogus_tail_state(self):
        """Honest entry 0, then a bogus accepted entry 1 (window unmanned)."""
        contract = fresh()
        view, tip, bid, lock_tx = minted_bridge(contract)
        bogus = Submission(60, b"\x99" * 32, b"\x98" * 32, view.genesis.header, R1)
        deadline = contract.submit_extension(R1, bogus, at_eth=300)
        contract.accept_on_timeout(deadline, now_s=deadline * 14)
        assert contract.current_date == 60
        return contract, view, tip, lock_tx

    def extend_chain(self, view, tip, upto, seed_base):
        for i in range(46, upto + 1):
            b = view.mine_block(tip, [], time=62 * i, seed=seed_base + i)
            view.add_block(b, 62 * i)
            tip = block_hash(b.header)
        return tip

    def test_recovery_from_bogus_tail(self):
        contract, view, tip, _ = self.bogus_tail_state()
        tip = self.extend_chain(view, tip, 60, 6000)
        sub = build_submission(view, tip, 30, 50, R1, 10)
        contract.backtrack(R1, from_index=1, sub=sub, at_eth=500)
        contract.accept_on_timeout(at_eth=580, now_s=580 * 14)
        assert [e.range for e in contract.history] == [30, 50]
        assert contract.current_date == 50
        assert contract.history[1].commitment == sub.commitment

    def test_bad_index(self):
        contract, view, tip, _ = self.bogus_tail_state()
        tip = self.extend_chain(view, tip, 60, 6100)
        sub = build_submission(view, tip, 30, 50, R1, 10)
        with pytest.raises(BadIndex):
            contract.backtrack(R1, from_index=5, sub=sub, at_eth=500)

    def test_too_deep_routed_to_deep_mode(self):
        contract = fresh()
        contract.become_relayer(R1, 10_110)
        view, tip, _ = chain_with_lock(45)
        sub = build_submission(view, tip, 0, 30, R1, 10)
        deadline = contract.submit_extension(R1, sub, at_eth=10)
        contract.accept_on_timeout(deadline, now_s=deadline * 14)
        # drain the deposit so even a shallow backtrack is uncoverable
        contract.relayer_deposits[R1] = 120
        sub2 = build_submission(view, tip, 0, 31, R1, 10)
        with pytest.raises(TooDeep):
            contract.backtrack(R1, from_index=0, sub=sub2, at_eth=200)

    def test_used_tx_survives_truncation(self):
        contract, view, tip, lock_tx = self.bogus_tail_state()
        tip = self.extend_chain(view, tip, 60, 6200)
        sub = build_submission(view, tip, 30, 50, R1, 10)
        contract.backtrack(R1, from_index=1, sub=sub, at_eth=500)
        contract.accept_on_timeout(at_eth=580, now_s=580 * 14)
        assert lock_tx.tx_id in contract.used_txs
        report = build_tx_report(view, tip, contract.history, 0, lock_tx)
        assert contract.report_lock(BOB, report) == "ignored"  # no double mint
        assert contract.wow_supply[Y100] == 1000


class TestDeepBacktrack:
    def staged(self, contract=None):
        contract = contract or fresh()
        view, tip, _ = chain_with_lock(45)
        sub = build_submission(view, tip, 0, 30, "anyone", 10)
        proposal = contract.propose_deep_backtrack("anyone", 0, sub, now_s=1000)
        return contract, proposal

    def test_objection_cancels(self):
        contract, _ = self.staged()
        assert contract.object_deep_backtrack("objector", now_s=1000 + 23 * 3600) == "cancelled"
        assert contract.deep_proposal is None
        with pytest.raises(NoProposal):
            contract.object_deep_backtrack("objector", now_s=1000)

    def test_unopposed_finalizes_after_24h(self):
        contract, _ = self.staged()
        with pytest.raises(NotElapsed):
            contract.finalize_deep_backtrack(now_s=1000 + 23 * 3600)
        entry = contract.finalize_deep_backtrack(now_s=1000 + 24 * 3600)
        assert contract.history == [entry]
        assert contract.current_date == 30

    def test_mode2_gate_at_72h(self):
        contract = fresh()
        contract.become_relayer(R1, 10_110)
        view, tip, _ = chain_with_lock(45)
        sub = build_submission(view, tip, 0, 30, R1, 10)
        with pytest.raises(NotStuck):
            contract.chunked_backtrack(R1, 0, sub, at_eth=10, now_s=50 * 3600)
        # chunked mode needs an existing entry to re-extend; stage one first
        deadline = contract.submit_extension(R1, sub, at_eth=10)
        contract.accept_on_timeout(deadline, now_s=deadline * 14)
        contract.last_progress_s = 0
        sub2 = build_submission(view, tip, 0, 31, R1, 10)
        contract.chunked_backtrack(R1, 0, sub2, at_eth=10_000, now_s=73 * 3600)
        assert contract.relay_mode == "verification"

    def test_finalize_refused_while_verifying(self):
        contract = fresh()
        view, tip, _ = chain_with_lock(65)
        accept_first_extension(contract, view, tip, range_b=20, at_eth=10)
        contract.propose_deep_backtrack("anyone", 1, build_submission(view, tip, 20, 40, "anyone", 10),
                                        now_s=2000)
        deadline = contract.submit_extension(R1, build_submission(view, tip, 20, 50, R1, 10), at_eth=200)
        with pytest.raises(NotListening):
            contract.finalize_deep_backtrack(now_s=2000 + 24 * 3600)
        contract.accept_on_timeout(deadline, now_s=2000 + 25 * 3600)
        assert [e.range for e in contract.history] == [20, 50]
        assert contract.deep_proposal is None
        assert_contiguous(contract, view, tip)

    def test_accept_cancels_staged_proposal(self):
        contract = fresh()
        contract.become_relayer(R1, 10_110)
        view, tip, _ = chain_with_lock(45)
        sub = build_submission(view, tip, 0, 30, R1, 10)
        deadline = contract.submit_extension(R1, sub, at_eth=10)
        contract.propose_deep_backtrack("anyone", 0, build_submission(view, tip, 0, 29, "anyone", 10),
                                        now_s=200)
        contract.accept_on_timeout(deadline, now_s=deadline * 14)
        assert contract.deep_proposal is None


class TestWowTransfer:
    def test_transfers(self):
        contract = fresh()
        minted_bridge(contract)
        contract.wow_transfer(ALICE, BOB, Y100, 1000)
        assert contract.wow_balance(ALICE, Y100) == 0
        assert contract.wow_balance(BOB, Y100) == 1000
        contract.wow_transfer(BOB, BOB, Y100, 10)
        assert contract.wow_balance(BOB, Y100) == 1000
        contract.wow_transfer(ALICE, BOB, Y100, 0)
        with pytest.raises(InsufficientBalance):
            contract.wow_transfer(ALICE, BOB, Y100, 1)
        assert contract.wow_supply[Y100] == 1000


class TestConservation:
    def test_eth_conservation_through_lifecycle(self):
        contract = fresh(ProtocolParams(unlock_timeout_eth_blocks=400,
                                        registration_window_doge_blocks=60))
        total_before = sum(contract.accounts.balances.values())

        def check():
            held = contract.held_total()
            assert contract.received_total == contract.paid_total + held
            assert sum(contract.accounts.balances.values()) + held == total_before

        view, tip, bid, _ = minted_bridge(contract, fee=5, bounty=1000, lock_bounty=1)
        check()
        burn = contract.burn_wow(ALICE, Y100, 992, doge_address("alice/dest"), at_eth=300)
        check()
        contract.unlock_timeout(burn.burn_id, at_eth=800)
        check()
