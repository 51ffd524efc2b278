"""Edge-path coverage for the contract: bounties, backtrack challenges,
chunked-mode bounds and relayer re-entry.  The token-ledger properties are
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
from pegsim.errors import TooDeep

from test_bridge import (
    ALICE,
    BOB,
    ETH,
    OP,
    R1,
    R2,
    RICH,
    Y100,
    at_block,
    bogus_claim,
    chain_with_lock,
    fresh,
    minted_bridge,
)


class TestBurnBountyPot:
    def paid_state(self):
        contract = fresh(ProtocolParams(unlock_timeout_eth_blocks=400,
                                        registration_window_doge_blocks=60, relay_tax=0))
        view, tip, bid, _ = minted_bridge(contract, bounty=2_000)
        dest = doge_address("alice/dest")
        at_block(contract, 300)
        burn = contract.burn_wow(ALICE, Y100, 1000, dest)
        head = contract.bridges[bid].head
        pay = Transaction(head, dest, 1000, 0)
        block = view.mine_block(tip, [pay], time=62 * 46, seed=9046)
        view.add_block(block, 62 * 46)
        tip = block.header.hash
        for i in range(47, 58):
            b = view.mine_block(tip, [], time=62 * i, seed=9000 + i)
            view.add_block(b, 62 * i)
            tip = b.header.hash
        sub = build_submission(view, tip, 30, 46, 10)
        at_block(contract, 320)
        deadline = contract.submit_extension(R1, sub)
        at_block(contract, deadline)
        contract.accept_on_timeout()
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
        head = contract.bridges[bid].head
        generous = Transaction(head, dest, 450, 0)  # overpays the 200 owed
        block = view.mine_block(tip, [generous], time=62 * 46, seed=9146)
        view.add_block(block, 62 * 46)
        tip = block.header.hash
        for i in range(47, 58):
            b = view.mine_block(tip, [], time=62 * i, seed=9100 + i)
            view.add_block(b, 62 * i)
            tip = b.header.hash
        sub = build_submission(view, tip, 30, 46, 10)
        at_block(contract, 320)
        deadline = contract.submit_extension(R1, sub)
        at_block(contract, deadline)
        contract.accept_on_timeout()
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
