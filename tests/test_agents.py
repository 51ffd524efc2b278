"""Agent policy tests: predicates, purity, and decision logic in isolation."""

from fractions import Fraction

import pytest

from pegsim.agents import (
    Observation,
    RatePath,
    confirmed_max,
    find_bad_header,
    make_policy,
    should_abscond,
)
from pegsim.bridge import (
    CostModel,
    EthAccounts,
    ProtocolParams,
    build_submission,
    build_tx_report,
    genesis,
)
from pegsim.chainsim import ChainView, Transaction, block_hash, doge_address, pow_check
from pegsim.errors import BeforeStart, ConfigError
from pegsim.proofsys import verify_extension_proof

Y100 = Fraction(1, 1000)
TARGET = 1 << 250


class TestRatePath:
    def test_single_segment(self):
        path = RatePath(((0, Fraction(100)),))
        assert path.rate_at(0) == 100
        assert path.rate_at(10**9) == 100

    def test_step(self):
        path = RatePath(((0, Fraction(100)), (500, Fraction(40))))
        assert path.rate_at(499) == 100
        assert path.rate_at(500) == 40

    def test_before_start(self):
        path = RatePath(((10, Fraction(1)),))
        with pytest.raises(BeforeStart):
            path.rate_at(9)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            RatePath(())

    def test_unsorted_rejected(self):
        with pytest.raises(ConfigError):
            RatePath(((5, Fraction(1)), (1, Fraction(2))))


class TestAbscondPredicate:
    def test_abscond_when_doge_outvalues_collateral(self):
        # 1000 DOGE at 50 DOGE/ETH is worth 20 ETH > 10 ETH collateral
        assert should_abscond(1000, Fraction(50), 10)

    def test_stay_when_collateral_outvalues_doge(self):
        # at 200 DOGE/ETH the locked DOGE is worth 5 ETH < 10
        assert not should_abscond(1000, Fraction(200), 10)

    def test_threshold_is_strict(self):
        assert not should_abscond(1000, Fraction(100), 10)  # exactly equal: stay

    def test_unit_scale_invariance(self):
        # same comparison at the simulation's smallest-unit scale
        assert should_abscond(1000, Fraction(50, 100_000), 10 * 100_000)
        assert not should_abscond(1000, Fraction(200, 100_000), 10 * 100_000)


class TestHelpers:
    def test_confirmed_max(self):
        view = ChainView.new(TARGET)
        tip = view.genesis_hash
        for i in range(1, 16):
            b = view.mine_block(tip, [], time=62 * i, seed=i)
            view.add_block(b, 62 * i)
            tip = block_hash(b.header)
        assert confirmed_max(view, tip, 10) == 5
        assert confirmed_max(view, tip, 20) == 0
        assert confirmed_max(view, view.ancestor_at(tip, 12), 10) == 2

    def test_find_bad_header_fails_pow(self):
        header = find_bad_header(b"\x00" * 32, 5, 0, TARGET, seed=1)
        assert not pow_check(header)


def observation(contract, view, name="agent", rate=Fraction(1, 500), t=100):
    return Observation(
        sim_time=t,
        eth_time=t // 14,
        me=name,
        my_doge_addr=doge_address(name),
        my_eth=contract.accounts.get(name),
        doge_balances={},
        chain=view,
        tip=view.best_tip(),
        bridge=contract,
        true_rate=rate,
    )


def fresh_world(n_blocks=45, txs_at=None):
    """A contract and a chain of n_blocks; txs_at maps an ordinal to that block's txs."""
    accounts = EthAccounts({"r": 50_000, "op": 2_000_000, "alice": 50_000, "m": 50_000})
    contract = genesis(ProtocolParams(relay_tax=0), CostModel(), accounts)
    view = ChainView.new(TARGET)
    tip = view.genesis_hash
    for i in range(1, n_blocks + 1):
        b = view.mine_block(tip, (txs_at or {}).get(i, []), time=62 * i, seed=400 + i)
        view.add_block(b, 62 * i)
        tip = block_hash(b.header)
    return contract, view


class TestHonestRelayer:
    def test_joins_then_submits_when_behind(self):
        contract, view = fresh_world()
        policy = make_policy("honest_relayer", "r", {}, agent_seed=1)
        obs = observation(contract, view, "r")
        actions, priv = policy.step(obs, {})
        assert [a.kind for a in actions] == ["become_relayer"]
        contract.become_relayer("r", actions[0].params["deposit"])
        actions, priv = policy.step(observation(contract, view, "r"), priv)
        assert [a.kind for a in actions] == ["submit_extension"]
        sub = actions[0].params["sub"]
        assert sub.range == 35  # tip 45 - c 10, maximal confirmed

    def test_never_submits_rejectable(self):
        # built submissions always verify against the builder's own view
        from pegsim.proofsys import prove_extension_for, verify_extension_proof

        contract, view = fresh_world()
        contract.become_relayer("r", 10_110)
        policy = make_policy("honest_relayer", "r", {}, agent_seed=1)
        actions, _ = policy.step(observation(contract, view, "r"), {})
        sub = actions[0].params["sub"]
        proof = prove_extension_for(view, view.best_tip(), 0, sub.range, contract.params.c)
        assert verify_extension_proof(None, sub, proof, contract.params).accepted

    def test_idles_when_matching_submission_pending(self):
        from pegsim.bridge import build_submission

        contract, view = fresh_world()
        contract.become_relayer("r", 10_110)
        contract.relayer_deposits["other"] = 10_110
        sub = build_submission(view, view.best_tip(), 0, 35, "other", 10)
        contract.submit_extension("other", sub, at_eth=10)
        policy = make_policy("honest_relayer", "r", {}, agent_seed=1)
        actions, _ = policy.step(observation(contract, view, "r"), {})
        assert actions == []

    def test_challenges_garbage_commitment(self):
        from pegsim.bridge import Submission

        contract, view = fresh_world()
        contract.become_relayer("r", 10_110)
        contract.relayer_deposits["evil"] = 10_110
        bogus = Submission(35, b"\x13" * 32, b"\x37" * 32, view.genesis.header, "evil")
        contract.submit_extension("evil", bogus, at_eth=10)
        policy = make_policy("honest_relayer", "r", {}, agent_seed=1)
        actions, _ = policy.step(observation(contract, view, "r"), {})
        assert [a.kind for a in actions] == ["challenge_commitment"]

    def test_waits_on_plausibly_fresh_range(self):
        from pegsim.bridge import Submission

        contract, view = fresh_world()
        contract.become_relayer("r", 10_110)
        contract.relayer_deposits["fast"] = 10_110
        # range cm+2 is within k + slack of my view: maybe they just see more
        ahead = Submission(37, b"\x13" * 32, b"\x37" * 32, view.genesis.header, "fast")
        contract.submit_extension("fast", ahead, at_eth=10)
        policy = make_policy("honest_relayer", "r", {}, agent_seed=1)
        actions, _ = policy.step(observation(contract, view, "r"), {})
        assert actions == []

    def test_challenges_impossible_range_after_patience(self):
        from pegsim.bridge import Submission

        contract, view = fresh_world()
        contract.become_relayer("r", 10_110)
        contract.relayer_deposits["evil"] = 10_110
        beyond = Submission(90, b"\x13" * 32, b"\x37" * 32, view.genesis.header, "evil")
        contract.submit_extension("evil", beyond, at_eth=10)
        policy = make_policy("honest_relayer", "r", {}, agent_seed=1)
        # within the patience window the range might just be fresher news
        actions, priv = policy.step(observation(contract, view, "r", t=200), {})
        assert actions == []
        # patience exhausted with the range still unverifiable: it cannot exist
        actions, _ = policy.step(observation(contract, view, "r", t=700), priv)
        assert [a.kind for a in actions] == ["challenge_commitment"]


def accept_extension(contract, view, prior, range_b, at_eth=10):
    """Relay (prior, range_b] of view's best chain through relayer "r" into the history."""
    if not contract.is_relayer("r"):
        contract.become_relayer("r", contract.required_relayer_deposit())
    sub = build_submission(view, view.best_tip(), prior, range_b, "r", contract.params.c)
    deadline = contract.submit_extension("r", sub, at_eth)
    contract.accept_on_timeout(deadline, now_s=deadline * 14)


HEAD = doge_address("op/head")


def locks_world(n_locks):
    """n_locks lock transactions to one open bridge's head, committed in history entry 0."""
    locks = [Transaction(doge_address(f"crosser{j}"), HEAD, 100, 0) for j in range(n_locks)]
    contract, view = fresh_world(txs_at={3: locks[:3], 5: locks[3:]})
    contract.open_bridge("op", 1_000_000, Y100, HEAD)
    accept_extension(contract, view, 0, 30)
    return contract, view, locks


class TestGreedyReporter:
    def test_reports_at_most_four_per_turn_and_the_rest_next_turn(self):
        contract, view, locks = locks_world(6)
        policy = make_policy("greedy_reporter", "bob", {}, agent_seed=1)
        first, priv = policy.step(observation(contract, view, "bob"), {})
        second, priv = policy.step(observation(contract, view, "bob"), priv)
        third, _ = policy.step(observation(contract, view, "bob"), priv)
        assert [a.kind for a in first] == ["report_lock"] * 4
        assert [a.kind for a in second] == ["report_lock"] * 2
        assert third == []
        reported = [a.params["report"].tx for a in first + second]
        assert reported == locks
        for a in first + second:
            report = a.params["report"]
            assert report == build_tx_report(view, view.best_tip(), contract.history, 0, report.tx)

    def test_skips_used_transactions(self):
        contract, view, locks = locks_world(2)
        contract.used_txs.add(locks[0].tx_id)
        policy = make_policy("greedy_reporter", "bob", {}, agent_seed=1)
        actions, _ = policy.step(observation(contract, view, "bob"), {})
        assert [a.params["report"].tx for a in actions] == [locks[1]]


class TestVigilantHodler:
    def test_theft_report_is_paid(self):
        lock = Transaction(doge_address("alice"), HEAD, 1000, 0, b"alice")
        theft = Transaction(HEAD, doge_address("op/getaway"), 1000, 0)
        contract, view = fresh_world(57, txs_at={3: [lock], 46: [theft]})
        contract.open_bridge("op", 1_000_000, Y100, HEAD)
        accept_extension(contract, view, 0, 30)
        tip = view.best_tip()
        assert contract.report_lock("bob", build_tx_report(view, tip, contract.history, 0, lock)) == "minted"
        accept_extension(contract, view, 30, 46, at_eth=300)

        policy = make_policy("vigilant_hodler", "alice", {"y": Y100, "burn_on_rate": False}, agent_seed=1)
        actions, _ = policy.step(observation(contract, view, "alice"), {})
        assert [a.kind for a in actions] == ["report_missing"]
        p = actions[0].params
        assert p["report"].tx == theft and p["report"].history_index == 1 and p["n"] == 1000
        assert contract.report_missing_doge("alice", p["report"], p["y"], p["n"]) == "paid"
        # the evidence is spent: nothing left to report, and the balance is gone
        assert policy.step(observation(contract, view, "alice"), {})[0] == []


class TestOrphanAttacker:
    def test_supplies_its_stored_proof_once_challenged(self):
        contract, view = fresh_world()
        accept_extension(contract, view, 0, 30)
        policy = make_policy("orphan_attacker", "m", {}, agent_seed=3)
        actions, priv = policy.step(observation(contract, view, "m"), {})
        assert [a.kind for a in actions] == ["become_relayer"]
        contract.become_relayer("m", actions[0].params["deposit"])

        actions, priv = policy.step(observation(contract, view, "m"), priv)
        assert [a.kind for a in actions] == ["submit_extension"]
        sub = actions[0].params["sub"]
        commitment, proof = priv["attack"]
        assert commitment == sub.commitment and sub.range == 35
        contract.submit_extension("m", sub, at_eth=200)
        # unchallenged, it neither supplies nor attacks again
        assert policy.step(observation(contract, view, "m"), priv)[0] == []

        thread = contract.challenge_commitment("r", at_eth=201, now_s=201 * 14)
        actions, priv = policy.step(observation(contract, view, "m"), priv)
        assert [a.kind for a in actions] == ["supply_proof"]
        assert actions[0].params == {"thread_id": thread.thread_id, "proof": proof}
        verdict = verify_extension_proof(thread.prior_tip_header, sub, proof, contract.params)
        assert not verdict.accepted  # the fabricated witness fails PoW

        contract.supply_proof("m", thread.thread_id, proof, now_s=202 * 14)
        assert policy.step(observation(contract, view, "m"), priv)[0] == []


def reorg(view, fork_at, to):
    """Make a heavier branch, forked off the best chain at ordinal fork_at, the best chain up to `to`."""
    tip = view.ancestor_at(view.best_tip(), fork_at)
    for i in range(fork_at + 1, to + 1):
        b = view.mine_block(tip, [], time=62 * i, seed=9000 + i)
        view.add_block(b, 62 * i + 1)
        tip = block_hash(b.header)
    assert view.best_tip() == tip


class TestSegmentMemo:
    """A segment matched once is judged again like one never seen before."""

    def test_replayed_commitment_over_another_range_is_challenged(self):
        from pegsim.bridge import Submission

        contract, view = fresh_world(n_blocks=75)
        accept_extension(contract, view, 0, 30)
        contract.become_relayer("alice", contract.required_relayer_deposit())
        policy = make_policy("honest_relayer", "alice", {}, agent_seed=1)
        actions, priv = policy.step(observation(contract, view, "alice"), {})
        assert [a.kind for a in actions] == ["submit_extension"]  # entry 0 matched
        contract.become_relayer("m", contract.required_relayer_deposit())
        replay = Submission(60, contract.history[0].commitment, b"\x37" * 32, view.genesis.header, "m")
        contract.submit_extension("m", replay, at_eth=10)
        actions, _ = policy.step(observation(contract, view, "alice"), priv)
        assert [a.kind for a in actions] == ["challenge_commitment"]

    def test_entry_orphaned_after_a_match_is_backtracked(self):
        contract, view = fresh_world()
        accept_extension(contract, view, 0, 30)
        contract.become_relayer("alice", contract.required_relayer_deposit())
        policy = make_policy("honest_relayer", "alice", {}, agent_seed=1)
        actions, priv = policy.step(observation(contract, view, "alice"), {})
        assert [a.kind for a in actions] == ["submit_extension"]
        reorg(view, 20, 80)
        actions, _ = policy.step(observation(contract, view, "alice"), priv)
        assert [(a.kind, a.params.get("from_index")) for a in actions] == [("backtrack", 0)]

    def test_active_submission_orphaned_after_a_match_is_challenged(self):
        contract, view = fresh_world()
        contract.become_relayer("alice", contract.required_relayer_deposit())
        contract.become_relayer("r", contract.required_relayer_deposit())
        contract.submit_extension("r", build_submission(view, view.best_tip(), 0, 35, "r", 10), at_eth=10)
        policy = make_policy("honest_relayer", "alice", {}, agent_seed=1)
        actions, priv = policy.step(observation(contract, view, "alice"), {})
        assert actions == []  # matches my chain
        reorg(view, 20, 80)
        actions, _ = policy.step(observation(contract, view, "alice", t=200), priv)
        assert [a.kind for a in actions] == ["challenge_commitment"]


class TestPolicyPurity:
    def test_step_is_replayable(self):
        contract1, view1 = fresh_world()
        contract2, view2 = fresh_world()
        p1 = make_policy("honest_relayer", "r", {}, agent_seed=9)
        p2 = make_policy("honest_relayer", "r", {}, agent_seed=9)
        priv1, priv2 = {}, {}
        for t in (100, 114, 128):
            a1, priv1 = p1.step(observation(contract1, view1, "r", t=t), priv1)
            a2, priv2 = p2.step(observation(contract2, view2, "r", t=t), priv2)
            assert [a.kind for a in a1] == [a.kind for a in a2]
            assert priv1 == priv2

    def test_step_does_not_mutate_input_priv(self):
        contract, view = fresh_world()
        policy = make_policy("honest_relayer", "r", {}, agent_seed=9)
        priv_in = {"cm_samples": {1: 2}}
        frozen = {"cm_samples": {1: 2}}
        policy.step(observation(contract, view, "r"), priv_in)
        assert priv_in == frozen

    def test_step_does_not_mutate_input_set_priv(self):
        contract, view, locks = locks_world(2)
        policy = make_policy("greedy_reporter", "bob", {}, agent_seed=9)
        priv_in = {"reported": {locks[0].tx_id}}
        actions, priv_out = policy.step(observation(contract, view, "bob"), priv_in)
        assert priv_in == {"reported": {locks[0].tx_id}}
        assert [a.params["report"].tx for a in actions] == [locks[1]]
        assert priv_out["reported"] == {locks[0].tx_id, locks[1].tx_id}


class TestMakePolicy:
    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            make_policy("nonexistent", "x", {}, 0)

    def test_all_registered_instantiable(self):
        from pegsim.agents import POLICIES

        for policy_id in POLICIES:
            params = {"y": Y100, "collateral": 1_000_000}
            assert make_policy(policy_id, "x", params, 0) is not None
