"""Agent policy tests: predicates, purity, and decision logic in isolation; the history
cursor also against a full walk of the history on every turn of whole runs."""

import dataclasses
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from pegsim.agents import (
    NEVER,
    ON_EXTENSION,
    POLICIES,
    WAKE,
    Action,
    GreedyReporter,
    Observation,
    Policy,
    RatePath,
    VigilantHodler,
    confirmed_max,
    find_bad_header,
    make_policy,
    should_abscond,
)
from pegsim.bridge import (
    BridgeContract,
    CostModel,
    EthAccounts,
    HistoryEntry,
    ProtocolParams,
    build_submission,
    build_tx_report,
)
from pegsim.chainsim import ChainView, Transaction, doge_address, pow_check
from pegsim.errors import BeforeStart, ConfigError, RangeUnavailable
from pegsim.harness import load_config, run
from pegsim.proofsys import commitment_root, verify_extension_proof
from pegsim.scheduler import ClockParams

from conftest import skipped_steps
from test_bridge import at_block, bogus_claim

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))

Y100 = Fraction(1, 1000)
TARGET = 1 << 250


class TestRatePath:
    def test_single_segment(self):
        path = RatePath(((0, Fraction(100)),))
        assert path.segment(0)[0] == 100
        assert path.segment(10**9)[0] == 100

    def test_step(self):
        path = RatePath(((0, Fraction(100)), (500, Fraction(40))))
        assert path.segment(499)[0] == 100
        assert path.segment(500)[0] == 40

    def test_before_start(self):
        path = RatePath(((10, Fraction(1)),))
        with pytest.raises(BeforeStart):
            path.segment(9)

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
            tip = b.header.hash
        assert confirmed_max(view, tip, 10) == 5
        assert confirmed_max(view, tip, 20) == 0
        assert confirmed_max(view, view.ancestor_at(tip, 12), 10) == 2

    def test_find_bad_header_fails_pow(self):
        header = find_bad_header(b"\x00" * 32, 5, 0, TARGET, seed=1)
        assert not pow_check(header)


def observation(contract, view, rate=Fraction(1, 500), t=None, delay=0):
    """What an agent sees of this world at the contract's clock, first moved to t when t is
    given (advance_to refuses to move it back, so a test steps only in times a run can reach)."""
    if t is not None:
        contract.advance_to(t)
    return Observation(
        doge_balances={},
        chain=view,
        tip=view.best_tip(),
        bridge=contract,
        true_rate=rate,
        visibility_delay_s=delay,
    )


def fresh_world(n_blocks=45, txs_at=None):
    """A contract and a chain of n_blocks; txs_at maps an ordinal to that block's txs."""
    accounts = EthAccounts({"r": 50_000, "op": 2_000_000, "alice": 50_000, "m": 50_000})
    view = ChainView.new(TARGET)
    contract = BridgeContract(ProtocolParams(relay_tax=0), CostModel(), accounts, ClockParams(), view.genesis.header)
    tip = view.genesis_hash
    for i in range(1, n_blocks + 1):
        b = view.mine_block(tip, (txs_at or {}).get(i, []), time=62 * i, seed=400 + i)
        view.add_block(b, 62 * i)
        tip = b.header.hash
    return contract, view


@pytest.mark.parametrize("policy_id", ["honest_relayer", "lazy_relayer", "orphan_attacker",
                                       "high_range_attacker", "false_challenger", "dos_challenger"])
def test_relayer_policy_onboards_before_deciding(policy_id, monkeypatch):
    contract, view = fresh_world()
    policy = make_policy(policy_id, "r", {POLICIES[policy_id].ONBOARD_AT: 500}, agent_seed=1)
    decided = []
    monkeypatch.setattr(policy, "decide", lambda obs, priv: decided.append(obs.bridge.now_s) or [])
    need = contract.required_relayer_deposit()

    assert policy.step(observation(contract, view, t=400), {})[0] == []
    funds = contract.accounts.get("r")
    contract.accounts.balances["r"] = need - 1
    assert policy.step(observation(contract, view, t=600), {})[0] == []
    contract.accounts.balances["r"] = funds
    joining, _ = policy.step(observation(contract, view), {})
    assert joining == [Action("become_relayer", {"deposit": need})]
    assert decided == []

    contract.become_relayer("r", need)
    policy.step(observation(contract, view, t=700), {})
    assert decided == [700]


@pytest.mark.parametrize("policy_id,params", [
    ("honest_relayer", {"online_at": 500}),
    ("rational_operator", {"y": Y100, "collateral": 1_000_000, "open_at": 500}),
    ("vigilant_hodler", {"y": Y100, "burn_at": 500}),
])
def test_a_time_threshold_is_the_wake_until_it_passes(policy_id, params):
    """Before its threshold a step names it as its wake; from then on the threshold names
    nothing, so an idle agent is not stepped every turn for a time already past."""
    contract, view = fresh_world()
    policy = make_policy(policy_id, "op", params, agent_seed=1)
    assert policy.step(observation(contract, view, t=499), {})[1][WAKE] == 500
    assert policy.step(observation(contract, view, t=500), {})[1][WAKE] == NEVER
    assert policy.step(observation(contract, view, t=900), {})[1][WAKE] == NEVER


class TestHonestRelayer:
    def test_joins_then_submits_when_behind(self):
        contract, view = fresh_world()
        policy = make_policy("honest_relayer", "r", {}, agent_seed=1)
        obs = observation(contract, view)
        actions, priv = policy.step(obs, {})
        assert [a.kind for a in actions] == ["become_relayer"]
        contract.become_relayer("r", actions[0].params["deposit"])
        actions, priv = policy.step(observation(contract, view), priv)
        assert [a.kind for a in actions] == ["submit_extension"]
        sub = actions[0].params["sub"]
        assert sub.range == 35  # tip 45 - c 10, maximal confirmed

    def test_never_submits_rejectable(self):
        # built submissions always verify against the builder's own view
        from pegsim.proofsys import prove_extension_for, verify_extension_proof

        contract, view = fresh_world()
        contract.become_relayer("r", 10_110)
        policy = make_policy("honest_relayer", "r", {}, agent_seed=1)
        actions, _ = policy.step(observation(contract, view), {})
        sub = actions[0].params["sub"]
        proof = prove_extension_for(view, view.best_tip(), 0, sub.range, contract.params.c)
        assert verify_extension_proof(view.genesis.header, sub, proof, contract.params) is None

    def test_idles_when_matching_submission_pending(self):
        from pegsim.bridge import build_submission

        contract, view = fresh_world()
        contract.become_relayer("r", 10_110)
        contract.relayer_deposits["other"] = 10_110
        sub = build_submission(view, view.best_tip(), 0, 35, 10)
        at_block(contract, 10)
        contract.submit_extension("other", sub)
        policy = make_policy("honest_relayer", "r", {}, agent_seed=1)
        actions, priv = policy.step(observation(contract, view), {})
        assert actions == [] and priv[ON_EXTENSION]
        # so it answers the same on a longer tip
        tip = view.best_tip()
        for i in range(46, 49):
            block = view.mine_block(tip, [], time=62 * i, seed=400 + i)
            view.add_block(block, 62 * i)
            tip = block.header.hash
        assert policy.step(observation(contract, view), priv) == ([], priv)

    def test_own_submission_holds_on_extension_unless_a_challenge_waits_for_my_proof(self):
        from pegsim.bridge import build_submission

        contract, view = fresh_world()
        contract.become_relayer("r", 10_110)
        contract.relayer_deposits["other"] = 10_110
        at_block(contract, 10)
        contract.submit_extension("r", build_submission(view, view.best_tip(), 0, 35, 10))
        policy = make_policy("honest_relayer", "r", {}, agent_seed=1)
        actions, priv = policy.step(observation(contract, view), {})
        assert actions == [] and priv[ON_EXTENSION]

        at_block(contract, 11)
        thread = contract.challenge_commitment("other")
        at_block(contract, 12)
        contract.submit_extension("other", build_submission(view, view.best_tip(), 0, 20, 10))
        # my tip shows the other claim matched but is too short to prove my challenged one
        short = dataclasses.replace(observation(contract, view), tip=view.ancestor_at(view.best_tip(), 40))
        actions, priv = policy.step(short, {})
        assert actions == [] and not priv[ON_EXTENSION]
        actions, _ = policy.step(observation(contract, view), priv)
        assert [(a.kind, a.params["thread_id"]) for a in actions] == [("supply_proof", thread.thread_id)]

    def test_challenges_garbage_commitment(self):
        contract, view = fresh_world()
        contract.become_relayer("r", 10_110)
        contract.relayer_deposits["evil"] = 10_110
        bogus = bogus_claim(35, b"\x13" * 32, b"\x37" * 32)
        at_block(contract, 10)
        contract.submit_extension("evil", bogus)
        policy = make_policy("honest_relayer", "r", {}, agent_seed=1)
        actions, _ = policy.step(observation(contract, view), {})
        assert [a.kind for a in actions] == ["challenge_commitment"]

    def test_waits_on_plausibly_fresh_range(self):
        contract, view = fresh_world()
        contract.become_relayer("r", 10_110)
        contract.relayer_deposits["fast"] = 10_110
        # range cm+2 is within k + slack of my view: maybe they just see more
        ahead = bogus_claim(37, b"\x13" * 32, b"\x37" * 32)
        at_block(contract, 10)
        contract.submit_extension("fast", ahead)
        policy = make_policy("honest_relayer", "r", {}, agent_seed=1)
        actions, priv = policy.step(observation(contract, view), {})
        assert actions == [] and priv[WAKE] == NEVER  # only a move of my tip changes my answer
        assert not priv[ON_EXTENSION]  # any longer tip may verify the range

    def test_challenges_impossible_range_after_patience(self):
        contract, view = fresh_world()
        contract.become_relayer("r", 10_110)
        contract.relayer_deposits["evil"] = 10_110
        beyond = bogus_claim(90, b"\x13" * 32, b"\x37" * 32)
        at_block(contract, 10)
        contract.submit_extension("evil", beyond)
        policy = make_policy("honest_relayer", "r", {}, agent_seed=1)
        # within the patience window the range might just be fresher news; it ends at the
        # first second of eth block 10 + RANGE_PATIENCE_ETH, which the step names as its wake
        actions, priv = policy.step(observation(contract, view, t=200), {})
        assert actions == [] and priv[WAKE] == 40 * 14
        assert policy.step(observation(contract, view, t=40 * 14 - 1), priv) == ([], priv)
        # patience exhausted with the range still unverifiable: it cannot exist
        actions, _ = policy.step(observation(contract, view, t=40 * 14), priv)
        assert [a.kind for a in actions] == ["challenge_commitment"]

    def test_range_patience_counts_from_when_the_claim_can_first_be_visible(self):
        """A claim's tip can reach my view no sooner than my visibility delay after its submission,
        so my patience with a far-ahead claim starts then."""
        contract, view = fresh_world()
        contract.become_relayer("r", 10_110)
        contract.relayer_deposits["evil"] = 10_110
        at_block(contract, 10)
        contract.submit_extension("evil", bogus_claim(90, b"\x13" * 32, b"\x37" * 32))
        policy = make_policy("honest_relayer", "r", {}, agent_seed=1)
        actions, priv = policy.step(observation(contract, view, t=40 * 14, delay=100), {})
        assert actions == [] and priv[WAKE] == 40 * 14 + 100
        actions, _ = policy.step(observation(contract, view, t=40 * 14 + 100, delay=100), priv)
        assert [a.kind for a in actions] == ["challenge_commitment"]

    @pytest.mark.parametrize("scenario, relayer, seed", [
        ("lifecycle_happy_path", "relay2", 1),
        ("maximality_gap", "relay3", 0),
        ("maximality_gap", "relay3", 1),
        ("maximality_gap", "relay3", 2),
    ])
    def test_a_delayed_relayer_never_challenges_an_honest_claim(self, scenario, relayer, seed):
        """Every relayer of these scenarios is honest, so every claim is: however far one relayer's view
        lags, from 0 to 1,100 s, no relayer files a challenge."""
        config = load_config(str(ROOT / "scenarios" / f"{scenario}.json")).with_seed(seed)
        assert {a.policy for a in config.agents if "relay" in a.policy} == {"honest_relayer"}
        for delay in range(0, 1101, 100):
            agents = tuple(dataclasses.replace(a, visibility_delay_s=delay) if a.name == relayer else a
                           for a in config.agents)
            trace = run(dataclasses.replace(config, agents=agents))
            challenges = [e["kind"] for e in trace.events if e["kind"].startswith("challenge_")]
            assert challenges == [], (delay, challenges)

    @pytest.mark.parametrize("submitted_at_eth, delay, kind", [
        (160, 0, "challenge_range"),  # block 36 was out at 2240 s: range 5 was 21 behind cm 26
        (10, 0, "challenge_commitment"),  # block 2 was out at 140 s: fresh then, stale only now
        (160, 744, "challenge_commitment"),  # 744 s late, at 2240 s I saw block 24: cm 14, fresh
    ])
    def test_range_challenges_only_a_claim_stale_when_submitted(self, submitted_at_eth, delay, kind):
        """A mismatched claim draws a range challenge iff its range was >= d behind my confirmed
        maximum at its submission, on the tip my view then had.  Block i arrives at 62 i s, so at
        3534 s = 2790 s + 744 s even the delayed view holds all 45 blocks: cm 35."""
        contract, view = fresh_world()
        contract.become_relayer("r", 10_110)
        contract.relayer_deposits["evil"] = 10_110
        at_block(contract, submitted_at_eth)
        contract.submit_extension("evil", bogus_claim(5, b"\x13" * 32, b"\x37" * 32))
        policy = make_policy("honest_relayer", "r", {}, agent_seed=1)
        actions, _ = policy.step(observation(contract, view, t=3534, delay=delay), {})
        assert [a.kind for a in actions] == [kind]
        if kind == "challenge_range":
            assert actions[0].params["alt"].range == 35  # maximal: tip 45 - c 10

    def test_challenges_a_matching_commitment_under_another_tip(self):
        contract, view = fresh_world()
        contract.become_relayer("r", 10_110)
        contract.relayer_deposits["evil"] = 10_110
        honest = build_submission(view, view.best_tip(), 0, 35, 10)
        at_block(contract, 10)
        contract.submit_extension("evil", dataclasses.replace(honest, tip_header=header_at(view, 34)))
        policy = make_policy("honest_relayer", "r", {}, agent_seed=1)
        actions, _ = policy.step(observation(contract, view), {})
        assert [a.kind for a in actions] == ["challenge_commitment"]

    def test_backtracks_an_entry_with_a_matching_commitment_under_another_tip(self):
        contract, view = fresh_world()
        contract.relayer_deposits["evil"] = 10_110
        honest = build_submission(view, view.best_tip(), 0, 30, 10)
        at_block(contract, 10)
        deadline = contract.submit_extension("evil", dataclasses.replace(honest, tip_header=header_at(view, 29)))
        at_block(contract, deadline)
        contract.accept_on_timeout()
        contract.become_relayer("r", 10_110)
        policy = make_policy("honest_relayer", "r", {}, agent_seed=1)
        actions, _ = policy.step(observation(contract, view), {})
        assert [(a.kind, a.params.get("from_index")) for a in actions] == [("backtrack", 0)]


def header_at(view, ordinal):
    """Header of the block at ordinal on view's best chain."""
    return view.path_blocks(view.best_tip(), ordinal, ordinal)[0].header


def accept_extension(contract, view, prior, range_b, at_eth=10):
    """Relay (prior, range_b] of view's best chain through relayer "r" into the history."""
    if not contract.is_relayer("r"):
        contract.become_relayer("r", contract.required_relayer_deposit())
    sub = build_submission(view, view.best_tip(), prior, range_b, contract.params.c)
    at_block(contract, at_eth)
    deadline = contract.submit_extension("r", sub)
    at_block(contract, deadline)
    contract.accept_on_timeout()


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
        first, priv = policy.step(observation(contract, view), {})
        second, priv = policy.step(observation(contract, view), priv)
        third, _ = policy.step(observation(contract, view), priv)
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
        actions, _ = policy.step(observation(contract, view), {})
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
        actions, _ = policy.step(observation(contract, view), {})
        assert [a.kind for a in actions] == ["report_missing"]
        p = actions[0].params
        assert p["report"].tx == theft and p["report"].history_index == 1 and p["n"] == 1000
        assert contract.report_missing_doge("alice", p["report"], p["y"], p["n"]) == "paid"
        # the evidence is spent: nothing left to report, and the balance is gone
        assert policy.step(observation(contract, view), {})[0] == []


class TestOrphanAttacker:
    def test_supplies_its_stored_proof_once_challenged(self):
        contract, view = fresh_world()
        accept_extension(contract, view, 0, 30)
        policy = make_policy("orphan_attacker", "m", {}, agent_seed=3)
        actions, priv = policy.step(observation(contract, view), {})
        assert [a.kind for a in actions] == ["become_relayer"]
        contract.become_relayer("m", actions[0].params["deposit"])

        actions, priv = policy.step(observation(contract, view), priv)
        assert [a.kind for a in actions] == ["submit_extension"]
        sub = actions[0].params["sub"]
        commitment, proof = priv["attack"]
        assert commitment == sub.commitment and sub.range == 35
        at_block(contract, 200)
        contract.submit_extension("m", sub)
        # unchallenged, it neither supplies nor attacks again
        assert policy.step(observation(contract, view), priv)[0] == []

        at_block(contract, 201)
        thread = contract.challenge_commitment("r")
        actions, priv = policy.step(observation(contract, view), priv)
        assert [a.kind for a in actions] == ["supply_proof"]
        assert actions[0].params == {"thread_id": thread.thread_id, "proof": proof}
        assert verify_extension_proof(thread.prior_tip_header, sub, proof, contract.params) == "BadPoW"

        at_block(contract, 202)
        contract.supply_proof("m", thread.thread_id, proof)
        assert policy.step(observation(contract, view), priv)[0] == []


def reorg(view, fork_at, to):
    """Make a heavier branch, forked off the best chain at ordinal fork_at, the best chain up to `to`."""
    tip = view.ancestor_at(view.best_tip(), fork_at)
    for i in range(fork_at + 1, to + 1):
        b = view.mine_block(tip, [], time=62 * i, seed=9000 + i)
        view.add_block(b, 62 * i + 1)
        tip = b.header.hash
    assert view.best_tip() == tip


class TestJudgedAgainAfterAMatch:
    """A claim my chain matched is judged afresh once the world around it moves: a replay of its
    commitment over another range is challenged, and an entry or active claim that a reorg orphans
    after the match is backtracked or challenged."""

    def test_replayed_commitment_over_another_range_is_challenged(self):
        contract, view = fresh_world(n_blocks=75)
        accept_extension(contract, view, 0, 30)
        contract.become_relayer("alice", contract.required_relayer_deposit())
        policy = make_policy("honest_relayer", "alice", {}, agent_seed=1)
        actions, priv = policy.step(observation(contract, view), {})
        assert [a.kind for a in actions] == ["submit_extension"]  # entry 0 matched
        contract.become_relayer("m", contract.required_relayer_deposit())
        replay = bogus_claim(60, contract.history[0].commitment, b"\x37" * 32)
        contract.submit_extension("m", replay)
        actions, _ = policy.step(observation(contract, view), priv)
        assert [a.kind for a in actions] == ["challenge_commitment"]

    def test_entry_orphaned_after_a_match_is_backtracked(self):
        contract, view = fresh_world()
        accept_extension(contract, view, 0, 30)
        contract.become_relayer("alice", contract.required_relayer_deposit())
        policy = make_policy("honest_relayer", "alice", {}, agent_seed=1)
        actions, priv = policy.step(observation(contract, view), {})
        assert [a.kind for a in actions] == ["submit_extension"]
        reorg(view, 20, 80)
        actions, _ = policy.step(observation(contract, view), priv)
        assert [(a.kind, a.params.get("from_index")) for a in actions] == [("backtrack", 0)]

    def test_active_submission_orphaned_after_a_match_is_challenged(self):
        contract, view = fresh_world()
        contract.become_relayer("alice", contract.required_relayer_deposit())
        contract.become_relayer("r", contract.required_relayer_deposit())
        at_block(contract, 10)
        contract.submit_extension("r", build_submission(view, view.best_tip(), 0, 35, 10))
        policy = make_policy("honest_relayer", "alice", {}, agent_seed=1)
        actions, priv = policy.step(observation(contract, view), {})
        assert actions == []  # matches my chain
        reorg(view, 20, 80)
        actions, _ = policy.step(observation(contract, view, t=200), priv)
        assert [a.kind for a in actions] == ["challenge_commitment"]


def reference_match(obs, i, cache):
    """Blocks of history entry i if they are on my tip's path, hash to its commitment and end
    in its tip header, else None; cache holds earlier answers for the same tip and entry."""
    entry = obs.bridge.history[i]
    prior, range_b = obs.bridge.base(i).ordinal, entry.range
    key = (obs.tip, prior, range_b, entry.commitment, entry.tip_header.hash)
    if key not in cache:
        try:
            blocks = tuple(obs.chain.path_blocks(obs.tip, prior + 1, range_b))
        except RangeUnavailable:
            blocks = None
        cache[key] = blocks if blocks is not None and commitment_root(blocks) == entry.commitment \
            and blocks[-1].header.hash == entry.tip_header.hash else None
    return cache[key]


def full_walk_committed_txs(obs, cache):
    """committed_txs as a walk over every history entry on every call."""
    used = obs.bridge.used_txs
    out = []
    for i in range(len(obs.bridge.history)):
        blocks = reference_match(obs, i, cache)
        if blocks is not None:
            out.extend((i, blocks, tx) for b in blocks for tx in b.txs if tx.tx_id not in used)
    return out


def full_walk_first_bogus(obs, cm, cache):
    """first_bogus_index as a walk over every history entry on every call."""
    for i, entry in enumerate(obs.bridge.history):
        if entry.range <= cm and reference_match(obs, i, cache) is None:
            return i
    return None


def cursor_answers(policy, obs, cm):
    return [tx for _, _, tx in policy.committed_txs(obs)], policy.first_bogus_index(obs, cm)


class TestHistoryCursor:
    """The cursor answers what a full walk of the history would after each way the
    history or my chain can change under it."""

    def assert_full_walk(self, policy, obs):
        cache = {}
        for cm in range(obs.chain.blocks[obs.tip].header.ordinal + 1):
            assert policy.first_bogus_index(obs, cm) == full_walk_first_bogus(obs, cm, cache)
        assert list(policy.committed_txs(obs)) == full_walk_committed_txs(obs, cache)

    def test_backtrack_below_the_cursor(self):
        lock = Transaction(doge_address("alice"), HEAD, 100, 0)
        contract, view = fresh_world(n_blocks=75, txs_at={35: [lock]})
        accept_extension(contract, view, 0, 30)
        contract.relayer_deposits["m"] = contract.required_relayer_deposit()
        bogus = bogus_claim(40, b"\x13" * 32, b"\x37" * 32)
        deadline = contract.submit_extension("m", bogus)
        at_block(contract, deadline)
        contract.accept_on_timeout()
        policy = make_policy("greedy_reporter", "bob", {}, agent_seed=1)
        assert cursor_answers(policy, observation(contract, view), 60) == ([], 1)

        sub = build_submission(view, view.best_tip(), 30, 40, contract.params.c)
        at_block(contract, deadline + 1)
        deadline = contract.backtrack("r", 1, sub)
        at_block(contract, deadline)
        contract.accept_on_timeout()
        obs = observation(contract, view)
        assert cursor_answers(policy, obs, 60) == ([lock], None)
        self.assert_full_walk(policy, obs)

    def test_deep_finalize(self):
        locks = [Transaction(doge_address(f"crosser{j}"), HEAD, 100, 0) for j in range(2)]
        contract, view = fresh_world(n_blocks=75, txs_at={3: locks[:1], 33: locks[1:]})
        accept_extension(contract, view, 0, 30)
        policy = make_policy("greedy_reporter", "bob", {}, agent_seed=1)
        assert cursor_answers(policy, observation(contract, view), 60) == (locks[:1], None)

        sub = build_submission(view, view.best_tip(), 0, 35, contract.params.c)
        contract.propose_deep_backtrack("m", 0, sub)
        contract.advance_to(contract.now_s + contract.params.deep_backtrack_delay_1_s)
        contract.finalize_deep_backtrack()
        obs = observation(contract, view)
        assert cursor_answers(policy, obs, 60) == (locks, None)
        assert [blocks[-1].header.ordinal for _, blocks, _ in policy.committed_txs(obs)] == [35, 35]
        self.assert_full_walk(policy, obs)

    def test_reorg(self):
        lock = Transaction(doge_address("alice"), HEAD, 100, 0)
        contract, view = fresh_world(txs_at={3: [lock]})
        accept_extension(contract, view, 0, 30)
        policy = make_policy("greedy_reporter", "bob", {}, agent_seed=1)
        assert cursor_answers(policy, observation(contract, view), 40) == ([lock], None)

        reorg(view, 2, 80)  # the lock's block is orphaned
        obs = observation(contract, view)
        assert cursor_answers(policy, obs, 40) == ([], 0)
        self.assert_full_walk(policy, obs)

    def test_tip_behind_the_one_the_cursor_was_filled_on(self):
        locks = [Transaction(doge_address(f"crosser{j}"), HEAD, 100, 0) for j in range(2)]
        contract, view = fresh_world(n_blocks=75, txs_at={3: locks[:1], 50: locks[1:]})
        accept_extension(contract, view, 0, 30)
        accept_extension(contract, view, 30, 55, at_eth=300)
        policy = make_policy("greedy_reporter", "bob", {}, agent_seed=1)
        assert cursor_answers(policy, observation(contract, view), 60) == (locks, None)

        behind = dataclasses.replace(observation(contract, view), tip=view.ancestor_at(view.best_tip(), 50))
        assert cursor_answers(policy, behind, 50) == (locks[:1], None)  # entry 1's range is past my tip again
        self.assert_full_walk(policy, behind)

    def test_entry_past_the_tip_becomes_judgeable(self):
        locks = [Transaction(doge_address(f"crosser{j}"), HEAD, 100, 0) for j in range(2)]
        contract, view = fresh_world(n_blocks=75, txs_at={3: locks[:1], 50: locks[1:]})
        accept_extension(contract, view, 0, 30)
        accept_extension(contract, view, 30, 55, at_eth=300)
        policy = make_policy("greedy_reporter", "bob", {}, agent_seed=1)
        behind = dataclasses.replace(observation(contract, view), tip=view.ancestor_at(view.best_tip(), 50))
        assert cursor_answers(policy, behind, 50) == (locks[:1], None)

        obs = observation(contract, view)  # my tip now reaches entry 1's range
        assert cursor_answers(policy, obs, 60) == (locks, None)
        self.assert_full_walk(policy, obs)

    def test_equals_full_walk_on_every_turn(self, monkeypatch):
        """On every turn of every corpus scenario at seed offsets 0 to 3 and of fuzz_random at x2, for
        each agent that steps and each reporter or hodler the runner lets sleep: the run's trace is
        unchanged by asking, and the answers equal a full walk of the history."""
        step = Policy.step
        seen, cache = Counter(), {}  # cache: reference answers within one run

        def check(policy, obs):
            cm = confirmed_max(obs.chain, obs.tip, obs.bridge.params.c)
            want = full_walk_committed_txs(obs, cache), full_walk_first_bogus(obs, cm, cache)
            assert (list(policy.committed_txs(obs)), policy.first_bogus_index(obs, cm)) == want, \
                f"{policy.name} at {obs.bridge.now_s}"
            seen["turns"] += 1
            seen["with txs"] += bool(want[0])
            seen["with bogus"] += want[1] is not None

        def checking_step(self, obs, priv):
            check(self, obs)
            return step(self, obs, priv)

        def check_asleep(runner, agent, obs):  # the steps a reporter or hodler sleeps through on its cursor
            if isinstance(agent.policy, (GreedyReporter, VigilantHodler)):
                check(agent.policy, obs)

        fuzz = load_config(str(ROOT / "scenarios" / "fuzz_random.json"))
        corpus = [load_config(str(p)) for p in SCENARIOS]
        configs = [dataclasses.replace(config, seed=config.seed + offset) for offset in range(4) for config in corpus]
        configs.append(dataclasses.replace(fuzz, end_time=2 * fuzz.end_time))
        digests = [run(config).digest() for config in configs]
        monkeypatch.setattr(Policy, "step", checking_step)
        with skipped_steps(check_asleep):
            for config, digest in zip(configs, digests):
                cache.clear()
                assert run(config).digest() == digest, config.name
        assert seen["with txs"] > 0 and seen["with bogus"] > 0 and seen["turns"] > 10_000, seen

    def test_each_entry_judged_once_per_chain(self, monkeypatch):
        """Per policy on a fuzz_random run: matched calls on history entries <= the history entries
        that appeared + for each turn whose tip does not extend the previous turn's, the entries
        then in the history (which that turn may have to judge again)."""
        step, matched = Policy.step, Policy.matched
        calls, bound, last_tip, entries = Counter(), Counter(), {}, {}

        def counting_step(self, obs, priv):
            seen = entries.setdefault(self.name, {})
            for entry in obs.bridge.history:
                seen.setdefault(id(entry), entry)  # holds the entry, so its id is never reused
            prev = last_tip.get(self.name)
            if prev is not None:
                try:
                    extends = obs.chain.ancestor_at(obs.tip, obs.chain.blocks[prev].header.ordinal) == prev
                except RangeUnavailable:
                    extends = False
                bound[self.name] += 0 if extends else len(obs.bridge.history)
            last_tip[self.name] = obs.tip
            return step(self, obs, priv)

        def counting_matched(self, obs, claim, prior):
            calls[self.name] += isinstance(claim, HistoryEntry)  # a relayer also matches the active claim
            return matched(self, obs, claim, prior)

        monkeypatch.setattr(Policy, "step", counting_step)
        monkeypatch.setattr(Policy, "matched", counting_matched)
        run(load_config(str(ROOT / "scenarios" / "fuzz_random.json")))
        for name, seen in entries.items():
            bound[name] += len(seen)
        assert calls and all(calls[name] <= bound[name] for name in calls), (calls, bound)


class TestSegmentRoots:
    """A view memoizes the commitment root of each of its segments, keyed by the segment's last block
    and the ordinal before its first, for the run's whole life; every root it serves equals a fresh
    commitment_root (see test_harness.TestKeptFacts)."""

    def test_branches_with_the_same_prior_get_separate_entries(self):
        contract, view = fresh_world(n_blocks=60)
        main = view.best_tip()
        reorg(view, 20, 70)
        fork = view.best_tip()
        policy = make_policy("honest_relayer", "r", {}, agent_seed=1)
        subs = {tip: build_submission(view, tip, 20, 40, 10) for tip in (main, fork)}
        assert subs[main].commitment != subs[fork].commitment
        obs = {tip: dataclasses.replace(observation(contract, view), tip=tip) for tip in (main, fork)}
        for tip, other in ((main, fork), (fork, main)):
            # the other branch's commitment under my tip header, judged first: the memo keeps my root
            spliced = dataclasses.replace(subs[other], tip_header=subs[tip].tip_header)
            assert policy.matched(obs[tip], spliced, 20) is None
            assert policy.matched(obs[tip], subs[tip], 20) is not None
        keys = [(subs[tip].tip_header.hash, 20) for tip in (main, fork)]
        assert keys[0] != keys[1] and set(keys) <= view.segment_roots.keys()
        assert [view.segment_roots[key] for key in keys] == [subs[main].commitment, subs[fork].commitment]
        for tip, other in ((main, fork), (fork, main)):
            assert policy.matched(obs[tip], subs[other], 20) is None

    def test_a_claim_a_relayer_built_is_judged_without_hashing_again(self, monkeypatch):
        import pegsim.agents as agents

        contract, view = fresh_world()
        for who in ("r", "alice"):
            contract.become_relayer(who, contract.required_relayer_deposit())
        builder, judge = (make_policy("honest_relayer", who, {}, agent_seed=1) for who in ("r", "alice"))
        [action], _ = builder.step(observation(contract, view, t=140), {})
        assert action.kind == "submit_extension"
        contract.submit_extension("r", action.params["sub"])
        hashed = []
        monkeypatch.setattr(agents, "commitment_root", lambda blocks: hashed.append(blocks) or b"")
        assert judge.step(observation(contract, view), {})[0] == []  # the claim matches my chain
        assert hashed == []

    def test_a_new_runner_starts_with_an_empty_memo(self):
        from pegsim.harness import SimulationRunner

        config = load_config(str(ROOT / "scenarios" / "lifecycle_happy_path.json"))
        runner = SimulationRunner(config)
        runner.run()
        assert runner.view.segment_roots
        assert SimulationRunner(config).view.segment_roots == {}


class TestPolicyPurity:
    def test_step_is_replayable(self):
        contract1, view1 = fresh_world()
        contract2, view2 = fresh_world()
        for contract in (contract1, contract2):
            contract.become_relayer("r", contract.required_relayer_deposit())
        p1 = make_policy("honest_relayer", "r", {}, agent_seed=9)
        p2 = make_policy("honest_relayer", "r", {}, agent_seed=9)
        priv1, priv2 = {}, {}
        for t in (100, 114, 128):
            a1, priv1 = p1.step(observation(contract1, view1, t=t), priv1)
            a2, priv2 = p2.step(observation(contract2, view2, t=t), priv2)
            assert [a.kind for a in a1] == ["submit_extension"]
            assert a1 == a2
            assert priv1 == priv2

    def test_step_does_not_mutate_input_priv(self):
        contract, view = fresh_world()
        contract.become_relayer("r", contract.required_relayer_deposit())
        contract.relayer_deposits["other"] = 10_110
        at_block(contract, 10)
        contract.submit_extension("other", build_submission(view, view.best_tip(), 0, 35, 10))
        policy = make_policy("dos_challenger", "r", {}, agent_seed=9)
        priv_in = {"rounds": 2}
        actions, priv_out = policy.step(observation(contract, view), priv_in)
        assert priv_in == {"rounds": 2}
        assert [a.kind for a in actions] == ["challenge_range"]
        assert priv_out["rounds"] == 1

    def test_step_does_not_mutate_input_set_priv(self):
        contract, view, locks = locks_world(2)
        policy = make_policy("greedy_reporter", "bob", {}, agent_seed=9)
        priv_in = {"reported": {locks[0].tx_id}}
        actions, priv_out = policy.step(observation(contract, view), priv_in)
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
