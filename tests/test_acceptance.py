"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -v tests/test_acceptance.py` (or `-s` to see the PASS
lines).  Scenario configs live under scenarios/; every criterion that
consumes them re-runs the simulator rather than trusting cached artifacts;
the corpus runs once per test session (`conftest.corpus_run`).
"""

import random
import statistics
import time
from fractions import Fraction
from pathlib import Path

import pytest

from pegsim.bridge import ProtocolParams, rate_mul
from pegsim.chainsim import EMPTY_TX_ROOT, doge_address, search_pow
from pegsim.harness import audit, load_config, replay_check, run
from pegsim.harness.runner import SimulationRunner
from pegsim.merkle import merkle_prove, merkle_root, merkle_verify
from pegsim.proofsys import CostModel, commitment_root, required_relayer_deposit, verification_cost

from conftest import corpus_run

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SCENARIOS = sorted(str(p) for p in SCENARIO_DIR.glob("*.json"))
DEPOSIT = 10_110  # required relayer deposit under the corpus cost model


def _ok(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


@pytest.fixture(scope="module")
def corpus():
    """The audit of every bundled scenario's run, which the session shares with the golden tests."""
    assert len(SCENARIOS) == 16, f"expected the 16-scenario corpus in {SCENARIO_DIR}"
    results = {}
    for path in SCENARIOS:
        config, (trace, _) = load_config(path), corpus_run(Path(path).stem)
        results[config.name] = (config, trace, audit(trace.events))
    return results


def history_matches_chain(runner) -> bool:
    tip = runner.view.best_tip()
    prior = 0
    for entry in runner.contract.history:
        try:
            blocks = tuple(runner.view.path_blocks(tip, prior + 1, entry.range))
        except Exception:
            return False
        if commitment_root(blocks) != entry.commitment:
            return False
        prior = entry.range
    return True


class TestCriterion01Lifecycle:
    def test_happy_path_exact_and_fast(self):
        started = time.monotonic()
        config = load_config(str(SCENARIO_DIR / "lifecycle_happy_path.json"))
        runner = SimulationRunner(config)
        trace = runner.run()
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"lifecycle took {elapsed:.2f}s"

        summary = trace.summary
        assert summary["supply"] == {"1/1000": 0}
        assert summary["eth_balances"]["op1"] == 1_100_000  # collateral fully refunded

        settled = [e for e in trace.events if e["kind"] == "burn_settled"]
        assert len(settled) == 1
        outcome = settled[0]["payload"]
        assert outcome["d_recv"] == outcome["w"] == 1000
        assert outcome["eth_received"] == 0

        assert runner.doge_balances.get(doge_address("alice"), 0) == 1000  # exactly the burn amount back
        assert audit(trace.events).ok
        _ok(1, f"supply 0, collateral refunded, 1000 DOGE returned in {elapsed:.2f}s")


class TestCriterion02Invariant1:
    def test_corpus_clean(self, corpus):
        assert len(corpus) >= 10
        byzantine = [name for name, (config, _, _) in corpus.items() if "byzantine" in config.tags]
        assert byzantine, "corpus must include Byzantine scenarios"
        for name, (_, _, report) in corpus.items():
            assert report.ok, f"{name}: {report.violations[:3]}"
        _ok(2, f"{len(corpus)} corpus scenarios clean ({len(byzantine)} Byzantine)")

    def test_fuzz_100_seeds(self):
        config = load_config(str(SCENARIO_DIR / "fuzz_random.json"))
        for seed in range(100):
            report = audit(run(config.with_seed(seed)).events)
            assert report.ok, f"seed {seed}: {report.violations[:3]}"
        _ok(2, "100 fuzz seeds with zero Invariant-1 violations")


class TestCriterion03Invariant2:
    def test_every_completed_burn(self, corpus):
        checked = 0
        for name, (_, trace, _) in corpus.items():
            for event in trace.events:
                if event["kind"] != "burn_settled":
                    continue
                checked += 1
                p = event["payload"]
                y = Fraction(p["y"])
                assert 0 <= p["d_recv"] <= p["w"], (name, p)
                assert Fraction(p["eth_received"], 1) == Fraction(p["w"] - p["d_recv"], 1) / y, (name, p)
        assert checked >= 3
        _ok(3, f"{checked} completed burns satisfy the exchange equality exactly")


class TestCriterion04Invariant3:
    def test_tagged_scenarios_quiescent_equality(self, corpus):
        checked = 0
        for name, (config, trace, report) in corpus.items():
            if "rational_rate_ge_y" not in config.tags:
                continue
            checked += 1
            summary = trace.summary
            assert summary["quiescent"], name
            for y, n in summary["supply"].items():
                assert summary["locked_on_best"].get(y, 0) == n, (name, y)
            assert report.ok
        assert checked >= 3
        _ok(4, f"{checked} rational scenarios end with locked DOGE == supply exactly")


class TestCriterion05OrphanRejection:
    def test_20_seeds(self):
        config = load_config(str(SCENARIO_DIR / "orphan_attack.json"))
        for seed in range(20):
            runner = SimulationRunner(config.with_seed(seed))
            trace = runner.run()
            rejects = [e for e in trace.events if e["kind"] == "proof_resolved"
                       and e["payload"]["verdict"] == "reject"
                       and e["payload"]["payer"] == "mallory"]
            assert len(rejects) == 1, f"seed {seed}"
            debit = rejects[0]["payload"]["cost"] + rejects[0]["payload"]["reward"]
            assert runner.contract.relayer_deposits["mallory"] == DEPOSIT - debit, f"seed {seed}"
            assert history_matches_chain(runner), f"seed {seed}: orphaned commitment accepted"
            assert audit(trace.events).ok, f"seed {seed}"
        _ok(5, "20/20 seeds: attacker debited cost+reward, zero orphaned commitments")


class TestCriterion06HighRange:
    def test_20_seeds(self):
        config = load_config(str(SCENARIO_DIR / "high_range_attack.json"))
        for seed in range(20):
            runner = SimulationRunner(config.with_seed(seed))
            trace = runner.run()
            timeouts = [e for e in trace.events if e["kind"] == "proof_resolved"
                        and e["payload"]["verdict"] == "timed_out"
                        and e["payload"]["payer"] == "mallory"]
            assert timeouts and timeouts[0]["payload"]["destroyed"] == DEPOSIT, f"seed {seed}"
            assert "mallory" not in runner.contract.relayer_deposits, f"seed {seed}"
            assert history_matches_chain(runner), f"seed {seed}"
        _ok(6, "20/20 seeds: high-range attacker challenged and deposit destroyed")


class TestCriterion07MaximalityGap:
    def test_100_seeds_no_honest_displacement(self):
        config = load_config(str(SCENARIO_DIR / "maximality_gap.json"))
        for seed in range(100):
            trace = run(config.with_seed(seed))
            kinds = [e["kind"] for e in trace.events]
            assert "challenge_range_replaced" not in kinds, f"seed {seed}: honest displaced"
            assert "challenge_commitment" not in kinds, f"seed {seed}: honest challenged"
            deposits = trace.summary["relayer_deposits"]
            assert all(v == DEPOSIT for v in deposits.values()), f"seed {seed}: {deposits}"
        _ok(7, "100/100 seeds: no honest submission displaced or penalized at k=2")


class TestCriterion08MissingDogeBackstop:
    def test_pays_n_over_y_and_closes(self, corpus):
        config, trace, report = corpus["missing_doge"]
        assert report.ok
        paid = [e for e in trace.events if e["kind"] == "missing_doge_paid"]
        assert len(paid) == 1
        p = paid[0]["payload"]
        y = Fraction(p["y"])
        assert Fraction(p["eth"], 1) == Fraction(p["burned"], 1) / y  # exactly n/y
        assert p["burned"] == 1000 and p["eth"] == 1_000_000
        closed = [e for e in trace.events if e["kind"] == "bridge_closed"
                  and e["payload"]["bridge_id"] == p["bridge_id"]]
        assert closed
        assert trace.summary["supply"] == {"1/1000": 0}
        _ok(8, "hodler paid exactly n/y ETH from collateral and the bridge closed")


class TestCriterion09BacktrackingRecovery:
    def test_recovery_and_no_double_mint(self):
        config = load_config(str(SCENARIO_DIR / "backtrack_recovery.json"))
        runner = SimulationRunner(config)
        trace = runner.run()
        backtracks = [e for e in trace.events if e["kind"] == "accept"
                      and e["payload"]["backtrack_from"] is not None]
        assert backtracks, "no backtrack acceptance happened"
        assert history_matches_chain(runner), "post-recovery history diverges from best chain"
        mints_per_tx = {}
        for e in trace.events:
            if e["kind"] == "mint":
                mints_per_tx[e["payload"]["tx_id"]] = mints_per_tx.get(e["payload"]["tx_id"], 0) + 1
        assert mints_per_tx and all(n == 1 for n in mints_per_tx.values()), mints_per_tx
        assert audit(trace.events).ok
        _ok(9, "bogus entry truncated, truthful history restored, no double mint")


class TestCriterion10Determinism:
    def test_replay_every_corpus_scenario(self, corpus):
        for name, (config, trace, _) in corpus.items():
            result = replay_check(config, trace)
            assert result, f"{name}: diverged at {result.first_divergence}"
            assert run(config).digest() == trace.digest(), name
        _ok(10, f"replay identical for all {len(corpus)} corpus scenarios")


class TestCriterion11MicroSuites:
    def test_merkle_roundtrip_and_mutation_10k(self):
        rng = random.Random(0xACCE97)
        roundtrips = 0
        mutations = 0
        forgeries = 0
        for _ in range(300):
            leaves = [rng.randbytes(rng.randint(1, 16)) for _ in range(rng.randint(1, 64))]
            root = merkle_root(leaves)
            idx = rng.randrange(len(leaves))
            proof = merkle_prove(leaves, idx)
            assert merkle_verify(root, leaves[idx], proof)
            roundtrips += 1
            for _ in range(35):
                mutated = bytearray(leaves[idx])
                bit = rng.randrange(len(mutated) * 8)
                mutated[bit // 8] ^= 1 << (bit % 8)
                mutations += 1
                if merkle_verify(root, bytes(mutated), proof):
                    forgeries += 1
        assert mutations >= 10_000
        assert forgeries == 0
        _ok(11, f"{roundtrips} roundtrips, {mutations} mutations, 0 forgeries")

    def test_mining_attempts_within_20_percent(self):
        target_bits = 250
        expected = 2 ** (256 - target_bits)
        attempts = [search_pow(b"\x31" * 32, EMPTY_TX_ROOT, 1, 0, 1 << target_bits, seed=s)[1]
                    for s in range(1000)]
        mean = statistics.fmean(attempts)
        assert expected * 0.8 <= mean <= expected * 1.2, mean
        _ok(11, f"mean mining attempts {mean:.1f} within 20% of {expected}")


class TestCriterion12FeeArithmetic:
    def test_hand_computed_values(self):
        params = ProtocolParams()
        model = CostModel()
        # registration void fee: 1% of a 10-ETH cross (1 ETH = 100_000 units)
        assert rate_mul(params.registration_void_fee_rate, 1_000_000) == 10_000
        # non-maximal-extension penalty: 10% of the standard deposit
        assert rate_mul(params.nonmax_penalty_rate, 10_110) == 1_011
        # challenge reward: 1% of the verification cost of a 30-block extension
        assert verification_cost(model, 30, params.c) == 140
        assert rate_mul(params.challenge_reward_rate, 140) == 1
        # deposit floor vs maximum-extension verification cost
        assert verification_cost(model, 0, params.c) == 110
        assert verification_cost(model, 10_000, params.c) == 10_110
        assert required_relayer_deposit(model, params) == 10_110
        assert required_relayer_deposit(model, ProtocolParams(max_extension_len=100)) == 5_000
        _ok(12, "void fee, penalty, reward, and deposit floor match hand computations")
