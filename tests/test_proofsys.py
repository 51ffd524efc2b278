"""Extension proof system tests: prove/verify roundtrips, mutations, cost model."""

import pytest

from pegsim.bridge import ProtocolParams, Submission, build_submission
from pegsim.chainsim import BlockHeader, ChainView, Transaction, block_hash, doge_address
from pegsim.proofsys import (
    CostModel,
    ExtensionProof,
    InsufficientChain,
    extension_leaves,
    oracle_verify,
    prove_extension_for,
    required_relayer_deposit,
    verification_cost,
    verify_extension_proof,
)

TARGET = 1 << 250
PARAMS = ProtocolParams()


def build_chain(n, txs_at=None, seed_base=900):
    view = ChainView.new(TARGET)
    tip = view.genesis_hash
    for i in range(1, n + 1):
        txs = (txs_at or {}).get(i, [])
        block = view.mine_block(tip, txs, time=62 * i, seed=seed_base + i)
        assert view.add_block(block, 62 * i).accepted
        tip = block_hash(block.header)
    return view, tip


class TestProveExtension:
    def test_happy_path_lengths(self):
        view, tip = build_chain(40)
        proof = prove_extension_for(view, tip, 0, 30, c=10)
        assert len(proof.revealed_headers) == 30
        assert len(proof.witness_headers) == 10

    def test_insufficient_chain(self):
        view, tip = build_chain(35)
        with pytest.raises(InsufficientChain):
            prove_extension_for(view, tip, 0, 30, c=10)  # needs height 40

    def test_fork_proofs_differ_beyond_fork_point(self):
        view, tip = build_chain(40)
        fork_base = view.ancestor_at(tip, 25)
        ftip = fork_base
        for i in range(26, 42):
            b = view.mine_block(ftip, [], time=62 * i + 1, seed=7000 + i)
            view.add_block(b, 62 * i + 1)
            ftip = block_hash(b.header)
        main = prove_extension_for(view, tip, 0, 30, c=10)
        fork = prove_extension_for(view, ftip, 0, 30, c=10)
        assert main.revealed_headers[:25] == fork.revealed_headers[:25]
        assert main.revealed_headers[25:] != fork.revealed_headers[25:]


class TestVerify:
    def roundtrip(self, prior_date=0, range_b=30):
        view, tip = build_chain(45, txs_at={3: [Transaction(doge_address("a"), doge_address("b"), 7, 0)]})
        sub = build_submission(view, tip, prior_date, range_b, "r", PARAMS.c)
        proof = prove_extension_for(view, tip, prior_date, range_b, PARAMS.c)
        prior_tip = None if prior_date == 0 else view.blocks[view.ancestor_at(tip, prior_date)].header
        return view, tip, sub, proof, prior_tip

    def test_honest_accept(self):
        _, _, sub, proof, prior = self.roundtrip()
        assert verify_extension_proof(prior, sub, proof, PARAMS).accepted

    def test_honest_accept_nonzero_prior(self):
        _, _, sub, proof, prior = self.roundtrip(prior_date=10, range_b=30)
        assert verify_extension_proof(prior, sub, proof, PARAMS).accepted

    def test_mutated_nonce_rejected_bad_pow(self):
        _, _, sub, proof, prior = self.roundtrip()
        h = proof.revealed_headers[5]
        bad = BlockHeader(h.parent, h.tx_root, h.ordinal, h.timestamp, h.nonce + 1,
                          h.difficulty_target, h.pow_fn)
        from pegsim.chainsim import pow_check
        while pow_check(bad):
            bad = BlockHeader(bad.parent, bad.tx_root, bad.ordinal, bad.timestamp,
                              bad.nonce + 1, bad.difficulty_target, bad.pow_fn)
        mutated = ExtensionProof(
            proof.revealed_headers[:5] + (bad,) + proof.revealed_headers[6:],
            proof.witness_headers,
            proof.txs_per_block,
        )
        verdict = verify_extension_proof(prior, sub, mutated, PARAMS)
        assert not verdict.accepted
        assert verdict.reason in ("BadPoW", "BadLink")  # link break surfaces first at 6

    def test_short_witness_rejected(self):
        _, _, sub, proof, prior = self.roundtrip()
        short = ExtensionProof(proof.revealed_headers, proof.witness_headers[:-1], proof.txs_per_block)
        assert verify_extension_proof(prior, sub, short, PARAMS).reason == "ShortWitness"

    def test_wrong_length_rejected(self):
        _, _, sub, proof, prior = self.roundtrip()
        trimmed = ExtensionProof(proof.revealed_headers[:-1], proof.witness_headers,
                                 proof.txs_per_block[:-1])
        assert verify_extension_proof(prior, sub, trimmed, PARAMS).reason == "BadLength"

    def test_not_extending_history(self):
        view, tip, sub, proof, _ = self.roundtrip(prior_date=0, range_b=30)
        stranger = ChainView.new(TARGET).genesis.header
        wrong_prior = view.blocks[view.ancestor_at(tip, 1)].header
        # claim prior date 1 by passing block-1 header from a different branch shape
        sub1 = build_submission(view, tip, 1, 30, "r", PARAMS.c)
        proof1 = prove_extension_for(view, tip, 1, 30, PARAMS.c)
        assert verify_extension_proof(wrong_prior, sub1, proof1, PARAMS).accepted
        mismatched = ExtensionProof(proof1.revealed_headers, proof1.witness_headers, proof1.txs_per_block)
        res = verify_extension_proof(
            BlockHeader(stranger.parent, stranger.tx_root, 1, 0, 12, TARGET),
            sub1, mismatched, PARAMS,
        )
        assert res.reason in ("NotExtendingHistory", "BadPoW", "BadOrdinal")

    def test_commitment_mismatch(self):
        _, _, sub, proof, prior = self.roundtrip()
        forged = Submission(sub.range, b"\x01" * 32, sub.confirmation_witness, sub.tip_header, sub.relayer)
        assert verify_extension_proof(prior, forged, proof, PARAMS).reason == "CommitmentMismatch"

    def test_witness_mismatch(self):
        _, _, sub, proof, prior = self.roundtrip()
        forged = Submission(sub.range, sub.commitment, b"\x02" * 32, sub.tip_header, sub.relayer)
        assert verify_extension_proof(prior, forged, proof, PARAMS).reason == "WitnessMismatch"

    def test_tx_substitution_rejected(self):
        # swapping a block's tx list breaks either the tx_root or the commitment
        _, _, sub, proof, prior = self.roundtrip()
        fake_tx = Transaction(doge_address("x"), doge_address("y"), 999, 9)
        swapped = ExtensionProof(
            proof.revealed_headers,
            proof.witness_headers,
            ((fake_tx,),) + proof.txs_per_block[1:],
        )
        assert verify_extension_proof(prior, sub, swapped, PARAMS).reason == "BadTxRoot"

    def test_tip_binding(self):
        _, _, sub, proof, prior = self.roundtrip()
        wrong_tip = Submission(sub.range, sub.commitment, sub.confirmation_witness,
                               proof.revealed_headers[0], sub.relayer)
        assert verify_extension_proof(prior, wrong_tip, proof, PARAMS).reason == "TipMismatch"


class TestLeafLayout:
    def test_each_block_header_precedes_its_txs(self):
        txa = Transaction(doge_address("a"), doge_address("b"), 1, 0)
        txb = Transaction(doge_address("a"), doge_address("b"), 2, 1)
        view, tip = build_chain(3, txs_at={1: [txa], 2: [txb]})
        blocks = view.path_blocks(tip, 1, 3)
        leaves = extension_leaves(blocks)
        assert leaves == [blocks[0].header.encode(), txa.encode(),
                          blocks[1].header.encode(), txb.encode(), blocks[2].header.encode()]
        assert leaves.index(txa.encode()) == 1
        assert leaves.index(txb.encode()) == 3


class TestCostModel:
    def test_formula_values(self):
        model = CostModel(base_cost=100, per_block_cost=1)
        assert verification_cost(model, 0, 10) == 110
        assert verification_cost(model, 10_000, 10) == 10_110

    def test_monotone(self):
        model = CostModel()
        costs = [verification_cost(model, n, 10) for n in range(200)]
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_required_deposit_uses_floor(self):
        small = ProtocolParams(max_extension_len=100, deposit_floor=5_000)
        # cost(100) = 100 + 110 = 210 < 5000 floor
        assert required_relayer_deposit(CostModel(), small) == 5_000
        assert required_relayer_deposit(CostModel(), ProtocolParams()) == 10_110


class TestOracle:
    def test_latency_counts_witness(self):
        view, tip = build_chain(45)
        sub = build_submission(view, tip, 0, 30, "r", PARAMS.c)
        proof = prove_extension_for(view, tip, 0, 30, PARAMS.c)
        job = oracle_verify(None, sub, proof, PARAMS, CostModel(latency_per_block_s=2))
        assert job.delay_s == 80  # (30 + 10) * 2
        assert job.verdict.accepted

    def test_oracle_matches_direct_verification(self):
        view, tip = build_chain(45)
        sub = build_submission(view, tip, 0, 30, "r", PARAMS.c)
        proof = prove_extension_for(view, tip, 0, 30, PARAMS.c)
        direct = verify_extension_proof(None, sub, proof, PARAMS)
        job = oracle_verify(None, sub, proof, PARAMS, CostModel())
        assert job.verdict == direct

        forged = Submission(sub.range, b"\x0f" * 32, sub.confirmation_witness, sub.tip_header, "r")
        assert oracle_verify(None, forged, proof, PARAMS, CostModel()).verdict == \
            verify_extension_proof(None, forged, proof, PARAMS)
