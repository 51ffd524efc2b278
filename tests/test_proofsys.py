"""Extension proof system tests: prove/verify roundtrips, mutations, cost model."""

import dataclasses

import pytest

from pegsim.bridge import ProtocolParams, Submission, build_submission
from pegsim.chainsim import (
    EMPTY_TX_ROOT,
    Block,
    BlockHeader,
    ChainView,
    Transaction,
    doge_address,
    search_pow,
)
from pegsim.proofsys import (
    CostModel,
    ExtensionProof,
    InsufficientChain,
    commitment_root,
    extension_leaves,
    oracle_verify,
    prove_extension_for,
    required_relayer_deposit,
    verification_cost,
    verify_extension_proof,
    witness_root,
)

TARGET = 1 << 250
ALL_PASS = (1 << 256) - 1  # every digest but one beats it: one nonce attempt per header
PARAMS = ProtocolParams()


def build_chain(n, txs_at=None, seed_base=900):
    view = ChainView.new(TARGET)
    tip = view.genesis_hash
    for i in range(1, n + 1):
        txs = (txs_at or {}).get(i, [])
        block = view.mine_block(tip, txs, time=62 * i, seed=seed_base + i)
        assert view.add_block(block, 62 * i) is None
        tip = block.header.hash
    return view, tip


def forged_extension(parent, n, c, target=None, pow_fn=None):
    """(claim, proof) of a PoW chain of n empty headers and c witness headers on parent, at target and
    pow_fn (the parent's when None); the claim's roots and tip are the proof's own."""
    headers = []
    for i in range(n + c):
        parent, _ = search_pow(parent.hash, EMPTY_TX_ROOT, parent.ordinal + 1, 62 * (parent.ordinal + 1),
                               target or parent.difficulty_target, pow_fn or parent.pow_fn, seed=i)
        headers.append(parent)
    revealed, witness = tuple(headers[:n]), tuple(headers[n:])
    sub = Submission(commitment_root([Block(h, ()) for h in revealed]), witness_root(witness), revealed[-1])
    return sub, ExtensionProof(revealed, witness, ((),) * n)


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

    @pytest.mark.parametrize("tip, prior, range_b, match", [
        (b"\x77" * 32, 0, 30, "unknown tip"),
        (None, 30, 30, "range 30 not past prior date 30"),
    ], ids=["unknown-tip", "empty-range"])
    def test_an_unknown_tip_or_an_empty_range_is_refused(self, tip, prior, range_b, match):
        view, own_tip = build_chain(45)
        with pytest.raises(InsufficientChain, match=match):
            prove_extension_for(view, tip or own_tip, prior, range_b, c=10)

    def test_fork_proofs_differ_beyond_fork_point(self):
        view, tip = build_chain(40)
        fork_base = view.ancestor_at(tip, 25)
        ftip = fork_base
        for i in range(26, 42):
            b = view.mine_block(ftip, [], time=62 * i + 1, seed=7000 + i)
            view.add_block(b, 62 * i + 1)
            ftip = b.header.hash
        main = prove_extension_for(view, tip, 0, 30, c=10)
        fork = prove_extension_for(view, ftip, 0, 30, c=10)
        assert main.revealed_headers[:25] == fork.revealed_headers[:25]
        assert main.revealed_headers[25:] != fork.revealed_headers[25:]


class TestVerify:
    def roundtrip(self, prior_date=0, range_b=30):
        view, tip = build_chain(45, txs_at={3: [Transaction(doge_address("a"), doge_address("b"), 7, 0)]})
        sub = build_submission(view, tip, prior_date, range_b, PARAMS.c)
        proof = prove_extension_for(view, tip, prior_date, range_b, PARAMS.c)
        prior_tip = view.blocks[view.ancestor_at(tip, prior_date)].header
        return view, tip, sub, proof, prior_tip

    def test_honest_accept(self):
        _, _, sub, proof, prior = self.roundtrip()
        assert verify_extension_proof(prior, sub, proof, PARAMS) is None

    def test_honest_accept_nonzero_prior(self):
        _, _, sub, proof, prior = self.roundtrip(prior_date=10, range_b=30)
        assert verify_extension_proof(prior, sub, proof, PARAMS) is None

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
        # the link break surfaces first, at 6
        assert verify_extension_proof(prior, sub, mutated, PARAMS) in ("BadPoW", "BadLink")

    def test_short_witness_rejected(self):
        _, _, sub, proof, prior = self.roundtrip()
        short = ExtensionProof(proof.revealed_headers, proof.witness_headers[:-1], proof.txs_per_block)
        assert verify_extension_proof(prior, sub, short, PARAMS) == "ShortWitness"

    def test_wrong_length_rejected(self):
        _, _, sub, proof, prior = self.roundtrip()
        trimmed = ExtensionProof(proof.revealed_headers[:-1], proof.witness_headers,
                                 proof.txs_per_block[:-1])
        assert verify_extension_proof(prior, sub, trimmed, PARAMS) == "BadLength"

    def test_long_witness_rejected(self):
        _, _, sub, proof, prior = self.roundtrip()
        long = ExtensionProof(proof.revealed_headers, proof.witness_headers + proof.witness_headers[-1:],
                              proof.txs_per_block)
        assert verify_extension_proof(prior, sub, long, PARAMS) == "LongWitness"

    def test_empty_extension_rejected(self):
        _, _, sub, proof, _ = self.roundtrip()
        prior = sub.tip_header  # a claim whose range is the prior date reveals no header
        empty = ExtensionProof((), proof.witness_headers, ())
        assert verify_extension_proof(prior, sub, empty, PARAMS) == "BadLength"

    def test_witness_skipping_an_ordinal_rejected(self):
        _, _, sub, proof, prior = self.roundtrip()
        last = proof.revealed_headers[-1]
        # a valid header on the last revealed one, one ordinal too high
        skip, _ = search_pow(last.hash, last.tx_root, last.ordinal + 2, last.timestamp + 62, last.difficulty_target)
        bad = ExtensionProof(proof.revealed_headers, (skip,) + proof.witness_headers[1:], proof.txs_per_block)
        assert verify_extension_proof(prior, sub, bad, PARAMS) == "BadOrdinal"

    def test_not_extending_history(self):
        view, tip, sub, proof, _ = self.roundtrip(prior_date=0, range_b=30)
        stranger = ChainView.new(TARGET).genesis.header
        wrong_prior = view.blocks[view.ancestor_at(tip, 1)].header
        # claim prior date 1 by passing block-1 header from a different branch shape
        sub1 = build_submission(view, tip, 1, 30, PARAMS.c)
        proof1 = prove_extension_for(view, tip, 1, 30, PARAMS.c)
        assert verify_extension_proof(wrong_prior, sub1, proof1, PARAMS) is None
        mismatched = ExtensionProof(proof1.revealed_headers, proof1.witness_headers, proof1.txs_per_block)
        res = verify_extension_proof(
            BlockHeader(stranger.parent, stranger.tx_root, 1, 0, 12, TARGET),
            sub1, mismatched, PARAMS,
        )
        assert res == "BadLink"

    def test_witness_off_the_last_revealed_header_is_a_bad_link(self):
        view, tip, sub, proof, prior = self.roundtrip()
        # a valid block at ordinal 31 mined on a sibling of block 30, not on block 30
        sibling = view.mine_block(view.ancestor_at(tip, 29), [], time=62 * 30 + 1, seed=1)
        assert view.add_block(sibling, 62 * 30 + 1) is None
        stray = view.mine_block(sibling.header.hash, [], time=62 * 31 + 1, seed=2).header
        assert stray.ordinal == 31 and stray.parent != proof.revealed_headers[-1].hash
        forked = ExtensionProof(proof.revealed_headers, (stray,) + proof.witness_headers[1:], proof.txs_per_block)
        assert verify_extension_proof(prior, sub, forked, PARAMS) == "BadLink"

    def test_headers_at_an_all_pass_target_are_refused(self):
        """Headers linked to the prior tip that each beat a target every digest but one beats: at the
        prior's own target they would be work, at this one they are none."""
        *_, prior = self.roundtrip(prior_date=10)
        sub, proof = forged_extension(prior, 20, PARAMS.c, target=ALL_PASS)
        assert verify_extension_proof(prior, sub, proof, PARAMS) == "BadTarget"

    def test_a_first_extension_off_genesis_is_a_bad_link(self):
        """With an empty history the prior tip is genesis, and a chain from another block does not extend it."""
        genesis = ChainView.new(TARGET).genesis.header
        stranger = BlockHeader(b"\x13" * 32, EMPTY_TX_ROOT, 0, 0, 0, TARGET)  # in no chain
        sub, proof = forged_extension(stranger, 30, PARAMS.c)
        assert verify_extension_proof(stranger, sub, proof, PARAMS) is None  # a sound chain on its own block
        assert verify_extension_proof(genesis, sub, proof, PARAMS) == "BadLink"

    def test_a_header_with_another_pow_function_is_refused(self):
        """A chain on the prior tip at its target but under another PoW function: each header passes
        its own function's check, yet the chain does not keep the prior's."""
        *_, prior = self.roundtrip(prior_date=10)
        params = dataclasses.replace(PARAMS, c=2)
        sub, proof = forged_extension(prior, 2, params.c, pow_fn="scrypt")
        assert verify_extension_proof(prior, sub, proof, params) == "BadTarget"

    def test_commitment_mismatch(self):
        _, _, sub, proof, prior = self.roundtrip()
        forged = Submission(b"\x01" * 32, sub.confirmation_witness, sub.tip_header)
        assert verify_extension_proof(prior, forged, proof, PARAMS) == "CommitmentMismatch"

    def test_witness_mismatch(self):
        _, _, sub, proof, prior = self.roundtrip()
        forged = Submission(sub.commitment, b"\x02" * 32, sub.tip_header)
        assert verify_extension_proof(prior, forged, proof, PARAMS) == "WitnessMismatch"

    def test_tx_substitution_rejected(self):
        # swapping a block's tx list breaks either the tx_root or the commitment
        _, _, sub, proof, prior = self.roundtrip()
        fake_tx = Transaction(doge_address("x"), doge_address("y"), 999, 9)
        swapped = ExtensionProof(
            proof.revealed_headers,
            proof.witness_headers,
            ((fake_tx,),) + proof.txs_per_block[1:],
        )
        assert verify_extension_proof(prior, sub, swapped, PARAMS) == "BadTxRoot"

    def test_tip_binding(self):
        view, tip, sub, proof, prior = self.roundtrip()
        # a sibling of the last revealed header: same ordinal, so the length check passes
        sibling = view.mine_block(view.ancestor_at(tip, sub.range - 1), [], time=1, seed=77).header
        wrong_tip = Submission(sub.commitment, sub.confirmation_witness, sibling)
        assert verify_extension_proof(prior, wrong_tip, proof, PARAMS) == "TipMismatch"


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

    @pytest.mark.parametrize("make, match", [
        (lambda: CostModel(base_cost=-1), "cost model values must be non-negative"),
        (lambda: verification_cost(CostModel(), -1, 10), "num_blocks must be >= 0"),
        (lambda: ExtensionProof((BlockHeader(b"\0" * 32, EMPTY_TX_ROOT, 1, 62, 0, TARGET),), (), ()),
         "one tx list per revealed header required"),
    ], ids=["negative-cost", "negative-blocks", "tx-list-short"])
    def test_a_negative_cost_or_a_missing_tx_list_is_a_value_error(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()


class TestOracle:
    def test_latency_counts_witness(self):
        view, tip = build_chain(45)
        sub = build_submission(view, tip, 0, 30, PARAMS.c)
        proof = prove_extension_for(view, tip, 0, 30, PARAMS.c)
        latency = CostModel(latency_per_block_s=2)
        assert oracle_verify(view.genesis.header, sub, proof, PARAMS, latency) == (None, 80)  # (30 + 10) * 2

    def test_oracle_matches_direct_verification(self):
        view, tip = build_chain(45)
        sub = build_submission(view, tip, 0, 30, PARAMS.c)
        proof = prove_extension_for(view, tip, 0, 30, PARAMS.c)
        genesis = view.genesis.header
        direct = verify_extension_proof(genesis, sub, proof, PARAMS)
        assert oracle_verify(genesis, sub, proof, PARAMS, CostModel())[0] == direct

        forged = Submission(b"\x0f" * 32, sub.confirmation_witness, sub.tip_header)
        assert oracle_verify(genesis, forged, proof, PARAMS, CostModel())[0] == \
            verify_extension_proof(genesis, forged, proof, PARAMS) == "CommitmentMismatch"
