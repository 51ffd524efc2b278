"""Pluggable extension-proof system with an abstract cost/latency model.

The prover reveals the committed headers plus per-block transaction lists,
and the verifier recomputes both Merkle roots and checks the PoW chain.  The
verification oracle is sound and complete; succinct-proof economics appear
only through CostModel, which also drives relayer deposit sizing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .chainsim import Block, BlockHeader, ChainView, Transaction, block_hash, pow_check, tx_list_root
from .errors import SimError
from .merkle import merkle_root

if TYPE_CHECKING:  # structural only; avoids a runtime cycle with bridge
    from .bridge import ProtocolParams, Submission


class InsufficientChain(SimError):
    pass


# ---------------------------------------------------------------------------
# commitment layout
# ---------------------------------------------------------------------------
#
# The commitment tree's leaves are, per block in ascending ordinal order, the
# canonical header encoding followed by each transaction's canonical encoding.
# A transaction report can then point a single Merkle proof at its tx leaf.
# The confirmation witness root covers header encodings only.


def extension_leaves(blocks: Sequence[Block]) -> List[bytes]:
    leaves: List[bytes] = []
    for block in blocks:
        leaves.append(block.header.encode())
        for tx in block.txs:
            leaves.append(tx.encode())
    return leaves


def commitment_root(blocks: Sequence[Block]) -> bytes:
    return merkle_root(extension_leaves(blocks))


def witness_root(headers: Sequence[BlockHeader]) -> bytes:
    return merkle_root([h.encode() for h in headers])


# ---------------------------------------------------------------------------
# proofs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtensionProof:
    """Everything needed to recompute a submission's two roots and check PoW."""

    revealed_headers: Tuple[BlockHeader, ...]
    witness_headers: Tuple[BlockHeader, ...]
    txs_per_block: Tuple[Tuple[Transaction, ...], ...]  # commitment openings

    def __post_init__(self):
        if len(self.txs_per_block) != len(self.revealed_headers):
            raise ValueError("one tx list per revealed header required")

    @property
    def length(self) -> int:
        return len(self.revealed_headers) + len(self.witness_headers)


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reason: Optional[str] = None

    @classmethod
    def reject(cls, reason: str) -> "Verdict":
        return cls(False, reason)


ACCEPT = Verdict(True)


def prove_extension_for(view: ChainView, tip: bytes, prior_date: int, range_b: int, c: int) -> ExtensionProof:
    """Reveal the blocks (prior_date, range_b] on tip's path plus the c above them.

    Raises InsufficientChain when tip is unknown, the range is empty, or the
    path does not reach range_b + c.
    """
    if tip not in view.blocks:
        raise InsufficientChain("unknown tip")
    tip_ord = view.blocks[tip].header.ordinal
    if tip_ord < range_b + c:
        raise InsufficientChain(f"chain height {tip_ord} below range+c = {range_b + c}")
    if range_b <= prior_date:
        raise InsufficientChain(f"range {range_b} not past prior date {prior_date}")
    revealed = view.path_blocks(tip, prior_date + 1, range_b)
    witness = view.path_blocks(tip, range_b + 1, range_b + c)
    return ExtensionProof(
        revealed_headers=tuple(b.header for b in revealed),
        witness_headers=tuple(b.header for b in witness),
        txs_per_block=tuple(b.txs for b in revealed),
    )


def _chain_ok(headers: Sequence[BlockHeader], prev_hash: Optional[bytes], prev_ordinal: Optional[int]) -> Optional[str]:
    for h in headers:
        if not pow_check(h):
            return "BadPoW"
        if prev_hash is not None and h.parent != prev_hash:
            return "BadLink"
        if prev_ordinal is not None and h.ordinal != prev_ordinal + 1:
            return "BadOrdinal"
        prev_hash = block_hash(h)
        prev_ordinal = h.ordinal
    return None


def verify_extension_proof(
    prior_tip_header: Optional[BlockHeader],
    sub: "Submission",
    proof: ExtensionProof,
    params: "ProtocolParams",
) -> Verdict:
    """Accept iff the proof evidences a well-formed, confirmed extension.

    Checks: revealed length matches the claimed range, every revealed and
    witness header is a valid PoW chain with consecutive ordinals, the first
    revealed header extends the contract's latest block (skipped when the
    history is empty), the witness is exactly c headers extending the last
    committed one, each block's tx list matches its header's tx_root, both
    recomputed Merkle roots equal the submission's, and the last revealed
    header is the submission's claimed tip.
    """
    prior_date = prior_tip_header.ordinal if prior_tip_header is not None else 0
    revealed = proof.revealed_headers
    witness = proof.witness_headers

    if len(revealed) != sub.range - prior_date:
        return Verdict.reject("BadLength")
    if len(witness) != params.c:
        return Verdict.reject("ShortWitness" if len(witness) < params.c else "LongWitness")
    if not revealed:
        return Verdict.reject("BadLength")

    err = _chain_ok(revealed, None, prior_date)
    if err:
        return Verdict.reject(err)

    if prior_tip_header is not None and revealed[0].parent != block_hash(prior_tip_header):
        return Verdict.reject("NotExtendingHistory")

    if witness[0].parent != block_hash(revealed[-1]):
        return Verdict.reject("WitnessNotExtending")
    err = _chain_ok(witness, block_hash(revealed[-1]), revealed[-1].ordinal)
    if err:
        return Verdict.reject(err)

    for header, txs in zip(revealed, proof.txs_per_block):
        if header.tx_root != tx_list_root(txs):
            return Verdict.reject("BadTxRoot")

    blocks = tuple(Block(h, txs) for h, txs in zip(revealed, proof.txs_per_block))
    if commitment_root(blocks) != sub.commitment:
        return Verdict.reject("CommitmentMismatch")
    if witness_root(witness) != sub.confirmation_witness:
        return Verdict.reject("WitnessMismatch")
    if block_hash(revealed[-1]) != block_hash(sub.tip_header):
        return Verdict.reject("TipMismatch")
    return ACCEPT


# ---------------------------------------------------------------------------
# cost model and the verification oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostModel:
    """Abstract verification economics, in ETH units and simulated seconds."""

    base_cost: int = 100
    per_block_cost: int = 1
    latency_per_block_s: int = 2

    def __post_init__(self):
        if min(self.base_cost, self.per_block_cost, self.latency_per_block_s) < 0:
            raise ValueError("cost model values must be non-negative")


def verification_cost(model: CostModel, num_blocks: int, c: int) -> int:
    """Cost of verifying a num_blocks extension plus its c-block witness."""
    if num_blocks < 0:
        raise ValueError("num_blocks must be >= 0")
    return model.base_cost + model.per_block_cost * (num_blocks + c)


def required_relayer_deposit(model: CostModel, params: "ProtocolParams") -> int:
    """max(deposit floor, cost to verify a maximum-length extension)."""
    return max(params.deposit_floor, verification_cost(model, params.max_extension_len, params.c))


@dataclass(frozen=True)
class OracleJob:
    """A scheduled oracle verdict: fires delay_s after submission of the proof."""

    verdict: Verdict
    delay_s: int


def oracle_verify(
    prior_tip_header: Optional[BlockHeader],
    sub: "Submission",
    proof: ExtensionProof,
    params: "ProtocolParams",
    model: CostModel,
) -> OracleJob:
    """Always-correct oracle: verdict equals direct verification, after latency."""
    verdict = verify_extension_proof(prior_tip_header, sub, proof, params)
    return OracleJob(verdict=verdict, delay_s=model.latency_per_block_s * proof.length)
