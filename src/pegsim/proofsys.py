"""Pluggable extension-proof system with an abstract cost/latency model.

The prover reveals the committed headers plus per-block transaction lists,
and the verifier recomputes both Merkle roots and checks the chain from the
contract's latest block (genesis for an empty history) by the chain view's
own rule, chainsim.link_fault.  The verification oracle is sound and
complete; succinct-proof economics appear only through CostModel, which
also drives relayer deposit sizing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .chainsim import Block, BlockHeader, ChainView, Transaction, link_fault, tx_list_root
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


def verify_extension_proof(
    prior_tip_header: BlockHeader,
    sub: "Submission",
    proof: ExtensionProof,
    params: "ProtocolParams",
) -> Optional[str]:
    """Why the proof does not evidence a well-formed, confirmed extension, or None when it does.

    Checks: revealed length matches the claimed range, the witness is exactly
    c headers, the contract's latest block (genesis with an empty history),
    the revealed headers and the witness form one chain by link_fault, each
    block's tx list matches its header's tx_root, both recomputed Merkle
    roots equal the submission's, and the last revealed header is the
    submission's claimed tip.
    """
    prior_date = prior_tip_header.ordinal
    revealed = proof.revealed_headers
    witness = proof.witness_headers

    if len(revealed) != sub.range - prior_date:
        return "BadLength"
    if len(witness) != params.c:
        return "ShortWitness" if len(witness) < params.c else "LongWitness"
    if not revealed:
        return "BadLength"

    chain = (prior_tip_header, *revealed, *witness)
    for parent, header in zip(chain, chain[1:]):
        fault = link_fault(parent, header)
        if fault is not None:
            return fault

    for header, txs in zip(revealed, proof.txs_per_block):
        if header.tx_root != tx_list_root(txs):
            return "BadTxRoot"

    blocks = tuple(Block(h, txs) for h, txs in zip(revealed, proof.txs_per_block))
    if commitment_root(blocks) != sub.commitment:
        return "CommitmentMismatch"
    if witness_root(witness) != sub.confirmation_witness:
        return "WitnessMismatch"
    if revealed[-1].hash != sub.tip_header.hash:
        return "TipMismatch"
    return None


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


def oracle_verify(
    prior_tip_header: BlockHeader,
    sub: "Submission",
    proof: ExtensionProof,
    params: "ProtocolParams",
    model: CostModel,
) -> Tuple[Optional[str], int]:
    """The always-correct oracle the contract asks on each supplied proof: (direct verification's fault, delay_s)."""
    return verify_extension_proof(prior_tip_header, sub, proof, params), model.latency_per_block_s * proof.length
