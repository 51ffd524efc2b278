"""pegsim: a deterministic simulator for a collateralized two-way peg.

A simulated PoW coin chain, an event-driven clock, the full Bridge Contract
state machine (relay with challenge games, minting, burning/unlocking,
missing-coin backstop, backtracking), a reveal-and-check extension-proof
system with an abstract cost model, pluggable agent policies, and a scenario
harness with an invariant auditor.
"""

from . import agents, bridge, chainsim, errors, harness, merkle, proofsys, scheduler
from .bridge import BridgeContract, EthAccounts, ProtocolParams, Submission
from .chainsim import Block, BlockHeader, ChainView, Transaction
from .merkle import MerkleProof, merkle_prove, merkle_root, merkle_verify
from .proofsys import CostModel, ExtensionProof, verification_cost, verify_extension_proof
from .scheduler import ClockParams, EventQueue, ethereum_time

__version__ = "0.1.0"

__all__ = [
    "agents",
    "bridge",
    "chainsim",
    "errors",
    "harness",
    "merkle",
    "proofsys",
    "scheduler",
    "BridgeContract",
    "EthAccounts",
    "ProtocolParams",
    "Submission",
    "Block",
    "BlockHeader",
    "ChainView",
    "Transaction",
    "MerkleProof",
    "merkle_prove",
    "merkle_root",
    "merkle_verify",
    "CostModel",
    "ExtensionProof",
    "verification_cost",
    "verify_extension_proof",
    "ClockParams",
    "EventQueue",
    "ethereum_time",
]
