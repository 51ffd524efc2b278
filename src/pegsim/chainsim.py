"""Simulated PoW coin chain: transactions, mining, fork tracking, fork choice.

Difficulty is constant for a whole simulation; cumulative work is still
tracked and fork choice compares work, with ties broken by earliest arrival
then lexicographically smallest hash.

Canonical byte encodings (all integers big-endian, addresses length-prefixed)
are the cross-language contract for every hash in the system; the exact
layouts are documented in the README.  An integer outside its field's range
is refused (EncodingError), never reduced.  A header's PoW digest and a
transaction's id are computed once, when the value is built.  The nonce search
encodes a header's fields once and changes only the nonce bytes between
attempts, wrapping from 2^64 - 1 to 0; for sha256d it hashes the fixed 80-byte
prefix once and resumes from that midstate per nonce; any other PoW function
is evaluated on POW_WIDTH threads that draw nonces in order, the only work off
the caller's thread; the nonce found does not depend on their scheduling.
The winning header is built from the digest found.
"""

from __future__ import annotations

import hashlib
import os
import threading
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from itertools import chain, count
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import EncodingError, UnknownParent, RangeUnavailable
from .merkle import merkle_root, sha256

ZERO_HASH = b"\x00" * 32
EMPTY_TX_ROOT = sha256(b"\x02")  # designated root for an empty tx list
MAX_U64 = 2**64
NEVER = float("inf")  # a time later than every simulated second


def _u64(n: int) -> bytes:
    if not 0 <= n < MAX_U64:
        raise EncodingError(f"{n} is outside the u64 range [0, 2^64)")
    return n.to_bytes(8, "big")


def _u256(n: int) -> bytes:
    if not 0 <= n < 1 << 256:
        raise EncodingError(f"{n} is outside the u256 range [0, 2^256)")
    return n.to_bytes(32, "big")


def _lp(data: bytes) -> bytes:
    """Length-prefixed bytes (1-byte length, max 255)."""
    if len(data) > 255:
        raise EncodingError(f"length-prefixed field of {len(data)} bytes exceeds 255")
    return bytes([len(data)]) + data


def doge_address(name: str) -> bytes:
    """Derive a stable opaque 20-byte address from a label."""
    return sha256(b"doge/" + name.encode())[:20]


# ---------------------------------------------------------------------------
# transactions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transaction:
    """Account-style DOGE transfer; memo optionally names an ETH-side recipient."""

    sender: bytes
    receiver: bytes
    amount: int
    nonce: int
    memo: bytes = b""
    tx_id: bytes = field(init=False, repr=False, compare=False)  # sha256 of the encoding

    def __post_init__(self) -> None:
        object.__setattr__(self, "tx_id", sha256(self.encode()))

    def encode(self) -> bytes:
        return _lp(self.sender) + _lp(self.receiver) + _u64(self.amount) + _u64(self.nonce) + _lp(self.memo)


def tx_list_root(txs: Sequence[Transaction]) -> bytes:
    if not txs:
        return EMPTY_TX_ROOT
    return merkle_root([tx.encode() for tx in txs])


# ---------------------------------------------------------------------------
# headers, blocks, proof of work
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockHeader:
    parent: bytes
    tx_root: bytes
    ordinal: int
    timestamp: int
    nonce: int
    difficulty_target: int
    pow_fn: str = "sha256d"
    hash: bytes = field(init=False, repr=False, compare=False)  # PoW digest: the block's identity

    def __post_init__(self) -> None:
        object.__setattr__(self, "hash", pow_digest(self.pow_fn, self.encode()))

    def encode(self) -> bytes:
        return (
            self.parent
            + self.tx_root
            + _u64(self.ordinal)
            + _u64(self.timestamp)
            + _u64(self.nonce)
            + _u256(self.difficulty_target)
        )


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    txs: Tuple[Transaction, ...]


def _pow_sha256d(data: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def _pow_scrypt(data: bytes) -> bytes:
    # reduced-parameter variant only; real memory-hard parameters are out of scope
    return hashlib.scrypt(data, salt=b"pegsim/pow", n=1024, r=1, p=1, dklen=32)


POW_FNS = {
    "sha256d": _pow_sha256d,
    "scrypt": _pow_scrypt,
}


def pow_digest(pow_fn: str, data: bytes) -> bytes:
    """A header's PoW digest, over its encoding; a header stores it as `hash`."""
    return POW_FNS[pow_fn](data)


# CPUs this process may run on, at most 4: the threads a block's scan evaluates nonces on
POW_WIDTH = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
_pow_helpers = None  # POW_WIDTH - 1 threads, started by the first search that needs them


def _pow_scan(evaluate, prefix: bytes, suffix: bytes, start: int) -> Tuple[int, bytes]:
    """(nonce, digest) at the first position from `start` whose digest beats `suffix`, or what evaluating it raised.

    POW_WIDTH threads, this one and the helpers, draw positions i in order from one counter and evaluate nonce
    (start + i) % MAX_U64.  The first position that passes or raises decides; a thread stops on drawing a position
    past it, so every position below it is evaluated, however the threads are scheduled.  The helpers are joined
    before this returns or raises.
    """
    global _pow_helpers
    positions, deciding, first, found, stopped = count(), threading.Lock(), MAX_U64, None, False

    def scan():
        nonlocal first, found, stopped
        try:
            for i in positions:
                if stopped or i > first:
                    return
                nonce = (start + i) % MAX_U64
                try:
                    digest = evaluate(prefix + nonce.to_bytes(8, "big") + suffix)
                    decides = digest < suffix
                except Exception as error:
                    digest, decides = error, True
                if decides:
                    with deciding:
                        if i < first:
                            first, found = i, (nonce, digest)
        except BaseException:  # an interrupt or exit: every thread stops, and the caller re-raises it
            stopped = True
            raise

    if _pow_helpers is None and POW_WIDTH > 1:
        from concurrent.futures import ThreadPoolExecutor
        _pow_helpers = ThreadPoolExecutor(POW_WIDTH - 1, thread_name_prefix="pegsim-pow")
    helpers = [_pow_helpers.submit(scan) for _ in range(POW_WIDTH - 1)]
    try:
        scan()
    finally:
        for helper in helpers:
            helper.exception()  # waits for it without raising
    for helper in helpers:
        helper.result()  # re-raises an interrupt that stopped a helper
    if isinstance(found[1], Exception):
        raise found[1]
    return found


_HEADER_FIELDS = tuple(f.name for f in fields(BlockHeader))  # `hash` last


def _found_header(*values) -> BlockHeader:
    """A header built from its fields and the PoW digest a search already computed."""
    header = object.__new__(BlockHeader)
    for name, value in zip(_HEADER_FIELDS, values, strict=True):
        object.__setattr__(header, name, value)
    return header


def pow_check(header: BlockHeader) -> bool:
    """True iff the PoW digest, read as a 256-bit big-endian integer, beats the target."""
    if header.difficulty_target <= 0:
        return False
    return int.from_bytes(header.hash, "big") < header.difficulty_target


def work_for_target(target: int) -> int:
    """Expected attempts per block at this target; constant at constant difficulty."""
    if target <= 0:
        return 0
    return (1 << 256) // (target + 1)


def search_pow(
    parent: bytes,
    tx_root: bytes,
    ordinal: int,
    timestamp: int,
    target: int,
    pow_fn: str = "sha256d",
    seed: int = 0,
) -> Tuple[BlockHeader, int]:
    """Deterministic nonce search from a seeded start; returns (header, attempts).

    Nonces count up from the start, wrapping from 2^64 - 1 to 0; the first digest
    below the target wins, and an error raised by the PoW function on an earlier
    nonce is raised instead.  sha256d resumes each attempt from the midstate of
    the fixed 80-byte prefix; other PoW functions go through _pow_scan.
    """
    # seed is not an encoded field: callers pass agent_seed + offset, which may reach 2^64
    start = int.from_bytes(sha256(b"nonce/" + _u64(seed % MAX_U64) + parent + tx_root + _u64(ordinal))[:8], "big")
    prefix = parent + tx_root + _u64(ordinal) + _u64(timestamp)
    suffix = _u256(target)
    if target < 1:
        raise ValueError("no digest beats a target below 1")
    # pow_check as bytes: digest and target are both 32-byte big-endian
    if pow_fn == "sha256d":
        midstate = hashlib.sha256(prefix)
        for nonce in chain(range(start, MAX_U64), range(start)):
            inner = midstate.copy()
            inner.update(nonce.to_bytes(8, "big") + suffix)
            digest = hashlib.sha256(inner.digest()).digest()
            if digest < suffix:
                break
    else:
        nonce, digest = _pow_scan(POW_FNS[pow_fn], prefix, suffix, start)
    return _found_header(parent, tx_root, ordinal, timestamp, nonce, target, pow_fn, digest), (nonce - start) % MAX_U64 + 1


def mine_header(
    parent_header: BlockHeader,
    tx_root: bytes,
    timestamp: int,
    seed: int = 0,
) -> BlockHeader:
    """Mine a child header of parent_header (same target and PoW function)."""
    header, _ = search_pow(
        parent_header.hash,
        tx_root,
        parent_header.ordinal + 1,
        timestamp,
        parent_header.difficulty_target,
        parent_header.pow_fn,
        seed,
    )
    return header


# ---------------------------------------------------------------------------
# chain view
# ---------------------------------------------------------------------------


@dataclass
class ChainView:
    """All blocks seen so far, arrival bookkeeping, and the best tip over time.

    Visibility rule: an observer whose view lags by `delay` seconds sees, at
    time t, the best tip among the blocks that arrived by t - delay (genesis
    when none did).  Each insertion records the new best tip and the time it
    became visible: the later of the block's arrival and the previous
    record's.  So no block is shown before it arrives, and the answer is
    exact when blocks are inserted in arrival order, as the simulation does.
    A child always carries more work than its parent, so the best block
    overall is a tip.

    Owned by the simulation thread; never mutated concurrently.
    """

    blocks: Dict[bytes, Block]
    arrival: Dict[bytes, int]
    cum_work: Dict[bytes, int]
    genesis_hash: bytes
    _seen_at: List[int]  # when each recorded best became visible
    _best: List[bytes]  # best tip after each insertion

    @classmethod
    def new(cls, difficulty_target: int, pow_fn: str = "sha256d") -> "ChainView":
        header, _ = search_pow(ZERO_HASH, EMPTY_TX_ROOT, 0, 0, difficulty_target, pow_fn, seed=0)
        genesis = Block(header, ())
        gh = header.hash
        return cls(blocks={gh: genesis}, arrival={gh: 0}, cum_work={gh: work_for_target(difficulty_target)},
                   genesis_hash=gh, _seen_at=[0], _best=[gh])

    @property
    def genesis(self) -> Block:
        return self.blocks[self.genesis_hash]

    def _fork_key(self, h: bytes) -> Tuple[int, int, bytes]:
        return -self.cum_work[h], self.arrival[h], h

    def add_block(self, block: Block, arrival_time: int = 0) -> Optional[str]:
        """Insert block; returns None, or why it was refused: UnknownParent | BadPoW | BadOrdinal | BadTxRoot."""
        h = block.header.hash
        if h in self.blocks:
            return None  # idempotent
        parent = block.header.parent
        if parent not in self.blocks:
            return "UnknownParent"
        if not pow_check(block.header):
            return "BadPoW"
        if block.header.ordinal != self.blocks[parent].header.ordinal + 1:
            return "BadOrdinal"
        if block.header.tx_root != tx_list_root(block.txs):
            return "BadTxRoot"
        self.blocks[h] = block
        self.arrival[h] = arrival_time
        self.cum_work[h] = self.cum_work[parent] + work_for_target(block.header.difficulty_target)
        self._seen_at.append(max(arrival_time, self._seen_at[-1]))
        self._best.append(min(self._best[-1], h, key=self._fork_key))
        return None

    def mine_block(self, parent: bytes, txs: Sequence[Transaction], time: int, seed: int = 0) -> Block:
        """Mine a child of parent containing txs; does not insert it."""
        if parent not in self.blocks:
            raise UnknownParent(parent.hex())
        txs = tuple(txs)
        return Block(mine_header(self.blocks[parent].header, tx_list_root(txs), time, seed), txs)

    def best_tip(self, cutoff: Optional[int] = None) -> bytes:
        """Tip with maximal cumulative work; ties: earliest arrival, then smallest hash.

        With a cutoff, the best tip visible at that time (see the class docstring).
        """
        return self._best[-1] if cutoff is None else self.visible(cutoff)[0]

    def visible(self, cutoff: int) -> Tuple[bytes, float]:
        """(best tip visible at cutoff, the first later cutoff at which it can change).  That time is
        NEVER while no block has arrived after cutoff; the tip may stay the same at it."""
        i = bisect_right(self._seen_at, cutoff)
        return (self._best[i - 1] if i else self.genesis_hash,
                self._seen_at[i] if i < len(self._seen_at) else NEVER)

    def ancestor_at(self, tip: bytes, ordinal: int) -> bytes:
        """Hash of tip's ancestor at the given ordinal; raises RangeUnavailable."""
        if tip not in self.blocks:
            raise RangeUnavailable("unknown tip")
        h = tip
        cur = self.blocks[h].header.ordinal
        if ordinal > cur or ordinal < 0:
            raise RangeUnavailable(f"ordinal {ordinal} not on path to tip at {cur}")
        while cur > ordinal:
            h = self.blocks[h].header.parent
            cur -= 1
        return h

    def path_blocks(self, tip: bytes, from_ordinal: int, to_ordinal: int) -> List[Block]:
        """Blocks with ordinals in [from_ordinal, to_ordinal] on tip's ancestor path."""
        if tip not in self.blocks:
            raise RangeUnavailable("unknown tip")
        tip_ord = self.blocks[tip].header.ordinal
        if not 0 <= from_ordinal <= to_ordinal <= tip_ord:
            raise RangeUnavailable(f"[{from_ordinal}, {to_ordinal}] outside path to ordinal {tip_ord}")
        h = self.ancestor_at(tip, to_ordinal)
        out: List[Block] = []
        cur = to_ordinal
        while cur >= from_ordinal:
            out.append(self.blocks[h])
            h = self.blocks[h].header.parent
            cur -= 1
        out.reverse()
        return out
