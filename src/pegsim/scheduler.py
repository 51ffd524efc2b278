"""Deterministic discrete-event clock.

Integer simulated seconds only; events fire in (time, insertion seq) order so
a fixed (config, seed) pair replays byte-identically. The contract chain's
block ordinal ("Ethereum time") is a pure floor of the clock, and coin-chain
block production runs either on a fixed interval or a seeded exponential.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from .errors import PastEvent

DEFAULT_ETH_BLOCK_SECONDS = 14
DEFAULT_DOGE_BLOCK_SECONDS = 62


@dataclass(frozen=True)
class ClockParams:
    eth_block_seconds: int = DEFAULT_ETH_BLOCK_SECONDS
    doge_block_seconds: int = DEFAULT_DOGE_BLOCK_SECONDS
    doge_interarrival: str = "deterministic"  # or "seeded-exponential"

    def __post_init__(self):
        if self.eth_block_seconds <= 0 or self.doge_block_seconds <= 0:
            raise ValueError("block intervals must be positive")
        if self.doge_interarrival not in ("deterministic", "seeded-exponential"):
            raise ValueError(f"unknown interarrival mode {self.doge_interarrival!r}")


def ethereum_time(t: int, clock: ClockParams) -> int:
    """Ordinal of the newest contract-chain block at simulated second t."""
    return t // clock.eth_block_seconds


def challenge_window_eth_blocks(d: int, k: int, clock: ClockParams) -> int:
    """Challenge window of d-k coin blocks converted to contract-chain blocks."""
    return math.ceil((d - k) * clock.doge_block_seconds / clock.eth_block_seconds)


def next_doge_block_time(prev: int, clock: ClockParams, rng: Optional[random.Random] = None) -> int:
    """Time of the coin block after one at time prev."""
    if clock.doge_interarrival == "deterministic":
        return prev + clock.doge_block_seconds
    if rng is None:
        raise ValueError("seeded-exponential mode needs an rng")
    gap = max(1, round(rng.expovariate(1.0 / clock.doge_block_seconds)))
    return prev + gap


class EventQueue:
    """Min-heap of (time, seq, event); seq is a global insertion counter."""

    def __init__(self, start: int = 0):
        self._heap: List[Tuple[int, int, Any]] = []
        self._seq = 0
        self.now = start

    def schedule(self, at: int, event: Any) -> None:
        if at < self.now:
            raise PastEvent(f"schedule at {at} < now {self.now}")
        heapq.heappush(self._heap, (at, self._seq, event))
        self._seq += 1

    def pop(self) -> Tuple[int, int, Any]:
        at, seq, event = heapq.heappop(self._heap)
        self.now = at
        return at, seq, event

    def run_until(self, t_end: int, handler: Callable[[int, Any], None]) -> int:
        """Fire events with time <= t_end in (time, seq) order; returns count fired."""
        fired = 0
        while self._heap and self._heap[0][0] <= t_end:
            at, _, event = self.pop()
            handler(at, event)
            fired += 1
        self.now = max(self.now, t_end)
        return fired
