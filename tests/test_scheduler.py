"""Event queue and clock conversion tests."""

import random
import statistics

import pytest

from pegsim.errors import PastEvent
from pegsim.scheduler import (
    ClockParams,
    EventQueue,
    challenge_window_eth_blocks,
    ethereum_time,
    next_doge_block_time,
)


class TestEthereumTime:
    def test_zero(self):
        assert ethereum_time(0, ClockParams()) == 0

    def test_one_block(self):
        assert ethereum_time(14, ClockParams()) == 1

    def test_floor_division(self):
        assert ethereum_time(1000, ClockParams()) == 71  # floor(1000/14)

    def test_non_decreasing(self):
        clock = ClockParams()
        es = [ethereum_time(t, clock) for t in range(0, 500)]
        assert es == sorted(es)
        assert set(b - a for a, b in zip(es, es[1:])) <= {0, 1}


class TestChallengeWindow:
    def test_default_window_is_80(self):
        # ceil((20 - 2) * 62 / 14) = ceil(79.71) = 80
        assert challenge_window_eth_blocks(20, 2, ClockParams()) == 80


class TestDogeBlockTimes:
    def test_deterministic(self):
        clock = ClockParams()
        assert next_doge_block_time(0, clock) == 62
        assert next_doge_block_time(62, clock) == 124

    def test_seeded_mean(self):
        clock = ClockParams(doge_interarrival="seeded-exponential")
        rng = random.Random(42)
        gaps = []
        t = 0
        for _ in range(10_000):
            nxt = next_doge_block_time(t, clock, rng)
            gaps.append(nxt - t)
            t = nxt
        assert all(g >= 1 for g in gaps)
        assert 56 <= statistics.fmean(gaps) <= 68

    def test_seeded_requires_rng(self):
        with pytest.raises(ValueError):
            next_doge_block_time(0, ClockParams(doge_interarrival="seeded-exponential"))


class TestEventQueue:
    def test_insertion_order_tiebreak(self):
        q = EventQueue()
        q.schedule(10, "first")
        q.schedule(10, "second")
        q.schedule(5, "early")
        fired = []
        q.run_until(100, lambda t, e: fired.append((t, e)))
        assert fired == [(5, "early"), (10, "first"), (10, "second")]

    def test_run_until_zero_fires_nothing(self):
        q = EventQueue()
        q.schedule(1, "later")
        fired = []
        assert q.run_until(0, lambda t, e: fired.append(e)) == 0
        assert fired == []
        assert q.run_until(1, lambda t, e: fired.append(e)) == 1  # still queued
        assert fired == ["later"]

    def test_past_event_rejected(self):
        q = EventQueue()
        q.schedule(10, "a")
        q.run_until(10, lambda t, e: None)
        with pytest.raises(PastEvent):
            q.schedule(9, "too-late")

    def test_events_scheduled_during_run(self):
        q = EventQueue()
        fired = []

        def handler(t, e):
            fired.append((t, e))
            if e == "a":
                q.schedule(t + 5, "b")

        q.schedule(1, "a")
        q.run_until(100, handler)
        assert fired == [(1, "a"), (6, "b")]

    def test_replay_identical_sequence(self):
        def run(seed):
            rng = random.Random(seed)
            q = EventQueue()
            log = []
            for i in range(50):
                q.schedule(rng.randrange(100), f"e{i}")
            q.run_until(200, lambda t, e: log.append((t, e)))
            return log

        assert run(7) == run(7)
        assert run(7) != run(8)
