"""Chain simulation tests: PoW predicate, mining, fork choice, header ranges."""

import dataclasses
import faulthandler
import hashlib
import os
import random
import signal
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegsim import chainsim
from pegsim.chainsim import (
    EMPTY_TX_ROOT,
    MAX_U64,
    NEVER,
    POW_FNS,
    BlockHeader,
    ChainView,
    Transaction,
    doge_address,
    pow_check,
    search_pow,
    tx_list_root,
    work_for_target,
)
from pegsim.errors import EncodingError, RangeUnavailable, UnknownParent
from pegsim.harness import load_config
from pegsim.harness.runner import SimulationRunner

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

TARGET = 1 << 250  # ~64 expected attempts per block


def build_chain(n, target=TARGET, seed_base=100):
    view = ChainView.new(target)
    tip = view.genesis_hash
    for i in range(n):
        block = view.mine_block(tip, [], time=62 * (i + 1), seed=seed_base + i)
        assert view.add_block(block, arrival_time=62 * (i + 1)) is None
        tip = block.header.hash
    return view, tip


class TestPow:
    def test_max_target_any_header_passes(self):
        header = BlockHeader(b"\x00" * 32, EMPTY_TX_ROOT, 0, 0, 12345, (1 << 256) - 1)
        assert pow_check(header)

    def test_zero_target_never_passes(self):
        header = BlockHeader(b"\x00" * 32, EMPTY_TX_ROOT, 0, 0, 12345, 0)
        assert not pow_check(header)

    def test_expected_attempts_at_2_250(self):
        # Empirical mean over >= 1000 seeded searches; expected 2^(256-250) = 64 +/- 20%.
        attempts = []
        for seed in range(1000):
            _, n = search_pow(b"\x11" * 32, EMPTY_TX_ROOT, 1, 0, TARGET, seed=seed)
            attempts.append(n)
        mean = statistics.fmean(attempts)
        assert 64 * 0.8 <= mean <= 64 * 1.2, mean

    def test_scrypt_variant(self):
        header, _ = search_pow(b"\x22" * 32, EMPTY_TX_ROOT, 1, 0, 1 << 252, pow_fn="scrypt", seed=3)
        assert pow_check(header)
        assert header.pow_fn == "scrypt"


def nonce_start(parent, tx_root, ordinal, seed):
    return int.from_bytes(hashlib.sha256(b"nonce/" + (seed % MAX_U64).to_bytes(8, "big") + parent + tx_root
                                         + ordinal.to_bytes(8, "big")).digest()[:8], "big")


def reference_search(parent, tx_root, ordinal, timestamp, target, pow_fn="sha256d", seed=0):
    """The nonce search written plainly: one BlockHeader built, and its digest computed, per attempt."""
    nonce, attempts = nonce_start(parent, tx_root, ordinal, seed), 0
    while True:
        attempts += 1
        header = BlockHeader(parent, tx_root, ordinal, timestamp, nonce, target, pow_fn)
        if pow_check(header):
            return header, attempts
        nonce = (nonce + 1) % MAX_U64


WIDTHS = (1, 2, 3, 5)


@contextmanager
def scan_width(width):
    """search_pow scanning on `width` threads, with helper threads of its own that are shut down after."""
    saved = chainsim.POW_WIDTH, chainsim._pow_helpers
    chainsim.POW_WIDTH, chainsim._pow_helpers = width, None
    try:
        yield
    finally:
        if chainsim._pow_helpers is not None:
            chainsim._pow_helpers.shutdown()
        chainsim.POW_WIDTH, chainsim._pow_helpers = saved


@contextmanager
def hang_guard(capfd, seconds):
    """Ends the whole run, printing every thread's traceback, if the block takes `seconds`.  Capture is
    off inside it: pytest holds file descriptor 2 otherwise, so a run ended so would print nothing."""
    with capfd.disabled():
        faulthandler.dump_traceback_later(seconds, exit=True)
        try:
            yield
        finally:
            faulthandler.cancel_dump_traceback_later()


class Digests:
    """A PoW function's record: the nonces it was called on, and those whose call returned or raised."""

    def __init__(self):
        self.called, self.done = [], []

    def assert_scanned_to(self, start, decider):
        """Every position up to the decider evaluated exactly once, none still running."""
        positions = [(nonce - start) % MAX_U64 for nonce in self.called]
        assert len(positions) == len(set(positions)), sorted(positions)
        assert set(range(decider + 1)) <= set(positions), sorted(positions)
        assert len(self.done) == len(self.called)


def outcome(search, args, seed):
    """What a search returns, or the LookupError it raises."""
    try:
        return search(*args, seed=seed)
    except LookupError as error:
        return error


def nonce_of(data):
    return int.from_bytes(data[-40:-32], "big")


def search_inputs(seed):
    """Distinct parent and tx root, and ordinal != timestamp, so a reordered encoding changes the digest."""
    parent = hashlib.sha256(b"parent/%d" % seed).digest()
    tx_root = EMPTY_TX_ROOT if seed % 2 else hashlib.sha256(b"txs/%d" % seed).digest()
    ordinal, timestamp = (MAX_U64 - 1, 7) if seed % 50 == 0 else (seed + 1, 62 * seed + 5)
    return parent, tx_root, ordinal, timestamp


class TestNonceSearch:
    """search_pow hashes a fixed encoding with only the nonce changing; it must equal the plain search."""

    def assert_same_search(self, got, want):
        (header, attempts), (ref, ref_attempts) = got, want
        assert attempts == ref_attempts
        assert type(header) is BlockHeader and header == ref and hash(header) == hash(ref)
        assert header.hash == ref.hash
        fields = (header.parent, header.tx_root, header.ordinal, header.timestamp, header.nonce,
                  header.difficulty_target, header.pow_fn)
        assert header == BlockHeader(*fields) and header.hash == BlockHeader(*fields).hash
        assert header.hash == POW_FNS[header.pow_fn](header.encode())
        assert pow_check(header)

    @pytest.mark.parametrize("target", [1 << 250, 1 << 252])
    def test_equals_the_plain_search_sha256d(self, target):
        for seed in range(200):
            args = search_inputs(seed) + (target,)
            self.assert_same_search(search_pow(*args, seed=seed), reference_search(*args, seed=seed))

    def test_equals_the_plain_search_scrypt(self):
        for seed in range(3):
            args = search_inputs(seed) + (1 << 252, "scrypt")
            self.assert_same_search(search_pow(*args, seed=seed), reference_search(*args, seed=seed))

    def test_digest_equal_to_the_target_does_not_pass(self, monkeypatch):
        target = 1 << 200

        def edge(data):
            # by nonce mod 3: one above the target, the target itself, one below
            nonce = nonce_of(data)
            if (nonce - start) % MAX_U64 >= 3 + chainsim.POW_WIDTH:
                raise AssertionError(f"nonce {nonce} evaluated: the search skipped the passing one before it")
            return (target + 1 - nonce % 3).to_bytes(32, "big")

        monkeypatch.setitem(POW_FNS, "edge", edge)
        met_the_target = 0
        for seed in range(20):
            args = search_inputs(seed) + (target, "edge")
            start = nonce_start(*args[:3], seed)
            got = search_pow(*args, seed=seed)
            self.assert_same_search(got, reference_search(*args, seed=seed))
            assert got[0].hash == (target - 1).to_bytes(32, "big")
            met_the_target += got[0].nonce % 3 == 2 and got[1] >= 2
        assert met_the_target > 0

    @pytest.mark.parametrize("target", [0x5A3 << 244 | 0xC0FFEE, (1 << 256) - 1])
    def test_equals_the_plain_search_at_an_uneven_and_the_top_target(self, target):
        for seed in range(100):
            args = search_inputs(seed) + (target,)
            got = search_pow(*args, seed=seed)
            self.assert_same_search(got, reference_search(*args, seed=seed))
            assert got[1] == 1 or target != (1 << 256) - 1

    @pytest.mark.parametrize("pow_fn", ["sha256d", "edge"])
    def test_a_start_two_below_2_64_wraps_to_zero(self, monkeypatch, pow_fn):
        # at every scan width: the threads' positions straddle the wrap, and none may drop a nonce
        target, start = 1 << 254, MAX_U64 - 2

        def edge(data):
            # only nonce 1, the second past the wrap, beats the target; a search reaching 64 has skipped it
            if 64 <= nonce_of(data) < start:
                raise AssertionError(f"nonce {nonce_of(data)} evaluated: the search skipped nonce 1")
            return (target - (nonce_of(data) == 1)).to_bytes(32, "big")

        def forced_start(data):
            return start.to_bytes(8, "big") if data.startswith(b"nonce/") else hashlib.sha256(data).digest()

        monkeypatch.setitem(POW_FNS, "edge", edge)
        monkeypatch.setattr(chainsim, "sha256", forced_start)
        for width in WIDTHS:
            wrapped = 0
            with scan_width(width):
                for seed in range(20):
                    args = search_inputs(seed) + (target, pow_fn)
                    tried = (BlockHeader(*args[:4], (start + i) % MAX_U64, target, pow_fn) for i in range(MAX_U64))
                    want = next((header, i + 1) for i, header in enumerate(tried) if pow_check(header))
                    self.assert_same_search(search_pow(*args, seed=seed), want)
                    wrapped += want[0].nonce < start
            assert wrapped >= 5
            if pow_fn == "edge":
                assert wrapped == 20 and want[0].nonce == 1 and want[1] == 4

    @pytest.mark.parametrize("width", WIDTHS, ids=[f"W{w}" for w in WIDTHS])
    def test_the_first_passing_nonce_in_order_wins_at_each_window_offset(self, monkeypatch, width):
        # the decider at every offset of the window, the first two widths of positions from the start: alone, and
        # with the width - 1 after it passing
        target, passing, digests = 1 << 200, set(), Digests()

        def edge(data):
            digests.called.append(nonce_of(data))
            digests.done.append(nonce_of(data))
            if (nonce_of(data) - start) % MAX_U64 >= 3 * width:
                raise AssertionError(f"nonce {nonce_of(data)} evaluated: the search skipped {sorted(passing)}")
            return (target - (nonce_of(data) in passing)).to_bytes(32, "big")

        monkeypatch.setitem(POW_FNS, "edge", edge)
        threads = threading.active_count()
        with scan_width(width):
            for seed in range(3):
                args = search_inputs(seed) + (target, "edge")
                start = nonce_start(*args[:3], seed)
                for offset in range(2 * width + 1):
                    for count in (1, width):
                        passing.clear()
                        passing.update((start + offset + i) % MAX_U64 for i in range(count))
                        digests = Digests()
                        got = search_pow(*args, seed=seed)
                        digests.assert_scanned_to(start, offset)
                        assert got[0].nonce == (start + offset) % MAX_U64 and got[1] == offset + 1
                        self.assert_same_search(got, reference_search(*args, seed=seed))
                        assert threading.active_count() <= threads + width - 1
            assert (chainsim._pow_helpers is None) == (width == 1)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("width", WIDTHS, ids=[f"W{w}" for w in WIDTHS])
    def test_an_error_reaches_the_caller_after_its_window_finishes(self, monkeypatch, width):
        # an error at each offset within two widths of the start, with a passing nonce just before or just after it;
        # the search returns or raises only once its window, every digest the threads had started, has finished
        target, digests = 1 << 200, Digests()

        def slow_failing(data):
            # every digest takes a while, so the helpers are part-way through one when the search decides
            digests.called.append(nonce_of(data))
            time.sleep(0.002)
            digests.done.append(nonce_of(data))
            if (nonce_of(data) - start) % MAX_U64 >= 3 * width:
                raise AssertionError(f"nonce {nonce_of(data)} evaluated: the search skipped {failing}")
            if nonce_of(data) == failing:
                raise RuntimeError(f"no digest for nonce {failing}")
            return (target - (nonce_of(data) == passing)).to_bytes(32, "big")

        monkeypatch.setitem(POW_FNS, "slow_failing", slow_failing)
        args = search_inputs(1) + (target, "slow_failing")
        start = nonce_start(*args[:3], 1)
        threads = threading.active_count()
        with scan_width(width):
            for offset in range(2 * width + 1):
                for passing_offset in (offset - 1, offset + 1)[offset == 0:]:
                    failing, passing = (start + offset) % MAX_U64, (start + passing_offset) % MAX_U64
                    digests = Digests()
                    if passing_offset < offset:
                        got = search_pow(*args, seed=1)
                        assert got[0].nonce == passing and got[1] == passing_offset + 1
                    else:
                        with pytest.raises(RuntimeError, match=f"nonce {failing}"):
                            search_pow(*args, seed=1)
                    digests.assert_scanned_to(start, min(offset, passing_offset))
                    called = len(digests.called)
                    time.sleep(0.01)
                    assert len(digests.called) == len(digests.done) == called  # nothing was left running
                    assert threading.active_count() <= threads + width - 1
        assert threading.active_count() == threads

    @pytest.mark.parametrize("width", WIDTHS, ids=[f"W{w}" for w in WIDTHS])
    def test_the_scan_equals_the_plain_search_however_digests_are_scheduled(self, monkeypatch, width):
        # random sleeps finish digests in shuffled order; a short switch interval interleaves the threads more
        target, rng, digests = 1 << 252, random.Random(width), Digests()

        def jittery(data):
            digests.called.append(nonce_of(data))
            time.sleep(rng.uniform(0, 0.0005))
            digests.done.append(nonce_of(data))
            if nonce_of(data) % 29 == 0:
                raise LookupError(nonce_of(data))
            return hashlib.sha256(data).digest()

        monkeypatch.setitem(POW_FNS, "jittery", jittery)
        switch_interval, raised = sys.getswitchinterval(), 0
        sys.setswitchinterval(1e-5)
        try:
            with scan_width(width):
                for seed in range(40):
                    args = search_inputs(seed) + (target, "jittery")
                    start = nonce_start(*args[:3], seed)
                    want = outcome(reference_search, args, seed)
                    digests = Digests()
                    got = outcome(search_pow, args, seed)
                    if isinstance(want, LookupError):
                        raised += 1
                        assert type(got) is LookupError and got.args == want.args
                        digests.assert_scanned_to(start, (want.args[0] - start) % MAX_U64)
                    else:
                        digests.assert_scanned_to(start, want[1] - 1)
                        self.assert_same_search(got, want)
        finally:
            sys.setswitchinterval(switch_interval)
        assert 0 < raised < 40

    @pytest.mark.parametrize("raiser, width", [("caller", w) for w in WIDTHS] + [("helper", w) for w in WIDTHS[1:]],
                             ids=[f"caller-W{w}" for w in WIDTHS] + [f"helper-W{w}" for w in WIDTHS[1:]])
    def test_an_interrupt_stops_the_helpers_before_it_propagates(self, monkeypatch, capfd, raiser, width):
        # no digest ever passes: helpers left running would scan on forever
        target, digests, interrupted_at = 1 << 200, Digests(), []

        def interrupted(data):
            if interrupted_at and len(digests.called) - interrupted_at[0] >= 2 * width:
                raise AssertionError("the helpers kept scanning after the interrupt")
            digests.called.append(nonce_of(data))
            time.sleep(0.001)
            digests.done.append(nonce_of(data))
            if (threading.current_thread() is threading.main_thread()) == (raiser == "caller") and len(digests.done) > width:
                interrupted_at.append(len(digests.called))
                raise KeyboardInterrupt
            return target.to_bytes(32, "big")

        monkeypatch.setitem(POW_FNS, "interrupted", interrupted)
        threads = threading.active_count()
        with hang_guard(capfd, 30), scan_width(width):  # a thread left waiting would hang the search
            with pytest.raises(KeyboardInterrupt):
                search_pow(*search_inputs(1), target, "interrupted", seed=1)
            called = len(digests.called)
            assert called == len(digests.done)
            # after the interrupted digest, each other thread starts at most the one it had drawn and one more
            # before the stop flag is set
            assert called - interrupted_at[0] <= 2 * (width - 1)
            time.sleep(0.01)
            assert len(digests.called) == called  # no helper started another digest
        assert threading.active_count() == threads

    @pytest.mark.parametrize("width", WIDTHS, ids=[f"W{w}" for w in WIDTHS])
    def test_the_threads_stop_once_position_0_passes(self, monkeypatch, capfd, width):
        # position 0 passes at once and every other digest is slow: a thread that drew a position past 0 before 0
        # decided finishes that one digest and draws no other, so the search returns after about one slow digest
        target, slow, digests = 1 << 200, 0.02, Digests()

        def slow_past_0(data):
            digests.called.append(nonce_of(data))
            if nonce_of(data) != start:
                time.sleep(slow)
            digests.done.append(nonce_of(data))
            return (target - (nonce_of(data) == start)).to_bytes(32, "big")

        monkeypatch.setitem(POW_FNS, "slow_past_0", slow_past_0)
        threads = threading.active_count()
        with hang_guard(capfd, 10), scan_width(width):  # threads that never stop would hang the search
            for seed in range(3):
                args = search_inputs(seed) + (target, "slow_past_0")
                start = nonce_start(*args[:3], seed)
                digests = Digests()
                began = time.monotonic()
                got = search_pow(*args, seed=seed)
                elapsed = time.monotonic() - began
                assert got[0].nonce == start and got[1] == 1
                digests.assert_scanned_to(start, 0)
                assert len(digests.called) - 1 <= width - 1, sorted(digests.called)
                assert elapsed < 1.5 * slow, f"{elapsed:.3f} s"
        assert threading.active_count() == threads

    def test_the_width_is_the_cpus_this_process_may_run_on_at_most_4(self):
        assert chainsim.POW_WIDTH == min(4, len(os.sched_getaffinity(0)))

    @pytest.mark.parametrize("target", [-1, 1 << 256], ids=["-1", "2^256"])
    def test_target_outside_u256_refused(self, target):
        with pytest.raises(EncodingError):
            BlockHeader(b"\x11" * 32, EMPTY_TX_ROOT, 1, 0, 77, target)
        with pytest.raises(EncodingError):
            search_pow(b"\x11" * 32, EMPTY_TX_ROOT, 1, 0, target)

    def test_zero_target_refused_at_once(self):
        def too_slow(signum, frame):
            raise TimeoutError("search_pow(target=0) still searching after 1 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(ValueError):
                search_pow(b"\x11" * 32, EMPTY_TX_ROOT, 1, 0, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("value", [MAX_U64, -1])
    def test_ordinal_or_timestamp_outside_u64_refused(self, value):
        with pytest.raises(EncodingError):
            search_pow(b"\x11" * 32, EMPTY_TX_ROOT, value, 0, TARGET)
        with pytest.raises(EncodingError):
            search_pow(b"\x11" * 32, EMPTY_TX_ROOT, 1, value, TARGET)


class TestTransactions:
    def test_tx_id_is_encoding_hash(self):
        tx = Transaction(doge_address("a"), doge_address("b"), 41, 0, b"someone")
        assert tx.tx_id == __import__("hashlib").sha256(tx.encode()).digest()

    def test_distinct_nonces_distinct_ids(self):
        a, b = doge_address("a"), doge_address("b")
        assert Transaction(a, b, 5, 0).tx_id != Transaction(a, b, 5, 1).tx_id

    def test_empty_tx_root_constant(self):
        assert tx_list_root([]) == EMPTY_TX_ROOT

    @pytest.mark.parametrize("value", [-1, MAX_U64, MAX_U64 + 41, -MAX_U64 + 41])
    def test_u64_fields_outside_range_refused(self, value):
        # reducing mod 2^64 would give these the encoding, id and Merkle leaf of a real value
        a, b = doge_address("a"), doge_address("b")
        with pytest.raises(EncodingError):
            Transaction(a, b, value, 0)
        with pytest.raises(EncodingError):
            Transaction(a, b, 41, value)
        with pytest.raises(EncodingError):
            BlockHeader(b"\x00" * 32, EMPTY_TX_ROOT, 0, 0, value, TARGET)

    def test_length_prefixed_field_past_255_bytes_refused(self):
        a, b = doge_address("a"), doge_address("b")
        assert Transaction(a, b, 1, 0, b"m" * 255).encode()[-256] == 255
        with pytest.raises(EncodingError):
            Transaction(a, b, 1, 0, b"m" * 256)

    def test_u64_bounds_accepted(self):
        a, b = doge_address("a"), doge_address("b")
        assert Transaction(a, b, MAX_U64 - 1, 0).encode()[-17:-9] == b"\xff" * 8
        assert Transaction(a, b, 0, 0).encode()[-17:-9] == b"\x00" * 8


class TestIdentity:
    """Each header's PoW digest and each transaction's id are computed once, when built."""

    def test_stored_ids_match_recomputation_over_a_run(self):
        runner = SimulationRunner(load_config(str(SCENARIO_DIR / "fuzz_random.json")))
        runner.run()
        txs = 0
        for h, block in runner.view.blocks.items():
            header = block.header
            assert h == header.hash == POW_FNS[header.pow_fn](header.encode())
            for tx in block.txs:
                assert tx.tx_id == hashlib.sha256(tx.encode()).digest()
                txs += 1
        assert txs > 0

    def test_replace_recomputes(self):
        header, _ = search_pow(b"\x11" * 32, EMPTY_TX_ROOT, 1, 0, TARGET, seed=1)
        other = dataclasses.replace(header, nonce=header.nonce + 1)
        assert other.hash == POW_FNS["sha256d"](other.encode()) != header.hash
        tx = Transaction(doge_address("a"), doge_address("b"), 5, 0)
        assert dataclasses.replace(tx, amount=6).tx_id == Transaction(tx.sender, tx.receiver, 6, 0).tx_id

    def test_equal_values_compare_and_hash_equal(self):
        fields = (b"\x11" * 32, EMPTY_TX_ROOT, 1, 0, 77, TARGET)
        a, b = BlockHeader(*fields), BlockHeader(*fields)
        assert a is not b and a == b and hash(a) == hash(b) and a.hash == b.hash
        assert "hash=" not in repr(a)
        t1, t2 = (Transaction(doge_address("a"), doge_address("b"), 5, 0) for _ in range(2))
        assert t1 == t2 and hash(t1) == hash(t2) and "tx_id" not in repr(t1)

    def test_digest_cannot_be_supplied(self):
        with pytest.raises(TypeError):
            BlockHeader(b"\x11" * 32, EMPTY_TX_ROOT, 1, 0, 77, TARGET, hash=b"\x00" * 32)
        with pytest.raises(TypeError):
            Transaction(doge_address("a"), doge_address("b"), 5, 0, tx_id=b"\x00" * 32)

    def test_a_sha256d_run_searches_without_pow_digest(self, monkeypatch):
        # two_rates: sha256d and no attacker, so nothing builds a header outside a search,
        # and the search hashes from its midstate instead of calling pow_digest
        counts = {"digests": 0, "attempts": 0}
        digest, search = chainsim.pow_digest, chainsim.search_pow

        def counting_digest(pow_fn, data):
            counts["digests"] += 1
            return digest(pow_fn, data)

        def counting_search(*args, **kwargs):
            header, attempts = search(*args, **kwargs)
            counts["attempts"] += attempts
            return header, attempts

        monkeypatch.setattr(chainsim, "pow_digest", counting_digest)
        monkeypatch.setattr(chainsim, "search_pow", counting_search)
        threads = threading.active_count()
        runner = SimulationRunner(load_config(str(SCENARIO_DIR / "two_rates.json")))
        with scan_width(2):  # a search that could start helper threads
            runner.run()
            assert threading.active_count() == threads  # the sha256d search starts none
        assert counts["attempts"] > 0
        assert counts["digests"] == 0
        for h, block in runner.view.blocks.items():
            header = block.header
            assert header.pow_fn == "sha256d"
            assert h == header.hash == POW_FNS["sha256d"](header.encode())


class TestMining:
    def test_mine_on_genesis(self):
        view = ChainView.new(TARGET)
        block = view.mine_block(view.genesis_hash, [], time=62, seed=1)
        assert block.header.ordinal == 1
        assert pow_check(block.header)
        assert view.add_block(block, 62) is None

    def test_unknown_parent_raises(self):
        view = ChainView.new(TARGET)
        with pytest.raises(UnknownParent):
            view.mine_block(b"\xaa" * 32, [], time=10)

    def test_two_seeds_fork(self):
        view = ChainView.new(TARGET)
        b1 = view.mine_block(view.genesis_hash, [], time=62, seed=1)
        b2 = view.mine_block(view.genesis_hash, [], time=62, seed=2)
        assert b1.header.hash != b2.header.hash
        assert view.add_block(b1, 62) is None
        assert view.add_block(b2, 63) is None
        assert view.best_tip() == b1.header.hash  # equal work: earlier arrival
        assert view.best_tip(62) == b1.header.hash
        assert view.best_tip(61) == view.genesis_hash

    def test_thirty_block_ordinals_consecutive(self):
        view, tip = build_chain(30)
        ordinals = [b.header.ordinal for b in view.path_blocks(tip, 0, 30)]
        assert ordinals == list(range(31))


class TestAddBlock:
    def test_rejects_bad_pow(self):
        view = ChainView.new(TARGET)
        good = view.mine_block(view.genesis_hash, [], time=62, seed=1)
        bad_header = BlockHeader(
            good.header.parent,
            good.header.tx_root,
            good.header.ordinal,
            good.header.timestamp,
            good.header.nonce + 1,
            good.header.difficulty_target,
        )
        # nonce+1 passing would be a ~1/64 fluke; skip past any such collision
        while pow_check(bad_header):
            bad_header = BlockHeader(
                bad_header.parent,
                bad_header.tx_root,
                bad_header.ordinal,
                bad_header.timestamp,
                bad_header.nonce + 1,
                bad_header.difficulty_target,
            )
        from pegsim.chainsim import Block

        assert view.add_block(Block(bad_header, ()), 62) == "BadPoW"

    def test_rejects_unknown_parent_and_bad_ordinal_and_tx_root(self):
        from pegsim.chainsim import Block

        view = ChainView.new(TARGET)
        orphan = ChainView.new(TARGET)
        b = orphan.mine_block(orphan.genesis_hash, [], time=62, seed=9)
        stranger, _ = search_pow(b"\x99" * 32, EMPTY_TX_ROOT, 1, 0, TARGET, seed=4)
        assert view.add_block(Block(stranger, ()), 0) == "UnknownParent"

        wrong_ord, _ = search_pow(view.genesis_hash, EMPTY_TX_ROOT, 5, 0, TARGET, seed=5)
        assert view.add_block(Block(wrong_ord, ()), 0) == "BadOrdinal"

        tx = Transaction(doge_address("a"), doge_address("b"), 1, 0)
        lying, _ = search_pow(view.genesis_hash, EMPTY_TX_ROOT, 1, 0, TARGET, seed=6)
        assert view.add_block(Block(lying, (tx,)), 0) == "BadTxRoot"

    def test_duplicate_add_idempotent(self):
        view = ChainView.new(TARGET)
        b = view.mine_block(view.genesis_hash, [], time=62, seed=1)
        assert view.add_block(b, 62) is None
        snapshot = dict(view.cum_work)
        assert view.add_block(b, 99) is None
        assert view.cum_work == snapshot


class TestForkChoice:
    def test_single_chain_head(self):
        view, tip = build_chain(5)
        assert view.best_tip() == tip

    def test_longer_fork_wins(self):
        view = ChainView.new(TARGET)
        # branch A: 3 blocks, branch B: 4 blocks
        tip_a = view.genesis_hash
        for i in range(3):
            b = view.mine_block(tip_a, [], time=10 + i, seed=10 + i)
            view.add_block(b, 10 + i)
            tip_a = b.header.hash
        tip_b = view.genesis_hash
        for i in range(4):
            b = view.mine_block(tip_b, [], time=20 + i, seed=20 + i)
            view.add_block(b, 20 + i)
            tip_b = b.header.hash
        assert view.best_tip() == tip_b

    def test_equal_length_earlier_arrival_wins(self):
        def build(order):
            view = ChainView.new(TARGET)
            tips = {}
            for name, seed, arrival in order:
                b = view.mine_block(view.genesis_hash, [], time=62, seed=seed)
                view.add_block(b, arrival)
                tips[name] = b.header.hash
            return view, tips

        v1, t1 = build([("a", 1, 50), ("b", 2, 60)])
        v2, t2 = build([("b", 2, 60), ("a", 1, 50)])
        assert v1.best_tip() == t1["a"]
        assert v2.best_tip() == t2["a"]  # insertion order irrelevant given arrivals

    def test_cumulative_work_matches_length_at_constant_difficulty(self):
        view, tip = build_chain(12)
        unit = work_for_target(TARGET)
        for h, block in view.blocks.items():
            assert view.cum_work[h] == unit * (block.header.ordinal + 1)

    def test_work_strictly_monotone_along_path(self):
        view, tip = build_chain(8)
        h = tip
        while h != view.genesis_hash:
            parent = view.blocks[h].header.parent
            assert view.cum_work[h] > view.cum_work[parent]
            h = parent


class TestHeadersRange:
    """The headers of path_blocks over an ordinal range."""

    def test_single_and_full(self):
        view, tip = build_chain(6)
        only = view.path_blocks(tip, 1, 1)
        assert [b.header.ordinal for b in only] == [1]
        full = view.path_blocks(tip, 1, 6)
        assert [b.header.ordinal for b in full] == [1, 2, 3, 4, 5, 6]

    def test_fork_ranges_differ_beyond_fork_point(self):
        view = ChainView.new(TARGET)
        base = view.mine_block(view.genesis_hash, [], time=62, seed=1)
        view.add_block(base, 62)
        bh = base.header.hash
        fa = view.mine_block(bh, [], time=124, seed=2)
        fb = view.mine_block(bh, [], time=124, seed=3)
        view.add_block(fa, 124)
        view.add_block(fb, 125)
        ra = [b.header for b in view.path_blocks(fa.header.hash, 1, 2)]
        rb = [b.header for b in view.path_blocks(fb.header.hash, 1, 2)]
        assert ra[0] == rb[0]
        assert ra[1] != rb[1]

    def test_out_of_path_errors(self):
        view, tip = build_chain(3)
        with pytest.raises(RangeUnavailable):
            view.path_blocks(tip, 1, 9)
        with pytest.raises(RangeUnavailable):
            view.path_blocks(tip, 3, 1)


def visible_best(view, cutoff):
    """Reference: the best among blocks arrived by cutoff that have no visible child."""
    seen = {h for h in view.blocks if view.arrival[h] <= cutoff or h == view.genesis_hash}
    parents = {view.blocks[h].header.parent for h in seen}
    tips = seen - parents
    return min(tips, key=lambda h: (-view.cum_work[h], view.arrival[h], h))


EASY = 1 << 255  # ~2 attempts per block


def grow(moves, target=EASY):
    """Insert one block per (parent pick, arrival) move; returns (view, hashes)."""
    view = ChainView.new(target)
    hashes = [view.genesis_hash]
    for i, (pick, arrival) in enumerate(moves):
        parent = hashes[pick % len(hashes)]
        block = view.mine_block(parent, [], time=arrival, seed=i)
        assert view.add_block(block, arrival) is None
        hashes.append(block.header.hash)
    return view, hashes


class TestVisibility:
    def test_best_tip_at_cutoff_filters_by_arrival(self):
        view, tip = build_chain(5)  # arrivals 62, 124, ...
        assert view.best_tip(124 + 1) == view.ancestor_at(tip, 2)
        assert view.best_tip(124) == view.ancestor_at(tip, 2)
        assert view.best_tip(123) == view.ancestor_at(tip, 1)
        assert view.best_tip(-1) == view.genesis_hash
        assert view.best_tip(10**9) == view.best_tip() == tip

    @settings(max_examples=60, deadline=None)
    @given(moves=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from([0, 0, 1, 3])),
                          min_size=1, max_size=25))
    def test_in_order_insertion_matches_reference_filter(self, moves):
        # non-decreasing arrivals with ties, parents anywhere in the tree so far
        arrival, timed = 0, []
        for pick, step in moves:
            arrival += step
            timed.append((pick, arrival))
        view, _ = grow(timed)
        for cutoff in range(-1, arrival + 2):
            assert view.best_tip(cutoff) == visible_best(view, cutoff), cutoff
        assert view.best_tip() == visible_best(view, arrival)

    @settings(max_examples=60, deadline=None)
    @given(moves=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 20)),
                          min_size=1, max_size=25))
    def test_out_of_order_insertion_never_shows_a_later_block(self, moves):
        view, _ = grow(moves)
        for cutoff in range(-1, 22):
            tip = view.best_tip(cutoff)
            assert tip == view.genesis_hash or view.arrival[tip] <= cutoff
        assert view.best_tip() == visible_best(view, 20)  # fork choice stays exact

    @settings(max_examples=60, deadline=None)
    @given(moves=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from([0, 0, 1, 3])),
                          min_size=1, max_size=25))
    def test_visible_names_the_next_change(self, moves):
        # until the time named, the visible tip is the same
        arrival, timed = 0, []
        for pick, step in moves:
            arrival += step
            timed.append((pick, arrival))
        view, _ = grow(timed)
        for cutoff in range(-1, arrival + 2):
            tip, change = view.visible(cutoff)
            assert tip == view.best_tip(cutoff) and cutoff < change
            for later in range(cutoff + 1, min(change, arrival + 2)):
                assert view.best_tip(later) == tip, (cutoff, later)
            if change == NEVER:
                assert tip == view.best_tip()

    def test_every_path_block_passes_pow(self):
        view, tip = build_chain(10, seed_base=500)
        for block in view.path_blocks(tip, 0, 10):
            assert pow_check(block.header)
