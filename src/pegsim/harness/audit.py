"""Trace auditor: machine-checks the economic invariants over a full run.

The audit is trace-only: it rebuilds running supplies, backing and burn
queues from payloads and cross-checks them against every event's snapshot,
so a corrupted event is flagged at its exact sequence number even when its
own snapshot was doctored to match.  A bridge leaves its queue once a burn
takes its last minted DOGE, or when it closes.  An unlock of a burn the
trace never holds is a parse error.  An event the runner records after no
contract change (SNAPSHOT_COPIES) must carry the snapshot of the one before it.
One whose agg and digest equal that event's holds a state already checked
there, so only its field types and payload are checked; one that differs is
flagged and checked in full.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from ..errors import ParseError

# a rational written as text, in a config or a trace: n or n/d in decimal digits, as str(Fraction) writes it
RATIONAL = re.compile(r"[0-9]+(/[0-9]+)?")

# the event kinds the runner records after no contract change: each carries the snapshot, agg and digest,
# of the event before it (in a run's own trace, the same objects)
SNAPSHOT_COPIES = frozenset({"doge_block", "doge_tx", "action_rejected", "run_summary"})

# event kinds allowed to change the relay mode, per the state machine
_MODE_CHANGERS = {"submit", "accept", "challenge_commitment", "challenge_range_replaced"}

# payload fields, and their types, of the event kinds the audit reconstructs or reads
_PAYLOAD_FIELDS = {
    "mint": {"y": str, "minted": int, "bridge_id": int},
    "burn": {"y": str, "burn_id": int, "portions": list},
    "unlock_settled": {"burn_id": int, "owed": int, "escrow_refund": int},
    "unlock_timeout": {"burn_id": int, "payouts": list},
    "missing_doge_paid": {"y": str, "burned": int, "eth": int, "bridge_id": int},
    "bridge_closed": {"bridge_id": int},
    "burn_settled": {"y": str, "w": int, "d_recv": int, "eth_received": int},
    "genesis": {"tags": list},
    "run_summary": {"tags": list, "quiescent": bool, "supply": dict, "locked_on_best": dict},
}

# snapshot fields, and their types, that the audit reads; every event must carry each one
_AGG_FIELDS = {"supply": dict, "backing": dict, "held": int, "received": int, "paid": int, "relay_mode": str,
               "used_tx_count": int, "queues": dict}


@dataclass
class Violation:
    seq: int
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"seq {self.seq}: [{self.rule}] {self.detail}"


@dataclass
class AuditReport:
    violations: List[Violation] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    events: int = 0
    burns_checked: int = 0
    rejected_actions: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def flag(self, seq: int, rule: str, detail: str) -> None:
        self.violations.append(Violation(seq, rule, detail))


def _require(obj: dict, key: str, typ: type, where: str) -> object:
    if key not in obj:
        raise ParseError(f"{where} missing {key!r}")
    value = obj[key]
    if not isinstance(value, typ) or (typ is int and isinstance(value, bool)):
        raise ParseError(f"{where} field {key!r} is not {typ.__name__}: {value!r}")
    return value


def _rate(text: str, where: str) -> Fraction:
    """A rate as the runner writes it (RATIONAL)."""
    if not RATIONAL.fullmatch(text):
        raise ParseError(f"{where}: rate {text!r} is not n or n/d")
    return Fraction(text)


def audit(events: List[dict]) -> AuditReport:
    """Re-check every event of a trace; returns the violation report.

    Raises ParseError when an event lacks a field its kind needs or holds a
    value of the wrong type.
    """
    report = AuditReport()
    if not events:
        report.warnings.append("EmptyTrace")
        return report
    try:
        _check_events(events, report)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed event {report.events - 1}: {type(exc).__name__}: {exc}") from exc
    return report


def _check_events(events: List[dict], report: AuditReport) -> None:
    supply: Dict[str, int] = {}
    backing: Dict[str, int] = {}
    queues: Dict[str, List[int]] = {}
    shown: Dict[str, List[int]] = {}  # the queues that are not empty, as a snapshot lists them
    capacity: Dict[int, int] = {}  # each minted bridge's DOGE not yet burned
    burn_y: Dict[int, str] = {}
    prev_seq = -1
    prev: Optional[dict] = None
    prev_mode: Optional[str] = None
    prev_used = 0
    tags: List[str] = []

    for event in events:
        if not isinstance(event, dict):
            raise ParseError(f"not an event object: {event!r}")
        seq = _require(event, "seq", int, "event")
        where = f"event {seq}"
        kind = _require(event, "kind", str, where)
        agg = _require(event, "agg", dict, where)
        _require(event, "digest", str, where)
        payload = event.get("payload", {})
        report.events += 1
        for key, typ in _AGG_FIELDS.items():
            if type(agg[key]) is not typ:  # read by index: a missing field is a KeyError, so a ParseError
                _require(agg, key, typ, f"{where} agg")
        for key, typ in _PAYLOAD_FIELDS.get(kind, {}).items():
            _require(payload, key, typ, f"{kind} event {seq}")

        if seq != prev_seq + 1:
            report.flag(seq, "SeqOrder", f"expected seq {prev_seq + 1}")
        prev_seq = seq

        copied = False  # a copy equal to the event before it holds a state already checked there
        if kind in SNAPSHOT_COPIES:  # a first event has no snapshot before it to copy
            differs = [key for key in ("agg", "digest") if prev is None or event[key] != prev[key]]
            for key in differs:
                report.flag(seq, "SnapshotCopy", f"{key} is not the previous event's")
            copied = not differs
        prev = event

        if kind == "genesis":
            tags = payload["tags"]
        if kind == "action_rejected":
            report.rejected_actions += 1
        if copied:  # the running ledgers move only on contract kinds, so its checks would repeat that event's
            continue

        # -- per-event Invariant 1 and ETH conservation from the snapshot ----
        for y_str, n in agg["supply"].items():
            y = _rate(y_str, f"event {seq} agg.supply")
            if Fraction(n, 1) != y * agg["backing"].get(y_str, 0):
                report.flag(seq, "Invariant1",
                            f"supply[{y_str}]={n} != y*backing={y * agg['backing'].get(y_str, 0)}")
        if agg["received"] != agg["paid"] + agg["held"]:
            report.flag(seq, "EthConservation",
                        f"received {agg['received']} != paid {agg['paid']} + held {agg['held']}")

        # -- delta reconstruction ------------------------------------------
        if kind == "mint":
            y_str = payload["y"]
            k = int(1 / _rate(y_str, f"mint event {seq}"))
            supply[y_str] = supply.get(y_str, 0) + payload["minted"]
            backing[y_str] = backing.get(y_str, 0) + payload["minted"] * k
            queues.setdefault(y_str, []).append(payload["bridge_id"])
            capacity[payload["bridge_id"]] = payload["minted"]
        elif kind == "burn":
            y_str = payload["y"]
            burn_y[payload["burn_id"]] = y_str
            q = queues.get(y_str, [])
            touched = [p[0] for p in payload["portions"]]
            if q[: len(touched)] != touched:
                report.flag(seq, "FIFO", f"burn touched {touched}, queue front was {q[:len(touched)]}")
            for bid, owed, _ in payload["portions"]:
                capacity[bid] = capacity.get(bid, 0) - owed
            queues[y_str] = [b for b in q if b not in touched or capacity[b] > 0]
        elif kind in ("unlock_settled", "unlock_timeout"):
            y_str = burn_y[payload["burn_id"]]
            settled = payload["payouts"] if kind == "unlock_timeout" else \
                [[None, payload["owed"], payload["escrow_refund"]]]
            for _, owed, escrow in settled:
                supply[y_str] = supply.get(y_str, 0) - owed
                backing[y_str] = backing.get(y_str, 0) - escrow
        elif kind == "missing_doge_paid":
            y_str = payload["y"]
            supply[y_str] = supply.get(y_str, 0) - payload["burned"]
            backing[y_str] = backing.get(y_str, 0) - payload["eth"]
            capacity[payload["bridge_id"]] = capacity.get(payload["bridge_id"], 0) - payload["burned"]
        elif kind == "bridge_closed":
            queues = {y_str: [b for b in q if b != payload["bridge_id"]] for y_str, q in queues.items()}

        if kind in ("mint", "burn", "bridge_closed"):
            shown = {y_str: q for y_str, q in queues.items() if q}
        if agg["queues"] != shown:
            report.flag(seq, "QueueDelta", f"running queues {shown} vs snapshot {agg['queues']}")
        for y_str, n in supply.items():
            if agg["supply"].get(y_str, 0) != n:
                report.flag(seq, "SupplyDelta",
                            f"running supply[{y_str}]={n} vs snapshot {agg['supply'].get(y_str, 0)}")
            if agg["backing"].get(y_str, 0) != backing.get(y_str, 0):
                report.flag(seq, "BackingDelta",
                            f"running backing[{y_str}]={backing.get(y_str, 0)} vs snapshot "
                            f"{agg['backing'].get(y_str, 0)}")

        # -- Invariant 2 per completed burn ----------------------------------
        if kind == "burn_settled":
            report.burns_checked += 1
            w, d, eth = payload["w"], payload["d_recv"], payload["eth_received"]
            y = _rate(payload["y"], f"burn_settled event {seq}")
            if not 0 <= d <= w:
                report.flag(seq, "Invariant2", f"d_recv {d} outside [0, {w}]")
            if Fraction(eth, 1) != Fraction(w - d, 1) / y:
                report.flag(seq, "Invariant2", f"eth {eth} != (w-d)/y = {Fraction(w - d, 1) / y}")

        # -- relay mode discipline -------------------------------------------
        mode = agg["relay_mode"]
        if prev_mode is not None and mode != prev_mode and kind not in _MODE_CHANGERS:
            report.flag(seq, "ModeExclusivity", f"{prev_mode} -> {mode} via {kind}")
        prev_mode = mode

        # -- used transactions only grow --------------------------------------
        used = agg["used_tx_count"]
        if used < prev_used:
            report.flag(seq, "UsedTxMonotone", f"{prev_used} -> {used}")
        prev_used = used

    # -- end-state Invariant 3 for tagged scenarios ---------------------------
    last = events[-1]
    if last.get("kind") == "run_summary":
        summary = last["payload"]
        # genesis and the summary both carry the scenario's tags, and each field was required in the loop
        if "rational_rate_ge_y" in [*tags, *summary["tags"]]:
            if not summary["quiescent"]:
                report.flag(last["seq"], "Invariant3", "scenario tagged rational_rate_ge_y did not end quiescent")
            else:
                locked = summary["locked_on_best"]
                for y_str, n in summary["supply"].items():
                    if locked.get(y_str, 0) != n:
                        report.flag(last["seq"], "Invariant3",
                                    f"locked[{y_str}]={locked.get(y_str, 0)} != supply {n}")
    else:
        report.warnings.append("NoRunSummary")
