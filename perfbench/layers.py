"""Per-layer metrics from the spans of the traced passes.

A span belongs to a pass when it carries the trace id of one of the
pass's crypto requests, or carries none (accepts, connects, key
teardown) and starts inside the pass's window.  Times are medians per
call unless the name says otherwise; counts are per crypto request.
A layer the workload never calls reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from spans import Span

NAME, START, END, SID, PARENT, TRACE, AMOUNT = range(7)

#: Count metric -> (span names, whether to sum ``amount`` instead of
#: counting spans).  These must repeat exactly between passes.
COUNTS: Dict[str, Tuple[Tuple[str, ...], bool]] = {
    "engine.blocks": (("engine.encrypt_blocks",), True),
    "ghash.blocks": (("ghash.digest", "ghash.first_digest"), True),
    "cipher.golden_blocks": (("cipher.encrypt_block",
                              "cipher.decrypt_block"), False),
    "cipher.key_expansions": (("cipher.key_expansion",), False),
    "backend.key_expansions": (("backend.expand_key",), False),
    "client.connects": (("client.connect",), False),
    "server.accepts": (("server.accept",), False),
}

#: Per-call median durations, microseconds.
CALL_MEDIANS_US = {
    "protocol.write_frame_us": "server.write_frame",
    "client.write_frame_us": "client.write_frame",
    "server.queue_wait_us": "serve.queue_wait",
    "server.request_us": "serve.request",
    "backend.call_us": "backend.encrypt_blocks",
    "modes.ecb_decrypt_us": "modes.ecb_decrypt",
    "modes.ctr_xcrypt_us": "modes.ctr_xcrypt",
    "modes.ecb_encrypt_us": "modes.ecb_encrypt",
    "modes.gcm_encrypt_us": "modes.gcm_encrypt",
    "modes.gcm_decrypt_us": "modes.gcm_decrypt",
    "ghash.digest_us": "ghash.digest",
}

#: Self-time medians, microseconds: span names -> the child names
#: whose time is taken out.
SELF_MEDIANS_US = {
    "gcm.fixed_us": (("modes.gcm_encrypt", "modes.gcm_decrypt"),
                     ("engine.gctr", "ghash.digest",
                      "ghash.first_digest")),
    "engine.counters_us": (("engine.keystream", "engine.gctr"),
                           ("engine.encrypt_blocks",)),
    "engine.xor_us": (("engine.xcrypt_ctr",), ("engine.keystream",)),
}

MODE_SPANS = ("modes.ecb_encrypt", "modes.ecb_decrypt",
              "modes.ctr_xcrypt", "modes.gcm_encrypt",
              "modes.gcm_decrypt")


@dataclass(frozen=True)
class Pass:
    """One pass of whole cycles: its span window, its busy time and
    its crypto-request count."""

    start: float
    end: float
    #: Seconds from the first request sent to the last reply.
    busy: float
    requests: int


def _median_us(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) * 1e6 if values else 0.0


def _duration(span: Span) -> float:
    return span[END] - span[START]


def select(spans: Sequence[Span], window: Pass) -> List[Span]:
    """The spans of one pass (see the module docstring)."""
    traces: Set[int] = {
        s[TRACE] for s in spans
        if s[NAME] == "server.op" and s[TRACE]
        and window.start <= s[START] <= window.end}
    return [s for s in spans
            if (s[TRACE] in traces if s[TRACE]
                else window.start <= s[START] <= window.end)]


def counts(spans: Sequence[Span]) -> Dict[str, int]:
    """Raw totals behind :data:`COUNTS` plus round-key lookups."""
    totals = {}
    for metric, (names, by_amount) in COUNTS.items():
        totals[metric] = sum(s[AMOUNT] if by_amount else 1
                             for s in spans if s[NAME] in names)
    totals["backend.roundkey_lookups"] = sum(
        1 for s in spans if s[NAME] == "backend.roundkey_lookup")
    return totals


def _self_times(spans: Sequence[Span], names: Tuple[str, ...],
                minus: Tuple[str, ...]) -> List[float]:
    child_time: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s[NAME] in minus and s[PARENT]:
            child_time[s[PARENT]] += _duration(s)
    return [_duration(s) - child_time[s[SID]]
            for s in spans if s[NAME] in names]


def _dispatch(spans: Sequence[Span]) -> List[float]:
    """``serve.execute`` minus the mode-layer call, per request."""
    mode_time = {s[TRACE]: _duration(s) for s in spans
                 if s[NAME] in MODE_SPANS}
    return [_duration(s) - mode_time[s[TRACE]] for s in spans
            if s[NAME] == "serve.execute" and s[TRACE] in mode_time]


def _union(intervals: List[Tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def unattributed_pct(spans: Sequence[Span]) -> float:
    """Share of the client round trip that no span covers.

    Both frame reads begin by waiting for bytes the peer has not sent
    yet, so each counts only from the moment its peer started
    writing: the server's read from the end of the client's write,
    the client's read from the start of the server's write.
    """
    by_trace: Dict[int, Dict[str, Span]] = defaultdict(dict)
    rest: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s[TRACE]:
            by_trace[s[TRACE]][s[NAME]] = s
            rest[s[TRACE]].append(s)
    total = uncovered = 0.0
    for trace, named in by_trace.items():
        trip = named.get("request")
        if trip is None or "server.op" not in named:
            continue
        lo, hi = trip[START], trip[END]
        floors = {}
        if "client.write_frame" in named:
            floors["server.read_frame"] = \
                named["client.write_frame"][END]
        if "server.write_frame" in named:
            floors["client.read_frame"] = \
                named["server.write_frame"][START]
        intervals = []
        for s in rest[trace]:
            if s is trip:
                continue
            start = max(s[START], floors.get(s[NAME], s[START]), lo)
            end = min(s[END], hi)
            if end > start:
                intervals.append((start, end))
        total += hi - lo
        uncovered += (hi - lo) - _union(intervals)
    return 100.0 * uncovered / total if total else 0.0


def first_digest_us(spans: Sequence[Span]) -> float:
    """Median first digest under a new subkey over all of ``spans``.

    Taken over the traced server's whole life, not just the pass
    windows: warm workloads build their tables in the warm-up cycle,
    which would otherwise leave nothing to time.
    """
    return _median_us(_duration(s) for s in spans
                      if s[NAME] == "ghash.first_digest")


def per_layer(spans: Sequence[Span], requests: int
              ) -> Dict[str, float]:
    """Every span-derived per-layer metric over ``spans`` (the
    selected spans of all passes), ``requests`` crypto requests."""
    metrics: Dict[str, float] = {}
    for metric, name in CALL_MEDIANS_US.items():
        metrics[metric] = _median_us(
            _duration(s) for s in spans if s[NAME] == name)
    for metric, (names, minus) in SELF_MEDIANS_US.items():
        metrics[metric] = _median_us(_self_times(spans, names, minus))
    metrics["server.dispatch_us"] = _median_us(_dispatch(spans))
    backend = [s for s in spans if s[NAME] == "backend.encrypt_blocks"]
    blocks = sum(s[AMOUNT] for s in backend)
    metrics["backend.block_ns"] = (
        sum(map(_duration, backend)) / blocks * 1e9 if blocks else 0.0)
    golden = [s for s in spans if s[NAME].startswith("cipher.")]
    metrics["cipher.golden_us"] = (
        sum(map(_duration, golden)) / requests * 1e6)
    totals = counts(spans)
    for metric in COUNTS:
        metrics[metric] = totals[metric] / requests
    lookups = totals["backend.roundkey_lookups"]
    metrics["backend.roundkey_hit_ratio"] = (
        1.0 - totals["backend.key_expansions"] / lookups
        if lookups else 0.0)
    metrics["trace.unattributed_pct"] = unattributed_pct(spans)
    return metrics
