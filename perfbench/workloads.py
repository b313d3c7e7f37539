"""Workload definitions and the seeded feed that drives them.

The load generator builds every input from ``--seed`` alone: the same seed
gives the same warm-up, the same round batches and the same query keys.
Nothing here imports the program under test; the feed is plain data that
the generator encodes into HTTP and WebSocket requests.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

#: WebSocket client frames must be masked (RFC 6455 5.3); a fixed key keeps
#: the request bytes a pure function of the seed.
WS_MASK = b"\x37\xfa\x21\x3d"


@dataclass(frozen=True)
class Workload:
    """One traffic mix: engine family, key space, feed shape, query mix."""

    name: str
    decay: str  # "expd" (g(a) = exp(-rate * a)) or "polyd" ((a + 1) ** -rate)
    rate: float
    epsilon: float
    keys: int
    items_per_tick: float
    late_share: float  # share of items sent 1..max_late ticks behind
    max_late: int
    max_lateness: int | None  # buffer policy bound; None = sorted feed
    batch: int  # items per POST /ingest
    workers: int | None  # sharded front with this many worker processes
    ws_queries: int  # per round
    http_queries: int  # per round
    distinct_queries: bool  # each round queries distinct keys (memo misses)
    probes: bool  # malformed-request probes each round


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="wide-expd-late", decay="expd", rate=0.05, epsilon=0.1,
            keys=4096, items_per_tick=2.0, late_share=0.1, max_late=8,
            max_lateness=16, batch=256, workers=None,
            ws_queries=16, http_queries=4, distinct_queries=False,
            probes=False,
        ),
        Workload(
            name="dense-wbmh", decay="polyd", rate=1.0, epsilon=0.1,
            keys=16, items_per_tick=64.0, late_share=0.0, max_late=0,
            max_lateness=None, batch=1024, workers=None,
            ws_queries=8, http_queries=4, distinct_queries=True,
            probes=True,
        ),
        Workload(
            name="sharded-expd-late", decay="expd", rate=0.05, epsilon=0.1,
            keys=512, items_per_tick=8.0, late_share=0.1, max_late=8,
            max_lateness=16, batch=256, workers=2,
            ws_queries=16, http_queries=4, distinct_queries=False,
            probes=False,
        ),
    )
}

#: Malformed requests sent each round on workloads with ``probes``.  Each
#: should be answered with a 4xx; a dropped connection counts as failed.
PROBES: tuple[tuple[str, bytes], ...] = (
    (
        "non-integer Content-Length",
        b"POST /ingest HTTP/1.1\r\nHost: bench\r\n"
        b"Content-Length: abc\r\nConnection: close\r\n\r\n",
    ),
    (
        "non-object /ingest body",
        b"POST /ingest HTTP/1.1\r\nHost: bench\r\n"
        b"Content-Length: 5\r\nConnection: close\r\n\r\n[1,2]",
    ),
)

Item = tuple[str, int, float]


def key_name(index: int) -> str:
    return f"k{index:05d}"


def http_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def ingest_request(items: list[Item]) -> bytes:
    body = json.dumps(
        {"items": [{"key": k, "time": t, "value": v} for k, t, v in items]},
        separators=(",", ":"),
    ).encode("utf-8")
    return http_request("POST", "/ingest", body)


def ws_frame(payload: bytes, opcode: int = 0x1) -> bytes:
    """One masked FIN frame (text by default), as a client sends it."""
    head = bytearray([0x80 | opcode])
    if len(payload) < 126:
        head.append(0x80 | len(payload))
    else:
        head.append(0x80 | 126)
        head += len(payload).to_bytes(2, "big")
    head += WS_MASK
    masked = bytes(b ^ WS_MASK[i % 4] for i, b in enumerate(payload))
    return bytes(head) + masked


def ws_query_frame(key: str) -> bytes:
    return ws_frame(json.dumps({"op": "query", "key": key}).encode())


@dataclass
class Round:
    """One timed round: an ingest batch, then WS and HTTP queries."""

    items: list[Item]
    ingest: bytes
    ws_keys: list[str]
    ws_frames: list[bytes]
    http_keys: list[str]
    http_requests: list[bytes]


class Feed:
    """The seeded keyed feed of one workload.

    Keys follow Zipf(1): key ``i`` is written with weight ``1/(i+1)``.  The
    clock moves one tick after an item with probability
    ``1/items_per_tick``, so ticks hold about ``items_per_tick`` items.  A
    ``late_share`` of items is stamped 1..``max_late`` ticks behind the
    newest tick; with ``max_late`` below the buffer's ``max_lateness`` no
    item can be dropped.  Values are uniform on [0, 4) with 3 decimals.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.rng = random.Random(seed)
        self.keys = [key_name(i) for i in range(workload.keys)]
        self.rank = {key: i for i, key in enumerate(self.keys)}
        self.cum = list(
            itertools.accumulate(1.0 / (i + 1) for i in range(workload.keys))
        )
        self.now = 0
        self.sent = 0

    def _value(self) -> float:
        return round(self.rng.random() * 4.0, 3)

    def warmup(self) -> list[Item]:
        """Every key written once at tick 0.

        Under a lateness buffer one more item, ``max_lateness + 1`` ticks
        on, moves the watermark far enough to release tick 0, so every key
        is live before the first timed round.
        """
        items = [(key, 0, self._value()) for key in self.keys]
        bound = self.workload.max_lateness
        if bound is not None:
            self.now = bound + 1
            items.append((self.keys[0], self.now, self._value()))
        self.sent += len(items)
        return items

    def next_round(self) -> Round:
        w = self.workload
        rng = self.rng
        keys = rng.choices(self.keys, cum_weights=self.cum, k=w.batch)
        step = 1.0 / w.items_per_tick
        items: list[Item] = []
        for key in keys:
            when = self.now
            if w.late_share and rng.random() < w.late_share:
                when = max(0, when - rng.randint(1, w.max_late))
            items.append((key, when, self._value()))
            if rng.random() < step:
                self.now += 1
        self.sent += len(items)
        n_queries = w.ws_queries + w.http_queries
        if w.distinct_queries:
            written = sorted(set(keys), key=self.rank.__getitem__)
            weights = [1.0 / (self.rank[k] + 1) for k in written]
            picked: list[str] = []
            while len(picked) < min(n_queries, len(written)):
                key = rng.choices(written, weights=weights)[0]
                if key not in picked:
                    picked.append(key)
            picked += rng.choices(written, k=n_queries - len(picked))
        else:
            picked = rng.choices(self.keys, cum_weights=self.cum, k=n_queries)
        ws_keys = picked[: w.ws_queries]
        http_keys = picked[w.ws_queries:]
        return Round(
            items=items,
            ingest=ingest_request(items),
            ws_keys=ws_keys,
            ws_frames=[ws_query_frame(k) for k in ws_keys],
            http_keys=http_keys,
            http_requests=[http_request("GET", f"/query/{k}") for k in http_keys],
        )
