"""Per-layer tracing for the service process, from outside the program.

``install`` wraps the methods each layer exposes -- API handlers, the
ingestion daemon, the store front, the sharded router's frame plane and
the engine class -- with timing wrappers.  Nothing in ``src/`` changes:
the wrappers are set on the classes and modules before the service is
built, and forked shard workers inherit them.

Spans nest per asyncio task (a ``ContextVar`` stack), so a layer's self
time is its duration minus the spans opened inside it.  Hot engine
methods get a lighter wrapper (count and time only) and the timer's own
cost is subtracted from their totals.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict, deque
from contextvars import ContextVar
from typing import Any, Callable

_clock = time.perf_counter_ns
_STACK: ContextVar[list[list[Any]] | None] = ContextVar(
    "perfbench_spans", default=None
)


def _path_kind(path: str) -> str:
    if path.startswith("/query/"):
        return "query"
    return path.strip("/").split("/")[0] or "root"


class Tracer:
    """Span totals (``calls``, ``ns``, ``self_ns``) and plain counters."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.light_bias_ns = self._light_bias()
        self.in_ingest = False
        self.lower_calls = 0  # engine queries + frames: a memo miss's work
        self._fifo: deque[list[int]] = deque()  # [enqueued at ns, items]

    # ------------------------------------------------------------ records

    def _span_done(self, name: str, elapsed: int, child: int) -> None:
        totals = self.totals
        totals[name + ".calls"] += 1
        totals[name + ".ns"] += elapsed
        totals[name + ".self_ns"] += elapsed - child

    def snapshot(self, prefix: str = "") -> dict[str, float]:
        return {k: v for k, v in self.totals.items() if k.startswith(prefix)}

    def mark(self) -> dict[str, float]:
        """Snapshot at the start of the timed rounds.

        The daemon queue is empty here, so queue-wait entries left by the
        warm-up (a batch larger than the queue folds while it is still
        being submitted) are dropped rather than matched to later folds.
        """
        self._fifo.clear()
        return self.snapshot()

    # ---------------------------------------------------------- wrappers

    def span(self, name: str, fn: Callable[..., Any],
             suffix: Callable[[Any], str] | None = None) -> Callable[..., Any]:
        """Wrap ``fn`` in a span that nests per task (see ``tag_root``).

        With ``suffix``, a call that returns ``r`` is recorded as
        ``name.suffix(r)``.
        """

        def enter() -> tuple[list[list[Any]], list[Any]]:
            stack = _STACK.get()
            if stack is None:
                stack = []
                _STACK.set(stack)
            frame: list[Any] = [0, name]
            stack.append(frame)
            return stack, frame

        def leave(stack: list[list[Any]], frame: list[Any], elapsed: int) -> None:
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            self._span_done(frame[1], elapsed, frame[0])

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                stack, frame = enter()
                t0 = _clock()
                try:
                    result = await fn(*args, **kwargs)
                    if suffix is not None:
                        frame[1] = f"{name}.{suffix(result)}"
                    return result
                finally:
                    leave(stack, frame, _clock() - t0)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack, frame = enter()
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
                if suffix is not None:
                    frame[1] = f"{name}.{suffix(result)}"
                return result
            finally:
                leave(stack, frame, _clock() - t0)
        return wrapper

    def light(self, name: str, fn: Callable[..., Any],
              only_in_ingest: bool = False) -> Callable[..., Any]:
        """Count and time ``fn`` without nesting bookkeeping."""
        totals = self.totals
        calls, ns = name + ".calls", name + ".ns"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if only_in_ingest and not self.in_ingest:
                return fn(*args, **kwargs)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[ns] += _clock() - t0
                totals[calls] += 1
        return wrapper

    def _light_bias(self) -> float:
        """ns a light span reports for a call that does nothing.

        Subtracted per call from light-span totals, so a hot method's time
        is its own work rather than the timer's.
        """
        probe = self.light("calibrate", lambda *args: None)
        for _ in range(20000):
            probe(None, 1)
        return self.totals.pop("calibrate.ns") / self.totals.pop("calibrate.calls")

    @staticmethod
    def tag_root(kind: str) -> None:
        """Rename the task's outermost span (the HTTP handler) by route."""
        stack = _STACK.get()
        if stack:
            stack[0][1] = f"api.handle.{kind}"

    # ------------------------------------------------------------ install

    def install(self, engine_cls: type, store_cls: type) -> None:
        from repro.service import api, daemon, ipc, sharded

        for method in ("advance", "add", "add_batch"):
            setattr(engine_cls, method,
                    self.light(f"engine.{method}", getattr(engine_cls, method)))
        engine_query = self.light("engine.query", engine_cls.query)

        def counted_engine_query(engine: Any) -> Any:
            self.lower_calls += 1
            return engine_query(engine)
        engine_cls.query = counted_engine_query

        self._wrap_store(store_cls)

        cls = daemon.IngestDaemon
        submit = self.span("daemon.submit", cls.submit_many)

        async def submit_many(d: Any, items: Any) -> int:
            admitted = await submit(d, items)
            self._fifo.append([_clock(), admitted])
            self.totals["daemon.items"] += admitted
            return admitted
        cls.submit_many = submit_many
        cls.drain = self.span("daemon.drain", cls.drain)

        server = api.ServiceServer
        server._handle = self.span("api.handle.other", server._handle)
        # Request parse and ingest decode are the API's named work on the
        # ack path; what is left in ``_handle`` is unattributed.
        server._read_request = self.span(
            "api.read", server._read_request,
            lambda req: "none" if req is None else _path_kind(req[1]),
        )
        server._http_ingest = self.span("api.decode", server._http_ingest)
        respond = server._respond

        async def tagged_respond(srv: Any, method: str, path: str,
                                 body: bytes) -> bytes:
            # Tagged on return: a request that raises stays "other".
            reply = await respond(srv, method, path, body)
            self.tag_root(_path_kind(path))
            return reply
        server._respond = tagged_respond
        server._ws_dispatch = self.span("api.ws", server._ws_dispatch)
        api._frame = self.light("api.frame", api._frame)

        ipc.encode_frame = self._sized_encode(ipc.encode_frame)
        ipc.decode_frame = self.light("ipc.decode", ipc.decode_frame, True)
        sharded.recv_frame = self.light("router.recv", sharded.recv_frame, True)
        send = sharded.send_frame

        def send_frame(conn: Any, obj: Any) -> None:
            self.lower_calls += 1
            if self.in_ingest:
                self.totals["ipc.frames"] += 1
            send(conn, obj)
        sharded.send_frame = send_frame

        dispatch = sharded._worker_dispatch

        def worker_dispatch(store: Any, frame: Any) -> Any:
            reply = dispatch(store, frame)
            if frame.get("op") == "stats":
                reply["stats"]["perfbench"] = self.snapshot("engine.")
            return reply
        sharded._worker_dispatch = worker_dispatch

    def _sized_encode(self, encode: Callable[..., bytes]) -> Callable[..., bytes]:
        timed = self.light("ipc.encode", encode, True)

        def encode_frame(obj: Any) -> bytes:
            data: bytes = timed(obj)
            if self.in_ingest:
                self.totals["ipc.bytes"] += len(data)
            return data
        return encode_frame

    def _wrap_store(self, store_cls: type) -> None:
        observe = self.span("store.observe", store_cls.observe_batch)
        query = self.span("store.query", store_cls.query)
        totals = self.totals

        def observe_batch(store: Any, items: Any, **kwargs: Any) -> None:
            items = list(items)
            start = _clock()
            need = len(items)
            while need and self._fifo:
                head = self._fifo[0]
                take = min(need, head[1])
                totals["daemon.wait_ns"] += take * max(0, start - head[0])
                totals["daemon.wait_items"] += take
                need -= take
                head[1] -= take
                if not head[1]:
                    self._fifo.popleft()
            self.in_ingest = True
            try:
                observe(store, items, **kwargs)
            finally:
                self.in_ingest = False
                totals["store.observe_items"] += len(items)
                totals["store.buffer_depth_sum"] += len(store._late_heap)

        def store_query(store: Any, key: str, **kwargs: Any) -> Any:
            before = self.lower_calls
            t0 = _clock()
            try:
                return query(store, key, **kwargs)
            finally:
                if self.lower_calls == before:
                    totals["store.memo_hits"] += 1
                else:
                    totals["router.query_miss.calls"] += 1
                    totals["router.query_miss.ns"] += _clock() - t0
        store_cls.observe_batch = observe_batch
        store_cls.query = store_query


def _diff(end: dict[str, float], start: dict[str, float]) -> dict[str, float]:
    return defaultdict(float, {k: v - start.get(k, 0.0) for k, v in end.items()})


def layer_metrics(
    tracer: Tracer,
    local: tuple[dict[str, float], dict[str, float]],
    workers: list[tuple[dict[str, float], dict[str, float]]],
    sharded: bool,
) -> dict[str, float]:
    """Per-layer figures between two snapshots (``(mark, end)`` pairs).

    Engine totals add the local process and every shard worker; per-item
    figures divide by the items submitted to the daemon in that interval.
    """
    t = _diff(local[1], local[0])
    e = defaultdict(float)
    for mark, end in [local] + workers:
        for key, value in _diff(end, mark).items():
            if key.startswith("engine."):
                e[key] += value
    timer = tracer.light_bias_ns

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    def light_ns(name: str) -> float:
        return max(0.0, e[name + ".ns"] - timer * e[name + ".calls"])

    items = t["daemon.items"]
    acks = t["api.handle.ingest.calls"]
    observes = t["store.observe.calls"]
    fold_calls = e["engine.add.calls"] + e["engine.add_batch.calls"]
    fold_ns = light_ns("engine.add") + light_ns("engine.add_batch")
    blocked = t["router.recv.ns"] - t["ipc.decode.ns"]
    metrics = {
        "engine.advance_calls_per_item": per(e["engine.advance.calls"], items),
        "engine.advance_us_per_item": per(light_ns("engine.advance"), items) / 1e3,
        "engine.fold_calls_per_item": per(fold_calls, items),
        "engine.fold_us_per_item": per(fold_ns, items) / 1e3,
        "engine.query_us": per(light_ns("engine.query"),
                               e["engine.query.calls"]) / 1e3,
        "store.observe_us_per_item": per(t["store.observe.ns"], items) / 1e3,
        "store.query_us": per(t["store.query.ns"], t["store.query.calls"]) / 1e3,
        "store.memo_hit_ratio": per(t["store.memo_hits"], t["store.query.calls"]),
        "store.buffer_depth": per(t["store.buffer_depth_sum"], observes),
        "daemon.submit_us_per_item": per(t["daemon.submit.ns"], items) / 1e3,
        "daemon.queue_wait_ms": per(t["daemon.wait_ns"],
                                    t["daemon.wait_items"]) / 1e6,
        "daemon.items_per_fold": per(t["store.observe_items"], observes),
        "api.http_self_ms": per(t["api.handle.query.self_ns"],
                                t["api.handle.query.calls"]) / 1e6,
        "api.ws_self_ms": per(t["api.ws.self_ns"] + t["api.frame.ns"],
                              t["api.ws.calls"]) / 1e6,
        "api.ingest_self_ms": per(t["api.handle.ingest.self_ns"]
                                  + t["api.read.ingest.ns"]
                                  + t["api.decode.self_ns"], acks) / 1e6,
        "router.busy_ms_per_ack": 0.0,
        "router.blocked_ms_per_ack": 0.0,
        "router.query_ms": 0.0,
        "ipc.frames_per_ack": 0.0,
        "ipc.bytes_per_item": 0.0,
        "ipc.encode_us_per_item": 0.0,
        "ipc.decode_us_per_item": 0.0,
    }
    if sharded:
        metrics.update({
            "router.busy_ms_per_ack": per(t["store.observe.ns"] - blocked,
                                          acks) / 1e6,
            "router.blocked_ms_per_ack": per(blocked, acks) / 1e6,
            "router.query_ms": per(t["router.query_miss.ns"],
                                   t["router.query_miss.calls"]) / 1e6,
            "ipc.frames_per_ack": per(t["ipc.frames"], acks),
            "ipc.bytes_per_item": per(t["ipc.bytes"], items),
            "ipc.encode_us_per_item": per(t["ipc.encode.ns"], items) / 1e3,
            "ipc.decode_us_per_item": per(t["ipc.decode.ns"], items) / 1e3,
        })
    # Raw sums the generator needs for the coverage check and the
    # self-time breakdown of the ingest-ack path.  The handler's named
    # spans are the request parse and the ingest decode (which holds the
    # daemon's submit and drain); the handler's own rest is unattributed.
    metrics["_ingest_named_ns"] = t["api.read.ingest.ns"] + t["api.decode.ns"]
    metrics["_acks"] = acks
    engine_ns = (e["engine.advance.ns"] + e["engine.add.ns"]
                 + e["engine.add_batch.ns"])
    path = {
        "unattributed": t["api.handle.ingest.self_ns"],
        "api.read": t["api.read.ingest.ns"],
        "api.decode": t["api.decode.self_ns"],
        "daemon.submit": t["daemon.submit.self_ns"],
        "daemon.wait": t["daemon.drain.ns"] - t["store.observe.ns"],
    }
    if sharded:
        path["router.busy"] = t["store.observe.ns"] - blocked
        path["router.blocked"] = blocked
    else:
        path["store"] = t["store.observe.ns"] - engine_ns
        path["engine"] = engine_ns
    metrics["_ack_path_ms"] = {k: per(v, acks) / 1e6 for k, v in path.items()}
    return metrics
