"""The service under test, as a child process of the load generator.

Usage (from the repository root; ``run.py`` starts it)::

    python3 perfbench/server.py --workload NAME [--trace]

Builds the workload's service stack with ``repro.service.ServiceHarness``,
binds HTTP/WS on a free localhost port and prints ``{"port": N, "pids":
[...]}`` (its own pid and any shard workers').  Then
it reads JSON commands, one per line, on stdin:

* ``{"cmd": "mark"}``  -- start of the timed rounds (traced runs snapshot
  their counters here);
* ``{"cmd": "state"}`` -- ``storage_report().per_stream_bits`` and the
  live key count.

End of stdin ends the run: the daemon queue drains, the lateness buffer
flushes, and one JSON report (store ledgers, peak RSS of the service
processes, unhandled loop errors, per-layer figures) is printed before
the service stops.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from typing import Any

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from repro.core.decay import (  # noqa: E402
    DecayFunction,
    ExponentialDecay,
    PolynomialDecay,
)
from repro.core.interfaces import make_decaying_sum  # noqa: E402
from repro.core.timeorder import OutOfOrderPolicy  # noqa: E402
from repro.service import ServiceStore, ShardedServiceStore  # noqa: E402
from repro.service.loadgen import ServiceHarness  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def _peak_rss_kb(pid: int) -> int:
    """``VmHWM`` (peak resident set) of a process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def decay_of(workload: Workload) -> DecayFunction:
    if workload.decay == "expd":
        return ExponentialDecay(workload.rate)
    return PolynomialDecay(workload.rate)


def build(workload: Workload) -> ServiceHarness:
    policy = (
        None
        if workload.max_lateness is None
        else OutOfOrderPolicy("buffer", max_lateness=workload.max_lateness)
    )
    return ServiceHarness(
        decay_of(workload),
        workload.epsilon,
        policy=policy,
        workers=workload.workers,
    )


class Service:
    def __init__(self, workload: Workload, trace: bool) -> None:
        self.workload = workload
        self.tracer: Tracer | None = None
        if trace:
            self.tracer = Tracer()
            engine = make_decaying_sum(decay_of(workload), workload.epsilon)
            self.tracer.install(
                type(engine),
                ShardedServiceStore if workload.workers else ServiceStore,
            )
        self.harness = build(workload)
        self.unhandled: dict[str, int] = {}
        self.first_unhandled: dict[str, str] = {}
        self.marks: tuple[dict[str, float], list[dict[str, float]]] | None = None

    def _on_loop_error(self, loop: Any, context: dict[str, Any]) -> None:
        exc = context.get("exception")
        name = type(exc).__name__ if exc is not None else "error"
        self.unhandled[name] = self.unhandled.get(name, 0) + 1
        self.first_unhandled.setdefault(
            name, repr(exc) if exc is not None else str(context.get("message"))
        )

    def _worker_counters(self) -> list[dict[str, float]]:
        if not self.workload.workers:
            return []
        return [
            w.get("perfbench", {})
            for w in self.harness.store.stats()["per_worker"]
        ]

    def _command(self, cmd: str) -> dict[str, Any]:
        store = self.harness.store
        if cmd == "mark":
            if self.tracer is not None:
                self.marks = (self.tracer.mark(), self._worker_counters())
            return {"ok": True}
        if cmd == "state":
            return {
                "bits": store.storage_report().per_stream_bits,
                "keys": store.stats()["keys"],
            }
        return {"error": f"unknown command {cmd!r}"}

    def _pids(self) -> list[int]:
        """This process and any shard workers: the service's processes."""
        store = self.harness.store
        pids = [os.getpid()]
        if isinstance(store, ShardedServiceStore):
            pids += store.worker_pids()
        return pids

    def _layers(self) -> dict[str, Any] | None:
        """Per-layer figures since ``mark`` (traced runs only)."""
        if self.tracer is None or self.marks is None:
            return None
        return layer_metrics(
            self.tracer,
            (self.marks[0], self.tracer.snapshot()),
            list(zip(self.marks[1], self._worker_counters())),
            bool(self.workload.workers),
        )

    async def _finish(self) -> dict[str, Any]:
        """Drain, flush the lateness buffer and report.

        Layer counters are read before the flush, so they cover the timed
        rounds only.
        """
        harness = self.harness
        await harness.daemon.drain()
        layers = self._layers()
        harness.store.flush()
        stats = harness.store.stats()
        report: dict[str, Any] = {
            "stats": {k: v for k, v in stats.items() if k != "per_worker"},
            "rss_kb": [_peak_rss_kb(pid) for pid in self._pids()],
            "unhandled": self.unhandled,
            "first_unhandled": self.first_unhandled,
            "daemon": harness.daemon.stats(),
        }
        if layers is not None:
            report["layers"] = layers
        return report

    async def serve(self) -> None:
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(self._on_loop_error)
        harness = self.harness
        await harness.start()
        try:
            hello = {"port": harness.port, "pids": self._pids()}
            print(json.dumps(hello), flush=True)
            reader = asyncio.StreamReader()
            await loop.connect_read_pipe(
                lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
            )
            while line := await reader.readline():
                reply = self._command(json.loads(line)["cmd"])
                print(json.dumps(reply), flush=True)
            print(json.dumps(await self._finish()), flush=True)
        finally:
            await harness.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    asyncio.run(Service(WORKLOADS[args.workload], args.trace).serve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
