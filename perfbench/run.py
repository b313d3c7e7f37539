"""End-to-end service benchmark: one workload, one seed, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload wide-expd-late --seed 1 \\
        --seconds 20 --trace 0

The load generator (this process) starts the service (``server.py``) as a
child process and drives it closed-loop over HTTP and WebSocket.  Each
timed round is one ``POST /ingest`` batch (the ack means the batch is
admitted and queryable), WebSocket queries, one-shot HTTP queries and, on
workloads that carry them, malformed-request probes.  Every answer is
checked against exact decayed sums the generator computes from its own
inputs (``oracle.py``).

Latencies are reported in units of a fixed CPU job (``Reference``) timed
on the same CPU just before each round: on a shared machine the speed of
a CPU swings by tens of percent over seconds, and the ratio cancels that
swing.  The raw milliseconds are printed too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
rounds on a traced service and then untraced, and reports per-layer
figures plus the tracing overhead.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any

import oracle
from client import WebSocket, http_json, http_roundtrip
from workloads import (
    PROBES,
    WORKLOADS,
    Feed,
    Workload,
    http_request,
    ingest_request,
)

HERE = os.path.dirname(os.path.abspath(__file__))

#: Launches per run: ``setup_s`` is the median of their set-up times.  All
#: but the last are set up and stopped; the last runs the timed rounds.
SETUP_TRIALS = 7
#: ``state_bits_per_key`` is read when the service has done this many
#: rounds, so it does not depend on how many rounds a run manages; every
#: run does at least this many rounds.
STATE_ROUND = 16
#: Seconds to wait for the service process to answer on its control pipe.
CONTROL_TIMEOUT_S = 60.0
#: The service may use at most this share of the CPU while the reference
#: job runs; more would slow the reference and flatter every ratio, so the
#: reference is timed again, up to ``REF_TRIES`` times in all.
MAX_IDLE_CPU_SHARE = 0.05
REF_TRIES = 3
#: The named server spans along the ingest-ack path (request parse and
#: ingest decode, which hold the daemon, store and engine spans) must cover
#: this share of the client-measured ack time, or the trace is missing a
#: layer.
MIN_COVERAGE = 0.9

#: Query round trips are printed but not reported here: their medians moved
#: by up to a quarter between runs, in the ``ref`` unit too (see README).
END_TO_END_UNITS = {
    "setup_s": "s",
    "ingest_items_per_ref": "1/ref",
    "ingest_ack_p50_ref": "ref",
    "state_bits_per_key": "bits",
    "rss_peak_mb": "MB",
}

PER_LAYER_UNITS = {
    "engine.advance_calls_per_item": "count",
    "engine.advance_us_per_item": "us",
    "engine.fold_calls_per_item": "count",
    "engine.fold_us_per_item": "us",
    "engine.query_us": "us",
    "store.observe_us_per_item": "us",
    "store.query_us": "us",
    "store.memo_hit_ratio": "ratio",
    "store.buffer_depth": "count",
    "daemon.submit_us_per_item": "us",
    "daemon.queue_wait_ms": "ms",
    "daemon.items_per_fold": "count",
    "api.http_self_ms": "ms",
    "api.ws_self_ms": "ms",
    "api.ingest_self_ms": "ms",
    "api.request_bytes_per_item": "bytes",
    "router.busy_ms_per_ack": "ms",
    "router.blocked_ms_per_ack": "ms",
    "router.query_ms": "ms",
    "ipc.frames_per_ack": "count",
    "ipc.bytes_per_item": "bytes",
    "ipc.encode_us_per_item": "us",
    "ipc.decode_us_per_item": "us",
    "trace.ack_coverage": "ratio",
    "trace.ack_overhead": "ratio",
}


class BenchError(RuntimeError):
    """The run cannot go on (service died, protocol broke)."""


class Reference:
    """A fixed pure-Python job that shows how fast this CPU runs now.

    It walks a dict of 4,096 small objects doing float math four times,
    like the store's per-key loop, in about 2-3 ms.  Its duration is the
    unit ``ref`` of the end-to-end latencies.
    """

    class _Cell:
        __slots__ = ("x",)

        def __init__(self) -> None:
            self.x = 1.0

        def step(self, k: int) -> None:
            self.x *= 0.95**k

    def __init__(self) -> None:
        self.cells = {f"r{i:05d}": self._Cell() for i in range(4096)}

    def measure(self) -> int:
        t0 = time.perf_counter_ns()
        for _ in range(4):
            for cell in self.cells.values():
                cell.step(1)
        return time.perf_counter_ns() - t0


class ServiceProcess:
    """The service child: launch, control commands, final report, kill."""

    def __init__(self, workload: Workload, trace: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        env["PYTHONHASHSEED"] = "0"
        argv = [sys.executable, os.path.join(HERE, "server.py"),
                "--workload", workload.name]
        if trace:
            argv.append("--trace")
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            start_new_session=True,
        )
        self._buf = b""
        try:
            hello = self._readline()
        except BaseException:
            self.kill()
            raise
        self.port = int(hello["port"])
        self.pids = [int(pid) for pid in hello["pids"]]

    def _readline(self) -> dict[str, Any]:
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + CONTROL_TIMEOUT_S
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise BenchError("service process stopped answering")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise BenchError(
                    f"service process exited (code {self.proc.poll()})"
                )
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return json.loads(line)

    def command(self, cmd: str) -> dict[str, Any]:
        assert self.proc.stdin is not None
        self.proc.stdin.write(json.dumps({"cmd": cmd}).encode() + b"\n")
        self.proc.stdin.flush()
        return self._readline()

    def cpu_ns(self) -> int:
        """CPU time used so far by every thread of the service processes."""
        total = 0
        for pid in self.pids:
            paths = glob.glob(f"/proc/{pid}/task/*/schedstat")
            if not paths:
                raise BenchError(f"no schedstat for service pid {pid}")
            for path in paths:
                try:
                    with open(path, encoding="ascii") as stat:
                        total += int(stat.read().split()[0])
                except (OSError, ValueError, IndexError):
                    continue  # a thread that just ended
        return total

    def finish(self) -> dict[str, Any]:
        """End the run: the service drains, reports and exits."""
        assert self.proc.stdin is not None
        self.proc.stdin.close()
        report = self._readline()
        try:
            self.proc.wait(timeout=CONTROL_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("service process did not exit") from exc
        return report

    def kill(self) -> None:
        """Stop the service and its shard workers (one process group)."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the service and its workers have all exited
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


def launch(workload: Workload, trace: bool,
           warmup: bytes, warm_items: int) -> tuple[ServiceProcess, float]:
    """Start the service and ingest the warm-up: ``(service, setup_s)``."""
    t0 = time.perf_counter()
    svc = ServiceProcess(workload, trace)
    try:
        status, body, _ = http_json(svc.port, warmup)
        if status != 200 or body.get("accepted") != warm_items:
            raise BenchError(f"warm-up ingest refused: {status} {body}")
        status, body, _ = http_json(svc.port, http_request("GET", "/healthz"))
        if status != 200:
            raise BenchError(f"/healthz answered {status}")
    except BaseException:
        svc.kill()
        raise
    return svc, time.perf_counter() - t0


@dataclass
class Drive:
    """What the service saw over the timed rounds.

    ``*_ns`` are raw round trips; ``*_ref`` divide each by the reference
    job timed just before its round.
    """

    rounds: int = 0
    items: int = 0
    request_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    ref_ns: list[int] = field(default_factory=list)
    idle_cpu_ns: int = 0
    ref_retimed: int = 0
    ack_ns: list[int] = field(default_factory=list)
    ws_ns: list[int] = field(default_factory=list)
    http_ns: list[int] = field(default_factory=list)
    ack_ref: list[float] = field(default_factory=list)
    ws_ref: list[float] = field(default_factory=list)
    http_ref: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    probe_failures: dict[str, int] = field(default_factory=dict)
    state: dict[str, Any] = field(default_factory=dict)
    setup_s: float = 0.0
    report: dict[str, Any] = field(default_factory=dict)
    checked: int = 0

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)


def drive(workload: Workload, seed: int, trace: bool,
          seconds: float | None, rounds: int | None) -> Drive:
    """Launch the service and drive it for ``seconds`` (at least
    ``STATE_ROUND`` rounds), or for exactly ``rounds`` rounds.

    The warm-up the service ingests at launch is its feed's first batch;
    the oracle sees it too.  After the rounds the service flushes and its
    ledgers are checked against what was sent.
    """
    eps = None if workload.decay == "expd" else workload.epsilon
    out = Drive()
    reference = Reference()
    feed = Feed(workload, seed)
    sums = oracle.ExactSums(workload.decay, workload.rate)
    warm = feed.warmup()
    for key, when, value in warm:
        sums.add(key, when, value)
    svc, out.setup_s = launch(workload, trace, ingest_request(warm), len(warm))
    try:
        ws = WebSocket(svc.port)
        try:
            svc.command("mark")
            deadline = (None if seconds is None
                        else time.perf_counter() + seconds)
            while True:
                if rounds is not None and out.rounds >= rounds:
                    break
                if (deadline is not None and out.rounds >= STATE_ROUND
                        and time.perf_counter() >= deadline):
                    break
                ref = _time_reference(reference, svc, out)
                _round(workload, feed, sums, svc.port, ws, ref, out, eps)
                out.rounds += 1
                if out.rounds == STATE_ROUND:
                    out.state = svc.command("state")
        finally:
            ws.close()
        out.report = svc.finish()
    finally:
        svc.kill()
    _check_ledgers(out, out.report, feed.sent)
    unhandled = sum(out.report["unhandled"].values())
    if unhandled != out.failed:
        out.error(
            f"{unhandled} unhandled service errors for {out.failed} failed "
            f"probes: {out.report['first_unhandled']}"
        )
    return out


def setup_trial(workload: Workload, seed: int) -> float:
    """Launch the service, ingest the warm-up, stop it: ``setup_s``."""
    warm = Feed(workload, seed).warmup()
    svc, setup = launch(workload, False, ingest_request(warm), len(warm))
    svc.kill()
    return setup


def _time_reference(reference: Reference, svc: ServiceProcess,
                    out: Drive) -> int:
    """Time the reference job while the service is idle.

    A timing during which the service used more than
    ``MAX_IDLE_CPU_SHARE`` of the CPU is dropped and taken again; the last
    try counts whatever it saw.
    """
    for _ in range(REF_TRIES):
        busy = svc.cpu_ns()
        ref = reference.measure()
        idle = svc.cpu_ns() - busy
        if idle <= MAX_IDLE_CPU_SHARE * ref:
            break
        out.ref_retimed += 1
    out.idle_cpu_ns += idle
    out.ref_ns.append(ref)
    return ref


def _round(workload: Workload, feed: Feed, sums: oracle.ExactSums,
           port: int, ws: WebSocket, ref: int, out: Drive,
           eps: float | None) -> None:
    """One timed round on one service, then its answers are checked."""
    rnd = feed.next_round()
    for key, when, value in rnd.items:
        sums.add(key, when, value)
    status, body, ns = http_json(port, rnd.ingest)
    out.attempted += 1
    out.ack_ns.append(ns)
    out.ack_ref.append(ns / ref)
    out.items += len(rnd.items)
    out.request_bytes += len(rnd.ingest)
    if status != 200 or body.get("accepted") != len(rnd.items):
        out.error(f"ingest answered {status} {body}")
    answers: list[tuple[str, dict[str, Any]]] = []
    for key, frame in zip(rnd.ws_keys, rnd.ws_frames):
        payload, ns = ws.request(frame)
        out.attempted += 1
        out.ws_ns.append(ns)
        out.ws_ref.append(ns / ref)
        answers.append((key, json.loads(payload)))
    for key, request in zip(rnd.http_keys, rnd.http_requests):
        status, body, ns = http_json(port, request)
        out.attempted += 1
        out.http_ns.append(ns)
        out.http_ref.append(ns / ref)
        if status != 200:
            out.error(f"GET /query/{key} answered {status} {body}")
        answers.append((key, body))
    if workload.probes:
        for name, request in PROBES:
            status, _, _ = http_roundtrip(port, request)
            out.attempted += 1
            if not 400 <= status < 500:
                out.failed += 1
                out.probe_failures[name] = out.probe_failures.get(name, 0) + 1
    for key, answer in answers:
        _check(out, sums, key, answer, eps)


def _check(out: Drive, sums: oracle.ExactSums, key: str,
           answer: dict[str, Any], eps: float | None) -> None:
    if answer.get("key") != key or "time" not in answer:
        out.error(f"answer for {key!r} is {answer}")
        return
    exact = sums.exact(key, int(answer["time"]))
    problem = oracle.check_answer(answer, exact, eps)
    if problem is not None:
        out.error(f"{key}@{answer['time']}: {problem}")
    elif out.checked == 0:
        # The checks must reject this very answer once perturbed.
        spread = 2 * (eps or 0.0) + 1e-6
        bad = dict(answer, value=exact * (1 + spread) + 1e-6)
        if oracle.check_answer(bad, exact, eps) is None:
            out.error("a perturbed served answer passed the checks")
    out.checked += 1


def _check_ledgers(out: Drive, report: dict[str, Any], sent: int) -> None:
    stats = report["stats"]
    if stats["ingested_items"] != sent:
        out.error(f"ingested_items {stats['ingested_items']} != sent {sent}")
    for ledger in ("dropped_count", "evicted_keys", "buffered"):
        if stats[ledger]:
            out.error(f"{ledger} = {stats[ledger]} after flush")
    if report["daemon"]["fold_errors"]:
        out.error(f"daemon fold errors: {report['daemon']}")


def quantile(samples: list[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1])."""
    ordered = sorted(samples)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def tail(samples: list[float], scale: float, unit: str) -> str:
    """Median and the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    text = f"n={n} p50={statistics.median(samples) / scale:.4f}{unit}"
    for pct in (99.9, 99.0, 95.0, 90.0):
        if n >= 40 and n * (1 - pct / 100) >= 10:
            value = quantile(samples, pct / 100) / scale
            return text + f" p{pct:g}={value:.4f}{unit}"
    return text


def log(message: str) -> None:
    print(message, flush=True)


def log_latencies(out: Drive) -> None:
    log(f"reference job: median {statistics.median(out.ref_ns) / 1e6:.4f}ms "
        f"over {len(out.ref_ns)} rounds, service idle CPU "
        f"{out.idle_cpu_ns / sum(out.ref_ns):.2%}, "
        f"{out.ref_retimed} timings retaken as the service was busy")
    log(f"raw ingest: {out.items / (sum(out.ack_ns) / 1e9):.1f} items/s")
    for name, raw, rel in (("ingest_ack", out.ack_ns, out.ack_ref),
                           ("query_ws", out.ws_ns, out.ws_ref),
                           ("query_http", out.http_ns, out.http_ref)):
        log(f"{name:11} {tail(raw, 1e6, 'ms')} | {tail(rel, 1.0, 'ref')}")
    log("query_ws and query_http are reference only (not steady between runs)")


def plain_run(workload: Workload, seed: int,
              seconds: float) -> tuple[Drive, dict[str, float]]:
    setups = [setup_trial(workload, seed) for _ in range(SETUP_TRIALS - 1)]
    out = drive(workload, seed, False, seconds, None)
    setups.append(out.setup_s)
    metrics = {
        "setup_s": statistics.median(setups),
        "ingest_items_per_ref": out.items / sum(out.ack_ref),
        "ingest_ack_p50_ref": statistics.median(out.ack_ref),
        "state_bits_per_key": out.state["bits"] / out.state["keys"],
        "rss_peak_mb": sum(out.report["rss_kb"]) / 1024,
    }
    log(f"setup_s trials: {', '.join(f'{s:.4f}' for s in setups)}")
    log_latencies(out)
    return out, metrics


def traced_run(workload: Workload, seed: int,
               seconds: float) -> tuple[Drive, dict[str, float]]:
    traced = drive(workload, seed, True, seconds, None)
    plain = drive(workload, seed, False, None, traced.rounds)
    layers = dict(traced.report["layers"])
    path = layers.pop("_ack_path_ms")
    named_ns = layers.pop("_ingest_named_ns")
    acks = layers.pop("_acks")
    if acks != traced.rounds:
        traced.error(f"service counted {acks} acks for {traced.rounds} rounds")
    client_ns = sum(traced.ack_ns)
    coverage = named_ns / client_ns
    if coverage < MIN_COVERAGE:
        traced.error(
            f"named ingest-ack spans cover {coverage:.3f} of client ack time"
        )
    overhead = sum(traced.ack_ref) / sum(plain.ack_ref) - 1.0
    layers["api.request_bytes_per_item"] = traced.request_bytes / traced.items
    layers["trace.ack_coverage"] = coverage
    layers["trace.ack_overhead"] = overhead
    per_ack = client_ns / len(traced.ack_ns) / 1e6
    log("ingest-ack path, self ms per ack: " + ", ".join(
        f"{name}={ms:.4f}" for name, ms in path.items()
    ) + f" | client ack {per_ack:.4f} ms, covered {coverage:.3f}")
    ws_overhead = (statistics.median(traced.ws_ref)
                   / statistics.median(plain.ws_ref) - 1.0)
    log(f"tracing overhead over {traced.rounds} rounds, traced against "
        f"untraced: ingest ack {overhead:+.3f}, ws query p50 {ws_overhead:+.3f}")
    traced.errors += plain.errors
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    return traced, layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "service", "api.py")):
        print("perfbench: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    problems = oracle.self_test()
    if problems:
        print(f"perfbench: oracle self-test failed: {problems}",
              file=sys.stderr)
        return 2
    # The generator, the service and its shard workers share one CPU, so
    # the reference job runs on the CPU the service runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            out, values = traced_run(workload, args.seed, args.seconds)
            units = PER_LAYER_UNITS
        else:
            out, values = plain_run(workload, args.seed, args.seconds)
            units = END_TO_END_UNITS
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: run aborted: {exc!r}", file=sys.stderr)
        return 1
    for message in out.errors:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    for name, count in out.probe_failures.items():
        log(f"probe '{name}': {count} dropped with no 4xx")
    log(f"rounds={out.rounds} items={out.items} answers_checked={out.checked}")
    result = {
        "correct": not out.errors,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
