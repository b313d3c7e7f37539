"""Blocking HTTP/1.1 and WebSocket clients for the load generator.

The generator is single-threaded and closed-loop: it holds at most one
one-shot HTTP connection and one WebSocket connection at a time, sends
bytes encoded before the clock starts, and stops the clock when the whole
response has arrived.  Every socket has a timeout, so a server that stops
answering ends the run instead of hanging it.
"""

from __future__ import annotations

import base64
import json
import socket
import time
from typing import Any

from workloads import ws_frame

TIMEOUT_S = 30.0


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _drain(sock: socket.socket) -> None:
    while sock.recv(65536):
        pass


def http_roundtrip(port: int, request: bytes) -> tuple[int, bytes, int]:
    """Send one request on a fresh connection: ``(status, body, ns)``.

    The clock runs from before connect until the response body named by
    ``Content-Length`` is complete; reading the server's close is not
    timed.  A connection closed with no response gives status 0.
    """
    t0 = time.perf_counter_ns()
    sock = _connect(port)
    try:
        sock.sendall(request)
        buf = bytearray()
        want = -1
        head_end = -1
        while want < 0 or len(buf) < want:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
            if head_end < 0:
                head_end = buf.find(b"\r\n\r\n")
                if head_end >= 0:
                    want = head_end + 4 + _content_length(buf[:head_end])
        elapsed = time.perf_counter_ns() - t0
        _drain(sock)
    except (ConnectionError, socket.timeout):
        return 0, b"", time.perf_counter_ns() - t0
    finally:
        sock.close()
    if head_end < 0 or len(buf) < want:
        return 0, bytes(buf), elapsed
    status = int(bytes(buf[: buf.find(b"\r\n")]).split(b" ", 2)[1])
    return status, bytes(buf[head_end + 4 : want]), elapsed


def _content_length(head: bytes) -> int:
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            return int(value.strip())
    return 0


def http_json(port: int, request: bytes) -> tuple[int, dict[str, Any], int]:
    status, body, ns = http_roundtrip(port, request)
    return status, (json.loads(body) if body else {}), ns


class WebSocket:
    """One WebSocket connection to ``/ws``, request/response frames."""

    def __init__(self, port: int) -> None:
        self._sock = _connect(port)
        self._file = self._sock.makefile("rb")
        nonce = base64.b64encode(b"perfbench-client!").decode("ascii")
        self._sock.sendall(
            (
                "GET /ws HTTP/1.1\r\nHost: bench\r\nUpgrade: websocket\r\n"
                f"Connection: Upgrade\r\nSec-WebSocket-Key: {nonce}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode("ascii")
        )
        status = self._file.readline()
        while self._file.readline() not in (b"\r\n", b""):
            pass
        if b" 101 " not in status:
            self.close()
            raise ConnectionError(f"websocket handshake refused: {status!r}")

    def request(self, frame: bytes) -> tuple[bytes, int]:
        """Send one pre-encoded frame; ``(response payload, ns)``."""
        t0 = time.perf_counter_ns()
        self._sock.sendall(frame)
        read = self._file.read
        head = read(2)
        if len(head) < 2:
            raise ConnectionError("websocket closed before a response")
        length = head[1] & 0x7F
        if length == 126:
            length = int.from_bytes(read(2), "big")
        elif length == 127:
            length = int.from_bytes(read(8), "big")
        payload = read(length)
        elapsed = time.perf_counter_ns() - t0
        if len(payload) < length:
            raise ConnectionError("websocket closed mid-frame")
        if head[0] & 0x0F != 0x1:
            raise ConnectionError(f"unexpected websocket opcode {head[0]:#x}")
        return payload, elapsed

    def close(self) -> None:
        try:
            self._sock.sendall(ws_frame(b"\x03\xe8", opcode=0x8))
            self._file.read(2)
        except (ConnectionError, socket.timeout):
            pass
        finally:
            self._file.close()
            self._sock.close()

