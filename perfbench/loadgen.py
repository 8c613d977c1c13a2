"""Loopback HTTP load generation: ``closed_loop`` is one caller that
waits for each reply before sending the next, on one connection."""

from __future__ import annotations

import http.client
import time
from dataclasses import dataclass


@dataclass
class Outcome:
    index: int  # which body was sent
    sent: float  # perf_counter seconds
    done: float
    status: int  # 0 when the connection failed
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1e3


def _post(conn: http.client.HTTPConnection, path: str, body: bytes) -> tuple[int, bytes]:
    try:
        conn.request("POST", path, body, {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    except (OSError, http.client.HTTPException):
        conn.close()
        return 0, b""


def post_once(port: int, path: str, body: bytes, timeout: float = 120.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        return _post(conn, path, body)
    finally:
        conn.close()


def closed_loop(
    port: int, path: str, bodies: list[bytes], seconds: float, timeout: float = 120.0
) -> list[Outcome]:
    """One connection; the next request goes out when the reply is in.
    Requests start while less than ``seconds`` have passed."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    out: list[Outcome] = []
    start = time.perf_counter()
    i = 0
    try:
        while time.perf_counter() - start < seconds:
            k = i % len(bodies)
            t0 = time.perf_counter()
            status, data = _post(conn, path, bodies[k])
            out.append(Outcome(k, t0, time.perf_counter(), status, data))
            i += 1
    finally:
        conn.close()
    return out
