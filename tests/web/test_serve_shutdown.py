"""``bwaver-repro serve`` stops cleanly on SIGTERM as well as SIGINT.

Each case starts a real server process with both serving tiers behind
pool workers (``--map-index --map-pool 1`` and ``--catalog
--shard-workers 1``), sends one request through each so every worker is
running, then delivers the signal.  After the server exits, no process
it started may still run and no ``/dev/shm`` segment it created may be
left behind.  One case starts the server with SIGINT ignored, as a shell
starts a background job, and still stops it with SIGINT.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

import pytest

from repro.bench.fixtures import make_dna

SHM = Path("/dev/shm")

pytestmark = pytest.mark.skipif(
    not (Path("/proc/self/stat").exists() and SHM.is_dir()),
    reason="needs /proc and /dev/shm",
)


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _descendants(pid: int) -> list[int]:
    """Every live process below ``pid``, from the ``/proc`` parent links."""
    parent_of: dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        parent_of[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    out, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        kids = [p for p, pp in parent_of.items() if pp == parent]
        out.extend(kids)
        frontier.extend(kids)
    return out


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _post(port: int, path: str, doc: dict) -> dict:
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        assert resp.status == 200
        return json.loads(resp.read())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("serve_shutdown")
    ref = make_dna(3000, seed=21)
    (work / "ref.fa").write_text(f">ref\n{ref}\n")
    (work / "phage.fa").write_text(f">phage\n{make_dna(1500, seed=22)}\n")
    (work / "catalog.json").write_text(
        json.dumps(
            {
                "shards": [
                    {"name": "ref", "fasta": str(work / "ref.fa")},
                    {"name": "phage", "fasta": str(work / "phage.fa")},
                ]
            }
        )
    )
    return work, ref


@pytest.mark.parametrize(
    "sig,background",
    [(signal.SIGTERM, False), (signal.SIGINT, False), (signal.SIGINT, True)],
    ids=["SIGTERM", "SIGINT", "SIGINT-background-job"],
)
def test_stop_leaves_no_process_or_shm_segment(inputs, sig, background):
    work, ref = inputs
    port = _free_port()
    shm_before = set(os.listdir(SHM))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    err = tempfile.TemporaryFile()
    # An ignored signal stays ignored across fork and exec, so the server
    # starts with SIGINT ignored, like a job started with `&`.
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN) if background else None
    try:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", str(port),
                "--map-index", str(work / "ref.fa"), "--map-pool", "1",
                "--catalog", str(work / "catalog.json"), "--shard-workers", "1",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )
    finally:
        if background:
            signal.signal(signal.SIGINT, previous)
    children: list[int] = []
    try:
        deadline = time.monotonic() + 120
        while True:
            if proc.poll() is not None:
                err.seek(0)
                pytest.fail(f"server exited early: {err.read().decode()}")
            try:
                with urllib.request.urlopen(f"http://127.0.0.1:{port}/health", timeout=5):
                    break
            except OSError:
                assert time.monotonic() < deadline, "server never became ready"
                time.sleep(0.1)
        read = ref[100:140]
        assert _post(port, "/map", {"reads": [read]})["results"][0]["fwd_count"] >= 1
        _post(port, "/map?catalog", {"reads": [read]})
        children = _descendants(proc.pid)
        assert children, "the pools started no worker process"
        proc.send_signal(sig)
        proc.wait(timeout=60)
        grace = time.monotonic() + 10
        left = [p for p in children if _alive(p)]
        while left and time.monotonic() < grace:
            time.sleep(0.05)
            left = [p for p in left if _alive(p)]
        assert not left, f"{len(left)} child process(es) left running after {sig.name}"
        leaked = set(os.listdir(SHM)) - shm_before
        assert not leaked, f"/dev/shm segments left behind after {sig.name}: {sorted(leaked)}"
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        for p in children:
            if _alive(p):
                os.kill(p, signal.SIGKILL)
        # SIGKILL skips the pools' own clean-up: unlink the segments that
        # appeared during this case, so a failing case leaks none.
        for name in set(os.listdir(SHM)) - shm_before:
            if name.startswith("psm_"):
                (SHM / name).unlink(missing_ok=True)
        err.close()
