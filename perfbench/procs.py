"""Process launching and accounting for the benchmark.

Everything the benchmark runs is a child process of the benchmark: CLI
commands (timed with their ``os.wait4`` resource usage) and servers
(timed to their first good reply, measured through ``/proc`` before
they are stopped).  Nothing here imports the program under test.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
SHM = Path("/dev/shm")


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, server never came up)."""


def require_program() -> None:
    """Refuse to run without the program's source next to the benchmark."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"program source not found under {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # the same string-hash layout in every run
    return env


def cli_prefix(spans_dir: Path | None = None) -> list[str]:
    """The command that runs ``bwaver-repro``: plain, or through the
    tracing launcher writing its spans into ``spans_dir``."""
    if spans_dir is None:
        return [sys.executable, "-m", "repro.cli"]
    return [sys.executable, str(BENCH / "trace_launch.py"), "--spans", str(spans_dir), "--"]


@dataclass
class CliRun:
    wall_s: float
    maxrss_mb: float
    returncode: int
    stdout: str
    stderr: str


def run_cli(argv: list[str], log_dir: Path, timeout: float = 170.0) -> CliRun:
    """Run one command to completion; wall time from spawn to reap and
    the child's peak RSS from ``wait4``."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "cli.out", log_dir / "cli.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        deadline = t0 + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _ppid(pid: int) -> int | None:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return int(stat.rsplit(")", 1)[1].split()[1])


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` in the process tree."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            ppid = _ppid(int(entry))
            if ppid is not None:
                parents[int(entry)] = ppid
    found: list[int] = []
    frontier = {pid}
    while frontier:
        kids = {c for c, p in parents.items() if p in frontier and c not in found}
        found.extend(sorted(kids))
        frontier = kids
    return found


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def shm_entries() -> set[str]:
    try:
        return set(os.listdir(SHM))
    except OSError:
        return set()


class Server:
    """One ``bwaver-repro serve`` process on a loopback port.

    ``stop`` interrupts it the way an operator's Ctrl-C does (SIGINT,
    which ``serve`` handles by closing its pool and catalog), then
    reports whether it left processes or ``/dev/shm`` segments behind.
    """

    def __init__(self, argv_tail: list[str], log_dir: Path, spans_dir: Path | None = None):
        self.port = free_port()
        log_dir.mkdir(parents=True, exist_ok=True)
        self._out = open(log_dir / "server.out", "w")
        self._err = open(log_dir / "server.err", "w")
        self.shm_before = shm_entries()
        argv = cli_prefix(spans_dir) + ["serve", "--port", str(self.port)] + argv_tail
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=self._out, stderr=self._err, env=child_env(), cwd=ROOT,
            start_new_session=True,
        )
        self.children: list[int] = []

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the server and every process below it."""
        self.children = descendants(self.proc.pid)
        return sum(vm_hwm_mb(p) for p in [self.proc.pid, *self.children])

    def stop(self, timeout: float = 30.0) -> list[str]:
        """Stop the server; return the shutdown problems found (empty
        when it exited cleanly)."""
        problems: list[str] = []
        if not self.children:
            self.children = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                problems.append("server ignored SIGINT")
                self._kill_group()
        # The multiprocessing resource tracker exits shortly after its
        # parent; give the tree a moment before calling anything a leak.
        grace = time.perf_counter() + 5.0
        left = [p for p in self.children if _alive(p)]
        while left and time.perf_counter() < grace:
            time.sleep(0.05)
            left = [p for p in left if _alive(p)]
        if left:
            problems.append(f"{len(left)} child process(es) left running")
            for p in left:
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
        new_shm = shm_entries() - self.shm_before
        if new_shm:
            problems.append(f"/dev/shm segments left behind: {sorted(new_shm)}")
        self._out.close()
        self._err.close()
        return problems

    def _kill_group(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:
            pass
        self.proc.wait()

    def kill(self) -> None:
        """Last-resort cleanup on the error path."""
        if self.proc.poll() is None:
            self._kill_group()
        for p in self.children or []:
            if _alive(p):
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
        if not self._out.closed:
            self._out.close()
            self._err.close()
