"""Child-process plumbing of the end-to-end benchmark.

Everything the benchmark measures end to end runs in a *fresh child
process* started from here, so interpreter start, imports and pool
start-up are inside the timed interval.  Children get ``PYTHONPATH=src``
and ``PYTHONHASHSEED=0`` and no ``REPRO_*`` variable; their wall clock is
spawn -> exit and their peak RSS comes from ``os.wait4`` (the child and
every descendant it waited for, so pool workers count).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Scratch space for reports and stores; inside the checkout, git-ignored.
WORK = HERE / ".work"
#: Where the traced pass writes its span files.
OUT = HERE / "out"

#: Seconds any batch child may run before it is killed and counted as a
#: failed operation: over ten times the slowest run on the reference box,
#: and a pass that hits it still ends well inside the driver's 180 s.
CHILD_TIMEOUT_S = 45.0
#: Seconds a ``serve`` child gets to announce its port and answer /health.
SERVE_START_TIMEOUT = 60.0


def child_env() -> Dict[str, str]:
    """The parent environment minus ``REPRO_*``, plus the import path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def repro_variables() -> Dict[str, str]:
    """``REPRO_*`` variables of the parent (reported in the header; they
    never reach a child)."""
    return {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}


@contextmanager
def work_dir() -> Iterator[Path]:
    """A private scratch directory, removed even when a check fails."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


@dataclass
class ChildRun:
    """One finished (or killed) child."""

    wall_s: float
    rss_mb: float
    exit_code: int  # -SIGKILL when the child was killed on timeout
    stderr_tail: str

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


def _reap(process: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Block in ``os.wait4`` until ``process`` ends; kill it past ``timeout``.

    Returns ``(exit code, peak RSS in MiB)``; a killed child reports
    ``-SIGKILL``, which no caller mistakes for success.
    """
    timer = threading.Timer(timeout, process.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(process.pid, 0)
    finally:
        timer.cancel()
    # Tell Popen the child is gone so it never waits for it again.
    process.returncode = os.waitstatus_to_exitcode(status)
    return process.returncode, usage.ru_maxrss / 1024.0  # Linux reports KiB


def run_child(cmd: Sequence[str]) -> ChildRun:
    """Run one batch child to completion; a time-out is a failed run, not a hang."""
    WORK.mkdir(exist_ok=True)
    start = time.perf_counter()
    with tempfile.TemporaryFile(dir=WORK) as stderr:
        process = subprocess.Popen(
            list(cmd),
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=stderr,
        )
        exit_code, rss_mb = _reap(process, CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
        stderr.seek(0)
        tail = stderr.read().decode("utf-8", "replace")[-400:]
    return ChildRun(wall_s=wall, rss_mb=rss_mb, exit_code=exit_code, stderr_tail=tail)


def python_cmd(*args: str) -> List[str]:
    return [sys.executable, *args]


def pipeline_cmd(*args: str) -> List[str]:
    return python_cmd("-m", "repro.pipeline", *args)


# ----------------------------------------------------------------------
# The serve child
# ----------------------------------------------------------------------
class ServeChild:
    """A ``python -m repro.pipeline serve`` child on an ephemeral port.

    ``setup_s`` is spawn -> first 200 from ``/health`` (import + store
    load + warm + bind).  :meth:`stop` interrupts the child, reaps it and
    returns its peak RSS; it is safe to call twice.
    """

    _ANNOUNCE = re.compile(r"listening on http://([\d.]+):(\d+)")

    def __init__(self, family: str, size: int, store: Path):
        start = time.perf_counter()
        self.process: Optional[subprocess.Popen] = subprocess.Popen(
            pipeline_cmd(
                "serve", "--topo", family, "--size", str(size),
                "--store", str(store), "--port", "0",
            ),
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        # A child that never announces would block the read below forever;
        # killing it closes the pipe.
        watchdog = threading.Timer(SERVE_START_TIMEOUT, self.process.kill)
        watchdog.start()
        try:
            self.host, self.port = self._read_announcement()
            self.health = self._wait_healthy(start + SERVE_START_TIMEOUT)
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()
        self.setup_s = time.perf_counter() - start

    def _read_announcement(self) -> Tuple[str, int]:
        # Port 0 asks the kernel for a free port; the child prints it.
        for line in self.process.stdout:
            match = self._ANNOUNCE.search(line)
            if match:
                return match.group(1), int(match.group(2))
        raise RuntimeError("serve child exited before announcing its port")

    def _wait_healthy(self, deadline: float) -> dict:
        while time.perf_counter() < deadline:
            try:
                connection = self.connect()
                try:
                    status, body, _ = request(connection, "GET", "/health")
                finally:
                    connection.close()
                if status == 200:
                    return body
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("serve child did not answer /health in time")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def stop(self) -> float:
        """Interrupt and reap the child; returns its peak RSS in MiB."""
        process, self.process = self.process, None
        if process is None:
            return 0.0
        if process.stdout is not None:
            process.stdout.close()
        try:
            process.send_signal(signal.SIGINT)
        except ProcessLookupError:
            pass
        _, rss_mb = _reap(process, timeout=5.0)
        return rss_mb

    def __enter__(self) -> "ServeChild":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def request(
    connection: http.client.HTTPConnection,
    method: str,
    path: str,
    payload: Optional[dict] = None,
) -> Tuple[int, dict, int]:
    """One JSON request on an open connection -> ``(status, body, body bytes)``."""
    body = None if payload is None else json.dumps(payload).encode("utf-8")
    headers = {} if body is None else {"Content-Type": "application/json"}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    raw = response.read()
    return response.status, json.loads(raw), len(raw)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile (the median twice for fewer than two samples)."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)
