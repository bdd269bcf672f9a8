"""One child process: pinned environment, full output, rusage from wait4."""

from __future__ import annotations

import os
import selectors
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

# thread pools pinned to one thread: np.linalg.norm inside convolve otherwise
# spins a second BLAS thread and doubles CPU time for the same wall time
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def threads() -> int:
    """The --threads every invocation gets: 2, or fewer if fewer cores."""
    return min(2, len(os.sched_getaffinity(0)))


def child_env(root: Path) -> dict[str, str]:
    """The environment of every child: inherited minus REVPRIME_* settings,
    plus the pinned pools and PYTHONPATH pointing at the tree under test."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REVPRIME_")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float  # user + system
    maxrss_mb: float
    returncode: int
    timed_out: bool
    stdout: bytes
    stderr: bytes


def _drain(proc: subprocess.Popen, chunks: dict[int, list[bytes]], deadline: float) -> bool:
    """Read both pipes to EOF, killing the child at `deadline`; True if killed."""
    killed = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            wait = None if killed else deadline - time.monotonic()
            if wait is not None and wait <= 0:
                proc.kill()
                killed = True
                continue
            for key, _ in sel.select(wait):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    return killed


def run(argv: list[str], env: dict[str, str], cwd: Path, timeout: float) -> ChildResult:
    """Run argv to completion, reading all of stdout and stderr (the pipes
    are never closed early), killing the child after `timeout` seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, cwd=cwd,
    )
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    try:
        timed_out = _drain(proc, chunks, time.monotonic() + max(timeout, 0.0))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    # wait4 rather than Popen.wait: it also returns the child's rusage.  Linux
    # folds the spawning process's resident size into the child's ru_maxrss,
    # so the benchmark process keeps itself small (it never imports numpy).
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        wall_s=time.perf_counter() - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        returncode=proc.returncode,
        timed_out=timed_out,
        stdout=b"".join(chunks[out_fd]),
        stderr=b"".join(chunks[err_fd]),
    )
