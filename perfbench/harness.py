"""Launch one command, drain both pipes at once, and measure it.

stdout and stderr are read concurrently: a sweep writes a FINDING line of four
~130-digit decimals to stderr for every row, and a harness that let that pipe
fill would stall the child and record the stall as run time.  CPU time and
peak RSS come from the child's own ``wait4`` rusage, which covers the pool
workers it has reaped; ``RUSAGE_CHILDREN`` would instead keep the maximum over
every earlier child of this process.
"""

from __future__ import annotations

import hashlib
import os
import selectors
import signal
import subprocess
import time
from dataclasses import dataclass

COMMAND_TIMEOUT_S = 60.0


@dataclass
class CommandResult:
    argv: list[str]
    returncode: int
    wall_s: float  # launch to exit
    setup_s: float  # launch to the first stdout line (the CSV header)
    cpu_s: float  # user + system, the command and its reaped workers
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    line_times: list[float]  # arrival of each stdout line, seconds after launch

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def run_command(argv: list[str], env: dict[str, str], cwd: str) -> CommandResult:
    """Run argv to completion; a command past COMMAND_TIMEOUT_S is killed.

    The command leads its own process group, so killing it also stops any
    pool workers it started.
    """
    chunks: dict[int, bytearray] = {}
    line_times: list[float] = []
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env, cwd=cwd, start_new_session=True,
    )
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in (proc.stdout, proc.stderr):
                sel.register(pipe, selectors.EVENT_READ)
                chunks[pipe.fileno()] = bytearray()
            while sel.get_map():
                remaining = t0 + COMMAND_TIMEOUT_S - time.perf_counter()
                if remaining <= 0:
                    os.killpg(proc.pid, signal.SIGKILL)
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    now = time.perf_counter() - t0
                    if not data:
                        sel.unregister(key.fileobj)
                        continue
                    if key.fd == out_fd:
                        line_times.extend([now] * data.count(b"\n"))
                    chunks[key.fd] += data
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CommandResult(
        argv=argv,
        returncode=proc.returncode,
        wall_s=wall,
        setup_s=line_times[0] if line_times else wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        stdout=bytes(chunks[out_fd]),
        stderr=bytes(chunks[err_fd]),
        line_times=line_times,
    )
