"""Golden bytes: the CLI's stdout, --out file and stderr, pinned by SHA-256.

The hashes were captured from the range commands before they shared one run
loop.  The three sweep-bounds stdout hashes were re-taken twice, each time
for a change to the G-derived interval bits only (``g_*``, ``paper_lb_*`` and
the summary's unrounded ``max_e2`` / ``max_c_log2``): when G's term sum moved
to the prime-only log table, and when a sweep row stopped running that term
sum and took G(n) from its own n log2 n and log2 n! and the exact floor count
n - s2(n).  They were re-taken a third time, with the three sweep-bounds
stderr hashes, when a row started to enclose every part 4 bits finer than its
precision, with log2 n! from the Stirling series and one log2 n per attempt:
every interval column changed, and the window's rows, which had escalated
from p=64 to p=128, settle at p=64, so ``precision_bits``, the escalation
count and the Violated certificates on stderr changed too; no verdict did.
The two sweep-bounds JSON stdout hashes were re-taken a fourth time when
every log2 came from the atanh series instead of bit extraction: only the
summary's unrounded ``max_e2`` / ``max_c_log2`` changed there.
Every error-term and verify-theorem hash was left as it was.  Any byte change
in a row, a summary, a finding or a report line fails here, with one worker
and with two.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import log2lab

SRC = Path(log2lab.__file__).resolve().parents[1]

# name -> (argv, SHA-256 of stdout and of the --out file, SHA-256 of stderr)
GOLDEN = {
    "sweep-csv": (
        ["sweep-bounds", "--range", "2990..3010", "--bits", "64"],
        "3b3a938010ae054cf2caf36af5e0273d71041114aa75aa154f6af85bda0a294e",
        "80de4b8236271a2f7ce64dcbae510b56b26e4ebc28a1fb1f28732b2be2c034b9",
    ),
    "sweep-json": (
        ["sweep-bounds", "--range", "2990..3010", "--bits", "64", "--format", "json"],
        "35e747751936afa78fd80e8d30755833017b433110f519b3d8ffaca94449aed9",
        "80de4b8236271a2f7ce64dcbae510b56b26e4ebc28a1fb1f28732b2be2c034b9",
    ),
    "sweep-linear-json": (
        ["sweep-bounds", "--range", "1..24", "--linear", "--format", "json"],
        "ddcd1a99db2be703797eaa7408b418b9e70775b40c28b2647e1f0662afef598a",
        "e211ff79d46e4e68aa4378c84dd6b87e719fc6fe204025e9262b12e3f1cf6bf9",
    ),
    "error-term": (
        ["error-term", "--range", "1..200", "--bits", "128"],
        "b0a7962de0058f7cbcfefda834545eb7f90bb571fec47f09b4b9ddd92435a79d",
        "231b478f83bb42da3b2aa36b1faeb3b851f7554f49d349a5dc645eac9d9c7cd3",
    ),
    "verify-theorem-json": (
        ["verify-theorem", "--range", "1..20001", "--format", "json"],
        "3bb9c4f9851d9d46df407b3f8a5992220f3abdfbf478602f218b67135b9b371f",
        "2a921d94717fadf69ab95f32a2c8c53ae73f093f882542fc220d8dd26b6058f6",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_bytes(name, workers, tmp_path):
    argv, out_sha, err_sha = GOLDEN[name]
    cmd = [sys.executable, "-m", "log2lab.cli", *argv, "--workers", str(workers)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = tmp_path / "rows"
    to_stdout = subprocess.run(cmd, capture_output=True, env=env, timeout=300)
    to_file = subprocess.run(cmd + ["--out", str(out)], capture_output=True, env=env, timeout=300)
    assert to_stdout.returncode == to_file.returncode == 0
    assert sha256(to_stdout.stdout) == out_sha
    assert sha256(out.read_bytes()) == out_sha
    assert to_file.stdout == b""
    assert sha256(to_stdout.stderr) == sha256(to_file.stderr) == err_sha
