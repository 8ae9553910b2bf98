"""Golden bytes: the CLI's stdout, --out file and stderr, pinned by SHA-256.

The hashes were captured from the range commands before they shared one run
loop.  The three sweep-bounds stdout hashes were re-taken twice, each time
for a change to the G-derived interval bits only (``g_*``, ``paper_lb_*`` and
the summary's unrounded ``max_e2`` / ``max_c_log2``): when G's term sum moved
to the prime-only log table, and when a sweep row stopped running that term
sum and took G(n) from its own n log2 n and log2 n! and the exact floor count
n - s2(n).  Their stderr hashes, and every error-term and verify-theorem
hash, were left as they were.  Any byte change in a row, a summary, a
finding or a report line fails here, with one worker and with two.  The sweep
window spans the first rows that escalate from p=64 to p=128.
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
        "db74021f21414b41736ec428c04dacea1da4c98d5dc2a88cdad5abd8b65624cf",
        "789e65e116d08dbd6d54d07f8734819e8adc47406fa1678ff05001f3c479156e",
    ),
    "sweep-json": (
        ["sweep-bounds", "--range", "2990..3010", "--bits", "64", "--format", "json"],
        "1353131064f4c3e0fb134feddb4a8f71ecac3ff44fb66d782593c87b092d3d0c",
        "789e65e116d08dbd6d54d07f8734819e8adc47406fa1678ff05001f3c479156e",
    ),
    "sweep-linear-json": (
        ["sweep-bounds", "--range", "1..24", "--linear", "--format", "json"],
        "fe8c36fa01c1e5b591c8cdbfaa9dd0c53ac08e339e8c73de2a3b4a326ed44a97",
        "7f48c6ec3b1b56cc0f4ae7e9b83395c08b3017e1d32bbd8bedfc22ca292fb67b",
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
