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
The three sweep-bounds stdout hashes were re-taken a fifth time when the
Robbins and Ramanujan sides came to share one Stirling base per attempt,
each of their parts taken no coarser than before.  Only the Robbins and
Ramanujan columns could change then, with the Violated certificates on
stderr and the settled precision of a row that stops escalating.  One
interval of each window narrowed, inside the old one (``ramanujan_hi`` at
n = 2996 in 2990..3010, ``robbins_hi`` at n = 5 in 1..24); no certificate
or precision changed in these windows, so their stderr hashes stand.
The three sweep-bounds JSON stdout hashes and the ``sweep-linear-json``
stderr hash were re-taken a sixth time when the summary's max-e2 row became
the first n with the largest s2(n) - 1, shown with its own ``e2_lo`` /
``e2_hi`` columns (the row that ``error-term`` names), where it had been the
n with the largest unrounded lower endpoint and that unrounded interval:
the summary's ``max_e2`` / ``max_c_log2`` changed in all three, and in
1..24 the row moved from n = 23 to n = 15, on stderr too.  The side parts
came to be taken at the attempt's log2 n precision in the same change, and
no row of these windows changed with it.  No hash moved when the sides came
to add their corrections to the Stirling base of the attempt's log2 n!, its
log2(2 pi) / 2 up to 2 bits finer: no byte of these windows changed.
Every error-term and verify-theorem hash was left as it was.  The
``sweep-2048-json`` case (the Stirling series near 2^-2070, whose coefficients
grow there, and Machin's pi and e near 2088 bits through the closed-form b
check) was added with its hashes taken before Machin's arctangents and the
Stirling series came to share one alternating sum.  Any byte change
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
        "7c5c4b6439774ccbdf7ecffd0021af3aee3d8d1cccfadd0b8ac4e11e049882c7",
        "80de4b8236271a2f7ce64dcbae510b56b26e4ebc28a1fb1f28732b2be2c034b9",
    ),
    "sweep-json": (
        ["sweep-bounds", "--range", "2990..3010", "--bits", "64", "--format", "json"],
        "4dbefc54b788bc255f477578cc56cdf998a4798f1c06962aaefe65ab3fbbd421",
        "80de4b8236271a2f7ce64dcbae510b56b26e4ebc28a1fb1f28732b2be2c034b9",
    ),
    "sweep-linear-json": (
        ["sweep-bounds", "--range", "1..24", "--linear", "--format", "json"],
        "e780e5379190234e16b146123b840993683b7347adbbbb3236996c12ec7bb70f",
        "21740161aab2e565bab29b30a050df64aecbd051bcd56fc47eec6ba7daebfd95",
    ),
    "sweep-2048-json": (
        ["sweep-bounds", "--range", "5000..5001", "--bits", "2048", "--format", "json"],
        "479e0ca33b3fad678aaa23736f90b3c3be244b9efba17d0acec77f0fd541dbe5",
        "965f0ce7c56bc9dcf8bafbbc0d29ad4bc00079dae94314214fe52728883487c8",
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
