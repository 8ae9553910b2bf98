"""Fixed host-speed reference: a log2lab-free program timed between commands.

The benchmark runs this as a fresh process before and after every CLI
command.  Like the CLI it starts the interpreter and imports numpy; then it
does a fixed mix of the kinds of work the workloads do: exact Fraction and
big-int arithmetic (the sweeps), a high-precision mpmath logarithm (the error
term) and numpy int64 arange / floor-divide / searchsorted passes (verify).
Its wall time tracks how fast the shared host runs at that moment; nothing in
it depends on log2lab, so a change to the program cannot move it.

It prints a checksum, which run.py compares with REFERENCE_CHECKSUM.
"""

from fractions import Fraction

import mpmath
import numpy as np


def fractions_and_ints() -> int:
    q = Fraction(0)
    for k in range(1, 2400):
        q += Fraction(k % 7 + 1, k * k + 1)
        q = Fraction(q.numerator % (1 << 256), q.denominator % (1 << 256) + 1)
    x = 0
    for i in range(1, 120000):
        x = (x * 6364136223846793005 + i) % (1 << 512)
        x ^= x >> 17
    return (q.numerator ^ x) % 13


def high_precision_logs() -> int:
    acc = 0
    with mpmath.workprec(1030):
        for n in range(129, 369):
            acc ^= int(mpmath.log(mpmath.mpf(n) / 3) * 2**1000) & 0xFFFF
    return acc % 17


def numpy_floor_sums() -> int:
    table = (2 ** np.arange(0, 63, dtype=np.uint64)).astype(np.int64)
    total = 0
    for a in range(40001, 40001 + 2 * 300, 2):
        j = np.arange(1, a + 1, 2, dtype=np.int64)
        total += int((np.searchsorted(table, a // j, side="right") - 1).sum())
    return total % 19


print(fractions_and_ints(), high_precision_logs(), numpy_floor_sums())
