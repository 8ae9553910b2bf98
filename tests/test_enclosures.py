"""Certified enclosures: frozen oracle values, width/containment/nesting."""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath as mp
import pytest

import log2lab.enclosures as enclosures_mod
from log2lab.dyadic import DyadicInterval, DyadicRational
from log2lab.enclosures import (
    MAX_PRECISION_BITS,
    G_enclosure,
    ResourceLimitError,
    e_interval,
    frac_log2_enclosure,
    ln2_interval,
    log2_e_interval,
    log2_factorial_by_factorial,
    log2_factorial_by_sum,
    log2_factorial_enclosure,
    log2_factorial_running,
    log2_fraction,
    log2_pi_interval,
    pi_interval,
)
from log2lab.exact import DomainError, power_of_two_ratio

from conftest import g_oracle, interval_contains

# independent-oracle values, frozen from high-precision reference runs
LOG2_3 = "1.58496250072115618145373894394781650876"
FRAC_LOG2_3 = "0.5849625007211561814537389439478165087598"
G3 = "1.16992500144231236290747788789563301752"
G4 = "0.4150374992788438185462610560521834912402"
G5 = "1.7027498788282932100275387740097441947"
LOG2_24 = "4.58496250072115618145373894394781650876"
LOG2_10FACT = "21.79106111471695352899756395200187719541"
LN2 = "0.6931471805599453094172321214581765680755"
PI = "3.141592653589793238462643383279502884197"
E = "2.718281828459045235360287471352662497757"
LOG2_E = "1.442695040888963407359924681001892137427"
LOG2_PI = "1.651496129472318798043279295108007335018"


class TestLog2Ratio:
    def test_power_of_two_is_exact_point(self):
        for a, j, k in [(8, 1, 3), (1024, 1, 10), (6, 3, 1), (5, 5, 0)]:
            iv = log2_fraction(Fraction(a, j), 60)
            assert iv.is_point() and iv.lo == DyadicRational(k)

    def test_log2_3_enclosure(self):
        iv = log2_fraction(Fraction(3), 60)
        assert iv.width_within(60)
        assert interval_contains(iv, LOG2_3)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            log2_fraction(Fraction(3, 2), 3)  # p below the floor

    def test_precision_ceiling(self):
        with pytest.raises(ResourceLimitError):
            log2_fraction(Fraction(3), MAX_PRECISION_BITS + 1)

    def test_general_fraction_negative_logs(self):
        iv = log2_fraction(Fraction(1, 3), 60)
        assert interval_contains(iv, "-" + LOG2_3)
        assert iv.width_within(60)


class TestFracTerm:
    def test_exact_zero_cases(self):
        for a, j in [(1, 1), (8, 1), (6, 3), (4096, 2)]:
            term = frac_log2_enclosure(a, j, 60)
            assert term.exact_zero
            assert term.frac.is_point() and term.frac.lo == DyadicRational(0)

    def test_frac_log2_3(self):
        term = frac_log2_enclosure(3, 1, 60)
        assert not term.exact_zero
        assert term.k == 1
        assert interval_contains(term.frac, FRAC_LOG2_3)

    def test_frac_bounds_invariant(self):
        rng = random.Random(41)
        one = DyadicRational(1)
        for _ in range(400):
            a = rng.randrange(1, 10**5)
            j = rng.randrange(1, a + 1)
            term = frac_log2_enclosure(a, j, 53)
            assert term.frac.lo >= DyadicRational(0)
            assert term.frac.hi < one
            assert term.exact_zero == (power_of_two_ratio(a, j) is not None)

    def test_integer_part_is_exact_near_powers(self):
        # a/j barely below a power of two: the floor must not be pulled up
        a, j = (1 << 40) - 1, 1
        term = frac_log2_enclosure(a, j, 16)
        assert term.k == 39
        # and barely above: the floor must not lag behind
        term = frac_log2_enclosure((1 << 40) + 1, 1, 16)
        assert term.k == 40


class TestGEnclosure:
    def test_exact_small_values(self):
        assert G_enclosure(1, 50) == DyadicInterval.zero()
        assert G_enclosure(2, 50) == DyadicInterval.zero()

    def test_power_of_two_n_is_not_all_exact(self):
        # only n = 1, 2 collapse to a point; n = 4 has the {log2(4/3)} term
        assert not G_enclosure(4, 60).is_point()
        assert not G_enclosure(8, 60).is_point()

    @pytest.mark.parametrize("n,oracle", [(3, G3), (4, G4), (5, G5)])
    def test_small_oracle_values(self, n, oracle):
        iv = G_enclosure(n, 50)
        assert iv.width_within(50)
        assert interval_contains(iv, oracle)

    def test_oracle_containment_and_width_sampled(self):
        rng = random.Random(43)
        for _ in range(12):
            n = rng.randrange(3, 400)
            p = rng.choice([16, 53, 128])
            iv = G_enclosure(n, p)
            assert iv.width_within(p)
            assert interval_contains(iv, g_oracle(n))

    def test_work_ceiling(self):
        with pytest.raises(ResourceLimitError):
            G_enclosure(10**8, 64)  # rejected before any term is computed

    def test_domain(self):
        with pytest.raises(DomainError):
            G_enclosure(0, 50)


class TestPrecisionFloor:
    """Every enclosure rejects a caller's p below the 4-bit floor, exact
    results and sums whose terms get a finer precision included."""

    @pytest.mark.parametrize(
        "fn,args",
        [
            (G_enclosure, (5, 1)),
            (G_enclosure, (2, 0)),
            (log2_factorial_by_sum, (5, 2)),
            (lambda n, p: list(log2_factorial_running(n, p)), (3, 1)),
            (frac_log2_enclosure, (8, 1, 3)),
        ],
        ids=["G", "G-exact", "factorial-by-sum", "factorial-running", "frac-exact"],
    )
    def test_rejects_p_below_floor(self, fn, args):
        with pytest.raises(DomainError, match=f"precision must be >= 4 bits, got {args[-1]}$"):
            fn(*args)


class TestLog2Factorial:
    def test_examples(self):
        assert log2_factorial_enclosure(1, 50) == DyadicInterval.zero()
        iv4 = log2_factorial_enclosure(4, 50)
        assert interval_contains(iv4, LOG2_24)
        iv10 = log2_factorial_enclosure(10, 50)
        assert interval_contains(iv10, LOG2_10FACT)
        assert iv10.width_within(50)

    def test_methods_intersect_sampled(self):
        rng = random.Random(47)
        for _ in range(15):
            n = rng.randrange(1, 600)
            p = rng.choice([16, 53, 96])
            a = log2_factorial_by_factorial(n, p)
            b = log2_factorial_by_sum(n, p)
            assert a.width_within(p) and b.width_within(p)
            assert a.intersects(b)

    def test_running_prefixes_match_direct(self):
        ref = {n: log2_factorial_by_factorial(n, 60) for n in range(1, 40)}
        for n, iv in log2_factorial_running(39, 60):
            assert iv.width_within(60)
            assert iv.intersects(ref[n])

    def test_method_selector_threshold(self, monkeypatch):
        monkeypatch.setattr(enclosures_mod, "_FACTORIAL_METHOD_THRESHOLD", 100)
        small = log2_factorial_enclosure(30, 50)
        assert small == log2_factorial_by_factorial(30, 50)
        monkeypatch.setattr(enclosures_mod, "_FACTORIAL_METHOD_THRESHOLD", 10)
        summed = log2_factorial_enclosure(30, 50)
        assert summed == log2_factorial_by_sum(30, 50)


class TestConstants:
    def test_frozen_digit_strings(self):
        # 40-digit freezes resolve anything up to ~128 bits
        assert interval_contains(ln2_interval(64), LN2)
        assert interval_contains(pi_interval(64), PI)
        assert interval_contains(e_interval(64), E)
        assert interval_contains(log2_e_interval(64), LOG2_E)
        assert interval_contains(log2_pi_interval(64), LOG2_PI)

    @pytest.mark.parametrize(
        "fn,live",
        [
            (ln2_interval, lambda: mp.log(2)),
            (pi_interval, lambda: +mp.pi),
            (e_interval, lambda: +mp.e),
            (log2_e_interval, lambda: 1 / mp.log(2)),
            (log2_pi_interval, lambda: mp.log(mp.pi) / mp.log(2)),
        ],
    )
    def test_live_oracle_containment(self, fn, live):
        for p in (16, 64, 256):
            iv = fn(p)
            assert iv.width_within(p)
            with mp.workprec(600):
                assert interval_contains(iv, live())


class TestIntervalContracts:
    """Randomized corpus: width, containment, nesting, exact-zero placement."""

    def test_randomized_corpus(self):
        rng = random.Random(20250809)
        checked_zero = 0
        # random pairs almost never land on exact ratios; seed a few
        cases = [(8, 1), (6, 3), (4096, 64), (3 << 17, 3)]
        while len(cases) < 250:
            a = rng.randrange(1, 10**6)
            cases.append((a, rng.randrange(1, a + 1)))
        for a, j in cases:
            p = rng.choice([16, 53, 128])
            iv = log2_fraction(Fraction(a, j), p)
            finer = log2_fraction(Fraction(a, j), p + 32)
            assert iv.width_within(p)
            assert finer.width_within(p + 32)
            assert iv.contains_interval(finer), (a, j, p)
            pk = power_of_two_ratio(a, j)
            if pk is not None:
                # exact branch: the float oracle cannot resolve equality
                assert iv.is_point() and iv.lo == DyadicRational(pk)
                checked_zero += 1
            else:
                assert not iv.is_point()
                with mp.workprec(500):
                    val = (mp.log(a) - mp.log(j)) / mp.log(2)
                    assert interval_contains(iv, val)
        assert checked_zero >= 1  # corpus exercised the exact branch

    def test_nesting_for_compound_operations(self):
        for n in (3, 17, 100, 255):
            for p in (16, 53):
                assert G_enclosure(n, p).contains_interval(G_enclosure(n, p + 32))
                assert log2_factorial_enclosure(n, p).contains_interval(
                    log2_factorial_enclosure(n, p + 32)
                )

    def test_determinism_bit_identical(self):
        a = G_enclosure(123, 64)
        b = G_enclosure(123, 64)
        assert a == b and a.lo.mantissa == b.lo.mantissa
        x = log2_fraction(Fraction(987654321, 12345), 128)
        y = log2_fraction(Fraction(987654321, 12345), 128)
        assert x == y
