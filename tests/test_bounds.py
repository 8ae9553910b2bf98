"""Bounds lab: frozen example values, verdict semantics, equality certificates."""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath as mp
import pytest

from log2lab.bounds import (
    VerdictStatus,
    compare_bounds,
    error_term_e2,
    paper_equality_certificate,
    paper_lower_bound_log2,
    ramanujan_b_agreement,
    ramanujan_b_closed_form,
    ramanujan_b_printed,
    ramanujan_bounds_log2,
    robbins_bounds_log2,
)
from log2lab.dyadic import DyadicInterval, DyadicRational
from log2lab.enclosures import log2_factorial_enclosure
from log2lab.exact import DomainError, binary_digit_sum

from conftest import g_oracle, interval_contains

LOG2_3 = "1.58496250072115618145373894394781650876"
B_CLOSED = "0.3549912666820893250086468803607338730667"
LOG2_RAM10_LO = "21.79106113437829939338557054332053493314"
ROBBINS10_LO_LIN = "3598695.618741035921623175932829242053026"


class TestPaperLowerBound:
    def test_exact_small_points(self):
        assert paper_lower_bound_log2(1, 50) == DyadicInterval.zero()
        iv2 = paper_lower_bound_log2(2, 50)
        assert iv2.is_point() and iv2.lo == DyadicRational(1)

    def test_n3_encloses_log2_3(self):
        iv = paper_lower_bound_log2(3, 50)
        assert iv.width_within(50)
        assert interval_contains(iv, LOG2_3)

    def test_matches_oracle_sampled(self):
        rng = random.Random(53)
        for _ in range(8):
            n = rng.randrange(2, 300)
            iv = paper_lower_bound_log2(n, 64)
            assert iv.width_within(64)
            val = n * mp.log(n) / mp.log(2) - (n - 1 + g_oracle(n))
            assert interval_contains(iv, val)


class TestErrorTermAndC:
    @pytest.mark.parametrize("n,expected", [(1, 0), (3, 1), (7, 2)])
    def test_examples(self, n, expected):
        iv = error_term_e2(n, 64)
        assert iv.width_within(64)
        assert iv.contains_int(expected)
        assert not iv.contains_int(expected - 1)
        assert not iv.contains_int(expected + 1)

    @pytest.mark.parametrize("n,expected", [(2, 0), (3, 1), (4, 0)])
    def test_c_examples(self, n, expected):
        # log2 C(n), as a compared row carries it, pins the integer exactly
        iv = compare_bounds(n, 50).c_log2
        assert iv.contains_int(expected)
        assert not iv.contains_int(expected - 1)
        assert not iv.contains_int(expected + 1)

    def test_digit_sum_hypothesis_brute_force(self):
        # direct interval evaluation for every n <= 512, no hypothesis assumed
        for n in range(1, 513):
            iv = error_term_e2(n, 64)
            target = binary_digit_sum(n) - 1
            assert iv.contains_int(target), n
            assert not iv.contains_int(target - 1), n
            assert not iv.contains_int(target + 1), n


class TestEqualityCertificate:
    def test_powers_of_two(self):
        for t in range(0, 13):
            assert paper_equality_certificate(1 << t)

    def test_non_powers(self):
        for n in (3, 5, 6, 7, 12, 100, 1000):
            assert not paper_equality_certificate(n)


class TestRobbins:
    def test_n1_brackets_zero(self):
        lower, upper = robbins_bounds_log2(1, 60)
        assert lower.width_within(60) and upper.width_within(60)
        with mp.workprec(500):
            lo_true = mp.log(mp.sqrt(2 * mp.pi) / mp.e) / mp.log(2)
            hi_true = lo_true + 1 / (12 * mp.log(2))
            assert interval_contains(lower, lo_true)
            assert interval_contains(upper, hi_true)
        # 0 = log2(1!) sits strictly between the two sides
        assert lower.hi < DyadicRational(0) < upper.lo

    def test_n10_lower_value_and_position(self):
        lower, _ = robbins_bounds_log2(10, 64)
        with mp.workprec(500):
            val = mp.log(mp.mpf(ROBBINS10_LO_LIN)) / mp.log(2)
            assert interval_contains(lower, val)
        fact = log2_factorial_enclosure(10, 64)
        assert lower.hi < fact.lo

    def test_width_contract_sampled(self):
        rng = random.Random(59)
        for _ in range(6):
            n = rng.randrange(1, 3000)
            p = rng.choice([16, 53, 64])
            lower, upper = robbins_bounds_log2(n, p)
            assert lower.width_within(p)
            assert upper.width_within(p)


class TestRamanujan:
    def test_n10_lower_oracle_value(self):
        lower, upper = ramanujan_bounds_log2(10, 64)
        assert lower.width_within(64)
        assert interval_contains(lower, LOG2_RAM10_LO)

    def test_width_contract_with_closed_form_b(self):
        # the printed decimal's own 1e-11 width is irreducible at small n,
        # so the plain 2^-p contract is checked on the closed-form path
        for n in (1, 10, 100, 2000):
            lower, upper = ramanujan_bounds_log2(n, 64, "closed-form")
            assert lower.width_within(64)
            assert upper.width_within(64)

    def test_n10_lower_exceeds_factorial(self):
        # the source's a = 39/54 makes the "lower" bound overshoot 10!
        lower, _ = ramanujan_bounds_log2(10, 64)
        fact = log2_factorial_enclosure(10, 64)
        assert fact.hi < lower.lo

    def test_n1_upper_below_factorial_printed_b(self):
        _, upper = ramanujan_bounds_log2(1, 64, "printed")
        assert upper.hi < DyadicRational(0)  # log2(1!) = 0 sits above it

    def test_polynomial_argument_is_exact(self):
        # 8n^3+4n^2+n+1/30 at n=10 is 8410 + 1/30 = 252301/30
        assert Fraction(240 * 1000 + 120 * 100 + 300 + 1, 30) == Fraction(252301, 30)

    def test_b_sources(self):
        printed = ramanujan_bounds_log2(10, 64, "printed")
        closed = ramanujan_bounds_log2(10, 64, "closed-form")
        assert printed[0] == closed[0]  # the lower side uses a only
        assert printed[1] != closed[1]
        with pytest.raises(DomainError):
            ramanujan_bounds_log2(10, 64, "guess")
        with pytest.raises(DomainError):
            compare_bounds(10, 64, b_source="guess")

    def test_b_agreement_reports_the_disagreement(self):
        report = ramanujan_b_agreement(64)
        assert not report.agree  # printed decimal and closed form are disjoint
        assert interval_contains(report.closed_form, B_CLOSED)
        assert report.printed.contains_fraction(Fraction(354991126665, 10**12))

    def test_b_closed_form_width(self):
        for p in (16, 64, 128):
            assert ramanujan_b_closed_form(p).width_within(p)
            assert ramanujan_b_printed(p).contains_fraction(
                Fraction(35499112666, 10**11)
            )


class TestCompareBounds:
    def test_small_rows_match_expected_story(self):
        r1 = compare_bounds(1, 64)
        assert r1.equality and r1.s2 == 1
        assert r1.verdicts["paper"].status is VerdictStatus.HOLDS
        assert r1.verdicts["robbins_lower"].status is VerdictStatus.HOLDS
        assert r1.verdicts["robbins_upper"].status is VerdictStatus.HOLDS
        assert r1.verdicts["ramanujan_lower"].status is VerdictStatus.VIOLATED
        assert r1.verdicts["ramanujan_upper"].status is VerdictStatus.VIOLATED

        r2 = compare_bounds(2, 64)
        assert r2.equality and r2.c_log2.contains_int(0)

        r3 = compare_bounds(3, 64)
        assert not r3.equality
        assert r3.verdicts["paper"].status is VerdictStatus.HOLDS
        assert r3.c_log2.contains_int(1)

        r4 = compare_bounds(4, 64)
        assert r4.equality and r4.c_log2.contains_int(0)

    def test_definitional_consistency(self):
        # c and e2 must be exactly reproducible from the row's own intervals
        from log2lab.bounds import _part_precision
        from log2lab.enclosures import log2_int_enclosure

        for n in (3, 7, 100, 255):
            row = compare_bounds(n, 64)
            p = row.precision_bits
            x = log2_int_enclosure(n, _part_precision(p, 3, n)).scale_int(n)
            c = (row.log2_fact - x).add_int(n - 1) + row.g
            e2 = row.log2_fact - (x.add_int(-(n - 1)) - row.g)
            assert c == row.c_log2
            assert e2 == row.e2
            assert e2 == row.log2_fact - row.paper_lb

    def test_certificates_are_the_compared_intervals(self):
        row = compare_bounds(6, 64)
        lhs, rhs = row.verdicts["paper"].certificate
        assert lhs == row.paper_lb and rhs == row.log2_fact
        lhs, rhs = row.verdicts["robbins_upper"].certificate
        assert lhs == row.log2_fact and rhs == row.robbins_hi

    def test_escalation_resolves_tight_gap(self):
        # at p=4 the Robbins gap at n=2048 is far below the interval width;
        # escalation must double precision until the verdict separates
        row = compare_bounds(2048, 4, max_escalations=6)
        assert row.escalations > 0
        assert row.precision_bits > 4
        assert all(
            v.status is not VerdictStatus.INCONCLUSIVE for v in row.verdicts.values()
        )

    def test_escalation_cap_leaves_inconclusive(self):
        row = compare_bounds(2048, 4, max_escalations=0)
        assert row.precision_bits == 4
        assert any(
            v.status is VerdictStatus.INCONCLUSIVE for v in row.verdicts.values()
        )

    def test_verdict_audit_no_flip_at_double_precision(self):
        rng = random.Random(61)
        ns = rng.sample(range(1, 400), 4)
        for n in ns:
            row = compare_bounds(n, 53)
            audit = compare_bounds(n, 106)
            for name, v in row.verdicts.items():
                a = audit.verdicts[name].status
                if v.status is VerdictStatus.HOLDS:
                    assert a is VerdictStatus.HOLDS
                elif v.status is VerdictStatus.VIOLATED:
                    assert a is VerdictStatus.VIOLATED

    def test_paper_never_violated_sampled(self):
        for n in range(1, 120):
            row = compare_bounds(n, 53)
            assert row.verdicts["paper"].status is VerdictStatus.HOLDS
            assert row.equality == (binary_digit_sum(n) == 1)
