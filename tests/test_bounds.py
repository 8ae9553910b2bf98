"""Bounds lab: frozen example values, verdict semantics, the counting-bound identity."""

from __future__ import annotations

import csv
import io
import json
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import log2lab.bounds as bounds_mod
import log2lab.enclosures as enclosures_mod
import log2lab.exact as exact_mod
import log2lab.sweep as sweep_mod
from log2lab.bounds import (
    BOUND_NAMES,
    BAgreementReport,
    BoundRow,
    Verdict,
    VerdictStatus,
    compare_bounds,
    error_term_e2,
    ramanujan_b_agreement,
    ramanujan_b_closed_form,
    ramanujan_b_printed,
    ramanujan_bounds_log2,
    robbins_bounds_log2,
)
from log2lab.cli import main
from log2lab.dyadic import DyadicInterval, DyadicRational
from log2lab.enclosures import (
    G_enclosure,
    log2_e_interval,
    log2_factorial_enclosure,
    log2_int_enclosure,
    log2_pi_interval,
)
from log2lab.exact import (
    _ROW_PARTS,
    _STIRLING_PARTS,
    _VERDICT_BITS,
    AttemptPlan,
    DomainError,
    IdentityViolationError,
    ResourceLimitError,
    attempt_plan,
    binary_digit_sum,
    ceil_log2,
    last_attempt,
    stirling_plan,
)
from log2lab.sweep import (
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VIOLATION,
    SweepConfig,
    run_bounds_sweep,
    run_error_term,
)

from conftest import (
    ACCEPTED,
    four_field_side_precisions,
    g_oracle,
    half_log2_2pi_precision,
    interval_contains,
    largest_accepted,
    log2_n_precision,
    paper_lower_bound_log2,
    part_precision,
    skip_rows,
    stirling_log2_n_precision,
    sweep_row_precision,
)

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


def g_formula_ends(n: int, q: int = 128) -> tuple[DyadicInterval, DyadicInterval]:
    """Enclosures of the two ends of the paper's formula for G(n), n(log2 e
    - 1) + s2(n) - log2(2 pi n) / 2 - eps_n with eps_n between log2 e /
    (12n + 1) and log2 e / (12n): Robbins' r_n in G(n) = n log2 n -
    log2 n! - n + s2(n)."""
    log2_e = log2_e_interval(q)
    half_log2_2pi_n = (log2_pi_interval(q) + log2_int_enclosure(n, q)).add_int(1).scale_dyadic(
        DyadicRational(1, -1)
    )
    head = (log2_e.scale_int(n) - half_log2_2pi_n).add_int(binary_digit_sum(n) - n)
    return head - log2_e.div_by_posint(12 * n, q), head - log2_e.div_by_posint(12 * n + 1, q)


class TestPaperFormulaForG:
    """G(n) lies strictly inside the bracket of the paper's formula, both as
    G_enclosure takes it (the factorization of n!) and as a compared row
    takes it (the identity, from the row's own log2 n!)."""

    @settings(deadline=None, max_examples=40)
    @given(
        st.one_of(
            st.integers(1, 10**6),
            st.builds(lambda k, d: (1 << k) + d, st.integers(1, 20), st.sampled_from([-1, 0, 1])),
        )
    )
    @example(1)
    @example(2)
    @example(3)
    @example(10)
    @example(10**3)
    @example(4095)
    @example(10**5)
    @example(10**6)
    def test_g_strictly_inside_the_formula(self, n):
        low, high = g_formula_ends(n)
        for g in (G_enclosure(n, 64), compare_bounds(n, 64).g):
            assert low.strictly_below(g) and g.strictly_below(high), n

    def test_g3_as_the_readme_gives_it(self):
        # G(3) = 1.169925 in (1.16978, 1.17086)
        def between(iv, lo, hi):
            ends = (Fraction(e.numerator, e.denominator) for e in (iv.lo, iv.hi))
            return all(Fraction(lo) < e < Fraction(hi) for e in ends)

        low, high = g_formula_ends(3)
        assert between(low, "1.169780", "1.169781")
        assert between(G_enclosure(3, 64), "1.1699250", "1.1699251")
        assert between(high, "1.170864", "1.170865")


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


    @pytest.mark.parametrize("p", [16, 64])
    def test_rows_are_the_same_in_any_order(self, p):
        # a row is a pure function of (n, p): forward, backward, and in random
        # blocks taken in random order, with the caches cleared before each;
        # 1000..1299 crosses the anchors 1024 and 1280
        ns = range(1000, 1300)

        def rows(blocks):
            out = {}
            for block in blocks:
                enclosures_mod._anchor_bracket.cache_clear()
                enclosures_mod.log2_int_enclosure.cache_clear()
                out.update((n, error_term_e2(n, p)) for n in block)
            return out

        forward = rows([ns])
        assert rows([reversed(ns)]) == forward
        rng = random.Random(31)
        for _ in range(3):
            cuts = [0, *sorted(rng.sample(range(1, len(ns)), 5)), len(ns)]
            blocks = [ns[a:b] for a, b in zip(cuts, cuts[1:])]
            rng.shuffle(blocks)
            assert rows(blocks) == forward


def paper_equality_certificate(n: int) -> bool:
    """Exact integer oracle: the counting bound is attained at n = 2^t.

    For n = 2^t the error term reduces to the integer
    (n - 1) - t n + sum_{m <= n} ceil(log2 m), evaluated here by direct
    enumeration.  True iff n is a power of two and the integer vanishes
    (exact equality n! = n^n / 2^(n-1+G(n))).
    """
    if binary_digit_sum(n) != 1:
        return False
    t = n.bit_length() - 1
    ceil_sum = sum(ceil_log2(m) for m in range(1, n + 1))
    return (n - 1) - t * n + ceil_sum == 0


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


_QUARTER_IV = DyadicInterval.from_mantissas(1, 3, -2)  # [0.25, 0.75]

# each record with one value per field, in _fields order
RECORDS = [
    (Verdict, {"status": VerdictStatus.HOLDS, "certificate": (_QUARTER_IV, _QUARTER_IV)}),
    (BAgreementReport, {"printed": _QUARTER_IV, "closed_form": _QUARTER_IV, "agree": True}),
    (BoundRow, {name: i for i, name in enumerate(BoundRow._fields)}),
]
RECORD_IDS = [cls.__name__ for cls, _ in RECORDS]


class TestRecords:
    """Verdict, BAgreementReport and BoundRow are named tuples: built from
    positional arguments and keywords, compared and hashed by field, and
    read-only."""

    def test_field_lists(self):
        assert Verdict._fields == ("status", "certificate")
        assert BAgreementReport._fields == ("printed", "closed_form", "agree")
        assert len(BoundRow._fields) == 15
        for cls, _ in RECORDS:
            assert cls.__slots__ == ()

    @pytest.mark.parametrize("cls, fields", RECORDS, ids=RECORD_IDS)
    def test_keywords_and_positions_build_the_same_record(self, cls, fields):
        assert "__init__" not in vars(cls)
        values = list(fields.values())
        record = cls(**fields)
        assert [getattr(record, name) for name in cls._fields] == values
        assert cls(*values) == record == tuple(values)
        rest = {name: fields[name] for name in cls._fields[1:]}
        assert cls(values[0], **rest) == record
        assert hash(cls(*values)) == hash(record)

    @pytest.mark.parametrize("cls, fields", RECORDS, ids=RECORD_IDS)
    @pytest.mark.parametrize("fault", ["missing", "unknown", "repeated", "surplus"])
    def test_bad_fields_raise_type_error(self, cls, fields, fault):
        values = list(fields.values())
        first = cls._fields[0]
        args, kwargs = {
            "missing": ((), {k: v for k, v in fields.items() if k != first}),
            "unknown": ((), {**fields, "unknown_field": 0}),
            "repeated": ((values[0],), fields),
            "surplus": ((*values, 0), {}),
        }[fault]
        with pytest.raises(TypeError):
            cls(*args, **kwargs)

    @pytest.mark.parametrize("cls, fields", RECORDS, ids=RECORD_IDS)
    def test_fields_are_read_only(self, cls, fields):
        record = cls(**fields)
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], None)

    def test_hashes(self):
        # a Verdict hashes as the tuple of its fields; a BoundRow holds its
        # verdicts in a dict, so it has no hash
        status, certificate = VerdictStatus.HOLDS, (_QUARTER_IV, _QUARTER_IV)
        assert hash(Verdict(status, certificate)) == hash((status, certificate))
        with pytest.raises(TypeError):
            hash(compare_bounds(3, 64))

    def test_verdict_repr(self):
        verdict = Verdict(VerdictStatus.HOLDS, (_QUARTER_IV, _QUARTER_IV))
        assert repr(verdict) == (
            "Verdict(status=<VerdictStatus.HOLDS: 'Holds'>, "
            "certificate=([0.25, 0.75], [0.25, 0.75]))"
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
        # c and e2 must be exactly reproducible from the row's own intervals,
        # with the row's one log2 n
        for n in (3, 7, 100, 255, 3004):
            row = compare_bounds(n, 64)
            p = row.precision_bits
            x = log2_int_enclosure(n, finest_precision(n, p)).scale_int(n)
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


def verdict(lhs, rhs) -> Verdict:
    """The verdict on lhs <= rhs, issued only from separated endpoints."""
    if lhs.strictly_below(rhs):
        status = VerdictStatus.HOLDS
    elif rhs.strictly_below(lhs):
        status = VerdictStatus.VIOLATED
    else:
        status = VerdictStatus.INCONCLUSIVE
    return Verdict(status=status, certificate=(lhs, rhs))


def full_attempt_row(
    n: int, p: int, b_source: str = "printed", max_escalations: int = 4
) -> BoundRow:
    """compare_bounds with every attempt computing all five sides from the
    public functions before its verdicts are checked: the oracle for the
    attempts that stop early.  Each attempt at q encloses its parts at
    q + _VERDICT_BITS.  G(n) is n log2 n - log2 n! - (n - s2(n)), the floor
    count taken from Legendre's formula.  The paper verdict is Holds with the
    exact equality flag of the ceil-log2 enumeration."""
    for attempt in range(last_attempt(n, p, max_escalations) + 1):
        q = p << attempt
        r = q + _VERDICT_BITS
        part = part_precision(r, _ROW_PARTS)
        fact = log2_factorial_enclosure(n, part)
        x = log2_int_enclosure(n, log2_n_precision(n, r)).scale_int(n)
        g = (x - fact).add_int(-(n - binary_digit_sum(n)))
        paper_lb = x.add_int(-(n - 1)) - g
        e2 = fact - paper_lb
        robbins_lo, robbins_hi = robbins_bounds_log2(n, r)
        ram_lo, ram_hi = ramanujan_bounds_log2(n, r, b_source)
        row = BoundRow(
            n=n,
            precision_bits=q,
            log2_fact=fact,
            g=g,
            paper_lb=paper_lb,
            robbins_lo=robbins_lo,
            robbins_hi=robbins_hi,
            ramanujan_lo=ram_lo,
            ramanujan_hi=ram_hi,
            c_log2=e2,
            e2=e2,
            s2=binary_digit_sum(n),
            equality=paper_equality_certificate(n),
            verdicts={
                "paper": Verdict(status=VerdictStatus.HOLDS, certificate=(paper_lb, fact)),
                "robbins_lower": verdict(robbins_lo, fact),
                "robbins_upper": verdict(fact, robbins_hi),
                "ramanujan_lower": verdict(ram_lo, fact),
                "ramanujan_upper": verdict(fact, ram_hi),
            },
            escalations=attempt,
        )
        if all(v.status is not VerdictStatus.INCONCLUSIVE for v in row.verdicts.values()):
            break
    return row


def assert_rows_equal(got: BoundRow, want: BoundRow) -> None:
    for name in BoundRow._fields:
        assert getattr(got, name) == getattr(want, name), name
    assert list(got.verdicts) == list(BOUND_NAMES)


class TestEarlyStop:
    """An attempt that will escalate stops at its first Inconclusive verdict;
    the row it settles on is the one every-side attempts would give."""

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(1, 600),
        st.sampled_from([4, 16, 53, 64]),
        st.integers(0, 4),
        st.sampled_from(["printed", "closed-form"]),
    )
    def test_matches_full_attempts(self, n, p, max_escalations, b_source):
        got = compare_bounds(n, p, b_source, max_escalations)
        assert_rows_equal(got, full_attempt_row(n, p, b_source, max_escalations))

    @pytest.mark.parametrize("n", [2048, 3004, 4096, 4097])
    def test_matches_full_attempts_in_the_sweep_band(self, n):
        assert_rows_equal(compare_bounds(n, 64), full_attempt_row(n, 64))

    def test_sweep_row_never_encloses_g(self, monkeypatch):
        # G(n) comes from the row's own log2 n! and the exact floor count;
        # n = 3004 escalates from p = 32 to p = 64
        def refused(n, q):
            raise AssertionError(f"G_enclosure({n}, {q}) called by a sweep row")

        monkeypatch.setattr(bounds_mod, "G_enclosure", refused)
        monkeypatch.setattr(enclosures_mod, "G_enclosure", refused)
        row = compare_bounds(3004, 32)
        assert row.precision_bits == 64 and row.escalations == 1
        for n in (1, 2, 3, 4096):
            compare_bounds(n, 64)
        config = SweepConfig(n_lo=1, n_hi=40)
        assert run_bounds_sweep(config, io.StringIO(), io.StringIO()) == EXIT_OK


class TestCountingIdentity:
    """The counting-bound verdict comes from Legendre's formula: e2(n) is the
    integer s2(n) - 1, so the bound holds for every n, with equality exactly
    at the powers of two."""

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 4096), st.sampled_from([4, 16, 53, 64]))
    def test_closed_form_g_meets_the_term_sum(self, n, p):
        # the row's G(n) and counting bound against the term-sum oracles at
        # the precision the row settled on
        row = compare_bounds(n, p)
        q = row.precision_bits
        part = part_precision(q, _ROW_PARTS)
        assert row.g.intersects(G_enclosure(n, part))
        assert row.paper_lb.intersects(paper_lower_bound_log2(n, q))
        for iv in (row.g, row.paper_lb, row.e2):
            assert iv.width_within(q)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 4096), st.sampled_from([4, 16, 53, 64]))
    def test_paper_holds_with_exact_equality(self, n, p):
        row = compare_bounds(n, p)
        s2 = binary_digit_sum(n)
        assert row.verdicts["paper"].status is VerdictStatus.HOLDS
        assert row.verdicts["paper"].certificate == (row.paper_lb, row.log2_fact)
        assert row.equality == (s2 == 1) == paper_equality_certificate(n)
        assert row.s2 == s2
        assert row.e2.contains_int(s2 - 1)

    @staticmethod
    def _shift_row_g(monkeypatch, shift, at=None):
        # moves the row's G by `shift` integers (at n = `at` only, if given):
        # G is the first add_int that compare_bounds calls itself, before its
        # local g exists; the add_int of paper_lb is the second
        real = DyadicInterval.add_int
        row_code = bounds_mod.compare_bounds.__code__

        def add_int(self, v):
            out = real(self, v)
            caller = sys._getframe(1)
            if (
                caller.f_code is row_code
                and "g" not in caller.f_locals
                and at in (None, caller.f_locals["n"])
            ):
                out = real(out, shift)
            return out

        monkeypatch.setattr(DyadicInterval, "add_int", add_int)

    @pytest.mark.parametrize("shift", [1, -1])
    def test_shifted_g_raises(self, monkeypatch, shift):
        # a G off by one integer moves e2 off s2(n) - 1; with G too large, an
        # interval comparison of paper_lb with log2 n! would still read Holds
        self._shift_row_g(monkeypatch, shift)
        for n in (1, 3, 6, 8):
            with pytest.raises(IdentityViolationError, match=f"e2\\({n}\\)"):
                compare_bounds(n, 64)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shift", [1, -1])
    def test_shifted_g_sweep_exits_internal(self, tmp_path, capsys, monkeypatch, shift, workers):
        # G is shifted at n = 3 only, so rows 1 and 2 are written first;
        # workers are forked with the patch in place
        self._shift_row_g(monkeypatch, shift, at=3)
        out = tmp_path / "rows.json"
        argv = ["sweep-bounds", "--range", "1..4", "--format", "json", "--workers", str(workers)]
        assert main(argv + ["--out", str(out)]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("log2lab: internal error: e2(3) enclosure at p=64 misses")
        payload = json.loads(out.read_text())
        summary = payload[-1]["summary"]
        assert summary["truncated"] is True
        assert summary["checked"] == 2
        assert [row["n"] for row in payload[:-1]] == ["1", "2"]

    def test_e2_miss_raises(self, monkeypatch):
        # e2 is s2(n) - 1 for any enclosures of n log2 n and log2 n!, so only
        # a fault in the interval arithmetic can make it miss; a containment
        # test that fails stands in for one
        monkeypatch.setattr(DyadicInterval, "contains_int", lambda self, v: False)
        for n in (1, 3, 6, 8):
            with pytest.raises(IdentityViolationError, match=f"e2\\({n}\\)"):
                compare_bounds(n, 64)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_e2_miss_sweep_exits_internal(self, tmp_path, capsys, monkeypatch, workers):
        # of rows 1..4 only row 3 checks s2(n) - 1 = 1, so the miss is at
        # n = 3 and rows 1 and 2 are written first; workers are forked with
        # the patch in place
        real = DyadicInterval.contains_int
        monkeypatch.setattr(
            DyadicInterval, "contains_int", lambda self, v: v != 1 and real(self, v)
        )
        out = tmp_path / "rows.json"
        argv = ["sweep-bounds", "--range", "1..4", "--format", "json", "--workers", str(workers)]
        assert main(argv + ["--out", str(out)]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("log2lab: internal error: e2(3) enclosure at p=64 misses")
        payload = json.loads(out.read_text())
        summary = payload[-1]["summary"]
        assert summary["truncated"] is True
        assert summary["checked"] == 2
        assert [row["n"] for row in payload[:-1]] == ["1", "2"]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shift", [1, -1])
    def test_shifted_term_sum_fails_error_term(self, tmp_path, capsys, monkeypatch, shift, workers):
        # error-term keeps the term sum of G(n): a G off by one integer at
        # n = 3 is a containment failure (exit 1) in a complete file
        real = bounds_mod.G_enclosure

        def shifted(n, q):
            g = real(n, q)
            return g.add_int(shift) if n == 3 else g

        monkeypatch.setattr(bounds_mod, "G_enclosure", shifted)
        out = tmp_path / "e2.json"
        argv = ["error-term", "--range", "1..4", "--format", "json", "--workers", str(workers)]
        assert main(argv + ["--out", str(out)]) == EXIT_VIOLATION
        assert "contained s2(n)-1 and excluded neighbors: false" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        summary = payload[-1]["summary"]
        assert summary["truncated"] is False
        assert summary["checked"] == 4 and summary["all_contained"] is False
        assert [(row["n"], row["contains"]) for row in payload[:-1]] == [
            ("1", "true"), ("2", "true"), ("3", "false"), ("4", "true")
        ]


class TestOneLogPerAttempt:
    """Every n-scaled part of an attempt takes the one log2 n enclosure; the
    other logs are cached constants or log2_1p's series."""

    @pytest.mark.parametrize(
        "n,p,max_escalations",
        [(3004, 64, 0), (4095, 64, 0), (10**6 + 3, 64, 0), (10**12 + 1, 128, 0), (3001, 4, 6)],
    )
    def test_log_core_calls(self, monkeypatch, n, p, max_escalations):
        compare_bounds(n, p, max_escalations=max_escalations)  # the constants, on first use
        enclosures_mod.log2_int_enclosure.cache_clear()
        calls = []
        real = enclosures_mod._log2_raw

        def counted(num, den, q):
            calls.append((num, den))
            return real(num, den, q)

        monkeypatch.setattr(enclosures_mod, "_log2_raw", counted)
        row = compare_bounds(n, p, max_escalations=max_escalations)
        assert calls == [(n, 1)] * (row.escalations + 1)
        if max_escalations:
            assert row.escalations > 0

    @pytest.mark.parametrize("n,p", [(1003, 128), (2000, 64), (5, 4)])
    def test_error_term_row_takes_one_log2_n(self, monkeypatch, n, p):
        # n log2 n takes the enclosure the Stirling (or factorial) log2 n!
        # takes; the constants are built on the first call
        error_term_e2(n, p)
        enclosures_mod.log2_int_enclosure.cache_clear()
        calls = []
        real = enclosures_mod._log2_raw

        def counted(num, den, q):
            calls.append(num)
            return real(num, den, q)

        monkeypatch.setattr(enclosures_mod, "_log2_raw", counted)
        error_term_e2(n, p)
        assert calls.count(n) == 1

    def test_sides_share_the_rows_log2_n(self, monkeypatch):
        asked = []
        real = bounds_mod.log2_int_enclosure

        def recorded(m, q):
            asked.append((m, q))
            return real(m, q)

        # the Stirling base of log2 n! and the sides, and n log2 n
        monkeypatch.setattr(enclosures_mod, "log2_int_enclosure", recorded)
        monkeypatch.setattr(bounds_mod, "log2_int_enclosure", recorded)
        enclosures_mod._stirling_base.cache_clear()
        row = compare_bounds(3004, 64, max_escalations=0)
        q = finest_precision(3004, row.precision_bits)
        assert asked == [(3004, q)] * 2


class TestOneBasePerAttempt:
    """log2 n! and both Robbins and both Ramanujan sides of an attempt take
    one Stirling base, (n + 1/2) log2 n - n log2 e + log2(2 pi) / 2, so an
    attempt forms (n + 1/2) log2 n once, whether its log2 n! comes from the
    Stirling series (n >= 2 fact) or from n!."""

    @pytest.mark.parametrize(
        "n,p,max_escalations",
        # Stirling log2 n!; log2 n! from n!; escalating Stirling rows; a row
        # whose escalations cross the Stirling switch
        [(3004, 64, 0), (100, 64, 0), (1, 64, 0), (10**5 + 1, 64, 4), (3001, 4, 6), (100, 4, 4)],
    )
    def test_stirling_heads_per_attempt(self, monkeypatch, n, p, max_escalations):
        bases = []
        real = DyadicInterval.scale_dyadic
        half_odd = DyadicRational(2 * n + 1, -1)

        def counted(self, d):
            if d == half_odd:
                bases.append(n)
            return real(self, d)

        monkeypatch.setattr(DyadicInterval, "scale_dyadic", counted)
        enclosures_mod._stirling_base.cache_clear()
        row = compare_bounds(n, p, max_escalations=max_escalations)
        if max_escalations:
            assert row.escalations > 0
        assert bases == [n] * (row.escalations + 1)


class TestSidePrecisions:
    """Within an attempt, the Robbins and Ramanujan sides take the Stirling
    base of the attempt's log2 n!, at the precisions of
    ``stirling_plan(plan.fact, bits)``, and every correction at the plan's
    ``log_n``, the finest precision of the attempt."""

    @pytest.mark.parametrize(
        # a Stirling-series row; a small row (log2 n! from n!); rows of bit
        # length 1 and 2, whose log2(2 pi) / 2 is held below ``part``; an
        # escalating row
        "n,p,max_escalations",
        [(3004, 64, 0), (5, 64, 0), (1, 64, 0), (3, 64, 0), (10**5 + 1, 64, 4)],
    )
    @pytest.mark.parametrize("b_source", ["printed", "closed-form"])
    def test_every_side_part_at_log_n(self, monkeypatch, n, p, max_escalations, b_source):
        log1p, log2_e, half = [], [], []
        real_log1p, real_log2_e = bounds_mod._log2_1p_raw, bounds_mod.log2_e_interval
        real_log2_pi = enclosures_mod.log2_pi_interval

        def recorded_log1p(num, den, q):
            log1p.append(q)
            return real_log1p(num, den, q)

        def recorded_log2_e(q):
            log2_e.append(q)
            return real_log2_e(q)

        def recorded_log2_pi(q):
            half.append(q)
            return real_log2_pi(q)

        monkeypatch.setattr(bounds_mod, "_log2_1p_raw", recorded_log1p)
        monkeypatch.setattr(bounds_mod, "log2_e_interval", recorded_log2_e)
        monkeypatch.setattr(enclosures_mod, "log2_e_interval", recorded_log2_e)
        monkeypatch.setattr(enclosures_mod, "log2_pi_interval", recorded_log2_pi)
        row = compare_bounds(n, p, b_source=b_source, max_escalations=max_escalations)
        if max_escalations:
            assert row.escalations > 0
        bits = n.bit_length()
        for attempt in range(row.escalations + 1):
            r = (p << attempt) + _VERDICT_BITS
            plan = attempt_plan(r, bits)
            for asked in (log1p, log2_e, half):
                asked.clear()
            enclosures_mod._stirling_base.cache_clear()
            robbins_bounds_log2(n, r)
            ramanujan_bounds_log2(n, r, b_source)
            # log2(1 + y) and three corrections; n log2 e in the base and
            # log2 e / (12 n); one base for the four sides
            assert log1p == [plan.log_n] * 4, (n, attempt)
            assert log2_e == [plan.log_n] * 2, (n, attempt)
            assert half == [stirling_plan(plan.fact, bits)[0]], (n, attempt)


def near_powers_of_two() -> st.SearchStrategy[int]:
    """2^k - 1, 2^k and 2^k + 1 for 2^k + 1 <= 10^12, where ceil(log2 n) and
    ceil(log2(n + 1)) part."""
    return st.builds(lambda k, d: (1 << k) + d, st.integers(1, 39), st.sampled_from([-1, 0, 1]))


def finest_precision(n: int, q: int) -> int:
    """The finest precision of a compared row's attempt at q: the ``log_n``
    of its plan."""
    return attempt_plan(q + _VERDICT_BITS, n.bit_length()).log_n


def assert_plan_is_the_per_call_rules(n: int, p: int, max_escalations: int) -> None:
    """Every attempt's cached plans give the numbers the per-call rules of
    conftest give for n, and no part a side takes is coarser than under the
    four-field plan the two-field one replaced."""
    bits = n.bit_length()
    for attempt in range(last_attempt(n, p, max_escalations) + 1):
        q = p << attempt
        r = q + _VERDICT_BITS
        plan = attempt_plan(r, bits)
        fact = part_precision(r, _ROW_PARTS)
        assert plan == AttemptPlan(fact=fact, log_n=log2_n_precision(n, r)), (n, p, attempt)
        assert plan.log_n == sweep_row_precision(n, q) == finest_precision(n, q)
        # the Stirling-series log2 n! the attempt takes at plan.fact, whose
        # log_n the attempt's plan reads, and whose base the sides take
        half = half_log2_2pi_precision(n, fact)
        assert stirling_plan(fact, bits) == (
            half,
            stirling_log2_n_precision(n, fact),
            fact + 5 + fact.bit_length() + 2,
        ), (n, p, attempt)
        # every side part but log2(2 pi) / 2 is taken at log_n: none coarser
        # than the four-field part and log2_e; log2(2 pi) / 2 is no coarser
        # than the fact + 1 the sides took it at before they shared the base
        # of log2 n!
        assert plan.log_n >= max(four_field_side_precisions(n, r)), (n, p, attempt)
        assert half >= fact + 1, (n, p, attempt)


def last_attempt_by_doubling(n: int, p: int, max_escalations: int, ceiling: int) -> int:
    """The last attempt of a compared row, uncached: double from p while
    escalations remain and the next attempt's log2 n fits under ``ceiling``."""
    attempt = 0
    while attempt < max_escalations and sweep_row_precision(n, p << (attempt + 1)) <= ceiling:
        attempt += 1
    return attempt


class TestAttemptPlan:
    """The cached plans of an attempt hold the per-call rules' numbers, and
    the cached last attempt is the doubling loop's."""

    @settings(deadline=None, max_examples=300)
    @given(
        st.one_of(near_powers_of_two(), st.integers(1, 10**12)),
        st.sampled_from([4, 64, 128, 4096]),
        st.integers(0, 6),
    )
    def test_plan_is_the_per_call_rules(self, n, p, max_escalations):
        assert_plan_is_the_per_call_rules(n, p, max_escalations)

    @settings(deadline=None, max_examples=300)
    @given(st.integers(4, 16384), st.integers(1, 64))
    def test_half_log2_2pi_stays_within_log_n(self, p, bits):
        # log2 pi, 3 bits finer than log2(2 pi) / 2, never passes log_n, and
        # from bit length 3 on log2(2 pi) / 2 is a Stirling part like the rest
        half, log_n, _ = stirling_plan(p, bits)
        assert half + 3 <= log_n
        if bits >= 3:
            assert half == part_precision(p, _STIRLING_PARTS)

    def test_every_power_of_two_boundary(self):
        for k in range(1, 40):
            for n in ((1 << k) - 1, 1 << k, (1 << k) + 1):
                for p in (4, 64, 128, 4096):
                    assert_plan_is_the_per_call_rules(n, p, 4)

    def test_cached_last_attempt_is_the_doubling_loop(self, monkeypatch):
        # the cache is keyed by the ceiling too: after the ceiling moves and
        # moves back within one process, each call still sees the ceiling of
        # its time
        ns = [1, 2, 3, 3000, 3001, 4095, 4096, 4097, 10**6 + 1, 10**12]
        ps = [4, 16, 64, 128, 4096]
        ceilings = [
            exact_mod.MAX_PRECISION_BITS, 100, sweep_row_precision(3000, 32), 1 << 12,
            sweep_row_precision(3000, 32) - 1, exact_mod.MAX_PRECISION_BITS, 100,
        ]
        for ceiling in ceilings:
            monkeypatch.setattr(exact_mod, "MAX_PRECISION_BITS", ceiling)
            for n in ns:
                for p in ps:
                    for max_escalations in (-1, 0, 1, 4, 9, 10**9):
                        got = last_attempt(n, p, max_escalations)
                        want = last_attempt_by_doubling(n, p, max_escalations, ceiling)
                        assert got == want, (n, p, max_escalations, ceiling)


def sides_by_mpmath(n: int, b: mp.mpf) -> tuple[mp.mpf, mp.mpf, mp.mpf, mp.mpf]:
    """log2 of the Robbins lower and upper sides and the Ramanujan lower and
    upper sides at n, the upper one with shift b, straight from their
    definitions."""
    log2 = mp.log(2)
    robbins_lo = mp.log(mp.sqrt(2 * mp.pi) * n ** (n + mp.mpf(1) / 2) * mp.exp(-n)) / log2
    robbins_hi = robbins_lo + 1 / (12 * n * log2)
    head = mp.log(mp.sqrt(mp.pi) * (n / mp.e) ** n) / log2
    poly = mp.log(8 * mp.mpf(n) ** 3 + 4 * n**2 + n + mp.mpf(1) / 30) / (6 * log2)

    def corr(s):
        return mp.log(1 - mp.mpf(11) / (11520 * (n + s) ** 4)) / log2

    return robbins_lo, robbins_hi, head + poly + corr(mp.mpf(39) / 54), head + poly + corr(b)


class TestSideEnclosures:
    """Each of the four Robbins and Ramanujan sides nests when the precision
    doubles, is within 2^-p with the closed-form b, and contains its value
    from mpmath."""

    @settings(deadline=None, max_examples=150)
    @given(
        st.one_of(near_powers_of_two(), st.integers(1, 10**4), st.integers(1, 10**12)),
        st.sampled_from([4, 64, 128]),
        st.sampled_from(["printed", "closed-form"]),
    )
    def test_nest_width_and_containment(self, n, p, b_source):
        sides = [*robbins_bounds_log2(n, p), *ramanujan_bounds_log2(n, p, b_source)]
        finer = [*robbins_bounds_log2(n, 2 * p), *ramanujan_bounds_log2(n, 2 * p, b_source)]
        for name, iv, fine in zip(BOUND_NAMES[1:], sides, finer):
            assert iv.contains_interval(fine), (name, n, p)
            if b_source == "closed-form":
                assert iv.width_within(p), (name, n, p)
        if n > 10**4:
            return
        with mp.workprec(600):
            if b_source == "closed-form":
                ratio = 30 * mp.e**6 / (391 * mp.pi**3)
                bs = [(mp.mpf(11) / (11520 * (1 - mp.root(ratio, 6)))) ** (mp.mpf(1) / 4) - 1]
            else:  # both ends of the printed decimal's interval for b
                bs = [mp.mpf(35499112666) / 10**11, mp.mpf(35499112667) / 10**11]
            for b in bs:
                values = sides_by_mpmath(n, b)
                for name, iv, value in zip(BOUND_NAMES[1:], sides, values):
                    assert interval_contains(iv, value), (name, n, p, b_source)


class TestEscalationCeiling:
    """A row never escalates past the precision ceiling: its last attempt is
    the last one whose log2 n fits, and an unsettled row there reads
    Inconclusive."""

    def test_last_attempt(self, monkeypatch):
        assert last_attempt(3000, 64, 4) == 4
        assert last_attempt(3000, 64, -1) == 0
        # 64 << 7 = 8192 fits under 16384 bits, 64 << 8 does not
        assert finest_precision(3000, 64 << 7) <= exact_mod.MAX_PRECISION_BITS
        assert finest_precision(3000, 64 << 8) > exact_mod.MAX_PRECISION_BITS
        assert last_attempt(3000, 64, 10**9) == 7
        monkeypatch.setattr(exact_mod, "MAX_PRECISION_BITS", finest_precision(3000, 32))
        assert last_attempt(3000, 16, 4) == 1
        assert last_attempt(3001, 16, 4) == 1
        assert last_attempt(4097, 16, 4) == 0

    def test_unsettled_row_at_the_ceiling_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr(exact_mod, "MAX_PRECISION_BITS", finest_precision(3000, 16))
        row = compare_bounds(3000, 16)
        assert row.precision_bits == 16 and row.escalations == 0
        assert row.verdicts["robbins_upper"].status is VerdictStatus.INCONCLUSIVE
        assert row.e2.contains_int(binary_digit_sum(3000) - 1)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_at_the_ceiling_completes(self, tmp_path, capsys, monkeypatch, fmt):
        # without the ceiling these rows escalate from p = 16; with it they
        # stop there, every one is written and the run exits 2
        ceiling = finest_precision(3007, 16)
        monkeypatch.setattr(exact_mod, "MAX_PRECISION_BITS", ceiling)
        monkeypatch.setattr(sweep_mod, "MAX_PRECISION_BITS", ceiling)
        assert compare_bounds(3000, 16, max_escalations=0).verdicts[
            "robbins_upper"
        ].status is VerdictStatus.INCONCLUSIVE
        argv = ["sweep-bounds", "--range", "3000..3007", "--bits", "16", "--format", fmt]
        outs, errs = {}, {}
        for workers in (1, 2):
            outs[workers] = tmp_path / f"rows_w{workers}.{fmt}"
            code = main(argv + ["--workers", str(workers), "--out", str(outs[workers])])
            assert code == EXIT_INCONCLUSIVE
            errs[workers] = capsys.readouterr().err
        assert outs[1].read_bytes() == outs[2].read_bytes()
        assert errs[1] == errs[2]
        assert "checked=8 of 8 rows at p=16 (escalated: 0)" in errs[1]
        if fmt == "json":
            payload = json.loads(outs[1].read_text())
            summary = payload[-1]["summary"]
            assert summary["truncated"] is False and summary["checked"] == 8
            rows = payload[:-1]
        else:
            with open(outs[1], newline="") as fh:
                rows = list(csv.DictReader(fh))
        assert [row["precision_bits"] for row in rows] == ["16"] * 8
        assert "Inconclusive" in {row["verdict_robbins"] for row in rows}


class _Sentinel(Exception):
    """Raised in place of the bracket of n!: G(n) got past its limit checks."""


def error_term_cost(monkeypatch, n: int, p: int) -> tuple[int, int]:
    """(q_tab, work) that error-term's checks read for the range n..n at
    precision p, taken from the run with its rows skipped."""
    seen = []

    def recorded(*args):
        seen.append(exact_mod.g_cost(*args))
        return seen[-1]

    monkeypatch.setattr(sweep_mod, "g_cost", recorded)
    skip_rows(monkeypatch)
    assert run_error_term(SweepConfig(n_lo=n, n_hi=n, precision_bits=p)) == ACCEPTED
    (cost,) = seen
    return cost


class TestAttemptPrecision:
    """What a command checks before its output is what its rows ask for:
    the ``log_n`` of its first attempt's plan is the finest precision of a
    compared row, and
    error-term's check (``g_cost`` of its largest G(n)) the finest precision
    and the largest work of an error-term row."""

    def test_is_the_largest_precision_a_row_asks_for(self, monkeypatch):
        asked = []
        real = enclosures_mod._check_precision
        real_bracket = enclosures_mod._factorial_bracket

        def recorded(p):
            asked.append(p)
            real(p)

        def bracket(n, q):
            asked.append(q)
            return real_bracket(n, q)

        monkeypatch.setattr(enclosures_mod, "_check_precision", recorded)
        monkeypatch.setattr(enclosures_mod, "_factorial_bracket", bracket)
        for n in (1, 2, 3, 4, 5, 8, 17, 100, 255, 256, 257, 1000, 3004, 10**6 + 1):
            for p in (4, 16, 64, 100):
                # their checks run on a miss
                enclosures_mod.log2_pi_interval.cache_clear()
                enclosures_mod.log2_int_enclosure.cache_clear()
                asked.clear()
                compare_bounds(n, p, max_escalations=0, b_source="closed-form")
                assert max(asked) == finest_precision(n, p), (n, p)
                if n > 1000:
                    continue  # a G(n) that size is error-term's alone
                q_tab, _ = error_term_cost(monkeypatch, n, p)
                asked.clear()
                error_term_e2(n, p)
                if n == 1:  # taken at n = 2: the whole row at n = 1 is below it
                    assert max(asked) < q_tab
                else:
                    assert max(asked) == q_tab, (n, p)

    def test_work_is_the_largest_term_sum_a_row_runs(self, monkeypatch):
        asked = []
        real = enclosures_mod.g_cost

        def recorded(n, q):
            cost = real(n, q)
            asked.append(cost[1])
            return cost

        monkeypatch.setattr(enclosures_mod, "g_cost", recorded)
        for n in (1, 2, 3, 17, 256, 1000):
            for p in (4, 64, 100):
                _, work = error_term_cost(monkeypatch, n, p)
                asked.clear()
                compare_bounds(n, p, max_escalations=0)
                error_term_e2(n, p)
                if n == 1:  # taken at n = 2, like the precision
                    assert max(asked) < work
                else:
                    assert max(asked) == work, (n, p)

    @pytest.mark.parametrize("p", [4, 64, 1000])
    def test_work_rule_at_its_boundary(self, monkeypatch, p):
        # the largest range end error-term accepts is the largest n whose
        # G(n) passes G's own limit checks
        skip_rows(monkeypatch)
        n = largest_accepted(run_error_term, p)
        if p == 64:
            assert n == 35_791_394

        def no_bracket(*args):
            raise _Sentinel

        monkeypatch.setattr(enclosures_mod, "_factorial_bracket", no_bracket)
        with pytest.raises(_Sentinel):
            error_term_e2(n, p)
        with pytest.raises(ResourceLimitError, match="work ceiling"):
            error_term_e2(n + 1, p)
