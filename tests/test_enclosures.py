"""Certified enclosures: frozen oracle values, width/containment/nesting."""

from __future__ import annotations

import io
import math
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import log2lab.enclosures as enclosures_mod
from log2lab.dyadic import DyadicInterval, DyadicRational
from log2lab.enclosures import (
    G_enclosure,
    ResourceLimitError,
    e_interval,
    ln2_interval,
    log2_1p,
    log2_e_interval,
    log2_factorial_by_factorial,
    log2_factorial_enclosure,
    log2_fraction,
    log2_pi_interval,
    pi_interval,
)
from log2lab.cli import main
from log2lab.exact import (
    _ROW_PARTS,
    MAX_PRECISION_BITS,
    WORK_CEILING,
    DomainError,
    _part_precision,
    g_cost,
)
from log2lab.sweep import EXIT_USAGE, SweepConfig, run_bounds_sweep, run_error_term

from conftest import (
    G_by_terms,
    frac_upper_clamp,
    g_oracle,
    interval_contains,
    log2_by_bit_extraction,
    log2_factorial_by_sum,
    log2_factorial_running,
    power_of_two_ratio,
    table_precision,
)

# independent-oracle values, frozen from high-precision reference runs
LOG2_3 = "1.58496250072115618145373894394781650876"
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

# from the coarsest precision to the medium range, where the series pays off
_PRECISIONS = st.sampled_from([4, 16, 53, 64, 128, 1024])


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


class TestLogSeriesAgainstBitExtraction:
    """The padded series bracket of log2(num/den) against the bit-extraction
    oracle, with width and margin on its own 2^-(p+4) grid."""

    @settings(deadline=None, max_examples=120)
    @given(st.integers(1, 10**40), st.integers(1, 10**40), _PRECISIONS)
    # both signs, r just above 1 and just below 2, an exact power of two
    @example(1, 3, 4)
    @example(2**40 + 1, 2**40, 1024)
    @example(2**41 - 1, 2**40, 1024)
    @example(2**40 - 1, 2**40, 64)
    @example(3 << 17, 3, 64)
    def test_meets_the_oracle_with_width_and_margin(self, num, den, p):
        lo, hi, s = enclosures_mod._log2_raw(num, den, p)
        oracle = log2_by_bit_extraction(num, den, p)
        if s == 0:  # an exact power of two
            assert oracle.is_point() and lo == hi and oracle.lo == DyadicRational(lo)
            return
        assert s == p + enclosures_mod._BRACKET_BITS
        iv = DyadicInterval(DyadicRational(lo, -s), DyadicRational(hi, -s))
        assert iv.intersects(oracle)
        assert hi - lo <= 6
        with mp.workprec(s + 200):
            v = mp.log(mp.mpf(num) / den, 2) * mp.mpf(2) ** s
            assert v - lo >= 2 and hi - v >= 2


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

    def test_work_ceiling_boundary(self, monkeypatch):
        # G(n) at p = 64 costs 117 n, so 36709122 is the largest n it takes
        n = 36_709_122
        assert g_cost(n, 64)[1] <= WORK_CEILING < g_cost(n + 1, 64)[1]

        class PastTheChecks(Exception):
            pass

        def no_brackets(*args):
            raise PastTheChecks

        monkeypatch.setattr(enclosures_mod, "_prime_log2", no_brackets)
        with pytest.raises(PastTheChecks):
            G_enclosure(n, 64)
        with pytest.raises(ResourceLimitError, match="work ceiling"):
            G_enclosure(n + 1, 64)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["g-value", "1", "--bits", "16384"],
                "G(1) at precision 16384 needs 16387-bit prime brackets, "
                "above the ceiling of 16384 bits",
            ),
            (
                ["g-value", "40000000"],
                "G(40000000) at precision 64 needs work of 4680000000, "
                "above the work ceiling of 4294967296",
            ),
        ],
        ids=["precision", "work"],
    )
    def test_limit_messages_name_n_and_the_requested_precision(
        self, monkeypatch, capsys, argv, message
    ):
        # rejected before a prime table is built, in the terms the user typed
        def no_table(n, q_tab):
            raise AssertionError("a prime table was built")

        monkeypatch.setattr(enclosures_mod, "_prime_log2", no_table)
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"log2lab: resource limit: {message}\n"

    def test_domain(self):
        with pytest.raises(DomainError):
            G_enclosure(0, 50)


def direct_log2_int(m: int, q: int) -> tuple[int, int, int]:
    """_log2_raw(m, 1, q), with an exact power of two (a point at scale 0)
    moved onto the common scale of the other brackets at q."""
    lo, hi, s = enclosures_mod._log2_raw(m, 1, q)
    if s == 0:
        s = q + enclosures_mod._BRACKET_BITS
        lo <<= s
        hi <<= s
    return lo, hi, s


def direct_G_enclosure(n: int, p: int) -> DyadicInterval:
    """G(n) as the term sum computed before the log table: one certified core
    call per m, each at the term precision plus one guard bit."""
    q_log = _part_precision(p, n) + 1
    lo_n, hi_n, s = direct_log2_int(n, q_log)
    clamp_hi = frac_upper_clamp(n, s)
    acc_lo = acc_hi = 0
    for m in range(1, n + 1):
        q, r = divmod(n, m)
        if r == 0 and q & (q - 1) == 0:
            continue
        k_shift = (q.bit_length() - 1) << s
        lo_m, hi_m, _ = direct_log2_int(m, q_log)
        acc_lo += max(lo_n - hi_m - k_shift, 0)
        acc_hi += min(hi_n - lo_m - k_shift, clamp_hi)
    return DyadicInterval(DyadicRational(acc_lo, -s), DyadicRational(acc_hi, -s))


def _is_prime(m: int) -> bool:
    return m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))


_TABLE_LIMIT = 1 << 13
_PRIMES = [m for m in range(2, _TABLE_LIMIT + 1) if _is_prime(m)]


def _product_within_limit(factors: list[int]) -> int:
    m = 1
    for f in factors:
        if m * f > _TABLE_LIMIT:
            break
        m *= f
    return m


# primes, powers of two, and products of many small primes (large Omega)
_TABLE_ARGS = (
    st.sampled_from(_PRIMES)
    | st.integers(0, 13).map(lambda k: 1 << k)
    | st.lists(st.sampled_from((2, 3, 5, 7)), min_size=4, max_size=13).map(
        _product_within_limit
    )
)
_TERM_PRECISIONS = st.sampled_from([16, 53, 128])


def _bracket_by_factors(m: int, q_tab: int) -> tuple[int, int, int]:
    """(lo, hi, s): sum over the primes P of m of v_P(m) times P's cached
    log2 bracket at table precision q_tab."""
    primes, p_lo, p_hi = enclosures_mod._prime_log2(m, q_tab)
    lo = hi = 0
    for prime, b_lo, b_hi in zip(primes, p_lo, p_hi):
        rest = m
        while rest % prime == 0:
            rest //= prime
            lo += b_lo
            hi += b_hi
    return lo, hi, q_tab + enclosures_mod._BRACKET_BITS


@lru_cache(maxsize=None)
def _cold_table(n: int, q_tab: int) -> tuple[list[int], list[int], list[int]]:
    """The prime table up to n built from empty, in pieces of the default size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enclosures_mod, "_PRIME_LOG2", {})
        return enclosures_mod._prime_log2(n, q_tab)


class TestLog2Table:
    """The log2 prime brackets behind G(n): log core calls for primes only,
    exact sums of prime brackets for every other m, one cache per table
    precision."""

    @settings(deadline=None, max_examples=80)
    @given(_TABLE_ARGS, _TERM_PRECISIONS)
    def test_contains_log2_m_within_one_prime_width(self, m, q):
        lo, hi, s = _bracket_by_factors(m, table_precision(m, q))
        if m & (m - 1) == 0:
            assert lo == hi == (m.bit_length() - 1) << s
            return
        # no wider than one _log2_raw bracket at q: 6 ulps of scale 2^-(q+4)
        assert hi - lo <= 6 << (s - (q + 4))
        iv = DyadicInterval(DyadicRational(lo, -s), DyadicRational(hi, -s))
        with mp.workprec(500):
            assert interval_contains(iv, mp.log(m) / mp.log(2))

    def test_core_calls_only_for_primes(self, monkeypatch):
        monkeypatch.setattr(enclosures_mod, "_PRIME_LOG2", {})
        calls = []
        real = enclosures_mod._log2_raw

        def counted(num, den, p):
            calls.append(num)
            return real(num, den, p)

        monkeypatch.setattr(enclosures_mod, "_log2_raw", counted)
        G_enclosure(3500, 128)  # from a cold cache
        pi_3500 = sum(map(_is_prime, range(3501)))
        assert pi_3500 == 489
        assert len(calls) <= pi_3500
        assert all(_is_prime(m) for m in calls)
        calls.clear()
        G_enclosure(3500, 128)
        G_enclosure(3000, 128)  # the same table precision
        assert calls == []

    def test_prime_sieve(self, monkeypatch):
        # a cold table's primes are exactly the primes up to its n
        for n in [*range(1, 40), 5000]:
            monkeypatch.setattr(enclosures_mod, "_PRIME_LOG2", {})
            primes = enclosures_mod._prime_log2(n, 16)[0]
            assert primes == [m for m in range(n + 1) if _is_prime(m)], n

    def test_one_bounded_table_per_precision_after_sweeps(self, monkeypatch):
        monkeypatch.setattr(enclosures_mod, "_PRIME_LOG2", {})
        monkeypatch.setattr(enclosures_mod, "_STIRLING_COEFFS", ())
        for n_lo, n_hi in ((3004, 3043), (3044, 3123), (100_001, 100_002)):
            config = SweepConfig(n_lo=n_lo, n_hi=n_hi)
            assert run_bounds_sweep(config, io.StringIO(), io.StringIO()) == 0
        # a compared row runs no term sum: log2 n! comes from the exact
        # factorial or the Stirling series, and G(n) from it
        assert enclosures_mod._PRIME_LOG2 == {}
        # error-term's G(n) reads the prime brackets at the q_tab of g_cost
        config = SweepConfig(n_lo=1500, n_hi=1501)
        assert run_error_term(config, io.StringIO(), io.StringIO()) == 0
        tables = enclosures_mod._PRIME_LOG2
        part = _part_precision(64, _ROW_PARTS)
        assert set(tables) == {g_cost(n, part)[0] for n in (1500, 1501)}
        pi_1501 = sum(map(_is_prime, range(1502)))
        for limit, primes, lo, hi in tables.values():
            assert limit <= 1501
            assert len(primes) == len(lo) == len(hi) <= pi_1501
        # the Stirling coefficients that p = 64 rows use: a few
        assert 0 < len(enclosures_mod._STIRLING_COEFFS) <= 16
        caches = [
            name
            for name, value in vars(enclosures_mod).items()
            if not name.startswith("__") and isinstance(value, (dict, list, set))
        ]
        assert caches == ["_PRIME_LOG2"]

    def test_interrupted_extension_leaves_a_whole_table(self, monkeypatch):
        monkeypatch.setattr(enclosures_mod, "_PRIME_LOG2", {})
        table = enclosures_mod._prime_log2
        q_tab = table_precision(2000, 53)
        table(500, q_tab)
        real = enclosures_mod._log2_raw
        primes = []

        def interrupted(num, den, p):
            primes.append(num)
            if len(primes) == 20:  # a prime in the middle of 501..2000
                raise KeyboardInterrupt
            return real(num, den, p)

        monkeypatch.setattr(enclosures_mod, "_log2_raw", interrupted)
        with pytest.raises(KeyboardInterrupt):
            table(2000, q_tab)
        assert 500 < primes[-1] < 2000
        limit, cached, lo, hi = enclosures_mod._PRIME_LOG2[q_tab]
        assert limit == 500
        assert len(cached) == len(lo) == len(hi) == 95  # pi(500)
        monkeypatch.setattr(enclosures_mod, "_log2_raw", real)
        extended = table(2000, q_tab)
        assert len(extended[0]) == len(extended[1]) == len(extended[2]) == 303
        monkeypatch.setattr(enclosures_mod, "_PRIME_LOG2", {})
        assert extended == table(2000, q_tab)  # a cold build

    def test_consecutive_rows_sieve_once_per_table(self, monkeypatch):
        # an error-term run over 1..2000 extends each table by one n a row,
        # and every extension sieves only its new segment: over the run, a
        # table holding the primes up to its limit has sieved limit - 1 numbers
        monkeypatch.setattr(enclosures_mod, "_PRIME_LOG2", {})
        sieved = []
        real = enclosures_mod._sieve_segment

        def counted(start, end, primes):
            sieved.append(end - start)
            return real(start, end, primes)

        monkeypatch.setattr(enclosures_mod, "_sieve_segment", counted)
        config = SweepConfig(n_lo=1, n_hi=2000, precision_bits=128)
        assert run_error_term(config, io.StringIO(), io.StringIO()) == 0
        tables = enclosures_mod._PRIME_LOG2
        assert 0 < len(tables) <= 16
        assert sum(sieved) == sum(limit - 1 for limit, *_ in tables.values())

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(1, 3000), min_size=1, max_size=6))
    def test_extension_by_segments_equals_a_cold_build(self, steps):
        q_tab = 24
        enclosures_mod._PRIME_LOG2.pop(q_tab, None)
        n = 1
        for step in steps:
            n += step
            extended = enclosures_mod._prime_log2(n, q_tab)
        assert enclosures_mod._PRIME_LOG2[q_tab][0] == n
        assert extended[0] == [m for m in range(n + 1) if _is_prime(m)]
        enclosures_mod._PRIME_LOG2.pop(q_tab)
        assert extended == enclosures_mod._prime_log2(n, q_tab)  # a cold build
        enclosures_mod._PRIME_LOG2.pop(q_tab)

    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from([1, 7, 64]),
        st.lists(st.tuples(st.integers(1, 60), st.integers(-1, 1)), min_size=1, max_size=6),
    )
    def test_extensions_in_small_pieces_equal_a_cold_build(self, piece, steps):
        # every n lies on a piece boundary or one off it, from any table
        ns = [max(1, k * piece + d) for k, d in steps]
        q_tab = 24
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(enclosures_mod, "_PRIME_LOG2", {})
            mp.setattr(enclosures_mod, "_SIEVE_PIECE", piece)
            for n in ns:
                extended = enclosures_mod._prime_log2(n, q_tab)
            limit = enclosures_mod._PRIME_LOG2[q_tab][0]
        assert limit == max(ns)
        assert extended[0] == [m for m in range(limit + 1) if _is_prime(m)]
        assert extended == _cold_table(limit, q_tab)

    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from([1, 7, 64]), st.integers(1, 300), st.integers(0, 10**6))
    def test_interrupt_in_a_later_piece_leaves_a_whole_table(self, piece, n0, pick):
        q_tab = 24
        n1 = n0 + 40 * piece
        later = [m for m in range(n0 + piece + 1, n1 + 1) if _is_prime(m)]
        assume(later)
        stop = later[pick % len(later)]  # a prime past the first piece
        real = enclosures_mod._log2_raw

        def interrupted(num, den, p):
            if num == stop:
                raise KeyboardInterrupt
            return real(num, den, p)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(enclosures_mod, "_PRIME_LOG2", {})
            mp.setattr(enclosures_mod, "_SIEVE_PIECE", piece)
            enclosures_mod._prime_log2(n0, q_tab)
            mp.setattr(enclosures_mod, "_log2_raw", interrupted)
            with pytest.raises(KeyboardInterrupt):
                enclosures_mod._prime_log2(n1, q_tab)
            limit, primes, lo, hi = enclosures_mod._PRIME_LOG2[q_tab]
            # the pieces before stop's are kept, and not one prime of its own
            assert n0 < limit < stop <= limit + piece
            assert (primes, lo, hi) == _cold_table(limit, q_tab)
            mp.setattr(enclosures_mod, "_log2_raw", real)
            assert enclosures_mod._prime_log2(n1, q_tab) == _cold_table(n1, q_tab)

    def test_cold_G_memory_is_below_40_bytes_per_m(self, monkeypatch):
        # the closed form holds pi(n) brackets and one sieve piece, not a
        # bracket for every m <= n
        monkeypatch.setattr(enclosures_mod, "_PRIME_LOG2", {})
        G_enclosure(200, 16)  # the constants the log core reads, once
        monkeypatch.setattr(enclosures_mod, "_PRIME_LOG2", {})
        tracemalloc.start()
        try:
            G_enclosure(20000, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 20000


class TestGAgainstTermOracle:
    """G's closed form against the term-by-term sum over the log2 m table,
    ``G_by_terms``: the same integers, and not one term clamped."""

    @pytest.mark.parametrize("p", [4, 16, 53, 128])
    def test_equals_term_sum_for_every_n_to_1200(self, p):
        for n in range(1, 1201):
            by_terms, clamps = G_by_terms(n, p)
            assert G_enclosure(n, p) == by_terms, n
            assert clamps == 0, n

    @pytest.mark.parametrize("n", [2047, 2048, 4097, 5000])
    def test_equals_term_sum_at_p64(self, n):
        by_terms, clamps = G_by_terms(n, 64)
        assert G_enclosure(n, 64) == by_terms
        assert clamps == 0


class TestGAgainstDirectTermSum:
    """G from the log table against the per-m term sum it replaced."""

    @staticmethod
    def _check(n, p):
        iv = G_enclosure(n, p)
        assert iv.width_within(p)
        assert iv.intersects(direct_G_enclosure(n, p))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 600), _TERM_PRECISIONS)
    def test_intersects_direct_sum(self, n, p):
        self._check(n, p)

    @pytest.mark.parametrize("n", [720, 2520, 3600, 4095])
    def test_intersects_direct_sum_at_highly_composite_n(self, n):
        for p in (16, 53, 128):
            self._check(n, p)
        assert interval_contains(G_enclosure(n, 53), g_oracle(n))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 600), _TERM_PRECISIONS)
    def test_nesting_under_doubled_precision(self, n, p):
        assert G_enclosure(n, p).contains_interval(G_enclosure(n, 2 * p))


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
            (log2_fraction, (Fraction(8), 3)),
            (log2_factorial_enclosure, (10**6, 2)),
            (log2_1p, (Fraction(1, 10**9), 3)),
        ],
        ids=[
            "G", "G-exact", "factorial-by-sum", "factorial-running", "frac-exact",
            "factorial-stirling", "log2-1p",
        ],
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
        # the exact factorial below n0 = 2p, the Stirling series from n0 on
        real = enclosures_mod.log2_factorial_by_factorial
        factorial_ns = []

        def recorded(n, q):
            factorial_ns.append(n)
            return real(n, q)

        monkeypatch.setattr(enclosures_mod, "log2_factorial_by_factorial", recorded)
        for p in (4, 16, 53, 64, 128, 1024):
            n0 = enclosures_mod._stirling_switch(p)
            assert n0 == 2 * p
            factorial_ns.clear()
            below = log2_factorial_enclosure(n0 - 1, p)
            at = log2_factorial_enclosure(n0, p)
            assert factorial_ns == [n0 - 1]
            assert below == real(n0 - 1, p)
            assert at.width_within(p) and at.intersects(real(n0, p))


def akiyama_tanigawa_bernoulli(m: int) -> list[Fraction]:
    """B_0..B_m (with B_1 = +1/2) by the Akiyama-Tanigawa recurrence: an
    oracle independent of the tangent numbers the module uses."""
    out, a = [], [Fraction(0)] * (m + 1)
    for i in range(m + 1):
        a[i] = Fraction(1, i + 1)
        for j in range(i, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out


class TestStirlingSeries:
    """log2 n! from the Stirling series with its remainder bounded by, and of
    the sign of, the first omitted term."""

    def test_coefficients_are_bernoulli_quotients(self):
        bernoulli = akiyama_tanigawa_bernoulli(80)
        coeffs = enclosures_mod._stirling_coefficients(40)
        assert coeffs[:4] == ((1, 12), (-1, 360), (1, 1260), (-1, 1680))
        for k in range(1, 41):
            c = bernoulli[2 * k] / (2 * k * (2 * k - 1))
            assert coeffs[k - 1] == (c.numerator, c.denominator), k

    @pytest.mark.parametrize("n", [1, 3, 10, 37, 200])
    def test_remainder_has_the_sign_of_the_first_omitted_term(self, n):
        # R_K(n) = ln n! - (leading part) - (first K terms), for K = 0..11
        coeffs = enclosures_mod._stirling_coefficients(12)
        with mp.workprec(800):
            remainder = mp.loggamma(n + 1) - (
                (n + mp.mpf(1) / 2) * mp.log(n) - n + mp.log(2 * mp.pi) / 2
            )
            for k, (num, den) in enumerate(coeffs[:12]):
                term = mp.mpf(num) / (den * mp.mpf(n) ** (2 * k + 1))
                assert remainder * term > 0, (n, k)
                assert abs(remainder) < abs(term), (n, k)
                remainder -= term

    def test_series_covers_the_remainder_on_either_side(self):
        # the series stops at its first term below one ulp; which sign that
        # term has depends on (n, w), and both are covered
        stop_signs = set()
        for n in (8, 9, 40, 41, 300, 5000, 10**6):
            for w in range(8, min(200, 4 * n), 7):
                lo, hi = enclosures_mod._stirling_series(n, w)
                num, den = next(
                    (num, den)
                    for k, (num, den) in enumerate(enclosures_mod._stirling_coefficients(60))
                    if abs(num) << w < den * n ** (2 * k + 1)
                )
                stop_signs.add(num > 0)
                with mp.workprec(w + 200):
                    exact = mp.loggamma(n + 1) - (
                        (n + mp.mpf(1) / 2) * mp.log(n) - n + mp.log(2 * mp.pi) / 2
                    )
                    assert lo <= exact * mp.mpf(2) ** w <= hi, (n, w)
        assert stop_signs == {True, False}
        # its terms stop shrinking near 2^-72; the refusal names n
        with pytest.raises(DomainError, match=r"Stirling series at n=8 does not reach 2\^-200"):
            enclosures_mod._stirling_series(8, 200)

    @settings(deadline=None, max_examples=60)
    @given(st.data(), _PRECISIONS)
    def test_meets_the_factorial_and_nests(self, data, p):
        n = data.draw(st.integers(enclosures_mod._stirling_switch(p), 20_000))
        iv = log2_factorial_enclosure(n, p)
        assert iv.width_within(p)
        assert iv.intersects(log2_factorial_by_factorial(n, p))
        finer = log2_factorial_enclosure(n, 2 * p)
        assert iv.lo < finer.lo and finer.hi < iv.hi

    def test_meets_the_summed_logs_past_the_old_threshold(self):
        for n in (100_001, 123_457):
            iv = log2_factorial_enclosure(n, 64)
            assert iv.width_within(64)
            assert iv.intersects(log2_factorial_by_sum(n, 64))

    def test_one_core_call_at_any_size(self, monkeypatch):
        calls = []
        real = enclosures_mod._log2_raw

        def counted(num, den, p):
            calls.append(num)
            return real(num, den, p)

        for n in (10**6 + 1, 10**12 + 1, 10**40 + 1):
            log2_factorial_enclosure(n, 64)  # the constants, on first use
            enclosures_mod.log2_int_enclosure.cache_clear()
            monkeypatch.setattr(enclosures_mod, "_log2_raw", counted)
            calls.clear()
            iv = log2_factorial_enclosure(n, 64)
            monkeypatch.setattr(enclosures_mod, "_log2_raw", real)
            assert calls == [n]
            with mp.workprec(400):
                assert interval_contains(iv, mp.loggamma(n + 1) / mp.log(2))


def _small_rationals():
    # -1/2 <= y <= 1, mostly close to 0, of both signs
    return st.builds(
        lambda num, den, neg: Fraction(-num if neg else num, max(den, 2 * num)),
        st.integers(1, 10**6),
        st.integers(1, 10**40),
        st.booleans(),
    )


class TestLog2OnePlus:
    """log2(1 + y) from the atanh series, against bit extraction."""

    @settings(deadline=None, max_examples=150)
    @given(_small_rationals(), _PRECISIONS)
    def test_meets_bit_extraction(self, y, p):
        iv = log2_1p(y, p)
        assert iv.width_within(p)
        x = 1 + y
        assert iv.intersects(log2_by_bit_extraction(x.numerator, x.denominator, p))

    @settings(deadline=None, max_examples=100)
    @given(_small_rationals(), _PRECISIONS)
    def test_nesting_under_doubled_precision(self, y, p):
        iv = log2_1p(y, p)
        finer = log2_1p(y, 2 * p)
        assert iv.lo < finer.lo and finer.hi < iv.hi

    @pytest.mark.parametrize("y", [Fraction(-1, 2), Fraction(1), Fraction(1, 3), Fraction(-1, 7)])
    def test_domain_ends_against_mpmath(self, y):
        for p in (4, 64, 256):
            iv = log2_1p(y, p)
            assert iv.width_within(p)
            with mp.workprec(600):
                assert interval_contains(iv, mp.log(1 + mp.mpf(y.numerator) / y.denominator) / mp.log(2))

    def test_zero_and_domain(self):
        assert log2_1p(Fraction(0), 64) == DyadicInterval.zero()
        for y in (Fraction(-2, 3), Fraction(-1), Fraction(3, 2)):
            with pytest.raises(DomainError):
                log2_1p(y, 64)

    def test_no_log_core_call(self, monkeypatch):
        log2_1p(Fraction(1, 12345), 64)  # log2 e, on first use

        def refused(num, den, p):
            raise AssertionError("log2_1p called the log core")

        monkeypatch.setattr(enclosures_mod, "_log2_raw", refused)
        log2_1p(Fraction(1, 12345), 64)
        log2_1p(-Fraction(11, 11520) / 3000**4, 64)


class TestLn1pCoreBracket:
    """The unpadded series bracket of ln(1 + y) on its own 2^-s grid, before
    the guard bits and the pad can absorb a missed ulp of the working grid."""

    # (num, den, s) where the series stops with its tail exactly one working
    # ulp short: without the one-ulp tail cover, the bracket ends below
    # ln(1 + y) (for y < 0, above it).  Found by a search against mpmath over
    # den < 40 and s < 25; t = y / (2 + y) is 1/2, 1/8, 1/16, 1/32 or 8/47.
    TAIL_COVERED = [
        (2, 3, 1), (-2, 5, 1), (13, 20, 1), (2, 7, 3), (-2, 9, 3),
        (2, 15, 5), (-2, 17, 5), (16, 39, 6), (2, 31, 7), (-2, 33, 7),
    ]

    @staticmethod
    def _assert_contains(num, den, s):
        lo, hi = enclosures_mod._ln1p_core(num, den, s)
        assert hi - lo <= 2
        with mp.workprec(s + 200):
            v = mp.log1p(mp.mpf(num) / den) * mp.mpf(2) ** s
            assert lo <= v <= hi, (num, den, s, lo, hi)

    @pytest.mark.parametrize("num,den,s", TAIL_COVERED)
    def test_tail_cover_keeps_the_value_inside(self, num, den, s):
        self._assert_contains(num, den, s)

    @pytest.mark.parametrize("num,den,s", TAIL_COVERED)
    def test_unreduced_ratio_gives_the_same_bracket(self, num, den, s):
        # callers pass y as an integer ratio without reducing it
        assert enclosures_mod._ln1p_core(6 * num, 6 * den, s) == enclosures_mod._ln1p_core(num, den, s)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 64), st.integers(-32, 64), st.integers(1, 40))
    def test_contains_small_arguments(self, den, num, s):
        if num == 0 or not -den <= 2 * num <= 2 * den:
            return
        self._assert_contains(num, den, s)


class TestAlternatingSum:
    """The one sum behind Machin's arctangents and the Stirling series."""

    @pytest.mark.parametrize("w", [20, 64, 257, 1024, 4112])
    @pytest.mark.parametrize("x", [2, 3, 5, 239])
    def test_arctangent_contains_and_is_narrow(self, x, w):
        lo, hi = enclosures_mod._atan_inv_scaled(x, w)
        # the terms 1 / ((2i + 1) x^(2i + 1)) of at least one ulp are kept
        kept = next(i for i in range(w + 1) if (2 * i + 1) * x ** (2 * i + 1) > 1 << w)
        assert hi - lo <= kept + 1
        with mp.workprec(w + 64):
            assert lo <= mp.atan(mp.mpf(1) / x) * mp.mpf(2) ** w <= hi

    def test_covers_the_remainder_on_the_side_of_the_first_omitted_term(self):
        # 1 - 1/2 + 1/4 - 1/8 + ... = 2/3; at w = 3 the term 1/16 is omitted
        halving = [((-1) ** i, 1 << i) for i in range(10)]
        lo, hi = enclosures_mod._alternating_sum(halving, 3)
        assert (lo, hi) == (5, 6) and lo <= 8 * Fraction(2, 3) <= hi
        lo, hi = enclosures_mod._alternating_sum(halving[1:], 3)  # -1/2 + 1/4 - ...
        assert (lo, hi) == (-3, -2) and lo <= -8 * Fraction(1, 3) <= hi

    def test_terms_that_run_out_are_refused(self):
        with pytest.raises(DomainError, match="does not reach"):
            enclosures_mod._alternating_sum([(1, 2), (-1, 4)], 8)


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
        for p in (16, 64, 256, 1024, 4096):
            iv = fn(p)
            assert iv.width_within(p)
            with mp.workprec(p + 600):
                value = live()
            assert interval_contains(iv, value), p

    def test_containment_reads_fine_endpoints_exactly(self):
        # [v - 2^-1010, v + 2^-1010] around v = 1 + 2^-999: rounded to the
        # 464 bits of the oracle context, both ends would read 1, above and
        # below v
        v = (1 << 1010) + (1 << 11)
        iv = DyadicInterval.from_mantissas(v - 1, v + 1, -1010)
        with mp.workprec(1100):
            value = 1 + mp.mpf(2) ** -999
            outside = value + mp.mpf(2) ** -1009
        assert interval_contains(iv, value)
        assert not interval_contains(iv, outside)


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
