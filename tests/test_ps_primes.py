"""Sieve, PS membership, and table tests.

Oracles: trial division for the sieve, mpmath at 50 digits for membership,
brute-force window filters for tables.
"""

import csv
import math

import mpmath
import numpy as np
import pytest

from psquintet import Family, ProblemInstance, SumSpec, ps_primes
from psquintet.errors import AdmissibilityError, CapacityExceeded
from psquintet.ps_primes import (
    PsPrimeTable,
    build_table,
    check_gamma,
    export_table,
    is_ps_prime,
    ps_prime_count,
    sieve_primes,
    window_bounds,
)


def trial_division_primes(lo, hi):
    out = []
    for n in range(max(lo, 2), hi + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def ps_oracle(p, gamma):
    # 50-digit decision, independent code path from the library's escalation
    with mpmath.workdps(50):
        g = mpmath.mpf(gamma)
        return int(mpmath.floor(mpmath.power(p, g))) < int(mpmath.floor(mpmath.power(p + 1, g))) \
            or mpmath.power(p, g) == mpmath.floor(mpmath.power(p, g))


class TestSieve:
    def test_small_ranges(self):
        assert sieve_primes(2, 10).tolist() == [2, 3, 5, 7]
        assert sieve_primes(90, 100).tolist() == [97]
        assert sieve_primes(2, 1).tolist() == []

    def test_against_trial_division_around_1e6(self):
        got = sieve_primes(10 ** 6, 10 ** 6 + 100).tolist()
        assert got == trial_division_primes(10 ** 6, 10 ** 6 + 100)

    def test_counts(self):
        assert len(sieve_primes(2, 10 ** 4)) == 1229
        assert len(sieve_primes(2, 10 ** 5)) == 9592

    def test_segmented_crossing(self):
        # range spanning several segments agrees with one-shot small sieve
        lo, hi = 4194200, 4194400
        assert sieve_primes(lo, hi).tolist() == trial_division_primes(lo, hi)

    def test_span_budget(self, monkeypatch):
        monkeypatch.setattr(ps_primes, "_MAX_SPAN", 10 ** 6)
        with pytest.raises(CapacityExceeded):
            sieve_primes(2, 10 ** 7)


class TestPsMembership:
    def test_known_values(self):
        assert is_ps_prime(7, 0.9)[0] is True      # [5.758, 6.498) contains 6
        assert is_ps_prime(13, 0.9)[0] is False    # [10.059, 10.752) has none
        assert is_ps_prime(2, 0.999999)[0] is True

    def test_certainty_flag_values(self):
        member, certainty = is_ps_prime(7, 0.9)
        assert certainty in ("guarded", "escalated")

    def test_against_50_digit_oracle(self):
        for gamma in (0.90, 0.95, 0.99):
            for p in sieve_primes(2, 2000):
                p = int(p)
                assert is_ps_prime(p, gamma)[0] == ps_oracle(p, gamma), (p, gamma)

    def test_accepts_a_numpy_float(self):
        assert is_ps_prime(7, np.float64(0.9)) == is_ps_prime(7, 0.9)

    @pytest.mark.parametrize("p,member", [(1013, True), (1009, False)])
    def test_power_near_an_integer_escalates(self, p, member):
        # gamma = log 1000 / log p puts p^gamma within 1e-9 of 1000, inside
        # the guard band, so the 50-digit path decides, either way
        gamma = math.log(1000) / math.log(p)
        assert abs(float(p) ** gamma - 1000) < 1e-9
        assert is_ps_prime(p, gamma) == (ps_oracle(p, gamma), "escalated")
        assert ps_oracle(p, gamma) is member
        assert_table_matches_oracle(gamma, float(p * p), 0.99, p)

    def test_floor_cross_check_escalates(self):
        # the one such prime in [1e9, 1.001e9] at gamma 0.99 or 0.995: both
        # endpoint powers stand clear of the guard band and n = ceil(p^gamma)
        # lies below (p+1)^gamma, but n^(1/gamma) rounds below p in double
        # precision, so the floor cross-check hands the decision to 50 digits
        p, gamma = 1000067591, 0.995
        lo, hi = float(p) ** gamma, float(p + 1) ** gamma
        assert min(abs(lo - round(lo)), abs(hi - round(hi))) >= 1e-9
        n = math.ceil(lo)
        assert n < hi and math.floor(n ** (1.0 / gamma)) != p
        assert is_ps_prime(p, gamma) == (ps_oracle(p, gamma), "escalated")
        assert_table_matches_oracle(gamma, float((p + 1) ** 2), 1 - 1e-8, p)


def assert_table_matches_oracle(gamma, x_max, lambda0, p):
    """build_table's primes over a square window holding p are the oracle's."""
    lo, hi = window_bounds(x_max, lambda0, 2)
    assert lo <= p <= hi
    want = [int(q) for q in sieve_primes(lo, hi) if ps_oracle(int(q), gamma)]
    assert build_table(gamma, x_max, lambda0, 2).primes.tolist() == want


class TestCheckGamma:
    @pytest.mark.parametrize("gamma", [1.0, 0.0, math.nan])
    def test_range_validation(self, gamma):
        with pytest.raises(ValueError, match=r"gamma must be in \(0,1\)"):
            check_gamma(gamma)

    def test_returns_a_float(self):
        got = check_gamma(np.float64(0.99))
        assert type(got) is float and got == 0.99

    def test_admissibility(self):
        # the density bound 2426/2817 of a sum, the theorem bound a/b of an
        # instance: gamma 0.99 passes both for k = 2, 0.95 only the first
        lams = (math.sqrt(2), 1.0, 1.0, 1.0, -3.0)
        SumSpec(Family.S, 2, 100.0, 0.1, 0.99)
        ProblemInstance(lams, 0.0, 2, 0.99, 0.001)
        with pytest.raises(AdmissibilityError, match="129/130"):
            ProblemInstance(lams, 0.0, 3, 0.99, 0.001)
        SumSpec(Family.S, 2, 100.0, 0.1, 0.95)
        with pytest.raises(AdmissibilityError, match="71/72"):
            ProblemInstance(lams, 0.0, 2, 0.95, 0.001)
        with pytest.raises(AdmissibilityError, match="2426/2817"):
            SumSpec(Family.S, 2, 100.0, 0.1, 0.85)


class TestBuildTable:
    def test_window_bounds(self):
        assert window_bounds(100.0, 0.25, 2) == (6, 10)
        assert window_bounds(100.0, 0.01, 2) == (2, 10)
        assert window_bounds(1000.0, 0.1, 3) == (5, 10)

    def test_single_entry_example(self):
        table = build_table(0.9, 100.0, 0.25, 2)
        assert table.primes.tolist() == [7]
        assert table.weights[0] == pytest.approx(7 ** 0.1 * math.log(7), rel=1e-12)

    def test_xmax_guard(self):
        with pytest.raises(ValueError):
            build_table(0.9, 3.0, 0.5, 2)

    def test_empty_via_narrow_window(self):
        table = build_table(0.9, 24.0, 0.99, 2)  # window (23.76, 24], no square
        assert len(table) == 0

    def test_matches_brute_filter(self):
        table = build_table(0.95, 10 ** 6, 0.1, 2)
        lo, hi = window_bounds(10 ** 6, 0.1, 2)
        brute = [int(p) for p in sieve_primes(lo, hi)
                 if ps_oracle(int(p), 0.95)]
        assert table.primes.tolist() == brute
        assert np.all(table.weights > 0)
        assert np.all(np.diff(table.primes) > 0)

    def test_density_ratio_reported(self):
        table = build_table(0.9, 10 ** 6, 0.1, 2)
        assert 0.5 < table.density_ratio < 1.5

    def test_density_ratio_of_a_table_built_by_hand(self):
        # derived from the fields, so a table not made by build_table has it
        table = build_table(0.9, 10 ** 6, 0.1, 2)
        by_hand = PsPrimeTable(table.gamma, table.x_max, table.lambda0, table.k,
                               table.primes, table.weights)
        want = len(table) / (1000.0 ** 0.9 / math.log(1000.0))
        assert by_hand.density_ratio == table.density_ratio == want


class TestDensityDiagnostic:
    def test_bracket_at_1e5(self):
        count = ps_prime_count(10 ** 5, 0.9)
        norm = (10 ** 5) ** 0.9 / math.log(10 ** 5)
        assert 0.7 <= count / norm <= 1.3


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        table = build_table(0.99, 2000.0, 0.1, 2)
        path = tmp_path / "table.csv"
        n_bytes = export_table(table, str(path))
        assert n_bytes == path.stat().st_size > 0
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["p", "weight"]
        assert [int(p) for p, _ in rows] == table.primes.tolist()
        # bit-exact via %.17g
        assert [float(w) for _, w in rows] == table.weights.tolist()
