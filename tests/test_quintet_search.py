import csv
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psquintet import (
    CapacityExceeded,
    EmptyWindow,
    GammaParam,
    HalfSumArray,
    ProblemInstance,
    SpecMismatch,
    brute_oracle,
    build_table,
    export_solutions,
    search_mitm,
)
from psquintet import quintet_search
from psquintet.quintet_search import _search_bytes, within_radius

GP = GammaParam(0.99)
SQRT2 = math.sqrt(2)


def make_inst(lambdas=(SQRT2, 1, 1, 1, -3), eta=0.0, k=2, lambda0=0.1):
    return ProblemInstance(tuple(lambdas), eta, k, GP, 0.001, lambda0)


def exact_form_value(inst, p):
    ks = (2, 2, 2, 2, inst.k)
    acc = Fraction(inst.eta)
    for lam, pj, kj in zip(inst.lambdas, p, ks):
        acc += Fraction(lam) * pj ** kj
    return acc


def random_cases(n, seed):
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < n:
        lam = rng.uniform(0.5, 3.0, size=5) * rng.choice([-1.0, 1.0], size=5)
        if not (lam.min() < 0 < lam.max()):
            continue
        x = float(rng.uniform(300.0, 1500.0))
        lam0 = float(rng.uniform(0.05, 0.4))
        inst = make_inst(tuple(lam), float(rng.uniform(-20, 20)), 2, lam0)
        table = build_table(GP, x, lam0, 2)
        if not 0 < len(table) <= 30:
            continue
        cases.append((inst, [table] * 5, float(rng.uniform(1.0, 40.0))))
    return cases


class TestHalfSumArray:
    def test_sorted_and_recomputable(self):
        tab = build_table(GP, 1500.0, 0.1, 2)
        arr = HalfSumArray.build(SQRT2, tab, -1.0, tab)
        assert len(arr.sums) == len(tab) ** 2
        assert np.all(np.diff(arr.sums) >= 0)
        a = SQRT2 * tab.primes.astype(float) ** 2
        b = -1.0 * tab.primes.astype(float) ** 2
        assert arr.n_b == len(tab)
        assert sorted(arr.index.tolist()) == list(range(len(arr.sums)))
        for i in range(len(arr.sums)):
            ia, ib = divmod(int(arr.index[i]), arr.n_b)
            assert arr.sums[i] == a[ia] + b[ib]

    def test_ties_keep_flat_index_order(self):
        # lambda_b = -lambda_a: every diagonal pair sums to 0; the stable
        # sort keeps them in flat-index order, so the search is reproducible
        tab = build_table(GP, 1500.0, 0.1, 2)
        arr = HalfSumArray.build(1.0, tab, -1.0, tab)
        zeros = arr.index[arr.sums == 0.0].tolist()
        assert zeros == [i * (len(tab) + 1) for i in range(len(tab))]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HalfSumArray(sums=np.zeros(3), index=np.zeros(2, dtype=np.int64),
                         n_b=1)


class TestSearchExamples:
    def test_radius_below_minimum_gives_empty(self):
        # single-prime windows {7}: the form value is 49*(sqrt2 + 3 - 3) = 69.3
        tab = build_table(GP, 64.0, 0.5, 2)
        assert search_mitm(make_inst(), [tab] * 5, 1.0) == []

    def test_tiny_instance_matches_brute_force(self):
        inst = make_inst(lambda0=0.02)
        tab = build_table(GP, 961.0, 0.02, 2)  # windows of primes <= 31
        got = search_mitm(inst, [tab] * 5, 5.0, limit=10 ** 6)
        want = brute_oracle(inst, [tab] * 5, 5.0)
        assert got == want
        assert len(got) > 0

    def test_forced_cancellation_first(self):
        # lambda = (1,1,1,1,-4) makes every diagonal quintuple vanish; with a
        # {7}-only window the zero value (7,7,7,7,7) leads the output
        inst = make_inst((1, 1, 1, 1, -4), lambda0=0.5)
        tab = build_table(GP, 64.0, 0.5, 2)
        sols = search_mitm(inst, [tab] * 5, 1.0)
        assert sols[0].p == (7, 7, 7, 7, 7)
        assert sols[0].value == 0.0
        assert sols[0].max_p == 7

    def test_brute_radius_inf_single_prime(self):
        inst = make_inst(lambda0=0.5)
        tab = build_table(GP, 64.0, 0.5, 2)
        sols = brute_oracle(inst, [tab] * 5, 1e9)
        assert len(sols) == 1
        assert sols[0].p == (7, 7, 7, 7, 7)


class TestOracleEquivalence:
    def test_randomized_instances(self):
        for inst, tables, radius in random_cases(12, seed=2024):
            got = search_mitm(inst, tables, radius, limit=10 ** 6)
            want = brute_oracle(inst, tables, radius)
            assert got == want

    def test_thread_count_invariance(self):
        inst, tables, radius = random_cases(1, seed=5)[0]
        one = search_mitm(inst, tables, radius, limit=10 ** 6, threads=1)
        four = search_mitm(inst, tables, radius, limit=10 ** 6, threads=4)
        assert one == four


# admissible gamma of the k = 3 and k = 4 theorems (above 129/130, 245/246)
_THEOREM_GAMMA = {3: GammaParam(0.995), 4: GammaParam(0.997)}
# per exponent: the range of a window's top n and its widest span, chosen so
# that n^2 and n^k cover like magnitudes (about 1e3 to 2e5)
_WINDOWS = {2: (40, 450, 60), 3: (14, 60, 30), 4: (9, 22, 12)}


@st.composite
def higher_power_cases(draw, k):
    """(instance, tables, radius): every slot has its own window (lo, hi],
    so its own x_max = hi^kj and lambda0 = (lo/hi)^kj, and eta puts one
    quintuple within radius/2 of zero."""
    gp = _THEOREM_GAMMA[k]
    tables = []
    for kj in (2, 2, 2, 2, k):
        top_min, top_max, span = _WINDOWS[kj]
        hi = draw(st.integers(top_min, top_max))
        lo = hi - draw(st.integers(3, min(span, hi - 2)))
        x = float(hi ** kj)
        tab = build_table(gp, x, lo ** kj / x, kj)
        assume(0 < len(tab) <= 12)
        tables.append(tab)
    lams = [draw(st.floats(0.5, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
            for _ in range(5)]
    if min(lams) > 0 or max(lams) < 0:
        lams[4] = -lams[4]
    radius = draw(st.floats(1.0, 300.0))
    p = [int(draw(st.sampled_from(list(t.primes)))) for t in tables]
    eta = -sum(l * pj ** kj for l, pj, kj in zip(lams, p, (2, 2, 2, 2, k)))
    eta += draw(st.floats(-0.5, 0.5)) * radius
    return ProblemInstance(tuple(lams), eta, k, gp, 0.001, 0.5), tables, radius


class TestOracleEquivalenceHigherPowers:
    # the paper's k = 3 and k = 4 theorems, mixed slot tables
    @pytest.mark.parametrize("k", [3, 4])
    def test_search_matches_brute_force(self, k):
        @settings(max_examples=30, derandomize=True, database=None, deadline=None)
        @given(higher_power_cases(k))
        def check(case):
            inst, tables, radius = case
            want = brute_oracle(inst, tables, radius)
            assert want
            assert search_mitm(inst, tables, radius, limit=10 ** 6) == want

        check()


class TestSolutionContract:
    def setup_method(self):
        self.inst = make_inst(lambda0=0.02)
        tab = build_table(GP, 961.0, 0.02, 2)
        self.tables = [tab] * 5
        self.sols = search_mitm(self.inst, self.tables, 8.0, limit=10 ** 6)
        assert self.sols

    def test_certified_within_radius(self):
        for s in self.sols:
            exact = exact_form_value(self.inst, s.p)
            assert abs(exact) < Fraction(8)
            assert abs(float(exact) - s.value) <= 1e-9

    def test_ordering(self):
        keys = [(abs(s.value), s.p) for s in self.sols]
        assert keys == sorted(keys)

    def test_weights_and_theorem_flag(self):
        g = GP.gamma
        exp = (71.0 - 72.0 * g) / 29.0 + self.inst.theta_exp
        for s in self.sols:
            w = math.prod(p ** (1 - g) * math.log(p) for p in s.p)
            assert s.weight == pytest.approx(w, rel=1e-12)
            assert s.max_p == max(s.p)
            assert s.meets_theorem_radius == (abs(s.value) < s.max_p ** exp)

    def test_radius_monotonicity(self):
        small = {s.p for s in search_mitm(self.inst, self.tables, 3.0, limit=10 ** 6)}
        assert small <= {s.p for s in self.sols}

    def test_limit_truncates(self):
        top = search_mitm(self.inst, self.tables, 8.0, limit=3)
        assert top == self.sols[:3]

    def test_within_radius_is_the_narrower_search(self):
        cuts = [3.0, abs(self.sols[len(self.sols) // 2].value), 8.0, 100.0]
        for radius in cuts:
            want = search_mitm(self.inst, self.tables, min(radius, 8.0),
                               limit=10 ** 6)
            assert within_radius(self.inst, self.sols, radius) == want


class TestErrors:
    def test_empty_window(self):
        tab = build_table(GP, 961.0, 0.02, 2)
        empty = build_table(GP, 24.0, 0.99, 2)
        assert len(empty) == 0
        with pytest.raises(EmptyWindow):
            search_mitm(make_inst(lambda0=0.02), [tab] * 4 + [empty], 5.0)

    def test_wrong_slot_exponent(self):
        tab = build_table(GammaParam(0.995), 961.0, 0.1, 2)
        inst995 = ProblemInstance((SQRT2, 1, 1, 1, -3), 0.0, 3,
                                  GammaParam(0.995), 0.001, 0.1)
        with pytest.raises(SpecMismatch):
            search_mitm(inst995, [tab] * 5, 5.0)  # slot 5 needs a cube table

    def test_wrong_gamma(self):
        tab = build_table(GammaParam(0.995), 961.0, 0.1, 2)
        with pytest.raises(SpecMismatch):
            search_mitm(make_inst(), [tab] * 5, 5.0)

    def test_wrong_table_count(self):
        tab = build_table(GP, 961.0, 0.1, 2)
        with pytest.raises(SpecMismatch):
            search_mitm(make_inst(), [tab] * 4, 5.0)

    def test_bad_radius_and_limit(self):
        tab = build_table(GP, 961.0, 0.1, 2)
        with pytest.raises(ValueError):
            search_mitm(make_inst(), [tab] * 5, 0.0)
        with pytest.raises(ValueError):
            search_mitm(make_inst(), [tab] * 5, 1.0, limit=0)

    def test_memory_budget(self):
        tab = build_table(GP, 961.0, 0.02, 2)
        with pytest.raises(CapacityExceeded):
            search_mitm(make_inst(lambda0=0.02), [tab] * 5, 5.0, memory_mb=1e-4)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_memory_estimate_matches_peak(self, threads):
        # radius far below any form value: no hits, so the peak is the
        # pair arrays and the scan temporaries the budget guards
        tab = build_table(GP, 3e6, 0.1, 2)
        tracemalloc.start()
        try:
            sols = search_mitm(make_inst(), [tab] * 5, 1e-12, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sols == []
        est = _search_bytes([len(tab)] * 5, threads)
        assert 0.85 * est <= peak <= 1.15 * est

    def test_hit_ceiling_stops_the_scan(self, monkeypatch):
        # the ceiling is checked as p5 blocks arrive, so the count it reports
        # stays within the blocks in flight, far below the full count
        inst = make_inst(lambda0=0.02)
        tables = [build_table(GP, 3000.0, 0.02, 2)] * 5
        sols = search_mitm(inst, tables, 10.0, limit=10 ** 6)
        block = max(Counter(s.p[4] for s in sols).values())
        monkeypatch.setattr(quintet_search, "_MAX_HITS", 10)
        with pytest.raises(CapacityExceeded) as info:
            search_mitm(inst, tables, 10.0, threads=2)
        reported = int(str(info.value).split()[0])
        assert 10 < reported <= 10 + 2 * block < len(sols)

    def test_brute_cardinality_cap(self):
        tab = build_table(GP, 100000.0, 0.001, 2)
        assert len(tab) ** 5 > 10 ** 8
        with pytest.raises(CapacityExceeded):
            brute_oracle(make_inst(lambda0=0.001), [tab] * 5, 1.0)


class TestExport:
    def test_csv(self, tmp_path):
        inst = make_inst(lambda0=0.02)
        tab = build_table(GP, 961.0, 0.02, 2)
        sols = search_mitm(inst, [tab] * 5, 8.0, limit=5)
        path = tmp_path / "solutions.csv"
        n = export_solutions(str(path), sols)
        text = path.read_text()
        assert n == len(text.encode())
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["p1", "p2", "p3", "p4", "p5", "value", "max_p",
                           "meets_theorem_radius"]
        assert len(rows) == len(sols) + 1
        first = rows[1]
        assert tuple(int(v) for v in first[:5]) == sols[0].p
        assert float(first[5]) == sols[0].value
        assert first[7] in ("true", "false")
