import csv
import itertools
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psquintet import (
    BudgetExceeded,
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
from psquintet import _io
from psquintet._io import fmt17
from psquintet.cli import effective_radius, parse_config
from psquintet.dh_pipeline import derive_params, instance_tables
from psquintet.ps_primes import PsPrimeTable, export_table, prime_weights
from psquintet.quintet_search import QuintetSolutions, _search_bytes, within_radius
from solution_rows import csv_writer_text, rows

GP = GammaParam(0.99)
SQRT2 = math.sqrt(2)
# lambda2 = sqrt(3): every slot's residue modulus, unscaled, is then below
# 1e-13, far below twice any radius used here, so the residue filter drops
# nothing and slot 5 stays the outer slot
UNREDUCIBLE = (SQRT2, math.sqrt(3), 1, 1, -3)


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


def squares(tab):
    return tab.primes.astype(np.float64) ** 2


def index_rows(hits, gamma):
    """(slots, rows) of the prime rows hits, as _finalize takes them: per
    slot its distinct primes ascending with their weights by the table's
    rule, and the rows as indices into them."""
    cols = [np.unique(c, return_inverse=True)
            for c in np.array(hits, dtype=np.int64).reshape(-1, 5).T]
    return ([(primes, prime_weights(primes, gamma)) for primes, _ in cols],
            np.column_stack([at for _, at in cols]))


class TestHalfSumArray:
    def test_sorted_and_recomputable(self):
        tab = build_table(GP, 1500.0, 0.1, 2)
        a, b = SQRT2 * squares(tab), -1.0 * squares(tab)
        arr = HalfSumArray.build(a, b)
        assert len(arr.sums) == len(tab) ** 2
        assert np.all(np.diff(arr.sums) >= 0)
        assert arr.n_b == len(tab)
        assert arr.index.dtype == np.int32
        assert sorted(arr.index.tolist()) == list(range(len(arr.sums)))
        for i in range(len(arr.sums)):
            ia, ib = divmod(int(arr.index[i]), arr.n_b)
            assert arr.sums[i] == a[ia] + b[ib]

    def test_unordered_build_is_the_upper_triangle_of_the_full_one(self):
        # equal sums from different pairs (11^2 + 23^2 = 17^2 + 19^2) tie,
        # in no set order in either build
        tab = build_table(GP, 4000.0, 0.02, 2)
        a = 2.0 * squares(tab)
        full = HalfSumArray.build(a, a)
        half = HalfSumArray.build(a, a, unordered=True)
        i, j = np.divmod(full.index, full.n_b)
        keep = i <= j
        assert half.n_b == full.n_b == len(tab)
        assert half.index.dtype == full.index.dtype == np.int32
        assert len(half.sums) == len(tab) * (len(tab) + 1) // 2
        assert np.all(np.diff(half.sums) >= 0)
        assert sorted(zip(half.sums.tolist(), half.index.tolist())) == \
            sorted(zip(full.sums[keep].tolist(), full.index[keep].tolist()))
        assert len(set(half.sums.tolist())) < len(half.sums)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HalfSumArray(sums=np.zeros(3), index=np.zeros(2, dtype=np.int64),
                         n_b=1)


class TestSearchExamples:
    def test_radius_below_minimum_gives_empty(self):
        # single-prime windows {7}: the form value is 49*(sqrt2 + 3 - 3) = 69.3
        tab = build_table(GP, 64.0, 0.5, 2)
        assert len(search_mitm(make_inst(), [tab] * 5, 1.0)) == 0

    def test_tiny_instance_matches_brute_force(self):
        inst = make_inst(lambda0=0.02)
        tab = build_table(GP, 961.0, 0.02, 2)  # windows of primes <= 31
        got = search_mitm(inst, [tab] * 5, 5.0)
        want = brute_oracle(inst, [tab] * 5, 5.0)
        assert rows(got) == rows(want)
        assert len(got) > 0

    def test_forced_cancellation_first(self):
        # lambda = (1,1,1,1,-4) makes every diagonal quintuple vanish; with a
        # {7}-only window the zero value (7,7,7,7,7) leads the output
        inst = make_inst((1, 1, 1, 1, -4), lambda0=0.5)
        tab = build_table(GP, 64.0, 0.5, 2)
        sols = search_mitm(inst, [tab] * 5, 1.0)
        assert sols.p[0].tolist() == [7, 7, 7, 7, 7]
        assert sols.value[0] == 0.0
        assert sols.max_p[0] == 7

    def test_brute_radius_inf_single_prime(self):
        inst = make_inst(lambda0=0.5)
        tab = build_table(GP, 64.0, 0.5, 2)
        sols = brute_oracle(inst, [tab] * 5, 1e9)
        assert len(sols) == 1
        assert sols.p[0].tolist() == [7, 7, 7, 7, 7]


class TestOracleEquivalence:
    def test_randomized_instances(self):
        for inst, tables, radius in random_cases(12, seed=2024):
            got = search_mitm(inst, tables, radius)
            want = brute_oracle(inst, tables, radius)
            assert rows(got) == rows(want)

    def test_thread_count_invariance(self):
        inst, tables, radius = random_cases(1, seed=5)[0]
        one = search_mitm(inst, tables, radius, threads=1)
        four = search_mitm(inst, tables, radius, threads=4)
        assert rows(one) == rows(four)

    def test_ties_order_by_p(self):
        # lambda1 = lambda2, so (a, b, ...) and (b, a, ...) share their exact
        # value; integer lambdas summing to 0 and p^2 = 1 mod 24 put every
        # value on a multiple of 24, so V and -V both occur. Both searches
        # order by exact |value|, then p lexicographically
        inst = make_inst((1, 1, 2, 3, -7), lambda0=0.02)
        tables = [build_table(GP, 961.0, 0.02, 2)] * 5
        radius = 50.0
        near = [p for p in itertools.product(*[t.primes.tolist() for t in tables])
                if abs(sum(l * q * q for l, q in zip(inst.lambdas, p))) < 2 * radius]
        exact = {p: exact_form_value(inst, p) for p in near}
        want = sorted((p for p, v in exact.items() if abs(v) < radius),
                      key=lambda p: (abs(exact[p]), p))
        values = [exact[p] for p in want]
        assert {24, -24, 48, -48} <= set(values)
        assert (5, 7, 5, 5, 5) in want and (7, 5, 5, 5, 5) in want
        for sols in (search_mitm(inst, tables, radius, threads=2),
                     brute_oracle(inst, tables, radius)):
            assert [r[0] for r in rows(sols)] == want


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
            assert rows(search_mitm(inst, tables, radius)) == rows(want)

        check()

    @pytest.mark.parametrize("k, gamma, q0_floor, count", [
        # the cases of the certified census the 10^8-tuple cap admits: k = 2
        # at q0 169 has five slots of 29 primes, k = 4 at q0 408 four of 69
        # and a slot 5 of 3
        (2, 0.99, 169, 201), (4, 0.997, 408, 105)])
    def test_census_at_the_theorem_radius(self, k, gamma, q0_floor, count):
        # the pinned instance as the CLI runs it with radius "theorem"
        cfg = parse_config(json.dumps({
            "lambdas": [SQRT2, 1.0, 1.0, 1.0, -3.0], "eta": 0.0, "k": k,
            "gamma": gamma, "theta": 0.001, "q0_floor": q0_floor,
            "radius": "theorem", "seed": 1}))
        tables = instance_tables(cfg.instance, derive_params(cfg.instance, q0_floor))
        radius = effective_radius(cfg, tables)
        got = search_mitm(cfg.instance, tables, radius, threads=2)
        assert len(got) == count
        assert rows(got) == rows(brute_oracle(cfg.instance, tables, radius))


@st.composite
def lattice_cases(draw, k):
    """(tables, radius, quintuple, instances): integer or dyadic lambdas over
    windows of primes above 3, so that slot 1's residue modulus g (scaled by
    S) is at least 3, and a radius whose bound S*radius lies below g/2, so
    that the filter applies to slot 1. Each of the six instances takes an
    eta that puts the scaled value of the drawn quintuple at -bound or
    +bound, or one unit inside or outside either: its slot-1 term lies that
    far from a point of gZ. Each comes with whether |value| < bound."""
    gp = _THEOREM_GAMMA.get(k, GP)
    tables = []
    for kj in (2, 2, 2, 2, k):
        top_min, top_max, span = _WINDOWS[kj]
        hi = draw(st.integers(top_min, top_max))
        lo = max(5, hi - draw(st.integers(span // 2, span)))
        x = float(hi ** kj)
        tab = build_table(gp, x, lo ** kj / x, kj)
        assume(0 < len(tab) <= 12)
        tables.append(tab)
    lams = [math.ldexp(draw(st.integers(1, 40)) * draw(st.sampled_from([-1, 1])),
                       -draw(st.integers(0, 3))) for _ in range(5)]
    if min(lams) > 0 or max(lams) < 0:
        lams[4] = -lams[4]
    # eta = 0 and radius 1 leave S the lambdas' largest denominator, and the
    # etas and radius below have denominators dividing it
    probe = ProblemInstance(tuple(lams), 0.0, k, gp, 0.001, 0.5)
    g = quintet_search._layout(probe, tables, 1.0).moduli[0]
    assume(g >= 3)
    scale = quintet_search._scaled(probe, 1.0)[3]
    bound = draw(st.integers(1, (g - 1) // 2))
    p = tuple(int(draw(st.sampled_from(t.primes.tolist()))) for t in tables)
    scaled = sum(int(l * scale) * pj ** kj
                 for l, pj, kj in zip(lams, p, (2, 2, 2, 2, k)))
    instances = []
    for side, unit in itertools.product((-1, 1), (-1, 0, 1)):
        eta = (side * bound + unit - scaled) / scale
        assert eta * scale == side * bound + unit - scaled
        instances.append((ProblemInstance(tuple(lams), eta, k, gp, 0.001, 0.5),
                          side * unit == -1))
    return tables, bound / scale, p, instances


class TestResidueFilter:
    # the search reduces each slot by its residue filter and scans the
    # smallest slot outermost; neither may change its result
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_search_matches_brute_force_on_a_lattice(self, k):
        @settings(max_examples=30, derandomize=True, database=None, deadline=None)
        @given(lattice_cases(k))
        def check(case):
            tables, radius, p, instances = case
            for inst, inside in instances:
                want = brute_oracle(inst, tables, radius)
                assert (p in [r[0] for r in rows(want)]) == inside
                assert rows(search_mitm(inst, tables, radius, threads=2)) == rows(want)

        check()

    def test_pinned_instance_at_desk_scale(self):
        # q0 2378 (search-desk): slot 1 keeps 4 of its 340 primes and is
        # scanned outermost; with lambda2 = sqrt(3) nothing is dropped
        inst = make_inst(lambda0=0.1)
        tables = instance_tables(inst, derive_params(inst, 2378))
        lay = quintet_search._layout(inst, tables, 0.05)
        scale = quintet_search._scaled(inst, 0.05)[3]
        assert lay.moduli[0] == 24 * scale
        assert lay.slots == (4, 1, 2, 3, 0)
        assert [len(p) for p in lay.primes] == [340] * 4 + [4]
        inst = make_inst(UNREDUCIBLE)
        tables = instance_tables(inst, derive_params(inst, 2378))
        lay = quintet_search._layout(inst, tables, 0.05)
        assert lay.slots == (0, 1, 2, 3, 4)
        assert all(len(p) == len(t) for p, t in zip(lay.primes, tables))

    @pytest.mark.parametrize("k", [3, 4])
    def test_outer_slot_swap_matches_brute_force(self, k):
        # lambda1 = 1/8 against integer lambdas: slot 1's modulus is 24 and
        # its terms p^2/8 spread over the residues, so it keeps 2 of 9
        # primes, fewer than slot 5's table of p^k, which moves into the
        # left half
        gp = _THEOREM_GAMMA[k]
        square = build_table(gp, 3600.0, 1 / 9, 2)
        top = {3: 40, 4: 20}[k]
        tables = [square] * 4 + [build_table(gp, float(top ** k),
                                             (top // 3 / top) ** k, k)]
        lams = (0.125, 1.0, 1.0, 1.0, {3: -12.0, 4: -1.0}[k])
        p = [37, 37, 37, 37, int(tables[4].primes[-1])]
        eta = 0.25 - sum(l * q ** kj for l, q, kj in zip(lams, p, (2, 2, 2, 2, k)))
        inst = ProblemInstance(lams, eta, k, gp, 0.001, 0.5)
        lay = quintet_search._layout(inst, tables, 1.0)
        assert lay.slots == (4, 1, 2, 3, 0)
        assert len(lay.primes[4]) == 2 < len(tables[4]) < len(square) == 9
        want = brute_oracle(inst, tables, 1.0)
        assert len(want) == 7
        assert rows(search_mitm(inst, tables, 1.0)) == rows(want)


def two_pass_candidates(lay, eta, band):
    """The scan's candidate tuples over a search layout, by two full
    searchsorted passes an outer prime, one per band edge; each tuple's
    primes in slot order."""
    t = lay.terms()
    left = HalfSumArray.build(t[0], t[1])
    right = HalfSumArray.build(t[2], t[3])
    pr = lay.primes
    out = []
    for p5, shift in zip(pr[4], t[4]):
        r = right.sums + (shift + eta)
        lo = np.searchsorted(left.sums, -r - band, side="left")
        hi = np.searchsorted(left.sums, -r + band, side="right")
        for j in np.flatnonzero(hi > lo):
            i3, i4 = divmod(int(right.index[j]), right.n_b)
            for m in range(lo[j], hi[j]):
                i1, i2 = divmod(int(left.index[m]), left.n_b)
                row = (int(pr[0][i1]), int(pr[1][i2]), int(pr[2][i3]),
                       int(pr[3][i4]), int(p5))
                out.append(tuple(row[s] for s in lay.slots))
    return out


def scan_candidates(monkeypatch, inst, tables, radius, threads):
    """(candidates, want, layout): the candidate rows the scan of
    search_mitm finds, with the guard at 0, and those of the two-pass scan
    of the layout it is given, each as a Counter (the scan's rows come in
    no set order)."""
    seen = []
    candidates = quintet_search._candidates

    def spy(lay, eta, band, *args):
        seen.append((lay, eta, band, candidates(lay, eta, band, *args)))
        return seen[-1][3]

    monkeypatch.setattr(quintet_search, "_guard", lambda *a: 0.0)
    monkeypatch.setattr(quintet_search, "_candidates", spy)
    search_mitm(inst, tables, radius, threads=threads)
    lay, eta, band, got = seen[0]
    assert got.dtype == np.int64 and band == radius
    # column j indexes the primes slot j keeps: slots is its own inverse
    got = np.column_stack([lay.primes[s][at] for s, at in zip(lay.slots, got.T)])
    return (Counter(map(tuple, got.tolist())),
            Counter(two_pass_candidates(lay, eta, band)), lay)


class TestScanBandEdges:
    # integer lambdas and eta give integer sums; with the guard at 0 the band
    # is the dyadic radius itself, so left sums sit exactly on -r - band and
    # on -r + band, where side="left" and side="right" decide membership.
    # p^2 = 1 mod 24 for p > 3 and both lambdas sum to 5, so every value is
    # 12 mod 24, as is each radius. The other four lambdas of each slot
    # include an odd one, so each slot's residue modulus is 24, at most twice
    # the radius: the filter drops nothing and the layout is the slot order
    # (with lambda = (1, 2, 2, 2, -2) slot 1's modulus is 48, and at radius
    # 12 it drops every slot-1 prime: no value lies below 12). With lambda3 =
    # lambda4 the scan keys one of each mirrored (p3, p4) pair, and the
    # table's equal sums from different pairs (11^2 + 23^2 = 17^2 + 19^2)
    # tie in the right half
    TABLES = [build_table(GP, 4000.0, 0.02, 2)] * 5

    @pytest.mark.parametrize("radius", [12.0, 36.0, 84.0])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("block", [61, 1 << 13])
    @pytest.mark.parametrize("lambdas", [(1, 2, 1, 3, -2), (1, 3, 2, 2, -3)],
                             ids=["ordered", "interchangeable"])
    def test_candidates_match_two_pass_scan(self, monkeypatch, radius, threads,
                                            block, lambdas):
        inst = make_inst(lambdas, eta=7.0, lambda0=0.02)
        mirror = lambdas[2] == lambdas[3]
        monkeypatch.setattr(quintet_search, "_SCAN_BLOCK", block)
        got, want, lay = scan_candidates(monkeypatch, inst, self.TABLES, radius,
                                         threads)
        assert lay.slots == (0, 1, 2, 3, 4)
        assert quintet_search._interchangeable(lay.lambdas, lay.primes) == mirror
        assert got == want and max(want.values()) == 1
        values = [exact_form_value(inst, p) for p in want]
        assert Fraction(radius) in values and -Fraction(radius) in values
        assert any(p[2] == p[3] for p in want)

    def test_equal_lambdas_on_different_primes_scan_ordered(self, monkeypatch):
        # lambda3 = lambda4 but slot 4 has fewer primes: not interchangeable.
        # Slot 5 has as few, so it stays the outer slot
        inst = make_inst((1, 2, 2, 2, -2), eta=7.0, lambda0=0.02)
        small = build_table(GP, 4000.0, 0.1, 2)
        tables = [*self.TABLES[:3], small, small]
        assert len(tables[3]) < len(tables[2])
        got, want, lay = scan_candidates(monkeypatch, inst, tables, 36.0, 2)
        assert lay.slots == (0, 1, 2, 3, 4)
        assert not quintet_search._interchangeable(lay.lambdas, lay.primes)
        assert got == want
        assert any(p[2] == p[3] for p in got)
        monkeypatch.undo()
        assert rows(search_mitm(inst, tables, 36.0)) == rows(
            brute_oracle(inst, tables, 36.0))

    def test_finalize_orders_candidates_in_any_order(self, monkeypatch):
        # the interchangeable case's candidates include mirrored pairs and
        # rows of equal |value|; _finalize alone orders them, so every
        # permutation of its input rows gives the same columns, bit for bit
        inst = make_inst((1, 3, 2, 2, -3), eta=7.0, lambda0=0.02)
        got, _, _ = scan_candidates(monkeypatch, inst, self.TABLES, 84.0, 2)
        hits = np.array(sorted(got), dtype=np.int64)
        assert any(p[2] != p[3] and (*p[:2], p[3], p[2], p[4]) in got for p in got)
        g = inst.gamma.gamma
        want = quintet_search._finalize(inst, *index_rows(hits, g), 84.0)
        assert 0 < len(np.unique(np.abs(want.value))) < len(want)

        def columns(sols):
            return (sols.p.tolist(), sols.value.view(np.int64).tolist(),
                    sols.weight.view(np.int64).tolist(), sols.max_p.tolist(),
                    sols.meets_theorem_radius.tolist())

        for seed in range(5):
            shuffled = hits[np.random.default_rng(seed).permutation(len(hits))]
            assert columns(quintet_search._finalize(inst, *index_rows(shuffled, g),
                                                    84.0)) == columns(want)

    def test_clipped_run_ends_on_the_left_range_edges(self, monkeypatch):
        # shifts that put one right sum's lower band edge exactly on the top
        # left sum, or its upper edge exactly on the bottom one
        monkeypatch.setattr(quintet_search, "_SCAN_BLOCK", 61)
        left = HalfSumArray.build(squares(self.TABLES[0]),
                                  2.0 * squares(self.TABLES[1])).sums
        right = HalfSumArray.build(squares(self.TABLES[2]),
                                   3.0 * squares(self.TABLES[3])).sums
        band = 24.0
        shifts = [shift for j in range(0, len(right), 37)
                  for shift in (-left[-1] - band - right[j],
                                -left[0] + band - right[j])]
        cells = quintet_search._cell_map(left, right, shifts, band)
        rcell = cells.cell_of(-right)
        for j in range(0, len(right), 37):
            for shift in (-left[-1] - band - right[j],
                          -left[0] + band - right[j]):
                r = right + shift
                lo = np.searchsorted(left, -r - band, side="left")
                hi = np.searchsorted(left, -r + band, side="right")
                want_j = np.repeat(np.arange(len(r)), hi - lo)
                want_m = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])
                (run,) = quintet_search._runs(left, right, [shift], band)
                blocks = list(quintet_search._scan(left, right, rcell, float(shift),
                                                   band, cells, run))
                got_j = [x for bj, _ in blocks for x in bj.tolist()]
                got_m = [x for _, bm in blocks for x in bm.tolist()]
                assert got_j == want_j.tolist() and got_m == want_m.tolist()
                assert j in got_j


def scan_pairs(left, right, shift, band):
    """The scan's (j, m) lists by two full searchsorted passes, one per band
    edge."""
    r = right + shift
    lo = np.searchsorted(left, -r - band, side="left")
    hi = np.searchsorted(left, -r + band, side="right")
    return (np.repeat(np.arange(len(r)), hi - lo).tolist(),
            [m for a, b in zip(lo, hi) for m in range(a, b)])


_UNIT = 2.0 ** -10


@st.composite
def cell_scan_cases(draw):
    """(left, right, shift, band) on a 2^-10 grid below 2^24, so every sum
    and key edge is exact. 4*band sits just below, on or just above a power
    of two; the left sums are multiples of a power of two near the band
    (contiguous ones put a left sum in every cell), 0 among them, so some lie
    on cell boundaries k*w; the shift puts one key's lower or upper band edge
    on 0 or on a left sum."""
    p = draw(st.integers(-6, 10))
    band = 2.0 ** p / 4 + draw(st.sampled_from([-_UNIT, 0.0, _UNIT]))
    step = 2.0 ** draw(st.integers(p - 3, p + 3))
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        k0 = draw(st.integers(-n + 1, 0))
        ks = range(k0, k0 + n)
    else:
        ks = {0, *draw(st.lists(st.integers(-300, 300), max_size=n - 1))}
    left = np.array(sorted(
        k * step + (draw(st.sampled_from([0.0, 0.0, _UNIT, -_UNIT])) if k else 0.0)
        for k in ks))
    right_step = step * 2.0 ** draw(st.integers(-2, 2))
    right = np.array(sorted(draw(st.lists(st.integers(-300, 300), min_size=1,
                                          max_size=30)))) * right_step
    j = draw(st.integers(0, len(right) - 1))
    edge = draw(st.sampled_from([0.0, *left.tolist()]))
    side = draw(st.sampled_from([-1.0, 1.0]))
    # -(right[j] + shift) + side * band == edge, exactly
    shift = side * band - edge - right[j]
    return left, right, shift, band


def ulps_off(x: float, n: int) -> float:
    """x moved n floats up (n > 0) or down."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


@st.composite
def off_grid_scan_cases(draw):
    """(left, right, shift, band) off any fixed grid: |shift| from 2^20 to
    2^60 against left sums at least 10^4 times smaller, right sums near
    -shift, and left sums, band and shift a few ulps off multiples of powers
    of two near or far below the spacing of the shift, which then sets the
    cell width. So the rounded key edges and left sums fall on either side
    of cell boundaries, and in the cases far below, a width set by the left
    sums alone would put the cell indices of the shift and right sums past
    2^63."""
    big = math.ldexp(draw(st.floats(1.0, 2.0)), draw(st.integers(20, 60)))
    q = math.frexp(big)[1] - 50 + draw(st.integers(-24, 4))
    band = ulps_off(2.0 ** q / 4, draw(st.integers(-2, 2)))
    step = 2.0 ** (q + draw(st.integers(-3, 3)))
    n = draw(st.integers(1, 40))
    ks = {0, *draw(st.lists(st.integers(-300, 300), max_size=n - 1))}
    left = np.array(sorted(ulps_off(k * step, draw(st.integers(-3, 3)))
                           for k in ks))
    right_step = step * 2.0 ** draw(st.integers(-2, 2))
    right = np.array(sorted(
        ulps_off(-big + k * right_step, draw(st.integers(-3, 3)))
        for k in draw(st.lists(st.integers(-300, 300), min_size=1, max_size=30))))
    j = draw(st.integers(0, len(right) - 1))
    edge = draw(st.sampled_from([0.0, *left.tolist()]))
    side = draw(st.sampled_from([-1.0, 1.0]))
    # -(right[j] + shift) + side * band lands within a few ulps of edge
    shift = ulps_off(side * band - edge - right[j], draw(st.integers(-3, 3)))
    return left, right, shift, band


def check_cell_scan(left, right, shift, band):
    """The scan through a cell map equals the two-pass oracle, the map's
    width and size follow _cell_map's rule, and its bits are the byte map
    in which each left sum in cell c marks cells c - 2 ... c + 1."""
    cells = quintet_search._cell_map(left, right, [shift], band)
    # w: the smallest power of two at least 4*band, 8 spacings of the
    # largest magnitude the scan reaches and the span over _MAP_CELLS cells
    # a left sum, so the map holds at most _MAP_CELLS cells a sum plus six
    w = 1.0 / cells.scale
    reach = max(abs(left[0]), abs(left[-1]), abs(right[0]), abs(right[-1]),
                abs(shift)) + 2 * band
    fine = max(4 * band, 8 * float(np.spacing(reach)),
               (left[-1] - left[0]) / (quintet_search._MAP_CELLS * len(left)))
    assert math.frexp(w)[0] == 0.5 and w / 2 < fine <= w
    bits = np.unpackbits(cells.occupied, bitorder="little")
    want = np.zeros(len(bits), dtype=np.uint8)
    at = cells.cell_of(left.copy()) - cells.base
    for d in (-2, -1, 0, 1):
        want[at + d] = 1
    assert np.array_equal(bits, want)
    # the top left sum marks the map's last cell, one above its own
    size = int(at[-1]) + 2
    assert size <= quintet_search._MAP_CELLS * len(left) + 6
    assert len(cells.occupied) == -(-size // 8) + 1
    (run,) = quintet_search._runs(left, right, [shift], band)
    blocks = list(quintet_search._scan(left, right, cells.cell_of(-right), shift,
                                       band, cells, run))
    got = ([x for bj, _ in blocks for x in bj.tolist()],
           [x for _, bm in blocks for x in bm.tolist()])
    assert got == scan_pairs(left, right, shift, band)


class TestCellFilter:
    def test_scan_matches_two_pass(self, monkeypatch):
        # short blocks: several a scan, and several for building the map
        monkeypatch.setattr(quintet_search, "_SCAN_BLOCK", 7)

        @settings(max_examples=400, derandomize=True, database=None,
                  deadline=None)
        @given(cell_scan_cases())
        def check(case):
            check_cell_scan(*case)

        check()

    def test_off_grid_scan_matches_two_pass(self, monkeypatch):
        monkeypatch.setattr(quintet_search, "_SCAN_BLOCK", 7)

        @settings(max_examples=400, derandomize=True, database=None,
                  deadline=None)
        @given(off_grid_scan_cases())
        def check(case):
            check_cell_scan(*case)

        check()


def fraction_certify(inst, hits, radius):
    """(p, value, meets_theorem_radius) of the hits with exact |value| <
    radius, in (|value|, p) order, by Fraction arithmetic."""
    rad = Fraction(radius)
    kept = sorted((abs(v), p, v) for p in hits
                  if abs(v := exact_form_value(inst, p)) < rad)
    exp = inst.radius_exponent
    return [(p, float(v), abs(float(v)) < float(max(p)) ** exp)
            for _, p, v in kept]


def odd_dyadic(draw, bits, denominator_exp):
    """A float odd/2^e, so its denominator is exactly 2^e."""
    num = 2 * draw(st.integers(-2 ** (bits - 1), 2 ** (bits - 1) - 1)) + 1
    return math.ldexp(num, -denominator_exp)


@st.composite
def dyadic_certify_cases(draw, k):
    """(instance, hits, radius): lambdas with five distinct power-of-two
    denominators, eta finer than every one of them, a radius with a fine
    denominator (or exactly some hit's |value|) and random quintuples."""
    top = {2: 400, 3: 60, 4: 20}[k]
    hits = draw(st.lists(st.tuples(*[st.integers(2, 400)] * 4,
                                   st.integers(2, top)),
                         min_size=5, max_size=40, unique=True))
    exps = draw(st.lists(st.integers(0, 24), min_size=5, max_size=5,
                         unique=True))
    lams = [odd_dyadic(draw, 20, e) for e in exps]
    if min(lams) > 0 or max(lams) < 0:
        lams[4] = -lams[4]
    # eta cancels the first hit to within a unit, at a finer denominator
    e_eta = max(exps) + draw(st.integers(1, 10))
    near = -sum(Fraction(l) * pj ** kj for l, pj, kj in
                zip(lams, hits[0], (2, 2, 2, 2, k)))
    eta = math.ldexp(2 * math.floor(near * 2 ** (e_eta - 1)) + 1, -e_eta)
    inst = ProblemInstance(tuple(lams), eta, k, _THEOREM_GAMMA.get(k, GP),
                           draw(st.floats(0.001, 1.5)), 0.5)
    mags = sorted(abs(exact_form_value(inst, p)) for p in hits)
    target = mags[draw(st.integers(0, len(mags) - 1))]
    if draw(st.booleans()) and float(target) == target and target > 0:
        return inst, hits, float(target)
    frac, exp2 = math.frexp(float(target) or 1.0)
    return inst, hits, math.ldexp(int(frac * 2 ** 53) | 1, exp2 - 53)


# the form values of limb_edge_cases are built in units of 2^-20, the
# largest denominator of its lambdas
_EDGE_SCALE = 2 ** 20
_POWERS = {k: (2, 2, 2, 2, k) for k in (2, 3, 4)}


@st.composite
def limb_edge_cases(draw, k, shift):
    """(lambdas, hits): lambdas odd/2^e * 2^shift with e up to 20, 20 among
    them, and at least two random quintuples, the first two of distinct
    values without eta. Every term, in units of 2^-20, is 2^shift times an
    integer below 2^50. With shift 0, S = 2^20 and the values
    certify in int64 limbs; with shift 110 the lambdas are integers, S = 1,
    and every term is past 2^91, so the values take Python integers."""
    top = {2: 400, 3: 60, 4: 20}[k]
    hits = draw(st.lists(st.tuples(*[st.integers(2, 400)] * 4, st.integers(2, top)),
                         min_size=2, max_size=30, unique=True))
    exps = [20, *draw(st.lists(st.integers(0, 20), min_size=4, max_size=4))]
    lams = [math.ldexp(odd_dyadic(draw, 12, e), shift) for e in exps]
    if min(lams) > 0 or max(lams) < 0:
        lams[4] = -lams[4]
    assume(len({scaled_form(lams, k, p) for p in hits[:2]}) == 2)
    return lams, hits


def scaled_form(lams, k, p):
    """S times the form value of p without eta, S = 2^20, exactly."""
    return sum(int(l * _EDGE_SCALE) * pj ** kj for l, pj, kj in zip(lams, p, _POWERS[k]))


def edge_instance(lams, k, eta_scaled):
    return ProblemInstance(tuple(lams), eta_scaled / _EDGE_SCALE, k,
                           _THEOREM_GAMMA.get(k, GP), 0.001, 0.5)


def check_certified(inst, hits, radius, limbs):
    """_finalize and within_radius agree with the Fraction reference, on
    the path named by limbs; returns the result."""
    slots, at = index_rows(hits, inst.gamma.gamma)
    got = quintet_search._finalize(inst, slots, at, radius)
    assert quintet_search._exact(inst, [(p, c) for (p, _), c in zip(slots, at.T)],
                                 radius).limbs == limbs
    assert [(p, v, m) for p, v, _, _, m in rows(got)] == \
        fraction_certify(inst, hits, radius)
    assert rows(within_radius(inst, got, radius)) == rows(got)
    return got


class TestScaledCertification:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_fraction_reference(self, k):
        @settings(max_examples=60, derandomize=True, database=None, deadline=None)
        @given(dyadic_certify_cases(k))
        def check(case):
            inst, hits, radius = case
            got = quintet_search._finalize(inst, *index_rows(hits, inst.gamma.gamma),
                                           radius)
            assert [(p, v, m) for p, v, _, _, m in rows(got)] == \
                fraction_certify(inst, hits, radius)
            assert rows(within_radius(inst, got, radius)) == rows(got)
            # a cut on a kept value's float: the prefix exactly below it
            if got:
                cut = abs(got.value[len(got) // 2])
                assert rows(within_radius(inst, got, cut)) == [
                    r for r in rows(got)
                    if abs(exact_form_value(inst, r[0])) < Fraction(cut)]

        check()

    # the limb arithmetic at its edges, against Fraction, on both paths:
    # shift 0 takes int64 limbs, shift 110 Python integers
    @pytest.mark.parametrize("shift", [0, 110], ids=["limbs", "python-int"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_opposite_ties_order_by_p(self, k, shift):
        @settings(max_examples=30, derandomize=True, database=None, deadline=None)
        @given(limb_edge_cases(k, shift))
        def check(case):
            lams, hits = case
            f0, f1 = (scaled_form(lams, k, p) for p in hits[:2])
            # eta halfway between the first two rows: their values are V
            # and -V, V != 0
            inst = edge_instance(lams, k, -(f0 + f1) / 2)
            got = check_certified(inst, hits, 2.0 ** 200, shift == 0)
            at = [rows(got).index(r) for r in rows(got) if r[0] in hits[:2]]
            assert len(at) == 2 and got.value[at[0]] == -got.value[at[1]] != 0
            assert got.p[at[0]].tolist() < got.p[at[1]].tolist()

        check()

    @pytest.mark.parametrize("shift", [0, 110], ids=["limbs", "python-int"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_values_one_unit_either_side_of_the_bound(self, k, shift):
        # the first row's scaled value is -V or +V, V = m 2^(40 + shift),
        # against bounds V - u, V and V + u, u = 2^shift, one step of the
        # values' lattice. With shift 0 a negative value has lo limb 0: the
        # negation for |value| must carry nothing
        @settings(max_examples=30, derandomize=True, database=None, deadline=None)
        @given(limb_edge_cases(k, shift), st.integers(1, 1000))
        def check(case, m):
            lams, hits = case
            unit = 2 ** shift
            v = m * 2 ** 40 * unit
            f0 = scaled_form(lams, k, hits[0])
            for sign, step in itertools.product((-1, 1), (-1, 0, 1)):
                inst = edge_instance(lams, k, sign * v - f0)
                radius = (v + step * unit) / _EDGE_SCALE
                assert quintet_search._scaled(inst, radius)[3] == (
                    _EDGE_SCALE if shift == 0 else 1)
                got = check_certified(inst, hits, radius, shift == 0)
                kept = hits[0] in [r[0] for r in rows(got)]
                assert kept == (step == 1)
                slots, at = index_rows(hits[:1], inst.gamma.gamma)
                ex = quintet_search._exact(
                    inst, [(p, c) for (p, _), c in zip(slots, at.T)], radius)
                assert ex.value[0] == sign * v / _EDGE_SCALE
                if shift == 0:
                    # |value| in limbs: (m, 0), whatever the sign
                    assert [int(x[0]) for x in ex.magnitude] == [0, m]

        check()

    def test_lex_rank_past_int64_is_a_dense_rank(self):
        # 9,000 rows, most entries of a column distinct: the mixed-radix rank
        # over their product, past 2^63, is renumbered on the way, and the
        # order is still (|value|, lex p)
        rng = np.random.default_rng(7)
        hits = np.column_stack([rng.permutation(np.arange(2, 9002)) for _ in range(5)])
        # integer lambdas summing to 0 over equal squares: many exact ties
        hits[::4] = hits[::4, :1]
        assert math.prod(len(np.unique(c)) for c in hits.T) >= 2 ** 63
        inst = make_inst((1, 1, 2, 3, -7))
        check_certified(inst, [tuple(r) for r in hits.tolist()], 2.0 ** 60, True)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_search_with_tiny_eta_takes_python_ints(self, k):
        # eta = 1e-30 makes S about 2^152, so the scaled terms pass 2^91:
        # the layout and the certification both take Python integers
        case = {2: ((SQRT2, 1, 1, 1, -3), 961.0, 0.02, 8.0),
                3: ((SQRT2, 1, 1, 1, -0.25), 961.0, 0.02, 40.0),
                4: ((SQRT2, 1, 1, 1, -0.02), 961.0, 0.02, 40.0)}[k]
        lams, x, lam0, radius = case
        gp = _THEOREM_GAMMA.get(k, GP)
        square = build_table(gp, x, lam0, 2)
        top = build_table(gp, {2: x, 3: 27000.0, 4: 160000.0}[k], lam0, k)
        tables = [square] * 4 + [top]
        inst = ProblemInstance(lams, 1e-30, k, gp, 0.001, lam0)
        assert not quintet_search._layout(inst, tables, radius).limbs
        got = search_mitm(inst, tables, radius, threads=2)
        want = brute_oracle(inst, tables, radius)
        assert len(got) > 0 and rows(got) == rows(want)
        hits = [tuple(r) for r in got.p.tolist()]
        check_certified(inst, hits, radius, False)
        plain = ProblemInstance(lams, 0.0, k, gp, 0.001, lam0)
        assert quintet_search._layout(plain, tables, radius).limbs


def check_table_weights(inst, tables, sols):
    """Every weight of sols is the product, in slot order, of its primes'
    weights in the slot tables, bit for bit; Python's ** and math.log would
    give another weight for some row, so the weights are the tables'."""
    g = inst.gamma.gamma
    want, scalar = np.ones(len(sols)), np.ones(len(sols))
    for tab, col in zip(tables, sols.p.T):
        at = np.searchsorted(tab.primes, col)
        assert np.array_equal(tab.primes[at], col)
        want *= tab.weights[at]
        scalar *= np.array([q ** (1.0 - g) * math.log(q) for q in col.tolist()])
    assert np.array_equal(sols.weight.view(np.int64), want.view(np.int64))
    assert np.any(scalar != want)


class TestTableWeights:
    # a prime's weight has one rule, the table's: on the pinned instance's
    # tables NumPy's rule and Python's scalar one differ in the last bits
    # for 2 of 6 primes at q0 29 and 24 of 340 at q0 2378
    def test_search_gathers_the_table_weights(self):
        inst = make_inst(lambda0=0.1)
        tables = instance_tables(inst, derive_params(inst, 2378))
        sols = search_mitm(inst, tables, 0.05, threads=2)
        assert len(sols) == 20325
        check_table_weights(inst, tables, sols)

    def test_brute_oracle_gathers_the_table_weights(self):
        inst = make_inst(lambda0=0.1)
        tables = instance_tables(inst, derive_params(inst, 29))
        sols = brute_oracle(inst, tables, 20.0)
        assert len(sols) == 40
        check_table_weights(inst, tables, sols)
        assert rows(search_mitm(inst, tables, 20.0)) == rows(sols)


class TestCertificationPath:
    # the search certifies on the primes its layout keeps, so it takes the
    # path the layout named: on the search-desk tables (slot 1 keeps 4 of
    # 340 primes and is scanned outermost), int64 limbs on the pinned
    # instance, and Python integers when eta = 1e-30 puts the scaled terms
    # past 2^91
    @pytest.mark.parametrize("eta, limbs", [(0.0, True), (1e-30, False)],
                             ids=["pinned", "tiny-eta"])
    def test_exact_takes_the_layout_path(self, monkeypatch, eta, limbs):
        inst = make_inst(lambda0=0.1)
        tables = instance_tables(inst, derive_params(inst, 2378))
        inst = make_inst(eta=eta, lambda0=0.1)
        layouts, calls = [], []
        layout, exact = quintet_search._layout, quintet_search._exact

        def layout_spy(*args):
            layouts.append(layout(*args))
            return layouts[-1]

        def exact_spy(inst, slots, radius):
            calls.append((slots, exact(inst, slots, radius)))
            return calls[-1][1]

        monkeypatch.setattr(quintet_search, "_layout", layout_spy)
        monkeypatch.setattr(quintet_search, "_exact", exact_spy)
        sols = search_mitm(inst, tables, 0.05, threads=2)
        (lay,), ((slots, ex),) = layouts, calls
        assert len(sols) == 20325 and lay.slots == (4, 1, 2, 3, 0)
        assert lay.limbs == ex.limbs == limbs
        # slot j's primes are the very array the layout keeps for it
        assert all(primes is lay.primes[s] for (primes, _), s in zip(slots, lay.slots))


class TestSolutionContract:
    def setup_method(self):
        self.inst = make_inst(lambda0=0.02)
        tab = build_table(GP, 961.0, 0.02, 2)
        self.tables = [tab] * 5
        self.sols = search_mitm(self.inst, self.tables, 8.0)
        assert self.sols

    def test_certified_within_radius(self):
        for p, value, _, _, _ in rows(self.sols):
            exact = exact_form_value(self.inst, p)
            assert abs(exact) < Fraction(8)
            assert abs(float(exact) - value) <= 1e-9

    def test_ordering(self):
        keys = [(abs(value), p) for p, value, _, _, _ in rows(self.sols)]
        assert keys == sorted(keys)

    def test_weights_and_theorem_flag(self):
        g = GP.gamma
        exp = (71.0 - 72.0 * g) / 29.0 + self.inst.theta_exp
        for p, value, weight, max_p, meets in rows(self.sols):
            w = math.prod(q ** (1 - g) * math.log(q) for q in p)
            assert weight == pytest.approx(w, rel=1e-12)
            assert max_p == max(p)
            assert meets == (abs(value) < max_p ** exp)

    def test_radius_monotonicity(self):
        small = {r[0] for r in rows(search_mitm(self.inst, self.tables, 3.0))}
        assert small <= {r[0] for r in rows(self.sols)}

    def test_within_radius_is_the_narrower_search(self):
        cuts = [3.0, abs(self.sols.value[len(self.sols) // 2]), 8.0, 100.0]
        for radius in cuts:
            want = search_mitm(self.inst, self.tables, min(radius, 8.0))
            assert rows(within_radius(self.inst, self.sols, radius)) == rows(want)


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

    def test_bad_radius(self):
        tab = build_table(GP, 961.0, 0.1, 2)
        with pytest.raises(ValueError):
            search_mitm(make_inst(), [tab] * 5, 0.0)

    def test_memory_budget(self):
        tab = build_table(GP, 961.0, 0.02, 2)
        with pytest.raises(CapacityExceeded):
            search_mitm(make_inst(lambda0=0.02), [tab] * 5, 5.0, memory_mb=1e-4)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_memory_estimate_matches_peak(self, threads):
        # radius far below any form value: no hits, so the peak is the
        # pair arrays and the scan temporaries the budget guards. The lambdas
        # carry no residue lattice, so no slot shrinks
        inst, tab = make_inst(UNREDUCIBLE), build_table(GP, 3e6, 0.1, 2)
        tracemalloc.start()
        try:
            sols = search_mitm(inst, [tab] * 5, 1e-12, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sols) == 0
        assert quintet_search._layout(inst, [tab] * 5, 1e-12).slots == (0, 1, 2, 3, 4)
        est = _search_bytes(inst, [tab] * 5, 1e-12, threads)()
        assert 0.85 * est <= peak <= 1.15 * est

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("lambdas, cases", [
        # 3,276 and 8,610 quintuples at radius 0.05 and 0.5, whose candidate
        # rows sit beside the pair arrays; at radius 2 the certification of
        # 56,305 of them outweighs the scan. Slot 1 keeps 2, 6 and 37 of its
        # 158 primes and is the outer slot
        ((SQRT2, 1, 1, 1, -3), ((0.05, 3000), (0.5, 8000), (2.0, 50000))),
        # no slot shrinks: 884 quintuples at radius 0.05, beside the queued
        # outer tasks, 7,661 at radius 0.5, and 30,814 at radius 2, whose
        # certification outweighs the scan
        (UNREDUCIBLE, ((0.05, 800), (0.5, 7000), (2.0, 30000)))],
        ids=["pinned", "unreducible"])
    def test_memory_estimate_with_hits_matches_peak(self, threads, lambdas, cases):
        inst, tab = make_inst(lambdas), build_table(GP, 3e6, 0.1, 2)
        for radius, least in cases:
            tracemalloc.start()
            try:
                sols = search_mitm(inst, [tab] * 5, radius, threads=threads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(sols) > least
            est = _search_bytes(inst, [tab] * 5, radius, threads)(len(sols))
            assert 0.85 * est <= peak <= 1.15 * est

    def test_memory_estimate_on_the_python_int_path(self):
        # eta = 1e-30: the scaled terms pass 2^91, so the 15,389
        # candidates certify in Python integers, which outweighs the scan
        inst, tab = make_inst(UNREDUCIBLE, eta=1e-30), build_table(GP, 3e6, 0.1, 2)
        assert not quintet_search._layout(inst, [tab] * 5, 1.0).limbs
        tracemalloc.start()
        try:
            sols = search_mitm(inst, [tab] * 5, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        search_bytes = _search_bytes(inst, [tab] * 5, 1.0, 1)
        assert len(sols) > 10000 and search_bytes(len(sols)) > search_bytes()
        est = search_bytes(len(sols))
        assert 0.85 * est <= peak <= 1.15 * est

    def test_memory_budget_counts_the_hits(self):
        # a budget above the hit-free estimate lets the scan start; the hits
        # (7,661 at radius 0.5, whose rows outweigh the queued outer tasks)
        # push the estimate past it partway through
        inst, tab = make_inst(UNREDUCIBLE), build_table(GP, 3e6, 0.1, 2)
        search_bytes = _search_bytes(inst, [tab] * 5, 0.5, 1)
        sols = search_mitm(inst, [tab] * 5, 0.5)
        bare, full = search_bytes(), search_bytes(len(sols))
        assert full > bare
        budget = (bare + full) / 2 / 2 ** 20
        with pytest.raises(CapacityExceeded) as info:
            search_mitm(inst, [tab] * 5, 0.5, memory_mb=budget)
        hits = int(str(info.value).split(" and ")[1].split()[0])
        assert 0 < hits < len(sols)
        assert search_bytes(hits) > budget * 2 ** 20
        again = search_mitm(inst, [tab] * 5, 0.5, memory_mb=1.01 * full / 2 ** 20)
        assert rows(again) == rows(sols)

    def test_slot_reduced_to_nothing(self, monkeypatch):
        # p2^2 + p3^2 + p4^2 - 3 p5^2 is a multiple of 24, and no slot-1
        # prime of these tables has sqrt(2) p1^2 within 1e-12 of one: the
        # search is empty and builds no pairs, so the budget, checked before
        # the pair build, does not apply. Its peak is what _layout held,
        # which the estimate counts. An empty input table still raises
        inst, tab = make_inst(), build_table(GP, 3e6, 0.1, 2)
        lay = quintet_search._layout(inst, [tab] * 5, 1e-12)
        assert [len(p) for p in lay.primes] == [len(tab)] * 4 + [0]
        assert lay.slots == (4, 1, 2, 3, 0)

        def no_build(*args, **kwargs):
            raise AssertionError("pair build")

        monkeypatch.setattr(HalfSumArray, "build", no_build)
        tracemalloc.start()
        try:
            sols = search_mitm(inst, [tab] * 5, 1e-12, memory_mb=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sols) == 0 and sols.p.shape == (0, 5)
        est = _search_bytes(inst, [tab] * 5, 1e-12, 1)()
        assert 0.85 * est <= peak <= 1.15 * est
        empty = build_table(GP, 24.0, 0.99, 2)
        with pytest.raises(EmptyWindow):
            search_mitm(inst, [tab] * 4 + [empty], 1e-12)

    def test_deadline_stops_between_p5_blocks(self):
        # no slot shrinks, so slot 5's 158 primes are the outer blocks
        inst, tab = make_inst(UNREDUCIBLE), build_table(GP, 3e6, 0.1, 2)
        ticks = []

        def deadline():
            ticks.append(1)
            if len(ticks) > 5:
                raise BudgetExceeded("time budget exhausted")

        # every block checks before it scans, so the blocks the worker
        # starts after the sixth raise at once
        with pytest.raises(BudgetExceeded):
            search_mitm(inst, [tab] * 5, 0.05, deadline=deadline)
        assert 6 <= len(ticks) <= len(tab)

    def test_deadline_checked_after_the_scan(self, monkeypatch):
        # a budget that runs out once the scan is done stops the search
        # before certification
        inst, tab = make_inst(), build_table(GP, 3e4, 0.1, 2)
        scanned = []
        candidates = quintet_search._candidates

        def spy(*args):
            rows = candidates(*args)
            scanned.append(len(rows))
            return rows

        def deadline():
            if scanned:
                raise BudgetExceeded("time budget exhausted")

        monkeypatch.setattr(quintet_search, "_candidates", spy)
        monkeypatch.setattr(quintet_search, "_finalize", None)
        with pytest.raises(BudgetExceeded):
            search_mitm(inst, [tab] * 5, 5.0, deadline=deadline)
        assert scanned and scanned[0] > 0

    @pytest.mark.parametrize("lambdas", [(SQRT2, 1, 1, 1, -3), UNREDUCIBLE],
                             ids=["pinned", "unreducible"])
    def test_hit_ceiling_stops_the_scan(self, monkeypatch, lambdas):
        # the ceiling is checked as outer blocks arrive, so the count it
        # reports stays within the blocks in flight, far below the full count
        inst = make_inst(lambdas, lambda0=0.02)
        tables = [build_table(GP, 3000.0, 0.02, 2)] * 5
        sols = search_mitm(inst, tables, 10.0)
        outer = quintet_search._layout(inst, tables, 10.0).slots[4]
        block = max(Counter(sols.p[:, outer].tolist()).values())
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
        sols = search_mitm(inst, [tab] * 5, 8.0)[:5]
        path = tmp_path / "solutions.csv"
        n = export_solutions(str(path), sols)
        text = path.read_text()
        assert n == len(text.encode())
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["p1", "p2", "p3", "p4", "p5", "value", "max_p",
                           "meets_theorem_radius"]
        assert len(rows) == len(sols) + 1
        first = rows[1]
        assert [int(v) for v in first[:5]] == sols.p[0].tolist()
        assert float(first[5]) == sols.value[0]
        assert first[7] in ("true", "false")

    def test_text_matches_csv_writer_rendering(self, tmp_path, monkeypatch):
        # the row format gives the bytes csv.writer gives of fmt17 text,
        # also for signed zeros, subnormals and values near the float range;
        # blocks of 7 rows split the 10 rows in two
        monkeypatch.setattr(_io, "_CSV_ROWS", 7)
        values = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1,
                  -1.2345678901234567, 2.2250738585072014e-308, 123456789.01234567]
        n = len(values)
        p = np.arange(5 * n, dtype=np.int64).reshape(n, 5) * 1000003 + 7
        sols = QuintetSolutions(p=p, value=np.array(values),
                                weight=np.ones(n), max_p=p.max(axis=1),
                                meets_theorem_radius=np.arange(n) % 2 == 0)
        path = tmp_path / "solutions.csv"
        assert export_solutions(str(path), sols) == len(csv_bytes(sols))
        assert path.read_bytes() == csv_bytes(sols)
        assert b"-0," in csv_bytes(sols)
        assert b"4.9406564584124654e-324" in csv_bytes(sols)

    @pytest.mark.parametrize("name", ["solutions", "table"])
    def test_export_holds_one_block_of_rows(self, tmp_path, name):
        # solutions.csv and primes.csv are written _io._CSV_ROWS rows at a
        # time, so 8 blocks of rows peak about as one does; the return value
        # is the file's size
        rng = np.random.default_rng(7)

        def solutions(n):
            p = rng.integers(10 ** 6, 10 ** 9, size=(n, 5))
            sols = QuintetSolutions(p=p, value=rng.uniform(-1.0, 1.0, n),
                                    weight=np.ones(n), max_p=p.max(axis=1),
                                    meets_theorem_radius=rng.random(n) < 0.5)
            return lambda path: export_solutions(path, sols)

        def table(n):
            tab = PsPrimeTable(GP, 1e18, 0.1, 2, primes=np.sort(
                rng.integers(10 ** 8, 10 ** 9, n)), weights=rng.uniform(1.0, 30.0, n))
            return lambda path: export_table(tab, path)

        def peak_of(n):
            export = {"solutions": solutions, "table": table}[name](n)
            path = tmp_path / f"{name}-{n}.csv"
            tracemalloc.start()
            try:
                size = export(str(path))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert size == path.stat().st_size
            return peak

        one = peak_of(_io._CSV_ROWS)
        assert peak_of(8 * _io._CSV_ROWS) <= 1.5 * one

    def test_empty_result_writes_the_header(self, tmp_path):
        sols = QuintetSolutions(p=np.empty((0, 5), dtype=np.int64),
                                value=np.empty(0), weight=np.empty(0),
                                max_p=np.empty(0, dtype=np.int64),
                                meets_theorem_radius=np.empty(0, dtype=bool))
        path = tmp_path / "solutions.csv"
        assert export_solutions(str(path), sols) == len(csv_bytes(sols))
        assert path.read_bytes() == csv_bytes(sols) == (
            b"p1,p2,p3,p4,p5,value,max_p,meets_theorem_radius\n")


def csv_bytes(sols) -> bytes:
    """csv.writer's document of the result columns, values through fmt17."""
    return csv_writer_text(
        ["p1", "p2", "p3", "p4", "p5", "value", "max_p", "meets_theorem_radius"],
        ([*r, fmt17(v), mp, "true" if meets else "false"]
         for r, v, mp, meets in zip(sols.p.tolist(), sols.value.tolist(),
                                    sols.max_p.tolist(),
                                    sols.meets_theorem_radius.tolist()))).encode()
