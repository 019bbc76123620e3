import math

import numpy as np
import pytest

from psquintet import dh_pipeline, numerics
from psquintet import (
    AdmissibilityError,
    DegenerateRatio,
    DhParams,
    GammaParam,
    ProblemInstance,
    SmoothingKernel,
    brute_oracle,
    build_table,
    derive_params,
    gamma_direct,
    gamma_integral,
    instance_tables,
    kernel_eval,
    search_mitm,
    tail_bound,
)
from solution_rows import rows

GP = GammaParam(0.99)
SQRT2 = math.sqrt(2)


def make_inst(lambdas=(SQRT2, 1, 1, 1, -3), eta=0.0, k=2, gamma=GP,
              theta=0.001, lambda0=0.1):
    return ProblemInstance(tuple(lambdas), eta, k, gamma, theta, lambda0)


def scale_params(x, eps):
    """DhParams at window top x with a widened kernel support eps."""
    return DhParams(q0=round(x ** (27.0 / 58.0)), X=x,
                    Delta=dh_pipeline.main_range_cutoff(x), eps=eps,
                    H=math.log(x) ** 2 / eps)


def tiny_setup(eps=30.0):
    """q0=10 scale: three-prime tables, cheap quadrature, widened kernel."""
    inst = make_inst()
    x = 10.0 ** (58.0 / 27.0)
    tables = [build_table(GP, x, 0.1, 2)] * 5
    return inst, scale_params(x, eps), tables, SmoothingKernel(eps, 7)


def theorem_setup(case):
    """One small instance per theorem: tiny_setup for k = 2, and the
    lattice_cases "k3" and "k4" tables at X = 3000 with the same kernel."""
    if case == "k2":
        return tiny_setup()
    inst, tables = lattice_cases()[case]
    return inst, scale_params(3000.0, 30.0), tables, SmoothingKernel(30.0, 7)


def direct_count(inst, kern, tables):
    """gamma_direct over the search a run makes at the kernel support."""
    return gamma_direct(inst, kern, search_mitm(inst, tables, kern.epsilon))


class TestProblemInstance:
    def test_valid(self):
        inst = make_inst()
        assert inst.lambdas[0] == SQRT2
        assert inst.k == 2

    def test_zero_coefficient(self):
        with pytest.raises(ValueError):
            make_inst((0.0, 1, 1, 1, -3))

    def test_all_same_sign(self):
        with pytest.raises(AdmissibilityError, match="same sign"):
            make_inst((1, 1, 1, 1, 3))

    def test_bad_k(self):
        with pytest.raises(ValueError):
            make_inst(k=5)

    @pytest.mark.parametrize("k,gamma,triple", [
        (2, 0.99, (71, 72, 29)), (3, 0.995, (129, 130, 58)),
        (4, 0.997, (245, 246, 116))])
    def test_powers_and_radius_exponent(self, k, gamma, triple):
        inst = make_inst(k=k, gamma=GammaParam(gamma), theta=0.003)
        assert inst.powers == (2, 2, 2, 2, k)
        a, b, c = triple
        assert inst.radius_exponent == (a - b * gamma) / c + 0.003

    def test_theorem_admissibility(self):
        with pytest.raises(AdmissibilityError, match="71/72"):
            make_inst(gamma=GammaParam(0.97))
        with pytest.raises(AdmissibilityError, match="129/130"):
            make_inst(gamma=GP, k=3)  # 0.99 < 129/130
        make_inst(gamma=GammaParam(0.995), k=3)  # fine

    def test_bad_theta_lambda0_gamma_type(self):
        with pytest.raises(ValueError):
            make_inst(theta=0.0)
        with pytest.raises(ValueError):
            make_inst(lambda0=1.0)
        with pytest.raises(TypeError):
            make_inst(gamma=0.99)


class TestDeriveParams:
    def test_sqrt2_floor20(self):
        p = derive_params(make_inst(), 20)
        assert p.q0 == 29  # convergent 41/29
        assert p.X == pytest.approx(1384.9929, abs=1e-3)
        assert p.Delta == pytest.approx(0.00860, abs=1e-4)
        assert p.eps == pytest.approx(0.9727, abs=1e-4)
        assert p.H == pytest.approx(53.79, abs=0.01)

    def test_formula_identities(self):
        p = derive_params(make_inst(), 20)
        x = 29.0 ** (58.0 / 27.0)
        assert p.X == pytest.approx(x, rel=1e-12)
        assert p.Delta == pytest.approx(x ** (-27.0 / 29.0) * math.log(x),
                                        rel=1e-12)
        g = GP.gamma
        assert p.eps == pytest.approx(
            x ** ((71.0 - 72.0 * g) / 58.0 + 0.001), rel=1e-12)
        assert p.H == pytest.approx(math.log(x) ** 2 / p.eps, rel=1e-12)
        assert p.Delta < p.eps < p.H

    def test_auto_floor(self):
        p = derive_params(make_inst())
        assert p.q0 == 2  # convergent 3/2 of sqrt2

    def test_k3_exponent(self):
        inst = make_inst(gamma=GammaParam(0.995), k=3)
        p = derive_params(inst, 20)
        g = 0.995
        assert p.eps == pytest.approx(
            p.X ** ((129.0 - 130.0 * g) / 116.0 + 0.001), rel=1e-12)

    def test_degenerate_ratio(self):
        inst = make_inst((3.0, 1.0, 1.0, -1.0, -1.0))
        with pytest.raises(DegenerateRatio):
            derive_params(inst, 20)

    def test_degenerate_ratio_names_the_cause(self):
        # 3/1 ends the expansion; sqrt2's walk stops at the 10^15 cap
        with pytest.raises(DegenerateRatio, match="rational with too small"):
            derive_params(make_inst((3.0, 1.0, 1.0, -1.0, -1.0)), 20)
        with pytest.raises(DegenerateRatio) as exc:
            derive_params(make_inst(), 10 ** 16)
        assert "the next is over 10^15" in str(exc.value)
        assert "rational" not in str(exc.value)

    def test_bad_floor(self):
        with pytest.raises(ValueError):
            derive_params(make_inst(), 0)
        with pytest.raises(ValueError):    # q0 = 1 gives X = 1, Delta = 0
            derive_params(make_inst(), 1)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DhParams(q0=0, X=1.0, Delta=1.0, eps=1.0, H=1.0)
        with pytest.raises(ValueError):
            DhParams(q0=1, X=-2.0, Delta=1.0, eps=1.0, H=1.0)


class TestTailBound:
    def test_unit_base(self):
        p = DhParams(q0=1, X=math.e, Delta=1.0, eps=1.0, H=4.0 / math.pi)
        assert tail_bound(p, 1, (1, 1, 1, 1, 1)) == pytest.approx(1.0, rel=1e-12)

    def test_q0_29_base(self):
        p = derive_params(make_inst(), 20)
        l = math.floor(math.log(p.X))
        assert l == 7
        base = 4.0 * l / (math.pi * p.eps * p.H)
        assert base == pytest.approx(0.1704, abs=2e-4)
        got = tail_bound(p, l, (1, 1, 1, 1, 1))
        assert got == pytest.approx(base ** 7 / 7, rel=1e-12)

    def test_l_doubling_shrinks(self):
        p = derive_params(make_inst(), 20)
        caps = (3.0, 3.0, 3.0, 3.0, 3.0)
        assert tail_bound(p, 14, caps) < tail_bound(p, 7, caps)

    def test_caps_scale_linearly(self):
        p = derive_params(make_inst(), 20)
        one = tail_bound(p, 7, (1, 1, 1, 1, 1))
        assert tail_bound(p, 7, (2, 1, 1, 1, 5)) == pytest.approx(10 * one,
                                                                  rel=1e-12)

    def test_validation(self):
        p = derive_params(make_inst(), 20)
        with pytest.raises(ValueError):
            tail_bound(p, 0, (1, 1, 1, 1, 1))
        with pytest.raises(ValueError):
            tail_bound(p, 1, (1, 1, 1, 1))
        with pytest.raises(ValueError):
            tail_bound(p, 1, (1, 1, 1, 1, -1))


class TestInstanceTables:
    def test_square_slots_shared(self):
        inst = make_inst()
        params = derive_params(inst, 20)
        tables = instance_tables(inst, params)
        assert len(tables) == 5
        assert all(t is tables[0] for t in tables)
        assert tables[0].k == 2 and tables[0].x_max == params.X

    def test_cube_slot_distinct(self):
        inst = make_inst(gamma=GammaParam(0.995), k=3)
        tables = instance_tables(inst, derive_params(inst, 20))
        assert tables[4].k == 3
        assert tables[0].k == 2
        assert len(tables[4]) > 0


class TestGammaDirect:
    def test_empty_tables_zero(self):
        inst, _, tables, kern = tiny_setup()
        none = search_mitm(inst, tables, kern.epsilon)[:0]
        assert gamma_direct(inst, kern, none) == 0.0

    def test_no_near_solution_zero(self):
        # {7}-only windows: min |form value| = 69.3, kernel support 1
        inst = make_inst()
        tab = build_table(GP, 64.0, 0.5, 2)
        assert direct_count(inst, SmoothingKernel(1.0, 4), [tab] * 5) == 0.0

    @pytest.mark.parametrize("case", ["k2", "k3", "k4"])
    def test_matches_nested_loop_oracle(self, case):
        inst, _, tables, kern = theorem_setup(case)
        got = direct_count(inst, kern, tables)
        sols = brute_oracle(inst, tables, kern.epsilon)
        want = math.fsum(kernel_eval(kern, v) * w for _, v, w, _, _ in rows(sols))
        assert want > 0
        assert got == pytest.approx(want, rel=1e-10)

    def test_default_search_is_complete(self):
        # 1,480 quintuples lie within 20 of zero over 15 primes: the search,
        # called with its defaults, returns them all to the direct count
        inst = make_inst(lambda0=0.02)
        tab = build_table(GP, 6000.0, 0.02, 2)
        assert len(tab) == 15
        got = search_mitm(inst, [tab] * 5, 20.0)
        sols = brute_oracle(inst, [tab] * 5, 20.0)
        assert len(sols) == 1480
        assert rows(got) == rows(sols)
        kern = SmoothingKernel(20.0, 7)
        want = math.fsum(kernel_eval(kern, v) * w for _, v, w, _, _ in rows(sols))
        assert gamma_direct(inst, kern, got) == want

    def test_wider_search_stands_in(self):
        inst, _, tables, kern = tiny_setup()
        wide = search_mitm(inst, tables, 3 * kern.epsilon)
        n = len(search_mitm(inst, tables, kern.epsilon))
        assert len(wide) > n + 1
        assert gamma_direct(inst, kern, wide) == direct_count(inst, kern, tables)


class TestGammaIntegral:
    @pytest.mark.parametrize("case", ["k2", "k3", "k4"])
    def test_decomposition_consistency(self, case):
        inst, params, tables, kern = theorem_setup(case)
        direct = direct_count(inst, kern, tables)
        dec = gamma_integral(inst, params, kern, tables, direct=direct)
        assert dec.A.imag == 0.0 and dec.B.imag == 0.0
        assert dec.total == dec.A + dec.B
        assert dec.direct == direct
        tol = max(0.05 * direct, dec.C_bound + 10 * 1e-9 * direct)
        assert abs(dec.total - direct) <= tol
        assert dec.rel_gap < 1e-4

    def test_empty_tables(self):
        inst, params, _, kern = tiny_setup()
        empty = build_table(GP, 24.0, 0.99, 2)
        dec = gamma_integral(inst, params, kern, [empty] * 5)
        assert dec.A == 0 and dec.B == 0 and dec.total == 0
        assert dec.C_bound == 0.0
        assert dec.rel_gap is None

    def test_sign_flip_conjugates(self):
        inst, params, tables, kern = tiny_setup()
        neg = ProblemInstance(tuple(-l for l in inst.lambdas), -inst.eta,
                              inst.k, inst.gamma, inst.theta_exp, inst.lambda0)
        a = gamma_integral(inst, params, kern, tables)
        b = gamma_integral(neg, params, kern, tables)
        assert b.A.real == pytest.approx(a.A.real, rel=1e-12)
        assert b.B.real == pytest.approx(a.B.real, rel=1e-12)

    def test_thread_invariance(self):
        inst, params, tables, kern = tiny_setup()
        one = gamma_integral(inst, params, kern, tables, threads=1)
        four = gamma_integral(inst, params, kern, tables, threads=4)
        assert one.A == four.A
        assert one.B == four.B

    def test_c_bound_is_tail_bound(self):
        inst, params, tables, kern = tiny_setup()
        caps = tuple(float(np.sum(t.weights)) for t in tables)
        dec = gamma_integral(inst, params, kern, tables)
        assert dec.C_bound == pytest.approx(tail_bound(params, kern.l, caps),
                                            rel=1e-12)

    def test_phase_block_size_invariance(self, monkeypatch):
        # phase sums split each chunk into many blocks of t values here;
        # A and B must not see where the blocks fall
        inst, params, tables, kern = tiny_setup()
        ref = gamma_integral(inst, params, kern, tables)
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", 1 << 12)
        small = gamma_integral(inst, params, kern, tables)
        assert small.A == ref.A
        assert small.B == ref.B


def run_setup(q0):
    """The pinned config's instance at convergent q0, as a run derives it."""
    inst = make_inst()
    params = derive_params(inst, q0)
    kern = SmoothingKernel(params.eps, max(1, math.floor(math.log(params.X))))
    return inst, params, instance_tables(inst, params), kern


class TestTruncationBound:
    def test_bound_holds_on_the_ab_integrand(self, monkeypatch):
        # at q0 12, for A and for B: |I_n - I_2n| within the truncation bound
        # of the rule's n, taken with sup|f| = (7 eps/4) prod_j W_j. The
        # integrand's rounding stays below it here: the gaps read 1.0e-13
        # (A) and 4.3e-13 (B) against bounds of 2.3e-12 and 1.8e-9
        inst, params, tables, kern = run_setup(12)
        seen = []

        def spy(f, spec, **kw):
            seen.append((f, spec))
            return numerics.oscillatory_integral(f, spec, **kw)

        monkeypatch.setattr(dh_pipeline, "oscillatory_integral", spy)
        gamma_integral(inst, params, kern, tables)
        assert len(seen) == 2
        sup = 7 * kern.epsilon / 4 * math.prod(math.fsum(t.weights) for t in tables)
        for f, spec in seen:
            length = spec.hi - spec.lo
            panels = max(1, math.ceil(length * spec.max_frequency / 64))
            cycles = math.ceil(length * spec.max_frequency / panels)
            n = numerics._nodes_for_cycles(cycles)
            assert n == 133
            edges = np.linspace(spec.lo, spec.hi, panels + 1)
            one = numerics._panel_sums(f, edges, n, 1)
            two = numerics._panel_sums(f, edges, 2 * n, 1)
            bound = sup * length * sum(
                math.exp(numerics._log_truncation_bound(cycles, m)) for m in (n, 2 * n))
            assert bound <= 2 * numerics.TRUNCATION_TOL * sup * length
            assert abs(one - two) <= bound


class TestMainRangeDominance:
    def test_a_dominates_b_at_q0_70(self):
        # the next convergent after the pinned q0 29: A + B matches the
        # direct count by criterion 08's gap rule, and |A| > |B| there
        inst, params, tables, kern = run_setup(70)
        assert params.q0 == 70
        found = search_mitm(inst, tables, kern.epsilon, threads=2)
        direct = gamma_direct(inst, kern, found)
        dec = gamma_integral(inst, params, kern, tables, threads=2, direct=direct)
        gap = abs(dec.total.real - direct)
        assert gap <= max(0.05 * abs(direct), dec.C_bound + 10 * 1e-9 * abs(direct))
        assert abs(dec.A) > abs(dec.B)
        assert abs(dec.A) > dec.C_bound


def flat_integrand(inst, kern, tables, t):
    """The integrand point by point on a flat t, one phase sum per slot."""
    acc = numerics.kernel_fourier(kern, t).astype(complex)
    for lam, tab, kj in zip(inst.lambdas, tables, inst.powers):
        acc = acc * numerics.phase_sum(lam * t, tab.primes.astype(float) ** kj,
                                       tab.weights)
    return acc * numerics.e2pi(inst.eta * t)


def lattice_cases():
    sq = build_table(GP, 3000.0, 0.1, 2)
    sq_b = build_table(GP, 800.0, 0.2, 2)
    g3, g4 = GammaParam(0.995), GammaParam(0.997)
    return {
        "k2-pinned": (make_inst(eta=0.25), [sq] * 5),
        "k2-mixed-repeated": (make_inst(lambdas=(SQRT2, 1, 1, SQRT2, -3)),
                              [sq, sq_b, sq, sq, sq_b]),
        "k3": (make_inst(k=3, gamma=g3, eta=-1.5),
               [build_table(g3, 3000.0, 0.1, 2)] * 4 + [build_table(g3, 3000.0, 0.1, 3)]),
        "k4": (make_inst(lambdas=(SQRT2, -1, 1, 1, -3), k=4, gamma=g4),
               [build_table(g4, 3000.0, 0.1, 2)] * 4 + [build_table(g4, 3000.0, 0.1, 4)]),
    }


class TestLatticeIntegrand:
    MID = np.linspace(0.37, 5.3, 40)
    OFF = 0.061 * numerics._leggauss(16)[0]

    @pytest.mark.parametrize("case", ["k2-pinned", "k2-mixed-repeated", "k3", "k4"])
    def test_matches_the_flat_formula(self, case):
        inst, tables = lattice_cases()[case]
        kern = SmoothingKernel(0.9, 7)
        t = (self.MID[:, None] + self.OFF[None, :]).ravel()
        got = dh_pipeline._integrand(inst, kern, tables)(t, self.MID, self.OFF)
        want = flat_integrand(inst, kern, tables, t)
        # each slot's sum moves by a few roundings of its largest phase
        # |lambda b t| times its weight mass; the product carries that
        # through the other slots' weight masses and |Theta| <= 7 eps / 4
        masses = [math.fsum(tab.weights) for tab in tables]
        phases = [abs(lam) * float(tab.primes[-1]) ** kj * float(np.max(t))
                  for lam, tab, kj in zip(inst.lambdas, tables, inst.powers)]
        tol = 8 * 2.0 ** -52 * (7 * kern.epsilon / 4) * math.prod(masses) * sum(phases)
        assert np.max(np.abs(got - want)) <= tol
        assert np.max(np.abs(want)) > 1e3 * tol

    @pytest.mark.parametrize("case,distinct", [("k2-pinned", 3), ("k2-mixed-repeated", 4),
                                               ("k3", 3), ("k4", 4)])
    def test_each_distinct_sum_once_per_call(self, monkeypatch, case, distinct):
        inst, tables = lattice_cases()[case]
        calls = []

        def counted(mid, off, base, w):
            calls.append((mid[0], len(base)))
            return numerics.lattice_phase_sum(mid, off, base, w)

        monkeypatch.setattr(dh_pipeline, "lattice_phase_sum", counted)
        f = dh_pipeline._integrand(inst, SmoothingKernel(0.9, 7), tables)
        t = (self.MID[:, None] + self.OFF[None, :]).ravel()
        # one sum per distinct (lambda, table), then the one-term e(eta t)
        for _ in range(2):
            calls.clear()
            f(t, self.MID, self.OFF)
            assert len(calls) == distinct + 1
            assert len(set(calls[:-1])) == distinct
            assert calls[-1] == (inst.eta * self.MID[0], 1)
