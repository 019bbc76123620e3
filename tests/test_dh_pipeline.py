import math

import numpy as np
import pytest

from psquintet import dh_pipeline, numerics
from psquintet import (
    AdmissibilityError,
    BudgetExceeded,
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

GP = GammaParam(0.99)
SQRT2 = math.sqrt(2)


def make_inst(lambdas=(SQRT2, 1, 1, 1, -3), eta=0.0, k=2, gamma=GP,
              theta=0.001, lambda0=0.1):
    return ProblemInstance(tuple(lambdas), eta, k, gamma, theta, lambda0)


def tiny_setup(eps=30.0):
    """q0=10 scale: three-prime tables, cheap quadrature, widened kernel."""
    inst = make_inst()
    x = 10.0 ** (58.0 / 27.0)
    params = DhParams(q0=10, X=x, Delta=x ** (-27.0 / 29.0) * math.log(x),
                      eps=eps, H=math.log(x) ** 2 / eps)
    tables = [build_table(GP, x, 0.1, 2)] * 5
    return inst, params, tables, SmoothingKernel(eps, 7)


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
        inst, params, _, kern = tiny_setup()
        empty = build_table(GP, 24.0, 0.99, 2)
        assert gamma_direct(inst, params, kern, [empty] * 5) == 0.0

    def test_no_near_solution_zero(self):
        # {7}-only windows: min |form value| = 69.3, kernel support 1
        inst = make_inst()
        tab = build_table(GP, 64.0, 0.5, 2)
        params = DhParams(q0=2, X=64.0, Delta=0.01, eps=1.0, H=10.0)
        assert gamma_direct(inst, params, SmoothingKernel(1.0, 4), [tab] * 5) == 0.0

    def test_matches_nested_loop_oracle(self):
        inst, params, tables, kern = tiny_setup()
        got = gamma_direct(inst, params, kern, tables)
        sols = brute_oracle(inst, tables, kern.epsilon, limit=10 ** 6)
        want = math.fsum(kernel_eval(kern, s.value) * s.weight for s in sols)
        assert want > 0
        assert got == pytest.approx(want, rel=1e-10)

    def test_wider_search_stands_in(self, monkeypatch):
        inst, params, tables, kern = tiny_setup()
        wide = search_mitm(inst, tables, 3 * kern.epsilon, limit=10 ** 6)
        n = len(search_mitm(inst, tables, kern.epsilon, limit=10 ** 6))
        assert len(wide) > n + 1
        want = gamma_direct(inst, params, kern, tables)
        assert gamma_direct(inst, params, kern, tables, solutions=wide) == want
        # a wider list cut at the cap is complete inside the kernel support
        # as long as it reaches past it
        monkeypatch.setattr(dh_pipeline, "MAX_DIRECT_SOLUTIONS", n + 1)
        assert gamma_direct(inst, params, kern, tables,
                            solutions=wide[:n + 1]) == want
        monkeypatch.setattr(dh_pipeline, "MAX_DIRECT_SOLUTIONS", n)
        with pytest.raises(BudgetExceeded):
            gamma_direct(inst, params, kern, tables, solutions=wide[:n])

    def test_budget_exceeded(self, monkeypatch):
        inst, params, tables, kern = tiny_setup()
        monkeypatch.setattr(dh_pipeline, "MAX_DIRECT_SOLUTIONS", 5)
        with pytest.raises(BudgetExceeded):
            gamma_direct(inst, params, kern, tables)
        with pytest.raises(BudgetExceeded):
            gamma_direct(inst, params, kern, tables, memory_mb=1e-4)


class TestGammaIntegral:
    def test_decomposition_consistency(self):
        inst, params, tables, kern = tiny_setup()
        direct = gamma_direct(inst, params, kern, tables)
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
