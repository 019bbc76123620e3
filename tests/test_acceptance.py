"""Release acceptance suite: one test per numbered criterion.

Each test computes its measured quantities, prints exactly one line of the
form "criterion NN [name] PASS/FAIL: details (elapsed)", then asserts. Run
with -v (or -s to see the lines for passing criteria too).

Known failures at desk scale, kept red on purpose:

  * criterion 05: the quartic moment of the weighted window sum is diagonal
    dominated at X <= 1.6e5, so the fitted growth exponent sits near 1.49,
    above the asymptotic target 2 - gamma + 0.2 = 1.25. The exponent is a
    large-X statement; no reachable ladder satisfies it.
  * criterion 08: the main-range term A is about 4.4 times smaller than
    the intermediate-range term B at the pinned q0 = 29 instance (A =
    600.45, B = 2,647.95), so the |A| > |B| clause fails even though A + B
    reproduces the direct count to eight digits. Dominance of the main
    range sets in at the next convergent: `psquintet gamma --q0-floor 70`
    (X = 9,195, 13 primes per slot) gives A = 26,626.89, B = -12,889.64,
    direct = 13,737.25 and rel_gap = 1.1e-11. The criterion keeps its
    pinned instance; tests/test_dh_pipeline.py checks q0 = 70 on its own.
"""

import json
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from psquintet.cli import main
from psquintet.dh_pipeline import (
    ProblemInstance,
    derive_params,
    gamma_direct,
    gamma_integral,
    instance_tables,
)
from psquintet.exp_sums import (Family, GapKind, SumSpec, asym_gap, growth_ladder,
                                moment_integral)
from psquintet.numerics import (
    QuadratureSpec,
    SmoothingKernel,
    dirichlet_approx,
    kernel_eval,
    kernel_fourier,
    oscillatory_integral,
)
from psquintet.ps_primes import (
    GammaParam,
    build_table,
    is_ps_prime,
    ps_prime_count,
    sieve_primes,
)
from psquintet.quintet_search import brute_oracle, search_mitm
from solution_rows import rows

SQRT2 = math.sqrt(2.0)
GP99 = GammaParam(0.99)
PINNED_LAMBDAS = (SQRT2, 1.0, 1.0, 1.0, -3.0)


def _line(num: int, name: str, ok: bool, detail: str, elapsed: float,
          budget: float) -> None:
    in_time = elapsed < budget
    tag = "PASS" if (ok and in_time) else "FAIL"
    print(f"criterion {num:02d} [{name}] {tag}: {detail} "
          f"({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num:02d} {name}: {detail}"
    assert in_time, f"criterion {num:02d} {name}: {elapsed:.1f}s > {budget}s"


@pytest.fixture(scope="session")
def pinned():
    inst = ProblemInstance(PINNED_LAMBDAS, 0.0, 2, GP99, 0.001, 0.1)
    params = derive_params(inst, 29)
    tables = instance_tables(inst, params)
    kern = SmoothingKernel(params.eps, max(1, math.floor(math.log(params.X))))
    return inst, params, tables, kern


def test_criterion_01_kernel_bound_suite():
    t0 = time.monotonic()
    violations = 0
    worst = 0.0
    for eps in (0.1, 0.01):
        xs = np.geomspace(1e-2 / eps, 1e2 / eps, 1000)
        inv = 1.0 / (np.pi * xs)
        for l in (2, 4, 8):
            kern = SmoothingKernel(eps, l)
            got = np.abs(kernel_fourier(kern, xs))
            bound = np.minimum(7 * eps / 4,
                               np.minimum(inv, inv * (l / (2 * np.pi * xs * eps / 8)) ** l))
            violations += int(np.sum(got > bound))
            worst = max(worst, float(np.max(got / bound)))
    _line(1, "kernel bound suite", violations == 0,
          f"violations={violations} over 6000 points, worst |Theta|/bound={worst:.6f}",
          time.monotonic() - t0, 5.0)


def test_criterion_02_kernel_transform_consistency():
    t0 = time.monotonic()
    eps, l = 0.1, 2
    kern = SmoothingKernel(eps, l)
    cand = np.geomspace(1e-2 / eps, 1e2 / eps, 140)
    closed = kernel_fourier(kern, cand)
    inv = 1.0 / (np.pi * cand)
    env = np.minimum(7 * eps / 4,
                     np.minimum(inv, inv * (l / (2 * np.pi * cand * eps / 8)) ** l))
    # skip near-nulls of the closed form: no finite-precision quadrature can
    # resolve a value that is pure cancellation, and the nulls carry no
    # information about transform agreement
    keep = np.abs(closed) >= 0.1 * env
    xs = cand[keep][:100]
    assert len(xs) == 100
    # theta is piecewise polynomial; panels must not straddle its knots or
    # the Gauss-Legendre refinement stalls above the requested tolerance
    box = eps / (4 * l)
    knots = sorted({s * 7 * eps / 8 + box * (j - l / 2)
                    for s in (-1, 1) for j in range(l + 1)})
    worst = 0.0
    for x in xs:
        want = float(kernel_fourier(kern, x))

        def f(y, *_, x=x):
            y = np.asarray(y, dtype=float)
            th = np.array([kernel_eval(kern, float(v)) for v in y.ravel()])
            return th.reshape(y.shape) * np.exp(2j * np.pi * x * y)

        got = 0j
        for a, b in zip(knots[:-1], knots[1:]):
            spec = QuadratureSpec(a, b, max(abs(float(x)), 1.0 / eps))
            got += oscillatory_integral(f, spec)
        worst = max(worst, abs(got - want) / abs(want))
    _line(2, "kernel transform consistency", worst <= 1e-8,
          f"worst relative gap {worst:.3e} over {len(xs)} points (eps={eps}, l={l})",
          time.monotonic() - t0, 30.0)


def test_criterion_03_ps_membership_exactness():
    t0 = time.monotonic()
    primes = sieve_primes(2, 10 ** 5)
    mismatches = 0
    checked = 0
    with mpmath.workdps(50):
        for g in (0.90, 0.95, 0.99):
            gm = mpmath.mpf(g)
            for p in primes:
                p = int(p)
                lo = mpmath.power(p, gm)
                hi = mpmath.power(p + 1, gm)
                oracle = mpmath.ceil(lo) < hi
                got, _ = is_ps_prime(p, g)
                mismatches += int(got != oracle)
                checked += 1
    _line(3, "PS membership exactness", mismatches == 0,
          f"mismatches={mismatches} over {checked} prime/gamma pairs",
          time.monotonic() - t0, 60.0)


def test_criterion_04_density_bracket():
    t0 = time.monotonic()
    gp = GammaParam(0.9)
    ratios = []
    for T in (10 ** 5, 10 ** 6):
        count = ps_prime_count(T, gp)
        ratios.append(count / (T ** 0.9 / math.log(T)))
    ok = all(0.7 <= r <= 1.3 for r in ratios)
    _line(4, "density bracket", ok,
          f"count/(T^0.9/log T) = {ratios[0]:.4f} at 1e5, {ratios[1]:.4f} at 1e6",
          time.monotonic() - t0, 60.0)


def test_criterion_05_moment_exponent_fit():
    t0 = time.monotonic()
    gp = GammaParam(0.95)
    ladder = [1e4, 4e4, 1.6e5]
    vals = []
    for X in ladder:
        table = build_table(gp, X, 0.1, 2)
        spec = SumSpec(Family.S, 2, X, 0.1, gp)
        # full-period trapezoid is exact once the grid beats the largest
        # frequency 2*X present in |S|^4
        grid = 1 << math.ceil(math.log2(2.2 * X))
        vals.append(moment_integral(spec, 4, (0.0, 1.0), grid, table).value)
    slope = float(np.polyfit(np.log(ladder), np.log(vals), 1)[0])
    bound = 2.0 - 0.95 + 0.2
    _line(5, "moment exponent fit", slope <= bound,
          f"fitted slope {slope:.4f} vs bound {bound:.2f} "
          f"(moments {vals[0]:.4g}, {vals[1]:.4g}, {vals[2]:.4g})",
          time.monotonic() - t0, 600.0)


def test_criterion_06_gap_exponent_fit():
    t0 = time.monotonic()
    gap, slope = asym_gap(GapKind.S_vs_Sigma, growth_ladder(GP99, 1.6e5, 0.1, 2),
                          np.linspace(0.0, 1.0, 65))
    bound = (21.0 - 7.0 * 0.99) / 29.0 + 0.25
    _line(6, "gap exponent fit", slope <= bound,
          f"fitted slope {slope:.4f} vs bound {bound:.4f} (gap at 1.6e5: {gap:.4g})",
          time.monotonic() - t0, 600.0)


def test_criterion_07_search_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240817)
    cases = 0
    disagreements = 0
    total_solutions = 0
    while cases < 100:
        lams = rng.uniform(0.5, 3.0, 5) * rng.choice([-1.0, 1.0], size=5)
        if np.all(lams > 0) or np.all(lams < 0):
            continue
        X = float(rng.uniform(300.0, 1500.0))
        lam0 = float(rng.uniform(0.05, 0.4))
        eta = float(rng.uniform(-20.0, 20.0))
        radius = float(rng.uniform(1.0, 40.0))
        table = build_table(GP99, X, lam0, 2)
        if not 0 < len(table) <= 30:
            continue
        inst = ProblemInstance(tuple(float(l) for l in lams), eta, 2, GP99,
                               0.001, lam0)
        fast = search_mitm(inst, [table] * 5, radius)
        slow = brute_oracle(inst, [table] * 5, radius)
        disagreements += int(rows(fast) != rows(slow))
        total_solutions += len(slow)
        cases += 1
    _line(7, "search oracle equivalence", disagreements == 0,
          f"disagreements={disagreements} over {cases} instances "
          f"({total_solutions} solutions compared)",
          time.monotonic() - t0, 60.0)


def test_criterion_08_decomposition_consistency(pinned):
    t0 = time.monotonic()
    inst, params, tables, kern = pinned
    found = search_mitm(inst, tables, kern.epsilon, threads=2)
    direct = gamma_direct(inst, kern, found)
    dec = gamma_integral(inst, params, kern, tables, threads=2,
                         direct=direct)
    qtol = 10 * 1e-9 * abs(direct)
    gap = abs(dec.total.real - direct)
    ok_gap = gap <= max(0.05 * abs(direct), dec.C_bound + qtol)
    ok_ab = abs(dec.A) > abs(dec.B)
    ok_ac = abs(dec.A) > dec.C_bound
    _line(8, "decomposition consistency", ok_gap and ok_ab and ok_ac,
          f"direct={direct:.4f} A={dec.A.real:.4f} B={dec.B.real:.4f} "
          f"C_bound={dec.C_bound:.4f} gap={gap:.3e} "
          f"|A|>|B| {ok_ab}, |A|>C {ok_ac}",
          time.monotonic() - t0, 600.0)


def test_criterion_09_desk_scale_solutions():
    t0 = time.monotonic()
    inst = ProblemInstance(PINNED_LAMBDAS, 0.0, 2, GP99, 0.001, 0.1)
    table = build_table(GP99, 1e8, 0.1, 2)
    sols = search_mitm(inst, [table] * 5, 0.05, threads=2,
                       memory_mb=4096.0)[:200]
    certified = 0
    lam = [Fraction(l) for l in inst.lambdas]
    for p in sols.p.tolist():
        exact = sum(lam[i] * Fraction(p[i]) ** 2 for i in range(5))
        certified += int(abs(exact) < Fraction(0.05))
    ok = len(sols) >= 1 and certified == len(sols)
    first = (f"first p={tuple(sols.p[0].tolist())} value={sols.value[0]:.3e}"
             if sols else "none")
    _line(9, "desk scale solutions", ok,
          f"{len(sols)} returned, {certified} certified exactly "
          f"(window {int(table.primes[0])}..{int(table.primes[-1])}, "
          f"{len(table)} primes); {first}",
          time.monotonic() - t0, 900.0)


def test_criterion_10_dirichlet_property():
    t0 = time.monotonic()
    rng = np.random.default_rng(1009)
    alphas = rng.uniform(0.0, 100.0, 100)
    bad_bound = 0
    scan_mismatch = 0
    for alpha in alphas:
        af = Fraction(float(alpha))
        for Q in (10, 100, 1000):
            r = dirichlet_approx(float(alpha), Q)
            q = r.denominator
            if not (1 <= q <= Q and abs(af - r) <= Fraction(1, q * (Q + 1))):
                bad_bound += 1
            if Q <= 100:
                # |q*alpha - a| has a unique minimiser over q <= Q, and the
                # returned fraction must match it
                best_q, best_err = 1, abs(af - round(af))
                for qq in range(1, Q + 1):
                    err = abs(af * qq - round(af * qq))
                    if err < best_err:
                        best_q, best_err = qq, err
                if q != best_q or r.numerator != round(af * best_q):
                    scan_mismatch += 1
    ok = bad_bound == 0 and scan_mismatch == 0
    _line(10, "dirichlet property", ok,
          f"bound violations={bad_bound}, scan mismatches={scan_mismatch} "
          f"over 100 alphas x Q in (10, 100, 1000)",
          time.monotonic() - t0, 10.0)


def test_criterion_11_determinism(tmp_path):
    t0 = time.monotonic()
    cfg = tmp_path / "pinned.json"
    cfg.write_text(json.dumps({
        "lambdas": list(PINNED_LAMBDAS), "eta": 0.0, "k": 2, "gamma": 0.99,
        "theta": 0.001, "q0_floor": 29, "radius": "theorem", "seed": 42,
    }))
    out1, out4 = tmp_path / "t1", tmp_path / "t4"
    rc1 = main(["verify", "--config", str(cfg), "--out", str(out1),
                "--threads", "1"])
    rc4 = main(["verify", "--config", str(cfg), "--out", str(out4),
                "--threads", "4"])
    b1 = (out1 / "report.json").read_bytes()
    b4 = (out4 / "report.json").read_bytes()
    ok = rc1 == 0 and rc4 == 0 and b1 == b4
    _line(11, "determinism", ok,
          f"exit codes {rc1}/{rc4}, report.json byte-identical: {b1 == b4} "
          f"({len(b1)} bytes)",
          time.monotonic() - t0, 1200.0)
