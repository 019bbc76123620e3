"""Parameter derivation and the smoothed counting integral.

A problem instance fixes the five coefficients, the shift eta, the power k
on the fifth prime, the PS exponent gamma, the small positive theta and the
window fraction lambda0. From the coefficient ratio lambda1/lambda2 the
derived parameters follow:

    X     = q0^(58/27)        q0 a convergent denominator of lambda1/lambda2
    Delta = X^(-27/29) log X
    eps   = X^(e_k(gamma)/2 + theta)  e_k the theorem exponent (a - b*gamma)/c
                                      of ps_primes.THEOREM_TRIPLES
    H     = log^2 X / eps

The smoothed count Gamma = sum over PS-prime quintuples of
theta_kernel(form value) * weight equals the integral over t of
Theta(t) * prod_j S_j(lambda_j t) * e(eta t). The integral splits at
|t| = Delta (main range A) and |t| = H (oscillatory range B); the discarded
|t| > H tail is covered by an explicit bound rather than evaluated.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ._io import Record
from .errors import AdmissibilityError, DegenerateRatio
from .numerics import (
    SmoothingKernel,
    _cf_walk,
    kernel_eval,
    kernel_fourier,
    lattice_phase_sum,
    oscillatory_integral,
)
from .ps_primes import (DEFAULT_LAMBDA0, THEOREM_TRIPLES, PsPrimeTable, build_table,
                        check_gamma, check_power_window, theorem_exponent)
# unused here, but psqbench/traced_cli.py patches search_mitm in this module
from .quintet_search import search_mitm, within_radius


class ProblemInstance(Record):
    __slots__ = ("lambdas", "eta", "k", "gamma", "theta_exp", "lambda0")

    def __init__(self, lambdas: tuple[float, float, float, float, float],
                 eta: float, k: int, gamma: float, theta_exp: float,
                 lambda0: float = DEFAULT_LAMBDA0):
        lambdas = tuple(float(l) for l in lambdas)
        if len(lambdas) != 5:
            raise ValueError(f"need 5 coefficients, got {len(lambdas)}")
        if not all(math.isfinite(l) and l != 0 for l in lambdas):
            raise ValueError("coefficients must be finite and nonzero")
        if not (min(lambdas) < 0 < max(lambdas)):
            raise AdmissibilityError(
                "coefficients must be not all of the same sign; "
                "all five share one sign here")
        if not math.isfinite(eta):
            raise ValueError("eta must be finite")
        k = check_power_window(k, lambda0)
        gamma = check_gamma(gamma)
        a, b, _ = THEOREM_TRIPLES[k]
        if not gamma > a / b:
            raise AdmissibilityError(f"gamma={gamma} < {a}/{b} for k={k}")
        if not (theta_exp > 0 and math.isfinite(theta_exp)):
            raise ValueError(f"theta_exp must be positive, got {theta_exp}")
        self._set(lambdas, eta, k, gamma, theta_exp, lambda0)

    @property
    def powers(self) -> tuple[int, int, int, int, int]:
        """The exponent on each slot's prime: squares, then k."""
        return (2, 2, 2, 2, self.k)

    @property
    def radius_exponent(self) -> float:
        """e_k(gamma) + theta: the theorem radius is max_p to this power."""
        return theorem_exponent(self.gamma, self.k) + self.theta_exp


class DhParams(Record):
    __slots__ = ("q0", "X", "Delta", "eps", "H")

    def __init__(self, q0: int, X: float, Delta: float, eps: float, H: float):
        if q0 < 1:
            raise ValueError("q0 must be a positive integer")
        for name, v in (("X", X), ("Delta", Delta), ("eps", eps), ("H", H)):
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite")
        self._set(q0, X, Delta, eps, H)


class GammaDecomposition(Record):
    __slots__ = ("A", "B", "C_bound", "direct")

    def __init__(self, A: complex, B: complex, C_bound: float,
                 direct: Optional[float] = None):
        self._set(A, B, C_bound, direct)

    @property
    def total(self) -> complex:
        return self.A + self.B

    @property
    def rel_gap(self) -> Optional[float]:
        if self.direct is None:
            return None
        # scale by the larger magnitude so a zero direct count (no solutions
        # near the window) reads 1.0, not an artifact of a tiny denominator
        scale = max(abs(self.direct), abs(self.total))
        if scale == 0.0:
            return 0.0
        return abs(self.total - self.direct) / scale


def main_range_cutoff(x: float) -> float:
    """Delta = X^(-27/29) log X, where the main range |t| < Delta ends."""
    return x ** (-27.0 / 29.0) * math.log(x)


def derive_params(inst: ProblemInstance, q0_floor: int = 2) -> DhParams:
    """Derived scales from the coefficient ratio.

    q0 is the smallest convergent denominator of lambda1/lambda2 at or above
    the floor; small floors keep X at desk scale. The floor is at least 2:
    q0 = 1 gives X = 1 and Delta = 0. A theta so large that eps overflows
    raises AdmissibilityError.
    """
    floor = int(q0_floor)
    if floor < 2:
        raise ValueError(f"q0 floor must be >= 2, got {q0_floor}")
    ratio = inst.lambdas[0] / inst.lambdas[1]
    if not math.isfinite(ratio):
        raise DegenerateRatio(f"lambda1/lambda2 = {ratio}: the ratio overflows")
    convs, ended = _cf_walk(ratio, 64)
    q0 = next((c.denominator for c in convs if c.denominator >= floor), None)
    if q0 is None:
        why = ("the ratio is rational with too small a denominator" if ended else
               f"the convergent walk stopped at denominator {convs[-1].denominator}"
               + (" after 64 terms" if len(convs) == 64 else ": the next is over 10^15"))
        raise DegenerateRatio(
            f"lambda1/lambda2 = {ratio} has no convergent denominator >= "
            f"{floor}; {why}")
    x = float(q0) ** (58.0 / 27.0)
    try:
        eps = x ** (theorem_exponent(inst.gamma, inst.k) / 2 + inst.theta_exp)
    except OverflowError:
        raise AdmissibilityError(f"theta={inst.theta_exp}: eps = X^(e/2 + theta) "
                                 f"overflows at X={x}") from None
    h = math.log(x) ** 2 / eps
    return DhParams(q0=q0, X=x, Delta=main_range_cutoff(x), eps=eps, H=h)


def instance_tables(inst: ProblemInstance, params: DhParams) -> list[PsPrimeTable]:
    """Five per-slot PS prime tables (slots 1-4 squares, slot 5 power k)."""
    sq = build_table(inst.gamma, params.X, inst.lambda0, 2)
    if inst.k == 2:
        return [sq] * 5
    return [sq] * 4 + [build_table(inst.gamma, params.X, inst.lambda0, inst.k)]


def gamma_direct(inst: ProblemInstance, kern: SmoothingKernel,
                 solutions) -> float:
    """Kernel-weighted quintuple sum over a search_mitm result.

    solutions comes from a search at a radius >= eps: the kernel vanishes
    outside |value| < eps, so it holds every quintuple the sum needs.
    """
    sols = within_radius(inst, solutions, kern.epsilon)
    return math.fsum(kernel_eval(kern, v) * w for v, w in
                     zip(sols.value.tolist(), sols.weight.tolist()))


def _sum_caps(tables) -> list[float]:
    return [float(np.sum(t.weights)) for t in tables]


def tail_bound(params: DhParams, l: int, sum_caps) -> float:
    """Bound on the discarded |t| > H integral: (prod caps)/l * (4l/(pi eps H))^l.

    l is the smoothness order of the kernel whose tail is bounded
    (SmoothingKernel.l); the bound is small when the base 4l/(pi eps H) is.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    caps = [float(c) for c in sum_caps]
    if len(caps) != 5 or any(c < 0 for c in caps):
        raise ValueError("sum_caps must be 5 nonnegative reals")
    base = 4.0 * l / (math.pi * params.eps * params.H)
    return math.prod(caps) / l * base ** l


def _integrand(inst: ProblemInstance, kern: SmoothingKernel, tables):
    """Theta(t) * prod_j S_j(lambda_j t) * e(eta t) on the quadrature lattice.

    The returned f(t, mid, off) takes the flat points t and their panel
    midpoints and node offsets (see numerics.oscillatory_integral); each
    S_j comes from lattice_phase_sum on lambda_j * mid and lambda_j * off.
    Slots with the same lambda, table and power share one sum per call, and
    the sums multiply in slot order into one accumulator, in place; each sum
    is dropped after its last slot. Theta(t) is taken point by point.

    On the real line |f| <= (7 eps/4) * prod_j W_j, with W_j the weight sum
    of slot j, and f has exponential type 2 pi times the frequency bound
    that gamma_integral passes: oscillatory_integral's truncation bound
    covers it.
    """
    slots = [(lam, id(t), kj) for lam, t, kj in zip(inst.lambdas, tables, inst.powers)]
    terms = {key: (t.primes.astype(np.float64) ** key[2], t.weights)
             for key, t in zip(slots, tables)}
    last = {key: j for j, key in enumerate(slots)}
    empty = any(len(t) == 0 for t in tables)
    eta = inst.eta
    one = np.ones(1)

    def f(t: np.ndarray, mid: np.ndarray, off: np.ndarray) -> np.ndarray:
        if empty:
            return np.zeros_like(t, dtype=complex)
        acc = kernel_fourier(kern, t).astype(complex)
        sums = {}
        for j, key in enumerate(slots):
            if key not in sums:
                base, w = terms[key]
                lam = key[0]
                sums[key] = lattice_phase_sum(lam * mid, lam * off, base, w).ravel()
            acc *= sums[key]
            if last[key] == j:
                del sums[key]
        # e(eta t) is a one-term sum with weight 1, on the lattice as well
        acc *= lattice_phase_sum(eta * mid, eta * off, one, one).ravel()
        return acc

    return f


def gamma_integral(inst: ProblemInstance, params: DhParams,
                   kern: SmoothingKernel, tables, *, threads: int = 1,
                   direct: Optional[float] = None, deadline=None) -> GammaDecomposition:
    """Main-range A, oscillatory-range B, and the tail bound C.

    A integrates over |t| < Delta and B over Delta <= |t| <= H; both use the
    conjugate symmetry of the integrand to evaluate only t >= 0 and return
    exactly real values. Each region is integrated in one pass of
    oscillatory_integral, whose truncation error is at most
    numerics.TRUNCATION_TOL * (7 eps/4) * prod_j W_j * (region length): the
    integrand is bounded by (7 eps/4) * prod_j W_j on the real line (W_j the
    weight sum of slot j), and freq bounds its exponential type. Each region
    is taken as if it held at least 128 cycles, so a short or slowly turning
    region still gets a fine rule. On the pinned lambdas A has two panels of
    64 cycles (133 nodes) and B panels of at most 64 cycles; the two share
    one Gauss-Legendre rule only when B's panel cycles round up to 64, as at
    q0 12 and 29 but not at q0 5 (36 panels of 132 nodes). deadline is
    handed to oscillatory_integral, which calls it between chunks of
    integrand points.
    """
    if params.H <= params.Delta:
        raise AdmissibilityError(
            f"H={params.H} <= Delta={params.Delta}: theta={inst.theta_exp} "
            f"leaves no oscillatory range at X={params.X}")
    freq = sum(abs(l) * float(np.max(t.primes)) ** kj if len(t) else 0.0
               for l, t, kj in zip(inst.lambdas, tables, inst.powers))
    freq += abs(inst.eta) + 2.0 * kern.epsilon
    f = _integrand(inst, kern, tables)

    def region(lo: float, hi: float) -> complex:
        half = oscillatory_integral(f, lo, hi, max(freq, 128.0 / (hi - lo)),
                                    threads=threads, deadline=deadline)
        return complex(2.0 * half.real, 0.0)

    a = region(0.0, params.Delta)
    b = region(params.Delta, params.H)
    c = tail_bound(params, kern.l, _sum_caps(tables))
    return GammaDecomposition(A=a, B=b, C_bound=c, direct=direct)
