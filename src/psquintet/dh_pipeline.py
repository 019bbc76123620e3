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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AdmissibilityError,
    BudgetExceeded,
    CapacityExceeded,
    DegenerateRatio,
)
from .numerics import (
    QuadratureSpec,
    SmoothingKernel,
    _cf_walk,
    e2pi,
    kernel_eval,
    kernel_fourier,
    oscillatory_integral,
    phase_sum,
)
from .ps_primes import THEOREM_TRIPLES, GammaParam, PsPrimeTable, build_table
from .quintet_search import search_mitm, within_radius

# solutions the direct count may sum before it refuses as truncated
MAX_DIRECT_SOLUTIONS = 10 ** 7


@dataclass(frozen=True)
class ProblemInstance:
    lambdas: tuple[float, float, float, float, float]
    eta: float
    k: int
    gamma: GammaParam
    theta_exp: float
    lambda0: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(l) for l in self.lambdas))
        if len(self.lambdas) != 5:
            raise ValueError(f"need 5 coefficients, got {len(self.lambdas)}")
        if not all(math.isfinite(l) and l != 0 for l in self.lambdas):
            raise ValueError("coefficients must be finite and nonzero")
        if not (min(self.lambdas) < 0 < max(self.lambdas)):
            raise AdmissibilityError(
                "coefficients must be not all of the same sign; "
                "all five share one sign here")
        if not math.isfinite(self.eta):
            raise ValueError("eta must be finite")
        if self.k not in (2, 3, 4):
            raise ValueError(f"k must be 2, 3 or 4, got {self.k}")
        if not isinstance(self.gamma, GammaParam):
            raise TypeError("gamma must be a GammaParam")
        if not self.gamma.theorem_admissible(self.k):
            a, b, _ = THEOREM_TRIPLES[self.k]
            raise AdmissibilityError(
                f"gamma={self.gamma.gamma} < {a}/{b} for k={self.k}")
        if not (self.theta_exp > 0 and math.isfinite(self.theta_exp)):
            raise ValueError(f"theta_exp must be positive, got {self.theta_exp}")
        if not (0.0 < self.lambda0 < 1.0):
            raise ValueError(f"lambda0 must be in (0,1), got {self.lambda0}")

    @property
    def powers(self) -> tuple[int, int, int, int, int]:
        """The exponent on each slot's prime: squares, then k."""
        return (2, 2, 2, 2, self.k)

    @property
    def radius_exponent(self) -> float:
        """e_k(gamma) + theta: the theorem radius is max_p to this power."""
        return self.gamma.theorem_exponent(self.k) + self.theta_exp


@dataclass(frozen=True)
class DhParams:
    q0: int
    X: float
    Delta: float
    eps: float
    H: float

    def __post_init__(self):
        if self.q0 < 1:
            raise ValueError("q0 must be a positive integer")
        for name in ("X", "Delta", "eps", "H"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class GammaDecomposition:
    A: complex
    B: complex
    C_bound: float
    total: complex
    direct: Optional[float] = None

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
        eps = x ** (inst.gamma.theorem_exponent(inst.k) / 2 + inst.theta_exp)
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


def gamma_direct(inst: ProblemInstance, params: DhParams,
                 kern: SmoothingKernel, tables, *, threads: int = 1,
                 memory_mb: float = 2048.0, solutions=None) -> float:
    """Kernel-weighted quintuple sum, enumerated through the pair search.

    The kernel vanishes outside |value| < eps, so only near-solutions are
    enumerated (radius = kernel support); everything else contributes zero.
    solutions, if given, is a search_mitm result at a radius >= eps with
    limit MAX_DIRECT_SOLUTIONS; it stands in for the search.
    """
    if any(len(t) == 0 for t in tables):
        return 0.0
    cap = MAX_DIRECT_SOLUTIONS
    if solutions is None:
        try:
            solutions = search_mitm(inst, tables, kern.epsilon, limit=cap,
                                    threads=threads, memory_mb=memory_mb)
        except CapacityExceeded as exc:
            raise BudgetExceeded(str(exc)) from exc
    sols = within_radius(inst, solutions, kern.epsilon)
    if len(sols) >= cap:
        raise BudgetExceeded(
            f"solution count reached the {cap} cap; "
            "the weighted sum would be truncated")
    return math.fsum(kernel_eval(kern, s.value) * s.weight for s in sols)


def _sum_caps(tables) -> list[float]:
    return [float(np.sum(t.weights)) for t in tables]


def tail_bound(params: DhParams, l: int,
               sum_caps=(1.0, 1.0, 1.0, 1.0, 1.0)) -> float:
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
    bases = [t.primes.astype(np.float64) ** kj for t, kj in zip(tables, inst.powers)]
    weights = [t.weights for t in tables]
    lams = inst.lambdas
    eta = inst.eta

    def f(t: np.ndarray) -> np.ndarray:
        acc = kernel_fourier(kern, t).astype(complex)
        for lam, base, w in zip(lams, bases, weights):
            if len(base) == 0:
                return np.zeros_like(t, dtype=complex)
            acc = acc * phase_sum(lam * t, base, w)
        return acc * e2pi(eta * t)

    return f


def gamma_integral(inst: ProblemInstance, params: DhParams,
                   kern: SmoothingKernel, tables, *, threads: int = 1,
                   nodes_cap: int = 1024,
                   direct: Optional[float] = None,
                   deadline=None) -> GammaDecomposition:
    """Main-range A, oscillatory-range B, and the tail bound C.

    A integrates over |t| < Delta and B over Delta <= |t| <= H; both use the
    conjugate symmetry of the integrand to evaluate only t >= 0 and return
    exactly real values. Each region is integrated to QuadratureSpec's
    default rel_tol, as if it held at least 128 cycles, so a short or slowly
    turning region still gets a fine rule. deadline is handed to
    oscillatory_integral, which calls it between chunks of integrand points.
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
        spec = QuadratureSpec(lo, hi, max(freq, 128.0 / (hi - lo)))
        half = oscillatory_integral(f, spec, threads=threads,
                                    nodes_cap=nodes_cap, deadline=deadline)
        return complex(2.0 * half.real, 0.0)

    a = region(0.0, params.Delta)
    b = region(params.Delta, params.H)
    c = tail_bound(params, kern.l, _sum_caps(tables))
    return GammaDecomposition(A=a, B=b, C_bound=c, total=a + b, direct=direct)
