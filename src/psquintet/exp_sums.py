"""Exponential sum evaluators and empirical growth diagnostics.

Four families over the window lambda0*X < p^k <= X (resp. n^k, y^k):

    S(t)     = sum over PS primes of p^(1-gamma) e(t p^k) log p
    Sigma(t) = sum over all primes of e(t p^k) log p
    U(t)     = sum over integers of e(t n^k)
    I(t)     = integral of e(t y^k) dy over the continuous window

with e(u) = exp(2*pi*i*u), evaluated by numerics.e2pi: phases are reduced
symmetrically (u - rint(u)) so large arguments keep full precision and eval at
-t is the exact conjugate of eval at t. A finite sum over a grid of t is one
numerics.phase_sum; eval_sum is tscan at a single t.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._io import atomic_write_text, csv_text, fmt17
from .dh_pipeline import main_range_cutoff
from .errors import AdmissibilityError, SpecMismatch
from .numerics import QuadratureSpec, e2pi, oscillatory_integral, phase_sum
from .ps_primes import GammaParam, PsPrimeTable, sieve_primes, window_bounds


class Family(enum.Enum):
    S = "S"
    Sigma = "Sigma"
    U = "U"
    I = "I"


class GapKind(enum.Enum):
    S_vs_Sigma = "S_vs_Sigma"
    Sigma_vs_U = "Sigma_vs_U"


@dataclass(frozen=True)
class SumSpec:
    """Which family to evaluate and over which window."""

    family: Family
    k: int
    x_max: float
    lambda0: float
    gamma: GammaParam | None = None

    def __post_init__(self):
        if self.k not in (2, 3, 4):
            raise ValueError(f"k must be 2, 3 or 4, got {self.k}")
        if not (0.0 < self.lambda0 < 1.0):
            raise ValueError(f"lambda0 must be in (0,1), got {self.lambda0}")
        if self.family is Family.S:
            if self.gamma is None:
                raise ValueError("family S needs gamma")
            if not self.gamma.density_admissible:
                raise AdmissibilityError(
                    f"gamma={self.gamma.gamma} <= 2426/2817; the PS prime count "
                    f"has no usable density there")


@dataclass(frozen=True)
class MomentResult:
    m: int
    value: float
    grid_points: int
    x_max: float


def _base_weights(spec: SumSpec, table) -> tuple[np.ndarray, np.ndarray]:
    """(base n^k as float64, weights) of a finite-sum family; U takes no table."""
    if spec.family is Family.U:
        lo, hi = window_bounds(spec.x_max, spec.lambda0, spec.k)
        pk = np.arange(max(lo, 1), hi + 1, dtype=np.float64) ** spec.k
        return pk, np.ones_like(pk)
    if spec.family is Family.S:
        if not isinstance(table, PsPrimeTable):
            raise SpecMismatch("family S needs a PS prime table")
        if (table.k != spec.k or table.x_max != spec.x_max
                or table.lambda0 != spec.lambda0
                or table.gamma.gamma != spec.gamma.gamma):
            raise SpecMismatch(
                f"table built for (gamma={table.gamma.gamma}, X={table.x_max}, "
                f"lambda0={table.lambda0}, k={table.k}), spec wants "
                f"(gamma={spec.gamma.gamma}, X={spec.x_max}, "
                f"lambda0={spec.lambda0}, k={spec.k})")
        pk = table.primes.astype(np.float64) ** spec.k
        return pk, table.weights
    if isinstance(table, PsPrimeTable):
        raise SpecMismatch("family Sigma sums over all window primes, "
                           "not a PS-filtered table")
    primes = np.asarray(table, dtype=np.int64)
    lo, hi = window_bounds(spec.x_max, spec.lambda0, spec.k)
    if np.any((primes < lo) | (primes > hi)):
        raise SpecMismatch("prime list does not match the window "
                           f"(lambda0*X, X] = ({spec.lambda0 * spec.x_max}, "
                           f"{spec.x_max}]")
    pk = primes.astype(np.float64) ** spec.k
    return pk, np.log(primes.astype(np.float64))


def _integral_value(spec: SumSpec, t: float) -> complex:
    # family I by quadrature; the upper limit is sqrt(x_max) as in the source
    # formula (x_max^(1/k) at k=2, the only k the diagnostics exercise)
    y_lo = (spec.lambda0 * spec.x_max) ** (1.0 / spec.k)
    y_hi = math.sqrt(spec.x_max)
    if y_hi <= y_lo:
        return complex(0)
    freq = abs(t) * spec.k * y_hi ** (spec.k - 1)
    k = spec.k
    return oscillatory_integral(lambda y: e2pi(t * y ** k),
                                QuadratureSpec(y_lo, y_hi, freq))


def tscan(spec: SumSpec, ts, table=None) -> np.ndarray:
    """Sum values along a t grid (complex array), vectorized."""
    ts = np.asarray(list(ts), dtype=float)
    if spec.family is Family.I:
        return np.array([_integral_value(spec, float(t)) for t in ts],
                        dtype=complex)
    return phase_sum(ts, *_base_weights(spec, table))


def eval_sum(spec: SumSpec, t: float, table=None) -> complex:
    """One family evaluation at one t; complex even when the value is real."""
    return complex(tscan(spec, [t], table)[0])


def moment_integral(spec: SumSpec, m: int, interval: tuple[float, float],
                    grid_points: int, table=None) -> MomentResult:
    """Trapezoid value of the m-th absolute moment of the sum over interval.

    Uniform grids on purpose: |sum|^m oscillates everywhere at comparable
    scale, so adaptivity buys nothing and uniform refinement keeps the
    doubling stability check meaningful.
    """
    if m not in (2, 4, 8, 16):
        raise ValueError(f"m must be one of 2, 4, 8, 16, got {m}")
    if grid_points < 256:
        raise ValueError(f"grid_points must be >= 256, got {grid_points}")
    lo, hi = interval
    if not lo < hi:
        raise ValueError("empty interval")
    ts = np.linspace(lo, hi, grid_points + 1)
    vals = np.abs(tscan(spec, ts, table)) ** m
    value = float(np.trapezoid(vals, ts))
    return MomentResult(m=m, value=value, grid_points=grid_points,
                        x_max=spec.x_max)


def asym_gap(kind: GapKind, k: int, gamma, x_max: float, lambda0: float,
             t_grid) -> tuple[float, float]:
    """(gap at x_max, fitted growth exponent over the ladder x_max/16..x_max).

    t_grid holds relative offsets u in [0, 1]. S_vs_Sigma takes the sup of
    |S(t) - gamma*Sigma(t)| over t = u * Delta(X); Sigma_vs_U integrates
    |Sigma - U|^2 over [-Delta(X), Delta(X)] by trapezoid on len(t_grid)
    symmetric nodes. The exponent is the least-squares slope of log(gap)
    against log(X) over the three-rung ladder.
    """
    from .ps_primes import build_table  # call time: the traced run wraps it there

    gp = gamma if isinstance(gamma, GammaParam) else GammaParam(float(gamma))
    u = np.asarray(list(t_grid), dtype=float)
    if len(u) == 0:
        raise ValueError("t_grid must be nonempty")
    ladder = [x_max / 16.0, x_max / 4.0, x_max]
    gaps = []
    for x in ladder:
        delta = main_range_cutoff(x)
        lo_w, hi_w = window_bounds(x, lambda0, k)
        primes = sieve_primes(lo_w, hi_w)
        sig_spec = SumSpec(Family.Sigma, k, x, lambda0)
        if kind is GapKind.S_vs_Sigma:
            table = build_table(gp, x, lambda0, k)
            s_spec = SumSpec(Family.S, k, x, lambda0, gp)
            ts = u * delta
            sv = tscan(s_spec, ts, table)
            gv = tscan(sig_spec, ts, primes)
            gaps.append(float(np.max(np.abs(sv - gp.gamma * gv))))
        else:
            n = max(len(u), 9)
            ts = np.linspace(-delta, delta, n)
            u_spec = SumSpec(Family.U, k, x, lambda0)
            gv = tscan(sig_spec, ts, primes)
            uv = tscan(u_spec, ts, None)
            gaps.append(float(np.trapezoid(np.abs(gv - uv) ** 2, ts)))
    logs_x = np.log(ladder)
    logs_g = np.log(np.maximum(gaps, 1e-300))
    slope = float(np.polyfit(logs_x, logs_g, 1)[0])
    return gaps[-1], slope


def export_tscan(path: str, ts, values, marks: dict[str, float] | None = None) -> int:
    """CSV t,re,im,abs; optional '# name = value' marker lines up front."""
    head = "".join(f"# {name} = {fmt17(marks[name])}\n" for name in sorted(marks or {}))
    rows = ([fmt17(t), fmt17(v.real), fmt17(v.imag), fmt17(abs(v))]
            for t, v in zip(ts, map(complex, values)))
    return atomic_write_text(path, head + csv_text(["t", "re", "im", "abs"], rows))
