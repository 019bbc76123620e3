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

import numpy as np

from ._io import Record, atomic_write_text, csv_blocks, fmt17
from .dh_pipeline import main_range_cutoff
from .errors import AdmissibilityError, SpecMismatch
from .numerics import e2pi, oscillatory_integral, phase_sum
from .ps_primes import (DENSITY_GAMMA_MIN, PsPrimeTable, check_gamma,
                        check_power_window, check_window, sieve_primes,
                        window_bounds, window_table)


class Family(enum.Enum):
    S = "S"
    Sigma = "Sigma"
    U = "U"
    I = "I"


class GapKind(enum.Enum):
    S_vs_Sigma = "S_vs_Sigma"
    Sigma_vs_U = "Sigma_vs_U"


class SumSpec(Record):
    """Which family to evaluate and over which window."""

    __slots__ = ("family", "k", "x_max", "lambda0", "gamma")

    def __init__(self, family: Family, k: int, x_max: float, lambda0: float,
                 gamma: float | None = None):
        k = check_power_window(k, lambda0)
        if gamma is not None:
            gamma = check_gamma(gamma)
        if family is Family.S:
            if gamma is None:
                raise ValueError("family S needs gamma")
            if not gamma > DENSITY_GAMMA_MIN:
                raise AdmissibilityError(
                    f"gamma={gamma} <= 2426/2817; the PS prime count "
                    f"has no usable density there")
        self._set(family, k, x_max, lambda0, gamma)


class MomentResult(Record):
    __slots__ = ("m", "value", "grid_points", "x_max")

    def __init__(self, m: int, value: float, grid_points: int, x_max: float):
        self._set(m, value, grid_points, x_max)


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
                or table.gamma != spec.gamma):
            raise SpecMismatch(
                f"table built for (gamma={table.gamma}, X={table.x_max}, "
                f"lambda0={table.lambda0}, k={table.k}), spec wants "
                f"(gamma={spec.gamma}, X={spec.x_max}, "
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
    # family I by quadrature over the window lambda0*X < y^k <= X
    y_lo = (spec.lambda0 * spec.x_max) ** (1.0 / spec.k)
    y_hi = spec.x_max ** (1.0 / spec.k)
    if y_hi <= y_lo:
        return complex(0)
    freq = abs(t) * spec.k * y_hi ** (spec.k - 1)
    k = spec.k
    return oscillatory_integral(lambda y, *_: e2pi(t * y ** k), y_lo, y_hi, freq)


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


def growth_ladder(gamma: float, x_max: float, lambda0: float, k: int) -> list:
    """The rungs x = x_max/16, x_max/4, x_max of the diagnostics' growth fits:
    (primes of the window lambda0*x < p^k <= x, its PS prime table) each."""
    rungs = []
    for x in (x_max / 16.0, x_max / 4.0, x_max):
        gamma, k = check_window(gamma, x, lambda0, k)
        primes = sieve_primes(*window_bounds(x, lambda0, k))
        rungs.append((primes, window_table(gamma, x, lambda0, k, primes)))
    return rungs


def growth_exponent(rungs, values) -> float:
    """Least-squares slope of log(value) against log(x) over the rungs."""
    logs_x = np.log([table.x_max for _, table in rungs])
    return float(np.polyfit(logs_x, np.log(np.maximum(values, 1e-300)), 1)[0])


def asym_gap(kind: GapKind, rungs, t_grid) -> tuple[float, float]:
    """(gap at the top rung, fitted growth exponent over the rungs).

    rungs is a growth_ladder; each rung's table gives x, lambda0, k and
    gamma. t_grid holds relative offsets u in [0, 1]. S_vs_Sigma takes the
    sup of |S(t) - gamma*Sigma(t)| over t = u * Delta(x); Sigma_vs_U
    integrates |Sigma - U|^2 over [-Delta(x), Delta(x)] by trapezoid on
    len(t_grid) symmetric nodes. The exponent is growth_exponent of the gaps.
    """
    u = np.asarray(list(t_grid), dtype=float)
    if len(u) == 0:
        raise ValueError("t_grid must be nonempty")
    gaps = []
    for primes, table in rungs:
        x, lambda0, k = table.x_max, table.lambda0, table.k
        delta = main_range_cutoff(x)
        sig_spec = SumSpec(Family.Sigma, k, x, lambda0)
        if kind is GapKind.S_vs_Sigma:
            s_spec = SumSpec(Family.S, k, x, lambda0, table.gamma)
            ts = u * delta
            sv = tscan(s_spec, ts, table)
            gv = tscan(sig_spec, ts, primes)
            gaps.append(float(np.max(np.abs(sv - table.gamma * gv))))
        else:
            n = max(len(u), 9)
            ts = np.linspace(-delta, delta, n)
            u_spec = SumSpec(Family.U, k, x, lambda0)
            gv = tscan(sig_spec, ts, primes)
            uv = tscan(u_spec, ts, None)
            gaps.append(float(np.trapezoid(np.abs(gv - uv) ** 2, ts)))
    return gaps[-1], growth_exponent(rungs, gaps)


def export_tscan(path: str, ts, values, marks: dict[str, float] | None = None) -> int:
    """CSV t,re,im,abs; optional '# name = value' marker lines up front."""
    head = "".join(f"# {name} = {fmt17(marks[name])}\n" for name in sorted(marks or {}))
    v = np.asarray(values, dtype=complex)
    # Python's abs, not np.abs: the two differ in the last digit of some rows
    return atomic_write_text(path, csv_blocks(head + "t,re,im,abs", [
        np.asarray(ts, dtype=float), v.real, v.imag, [abs(z) for z in v.tolist()]]))
