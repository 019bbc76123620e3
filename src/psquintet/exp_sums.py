"""Exponential sum evaluators and empirical growth diagnostics.

Four families over the window lambda0*X < p^k <= X (resp. n^k, y^k):

    S(t)     = sum over PS primes of p^(1-gamma) e(t p^k) log p
    Sigma(t) = sum over all primes of e(t p^k) log p
    U(t)     = sum over integers of e(t n^k)
    I(t)     = integral of e(t y^k) dy over the continuous window

with e(u) = exp(2*pi*i*u). Phases are reduced symmetrically (u - rint(u)) so
large arguments keep full precision and eval at -t is the exact conjugate of
eval at t. Finite sums use numpy pairwise summation.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass

import numpy as np

from ._io import atomic_write_text, fmt17
from .errors import AdmissibilityError, SpecMismatch
from .numerics import QuadratureSpec, oscillatory_integral
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


def _phases(t: float, base: np.ndarray) -> np.ndarray:
    # e(t*base) with symmetric range reduction; rint is odd so conjugate
    # symmetry in t survives bit-for-bit
    u = t * base
    u = u - np.rint(u)
    return np.exp((2j * np.pi) * u)


def _window_integers(x_max: float, lambda0: float, k: int) -> np.ndarray:
    lo, hi = window_bounds(x_max, lambda0, k)
    if hi < lo:
        return np.empty(0, dtype=np.int64)
    return np.arange(max(lo, 1), hi + 1, dtype=np.int64)


def _check_table(spec: SumSpec, table) -> tuple[np.ndarray, np.ndarray]:
    """Returns (base p^k as float64, weights) for the finite-sum families."""
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
    if spec.family is Family.Sigma:
        if isinstance(table, PsPrimeTable):
            raise SpecMismatch("family Sigma sums over all window primes, "
                               "not a PS-filtered table")
        primes = np.asarray(table, dtype=np.int64)
        if len(primes):
            pk_int = primes.astype(object) ** spec.k
            inside = [(spec.lambda0 * spec.x_max < v <= spec.x_max) for v in pk_int]
            if not all(inside):
                raise SpecMismatch("prime list does not match the window "
                                   f"(lambda0*X, X] = ({spec.lambda0 * spec.x_max}, "
                                   f"{spec.x_max}]")
        pk = primes.astype(np.float64) ** spec.k
        return pk, np.log(primes.astype(np.float64))
    raise SpecMismatch(f"family {spec.family} takes no table")


def eval_sum(spec: SumSpec, t: float, table=None) -> complex:
    """One family evaluation at one t; complex even when the value is real."""
    if spec.family in (Family.S, Family.Sigma):
        pk, w = _check_table(spec, table)
        if len(pk) == 0:
            return complex(0)
        return complex(np.sum(w * _phases(t, pk)))
    if spec.family is Family.U:
        n = _window_integers(spec.x_max, spec.lambda0, spec.k)
        if len(n) == 0:
            return complex(0)
        return complex(np.sum(_phases(t, n.astype(np.float64) ** spec.k)))
    # family I: continuous analogue; upper limit is sqrt(x_max) as displayed
    # in the source formula (coincides with x_max^(1/k) at k=2, the only k
    # the diagnostics exercise)
    y_lo = (spec.lambda0 * spec.x_max) ** (1.0 / spec.k)
    y_hi = math.sqrt(spec.x_max)
    if y_hi <= y_lo:
        return complex(0)
    freq = abs(t) * spec.k * y_hi ** (spec.k - 1)
    qspec = QuadratureSpec(y_lo, y_hi, freq, 1e-9)
    k = spec.k

    def f(y):
        u = t * y ** k
        return np.exp((2j * np.pi) * (u - np.rint(u)))

    return oscillatory_integral(f, qspec)


def _grid_values(spec: SumSpec, ts: np.ndarray, table) -> np.ndarray:
    """Vectorized eval_sum over a t grid for the finite-sum families."""
    if spec.family in (Family.S, Family.Sigma):
        pk, w = _check_table(spec, table)
    elif spec.family is Family.U:
        n = _window_integers(spec.x_max, spec.lambda0, spec.k)
        pk = n.astype(np.float64) ** spec.k
        w = np.ones_like(pk)
    else:
        return np.array([eval_sum(spec, float(t)) for t in ts])
    if len(pk) == 0:
        return np.zeros(len(ts), dtype=complex)
    out = np.empty(len(ts), dtype=complex)
    block = max(1, (1 << 21) // max(len(pk), 1))
    for s in range(0, len(ts), block):
        u = ts[s:s + block, None] * pk[None, :]
        u -= np.rint(u)
        out[s:s + block] = np.exp((2j * np.pi) * u) @ w
    return out


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
    vals = np.abs(_grid_values(spec, ts, table)) ** m
    value = float(np.trapezoid(vals, ts))
    return MomentResult(m=m, value=value, grid_points=grid_points,
                        x_max=spec.x_max)


def _delta_scale(x: float) -> float:
    # main-range half-width used by the gap diagnostics
    return x ** (-27.0 / 29.0) * math.log(x)


def asym_gap(kind: GapKind, k: int, gamma, x_max: float, lambda0: float,
             t_grid) -> tuple[float, float]:
    """(gap at x_max, fitted growth exponent over the ladder x_max/16..x_max).

    t_grid holds relative offsets u in [0, 1]. S_vs_Sigma takes the sup of
    |S(t) - gamma*Sigma(t)| over t = u * Delta(X); Sigma_vs_U integrates
    |Sigma - U|^2 over [-Delta(X), Delta(X)] by trapezoid on len(t_grid)
    symmetric nodes. The exponent is the least-squares slope of log(gap)
    against log(X) over the three-rung ladder.
    """
    from .ps_primes import build_table  # local import keeps module load light

    gp = gamma if isinstance(gamma, GammaParam) else GammaParam(float(gamma))
    u = np.asarray(list(t_grid), dtype=float)
    if len(u) == 0:
        raise ValueError("t_grid must be nonempty")
    ladder = [x_max / 16.0, x_max / 4.0, x_max]
    gaps = []
    for x in ladder:
        delta = _delta_scale(x)
        lo_w, hi_w = window_bounds(x, lambda0, k)
        primes = sieve_primes(max(lo_w, 2), hi_w)
        sig_spec = SumSpec(Family.Sigma, k, x, lambda0)
        if kind is GapKind.S_vs_Sigma:
            table = build_table(gp, x, lambda0, k)
            s_spec = SumSpec(Family.S, k, x, lambda0, gp)
            ts = u * delta
            sv = _grid_values(s_spec, ts, table)
            gv = _grid_values(sig_spec, ts, primes)
            gaps.append(float(np.max(np.abs(sv - gp.gamma * gv))))
        else:
            n = max(len(u), 9)
            ts = np.linspace(-delta, delta, n)
            u_spec = SumSpec(Family.U, k, x, lambda0)
            gv = _grid_values(sig_spec, ts, primes)
            uv = _grid_values(u_spec, ts, None)
            gaps.append(float(np.trapezoid(np.abs(gv - uv) ** 2, ts)))
    logs_x = np.log(ladder)
    logs_g = np.log(np.maximum(gaps, 1e-300))
    slope = float(np.polyfit(logs_x, logs_g, 1)[0])
    return gaps[-1], slope


def tscan(spec: SumSpec, ts, table=None) -> np.ndarray:
    """Sum values along a t grid (complex array), vectorized."""
    return _grid_values(spec, np.asarray(list(ts), dtype=float), table)


def export_tscan(path: str, ts, values, marks: dict[str, float] | None = None) -> int:
    """CSV t,re,im,abs; optional '# name = value' marker lines up front."""
    buf = io.StringIO()
    for name in sorted(marks or {}):
        buf.write(f"# {name} = {fmt17(marks[name])}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "re", "im", "abs"])
    for t, v in zip(ts, values):
        v = complex(v)
        writer.writerow([fmt17(t), fmt17(v.real), fmt17(v.imag), fmt17(abs(v))])
    return atomic_write_text(path, buf.getvalue())
