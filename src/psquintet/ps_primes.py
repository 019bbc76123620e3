"""Segmented prime sieve, Piatetski-Shapiro membership, weighted prime tables.

A prime p is a Piatetski-Shapiro (PS) prime of type gamma in (0,1) when some
integer n lies in [p^gamma, (p+1)^gamma), equivalently p = floor(n^(1/gamma)).
Such primes have counting function ~ X^gamma / log X once gamma > 2426/2817.

Membership is decided in double precision with a guard band: if either
endpoint power lands within 1e-9 of an integer, or the floor cross-check
disagrees, the test is redone at 50 significant digits. For prime p and a
binary-fraction gamma the endpoints are never exactly integers (p^(m/2^s)
integral would force p^m to be a perfect 2^s-th power), so the escalated test
is decisive.
"""

from __future__ import annotations

import math
import numpy as np

from ._io import Record, atomic_write_text, csv_blocks
from .errors import CapacityExceeded

MP_DPS = 50              # escalation precision for membership decisions
_GUARD = 1e-9            # distance-to-integer below which floats are not trusted

_SEGMENT = 1 << 22       # sieve segment length (bools)
_MAX_SPAN = 1 << 34      # refuse absurd single-call ranges

DENSITY_GAMMA_MIN = 2426 / 2817  # PS primes have a usable density above it
# the paper's theorem for each power k, as (a, b, c): it holds for
# gamma > a/b with the radius exponent (a - b*gamma)/c + theta
THEOREM_TRIPLES = {2: (71, 72, 29), 3: (129, 130, 58), 4: (245, 246, 116)}
DEFAULT_LAMBDA0 = 0.1    # the window is lambda0*X < p^k <= X


def theorem_exponent(gamma: float, k: int) -> float:
    """(a - b*gamma)/c of the power-k theorem; the radius adds theta."""
    a, b, c = THEOREM_TRIPLES[k]
    return (a - b * gamma) / c


def check_gamma(gamma) -> float:
    """The one check of an exponent gamma: a float in (0,1)."""
    g = float(gamma)
    if not (0.0 < g < 1.0):
        raise ValueError(f"gamma must be in (0,1), got {g}")
    return g


def sieve_primes(lo: int, hi: int) -> np.ndarray:
    """All primes in [lo, hi], ascending, by segmented Eratosthenes."""
    lo, hi = int(lo), int(hi)
    if lo < 2:
        lo = 2
    if hi < lo:
        return np.empty(0, dtype=np.int64)
    if hi - lo + 1 > _MAX_SPAN:
        raise CapacityExceeded(f"range [{lo},{hi}] exceeds span budget {_MAX_SPAN}")

    root = math.isqrt(hi)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p::p] = False
    base_primes = np.flatnonzero(base)

    chunks = []
    for seg_lo in range(lo, hi + 1, _SEGMENT):
        seg_hi = min(seg_lo + _SEGMENT - 1, hi)
        mask = np.ones(seg_hi - seg_lo + 1, dtype=bool)
        for p in base_primes:
            p = int(p)
            start = max(p * p, ((seg_lo + p - 1) // p) * p)
            if start > seg_hi:
                continue
            mask[start - seg_lo::p] = False
        chunks.append(np.flatnonzero(mask).astype(np.int64) + seg_lo)
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def _is_ps_mp(p: int, gamma: float) -> bool:
    import mpmath  # call time: escalations are rare, the import is not cheap

    with mpmath.workdps(MP_DPS):
        g = mpmath.mpf(gamma)
        lo = mpmath.power(p, g)
        hi = mpmath.power(p + 1, g)
        return mpmath.ceil(lo) < hi


def is_ps_prime(p: int, gamma: float) -> tuple[bool, str]:
    """(membership, certainty) where certainty is "guarded" or "escalated".

    "guarded": the double-precision decision stood clear of integer boundaries
    and the floor cross-check agreed. "escalated": the 50-digit path decided.
    gamma is taken as checked (check_gamma): a table filter calls this once
    per candidate.
    """
    g = float(gamma)
    lo = float(p) ** g
    hi = float(p + 1) ** g
    near = min(abs(lo - round(lo)), abs(hi - round(hi)))
    if near < _GUARD:
        return _is_ps_mp(p, g), "escalated"
    n = math.ceil(lo)
    member = n < hi
    if member and math.floor(n ** (1.0 / g)) != p:
        # inconsistent float views of the same interval; let precision decide
        return _is_ps_mp(p, g), "escalated"
    return member, "guarded"


class PsPrimeTable(Record):
    """PS primes p with lambda0*x_max < p^k <= x_max and weights p^(1-gamma)*log p."""

    __slots__ = ("gamma", "x_max", "lambda0", "k", "primes", "weights")

    def __init__(self, gamma: float, x_max: float, lambda0: float, k: int,
                 primes: np.ndarray, weights: np.ndarray):
        self._set(gamma, x_max, lambda0, k, primes, weights)

    def __len__(self) -> int:
        return len(self.primes)

    @property
    def density_ratio(self) -> float:
        """count / (T^gamma / log T) at T = x_max^(1/k), the plain counting
        normalizer; a diagnostic, not an asserted asymptotic."""
        top = self.x_max ** (1.0 / self.k)
        return len(self) / (top ** self.gamma / math.log(top)) if top > 1 else 0.0


def window_bounds(x_max: float, lambda0: float, k: int) -> tuple[int, int]:
    """Integer bounds (lo, hi) with lambda0*x_max < n^k <= x_max iff lo <= n <= hi."""
    hi = int(x_max ** (1.0 / k))
    while (hi + 1) ** k <= x_max:
        hi += 1
    while hi >= 1 and hi ** k > x_max:
        hi -= 1
    cut = lambda0 * x_max
    lo = int(cut ** (1.0 / k)) if cut > 0 else 0
    while lo ** k > cut:
        lo -= 1
    while (lo + 1) ** k <= cut:
        lo += 1
    return lo + 1, hi


def check_power_window(k: int, lambda0: float) -> int:
    """The one check of a window's power k, an integer key of
    THEOREM_TRIPLES, and fraction lambda0; returns k as an int."""
    # 2.0 == 2 would pass the key test alone
    if not isinstance(k, (int, np.integer)) or k not in THEOREM_TRIPLES:
        raise ValueError(f"k must be 2, 3 or 4, got {k}")
    if not (0.0 < lambda0 < 1.0):
        raise ValueError(f"lambda0 must be in (0,1), got {lambda0}")
    return int(k)


def check_window(gamma: float, x_max: float, lambda0: float,
                 k: int) -> tuple[float, int]:
    """(gamma, k) as a float and an int, once they, x_max and lambda0 pass a
    table's checks."""
    gamma = check_gamma(gamma)
    k = check_power_window(k, lambda0)
    if x_max < 4:
        raise ValueError(f"x_max must be >= 4, got {x_max}")
    return gamma, k


def build_table(gamma: float, x_max: float, lambda0: float, k: int) -> PsPrimeTable:
    """Sieve the window, filter PS membership, attach weights."""
    gamma, k = check_window(gamma, x_max, lambda0, k)
    candidates = sieve_primes(*window_bounds(x_max, lambda0, k))
    return window_table(gamma, x_max, lambda0, k, candidates)


def window_table(gamma: float, x_max: float, lambda0: float, k: int,
                 candidates: np.ndarray) -> PsPrimeTable:
    """build_table's table from the primes of its window, already sieved;
    gamma and k as check_window returns them."""
    keep = [int(p) for p in candidates if is_ps_prime(int(p), gamma)[0]]
    primes = np.asarray(keep, dtype=np.int64)
    return PsPrimeTable(gamma=gamma, x_max=float(x_max), lambda0=float(lambda0),
                        k=k, primes=primes, weights=prime_weights(primes, gamma))


def prime_weights(primes: np.ndarray, gamma: float) -> np.ndarray:
    """The weights p^(1-gamma)*log p of the primes, in NumPy: the one rule
    for a prime's weight. A table holds them, and every count that weights a
    prime gathers it from there."""
    pf = primes.astype(np.float64)
    return pf ** (1.0 - gamma) * np.log(pf)


def ps_prime_count(limit: int, gamma: float) -> int:
    """#{PS primes <= limit}; the density diagnostic's left side."""
    gamma = check_gamma(gamma)
    primes = sieve_primes(2, limit)
    return sum(1 for p in primes if is_ps_prime(int(p), gamma)[0])


def export_table(table: PsPrimeTable, path: str) -> int:
    """CSV dump, header p,weight, 17-significant-digit weights; returns bytes."""
    return atomic_write_text(path, csv_blocks("p,weight", [table.primes, table.weights]))
