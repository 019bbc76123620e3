"""Meet-in-the-middle search for near-zero prime quintuples.

Target form: lambda1*p1^2 + ... + lambda4*p4^2 + lambda5*p5^k + eta, all p_j
PS primes drawn from per-slot tables. Left half holds the sorted pair sums
over (p1, p2); the right half (p3, p4, p5) is streamed one p5 at a time as a
constant shift of the sorted (p3, p4) array, so interval queries against the
left half are plain binary searches.

Floats locate candidates inside a guard band; every candidate is then
certified with exact rational arithmetic (the float coefficients are exact
dyadic rationals), so membership in |value| < radius is decided exactly and
the returned ordering is reproducible bit for bit across thread counts.
"""

from __future__ import annotations

import bisect
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._io import atomic_write_text, csv_text, fmt17
from .errors import CapacityExceeded, EmptyWindow, SpecMismatch
from .ps_primes import PsPrimeTable

# hard ceiling on certified candidates per search, independent of the
# caller's memory budget
_MAX_HITS = 10 ** 7


@dataclass(frozen=True)
class QuintetSolution:
    p: tuple[int, int, int, int, int]
    value: float
    weight: float
    max_p: int
    meets_theorem_radius: bool


@dataclass(frozen=True)
class HalfSumArray:
    """Sorted pair sums a_i + b_j, each with its flat index i*n_b + j."""

    sums: np.ndarray
    index: np.ndarray
    n_b: int

    def __post_init__(self):
        if len(self.sums) != len(self.index):
            raise ValueError("sums and index length mismatch")

    @classmethod
    def build(cls, lam_a: float, tab_a: PsPrimeTable,
              lam_b: float, tab_b: PsPrimeTable) -> "HalfSumArray":
        a = lam_a * tab_a.primes.astype(np.float64) ** 2
        b = lam_b * tab_b.primes.astype(np.float64) ** 2
        sums = (a[:, None] + b[None, :]).ravel()
        order = np.argsort(sums, kind="stable")
        return cls(sums=sums[order], index=order, n_b=len(b))


def _check_tables(inst, tables) -> list[PsPrimeTable]:
    tables = list(tables)
    if len(tables) != 5:
        raise SpecMismatch(f"need 5 prime tables, got {len(tables)}")
    for j, (tab, want_k) in enumerate(zip(tables, inst.powers)):
        if not isinstance(tab, PsPrimeTable):
            raise SpecMismatch(f"slot {j + 1} is not a prime table")
        if tab.k != want_k:
            raise SpecMismatch(f"slot {j + 1} table built for exponent "
                               f"{tab.k}, instance needs {want_k}")
        if tab.gamma.gamma != inst.gamma.gamma:
            raise SpecMismatch(f"slot {j + 1} table gamma {tab.gamma.gamma} "
                               f"!= instance gamma {inst.gamma.gamma}")
        if len(tab) == 0:
            raise EmptyWindow(f"slot {j + 1} prime window is empty")
    return tables


def _guard(inst, tables, radius: float) -> float:
    span = sum(abs(l) * t.x_max for l, t in zip(inst.lambdas, tables))
    return 1e-6 * radius + 32.0 * np.finfo(float).eps * (span + abs(inst.eta))


def _exact_value(inst, p: tuple[int, ...]) -> Fraction:
    acc = Fraction(inst.eta)
    for lam, pj, kj in zip(inst.lambdas, p, inst.powers):
        acc += Fraction(lam) * pj ** kj
    return acc


def _finalize(inst, hits, radius: float, limit: int) -> list[QuintetSolution]:
    """Certify candidates exactly, order (|value| asc, lex p), truncate."""
    rad = Fraction(radius)
    kept = []
    for p in hits:
        v = _exact_value(inst, p)
        if abs(v) < rad:
            kept.append((abs(v), p, v))
    kept.sort(key=lambda rec: (rec[0], rec[1]))
    g = inst.gamma.gamma
    exp = inst.radius_exponent
    out = []
    for _, p, v in kept[:limit]:
        max_p = max(p)
        weight = math.prod(pj ** (1.0 - g) * math.log(pj) for pj in p)
        meets = abs(float(v)) < float(max_p) ** exp
        out.append(QuintetSolution(p=p, value=float(v), weight=weight,
                                   max_p=max_p, meets_theorem_radius=meets))
    return out


def _search_bytes(n, threads: int) -> int:
    """Peak memory of search_mitm over tables of sizes n, hits aside: 16 B a
    stored pair (sum and index), 32 B a right pair per scanning thread (the
    shifted sums and both searchsorted results), 1.7 kB a queued p5 task."""
    right = n[2] * n[3]
    return (16 * (n[0] * n[1] + right) + 32 * right * min(threads, n[4])
            + 1700 * n[4])


def search_mitm(inst, tables, radius: float, limit: int = 1000, *,
                threads: int = 1, memory_mb: float = 2048.0) -> list[QuintetSolution]:
    """All quintuples with |form value| < radius, best (smallest) first.

    tables: five per-slot PS prime tables (slots 1-4 squared, slot 5 to the
    instance exponent). Returns at most `limit` solutions.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if limit <= 0:
        raise ValueError(f"limit must be positive, got {limit}")
    tables = _check_tables(inst, tables)
    n = [len(t) for t in tables]
    est_bytes = _search_bytes(n, threads)
    if est_bytes > memory_mb * 2 ** 20:
        raise CapacityExceeded(
            f"pair arrays and scan need ~{est_bytes / 2 ** 20:.0f} MiB, "
            f"budget is {memory_mb:.0f} MiB")

    l1, l2, l3, l4, l5 = inst.lambdas
    left = HalfSumArray.build(l1, tables[0], l2, tables[1])
    right34 = HalfSumArray.build(l3, tables[2], l4, tables[3])
    pr1, pr2, pr3, pr4, p5s = (t.primes for t in tables)
    band = radius + _guard(inst, tables, radius)

    def scan_one(i5: int) -> list[tuple[int, int, int, int, int]]:
        p5 = int(p5s[i5])
        r = right34.sums + (l5 * float(p5) ** inst.k + inst.eta)
        lo = np.searchsorted(left.sums, -r - band, side="left")
        hi = np.searchsorted(left.sums, -r + band, side="right")
        out = []
        for j in np.flatnonzero(hi > lo):
            i3, i4 = divmod(int(right34.index[j]), right34.n_b)
            for m in range(lo[j], hi[j]):
                i1, i2 = divmod(int(left.index[m]), left.n_b)
                out.append((int(pr1[i1]), int(pr2[i2]),
                            int(pr3[i3]), int(pr4[i4]), p5))
        return out

    hits = []
    with ThreadPoolExecutor(max_workers=threads) as ex:
        # blocks arrive in p5 order; leaving the loop early closes the map,
        # which cancels the p5 blocks still queued
        for block in ex.map(scan_one, range(len(p5s))):
            hits.extend(block)
            if len(hits) > _MAX_HITS:
                raise CapacityExceeded(f"{len(hits)} candidates exceed the "
                                       f"{_MAX_HITS} certification ceiling")
    return _finalize(inst, hits, radius, limit)


def within_radius(inst, sols, radius: float) -> list[QuintetSolution]:
    """The solutions with exact |value| < radius, from a search result.

    sols is ordered as search_mitm returns it (exact |value| ascending), so
    the kept solutions are a prefix, found by bisection on exact values.
    """
    rad = Fraction(radius)
    cut = bisect.bisect_left(sols, True,
                             key=lambda s: abs(_exact_value(inst, s.p)) >= rad)
    return list(sols[:cut])


def brute_oracle(inst, tables, radius: float, limit: int = 10 ** 8) -> list[QuintetSolution]:
    """Exhaustive five-loop enumeration with the same ordering contract."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    tables = _check_tables(inst, tables)
    n = [len(t) for t in tables]
    if math.prod(n) > 10 ** 8:
        raise CapacityExceeded(f"brute force over {math.prod(n)} tuples "
                               "refused (cap 1e8)")
    l1, l2, l3, l4, l5 = inst.lambdas
    sq = [t.primes.astype(np.float64) ** 2 for t in tables[:4]]
    v4 = (l1 * sq[0][:, None, None, None] + l2 * sq[1][None, :, None, None]
          + l3 * sq[2][None, None, :, None] + l4 * sq[3][None, None, None, :])
    band = radius + _guard(inst, tables, radius)
    hits = []
    for p5 in tables[4].primes:
        vals = v4 + (l5 * float(p5) ** inst.k + inst.eta)
        for i1, i2, i3, i4 in np.argwhere(np.abs(vals) < band):
            hits.append((int(tables[0].primes[i1]), int(tables[1].primes[i2]),
                         int(tables[2].primes[i3]), int(tables[3].primes[i4]),
                         int(p5)))
    return _finalize(inst, hits, radius, limit)


def export_solutions(path: str, sols) -> int:
    """CSV p1..p5,value,max_p,meets_theorem_radius; row order preserved."""
    rows = ([*s.p, fmt17(s.value), s.max_p,
             "true" if s.meets_theorem_radius else "false"] for s in sols)
    return atomic_write_text(path, csv_text(
        ["p1", "p2", "p3", "p4", "p5", "value", "max_p", "meets_theorem_radius"],
        rows))
