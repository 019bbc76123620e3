"""Meet-in-the-middle search for near-zero prime quintuples.

Target form: lambda1*p1^2 + ... + lambda4*p4^2 + lambda5*p5^k + eta, all p_j
PS primes drawn from per-slot tables. Left half holds the sorted pair sums
over (p1, p2); the right half (p3, p4, p5) is streamed one p5 at a time as a
constant shift of the sorted (p3, p4) array, so interval queries against the
left half are plain binary searches, made only for the shifted sums whose
band can meet the left range.

Floats locate candidates inside a guard band; every candidate is then
certified in scaled integers (exact): the float coefficients, eta and the
radius are dyadic rationals, so one power of two turns each into an integer.
Membership in |value| < radius is decided exactly and the returned ordering
is reproducible bit for bit across thread counts.
"""

from __future__ import annotations

import bisect
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._io import atomic_write_text, csv_text, fmt17
from .errors import CapacityExceeded, EmptyWindow, SpecMismatch
from .ps_primes import PsPrimeTable

# hard ceiling on certified candidates per search, independent of the
# caller's memory budget
_MAX_HITS = 10 ** 7
# right sums a scan step searches at once: bounds the scan's temporaries
_SCAN_BLOCK = 1 << 13


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


def _scaled_form(inst, radius: float):
    """(value, bound, S): value(p) = S * form value and bound = S * radius,
    both exact integers, with S the largest power-of-two denominator of the
    lambdas, eta and radius. |value(p)| < bound iff |form value| < radius,
    and value(p) / S is the form value rounded once to a float."""
    ratios = [x.as_integer_ratio() for x in (*inst.lambdas, inst.eta, radius)]
    scale = max(d for _, d in ratios)
    *lams, eta, bound = [num * (scale // d) for num, d in ratios]
    powers = inst.powers

    def value(p: tuple[int, ...]) -> int:
        return eta + sum(lam * pj ** kj for lam, pj, kj in zip(lams, p, powers))

    return value, bound, scale


def _finalize(inst, hits, radius: float, limit: int) -> list[QuintetSolution]:
    """Certify candidates exactly, order (|value| asc, lex p), truncate."""
    value, bound, scale = _scaled_form(inst, radius)
    kept = sorted((abs(v), p, v) for p in hits if abs(v := value(p)) < bound)
    g = inst.gamma.gamma
    exp = inst.radius_exponent
    out = []
    for _, p, v in kept[:limit]:
        max_p = max(p)
        weight = math.prod(pj ** (1.0 - g) * math.log(pj) for pj in p)
        val = v / scale
        meets = abs(val) < float(max_p) ** exp
        out.append(QuintetSolution(p=p, value=val, weight=weight,
                                   max_p=max_p, meets_theorem_radius=meets))
    return out


def _scan(left: np.ndarray, right: np.ndarray, shift: float, band: float):
    """Index pairs (j, m), j then m ascending, with r = right[j] + shift and
    m from searchsorted(left, -r - band, "left") up to, not including,
    searchsorted(left, -r + band, "right"); yielded as arrays (j, m), one
    pair per block of _SCAN_BLOCK right sums."""
    # both band edges fall as j rises, so the j whose band can meet the left
    # range form one run [j0, j1); each of them takes one binary search, and
    # a second one if its band holds a left sum
    n, bottom, top = len(right), left[0], left[-1]
    j0 = bisect.bisect_left(range(n), True,
                            key=lambda j: -(right[j] + shift) - band <= top)
    j1 = bisect.bisect_left(range(n), True, lo=j0,
                            key=lambda j: -(right[j] + shift) + band < bottom)
    for a in range(j0, j1, _SCAN_BLOCK):
        r = right[a:min(a + _SCAN_BLOCK, j1)] + shift
        lo = np.searchsorted(left, -r - band, side="left")
        up = -r + band
        hit = np.flatnonzero(left[lo] <= up)
        lo = lo[hit]
        count = np.searchsorted(left, up[hit], side="right") - lo
        # the m of a hit j run from its lo through lo + count - 1
        start = np.cumsum(count) - count
        yield (np.repeat(hit + a, count),
               np.arange(int(count.sum())) + np.repeat(lo - start, count))


def _search_bytes(n, threads: int, hits: int = 0) -> int:
    """Peak memory of search_mitm over tables of sizes n that finds `hits`
    candidates. 16 B a stored pair (sum and index) throughout, and the
    largest of three phases. Building the right half: 8 B a right pair (its
    unsorted sums and sort order beside the sorted ones). Scanning: 32 B a
    right sum of a scan block per scanning thread, plus the larger of 1.7 kB
    a queued p5 task (all queued at the start) and 250 B a candidate (its
    tuple of five ints; all found at the end). Certifying: 530 B a candidate
    (its tuple, scaled value, sort record and QuintetSolution)."""
    right = n[2] * n[3]
    scan = (32 * min(right, _SCAN_BLOCK) * min(threads, n[4])
            + max(1700 * n[4], 250 * hits))
    return 16 * (n[0] * n[1] + right) + max(8 * right, scan, 530 * hits)


def search_mitm(inst, tables, radius: float, limit: int = 1000, *,
                threads: int = 1, memory_mb: float = 2048.0,
                deadline=None) -> list[QuintetSolution]:
    """All quintuples with |form value| < radius, best (smallest) first.

    tables: five per-slot PS prime tables (slots 1-4 squared, slot 5 to the
    instance exponent). Returns at most `limit` solutions. The memory budget
    is checked before the pair build and again, with the candidates found so
    far, as each p5 block of them arrives. deadline, if given, is called
    before each p5 block and may raise to abandon the search.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if limit <= 0:
        raise ValueError(f"limit must be positive, got {limit}")
    tables = _check_tables(inst, tables)
    n = [len(t) for t in tables]

    def check_memory(hits: int) -> None:
        need = _search_bytes(n, threads, hits)
        if need > memory_mb * 2 ** 20:
            raise CapacityExceeded(
                f"pair arrays, scan and {hits} candidates need "
                f"~{need / 2 ** 20:.0f} MiB, budget is {memory_mb:.0f} MiB")

    check_memory(0)

    l1, l2, l3, l4, l5 = inst.lambdas
    left = HalfSumArray.build(l1, tables[0], l2, tables[1])
    right34 = HalfSumArray.build(l3, tables[2], l4, tables[3])
    pr1, pr2, pr3, pr4, p5s = (t.primes for t in tables)
    band = radius + _guard(inst, tables, radius)

    def scan_one(i5: int) -> list[tuple[int, int, int, int, int]]:
        if deadline is not None:
            deadline()
        p5 = int(p5s[i5])
        out = []
        for j, m in _scan(left.sums, right34.sums,
                          l5 * float(p5) ** inst.k + inst.eta, band):
            i1, i2 = np.divmod(left.index[m], left.n_b)
            i3, i4 = np.divmod(right34.index[j], right34.n_b)
            out += zip(pr1[i1].tolist(), pr2[i2].tolist(), pr3[i3].tolist(),
                       pr4[i4].tolist(), [p5] * len(j))
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
            check_memory(len(hits))
    return _finalize(inst, hits, radius, limit)


def within_radius(inst, sols, radius: float) -> list[QuintetSolution]:
    """The solutions with exact |value| < radius, from a search result.

    sols is ordered as search_mitm returns it (exact |value| ascending), so
    the kept solutions are a prefix, found by bisection on exact values.
    """
    value, bound, _ = _scaled_form(inst, radius)
    cut = bisect.bisect_left(sols, True, key=lambda s: abs(value(s.p)) >= bound)
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
