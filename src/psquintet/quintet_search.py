"""Meet-in-the-middle search for near-zero prime quintuples.

Target form: lambda1*p1^2 + ... + lambda4*p4^2 + lambda5*p5^k + eta, all p_j
PS primes drawn from per-slot tables. Left half holds the sorted pair sums
over (p1, p2); the right half (p3, p4, p5) is streamed one p5 at a time as a
constant shift of the sorted (p3, p4) array, so interval queries against the
left half are plain binary searches, made only for the shifted sums whose
band can meet the left range. Before its binary search, each such key looks
up one byte of a map of power-of-two cells that hold a left sum or lie just
below one; a clear cell proves the key's band holds no left sum, which skips
the search for about four keys in five.

Floats locate candidates inside a guard band; every candidate is then
certified in scaled integers (exact): the float coefficients, eta and the
radius are dyadic rationals, so one power of two turns each into an integer,
and each quintuple's value is eta plus five lookups in per-slot tables of
its scaled terms, keyed by prime.
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
_SCAN_BLOCK = 1 << 15
# the scan's cell map has at most this many cells a left sum (plus two)
_MAP_CELLS = 16


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
    """(values, bound, S): values(hits) is S times the form value of each
    quintuple and bound = S * radius, all exact integers, with S the largest
    power-of-two denominator of the lambdas, eta and radius. |value| < bound
    iff |form value| < radius, and value / S is the form value rounded once
    to a float."""
    ratios = [x.as_integer_ratio() for x in (*inst.lambdas, inst.eta, radius)]
    scale = max(d for _, d in ratios)
    *lams, eta, bound = [num * (scale // d) for num, d in ratios]

    def values(hits) -> list[int]:
        # eta plus five lookups in per-slot tables of lam_j * p^k_j by prime
        cols = list(zip(*hits)) or [()] * 5
        t1, t2, t3, t4, t5 = ({p: lam * p ** k for p in set(col)}
                              for lam, k, col in zip(lams, inst.powers, cols))
        return [eta + t1[a] + t2[b] + t3[c] + t4[d] + t5[e]
                for a, b, c, d, e in hits]

    return values, bound, scale


def _finalize(inst, hits, radius: float) -> list[QuintetSolution]:
    """Certify candidates exactly, order (|value| asc, lex p)."""
    values, bound, scale = _scaled_form(inst, radius)
    kept = sorted((abs(v), p, v) for p, v in zip(hits, values(hits))
                  if abs(v) < bound)
    g = inst.gamma.gamma
    factor = {pj: pj ** (1.0 - g) * math.log(pj)
              for pj in set().union(*(p for _, p, _ in kept))}
    exp = inst.radius_exponent
    out = []
    for _, p, v in kept:
        max_p = max(p)
        weight = math.prod(map(factor.__getitem__, p))
        val = v / scale
        meets = abs(val) < float(max_p) ** exp
        out.append(QuintetSolution(p=p, value=val, weight=weight,
                                   max_p=max_p, meets_theorem_radius=meets))
    return out


@dataclass(frozen=True)
class _CellMap:
    """Which cells [c*w, (c+1)*w), w = 1/scale a power of two, hold a left
    sum or lie just below one: occupied[c - base] for cell c."""

    occupied: np.ndarray
    scale: float
    base: int

    def marked(self, x: np.ndarray) -> np.ndarray:
        """Whether the cell floor(x * scale) of each x is marked; x is
        overwritten."""
        x *= self.scale
        cell = np.floor(x, out=x).astype(np.intp)
        cell -= self.base
        return self.occupied[cell]


def _cell_map(left: np.ndarray, band: float) -> _CellMap:
    """The occupancy map of the sorted left sums for keys of half-width band.

    The cell width w is the smallest power of two at least 4*band, at least
    span/(_MAP_CELLS*n), so that the map has at most _MAP_CELLS cells a left
    sum (plus two), and at least 8 spacings s of the largest magnitude a key
    edge of the scan can reach, so that a key's rounded band edges lie at
    most 2*band + 2*s <= 3w/4 apart."""
    reach = max(abs(left[0]), abs(left[-1])) + 2 * band
    width = max(4 * band, 8 * float(np.spacing(reach)),
                (left[-1] - left[0]) / (_MAP_CELLS * len(left)))
    frac, e = math.frexp(width)
    scale = math.ldexp(1.0, 1 - e if frac == 0.5 else -e)
    base = math.floor(left[0] * scale) - 1
    occupied = np.zeros(math.floor(left[-1] * scale) - base + 1, dtype=bool)
    for s in range(0, len(left), _SCAN_BLOCK):
        cell = np.floor(left[s:s + _SCAN_BLOCK] * scale).astype(np.intp) - base
        occupied[cell] = True
        occupied[cell - 1] = True
    return _CellMap(occupied, scale, base)


def _scan(left: np.ndarray, right: np.ndarray, shift: float, band: float,
          cells: _CellMap):
    """Index pairs (j, m), j then m ascending, with r = right[j] + shift and
    m from searchsorted(left, -r - band, "left") up to, not including,
    searchsorted(left, -r + band, "right"); yielded as arrays (j, m), one
    pair per block of _SCAN_BLOCK right sums. cells is _cell_map(left, band)."""
    # both band edges fall as j rises, so the j whose band can meet the left
    # range form one run [j0, j1)
    n, bottom, top = len(right), left[0], left[-1]
    j0 = bisect.bisect_left(range(n), True,
                            key=lambda j: -(right[j] + shift) - band <= top)
    j1 = bisect.bisect_left(range(n), True, lo=j0,
                            key=lambda j: -(right[j] + shift) + band < bottom)
    for s in range(j0, j1, _SCAN_BLOCK):
        yield _scan_block(left, right, s, min(s + _SCAN_BLOCK, j1), shift,
                          band, cells)


def _scan_block(left, right, s: int, e: int, shift: float, band: float,
                cells: _CellMap):
    """_scan's (j, m) for the j in [s, e), all in its run. Each j takes one
    look at the cell map, the survivors one binary search, and a second one
    if their band holds a left sum. A function of its own, so that a block's
    temporaries are freed before the next block allocates its own."""
    # the filter is exact. x -> floor(x * scale) is monotone (the scaling by
    # a power of two is exact), so a left sum x in [low, up] has its cell
    # between those of low and up; up - low < w (see _cell_map) puts them at
    # most one cell apart, and x marks its own cell and the one below it, so
    # the cell of low is marked. A key whose cell is clear holds no left sum in its band
    # and is skipped without a binary search. Keys of the run have low <= top
    # and up >= bottom, so their cell lies between base and the top cell:
    # the index is inside the map.
    keep = np.flatnonzero(cells.marked(-(right[s:e] + shift) - band))
    keep += s
    r = right[keep] + shift
    low, up = -r - band, -r + band
    lo = np.searchsorted(left, low, side="left")
    hit = np.flatnonzero(left[lo] <= up)
    lo = lo[hit]
    count = np.searchsorted(left, up[hit], side="right") - lo
    # the m of a hit j run from its lo through lo + count - 1
    start = np.cumsum(count) - count
    return (np.repeat(keep[hit], count),
            np.arange(int(count.sum())) + np.repeat(lo - start, count))


def _search_bytes(n, threads: int, hits: int = 0) -> int:
    """Peak memory of search_mitm over tables of sizes n that finds `hits`
    candidates: the larger of scanning and certifying, which runs after the
    scan has freed its arrays. Scanning: 16 B a stored pair (sum and index)
    throughout, and the larger of two phases. Building the right half: 8 B a
    right pair (its unsorted sums and sort order beside the sorted ones).
    Then the cell map, 10 B a left pair (one byte a cell, between
    _MAP_CELLS / 2 and _MAP_CELLS cells a pair), beside 12 B a right sum of a
    scan block per scanning thread (17 B at a block's peak, which the threads
    do not all reach at once), plus the larger of 1.7 kB a queued p5 task (all
    queued at the start) and 250 B a candidate (its tuple of five ints; all
    found at the end). Certifying: 500 B a candidate (its tuple, scaled
    value, sort record and QuintetSolution)."""
    left, right = n[0] * n[1], n[2] * n[3]
    scan = (12 * min(right, _SCAN_BLOCK) * min(threads, n[4])
            + max(1700 * n[4], 250 * hits))
    return max(16 * (left + right) + max(8 * right, 10 * left + scan),
               500 * hits)


def search_mitm(inst, tables, radius: float, *, threads: int = 1,
                memory_mb: float = 2048.0, deadline=None) -> list[QuintetSolution]:
    """All quintuples with |form value| < radius, best (smallest) first.

    tables: five per-slot PS prime tables (slots 1-4 squared, slot 5 to the
    instance exponent). Returns every solution: past _MAX_HITS candidates
    it raises CapacityExceeded instead of a partial list. The memory budget
    is checked before the pair build and again, with the candidates found so
    far, as each p5 block of them arrives. deadline, if given, is called
    before each p5 block and may raise to abandon the search.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    tables = _check_tables(inst, tables)
    n = [len(t) for t in tables]

    def check_memory(hits: int) -> None:
        need = _search_bytes(n, threads, hits)
        if need > memory_mb * 2 ** 20:
            raise CapacityExceeded(
                f"pair arrays, scan and {hits} candidates need "
                f"~{need / 2 ** 20:.0f} MiB, budget is {memory_mb:.0f} MiB")

    check_memory(0)
    band = radius + _guard(inst, tables, radius)
    hits = _candidates(inst, tables, band, threads, check_memory, deadline)
    return _finalize(inst, hits, radius)


def _candidates(inst, tables, band: float, threads: int, check_memory,
                deadline) -> list[tuple[int, int, int, int, int]]:
    """search_mitm's quintuples whose float value lies within band of zero,
    in p5 order. A function of its own, so that the pair arrays and the cell
    map are freed before certification."""
    l1, l2, l3, l4, l5 = inst.lambdas
    left = HalfSumArray.build(l1, tables[0], l2, tables[1])
    right34 = HalfSumArray.build(l3, tables[2], l4, tables[3])
    pr1, pr2, pr3, pr4, p5s = (t.primes for t in tables)
    cells = _cell_map(left.sums, band)  # read-only, shared by the threads

    def scan_one(i5: int) -> list[tuple[int, int, int, int, int]]:
        if deadline is not None:
            deadline()
        p5 = int(p5s[i5])
        out = []
        for j, m in _scan(left.sums, right34.sums,
                          l5 * float(p5) ** inst.k + inst.eta, band, cells):
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
    return hits


def within_radius(inst, sols, radius: float) -> list[QuintetSolution]:
    """The solutions with exact |value| < radius, from a search result.

    sols is ordered as search_mitm returns it (exact |value| ascending), so
    the kept solutions are a prefix, found by bisection on exact values.
    """
    values, bound, _ = _scaled_form(inst, radius)
    cut = bisect.bisect_left(sols, True,
                             key=lambda s: abs(values([s.p])[0]) >= bound)
    return list(sols[:cut])


def brute_oracle(inst, tables, radius: float) -> list[QuintetSolution]:
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
    return _finalize(inst, hits, radius)


def export_solutions(path: str, sols) -> int:
    """CSV p1..p5,value,max_p,meets_theorem_radius; row order preserved."""
    rows = ([*s.p, fmt17(s.value), s.max_p,
             "true" if s.meets_theorem_radius else "false"] for s in sols)
    return atomic_write_text(path, csv_text(
        ["p1", "p2", "p3", "p4", "p5", "value", "max_p", "meets_theorem_radius"],
        rows))
