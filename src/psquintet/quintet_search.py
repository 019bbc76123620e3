"""Meet-in-the-middle search for near-zero prime quintuples.

Target form: lambda1*p1^2 + ... + lambda4*p4^2 + lambda5*p5^k + eta, all p_j
PS primes drawn from per-slot tables. Left half holds the sorted pair sums
over (p1, p2); the right half (p3, p4, p5) is streamed one p5 at a time as a
constant shift of the sorted (p3, p4) array, so interval queries against the
left half are plain binary searches, made only for the shifted sums whose
band can meet the left range. Before its binary search, each such key looks
up one byte of a map of power-of-two cells near a left sum, at its own cell
index (taken once a search) plus one integer offset a p5; a clear cell
proves the key's band holds no left sum, which skips the search for about
nine keys in ten.

Floats locate candidates inside a guard band; the candidates, an (n, 5)
integer array of primes, are then certified in scaled integers (exact): the
float coefficients, eta and the radius are dyadic rationals, so one power of
two turns each into an integer, and each quintuple's value is eta plus five
gathers from per-slot tables of its scaled terms over the slot's distinct
primes. Membership in |value| < radius is decided exactly and the returned
ordering is reproducible bit for bit across thread counts.
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
# right sums a scan step searches at once: bounds the scan's temporaries;
# fewer, larger steps hold the interpreter lock less (2^17 scans the
# search-desk tables faster on two threads than 2^15 or 2^16)
_SCAN_BLOCK = 1 << 17
# the scan's cell map has at most this many cells a left sum (plus six)
_MAP_CELLS = 64
# solutions.csv rows formatted at a time: bounds the export's row objects
_CSV_ROWS = 1 << 12


@dataclass(frozen=True, eq=False)
class QuintetSolutions:
    """Certified quintuples as columns, row i being one quintuple: p (n x 5
    primes), value, weight, max_p and meets_theorem_radius. len() counts the
    rows; a slice of rows is again a QuintetSolutions."""

    p: np.ndarray
    value: np.ndarray
    weight: np.ndarray
    max_p: np.ndarray
    meets_theorem_radius: np.ndarray

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, rows: slice) -> "QuintetSolutions":
        return QuintetSolutions(self.p[rows], self.value[rows], self.weight[rows],
                                self.max_p[rows], self.meets_theorem_radius[rows])


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
    row of hits (an (n, 5) array of primes), as an object array of Python
    ints, and bound = S * radius, with S the largest power-of-two
    denominator of the lambdas, eta and radius. |value| < bound iff |form
    value| < radius, and value / S is the form value rounded once to a
    float."""
    ratios = [x.as_integer_ratio() for x in (*inst.lambdas, inst.eta, radius)]
    scale = max(d for _, d in ratios)
    *lams, eta, bound = [num * (scale // d) for num, d in ratios]

    def values(hits: np.ndarray) -> np.ndarray:
        # eta plus, per slot, a gather from a table of lam_j * p^k_j over
        # the slot's distinct primes
        total = eta
        for col, lam, k in zip(hits.T, lams, inst.powers):
            primes, at = np.unique(col, return_inverse=True)
            terms = np.array([lam * p ** k for p in primes.tolist()], dtype=object)
            total = total + terms[at]
        return total

    return values, bound, scale


def _finalize(inst, hits: np.ndarray, radius: float) -> QuintetSolutions:
    """Certify the candidate rows exactly, order (|value| asc, lex p)."""
    values, bound, scale = _scaled_form(inst, radius)
    v = values(hits)
    mag = np.abs(v)
    keep = np.flatnonzero(mag < bound)
    p, v, mag = hits[keep], v[keep], mag[keep]
    # p lexicographic, then a stable sort on the exact |value|: the order of
    # sorted((|value|, p))
    order = np.lexsort(p.T[::-1])
    order = order[np.argsort(mag[order], kind="stable")]
    p, v = p[order], v[order]
    value = (v / scale).astype(np.float64)   # int / int: rounded once
    # Python's ** and math.log per distinct prime, multiplied in slot order:
    # the weights do not depend on a vector libm's last bits
    g = inst.gamma.gamma
    primes, at = np.unique(p, return_inverse=True)
    factor = np.array([q ** (1.0 - g) * math.log(q) for q in primes.tolist()])
    f = factor[at.reshape(p.shape)]
    weight = f[:, 0] * f[:, 1] * f[:, 2] * f[:, 3] * f[:, 4]
    max_p = p.max(axis=1)
    tops, at = np.unique(max_p, return_inverse=True)
    limit = np.array([float(t) ** inst.radius_exponent for t in tops.tolist()])
    return QuintetSolutions(p=p, value=value, weight=weight, max_p=max_p,
                            meets_theorem_radius=np.abs(value) < limit[at])


@dataclass(frozen=True)
class _CellMap:
    """Which cells [c*w, (c+1)*w), w = 1/scale a power of two, lie from two
    cells below a left sum's cell to one above it: occupied[c - base] for
    cell c."""

    occupied: np.ndarray
    scale: float
    base: int

    def cell_of(self, x: np.ndarray) -> np.ndarray:
        """The cell floor(x * scale) of each x, exact; x is overwritten."""
        x *= self.scale
        return np.floor(x, out=x).astype(np.intp)

    def offset(self, shift: float, band: float) -> int:
        """o for a scan at shift: the key of right sum y looks up
        occupied[cell_of(-y) + o]."""
        return math.floor((-shift - band) * self.scale) - self.base


def _cell_map(left: np.ndarray, right: np.ndarray, shifts, band: float) -> _CellMap:
    """The occupancy map of the sorted left sums for keys of half-width band,
    for scans of the sorted right sums at the given shifts.

    The cell width w is the smallest power of two at least 4*band, at least
    span/(_MAP_CELLS*n), so that the map has at most _MAP_CELLS cells a left
    sum (plus six), and at least 8 spacings s of the largest magnitude M a
    sum, shift or key edge of the scans can reach, so that each rounding a
    key's lookup meets is at most s/2 <= w/16 (see _scan_block) and each
    cell index, below M/w < 2^50 in size, is an exact int64."""
    reach = max(abs(left[0]), abs(left[-1]), abs(right[0]), abs(right[-1]),
                *map(abs, shifts)) + 2 * band
    width = max(4 * band, 8 * float(np.spacing(reach)),
                (left[-1] - left[0]) / (_MAP_CELLS * len(left)))
    frac, e = math.frexp(width)
    scale = math.ldexp(1.0, 1 - e if frac == 0.5 else -e)
    # one spare cell below the lowest marked one: a lookup index is never
    # negative, where it would wrap round
    base = math.floor(left[0] * scale) - 3
    occupied = np.zeros(math.floor(left[-1] * scale) + 2 - base, dtype=bool)
    cells = _CellMap(occupied, scale, base)
    for s in range(0, len(left), _SCAN_BLOCK):
        cell = cells.cell_of(left[s:s + _SCAN_BLOCK].copy())
        cell -= base + 2
        for _ in range(4):     # cells c - 2 ... c + 1
            occupied[cell] = True
            cell += 1
    return cells


def _scan(left: np.ndarray, right: np.ndarray, rcell: np.ndarray, shift: float,
          band: float, cells: _CellMap):
    """Index pairs (j, m), j then m ascending, with r = right[j] + shift and
    m from searchsorted(left, -r - band, "left") up to, not including,
    searchsorted(left, -r + band, "right"); yielded as arrays (j, m), one
    pair per block of _SCAN_BLOCK right sums. cells is _cell_map(left, right,
    shifts, band) for shifts that include shift, and rcell is
    cells.cell_of(-right)."""
    # both band edges fall as j rises, so the j whose band can meet the left
    # range form one run [j0, j1)
    n, bottom, top = len(right), left[0], left[-1]
    j0 = bisect.bisect_left(range(n), True,
                            key=lambda j: -(right[j] + shift) - band <= top)
    j1 = bisect.bisect_left(range(n), True, lo=j0,
                            key=lambda j: -(right[j] + shift) + band < bottom)
    o = cells.offset(shift, band)
    for s in range(j0, j1, _SCAN_BLOCK):
        yield _scan_block(left, right, rcell, s, min(s + _SCAN_BLOCK, j1),
                          shift, band, cells.occupied, o)


def _scan_block(left, right, rcell, s: int, e: int, shift: float, band: float,
                occupied: np.ndarray, o: int):
    """_scan's (j, m) for the j in [s, e), all in its run. Each j takes one
    look at the cell map, the survivors one binary search, and a second one
    if their band holds a left sum. A function of its own, so that a block's
    temporaries are freed before the next block allocates its own."""
    # the filter is exact. Scaling by the power of two 1/w and floor are
    # exact, so the lookup cell K = floor(-y/w) + floor(t/w) of right sum y,
    # with t = fl(-shift - band), is floor(u/w) or floor(u/w) - 1 for the
    # real u = t - y. The key's band [low, up], low = fl(-fl(y + shift) -
    # band) and up = fl(-fl(y + shift) + band), is off [u, u + 2*band] by
    # three roundings of at most s/2 <= w/16 each (of t, of y + shift, and
    # of low or up; see _cell_map), and band <= w/4, so a left sum x in it
    # has u - 3w/16 <= x <= u + 11w/16: its cell c = floor(x/w) lies in
    # K - 1 ... K + 2. x marks c - 2 ... c + 1, so cell K is marked: a key
    # whose cell is clear holds no left sum in its band and is skipped
    # without a binary search. Keys of the run have low <= top and up >=
    # bottom, so their K lies between the lowest and the highest marked
    # cell: the index is inside the map.
    keep = np.flatnonzero(occupied[rcell[s:e] + o])
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
    and 8 B a right pair (its cell index) throughout; building the right
    half takes no more (8 B a right pair for its unsorted sums and sort
    order beside the sorted ones, before the cell indices exist). Beside
    them the cell map, 36 B a left pair (one byte a cell, between
    _MAP_CELLS / 2 and _MAP_CELLS cells a pair; 32 and 42 on the tables
    measured), 8 B a right sum of a scan block per scanning thread (9 B at
    a block's peak, which the threads do not all reach at once; building
    the map and the cell indices takes 16 B a sum of a block, once), and
    the larger of 1.7 kB a queued p5 task (all queued at the start) and
    80 B a candidate (its row of five primes in its p5 block and in the
    joined array; all found at the end). Certifying: 400 B a candidate (its row,
    its exact scaled value and the sort and gather arrays beside them)."""
    left, right = n[0] * n[1], n[2] * n[3]
    scan = (8 * min(right, _SCAN_BLOCK) * min(threads, n[4])
            + max(1700 * n[4], 80 * hits))
    return max(16 * (left + right) + 8 * right + 36 * left + scan, 400 * hits)


def search_mitm(inst, tables, radius: float, *, threads: int = 1,
                memory_mb: float = 2048.0, deadline=None) -> QuintetSolutions:
    """All quintuples with |form value| < radius, best (smallest) first.

    tables: five per-slot PS prime tables (slots 1-4 squared, slot 5 to the
    instance exponent). Returns every solution: past _MAX_HITS candidates
    it raises CapacityExceeded instead of a partial result. The memory
    budget is checked before the pair build and again, with the candidates
    found so far, as each p5 block of them arrives. deadline, if given, is
    called before each p5 block and may raise to abandon the search.
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
                deadline) -> np.ndarray:
    """search_mitm's quintuples whose float value lies within band of zero,
    as an (n, 5) array of primes in p5 order. A function of its own, so that
    the pair arrays and the cell map are freed before certification."""
    l1, l2, l3, l4, l5 = inst.lambdas
    left = HalfSumArray.build(l1, tables[0], l2, tables[1])
    right34 = HalfSumArray.build(l3, tables[2], l4, tables[3])
    pr1, pr2, pr3, pr4, p5s = (t.primes for t in tables)
    shifts = [l5 * float(p5) ** inst.k + inst.eta for p5 in p5s.tolist()]
    # the map and the cell indices are read-only, shared by the threads
    cells = _cell_map(left.sums, right34.sums, shifts, band)
    rcell = np.empty(len(right34.sums), dtype=np.intp)
    for s in range(0, len(rcell), _SCAN_BLOCK):
        rcell[s:s + _SCAN_BLOCK] = cells.cell_of(-right34.sums[s:s + _SCAN_BLOCK])

    def scan_one(i5: int) -> np.ndarray:
        if deadline is not None:
            deadline()
        rows = [np.empty((0, 5), dtype=np.int64)]
        for j, m in _scan(left.sums, right34.sums, rcell, shifts[i5], band,
                          cells):
            i1, i2 = np.divmod(left.index[m], left.n_b)
            i3, i4 = np.divmod(right34.index[j], right34.n_b)
            rows.append(np.column_stack((pr1[i1], pr2[i2], pr3[i3], pr4[i4],
                                         np.full(len(j), p5s[i5]))))
        return np.concatenate(rows)

    blocks, found = [], 0
    with ThreadPoolExecutor(max_workers=threads) as ex:
        # blocks arrive in p5 order; leaving the loop early closes the map,
        # which cancels the p5 blocks still queued
        for block in ex.map(scan_one, range(len(p5s))):
            blocks.append(block)
            found += len(block)
            if found > _MAX_HITS:
                raise CapacityExceeded(f"{found} candidates exceed the "
                                       f"{_MAX_HITS} certification ceiling")
            check_memory(found)
    return np.concatenate(blocks)


def within_radius(inst, sols: QuintetSolutions, radius: float) -> QuintetSolutions:
    """The solutions with exact |value| < radius, from a search result.

    sols is ordered as search_mitm returns it (exact |value| ascending), so
    the kept solutions are a prefix, found by bisection on exact values.
    """
    values, bound, _ = _scaled_form(inst, radius)
    cut = bisect.bisect_left(range(len(sols)), True,
                             key=lambda i: abs(values(sols.p[i:i + 1])[0]) >= bound)
    return sols[:cut]


def brute_oracle(inst, tables, radius: float) -> QuintetSolutions:
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
        i1, i2, i3, i4 = np.nonzero(np.abs(vals) < band)
        hits.append(np.column_stack((tables[0].primes[i1], tables[1].primes[i2],
                                     tables[2].primes[i3], tables[3].primes[i4],
                                     np.full(len(i1), p5))))
    return _finalize(inst, np.concatenate(hits), radius)


def export_solutions(path: str, sols: QuintetSolutions) -> int:
    """CSV p1..p5,value,max_p,meets_theorem_radius; row order preserved."""
    def rows():
        for s in range(0, len(sols), _CSV_ROWS):
            part = sols[s:s + _CSV_ROWS]
            yield from zip(*part.p.T.tolist(), map(fmt17, part.value.tolist()),
                           part.max_p.tolist(),
                           ["true" if m else "false"
                            for m in part.meets_theorem_radius.tolist()])

    return atomic_write_text(path, csv_text(
        ["p1", "p2", "p3", "p4", "p5", "value", "max_p", "meets_theorem_radius"],
        rows()))
