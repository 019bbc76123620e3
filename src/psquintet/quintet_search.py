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
nine keys in ten. The run of right sums whose band can meet the left range
is found for every p5 at once, by one vectorised bisection. When slots 3 and
4 are interchangeable (equal lambdas over the same primes), the right half
keeps one of each mirrored pair (p3, p4), (p4, p3), whose float sums are
equal, so the scan takes half the keys; each hit gains its mirror, and each
p5 block is put back in the order of the ordered scan.

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

from ._io import atomic_write_text
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
# one solutions.csv row: the text csv.writer gives of ints and fmt17 values
_CSV_ROW = "%d,%d,%d,%d,%d,%.17g,%d,%s\n"


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


def _map_shape(bottom: float, top: float, extreme: float, band: float,
               n: int) -> tuple[float, int, int]:
    """(scale, base, cells) of the cell map over n sorted left sums from
    bottom to top, for keys of half-width band in scans whose sums and
    shifts are at most extreme in magnitude: occupied has `cells` cells, the
    first being cell `base`, of width 1/scale.

    The cell width w is the smallest power of two at least 4*band, at least
    span/(_MAP_CELLS*n), so that the map has at most _MAP_CELLS cells a left
    sum (plus six), and at least 8 spacings s of the largest magnitude M =
    extreme + 2*band a key edge can reach, so that each rounding a key's
    lookup meets is at most s/2 <= w/16 (see _scan_block) and each cell
    index, below M/w < 2^50 in size, is an exact int64."""
    width = max(4 * band, 8 * float(np.spacing(extreme + 2 * band)),
                (top - bottom) / (_MAP_CELLS * n))
    frac, e = math.frexp(width)
    scale = math.ldexp(1.0, 1 - e if frac == 0.5 else -e)
    # one spare cell below the lowest marked one: a lookup index is never
    # negative, where it would wrap round
    base = math.floor(bottom * scale) - 3
    return scale, base, math.floor(top * scale) + 2 - base


def _cell_map(left: np.ndarray, right: np.ndarray, shifts, band: float) -> _CellMap:
    """The occupancy map of the sorted left sums for keys of half-width band,
    for scans of the sorted right sums at the given shifts; its shape is
    _map_shape's."""
    extreme = max(abs(left[0]), abs(left[-1]), abs(right[0]), abs(right[-1]),
                  *map(abs, shifts))
    scale, base, size = _map_shape(left[0], left[-1], extreme, band, len(left))
    occupied = np.zeros(size, dtype=bool)
    cells = _CellMap(occupied, scale, base)
    for s in range(0, len(left), _SCAN_BLOCK):
        cell = cells.cell_of(left[s:s + _SCAN_BLOCK].copy())
        cell -= base + 2
        for _ in range(4):     # cells c - 2 ... c + 1
            occupied[cell] = True
            cell += 1
    return cells


def _runs(left: np.ndarray, right: np.ndarray, shifts,
          band: float) -> list[tuple[int, int]]:
    """Per shift, the run (j0, j1) of the sorted right sums whose band can
    meet the left range: j0 is the first j with -(right[j] + shift) - band
    <= left[-1], and j1 the first j >= j0 with -(right[j] + shift) + band <
    left[0]. Both band edges fall as j rises, so each end is one bisection,
    made here for all shifts at once."""
    shifts = np.asarray(shifts, dtype=np.float64)
    n, bottom, top = len(right), left[0], left[-1]

    def first(pred, lo):
        # bisect.bisect_left over [lo, n) for every shift at once, pred
        # taking -(right[j] + shift): each step at least halves hi - lo
        hi = np.full(len(shifts), n)
        for _ in range(n.bit_length()):
            mid = (lo + hi) // 2
            open_ = lo < hi
            true = pred(-(right[np.minimum(mid, n - 1)] + shifts))
            hi = np.where(open_ & true, mid, hi)
            lo = np.where(open_ & ~true, mid + 1, lo)
        return lo

    j0 = first(lambda e: e - band <= top, np.zeros(len(shifts), dtype=np.intp))
    j1 = first(lambda e: e + band < bottom, j0)
    return list(zip(j0.tolist(), j1.tolist()))


def _scan(left: np.ndarray, right: np.ndarray, rcell: np.ndarray, shift: float,
          band: float, cells: _CellMap, run: tuple[int, int]):
    """Index pairs (j, m), j then m ascending, with r = right[j] + shift and
    m from searchsorted(left, -r - band, "left") up to, not including,
    searchsorted(left, -r + band, "right"); yielded as arrays (j, m), one
    pair per block of _SCAN_BLOCK right sums. cells is _cell_map(left, right,
    shifts, band) and run is _runs(left, right, shifts, band)'s entry for
    shifts that include shift, and rcell is cells.cell_of(-right)."""
    j0, j1 = run
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
    # of low or up; see _map_shape), and band <= w/4, so a left sum x in it
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


def _interchangeable(inst, tables) -> bool:
    """Whether slots 3 and 4 share their lambda and their primes, so that
    the right pairs (p3, p4) and (p4, p3) have the same float sum."""
    return (inst.lambdas[2] == inst.lambdas[3]
            and np.array_equal(tables[2].primes, tables[3].primes))


def _unordered(half: HalfSumArray) -> HalfSumArray:
    """The entries (i, j) of half with i <= j, still sorted: one of each
    mirrored pair of a half whose two slots are interchangeable."""
    upper = np.triu(np.ones((half.n_b, half.n_b), dtype=bool)).ravel()
    keep = np.flatnonzero(upper[half.index])
    return HalfSumArray(half.sums[keep], half.index[keep], half.n_b)


def _mirrored(flat: np.ndarray, m: np.ndarray, sums: np.ndarray, n_b: int):
    """Hits (flat right index, left index m) over unordered right pairs, with
    each pair (i, j), i < j, joined by (j, i) at the same m, in the order of
    a scan of the ordered right half: right sum, then flat index (the
    stable sort's tie order), then m."""
    i, j = np.divmod(flat, n_b)
    off = np.flatnonzero(i != j)
    flat = np.concatenate((flat, j[off] * n_b + i[off]))
    m = np.concatenate((m, m[off]))
    order = np.lexsort((m, flat, np.concatenate((sums, sums[off]))))
    return flat[order], m[order]


def _search_bytes(inst, tables, radius: float, threads: int):
    """Peak memory of search_mitm(inst, tables, radius, threads=threads), as
    a function of the candidates it finds: the larger of scanning and
    certifying, which runs after the scan has freed its arrays.

    Scanning: 16 B a left pair (sum and index) and 24 B a stored right pair
    (sum, index and cell index) throughout; the right half stores every
    (p3, p4) pair, or one of each mirrored pair when slots 3 and 4 are
    interchangeable. Building the right half, before the map exists, holds
    24 B a stored right pair, and 16 B an ordered one beside them when it
    keeps one of each mirrored pair. Beside the stored pairs: the cell map,
    one byte a cell, sized by _map_shape from the tables' extreme primes;
    8 B a right sum of a scan block per scanning thread (9 B at a block's
    peak, which the threads do not all reach at once; building the map and
    the cell indices takes 16 B a sum of a block, once); and the larger of
    1.7 kB a queued p5 task (all queued at the start) and 80 B a candidate
    (its row of five primes in its p5 block and in the joined array; all
    found at the end). Certifying: 400 B a candidate (its row, its exact
    scaled value and the sort and gather arrays beside them)."""
    n = [len(t) for t in tables]
    band = radius + _guard(inst, tables, radius)
    # the extreme pair sums and shifts, as the search computes them: each
    # slot term is monotone in its prime, and rounding keeps the order
    ends = [lam * t.primes[[0, -1]].astype(np.float64) ** 2
            for lam, t in zip(inst.lambdas[:4], tables)]
    bottom, top = min(ends[0]) + min(ends[1]), max(ends[0]) + max(ends[1])
    rights = [min(ends[2]) + min(ends[3]), max(ends[2]) + max(ends[3])]
    shifts = [inst.lambdas[4] * float(p5) ** inst.k + inst.eta
              for p5 in tables[4].primes[[0, -1]].tolist()]
    extreme = max(abs(bottom), abs(top), *map(abs, rights), *map(abs, shifts))
    cells = _map_shape(bottom, top, extreme, band, n[0] * n[1])[2]
    left, ordered = n[0] * n[1], n[2] * n[3]
    mirror = _interchangeable(inst, tables)
    right = n[2] * (n[2] + 1) // 2 if mirror else ordered
    hold = (16 * left + 24 * right + cells
            + 8 * min(right, _SCAN_BLOCK) * min(threads, n[4]))
    build = 16 * left + 24 * right + (16 * ordered if mirror else 0)

    def need(hits: int = 0) -> int:
        return max(hold + max(1700 * n[4], 80 * hits), build, 400 * hits)

    return need


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
    search_bytes = _search_bytes(inst, tables, radius, threads)

    def check_memory(hits: int) -> None:
        need = search_bytes(hits)
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
    the pair arrays and the cell map are freed before certification.

    When slots 3 and 4 are interchangeable the scan keys only one of each
    mirrored right pair, and every hit of a pair p3 != p4 gains its mirror;
    each p5 block then comes out in the order of the ordered scan."""
    l1, l2, l3, l4, l5 = inst.lambdas
    left = HalfSumArray.build(l1, tables[0], l2, tables[1])
    right34 = HalfSumArray.build(l3, tables[2], l4, tables[3])
    mirror = _interchangeable(inst, tables)
    if mirror:
        right34 = _unordered(right34)
    pr1, pr2, pr3, pr4, p5s = (t.primes for t in tables)
    shifts = [l5 * float(p5) ** inst.k + inst.eta for p5 in p5s.tolist()]
    # the map, the cell indices and the runs are read-only, shared by the
    # threads
    cells = _cell_map(left.sums, right34.sums, shifts, band)
    rcell = np.empty(len(right34.sums), dtype=np.intp)
    for s in range(0, len(rcell), _SCAN_BLOCK):
        rcell[s:s + _SCAN_BLOCK] = cells.cell_of(-right34.sums[s:s + _SCAN_BLOCK])
    runs = _runs(left.sums, right34.sums, shifts, band)

    def scan_one(i5: int) -> np.ndarray:
        if deadline is not None:
            deadline()
        parts = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))]
        parts += _scan(left.sums, right34.sums, rcell, shifts[i5], band, cells,
                       runs[i5])
        j = np.concatenate([bj for bj, _ in parts])
        m = np.concatenate([bm for _, bm in parts])
        flat = right34.index[j]
        if mirror:
            flat, m = _mirrored(flat, m, right34.sums[j], right34.n_b)
        i1, i2 = np.divmod(left.index[m], left.n_b)
        i3, i4 = np.divmod(flat, right34.n_b)
        return np.column_stack((pr1[i1], pr2[i2], pr3[i3], pr4[i4],
                                np.full(len(m), p5s[i5])))

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
    text = ["p1,p2,p3,p4,p5,value,max_p,meets_theorem_radius\n"]
    for s in range(0, len(sols), _CSV_ROWS):
        part = sols[s:s + _CSV_ROWS]
        text.append("".join(_CSV_ROW % row for row in zip(
            *part.p.T.tolist(), part.value.tolist(), part.max_p.tolist(),
            ["true" if m else "false" for m in part.meets_theorem_radius.tolist()])))
    return atomic_write_text(path, "".join(text))
