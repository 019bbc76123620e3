"""Meet-in-the-middle search for near-zero prime quintuples.

Target form: lambda1*p1^2 + ... + lambda4*p4^2 + lambda5*p5^k + eta, all p_j
PS primes drawn from per-slot tables. The tables are first reduced exactly:
in scaled integers the other four slots' terms sum to a fixed coset of a
lattice gZ (on the pinned lambdas, p^2 = 1 mod 24 puts p2^2 + p3^2 + p4^2 -
3 p5^2 in 24Z), so a slot keeps only the primes whose term lies within the
radius of that coset; each slot is filtered against the other four's full
tables. The slot left with the fewest primes is swapped into position 5,
the outer loop (on the pinned lambdas slot 1, 4 of 340 primes at q0 2378).
Over these positions the left half holds the sorted pair sums of positions
1 and 2; the right half (3, 4, 5) is streamed one outer prime at a time as a
constant shift of the sorted (3, 4) array, so interval queries against the
left half are plain binary searches, made only for the shifted sums whose
band can meet the left range. Before its binary search, each such key looks
up one bit of a map of power-of-two cells near a left sum, at its own cell
index (taken once a search) plus one integer offset an outer prime; a clear
cell proves the key's band holds no left sum, which skips the search for
most keys. The run of right sums whose band can meet the left range is
found for every outer prime at once, by one vectorised bisection. When
positions 3 and 4 are interchangeable (equal lambdas over the same primes),
the right half is built from one of each mirrored pair (p3, p4), (p4, p3),
whose float sums are equal, so the scan takes half the keys, and each hit
gains its mirror. The candidates come out in no set order: certification
alone orders them.

Floats locate candidates inside a guard band; the candidates, an (n, 5)
integer array whose column j indexes the primes slot j keeps, are then
certified in scaled integers (exact): the float coefficients, eta and the
radius are dyadic rationals, so one power of two S turns each into an
integer. Each slot's scaled terms are exact Python integers over its kept
primes; split into two limbs, hi * 2^40 + lo, they are gathered by index and
summed in int64 columns with one carry step, so no row holds a Python
object. The same indices gather a row's primes and its weight, the product
of the slot tables' weights. Membership in |value| < radius is decided by
comparing limbs, one lexsort orders the rows by exact |value| and then
lexicographically, and the float value is one rounding of the limbs' sum. A
search whose terms could carry the sum past 2^52 in its high limb keeps the
Python-integer columns instead. The order is total over distinct rows, so
the result depends only on the set of candidates, bit for bit across thread
counts. solutions.csv is written from the result's columns by _io's CSV
renderer, in blocks of rows, so the whole text is never held at once.
"""

from __future__ import annotations

import bisect
import math
import sys

import numpy as np

from ._io import Record, atomic_write_text, csv_blocks, ordered_map
from .errors import CapacityExceeded, EmptyWindow, SpecMismatch
from .ps_primes import PsPrimeTable

# hard ceiling on certified candidates per search, independent of the
# caller's memory budget
_MAX_HITS = 10 ** 7
DEFAULT_MEMORY_MB = 2048.0   # default memory budget, and the CLI's memory_mb default
# right sums a scan step searches at once: bounds the scan's temporaries;
# fewer, larger steps hold the interpreter lock less (2^17 scans the
# search-desk tables faster on two threads than 2^15 or 2^16)
_SCAN_BLOCK = 1 << 17
# the scan's cell map has at most this many cells a left sum (plus six)
_MAP_CELLS = 128
# left sums the cell map's build takes at a time: keeps its temporaries
# below the map
_MAP_BLOCK = 1 << 14
# certification splits each exact scaled value into limbs hi * 2^_LIMB + lo,
# 0 <= lo < 2^_LIMB, summed in int64
_LIMB = 40


class QuintetSolutions(Record):
    """Certified quintuples as columns, row i being one quintuple: p (n x 5
    primes), value, weight, max_p and meets_theorem_radius. len() counts the
    rows; a slice of rows is again a QuintetSolutions. Two results are equal
    only when they are the same object."""

    __slots__ = ("p", "value", "weight", "max_p", "meets_theorem_radius")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, p: np.ndarray, value: np.ndarray, weight: np.ndarray,
                 max_p: np.ndarray, meets_theorem_radius: np.ndarray):
        self._set(p, value, weight, max_p, meets_theorem_radius)

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, rows: slice) -> "QuintetSolutions":
        return QuintetSolutions(self.p[rows], self.value[rows], self.weight[rows],
                                self.max_p[rows], self.meets_theorem_radius[rows])


class HalfSumArray(Record):
    """Sorted pair sums a_i + b_j, each with its flat index i*n_b + j: int32
    when every i*n_b + j is below 2^31, intp otherwise."""

    __slots__ = ("sums", "index", "n_b")

    def __init__(self, sums: np.ndarray, index: np.ndarray, n_b: int):
        if len(sums) != len(index):
            raise ValueError("sums and index length mismatch")
        self._set(sums, index, n_b)

    @classmethod
    def build(cls, a: np.ndarray, b: np.ndarray,
              unordered: bool = False) -> "HalfSumArray":
        """The sums of the slot terms a_i + b_j, sorted; equal sums come
        in no set order. unordered (a and b the terms of two interchangeable
        slots) keeps only the pairs i <= j, one of each mirrored pair."""
        if unordered:
            i, j = np.triu_indices(len(b))
            sums = a[i] + b[j]
            index = i * len(b) + j
            del i, j
        else:
            sums = (a[:, None] + b[None, :]).ravel()
            index = None
        order = np.argsort(sums)
        sums = sums[order]
        index = order if index is None else index[order]
        if len(a) * len(b) < 1 << 31:
            index = index.astype(np.int32)
        return cls(sums=sums, index=index, n_b=len(b))


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
        if tab.gamma != inst.gamma:
            raise SpecMismatch(f"slot {j + 1} table gamma {tab.gamma} "
                               f"!= instance gamma {inst.gamma}")
        if len(tab) == 0:
            raise EmptyWindow(f"slot {j + 1} prime window is empty")
    return tables


def _guard(inst, tables, radius: float) -> float:
    span = sum(abs(l) * t.x_max for l, t in zip(inst.lambdas, tables))
    return 1e-6 * radius + 32.0 * np.finfo(float).eps * (span + abs(inst.eta))


def _scaled(inst, radius: float):
    """(lams, eta, bound, S): the lambdas, eta and radius times S, the
    largest power-of-two denominator among them, as Python ints."""
    ratios = [x.as_integer_ratio() for x in (*inst.lambdas, inst.eta, radius)]
    scale = max(d for _, d in ratios)
    *lams, eta, bound = [num * (scale // d) for num, d in ratios]
    return lams, eta, bound, scale


class _Exact(Record):
    """S times the form value of each row of some candidates, with S as in
    _scaled. inside says whether |value| < S * radius; magnitude holds the
    exact |value| as np.lexsort keys, least significant first; value is the
    form value rounded once to a float. limbs tells the path: int64 limbs,
    or Python integers when a sum could reach 2^52 in its high limb."""

    __slots__ = ("inside", "magnitude", "value", "limbs")

    def __init__(self, inside: np.ndarray, magnitude: tuple[np.ndarray, ...],
                 value: np.ndarray, limbs: bool):
        self._set(inside, magnitude, value, limbs)


def _limbs_fit(inst, primes, radius: float) -> bool:
    """Whether the scaled values (S as in _scaled) of quintuples over the
    slots' primes, each ascending, certify in int64 limbs. Below 2^(_LIMB +
    51) each high limb, the carry included, stays below 2^52, so hi *
    2^_LIMB and lo are exact doubles and their float sum is the value
    rounded once; a scale below 2^960 keeps the division by it exact."""
    lams, eta, _, scale = _scaled(inst, radius)
    reach = abs(eta) + sum(abs(a) * int(p[-1]) ** k
                           for a, p, k in zip(lams, primes, inst.powers) if len(p))
    return reach < 1 << (_LIMB + 51) and scale < 1 << 960


def _exact(inst, slots, radius: float) -> _Exact:
    """The exact scaled values of some candidate rows: eta plus, per slot, a
    gather from a table of a_j * p^k_j. slots[j] is slot j's (primes
    ascending, index column of the rows into them); the limb path is decided
    on every one of those primes."""
    lams, eta, bound, scale = _scaled(inst, radius)
    # each slot's table, built in turn, up to the largest prime its rows use:
    # rows that use few primes, or none, cost no table over the rest
    terms = (([a * p ** k for p in primes[:at.max(initial=-1) + 1].tolist()], at)
             for a, (primes, at), k in zip(lams, slots, inst.powers))
    if not _limbs_fit(inst, [primes for primes, _ in slots], radius):
        total = sum((np.array(t, dtype=object)[at] for t, at in terms), eta)
        mag = np.abs(total)
        return _Exact(mag < bound, (mag,), (total / scale).astype(np.float64), False)
    mask = (1 << _LIMB) - 1
    hi = np.full(len(slots[0][1]), eta >> _LIMB, dtype=np.int64)
    lo = np.full(len(hi), eta & mask, dtype=np.int64)
    for t, at in terms:
        hi += np.array([x >> _LIMB for x in t], dtype=np.int64)[at]
        lo += np.array([x & mask for x in t], dtype=np.int64)[at]
    hi += lo >> _LIMB
    lo &= mask
    # |value|: a negative value's limbs negated, then carried (a lo of 0
    # carries nothing)
    neg = hi < 0
    mag_hi, mag_lo = np.where(neg, -hi, hi), np.where(neg, -lo, lo)
    mag_hi += mag_lo >> _LIMB
    mag_lo &= mask
    # a bound past every |value| decides nothing: cap it to fit int64
    bound = min(bound, 1 << (_LIMB + 52))
    b_hi, b_lo = bound >> _LIMB, bound & mask
    inside = (mag_hi < b_hi) | ((mag_hi == b_hi) & (mag_lo < b_lo))
    value = (hi * float(1 << _LIMB) + lo) / float(scale)
    return _Exact(inside, (mag_lo, mag_hi), value, True)


def _lex_rank(sizes, rows: np.ndarray) -> np.ndarray:
    """The mixed-radix rank of each index row, column j into sizes[j] primes
    ascending: ranks order as the rows' primes do lexicographically. A rank
    that could pass int64 is first replaced by its dense rank among the rows."""
    rank, top = np.zeros(len(rows), dtype=np.int64), 1
    for size, at in zip(sizes, rows.T):
        if top * size >= 1 << 63:
            rank = np.unique(rank, return_inverse=True)[1]
            top = len(rows)
        rank = rank * size + at
        top *= size
    return rank


def _finalize(inst, slots, rows: np.ndarray, radius: float) -> QuintetSolutions:
    """Certify the distinct candidate rows exactly, order (|value| asc, lex
    p): one lexsort over the exact |value| (_exact) and each row's rank of
    its primes (_lex_rank), a total order whatever order the rows come in.
    Column j of rows indexes slots[j], slot j's (primes ascending, weights);
    a row's weight is the product of its slots' weights, in slot order."""
    ex = _exact(inst, [(p, at) for (p, _), at in zip(slots, rows.T)], radius)
    keep = np.flatnonzero(ex.inside)
    order = np.lexsort((_lex_rank([len(p) for p, _ in slots], rows[keep]),
                        *(m[keep] for m in ex.magnitude)))
    keep = keep[order]
    rows = rows[keep]
    p = np.column_stack([primes[at] for (primes, _), at in zip(slots, rows.T)])
    weight = math.prod(w[at] for (_, w), at in zip(slots, rows.T))
    value = ex.value[keep]
    max_p = p.max(axis=1)
    tops, at = np.unique(max_p, return_inverse=True)
    limit = np.array([float(t) ** inst.radius_exponent for t in tops.tolist()])
    return QuintetSolutions(p=p, value=value, weight=weight, max_p=max_p,
                            meets_theorem_radius=np.abs(value) < limit[at])


class _CellMap(Record):
    """Which cells [c*w, (c+1)*w), w = 1/scale a power of two, lie from two
    cells below a left sum's cell to one above it, one bit a cell: cell c
    is bit i & 7 of occupied[i >> 3], i = c - base."""

    __slots__ = ("occupied", "scale", "base")

    def __init__(self, occupied: np.ndarray, scale: float, base: int):
        self._set(occupied, scale, base)

    def cell_of(self, x: np.ndarray) -> np.ndarray:
        """The cell floor(x * scale) of each x, exact; x is overwritten."""
        x *= self.scale
        return np.floor(x, out=x).astype(np.intp)

    def offset(self, shift: float, band: float) -> int:
        """o for a scan at shift: the key of right sum y looks up bit
        cell_of(-y) + o."""
        return math.floor((-shift - band) * self.scale) - self.base


def _map_shape(bottom: float, top: float, extreme: float, band: float,
               n: int) -> tuple[float, int, int]:
    """(scale, base, cells) of the cell map over n sorted left sums from
    bottom to top, for keys of half-width band in scans whose sums and
    shifts are at most extreme in magnitude: the map has `cells` cells, the
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


def _map_bytes(cells: int) -> int:
    """The bytes of a cell map of `cells` cells: one bit a cell, and a spare
    byte that the top left sums' marks may spill into (left clear)."""
    return -(-cells // 8) + 1


# bits c & 7 ... (c & 7) + 3 of two bytes, for each c & 7: the four cells
# from c on
_MARKS = np.array([0xF << b for b in range(8)], dtype=np.uint16)


def _cell_map(left: np.ndarray, right: np.ndarray, shifts, band: float) -> _CellMap:
    """The occupancy map of the sorted left sums for keys of half-width band,
    for scans of the sorted right sums at the given shifts; its shape is
    _map_shape's.

    The left sums are sorted, so the byte of the lowest cell each marks
    never falls: a block's sums fall into runs by that byte, and one
    bitwise_or.reduceat per block joins each run's marks before they are
    set, two bytes a run."""
    extreme = max(abs(left[0]), abs(left[-1]), abs(right[0]), abs(right[-1]),
                  *map(abs, shifts))
    scale, base, size = _map_shape(left[0], left[-1], extreme, band, len(left))
    occupied = np.zeros(_map_bytes(size), dtype=np.uint8)
    cells = _CellMap(occupied, scale, base)
    for s in range(0, len(left), _MAP_BLOCK):
        at = cells.cell_of(left[s:s + _MAP_BLOCK].copy())
        at -= base + 2         # a sum in cell c marks bits at ... at + 3
        marks = _MARKS[at & 7]
        at >>= 3               # the byte that holds bit at
        run = np.flatnonzero(np.diff(at, prepend=-1))
        marks = np.bitwise_or.reduceat(marks, run)
        at = at[run]
        occupied[at] |= marks.astype(np.uint8)
        marks >>= 8
        occupied[at + 1] |= marks.astype(np.uint8)
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
    """_scan's (j, m) for the j in [s, e), all in its run. Each j looks up
    one bit of the cell map, the survivors take one binary search, and a
    second one if their band holds a left sum. A function of its own, so
    that a block's temporaries are freed before the next block allocates
    its own."""
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
    k = rcell[s:e] + o
    bit = np.empty(len(k), dtype=np.uint8)
    np.bitwise_and(k, 7, out=bit, casting="unsafe")
    k >>= 3
    marked = occupied[k]
    marked >>= bit
    marked &= 1
    keep = np.flatnonzero(marked)
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


class _Layout(Record):
    """The slots as the scan takes them. Position i holds slot slots[i],
    with its lambda, power, the primes its residue filter keeps and their
    table weights; the slot with the fewest primes is swapped into position
    5, the outer loop (slot 5 on a tie), so slots is its own inverse.
    moduli[j] is slot j's modulus g: the other four slots' sum lies in one
    coset of gZ (scaled by S as in _scaled). limbs tells whether the
    certification of its candidates takes int64 limbs (_limbs_fit over its
    primes), and held is the bytes _layout held at its peak."""

    __slots__ = ("slots", "lambdas", "powers", "primes", "weights", "moduli",
                 "limbs", "held")

    def __init__(self, slots: tuple[int, ...], lambdas: tuple[float, ...],
                 powers: tuple[int, ...], primes: tuple[np.ndarray, ...],
                 weights: tuple[np.ndarray, ...], moduli: tuple[int, ...],
                 limbs: bool, held: int):
        self._set(slots, lambdas, powers, primes, weights, moduli, limbs, held)

    @property
    def empty(self) -> bool:
        """Whether some slot keeps no prime, so that nothing is a solution."""
        return min(map(len, self.primes)) == 0

    def terms(self) -> list[np.ndarray]:
        """Each position's float terms lambda * p^k."""
        return [lam * p.astype(np.float64) ** k
                for lam, p, k in zip(self.lambdas, self.primes, self.powers)]


def _lattice(a: int, tab: PsPrimeTable, k: int) -> tuple[int, int]:
    """(first, step) of a slot's scaled terms a p^k: its first term and the
    gcd of every difference of its terms, |a| gcd(p^k - p0^k). Its primes
    are Python ints only while this runs."""
    ps = tab.primes.tolist()
    p0 = ps[0] ** k
    return a * p0, abs(a) * math.gcd(*(p ** k - p0 for p in ps))


def _layout(inst, tables, radius: float) -> _Layout:
    """search_mitm's slot layout. In scaled integers (S as in _scaled) a
    slot-j prime p has the term a_j p^k, a_j = S lambda_j, and the other
    four slots' terms sum to r0 + gZ: r0 is the sum of their first terms
    and g the gcd of every difference of their terms. So p is in no
    solution unless dist(a_j p^k + S eta + r0, gZ) < S radius, and slot j
    keeps just those p. Each slot is filtered against the other four's
    unfiltered tables, so the result does not depend on slot order; a g of
    0, or of at most twice the bound, would drop nothing and is not
    applied."""
    lams, eta, bound, _ = _scaled(inst, radius)
    firsts, steps = zip(*map(_lattice, lams, tables, inst.powers))
    # _lattice's peak: per prime of a table, a list and a tuple pointer and
    # two Python ints (4 B above their getsizeof: a small int takes 32 B),
    # and about 2 kB of frames and small objects
    held = 2048 + max(len(t) * (16 + 2 * (4 + sys.getsizeof(int(t.primes[-1]) ** k)))
                      for t, k in zip(tables, inst.powers))
    primes, weights, moduli = [], [], []
    for j, (a, tab, k) in enumerate(zip(lams, tables, inst.powers)):
        others = [i for i in range(5) if i != j]
        g = math.gcd(*(steps[i] for i in others))
        moduli.append(g)
        if g <= 2 * bound:
            primes.append(tab.primes)
            weights.append(tab.weights)
            continue
        c = eta + sum(firsts[i] for i in others)
        off = ((a * p ** k + c) % g for p in tab.primes.tolist())
        kept = np.fromiter((o < bound or g - o < bound for o in off), dtype=bool,
                           count=len(tab))
        primes.append(tab.primes[kept])
        weights.append(tab.weights[kept])
        held += primes[-1].nbytes + weights[-1].nbytes
    n = [len(p) for p in primes]
    outer = 4 if n[4] == min(n) else n.index(min(n))
    slots = list(range(5))
    slots[outer], slots[4] = 4, outer
    return _Layout(tuple(slots), tuple(inst.lambdas[s] for s in slots),
                   tuple(inst.powers[s] for s in slots),
                   tuple(primes[s] for s in slots), tuple(weights[s] for s in slots),
                   tuple(moduli), _limbs_fit(inst, primes, radius), held)


def _interchangeable(lambdas, primes) -> bool:
    """Whether positions 3 and 4 share their lambda and their primes, so
    that the right pairs (p3, p4) and (p4, p3) have the same float sum."""
    return lambdas[2] == lambdas[3] and np.array_equal(primes[2], primes[3])


def _mirrored(flat: np.ndarray, m: np.ndarray, n_b: int):
    """Hits (flat right index, left index m) over unordered right pairs, with
    each pair (i, j), i < j, joined by its mirror (j, i) at the same m."""
    i, j = np.divmod(flat, n_b)
    off = np.flatnonzero(i != j)
    return (np.concatenate((flat, j[off] * n_b + i[off])),
            np.concatenate((m, m[off])))


def _search_bytes(inst, tables, radius: float, threads: int):
    """Peak memory of search_mitm(inst, tables, radius, threads=threads), as
    a function of the candidates it finds (see _layout_bytes)."""
    return _layout_bytes(_layout(inst, tables, radius), inst.eta,
                         radius + _guard(inst, tables, radius), threads)


def _layout_bytes(lay: _Layout, eta: float, band: float, threads: int):
    """Peak memory of a search over the layout lay, as a function of the
    candidates it finds: the largest of building the layout, the pair
    arrays, the cell map, scanning and certifying, which runs after the scan
    has freed its arrays.

    Pair arrays: 12 B a left pair and 12 B a stored right pair (sum and
    4-byte index; 16 B in a half whose flat indices pass 2^31); the right
    half stores every (p3, p4) pair, or one of each mirrored pair when
    positions 3 and 4 are interchangeable. A build holds 24 B a pair
    at its peak, 40 B for the mirrored right half, beside the left pairs
    once they are built. Beside the pairs: the cell map, one bit a cell
    (_map_bytes), sized by _map_shape from the layout's extreme primes,
    whose build takes 26 B a left sum of one of its blocks, and then 8 B a
    right pair for the cell indices (16 B a sum of a scan block while they
    are taken). Scanning adds 10 B a right sum of a scan block per scanning
    thread and the larger of 1.7 kB a queued outer task (all queued at the
    start) and 80 B a candidate (its row of five indices in its outer block
    and in the joined array; all found at the end). Certifying: 226 B a
    candidate in int64 limbs (its index row, the limbs of its value and of
    |value|, its float value, the sort keys, its kept index row and the
    result's columns), or 263 B in Python integers (lay.limbs), both read
    off measured peaks. Before all of these, _layout held lay.held, the kept
    primes and weights among it; a layout with an empty position builds no
    pairs and finds nothing, so that is all it needs."""
    if lay.empty:
        return lambda hits=0: lay.held
    n = [len(p) for p in lay.primes]
    # the extreme pair sums and shifts, as the search computes them: each
    # slot term is monotone in its prime, and rounding keeps the order
    ends = [(t[0], t[-1]) for t in lay.terms()]
    bottom, top = min(ends[0]) + min(ends[1]), max(ends[0]) + max(ends[1])
    rights = [min(ends[2]) + min(ends[3]), max(ends[2]) + max(ends[3])]
    shifts = [x + eta for x in ends[4]]
    extreme = max(abs(bottom), abs(top), *map(abs, rights), *map(abs, shifts))
    left = n[0] * n[1]
    cells = _map_shape(bottom, top, extreme, band, left)[2]
    mirror = _interchangeable(lay.lambdas, lay.primes)
    right = n[2] * (n[2] + 1) // 2 if mirror else n[2] * n[3]
    # a sum and its index, 4 bytes while the half's flat indices fit
    lb, rb = (12 if m < 1 << 31 else 16 for m in (n[0] * n[1], n[2] * n[3]))
    build = max(24 * left, lb * left + (40 if mirror else 24) * right)
    pairs = lb * left + rb * right + _map_bytes(cells)
    block = min(right, _SCAN_BLOCK)
    hold = max(build, pairs + 26 * min(left, _MAP_BLOCK),
               pairs + 8 * right + 16 * block)
    scan = pairs + 8 * right + 10 * block * min(threads, n[4])

    certify = 226 if lay.limbs else 263

    def need(hits: int = 0) -> int:
        return max(lay.held, hold, scan + max(1700 * n[4], 80 * hits), certify * hits)

    return need


def search_mitm(inst, tables, radius: float, *, threads: int = 1,
                memory_mb: float = DEFAULT_MEMORY_MB, deadline=None) -> QuintetSolutions:
    """All quintuples with |form value| < radius, best (smallest) first.

    tables: five per-slot PS prime tables (slots 1-4 squared, slot 5 to the
    instance exponent). Each slot first keeps only the primes that its exact
    residue filter (_layout) admits, and the slot left with the fewest
    becomes the outer loop; neither step changes the result. A slot left
    with no primes gives the empty result at once. Returns every solution:
    past _MAX_HITS candidates it raises CapacityExceeded instead of a
    partial result. The memory budget is checked before the pair build and
    again, with the candidates found so far, as each outer block of them
    arrives. deadline, if given, is called before each outer block and once
    more after the scan, before certification, and may raise to abandon the
    search.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    tables = _check_tables(inst, tables)
    lay = _layout(inst, tables, radius)
    slots = [(lay.primes[s], lay.weights[s]) for s in lay.slots]
    if lay.empty:
        return _finalize(inst, slots, np.empty((0, 5), dtype=np.intp), radius)
    band = radius + _guard(inst, tables, radius)
    search_bytes = _layout_bytes(lay, inst.eta, band, threads)

    def check_memory(hits: int) -> None:
        need = search_bytes(hits)
        if need > memory_mb * 2 ** 20:
            raise CapacityExceeded(
                f"pair arrays, scan and {hits} candidates need "
                f"~{need / 2 ** 20:.0f} MiB, budget is {memory_mb:.0f} MiB")

    check_memory(0)
    rows = _candidates(lay, inst.eta, band, threads, check_memory, deadline)
    if deadline is not None:
        deadline()
    return _finalize(inst, slots, rows, radius)


def _candidates(lay: _Layout, eta: float, band: float, threads: int,
                check_memory, deadline) -> np.ndarray:
    """The quintuples of the layout lay whose float value lies within band
    of zero, as an (n, 5) array whose column j indexes the primes slot j
    keeps, its rows in no set order. A function of its own, so that the
    pair arrays and the cell map are freed before certification.

    When positions 3 and 4 are interchangeable the scan keys only one of
    each mirrored right pair, and every hit of a pair p3 != p4 gains its
    mirror."""
    t1, t2, t3, t4, t5 = lay.terms()
    mirror = _interchangeable(lay.lambdas, lay.primes)
    left = HalfSumArray.build(t1, t2)
    right34 = HalfSumArray.build(t3, t4, unordered=mirror)
    shifts = (t5 + eta).tolist()
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
            flat, m = _mirrored(flat, m, right34.n_b)
        i1, i2 = np.divmod(left.index[m], left.n_b)
        i3, i4 = np.divmod(flat, right34.n_b)
        cols = (i1, i2, i3, i4, np.full(len(m), i5))
        # back to slot order: slots is its own inverse
        return np.column_stack([cols[s] for s in lay.slots])

    blocks, found = [], 0
    # blocks arrive in outer order; leaving the loop early closes the map,
    # which cancels the outer blocks still queued and joins the workers
    for block in ordered_map(scan_one, range(len(t5)), threads):
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
    cut = bisect.bisect_left(range(len(sols)), True, key=lambda i: not _exact(
        inst, [np.unique(c, return_inverse=True) for c in sols.p[i:i + 1].T],
        radius).inside[0])
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
    a = l1 * sq[0]
    b = l2 * sq[1][:, None, None]
    c = l3 * sq[2][None, :, None]
    d = l4 * sq[3][None, None, :]
    band = radius + _guard(inst, tables, radius)
    rows = []
    # one n2*n3*n4 grid per slot-1 prime, summed in the order of the full
    # grid, ((a + b) + c) + d, so every value keeps its bits
    for i1 in range(n[0]):
        v4 = a[i1] + b + c + d
        for i5, p5 in enumerate(tables[4].primes):
            vals = v4 + (l5 * float(p5) ** inst.k + inst.eta)
            at = np.nonzero(np.abs(vals) < band)
            rows.append(np.column_stack((np.full(len(at[0]), i1), *at,
                                         np.full(len(at[0]), i5))))
    return _finalize(inst, [(t.primes, t.weights) for t in tables],
                     np.concatenate(rows), radius)


def export_solutions(path: str, sols: QuintetSolutions) -> int:
    """CSV p1..p5,value,max_p,meets_theorem_radius; row order preserved."""
    return atomic_write_text(path, csv_blocks(
        "p1,p2,p3,p4,p5,value,max_p,meets_theorem_radius",
        [*sols.p.T, sols.value, sols.max_p, sols.meets_theorem_radius]))
