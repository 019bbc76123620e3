"""Independent checks of the files psquintet writes.

Nothing here imports psquintet. Every quantity is recomputed from its
definition with code of its own:

- Piatetski-Shapiro (PS) primes come from the other side of the definition,
  p = floor(n^(1/gamma)), over every n that can reach the window, with an
  mpmath floor wherever the float value sits near an integer, and are
  intersected with a plain (unsegmented) sieve of Eratosthenes.
- Form values are exact: every float coefficient is a dyadic rational, so
  scaling by a common power of two turns them into Python integers.
- The smoothing kernel is the Irwin-Hall difference evaluated in mpmath.

Each check returns a list of error strings; an empty list means the outputs
passed. The checks raise only on files they cannot parse at all.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from fractions import Fraction

import mpmath
import numpy as np

_MP_DPS = 50
_NEAR_INT = 1e-6          # float floor of n^(1/gamma) is re-decided in mpmath
_N_CHUNK = 1 << 20


# ---------------------------------------------------------------- primes

def prime_mask(n: int) -> np.ndarray:
    """mask[m] is True iff m is prime, for 0 <= m <= n."""
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for i in range(2, math.isqrt(n) + 1):
        if mask[i]:
            mask[i * i::i] = False
    return mask


def iroot(n: int, k: int) -> int:
    """Largest r >= 0 with r^k <= n."""
    if n < 1:
        return 0
    r = math.isqrt(n) if k == 2 else int(round(n ** (1.0 / k)))
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def window(x_max: float, lambda0: float, k: int) -> tuple[int, int]:
    """Integers p with lambda0*X < p^k <= X are exactly lo <= p <= hi.

    p^k is an integer, so comparing it with a positive float y is the same
    as comparing it with floor(y); the cut lambda0*X is the float product.
    """
    return iroot(int(lambda0 * x_max), k) + 1, iroot(int(x_max), k)


def ps_values(lo: int, hi: int, gamma: float) -> np.ndarray:
    """Ascending floor(n^(1/gamma)) over all n >= 1, restricted to [lo, hi].

    The values strictly increase with n (the step of n^(1/gamma) exceeds 1),
    so the result has no repeats.
    """
    with mpmath.workdps(_MP_DPS):
        g = mpmath.mpf(gamma)
        inv_mp = 1 / g
        n_lo = max(1, int(mpmath.floor(mpmath.mpf(lo) ** g)) - 1)
        n_hi = int(mpmath.ceil(mpmath.mpf(hi + 1) ** g)) + 1
    inv = 1.0 / gamma
    parts = []
    for start in range(n_lo, n_hi + 1, _N_CHUNK):
        n = np.arange(start, min(start + _N_CHUNK, n_hi + 1), dtype=np.int64)
        v = n.astype(np.float64) ** inv
        fl = np.floor(v)
        frac = v - fl
        p = fl.astype(np.int64)
        with mpmath.workdps(_MP_DPS):
            for i in np.flatnonzero((frac < _NEAR_INT) | (frac > 1.0 - _NEAR_INT)):
                p[i] = int(mpmath.floor(mpmath.mpf(int(n[i])) ** inv_mp))
        parts.append(p[(p >= lo) & (p <= hi)])
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def ps_primes(x_max: float, lambda0: float, k: int, gamma: float) -> np.ndarray:
    """PS primes p with lambda0*X < p^k <= X, ascending."""
    lo, hi = window(x_max, lambda0, k)
    if hi < max(lo, 2):
        return np.empty(0, dtype=np.int64)
    cand = ps_values(lo, hi, gamma)
    return cand[prime_mask(hi)[cand]]


def weight_mp(p: int, gamma: float):
    return mpmath.power(p, 1 - mpmath.mpf(gamma)) * mpmath.log(p)


# ------------------------------------------------------------ parameters

def sqrt2_q0(ratio: float, floor: int) -> int:
    """Smallest convergent denominator >= floor of the float ratio ~ sqrt(2).

    The convergents of sqrt(2) follow the Pell recurrence; Legendre's
    criterion |r - a/q| < 1/(2q^2) confirms each one is also a convergent of
    the float ratio itself.
    """
    r = Fraction(ratio)
    if abs(ratio - math.sqrt(2.0)) > 1e-15:
        raise ValueError(f"ratio {ratio} is not sqrt(2)")
    a, q = 1, 1
    while True:
        if abs(r - Fraction(a, q)) >= Fraction(1, 2 * q * q):
            raise ValueError(f"{a}/{q} is not a convergent of {ratio}")
        if q >= floor:
            return q
        a, q = a + 2 * q, a + q


_EPS_EXP = {2: (71, 72, 58), 3: (129, 130, 116), 4: (245, 246, 232)}
_THM_EXP = {2: (71, 72, 29), 3: (129, 130, 58), 4: (245, 246, 116)}


def _exponent(table: dict, k: int, gamma: float, theta: float):
    a, b, c = table[k]
    return (a - b * mpmath.mpf(gamma)) / c + mpmath.mpf(theta)


def params_mp(q0: int, k: int, gamma: float, theta: float) -> dict:
    """X, Delta, eps, H from their defining formulas, in mpmath."""
    with mpmath.workdps(_MP_DPS):
        x = mpmath.power(q0, mpmath.mpf(58) / 27)
        logx = mpmath.log(x)
        eps = mpmath.power(x, _exponent(_EPS_EXP, k, gamma, theta))
        return {"X": +x, "Delta": mpmath.power(x, mpmath.mpf(-27) / 29) * logx,
                "eps": +eps, "H": logx ** 2 / eps}


def theorem_exponent(k: int, gamma: float, theta: float):
    """The paper's exponent, (71-72g)/29 + theta for k = 2."""
    with mpmath.workdps(_MP_DPS):
        return +_exponent(_THM_EXP, k, gamma, theta)


def _rel(a, b) -> float:
    b = float(b)
    return abs(float(a) - b) / max(abs(b), 1e-300)


# ------------------------------------------------------------- file IO

def read_table_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "p,weight":
        raise ValueError(f"{path}: bad header {lines[:1]}")
    rows = [line.split(",") for line in lines[1:]]
    return (np.array([int(r[0]) for r in rows], dtype=np.int64),
            np.array([float(r[1]) for r in rows], dtype=np.float64))


SOLUTION_HEADER = ["p1", "p2", "p3", "p4", "p5", "value", "max_p",
                   "meets_theorem_radius"]


def read_solutions(path: str) -> list[tuple]:
    """Rows as (p tuple, value, max_p, meets)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SOLUTION_HEADER:
            raise ValueError(f"{path}: bad header {header}")
        out = []
        for row in reader:
            if row[7] not in ("true", "false"):
                raise ValueError(f"{path}: bad flag {row[7]!r}")
            out.append((tuple(int(x) for x in row[:5]), float(row[5]),
                        int(row[6]), row[7] == "true"))
    return out


# -------------------------------------------------------------- solutions

SEARCH_TRIPLES = 50_000   # seeded (p3, p4, p5) triples in the completeness sample


class ExactForm:
    """lambda1 p1^2 + ... + lambda5 p5^k + eta as integers over 2^E."""

    def __init__(self, lambdas, eta: float, k: int, radius: float):
        fracs = [Fraction(l) for l in lambdas] + [Fraction(eta), Fraction(radius)]
        self.den = max(f.denominator for f in fracs)   # all powers of two
        scaled = [f.numerator * (self.den // f.denominator) for f in fracs]
        self.coef = scaled[:5]
        self.eta = scaled[5]
        self.radius = scaled[6]
        self.ks = (2, 2, 2, 2, k)

    def value(self, p) -> int:
        """The form value times den, exactly."""
        return (self.coef[0] * p[0] ** 2 + self.coef[1] * p[1] ** 2
                + self.coef[2] * p[2] ** 2 + self.coef[3] * p[3] ** 2
                + self.coef[4] * p[4] ** self.ks[4] + self.eta)


def check_solution_rows(rows, form: ExactForm, allowed_primes, exponent,
                        label: str) -> list[str]:
    """Exact re-certification, ordering and the theorem-radius flag."""
    errs = []
    allowed = set(int(p) for p in allowed_primes)
    prev = None
    exp_f = float(exponent)
    with mpmath.workdps(30):
        for i, (p, value, max_p, meets) in enumerate(rows):
            if len(errs) > 10:
                errs.append(f"{label}: further row errors suppressed")
                break
            bad = [q for q in p if q not in allowed]
            if bad:
                errs.append(f"{label} row {i}: {bad} not PS primes of the window")
            v = form.value(p)
            if not abs(v) < form.radius:
                errs.append(f"{label} row {i}: |value| {v / form.den} "
                            "is not inside the radius")
            if v / form.den != value:
                errs.append(f"{label} row {i}: value {value!r} != exact "
                            f"{v / form.den!r}")
            if max_p != max(p):
                errs.append(f"{label} row {i}: max_p {max_p} != {max(p)}")
            key = (abs(v), p)
            if prev is not None and not prev < key:
                errs.append(f"{label} row {i}: out of (|value|, p) order")
            prev = key
            # |v| < max_p^exponent; mpmath decides only what floats cannot
            ratio = abs(v / form.den) / max(p) ** exp_f
            if abs(ratio - 1.0) > 1e-9:
                want = ratio < 1.0
            else:
                gap = (mpmath.log(abs(v)) - mpmath.log(form.den)
                       - exponent * mpmath.log(max(p)))
                want = None if abs(gap) < 1e-12 else gap < 0
            if want is not None and want != meets:
                errs.append(f"{label} row {i}: meets_theorem_radius {meets}, "
                            f"paper exponent says {want}")
    return errs


def complete_sample(primes: np.ndarray, form: ExactForm, cfg: dict, seed: int,
                    triples: int = SEARCH_TRIPLES) -> set:
    """Every quintuple within radius over seeded (p3, p4, p5) triples.

    For each triple and each p1 the inequality is solved for p2^2 as an
    interval; the few integer square roots inside it (with a float guard)
    are certified exactly.
    """
    l1, l2, l3, l4, l5 = cfg["lambdas"]
    eta, radius = cfg["eta"], cfg["radius"]
    sq = primes.astype(np.float64) ** 2
    allowed = set(int(p) for p in primes)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(primes), size=(triples, 3))
    guard = 1e-6 * radius + 1e-6
    found = set()
    for s in range(0, triples, 256):
        blk = idx[s:s + 256]
        c = l3 * sq[blk[:, 0]] + l4 * sq[blk[:, 1]] + l5 * sq[blk[:, 2]] + eta
        t = -(c[:, None] + l1 * sq[None, :])
        a, b = (t - radius) / l2, (t + radius) / l2
        m_lo = np.maximum(np.ceil(np.sqrt(np.maximum(np.minimum(a, b) - guard, 0.0))), 2.0)
        m_hi = np.floor(np.sqrt(np.maximum(np.maximum(a, b) + guard, 0.0)))
        for ti, j in np.argwhere(m_hi >= m_lo):
            for m in range(int(m_lo[ti, j]), int(m_hi[ti, j]) + 1):
                if m not in allowed:
                    continue
                p = (int(primes[j]), m, int(primes[blk[ti, 0]]),
                     int(primes[blk[ti, 1]]), int(primes[blk[ti, 2]]))
                if abs(form.value(p)) < form.radius:
                    found.add(p)
    return found


# ------------------------------------------------------------- workloads

def check_tables(out_dir: str, cfg: dict, seed: int) -> list[str]:
    """primes.csv (and primes_k<k>.csv) against the n-side PS set."""
    errs = []
    k, gamma, lam0 = cfg["k"], cfg["gamma"], cfg.get("lambda0", 0.1)
    q0 = sqrt2_q0(cfg["lambdas"][0] / cfg["lambdas"][1], cfg["q0_floor"])
    x = float(q0) ** (58.0 / 27.0)
    if _rel(x, params_mp(q0, k, gamma, cfg["theta"])["X"]) > 1e-14:
        errs.append(f"X formula disagrees with mpmath at q0 = {q0}")
    files = [("primes.csv", 2)] + ([(f"primes_k{k}.csv", k)] if k != 2 else [])
    rng = np.random.default_rng(seed)
    for name, kk in files:
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            errs.append(f"{name} missing")
            continue
        p, w = read_table_csv(path)
        want = ps_primes(x, lam0, kk, gamma)
        if len(p) != len(want) or not np.array_equal(p, want):
            extra = np.setdiff1d(p, want)[:5]
            missing = np.setdiff1d(want, p)[:5]
            errs.append(f"{name}: {len(p)} primes, expected {len(want)} "
                        f"(extra {extra.tolist()}, missing {missing.tolist()}, "
                        f"ascending {bool(np.all(np.diff(p) > 0))})")
            continue
        pf = p.astype(np.float64)
        ref = np.exp((1.0 - gamma) * np.log(pf)) * np.log(pf)
        rel = np.abs(w - ref) / ref
        if len(rel) and rel.max() > 1e-13:
            i = int(rel.argmax())
            errs.append(f"{name}: weight of {p[i]} is {float(w[i])!r}, expected "
                        f"{float(ref[i])!r} (relative {rel[i]:.2e})")
        with mpmath.workdps(30):
            for i in rng.choice(len(p), size=min(64, len(p)), replace=False):
                if _rel(w[i], weight_mp(int(p[i]), gamma)) > 1e-14:
                    errs.append(f"{name}: weight of {p[i]} disagrees with mpmath")
    return errs


def search_setup(cfg: dict) -> tuple[np.ndarray, ExactForm]:
    """The window's PS primes and the exact form of a k = 2 search config."""
    if cfg["k"] != 2:
        raise ValueError("the search check covers k = 2")
    q0 = sqrt2_q0(cfg["lambdas"][0] / cfg["lambdas"][1], cfg["q0_floor"])
    x = float(q0) ** (58.0 / 27.0)
    primes = ps_primes(x, cfg.get("lambda0", 0.1), 2, cfg["gamma"])
    return primes, ExactForm(cfg["lambdas"], cfg["eta"], 2, cfg["radius"])


def check_search(out_dir: str, cfg: dict, seed: int) -> list[str]:
    """solutions.csv: exact certification, order, PS membership, completeness."""
    primes, form = search_setup(cfg)
    rows = read_solutions(os.path.join(out_dir, "solutions.csv"))
    errs = check_solution_rows(rows, form, primes,
                               theorem_exponent(2, cfg["gamma"], cfg["theta"]),
                               "solutions.csv")
    if not rows:
        errs.append("solutions.csv has no rows")
    have = {r[0] for r in rows}
    found = complete_sample(primes, form, cfg, seed)
    if not found:
        errs.append("completeness sample found no solutions to compare")
    missing = sorted(found - have)
    if missing:
        errs.append(f"{len(missing)} of {len(found)} sampled solutions are "
                    f"missing from solutions.csv, e.g. {missing[0]}")
    return errs


def irwin_hall_kernel(y, eps, l: int):
    """theta(y) = F((y + 7e/8)/b + l/2) - F((y - 7e/8)/b + l/2), b = e/(4l)."""
    def cdf(s):
        if s <= 0:
            return mpmath.mpf(0)
        if s >= l:
            return mpmath.mpf(1)
        return mpmath.fsum((-1) ** j * math.comb(l, j) * (s - j) ** l
                           for j in range(int(mpmath.floor(s)) + 1)) / math.factorial(l)
    box = eps / (4 * l)
    return (cdf((y + 7 * eps / 8) / box + mpmath.mpf(l) / 2)
            - cdf((y - 7 * eps / 8) / box + mpmath.mpf(l) / 2))


def _scan_rows(path: str):
    marks, rows = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("# "):
                name, _, val = line[2:].partition(" = ")
                marks[name] = float(val)
            elif line == "t,re,im,abs":
                continue
            else:
                rows.append([float(v) for v in line.split(",")])
    return marks, rows


def check_verify(out_dir: str, cfg: dict, seed: int) -> list[str]:
    """report.json, solutions.csv, tscan.csv and diagnostics.csv of verify."""
    errs = []
    gamma, k, theta = cfg["gamma"], cfg["k"], cfg["theta"]
    lams, eta = cfg["lambdas"], cfg["eta"]
    lam0 = cfg.get("lambda0", 0.1)
    if k != 2 or cfg.get("radius", "theorem") != "theorem":
        raise ValueError("the verify check covers k = 2 at the theorem radius")
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    q0 = sqrt2_q0(lams[0] / lams[1], cfg["q0_floor"])
    par = rep["params"]
    if par["q0"] != q0:
        errs.append(f"q0 {par['q0']} != {q0}")
    ref = params_mp(q0, k, gamma, theta)
    for name in ("X", "Delta", "eps", "H"):
        if _rel(par[name], ref[name]) > 1e-12:
            errs.append(f"{name} = {par[name]!r}, formula gives {float(ref[name])!r}")
    # the window, kernel and tail bound below use the formulas, not the report
    x = float(q0) ** (58.0 / 27.0)
    eps_f = float(ref["eps"])
    primes = ps_primes(x, lam0, 2, gamma)
    if len(primes) == 0:
        return errs + ["empty window"]
    with mpmath.workdps(30):
        w = {int(p): weight_mp(int(p), gamma) for p in primes}
        l = max(1, math.floor(math.log(x)))
        eps = mpmath.mpf(eps_f)
        exponent = theorem_exponent(k, gamma, theta)
        radius = max(mpmath.power(int(primes[0]), exponent),
                     mpmath.power(int(primes[-1]), exponent))
        rad_f = float(radius)
        form = ExactForm(lams, eta, k, rad_f)
        direct = mpmath.mpf(0)
        want = set()
        for p in itertools.product((int(q) for q in primes), repeat=5):
            v = Fraction(form.value(p), form.den)
            if abs(v) < Fraction(eps_f):
                vm = mpmath.mpf(v.numerator) / v.denominator
                direct += (irwin_hall_kernel(vm, eps, l)
                           * w[p[0]] * w[p[1]] * w[p[2]] * w[p[3]] * w[p[4]])
            if abs(v) < Fraction(rad_f):
                want.add(p)
        if abs(rep["direct"] - direct) > 1e-10 * abs(direct) + 1e-12:
            errs.append(f"direct = {rep['direct']!r}, brute force gives "
                        f"{float(direct)!r}")
        a, b, c = rep["A"]["re"], rep["B"]["re"], rep["C_bound"]
        if not abs(a + b - float(direct)) <= c + 1e-8 * abs(float(direct)):
            errs.append(f"|A + B - direct| = {abs(a + b - float(direct))!r} "
                        f"exceeds C_bound {c!r}")
        caps = mpmath.fsum(w.values())
        c_ref = caps ** 5 / l * (4 * l / (mpmath.pi * eps * ref["H"])) ** l
        if _rel(c, c_ref) > 1e-10:
            errs.append(f"C_bound = {c!r}, formula gives {float(c_ref)!r}")

        # theorem-radius solutions: exact, complete by brute force
        rows = read_solutions(os.path.join(out_dir, "solutions.csv"))
        errs += check_solution_rows(rows, form, primes, exponent, "solutions.csv")
        have = {r[0] for r in rows}
        if want != have:
            errs.append(f"solutions.csv holds {len(have)} quintuples, brute "
                        f"force finds {len(want)}")
        if rep["solutions_found"] != len(rows):
            errs.append(f"solutions_found {rep['solutions_found']} != "
                        f"{len(rows)} rows")

        # every t-scan row, straight from the definition of S(t)
        marks, scan = _scan_rows(os.path.join(out_dir, "tscan.csv"))
        if marks != {"Delta": par["Delta"], "H": par["H"]}:
            errs.append(f"tscan.csv marks {marks} disagree with report.json")
        if len(scan) != 513:
            errs.append(f"tscan.csv has {len(scan)} rows, expected 513")
        for i, (t, re, im, ab) in enumerate(scan):
            if abs(t - float(ref["H"]) * i / 512) > 1e-12 * float(ref["H"]):
                errs.append(f"tscan row {i}: t = {t!r} off the uniform grid")
                break
            s = mpmath.fsum(w[int(p)] * mpmath.expjpi(2 * mpmath.mpf(t) * int(p) ** 2)
                            for p in primes)
            tol = 1e-9 * float(caps)
            if (abs(re - float(s.real)) > tol or abs(im - float(s.imag)) > tol
                    or abs(ab - float(abs(s))) > tol):
                errs.append(f"tscan row {i} (t = {t!r}): {re!r}+{im!r}i, "
                            f"expected {complex(s)!r}")
                break

    # diagnostics: moment_slope, gap_slope and a_vs_b read FAIL at desk
    # scale by design, so only their presence and recomputable values count
    with open(os.path.join(out_dir, "diagnostics.csv"), encoding="utf-8") as fh:
        diags = {r["name"]: r for r in csv.DictReader(fh)}
    names = ["density_ratio", "kernel_bound", "moment_slope", "gap_slope",
             "a_vs_b", "a_vs_c"]
    if sorted(diags) != sorted(names):
        return errs + [f"diagnostics.csv rows {sorted(diags)}"]
    t_top = x ** 0.5
    recompute = {"density_ratio": len(primes) / (t_top ** gamma / math.log(t_top)),
                 "a_vs_b": abs(a) / abs(b), "a_vs_c": abs(a) / c}
    for name, val in recompute.items():
        if _rel(float(diags[name]["value"]), val) > 1e-12:
            errs.append(f"diagnostic {name} = {diags[name]['value']}, "
                        f"expected {val!r}")
    for name in ("density_ratio", "kernel_bound", "a_vs_c"):
        if diags[name]["pass"] != "true":
            errs.append(f"diagnostic {name} failed: {diags[name]}")
    return errs
