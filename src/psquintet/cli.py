"""Command line surface: config parsing, subcommands, report emission.

Subcommands:

    primes   build and export the PS prime tables
    kernel   tabulate the smoothing kernel and its transform
    sums     scan |S(t)| along a t grid
    gamma    evaluate the smoothed count directly and via the A/B/C split
    search   hunt for near-zero quintuples
    verify   full run plus the diagnostic suite
    report   full run, diagnostics omitted

Exit codes: 0 success, 2 config/admissibility error, 3 time budget or
capacity exceeded, 1 file IO failure (4 is retired). Diagnostics that
measure out of range are recorded as failed rows in the report, not exit
failures.

All outputs are deterministic for a fixed config and seed: floats print at 17
significant digits, JSON keys are sorted, files land via temp+rename, and the
numeric kernels use fixed reduction orders regardless of --threads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Union

import numpy as np

from ._io import Record, atomic_write_text, canonical_json, csv_blocks, fmt17
from .dh_pipeline import (
    DhParams,
    GammaDecomposition,
    ProblemInstance,
    derive_params,
    gamma_direct,
    gamma_integral,
    instance_tables,
)
from .errors import (
    AdmissibilityError,
    BudgetExceeded,
    CapacityExceeded,
    DegenerateRatio,
    EmptyWindow,
    IoError,
    PsQuintetError,
    SchemaError,
)
from .exp_sums import (Family, GapKind, SumSpec, asym_gap, export_tscan,
                       growth_exponent, growth_ladder, moment_integral, tscan)
from .numerics import (SmoothingKernel, kernel_eval, kernel_fourier,
                       kernel_fourier_bound)
from .ps_primes import DEFAULT_LAMBDA0, THEOREM_TRIPLES, export_table
from .quintet_search import (DEFAULT_MEMORY_MB, QuintetSolutions, export_solutions,
                             search_mitm, within_radius)

_DEFAULT_BUDGETS = {"memory_mb": DEFAULT_MEMORY_MB, "time_s": 1200.0}
# most quintuples solutions.csv lists
_REPORT_LIMIT = 10 ** 6
# exit code and stderr label per error class; any other error propagates
_EXIT_CODES = (
    ((SchemaError, AdmissibilityError, DegenerateRatio, EmptyWindow), 2,
     "config error"),
    ((BudgetExceeded, CapacityExceeded), 3, "budget exceeded"),
    ((IoError,), 1, "io error"),
)


class RunConfig(Record):
    __slots__ = ("instance", "q0_floor", "radius", "budgets", "output_dir", "seed")

    def __init__(self, instance: ProblemInstance, q0_floor: int,
                 radius: Union[float, str], budgets: dict, output_dir: str,
                 seed: int):
        self._set(instance, q0_floor, radius, budgets, output_dir, seed)


class Diagnostic(Record):
    __slots__ = ("name", "value", "bound", "passed")

    def __init__(self, name: str, value: float, bound: float, passed: bool):
        self._set(name, value, bound, passed)


class RunReport(Record):
    __slots__ = ("params", "decomposition", "diagnostics", "solutions",
                 "scan_ts", "scan_values")

    def __init__(self, params: DhParams, decomposition: GammaDecomposition,
                 diagnostics: tuple, solutions: QuintetSolutions,
                 scan_ts: np.ndarray, scan_values: np.ndarray):
        self._set(params, decomposition, diagnostics, solutions, scan_ts,
                  scan_values)


def _want(doc: dict, key: str, kinds, path: str, default=None, required=False):
    if key not in doc:
        if required:
            raise SchemaError(path, "missing required key")
        return default
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, kinds):
        raise SchemaError(path, f"expected {kinds}, got {type(v).__name__}")
    return v


def _double(v, path: str) -> float:
    """A JSON number as a float; an integer too large for a double fails at path."""
    try:
        return float(v)
    except OverflowError:
        raise SchemaError(path, "too large for a double") from None


def parse_config(text: str) -> RunConfig:
    """Validated RunConfig from a JSON document; see the module docstring.

    Structural problems raise SchemaError carrying the offending field path;
    violated theorem hypotheses (sign pattern, gamma range) raise
    AdmissibilityError.
    """
    return _config_from_doc(_json_object(text))


def _json_object(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("$", "top level must be an object")
    return doc


def _config_from_doc(doc: dict) -> RunConfig:
    known = {"lambdas", "eta", "k", "gamma", "theta", "lambda0", "q0_floor",
             "radius", "budgets", "seed", "output_dir"}
    for key in doc:
        if key not in known:
            raise SchemaError(f"$.{key}", "unknown key")

    lambdas = _want(doc, "lambdas", list, "$.lambdas", required=True)
    if len(lambdas) != 5:
        raise SchemaError("$.lambdas", f"need 5 numbers, got {len(lambdas)}")
    for i, l in enumerate(lambdas):
        if isinstance(l, bool) or not isinstance(l, (int, float)):
            raise SchemaError(f"$.lambdas[{i}]", "must be a number")
        if not math.isfinite(_double(l, f"$.lambdas[{i}]")) or l == 0:
            raise SchemaError(f"$.lambdas[{i}]", "must be finite and nonzero")
    eta = _double(_want(doc, "eta", (int, float), "$.eta", required=True), "$.eta")
    if not math.isfinite(eta):
        raise SchemaError("$.eta", "must be finite")
    k = _want(doc, "k", int, "$.k", required=True)
    if k not in THEOREM_TRIPLES:
        raise SchemaError("$.k", f"must be 2, 3 or 4, got {k}")
    gamma = _want(doc, "gamma", (int, float), "$.gamma", required=True)
    if not (0.0 < gamma < 1.0):
        raise SchemaError("$.gamma", f"must be in (0,1), got {gamma}")
    theta = _double(_want(doc, "theta", (int, float), "$.theta", required=True),
                    "$.theta")
    if not (theta > 0 and math.isfinite(theta)):
        raise SchemaError("$.theta", f"must be positive, got {theta}")
    lambda0 = _want(doc, "lambda0", (int, float), "$.lambda0", default=DEFAULT_LAMBDA0)
    if not (0.0 < lambda0 < 1.0):
        raise SchemaError("$.lambda0", f"must be in (0,1), got {lambda0}")
    q0_floor = _want(doc, "q0_floor", int, "$.q0_floor", default=20)
    if q0_floor < 2:
        raise SchemaError("$.q0_floor", f"must be >= 2, got {q0_floor}")
    radius = doc.get("radius", "theorem")
    if isinstance(radius, str):
        if radius != "theorem":
            raise SchemaError("$.radius", f'must be a number or "theorem", '
                                          f'got "{radius}"')
    elif isinstance(radius, bool) or not isinstance(radius, (int, float)):
        raise SchemaError("$.radius", 'must be a number or "theorem"')
    elif not (radius > 0 and math.isfinite(_double(radius, "$.radius"))):
        raise SchemaError("$.radius", f"must be positive, got {radius}")
    else:
        radius = float(radius)
    budgets = dict(_DEFAULT_BUDGETS)
    raw = _want(doc, "budgets", dict, "$.budgets", default={})
    for key, v in raw.items():
        if key not in _DEFAULT_BUDGETS:
            raise SchemaError(f"$.budgets.{key}", "unknown budget")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not v > 0:
            raise SchemaError(f"$.budgets.{key}", "must be a positive number")
        budgets[key] = _double(v, f"$.budgets.{key}")
    seed = _want(doc, "seed", int, "$.seed", default=0)
    if seed < 0:
        raise SchemaError("$.seed", f"must be >= 0, got {seed}")
    output_dir = _want(doc, "output_dir", str, "$.output_dir", default="out")

    inst = ProblemInstance(lambdas, eta, k, gamma, theta, float(lambda0))
    return RunConfig(instance=inst, q0_floor=q0_floor, radius=radius,
                     budgets=budgets, output_dir=output_dir, seed=seed)


def serialize_config(cfg: RunConfig) -> str:
    inst = cfg.instance
    return canonical_json({
        "lambdas": list(inst.lambdas), "eta": inst.eta, "k": inst.k,
        "gamma": inst.gamma, "theta": inst.theta_exp,
        "lambda0": inst.lambda0, "q0_floor": cfg.q0_floor,
        "radius": cfg.radius, "budgets": cfg.budgets,
        "seed": cfg.seed, "output_dir": cfg.output_dir,
    })


def effective_radius(cfg: RunConfig, tables) -> float:
    """Numeric radius; "theorem" widens to cover every achievable max_p."""
    if cfg.radius != "theorem":
        return float(cfg.radius)
    exp = cfg.instance.radius_exponent
    occupied = [t for t in tables if len(t)]
    if not occupied:
        return 1.0  # windows empty; downstream raises EmptyWindow anyway
    # max_p of any quintuple lies between these two extremes
    m_lo = max(int(t.primes[0]) for t in occupied)
    m_hi = max(int(t.primes[-1]) for t in occupied)
    return max(float(m_lo) ** exp, float(m_hi) ** exp)


def report_to_dict(report: RunReport) -> dict:
    dec = report.decomposition
    return {
        "params": {"q0": report.params.q0, "X": report.params.X,
                   "Delta": report.params.Delta, "eps": report.params.eps,
                   "H": report.params.H},
        "A": {"re": dec.A.real, "im": dec.A.imag},
        "B": {"re": dec.B.real, "im": dec.B.imag},
        "C_bound": dec.C_bound,
        "direct": dec.direct,
        "rel_gap": dec.rel_gap,
        "solutions_found": len(report.solutions),
        "diagnostics": [{"name": d.name, "value": d.value, "bound": d.bound,
                         "pass": d.passed} for d in report.diagnostics],
    }


def emit_report(report: RunReport, out_dir: str) -> dict:
    """Write report.json, solutions.csv, tscan.csv, diagnostics.csv.

    Returns {filename: byte size}. Idempotent: identical reports produce
    byte-identical files.
    """
    sizes = {}
    sizes["report.json"] = atomic_write_text(
        os.path.join(out_dir, "report.json"),
        canonical_json(report_to_dict(report)))
    sizes["solutions.csv"] = export_solutions(
        os.path.join(out_dir, "solutions.csv"), report.solutions)
    sizes["tscan.csv"] = export_tscan(
        os.path.join(out_dir, "tscan.csv"), report.scan_ts, report.scan_values,
        {"Delta": report.params.Delta, "H": report.params.H})
    sizes["diagnostics.csv"] = atomic_write_text(
        os.path.join(out_dir, "diagnostics.csv"), csv_blocks(
            "name,value,bound,pass", [[getattr(d, f) for d in report.diagnostics]
                                      for f in ("name", "value", "bound", "passed")]))
    return sizes


class _Deadline:
    def __init__(self, seconds: float):
        self.t0 = time.monotonic()
        self.seconds = seconds

    def check(self, stage: str) -> None:
        spent = time.monotonic() - self.t0
        if spent > self.seconds:
            raise BudgetExceeded(f"time budget {self.seconds:g}s exhausted "
                                 f"after {spent:.2f}s (at {stage})")


def _kernel_for(params: DhParams) -> SmoothingKernel:
    return SmoothingKernel(params.eps, max(1, math.floor(math.log(params.X))))


def _scan_grid(params: DhParams, inst: ProblemInstance, tables):
    spec = SumSpec(Family.S, 2, tables[0].x_max, inst.lambda0, inst.gamma)
    ts = np.linspace(0.0, params.H, 513)
    return ts, tscan(spec, ts, tables[0])


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _DefaultStream:
    """The doubles of NumPy's default_rng(seed).uniform in Python integers:
    SeedSequence(seed).generate_state(4, uint64) seeds a PCG64 (O'Neill,
    HMC-CS-2014-0905: 128-bit LCG, XSL-RR output), and each draw is
    lo + (hi - lo) * (x >> 11) * 2^-53 for the next 64-bit output x."""

    def __init__(self, seed: int):
        words = [seed & _M32]
        while seed >> 32:
            seed >>= 32
            words.append(seed & _M32)
        const = 0x43B0D7E5

        def hashmix(v: int) -> int:
            nonlocal const
            v ^= const
            const = const * 0x931E8875 & _M32
            v = v * const & _M32
            return v ^ v >> 16

        def mix(x: int, y: int) -> int:
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return r ^ r >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for w in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(w))
        const, half = 0x8B51F9DD, []
        for i in range(8):
            v = pool[i % 4] ^ const
            const = const * 0x58F38DED & _M32
            v = v * const & _M32
            half.append(v ^ v >> 16)
        s = [half[2 * j] | half[2 * j + 1] << 32 for j in range(4)]
        self._inc = ((s[2] << 64 | s[3]) << 1 | 1) & _M128
        # srandom: from state 0, one step, add initstate, one more step
        self._state = ((self._inc + (s[0] << 64 | s[1])) * _PCG_MULT
                       + self._inc) & _M128

    def uniform(self, lo: float, hi: float, size: int) -> np.ndarray:
        span, out = hi - lo, []
        state, inc = self._state, self._inc
        for _ in range(size):
            state = (state * _PCG_MULT + inc) & _M128
            rot, v = state >> 122, (state >> 64 ^ state) & _M64
            x = (v >> rot | v << (64 - rot)) & _M64
            out.append(lo + span * ((x >> 11) * 2.0 ** -53))
        self._state = state
        return np.array(out)


def _diagnostics(cfg: RunConfig, params: DhParams, tables, kern: SmoothingKernel,
                 dec: GammaDecomposition, deadline: _Deadline) -> list[Diagnostic]:
    inst = cfg.instance
    # NumPy's default_rng stream for cfg.seed without importing numpy.random,
    # which alone would add about 5 MiB to a verify run's peak
    rng = _DefaultStream(cfg.seed)
    out = []

    ratio = tables[0].density_ratio
    out.append(Diagnostic("density_ratio", ratio, 2.0, 0.5 <= ratio <= 2.0))

    xs = rng.uniform(1e-2 / kern.epsilon, 1e2 / kern.epsilon, size=1000)
    worst = float(np.max(np.abs(kernel_fourier(kern, xs))
                         / kernel_fourier_bound(kern, xs)))
    out.append(Diagnostic("kernel_bound", worst, 1.0, worst <= 1.0))

    # growth ladders need every rung to admit a table window (>= 4)
    rungs = growth_ladder(inst.gamma, max(params.X, 64.0), inst.lambda0, 2)
    vals = []
    for _, table in rungs:
        deadline.check("diagnostics")
        grid = max(4096, 1 << math.ceil(math.log2(4.0 * table.x_max)))
        spec = SumSpec(Family.S, 2, table.x_max, inst.lambda0, inst.gamma)
        vals.append(moment_integral(spec, 4, (0.0, 1.0), grid, table).value)
    slope = growth_exponent(rungs, vals)
    m_bound = 2.0 - inst.gamma + 0.2
    out.append(Diagnostic("moment_slope", slope, m_bound, slope <= m_bound))

    t_grid = np.sort(rng.uniform(0.0, 1.0, size=17))
    _, g_slope = asym_gap(GapKind.S_vs_Sigma, rungs, t_grid)
    g_bound = (21.0 - 7.0 * inst.gamma) / 29.0 + 0.25
    out.append(Diagnostic("gap_slope", g_slope, g_bound, g_slope <= g_bound))

    abs_a, abs_b = abs(dec.A), abs(dec.B)
    ratio_ab = abs_a / abs_b if abs_b > 0 else math.inf
    out.append(Diagnostic("a_vs_b", ratio_ab, 1.0, ratio_ab > 1.0))
    ratio_ac = abs_a / dec.C_bound if dec.C_bound > 0 else math.inf
    out.append(Diagnostic("a_vs_c", ratio_ac, 1.0, ratio_ac > 1.0))
    return out


def _full_run(cfg: RunConfig, params: DhParams, threads: int,
              deadline: _Deadline, with_diagnostics: bool) -> RunReport:
    inst = cfg.instance
    tables = instance_tables(inst, params)
    kern = _kernel_for(params)
    deadline.check("tables")

    # one search serves the report and the direct count: each keeps the
    # prefix of the sorted list that lies inside its own radius
    radius = effective_radius(cfg, tables)
    found = search_mitm(inst, tables, max(radius, kern.epsilon),
                        threads=threads, memory_mb=cfg.budgets["memory_mb"],
                        deadline=lambda: deadline.check("search"))
    sols = within_radius(inst, found, radius)[:_REPORT_LIMIT]
    deadline.check("search")

    direct = gamma_direct(inst, kern, found)
    deadline.check("direct sum")
    dec = gamma_integral(inst, params, kern, tables, threads=threads,
                         direct=direct, deadline=lambda: deadline.check("integral"))
    deadline.check("integral")

    ts, vals = _scan_grid(params, inst, tables)
    diags = (_diagnostics(cfg, params, tables, kern, dec, deadline)
             if with_diagnostics else [])
    deadline.check("diagnostics")
    return RunReport(params=params, decomposition=dec, diagnostics=tuple(diags),
                     solutions=sols, scan_ts=ts, scan_values=vals)


def _load_config(args) -> RunConfig:
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError("$", f"cannot read config {args.config}: {exc}") from exc
    doc = _json_object(text)
    for key in ("output_dir", "seed", "q0_floor", "radius"):
        if getattr(args, key) is not None:
            doc[key] = getattr(args, key)
    return _config_from_doc(doc)


def _number_or_word(text: str) -> Union[float, str]:
    try:
        return float(text)
    except ValueError:
        return text    # "theorem", or a word the config check rejects


def _cmd_primes(cfg: RunConfig, params: DhParams, threads: int,
                deadline: _Deadline) -> int:
    inst = cfg.instance
    tables = instance_tables(inst, params)
    deadline.check("tables")
    path = os.path.join(cfg.output_dir, "primes.csv")
    export_table(tables[0], path)
    print(f"{len(tables[0])} PS primes in the square window "
          f"(density ratio {tables[0].density_ratio:.4f}) -> {path}")
    if inst.k != 2:
        path5 = os.path.join(cfg.output_dir, f"primes_k{inst.k}.csv")
        export_table(tables[4], path5)
        print(f"{len(tables[4])} PS primes in the power-{inst.k} window -> {path5}")
    return 0


def _cmd_kernel(cfg: RunConfig, params: DhParams, threads: int,
                deadline: _Deadline) -> int:
    kern = _kernel_for(params)
    eps = kern.epsilon
    ys = np.linspace(-eps, eps, 257)
    xs = np.geomspace(1e-2 / eps, 1e2 / eps, 257)
    p1 = os.path.join(cfg.output_dir, "kernel_theta.csv")
    atomic_write_text(p1, csv_blocks("y,theta", [
        ys, [kernel_eval(kern, y) for y in ys]]))
    p2 = os.path.join(cfg.output_dir, "kernel_fourier.csv")
    atomic_write_text(p2, csv_blocks("x,fourier,bound", [
        xs, kernel_fourier(kern, xs), kernel_fourier_bound(kern, xs)]))
    print(f"kernel (eps={eps:.6g}, l={kern.l}) -> {p1}, {p2}")
    return 0


def _cmd_sums(cfg: RunConfig, params: DhParams, threads: int,
              deadline: _Deadline) -> int:
    tables = instance_tables(cfg.instance, params)
    deadline.check("tables")
    ts, vals = _scan_grid(params, cfg.instance, tables)
    path = os.path.join(cfg.output_dir, "tscan.csv")
    export_tscan(path, ts, vals, {"Delta": params.Delta, "H": params.H})
    print(f"{len(ts)} scan points on [0, {params.H:.6g}] -> {path}")
    return 0


def _cmd_gamma(cfg: RunConfig, params: DhParams, threads: int,
               deadline: _Deadline) -> int:
    report = _full_run(cfg, params, threads, deadline, with_diagnostics=False)
    path = os.path.join(cfg.output_dir, "report.json")
    atomic_write_text(path, canonical_json(report_to_dict(report)))
    dec = report.decomposition
    print(f"direct = {fmt17(dec.direct)}")
    print(f"A+B    = {fmt17(dec.total.real)} "
          f"(A = {fmt17(dec.A.real)}, B = {fmt17(dec.B.real)})")
    print(f"C_bound = {fmt17(dec.C_bound)}  rel_gap = {fmt17(dec.rel_gap)}")
    print(f"-> {path}")
    return 0


def _cmd_search(cfg: RunConfig, params: DhParams, threads: int,
                deadline: _Deadline) -> int:
    tables = instance_tables(cfg.instance, params)
    deadline.check("tables")
    radius = effective_radius(cfg, tables)
    found = search_mitm(cfg.instance, tables, radius, threads=threads,
                        memory_mb=cfg.budgets["memory_mb"],
                        deadline=lambda: deadline.check("search"))
    deadline.check("search")
    path = os.path.join(cfg.output_dir, "solutions.csv")
    sols = found[:_REPORT_LIMIT]
    export_solutions(path, sols)
    meets = int(found.meets_theorem_radius.sum())
    cut = f"; the first {len(sols)} listed" if len(sols) < len(found) else ""
    print(f"{len(found)} quintuples within radius {radius:.6g} "
          f"({meets} meet the theorem radius{cut}) -> {path}")
    return 0


def _cmd_verify(cfg: RunConfig, params: DhParams, threads: int,
                deadline: _Deadline, with_diagnostics: bool = True) -> int:
    report = _full_run(cfg, params, threads, deadline, with_diagnostics)
    sizes = emit_report(report, cfg.output_dir)
    for d in report.diagnostics:
        print(f"{'PASS' if d.passed else 'FAIL'} {d.name}: "
              f"value={fmt17(d.value)} bound={fmt17(d.bound)}")
    for name in sorted(sizes):
        print(f"wrote {os.path.join(cfg.output_dir, name)} ({sizes[name]} bytes)")
    return 0


_COMMANDS = {
    "primes": _cmd_primes,
    "kernel": _cmd_kernel,
    "sums": _cmd_sums,
    "gamma": _cmd_gamma,
    "search": _cmd_search,
    "verify": _cmd_verify,
    "report": lambda *args: _cmd_verify(*args, with_diagnostics=False),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psquintet",
        description="Prime quintuples under Diophantine inequalities")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", dest="output_dir", help="output directory override")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--q0-floor", type=int)
    parser.add_argument("--radius", type=_number_or_word,
                        help='numeric radius or "theorem"')
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise SchemaError("--threads", f"must be >= 1, got {args.threads}")
        cfg = _load_config(args)
        params = derive_params(cfg.instance, cfg.q0_floor)
        deadline = _Deadline(cfg.budgets["time_s"])
        return _COMMANDS[args.command](cfg, params, args.threads, deadline)
    except PsQuintetError as exc:
        for classes, code, label in _EXIT_CODES:
            if isinstance(exc, classes):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
