"""Command line surface: config parsing, subcommands, report emission.

Subcommands:

    primes   build and export the PS prime tables
    kernel   tabulate the smoothing kernel and its transform
    sums     scan |S(t)| along a t grid
    gamma    evaluate the smoothed count directly and via the A/B/C split
    search   hunt for near-zero quintuples
    verify   full run plus the diagnostic suite
    report   full run, diagnostics omitted

Exit codes: 0 success, 2 config/admissibility error, 3 budget or capacity
exceeded, 4 quadrature non-convergence, 1 file IO failure. Diagnostics that
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
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._io import atomic_write_text, canonical_json, csv_text, fmt17
from .dh_pipeline import (
    MAX_DIRECT_SOLUTIONS,
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
    NonConvergence,
    PsQuintetError,
    SchemaError,
)
from .exp_sums import Family, GapKind, SumSpec, asym_gap, export_tscan, moment_integral, tscan
from .numerics import SmoothingKernel, kernel_eval, kernel_fourier, kernel_fourier_bound
from .ps_primes import GammaParam, export_table
from .quintet_search import export_solutions, search_mitm, within_radius

_DEFAULT_BUDGETS = {"memory_mb": 2048.0, "max_nodes": 1024, "time_s": 1200.0}
# most quintuples solutions.csv lists
_REPORT_LIMIT = 10 ** 6
# exit code and stderr label per error class; any other error propagates
_EXIT_CODES = (
    ((SchemaError, AdmissibilityError, DegenerateRatio, EmptyWindow), 2,
     "config error"),
    ((BudgetExceeded, CapacityExceeded), 3, "budget exceeded"),
    ((NonConvergence,), 4, "quadrature failed to converge"),
    ((IoError,), 1, "io error"),
)


@dataclass(frozen=True)
class RunConfig:
    instance: ProblemInstance
    q0_floor: int
    radius: Union[float, str]
    budgets: dict
    output_dir: str
    seed: int


@dataclass(frozen=True)
class Diagnostic:
    name: str
    value: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class RunReport:
    params: DhParams
    decomposition: GammaDecomposition
    diagnostics: tuple
    solutions: tuple
    scan_ts: np.ndarray
    scan_values: np.ndarray


def _want(doc: dict, key: str, kinds, path: str, default=None, required=False):
    if key not in doc:
        if required:
            raise SchemaError(path, "missing required key")
        return default
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, kinds):
        raise SchemaError(path, f"expected {kinds}, got {type(v).__name__}")
    return v


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
        if not math.isfinite(l) or l == 0:
            raise SchemaError(f"$.lambdas[{i}]", "must be finite and nonzero")
    eta = float(_want(doc, "eta", (int, float), "$.eta", required=True))
    if not math.isfinite(eta):
        raise SchemaError("$.eta", "must be finite")
    k = _want(doc, "k", int, "$.k", required=True)
    if k not in (2, 3, 4):
        raise SchemaError("$.k", f"must be 2, 3 or 4, got {k}")
    gamma = _want(doc, "gamma", (int, float), "$.gamma", required=True)
    if not (0.0 < gamma < 1.0):
        raise SchemaError("$.gamma", f"must be in (0,1), got {gamma}")
    theta = _want(doc, "theta", (int, float), "$.theta", required=True)
    if not (theta > 0 and math.isfinite(theta)):
        raise SchemaError("$.theta", f"must be positive, got {theta}")
    lambda0 = _want(doc, "lambda0", (int, float), "$.lambda0", default=0.1)
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
    elif not (radius > 0 and math.isfinite(radius)):
        raise SchemaError("$.radius", f"must be positive, got {radius}")
    else:
        radius = float(radius)
    budgets = dict(_DEFAULT_BUDGETS)
    raw = _want(doc, "budgets", dict, "$.budgets", default={})
    for key, v in raw.items():
        if key not in _DEFAULT_BUDGETS:
            raise SchemaError(f"$.budgets.{key}", "unknown budget")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or v <= 0:
            raise SchemaError(f"$.budgets.{key}", "must be a positive number")
        if key == "max_nodes" and not isinstance(v, int):
            raise SchemaError(f"$.budgets.{key}", f"must be an integer, got {v}")
        budgets[key] = v if key == "max_nodes" else float(v)
    seed = _want(doc, "seed", int, "$.seed", default=0)
    if seed < 0:
        raise SchemaError("$.seed", f"must be >= 0, got {seed}")
    output_dir = _want(doc, "output_dir", str, "$.output_dir", default="out")

    inst = ProblemInstance(tuple(float(l) for l in lambdas), eta, k,
                           GammaParam(float(gamma)), float(theta),
                           float(lambda0))
    return RunConfig(instance=inst, q0_floor=q0_floor, radius=radius,
                     budgets=budgets, output_dir=output_dir, seed=seed)


def serialize_config(cfg: RunConfig) -> str:
    inst = cfg.instance
    return canonical_json({
        "lambdas": list(inst.lambdas), "eta": inst.eta, "k": inst.k,
        "gamma": inst.gamma.gamma, "theta": inst.theta_exp,
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
    rows = ([d.name, fmt17(d.value), fmt17(d.bound),
             "true" if d.passed else "false"] for d in report.diagnostics)
    sizes["diagnostics.csv"] = atomic_write_text(
        os.path.join(out_dir, "diagnostics.csv"),
        csv_text(["name", "value", "bound", "pass"], rows))
    return sizes


class _Deadline:
    def __init__(self, seconds: float):
        self.t0 = time.monotonic()
        self.seconds = seconds

    def check(self, stage: str) -> None:
        spent = time.monotonic() - self.t0
        if spent > self.seconds:
            raise BudgetExceeded(f"time budget {self.seconds:.0f}s exhausted "
                                 f"after {spent:.0f}s (at {stage})")


def _kernel_for(params: DhParams) -> SmoothingKernel:
    return SmoothingKernel(params.eps, max(1, math.floor(math.log(params.X))))


def _scan_grid(params: DhParams, inst: ProblemInstance, tables):
    spec = SumSpec(Family.S, 2, tables[0].x_max, inst.lambda0, inst.gamma)
    ts = np.linspace(0.0, params.H, 513)
    return ts, tscan(spec, ts, tables[0])


def _diagnostics(cfg: RunConfig, params: DhParams, tables,
                 dec: GammaDecomposition) -> list[Diagnostic]:
    inst = cfg.instance
    rng = np.random.default_rng(cfg.seed)
    out = []

    ratio = tables[0].density_ratio
    out.append(Diagnostic("density_ratio", ratio, 2.0, 0.5 <= ratio <= 2.0))

    kern = _kernel_for(params)
    xs = rng.uniform(1e-2 / kern.epsilon, 1e2 / kern.epsilon, size=1000)
    worst = float(np.max(np.abs(kernel_fourier(kern, xs))
                         / kernel_fourier_bound(kern, xs)))
    out.append(Diagnostic("kernel_bound", worst, 1.0, worst <= 1.0))

    # growth ladders need every rung to admit a table window (>= 4)
    x_top = max(params.X, 64.0)
    vals = []
    ladder = [x_top / 16.0, x_top / 4.0, x_top]
    for x in ladder:
        grid = max(4096, 1 << math.ceil(math.log2(4.0 * x)))
        spec = SumSpec(Family.S, 2, x, inst.lambda0, inst.gamma)
        from .ps_primes import build_table
        table = build_table(inst.gamma, x, inst.lambda0, 2)
        vals.append(moment_integral(spec, 4, (0.0, 1.0), grid, table).value)
    slope = float(np.polyfit(np.log(ladder), np.log(np.maximum(vals, 1e-300)),
                             1)[0])
    m_bound = 2.0 - inst.gamma.gamma + 0.2
    out.append(Diagnostic("moment_slope", slope, m_bound, slope <= m_bound))

    t_grid = np.sort(rng.uniform(0.0, 1.0, size=17))
    _, g_slope = asym_gap(GapKind.S_vs_Sigma, 2, inst.gamma, x_top,
                          inst.lambda0, t_grid)
    g_bound = (21.0 - 7.0 * inst.gamma.gamma) / 29.0 + 0.25
    out.append(Diagnostic("gap_slope", g_slope, g_bound, g_slope <= g_bound))

    abs_a, abs_b = abs(dec.A), abs(dec.B)
    ratio_ab = abs_a / abs_b if abs_b > 0 else math.inf
    out.append(Diagnostic("a_vs_b", ratio_ab, 1.0, ratio_ab > 1.0))
    ratio_ac = abs_a / dec.C_bound if dec.C_bound > 0 else math.inf
    out.append(Diagnostic("a_vs_c", ratio_ac, 1.0, ratio_ac > 1.0))
    return out


def _full_run(cfg: RunConfig, params: DhParams, threads: int,
              with_diagnostics: bool) -> RunReport:
    deadline = _Deadline(cfg.budgets["time_s"])
    inst = cfg.instance
    tables = instance_tables(inst, params)
    kern = _kernel_for(params)
    deadline.check("tables")

    # one search serves the report and the direct count: each keeps the
    # prefix of the sorted list that lies inside its own radius
    radius = effective_radius(cfg, tables)
    found = search_mitm(inst, tables, max(radius, kern.epsilon),
                        limit=MAX_DIRECT_SOLUTIONS, threads=threads,
                        memory_mb=cfg.budgets["memory_mb"])
    sols = within_radius(inst, found, radius)[:_REPORT_LIMIT]
    deadline.check("search")

    direct = gamma_direct(inst, params, kern, tables, solutions=found)
    deadline.check("direct sum")
    dec = gamma_integral(inst, params, kern, tables, threads=threads,
                         nodes_cap=cfg.budgets["max_nodes"], direct=direct,
                         deadline=lambda: deadline.check("integral"))
    deadline.check("integral")

    ts, vals = _scan_grid(params, inst, tables)
    diags = _diagnostics(cfg, params, tables, dec) if with_diagnostics else []
    deadline.check("diagnostics")
    return RunReport(params=params, decomposition=dec, diagnostics=tuple(diags),
                     solutions=tuple(sols), scan_ts=ts, scan_values=vals)


def _load_config(args) -> RunConfig:
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError("$", f"cannot read config {args.config}: {exc}") from exc
    doc = _json_object(text)
    try:
        radius = float(args.radius)
    except (TypeError, ValueError):
        radius = args.radius    # None, "theorem" or a string the check rejects
    flags = {"output_dir": args.out, "seed": args.seed,
             "q0_floor": args.q0_floor, "radius": radius}
    doc.update((key, v) for key, v in flags.items() if v is not None)
    return _config_from_doc(doc)


def _cmd_primes(cfg: RunConfig, params: DhParams, threads: int) -> int:
    inst = cfg.instance
    tables = instance_tables(inst, params)
    path = os.path.join(cfg.output_dir, "primes.csv")
    export_table(tables[0], path)
    print(f"{len(tables[0])} PS primes in the square window "
          f"(density ratio {tables[0].density_ratio:.4f}) -> {path}")
    if inst.k != 2:
        path5 = os.path.join(cfg.output_dir, f"primes_k{inst.k}.csv")
        export_table(tables[4], path5)
        print(f"{len(tables[4])} PS primes in the power-{inst.k} window -> {path5}")
    return 0


def _cmd_kernel(cfg: RunConfig, params: DhParams, threads: int) -> int:
    kern = _kernel_for(params)
    eps = kern.epsilon
    p1 = os.path.join(cfg.output_dir, "kernel_theta.csv")
    atomic_write_text(p1, csv_text(["y", "theta"], (
        [fmt17(y), fmt17(kernel_eval(kern, float(y)))]
        for y in np.linspace(-eps, eps, 257))))
    p2 = os.path.join(cfg.output_dir, "kernel_fourier.csv")
    atomic_write_text(p2, csv_text(["x", "fourier", "bound"], (
        [fmt17(x), fmt17(float(kernel_fourier(kern, x))),
         fmt17(float(kernel_fourier_bound(kern, x)))]
        for x in np.geomspace(1e-2 / eps, 1e2 / eps, 257))))
    print(f"kernel (eps={eps:.6g}, l={kern.l}) -> {p1}, {p2}")
    return 0


def _cmd_sums(cfg: RunConfig, params: DhParams, threads: int) -> int:
    tables = instance_tables(cfg.instance, params)
    ts, vals = _scan_grid(params, cfg.instance, tables)
    path = os.path.join(cfg.output_dir, "tscan.csv")
    export_tscan(path, ts, vals, {"Delta": params.Delta, "H": params.H})
    print(f"{len(ts)} scan points on [0, {params.H:.6g}] -> {path}")
    return 0


def _cmd_gamma(cfg: RunConfig, params: DhParams, threads: int) -> int:
    report = _full_run(cfg, params, threads, with_diagnostics=False)
    path = os.path.join(cfg.output_dir, "report.json")
    atomic_write_text(path, canonical_json(report_to_dict(report)))
    dec = report.decomposition
    print(f"direct = {fmt17(dec.direct)}")
    print(f"A+B    = {fmt17(dec.total.real)} "
          f"(A = {fmt17(dec.A.real)}, B = {fmt17(dec.B.real)})")
    print(f"C_bound = {fmt17(dec.C_bound)}  rel_gap = {fmt17(dec.rel_gap)}")
    print(f"-> {path}")
    return 0


def _cmd_search(cfg: RunConfig, params: DhParams, threads: int) -> int:
    tables = instance_tables(cfg.instance, params)
    radius = effective_radius(cfg, tables)
    sols = search_mitm(cfg.instance, tables, radius, limit=_REPORT_LIMIT,
                       threads=threads, memory_mb=cfg.budgets["memory_mb"])
    path = os.path.join(cfg.output_dir, "solutions.csv")
    export_solutions(path, sols)
    meets = sum(1 for s in sols if s.meets_theorem_radius)
    print(f"{len(sols)} quintuples within radius {radius:.6g} "
          f"({meets} meet the theorem radius) -> {path}")
    return 0


def _cmd_verify(cfg: RunConfig, params: DhParams, threads: int,
                with_diagnostics: bool = True) -> int:
    report = _full_run(cfg, params, threads, with_diagnostics)
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
    # a lambda, not functools.partial: its __doc__ is None like the others'
    "report": lambda *args: _cmd_verify(*args, with_diagnostics=False),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psquintet",
        description="Prime quintuples under Diophantine inequalities")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--q0-floor", dest="q0_floor", type=int, default=None)
        p.add_argument("--radius", default=None,
                       help='numeric radius or "theorem"')
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        params = derive_params(cfg.instance, cfg.q0_floor)
        return _COMMANDS[args.command](cfg, params, max(1, args.threads))
    except PsQuintetError as exc:
        for classes, code, label in _EXIT_CODES:
            if isinstance(exc, classes):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
