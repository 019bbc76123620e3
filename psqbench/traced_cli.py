"""Run the psquintet CLI with spans around the public functions of each module.

    python3 psqbench/traced_cli.py SRC_DIR TRACE_JSON peak|time <psquintet arguments>

Each wrapper is installed on the name its caller looks up at run time: for
example dh_pipeline imports search_mitm and build_table by name, so those
names are patched in dh_pipeline as well as where they are defined. Nothing
under SRC_DIR is changed on disk.

A span records a name, its start and end (time.perf_counter seconds) and the
span that was open when it began; spans opened on a worker thread take the
main thread's open span as parent. Counts are recorded at the same
boundaries. Spans and counts stay in memory and are written to TRACE_JSON as
one JSON document when the CLI returns. This process exits with the CLI's
exit code.

With "peak", each search_mitm call also runs under tracemalloc to record its
peak traced memory. tracemalloc slows allocation-heavy code (about 2.8x on
search_mitm), so a traced run takes times from "time" invocations and the
peak from a "peak" invocation.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

MIB = float(1 << 20)

# metric name -> (span name, "total" | "self") for times; units follow
SPAN_METRICS = {
    "cli.main_s": ("cli.main", "total"),
    "cli.self_s": ("cli.main", "self"),
    "cli.emit_report_s": ("cli.emit_report", "total"),
    "ps_primes.build_table_s": ("ps_primes.build_table", "total"),
    "ps_primes.sieve_primes_s": ("ps_primes.sieve_primes", "total"),
    "ps_primes.export_table_s": ("ps_primes.export_table", "total"),
    "quintet_search.search_mitm_s": ("quintet_search.search_mitm", "total"),
    "quintet_search.pair_build_s": ("quintet_search.pair_build", "total"),
    "quintet_search.export_solutions_s": ("quintet_search.export_solutions", "total"),
    "dh_pipeline.derive_params_s": ("dh_pipeline.derive_params", "total"),
    "dh_pipeline.instance_tables_s": ("dh_pipeline.instance_tables", "total"),
    "dh_pipeline.gamma_direct_s": ("dh_pipeline.gamma_direct", "total"),
    "dh_pipeline.gamma_integral_s": ("dh_pipeline.gamma_integral", "total"),
    "numerics.oscillatory_integral_s": ("numerics.oscillatory_integral", "total"),
    "numerics.integrand_s": ("numerics.integrand", "total"),
    "exp_sums.tscan_s": ("exp_sums.tscan", "total"),
    "exp_sums.moment_integral_s": ("exp_sums.moment_integral", "total"),
    "exp_sums.asym_gap_s": ("exp_sums.asym_gap", "total"),
}
COUNT_METRICS = {
    "cli.bytes_written": "bytes",
    "ps_primes.primes_sieved": "count",
    "ps_primes.primes_kept": "count",
    "ps_primes.escalations": "count",
    "quintet_search.search_mitm_calls": "count",
    "quintet_search.pair_sums": "count",
    "quintet_search.solutions": "count",
    "numerics.integrand_points": "count",
    "numerics.integrand_calls": "count",
    "numerics.kernel_eval_calls": "count",
    "exp_sums.moment_grid_points": "count",
}
GAUGE_METRICS = {
    "quintet_search.peak_mib": "MiB",
    "quintet_search.guard_mib": "MiB",
}
RATE_METRICS = {"numerics.points_per_s": "1/s"}


def metric_units() -> dict:
    units = {name: "s" for name in SPAN_METRICS}
    units.update(COUNT_METRICS)
    units.update(GAUGE_METRICS)
    units.update(RATE_METRICS)
    return units


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []      # (id, parent id or None, name, t0, t1)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.gauges = dict.fromkeys(GAUGE_METRICS, 0.0)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._next_id = 0

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def add(self, name: str, n) -> None:
        with self._lock:
            self.counts[name] += n

    def gauge_max(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = max(self.gauges[name], value)

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(result, args, kwargs) records counts."""
        def wrapper(*args, **kwargs):
            stack = self._stack()
            top = stack or self._main_stack
            parent = top[-1] if top else None
            with self._lock:
                sid = self._next_id
                self._next_id += 1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append((sid, parent, name, t0, t1))
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def counter(self, fn, count):
        """fn with count(result) added after each call, no span (hot paths)."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(result)
            return result
        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "gauges": self.gauges}


def _patch(sites, make):
    """Replace one function at every (module, name) site with make(original)."""
    orig = getattr(*sites[0])
    for mod, attr in sites:
        if getattr(mod, attr) is not orig:
            raise RuntimeError(f"{mod.__name__}.{attr} is not the function "
                               f"found at {sites[0][0].__name__}.{sites[0][1]}")
    wrapped = make(orig)
    for mod, attr in sites:
        setattr(mod, attr, wrapped)


def install(tr: Tracer, peak: bool):
    """Patch the psquintet modules; returns the wrapped cli.main."""
    from psquintet import cli, dh_pipeline, exp_sums, ps_primes, quintet_search

    def spans(name, sites, after=None):
        _patch(sites, lambda fn: tr.span(name, fn, after))

    def add_len(metric):
        return lambda result, args, kwargs: tr.add(metric, len(result))

    spans("cli.emit_report", [(cli, "emit_report")])
    spans("_io.atomic_write_text",
          [(cli, "atomic_write_text"), (ps_primes, "atomic_write_text"),
           (quintet_search, "atomic_write_text"), (exp_sums, "atomic_write_text")],
          lambda result, args, kwargs: tr.add("cli.bytes_written", result))

    spans("ps_primes.build_table",
          [(ps_primes, "build_table"), (dh_pipeline, "build_table")],
          add_len("ps_primes.primes_kept"))
    spans("ps_primes.sieve_primes",
          [(ps_primes, "sieve_primes"), (exp_sums, "sieve_primes")],
          add_len("ps_primes.primes_sieved"))
    def count_escalation(result):
        if result[1] == "escalated":
            tr.add("ps_primes.escalations", 1)

    _patch([(ps_primes, "is_ps_prime")], lambda fn: tr.counter(fn, count_escalation))
    spans("ps_primes.export_table", [(cli, "export_table")])

    def with_peak(fn):
        def run(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                top = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                tr.gauge_max("quintet_search.peak_mib", top / MIB)
        return run

    def after_search(result, args, kwargs):
        n = [len(t) for t in (args[1] if len(args) > 1 else kwargs["tables"])]
        tr.add("quintet_search.search_mitm_calls", 1)
        tr.add("quintet_search.solutions", len(result))
        # the memory guard's own estimate inside search_mitm
        tr.gauge_max("quintet_search.guard_mib", 32 * (n[0] * n[1] + n[2] * n[3]) / MIB)

    _patch([(cli, "search_mitm"), (dh_pipeline, "search_mitm")],
           lambda fn: tr.span("quintet_search.search_mitm",
                              with_peak(fn) if peak else fn, after_search))
    half = quintet_search.HalfSumArray
    build = tr.span("quintet_search.pair_build", half.__dict__["build"].__func__,
                    lambda r, a, k: tr.add("quintet_search.pair_sums", len(r.sums)))
    half.build = classmethod(build)
    spans("quintet_search.export_solutions", [(cli, "export_solutions")])

    for fn_name in ("derive_params", "instance_tables", "gamma_direct", "gamma_integral"):
        spans(f"dh_pipeline.{fn_name}", [(cli, fn_name)])

    spans("numerics.oscillatory_integral",
          [(dh_pipeline, "oscillatory_integral"), (exp_sums, "oscillatory_integral")])

    def after_integrand(result, args, kwargs):
        tr.add("numerics.integrand_points", len(args[0]))
        tr.add("numerics.integrand_calls", 1)

    _patch([(dh_pipeline, "_integrand")], lambda make: lambda *a, **k: tr.span(
        "numerics.integrand", make(*a, **k), after_integrand))
    _patch([(dh_pipeline, "kernel_eval"), (cli, "kernel_eval")], lambda fn: tr.counter(
        fn, lambda r: tr.add("numerics.kernel_eval_calls", 1)))

    spans("exp_sums.tscan", [(cli, "tscan")])
    spans("exp_sums.moment_integral", [(cli, "moment_integral")],
          lambda r, a, k: tr.add("exp_sums.moment_grid_points", r.grid_points))
    spans("exp_sums.asym_gap", [(cli, "asym_gap")])
    return tr.span("cli.main", cli.main)


def self_times(spans) -> tuple[dict, dict]:
    """Total and self seconds per span name.

    Self time is a span's duration minus the time its child spans cover;
    children on worker threads can overlap, so it is clipped at zero.
    """
    child = defaultdict(float)
    for _sid, parent, _name, t0, t1 in spans:
        if parent is not None:
            child[parent] += t1 - t0
    total, own = defaultdict(float), defaultdict(float)
    for sid, _parent, name, t0, t1 in spans:
        total[name] += t1 - t0
        own[name] += max(0.0, (t1 - t0) - child[sid])
    return dict(total), dict(own)


def layer_metrics(trace: dict) -> dict:
    """Per-layer metric values of one traced CLI invocation."""
    total, own = self_times(trace["spans"])
    out = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        out[metric] = (total if kind == "total" else own).get(span, 0.0)
    out.update(trace["counts"])
    out.update(trace["gauges"])
    quad = out["numerics.oscillatory_integral_s"]
    out["numerics.points_per_s"] = (out["numerics.integrand_points"] / quad
                                    if quad > 0 else 0.0)
    return out


def combine(timed: list[dict], peak: dict) -> tuple[dict, list[str]]:
    """One set of per-layer values from a run's traced invocations.

    Times: the median over the "time" invocations (the "peak" one when there
    are none). Counts: the first invocation's value, with a note when another
    differs, since they should repeat exactly. Gauges: the "peak" invocation.
    """
    runs = timed or [peak]
    out, notes = {}, []
    for name in peak:
        values = [m[name] for m in [peak] + timed]
        if name in COUNT_METRICS:
            if len(set(values)) > 1:
                notes.append(f"count {name} varied between invocations: {values}")
            out[name] = values[0]
        elif name in GAUGE_METRICS:
            out[name] = peak[name]
        else:
            out[name] = statistics.median(m[name] for m in runs)
    return out, notes


def main(argv: list[str]) -> int:
    src, trace_path, mode, cli_args = argv[0], argv[1], argv[2], argv[3:]
    if mode not in ("peak", "time"):
        raise SystemExit(f"mode must be peak or time, got {mode!r}")
    sys.path.insert(0, src)
    tr = Tracer()
    traced_main = install(tr, mode == "peak")
    try:
        code = traced_main(cli_args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tr.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
