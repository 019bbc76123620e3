"""Benchmark of the psquintet CLI: end-to-end runs, output checks, traced runs.

    python3 psqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy. Every operation is one
`psquintet` CLI invocation in a fresh child process. Invocations repeat, one
after another (a closed loop with one client), until S seconds have passed;
at least one always runs. An operation counts as failed when the child exits
non-zero or its outputs fail the independent checks in checks.py.

--trace 0 reports the end-to-end metrics, medians over the run:
  setup_s       spawn to `psquintet` imported and the config parsed, measured
                in separate probe children, one before each invocation and
                at least SETUP_PROBES per run
  wall_s        spawn to exit of the CLI child
  cpu_s         user + system CPU of the CLI child (os.wait4)
  peak_rss_mib  maximum resident set size of the CLI child (os.wait4)
--trace 1 runs each invocation under traced_cli.py and reports the
per-layer metrics it defines.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. `--workload all` runs every workload listed in
BENCHMARK.json in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import traced_cli

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".psqbench_runs"
SETUP_PROBES = 7    # at least this many set-up probes per run
MIB = float(1 << 20)

# lambda1/lambda2 = sqrt(2); mixed signs as the theorem requires
LAMBDAS = [1.4142135623730951, 1.0, 1.0, 1.0, -3.0]


@dataclass(frozen=True)
class Workload:
    command: str
    threads: int
    config: Callable[[int], dict]
    check: Callable[[str, dict, int], list]
    timeout_s: float = 150.0


def _config(q0_floor: int, **extra) -> Callable[[int], dict]:
    """Config maker: k = 2, gamma = 0.99 unless `extra` overrides them."""
    def make(seed: int) -> dict:
        cfg = {"lambdas": LAMBDAS, "eta": 0.0, "k": 2, "gamma": 0.99,
               "theta": 0.001, "q0_floor": q0_floor, "radius": "theorem",
               "seed": seed}
        cfg.update(extra)
        return cfg
    return make


WORKLOADS = {
    "verify-q12": Workload("verify", 1, _config(12), checks.check_verify),
    # eta stays 0 for every seed: p2^2 + p3^2 + p4^2 - 3 p5^2 is a multiple
    # of 24 for primes above 3, so only the few p1 with sqrt(2) p1^2 + eta
    # within the radius of a multiple of 24 have solutions, and the amount
    # of work swings with eta
    "search-desk": Workload("search", 2, _config(2378, radius=0.05), checks.check_search),
    # reference instances, not in BENCHMARK.json: one tables-k3 invocation
    # runs on one vCPU, so host load that drifts over minutes spreads its
    # run medians past the bound; one verify-pinned or search-q5741
    # invocation takes longer than a run can afford (see README.md)
    "tables-k3": Workload("primes", 1, _config(6625109, k=3, gamma=0.995),
                          checks.check_tables),
    "verify-pinned": Workload("verify", 1, _config(29), checks.check_verify, 900.0),
    "search-q5741": Workload("search", 2, _config(5741, radius=0.05), checks.check_search),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}

_CLI = "import sys; from psquintet.cli import main; sys.exit(main())"
_PROBE = ("import sys, psquintet.cli as c\n"
          "with open(sys.argv[1], encoding='utf-8') as fh: c.parse_config(fh.read())\n"
          "print(c.__file__, flush=True)\n")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@contextmanager
def _killed_after(proc: subprocess.Popen, seconds: float):
    """Kill proc if it still runs after `seconds`, or if the body raises."""
    killer = threading.Timer(seconds, proc.kill)
    killer.start()
    try:
        yield
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()


def probe_setup(cfg_path: Path) -> float:
    """Seconds from spawn until the child has imported psquintet and parsed cfg."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _PROBE, str(cfg_path)],
                            stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT)
    with _killed_after(proc, 60.0):
        line = proc.stdout.readline().decode().strip()
        ready = time.perf_counter() - t0
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or not line.startswith(str(SRC)):
        raise RuntimeError(f"setup probe exited {code}, imported {line!r}")
    return ready


def run_cli(wl: Workload, cfg_path: Path, op_dir: Path, trace_path: Path | None,
            trace_mode: str = "time") -> dict:
    """One CLI invocation in a fresh child; returns its measurements."""
    out = op_dir / "out"
    args = [wl.command, "--config", str(cfg_path), "--out", str(out),
            "--threads", str(wl.threads)]
    if trace_path is None:
        cmd = [sys.executable, "-c", _CLI] + args
    else:
        cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(SRC),
               str(trace_path), trace_mode] + args
    op_dir.mkdir(parents=True)
    with open(op_dir / "stdout.txt", "wb") as fo, open(op_dir / "stderr.txt", "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=_child_env(), cwd=ROOT)
        with _killed_after(proc, wl.timeout_s):
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": code, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mib": usage.ru_maxrss * 1024 / MIB, "out": out}


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()) if out.is_dir() else []:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    cfg = wl.config(seed)
    run_dir = WORK / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
    own = {}
    try:
        setup, ops, layers = [], [], []
        t_start = time.perf_counter()
        while not ops or time.perf_counter() - t_start < seconds:
            i = len(ops)
            if not trace:
                # interleaved, so set-up sees the same machine load as the ops
                setup.append(probe_setup(cfg_path))
            trace_path = run_dir / f"trace-{i}.json" if trace else None
            # the first traced invocation records peak memory, the rest times
            op = run_cli(wl, cfg_path, run_dir / f"op{i}", trace_path,
                         "time" if i else "peak")
            op["digest"] = _digest(op["out"])
            if trace and op["exit"] == 0:
                with open(trace_path, encoding="utf-8") as fh:
                    layers.append(traced_cli.layer_metrics(json.load(fh)))
            ops.append(op)
        while not trace and len(setup) < SETUP_PROBES:
            setup.append(probe_setup(cfg_path))

        # outputs are deterministic: each distinct set of bytes is checked in
        # full once, and an invocation passes when its bytes passed
        verdicts = {}
        for op in ops:
            if op["exit"] == 0 and op["digest"] not in verdicts:
                try:
                    verdicts[op["digest"]] = wl.check(str(op["out"]), cfg, seed)
                except Exception as exc:   # unreadable output fails the invocation
                    verdicts[op["digest"]] = [f"check raised {exc!r}"]
        for op in ops:
            op["errors"] = (verdicts[op["digest"]] if op["exit"] == 0
                            else [f"exit code {op['exit']}: "
                                  + (op["out"].parent / "stderr.txt").read_text()[-500:]])
        if trace and ops[-1]["exit"] == 0:
            keep = WORK / f"trace-{name}-s{seed}.json"
            shutil.copyfile(run_dir / f"trace-{len(ops) - 1}.json", keep)
            with open(keep, encoding="utf-8") as fh:
                own = traced_cli.self_times(json.load(fh)["spans"])[1]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [op for op in ops if op["errors"]]
    good = [op for op in ops if not op["errors"]] or ops
    if trace:
        metrics, notes = (traced_cli.combine(layers[1:], layers[0])
                          if layers and ops[0]["exit"] == 0 else ({}, []))
        units = traced_cli.metric_units()
        timed = good[1:] or good
        extra = {"traced wall_s": statistics.median(op["wall_s"] for op in timed)}
        # self seconds per span in the last invocation, largest first
        for span, sec in sorted(own.items(), key=lambda kv: -kv[1]):
            extra[f"self {span}"] = sec
    else:
        metrics = {"setup_s": statistics.median(setup)}
        for key in ("wall_s", "cpu_s", "peak_rss_mib"):
            metrics[key] = statistics.median(op[key] for op in good)
        notes, units, extra = [], END_TO_END_UNITS, {}
    return {"attempted": len(ops), "failed": len(failed),
            "errors": [e for op in failed for e in op["errors"]][:20],
            "notes": notes, "extra": extra,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "psquintet" / "__init__.py").is_file():
        print(f"error: no psquintet sources at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            names = [w["name"] for w in json.load(fh)["workloads"]]
    else:
        names = [args.workload]

    results = {}
    for name in names:
        res = results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for metric, mv in res["metrics"].items():
            print(f"{name} {metric} {mv['value']:.6g} {mv['unit']}")
        for label, value in res["extra"].items():
            print(f"{name} {label} {value:.6g} s")
        print(f"{name} attempted {res['attempted']} failed {res['failed']}")
        for line in res["notes"] + res["errors"]:
            print(f"{name} {line}")

    if len(names) == 1:
        res = results[names[0]]
        metrics = res["metrics"]
    else:
        res = {"attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values())}
        metrics = {f"{n}.{m}": mv for n, r in results.items()
                   for m, mv in r["metrics"].items()}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
