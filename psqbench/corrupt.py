"""Show that each workload's output check rejects corrupted copies of its output.

    python3 psqbench/corrupt.py [--seed N]

For every workload in BENCHMARK.json this runs the CLI once, checks the
untouched outputs (they must pass), then checks corrupted copies (each must
fail): a dropped prime, a perturbed value, a missing solution and the like.
One line per case; the exit code is 1 if an untouched output fails or a
corrupted one passes.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys

import checks
import run


# An edit maps (lines of the file, config, seed) to the corrupted lines.

def _drop_line(index: int):
    return lambda lines, cfg, seed: lines[:index] + lines[index + 1:]


def _edit_field(index: int, column: int, change):
    def edit(lines, cfg, seed):
        fields = lines[index].rstrip("\n").split(",")
        fields[column] = change(fields[column])
        return lines[:index] + [",".join(fields) + "\n"] + lines[index + 1:]
    return edit


def _next_float(text: str) -> str:
    return repr(math.nextafter(float(text), math.inf))


def _edit_report(key_path, change):
    def edit(lines, cfg, seed):
        doc = json.loads("".join(lines))
        node = doc
        for key in key_path[:-1]:
            node = node[key]
        node[key_path[-1]] = change(node[key_path[-1]])
        return [json.dumps(doc) + "\n"]
    return edit


def _missing_solution(lines, cfg: dict, seed: int):
    """Drop a row that the completeness sample finds on its own."""
    found = checks.complete_sample(*checks.search_setup(cfg), cfg, seed)
    target = ",".join(map(str, min(found))) + ","
    return [line for line in lines if not line.startswith(target)]


# workload -> [(case, file, edit)]
CASES = {
    "tables-k3": [
        ("dropped prime", "primes.csv", _drop_line(4321)),
        ("dropped cube-window prime", "primes_k3.csv", _drop_line(17)),
        ("perturbed weight", "primes.csv",
         _edit_field(99, 1, lambda f: repr(float(f) * (1 + 1e-12)))),
    ],
    "search-desk": [
        ("missing solution", "solutions.csv", _missing_solution),
        ("perturbed value", "solutions.csv", _edit_field(500, 5, _next_float)),
        ("swapped rows", "solutions.csv",
         lambda lines, cfg, seed: lines[:7] + [lines[8], lines[7]] + lines[9:]),
        ("flipped theorem flag", "solutions.csv",
         _edit_field(3, 7, lambda f: "false" if f == "true" else "true")),
    ],
    "verify-q12": [
        ("perturbed direct count", "report.json",
         _edit_report(["direct"], lambda v: v + 1e-6)),
        ("perturbed B", "report.json",
         _edit_report(["B", "re"], lambda v: v + 10.0)),
        ("perturbed X", "report.json",
         _edit_report(["params", "X"], lambda v: v * (1 + 1e-9))),
        ("perturbed t-scan value", "tscan.csv",
         _edit_field(200, 1, lambda f: repr(float(f) + 1e-6))),
        ("dropped diagnostic", "diagnostics.csv", _drop_line(2)),
    ],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    base = run.WORK / "corrupt"
    shutil.rmtree(base, ignore_errors=True)
    bad = 0
    try:
        for name in names:
            wl = run.WORKLOADS[name]
            cfg = wl.config(args.seed)
            cfg_path = base / name / "config.json"
            cfg_path.parent.mkdir(parents=True)
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            op = run.run_cli(wl, cfg_path, base / name / "op", None)
            if op["exit"] != 0:
                print(f"{name}: CLI exited {op['exit']}")
                return 1
            errs = wl.check(str(op["out"]), cfg, args.seed)
            bad += bool(errs)
            print(f"{name} untouched: {'passed' if not errs else 'FAILED ' + errs[0]}")
            for case, filename, edit in CASES[name]:
                copy = base / name / case.replace(" ", "-")
                shutil.copytree(op["out"], copy)
                path = copy / filename
                lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
                path.write_text("".join(edit(lines, cfg, args.seed)), encoding="utf-8")
                errs = wl.check(str(copy), cfg, args.seed)
                bad += not errs
                print(f"{name} {case}: "
                      f"{'rejected: ' + errs[0] if errs else 'NOT REJECTED'}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
