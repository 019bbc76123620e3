"""The benchmark's traced run still finds every name it patches.

psqbench/traced_cli.py wraps functions by name at fixed module sites
(cli.derive_params, dh_pipeline.search_mitm, exp_sums.oscillatory_integral,
...); a renamed or removed site makes every traced invocation fail. These
tests run it as the benchmark does, on configs small enough to take well
under a second.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("k,gamma", [(2, 0.99), (3, 0.995)])
def test_traced_verify_runs(tmp_path, k, gamma):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "lambdas": [1.4142135623730951, 1.0, 1.0, 1.0, -3.0], "eta": 0.0,
        "k": k, "gamma": gamma, "theta": 0.001, "q0_floor": 5,
        "radius": "theorem", "seed": 1}))
    trace = tmp_path / "trace.json"
    run = subprocess.run(
        [sys.executable, "psqbench/traced_cli.py", "src", str(trace), "time",
         "verify", "--config", str(cfg), "--out", str(tmp_path / "o")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    doc = json.loads(trace.read_text())
    names = {span[2] for span in doc["spans"]}
    assert "dh_pipeline.derive_params" in names
    assert doc["counts"]["quintet_search.search_mitm_calls"] == 1


def test_traced_search_runs(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "lambdas": [1.4142135623730951, 1.0, 1.0, 1.0, -3.0], "eta": 0.0,
        "k": 2, "gamma": 0.99, "theta": 0.001, "q0_floor": 12,
        "radius": 2.0, "seed": 1}))
    trace, out = tmp_path / "trace.json", tmp_path / "o"
    run = subprocess.run(
        [sys.executable, "psqbench/traced_cli.py", "src", str(trace), "time",
         "search", "--config", str(cfg), "--out", str(out), "--threads", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    doc = json.loads(trace.read_text())
    names = {span[2] for span in doc["spans"]}
    assert {"quintet_search.search_mitm", "quintet_search.pair_build",
            "quintet_search.export_solutions"} <= names
    listed = len((out / "solutions.csv").read_text().splitlines()) - 1
    assert doc["counts"]["quintet_search.solutions"] == listed > 0


def test_traced_integrand_points_count_the_lattice(tmp_path, monkeypatch):
    # the integrand gets the panel lattice as (t, mid, off); the traced
    # count reads len(t), which must stay panels x nodes per quadrature pass
    from psquintet import cli, numerics

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "lambdas": [1.4142135623730951, 1.0, 1.0, 1.0, -3.0], "eta": 0.5,
        "k": 2, "gamma": 0.99, "theta": 0.001, "q0_floor": 12,
        "radius": "theorem", "seed": 1}))
    trace = tmp_path / "trace.json"
    run = subprocess.run(
        [sys.executable, "psqbench/traced_cli.py", "src", str(trace), "time",
         "gamma", "--config", str(cfg), "--out", str(tmp_path / "o")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    counts = json.loads(trace.read_text())["counts"]

    passes = []
    panel_sums = numerics._panel_sums

    def counted(f, edges, nodes, *args):
        passes.append((len(edges) - 1, nodes))
        return panel_sums(f, edges, nodes, *args)

    monkeypatch.setattr(numerics, "_panel_sums", counted)
    assert cli.main(["gamma", "--config", str(cfg), "--out",
                     str(tmp_path / "p")]) == 0
    assert counts["numerics.integrand_points"] == sum(p * n for p, n in passes)
    assert counts["numerics.integrand_calls"] == sum(
        -(-p // max(1, numerics._CHUNK_POINTS // n)) for p, n in passes)
