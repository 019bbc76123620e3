"""Config parsing, report emission, subcommands, exit codes."""

import json
import math
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from psquintet import cli
from psquintet.cli import (
    RunConfig,
    RunReport,
    effective_radius,
    emit_report,
    main,
    parse_config,
    serialize_config,
)
from psquintet.dh_pipeline import (
    DhParams,
    GammaDecomposition,
    derive_params,
    gamma_direct,
    instance_tables,
)
from psquintet.errors import (
    AdmissibilityError,
    BudgetExceeded,
    CapacityExceeded,
    DegenerateRatio,
    EmptyWindow,
    IoError,
    NonConvergence,
    SchemaError,
    SpecMismatch,
)
from psquintet.ps_primes import GammaParam, build_table
from psquintet.quintet_search import QuintetSolution

SQRT2 = math.sqrt(2.0)

BASE_DOC = {
    "lambdas": [SQRT2, 1.0, 1.0, 1.0, -3.0],
    "eta": 0.0,
    "k": 2,
    "gamma": 0.99,
    "theta": 0.001,
}


def make_doc(**over):
    doc = dict(BASE_DOC)
    doc.update(over)
    return json.dumps(doc)


def write_cfg(path, **over):
    # small q0 keeps every subcommand below a second
    over.setdefault("q0_floor", 5)
    over.setdefault("radius", 2.0)
    over.setdefault("seed", 7)
    path.write_text(make_doc(**over))
    return str(path)


# ---------------------------------------------------------------- parsing


def test_minimal_doc_fills_defaults():
    cfg = parse_config(make_doc())
    assert cfg.instance.lambdas == (SQRT2, 1.0, 1.0, 1.0, -3.0)
    assert cfg.instance.k == 2
    assert cfg.instance.lambda0 == 0.1
    assert cfg.q0_floor == 20
    assert cfg.radius == "theorem"
    assert cfg.budgets == {"memory_mb": 2048.0, "max_nodes": 1024,
                           "time_s": 1200.0}
    assert cfg.seed == 0
    assert cfg.output_dir == "out"


def test_all_positive_lambdas_inadmissible():
    with pytest.raises(AdmissibilityError, match="same sign"):
        parse_config(make_doc(lambdas=[1.0, 2.0, 1.0, 1.0, 3.0]))


def test_gamma_below_theorem_range():
    with pytest.raises(AdmissibilityError, match="71/72"):
        parse_config(make_doc(gamma=0.95))


def test_not_json_names_top_level():
    with pytest.raises(SchemaError, match=r"\$"):
        parse_config("{nope")


def test_top_level_must_be_object():
    with pytest.raises(SchemaError):
        parse_config("[1, 2, 3]")


@pytest.mark.parametrize("doc,path", [
    (json.dumps({k: v for k, v in BASE_DOC.items() if k != "lambdas"}),
     "$.lambdas"),
    (make_doc(lambdas=[1.0, 1.0, 1.0, -3.0]), "$.lambdas"),
    (make_doc(lambdas=[1.0, 1.0, "x", 1.0, -3.0]), r"$.lambdas[2]"),
    (make_doc(lambdas=[1.0, 1.0, 0.0, 1.0, -3.0]), r"$.lambdas[2]"),
    (make_doc(k=5), "$.k"),
    (make_doc(k=True), "$.k"),
    (make_doc(gamma=1.5), "$.gamma"),
    (make_doc(theta=-1.0), "$.theta"),
    (make_doc(lambda0=1.5), "$.lambda0"),
    (make_doc(q0_floor=0), "$.q0_floor"),
    (make_doc(radius="huge"), "$.radius"),
    (make_doc(radius=-2.0), "$.radius"),
    (make_doc(frobnicate=1), "$.frobnicate"),
    (make_doc(budgets={"fuel": 3}), "$.budgets.fuel"),
    (make_doc(budgets={"memory_mb": -1}), "$.budgets.memory_mb"),
    (make_doc(seed="zero"), "$.seed"),
    (make_doc(q0_floor=1), "$.q0_floor"),
    (make_doc(seed=-1), "$.seed"),
    (make_doc(budgets={"max_nodes": 0.5}), "$.budgets.max_nodes"),
    (make_doc(budgets={"max_nodes": 300.7}), "$.budgets.max_nodes"),
])
def test_schema_error_carries_field_path(doc, path):
    with pytest.raises(SchemaError) as exc:
        parse_config(doc)
    assert path in str(exc.value)


def test_round_trip_defaults():
    cfg = parse_config(make_doc())
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_everything_set():
    cfg = parse_config(make_doc(
        lambdas=[2.5, -1.25, 0.75, 1.0, -3.5], eta=-4.75, k=3, gamma=0.995,
        theta=0.002, lambda0=0.2, q0_floor=7, radius=1.5,
        budgets={"memory_mb": 512, "max_nodes": 256, "time_s": 60},
        seed=11, output_dir="elsewhere"))
    assert parse_config(serialize_config(cfg)) == cfg


def test_numeric_radius_passes_through():
    cfg = parse_config(make_doc(radius=3.5))
    assert effective_radius(cfg, []) == 3.5


def test_theorem_radius_covers_window_extremes():
    cfg = parse_config(make_doc())
    table = build_table(GammaParam(0.99), 961.0, 0.02, 2)
    assert len(table) >= 2
    exp = (71.0 - 72.0 * 0.99) / 29.0 + 0.001
    want = max(float(table.primes[0]) ** exp, float(table.primes[-1]) ** exp)
    got = effective_radius(cfg, [table] * 5)
    assert got == pytest.approx(want, rel=1e-12)


# the three theorems as the modules spelled them before they shared a table
OLD_THEOREMS = {
    2: (lambda g: (71.0 - 72.0 * g) / 29.0, lambda g: (71.0 - 72.0 * g) / 58.0,
        71 / 72, "71/72"),
    3: (lambda g: (129.0 - 130.0 * g) / 58.0,
        lambda g: (129.0 - 130.0 * g) / 116.0, 129 / 130, "129/130"),
    4: (lambda g: (245.0 - 246.0 * g) / 116.0,
        lambda g: (245.0 - 246.0 * g) / 232.0, 245 / 246, "245/246"),
}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_theorem_exponents_match_old_literals(k):
    radius_exp, eps_exp, g_min, text = OLD_THEOREMS[k]
    below, above = math.nextafter(g_min, 0.0), math.nextafter(g_min, 1.0)
    assert [GammaParam(g).theorem_admissible(k) for g in (below, g_min, above)] \
        == [False, False, True]
    with pytest.raises(AdmissibilityError, match=text):
        parse_config(make_doc(k=k, gamma=g_min))
    table = build_table(GammaParam(0.99), 961.0, 0.02, 2)
    rng = np.random.default_rng(k)
    for g in [above, *rng.uniform(g_min, 1.0, size=50)]:
        g = float(g)
        cfg = parse_config(make_doc(k=k, gamma=g, theta=0.002))
        exp = radius_exp(g) + 0.002
        assert effective_radius(cfg, [table] * 5) == max(
            float(table.primes[0]) ** exp, float(table.primes[-1]) ** exp)
        params = derive_params(cfg.instance, 12)
        assert params.eps == params.X ** (eps_exp(g) + 0.002)


# ------------------------------------------------------------ emit_report


def tiny_report(solutions=(), diagnostics=()):
    params = DhParams(q0=5, X=31.731537849473135, Delta=0.13829244284618936,
                      eps=0.98685401709273135, H=12.112226971464933)
    dec = GammaDecomposition(A=complex(9.32, 0.0), B=complex(-7.32, 0.0),
                             C_bound=5.27, total=complex(2.0, 0.0),
                             direct=2.0028)
    return RunReport(params=params, decomposition=dec,
                     diagnostics=tuple(diagnostics),
                     solutions=tuple(solutions),
                     scan_ts=np.array([]), scan_values=np.array([], dtype=complex))


def test_empty_report_manifest(tmp_path):
    sizes = emit_report(tiny_report(), str(tmp_path))
    assert sorted(sizes) == ["diagnostics.csv", "report.json",
                             "solutions.csv", "tscan.csv"]
    for name, n in sizes.items():
        assert os.path.getsize(tmp_path / name) == n
    lines = (tmp_path / "solutions.csv").read_text().splitlines()
    assert lines == ["p1,p2,p3,p4,p5,value,max_p,meets_theorem_radius"]


def test_three_solutions_four_lines(tmp_path):
    sols = [QuintetSolution((2, 2, 3, 3, p5), 0.25 * i, 1.0, max(3, p5), False)
            for i, p5 in enumerate((2, 3, 5))]
    emit_report(tiny_report(solutions=sols), str(tmp_path))
    lines = (tmp_path / "solutions.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("2,2,3,3,2,")


def test_emit_is_idempotent(tmp_path):
    rep = tiny_report(solutions=[
        QuintetSolution((2, 3, 5, 7, 11), -0.5, 2.0, 11, True)])
    first = emit_report(rep, str(tmp_path))
    blobs = {n: (tmp_path / n).read_bytes() for n in first}
    second = emit_report(rep, str(tmp_path))
    assert first == second
    for n in first:
        assert (tmp_path / n).read_bytes() == blobs[n]


def test_report_json_shape(tmp_path):
    emit_report(tiny_report(), str(tmp_path))
    doc = json.loads((tmp_path / "report.json").read_text())
    assert set(doc) == {"params", "A", "B", "C_bound", "direct", "rel_gap",
                        "solutions_found", "diagnostics"}
    assert set(doc["params"]) == {"q0", "X", "Delta", "eps", "H"}
    assert doc["A"]["im"] == 0.0
    assert doc["solutions_found"] == 0
    assert doc["diagnostics"] == []


# ------------------------------------------------------------ subcommands


def test_primes_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main(["primes", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "primes.csv").read_text()
    assert text.splitlines()[0] == "p,weight"
    assert "PS primes" in capsys.readouterr().out


def test_outputs_take_the_umask_mode(tmp_path):
    cfg = write_cfg(tmp_path / "c.json")
    out = tmp_path / "o"
    old = os.umask(0o022)
    try:
        assert main(["primes", "--config", cfg, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.filemode((out / "primes.csv").stat().st_mode) == "-rw-r--r--"


def test_kernel_subcommand(tmp_path):
    cfg = write_cfg(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main(["kernel", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "kernel_theta.csv").exists()
    rows = (out / "kernel_fourier.csv").read_text().splitlines()
    assert rows[0] == "x,fourier,bound"
    for row in rows[1:]:
        _, val, bound = row.split(",")
        assert abs(float(val)) <= float(bound) * (1.0 + 1e-12)


def test_sums_subcommand(tmp_path):
    cfg = write_cfg(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main(["sums", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "tscan.csv").read_text().splitlines()
    assert lines[0].startswith("# Delta = ")
    assert lines[1].startswith("# H = ")
    assert lines[2] == "t,re,im,abs"


def test_gamma_subcommand_report(tmp_path):
    cfg = write_cfg(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main(["gamma", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    total = doc["A"]["re"] + doc["B"]["re"]
    # split must agree with the direct sum well inside the tail allowance
    assert abs(total - doc["direct"]) <= max(0.05 * abs(doc["direct"]),
                                             doc["C_bound"])
    assert doc["rel_gap"] < 1e-3


def test_search_subcommand(tmp_path):
    cfg = write_cfg(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main(["search", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "solutions.csv").read_text().splitlines()
    assert len(lines) > 1
    vals = [abs(float(r.split(",")[5])) for r in lines[1:]]
    assert vals == sorted(vals)
    assert all(v < 2.0 for v in vals)


def test_verify_emits_all_four(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    for name in ("report.json", "solutions.csv", "tscan.csv",
                 "diagnostics.csv"):
        assert (out / name).exists()
    console = capsys.readouterr().out
    doc = json.loads((out / "report.json").read_text())
    names = [d["name"] for d in doc["diagnostics"]]
    assert names == ["density_ratio", "kernel_bound", "moment_slope",
                     "gap_slope", "a_vs_b", "a_vs_c"]
    for d in doc["diagnostics"]:
        tag = "PASS" if d["pass"] else "FAIL"
        assert f"{tag} {d['name']}" in console


def test_verify_deterministic_across_threads(tmp_path):
    cfg = write_cfg(tmp_path / "c.json")
    out1, out4 = tmp_path / "o1", tmp_path / "o4"
    assert main(["verify", "--config", cfg, "--out", str(out1),
                 "--threads", "1"]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out4),
                 "--threads", "4"]) == 0
    for name in ("report.json", "solutions.csv", "tscan.csv",
                 "diagnostics.csv"):
        assert (out1 / name).read_bytes() == (out4 / name).read_bytes()


def test_report_subcommand_skips_diagnostics(tmp_path):
    cfg = write_cfg(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["diagnostics"] == []
    assert doc["solutions_found"] > 0
    # report is verify without the diagnostics, and its report.json is gamma's
    out_g, out_v = tmp_path / "g", tmp_path / "v"
    assert main(["gamma", "--config", cfg, "--out", str(out_g)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out_v)]) == 0
    assert (out / "report.json").read_bytes() == (out_g / "report.json").read_bytes()
    for name in ("solutions.csv", "tscan.csv"):
        assert (out / name).read_bytes() == (out_v / name).read_bytes()
    assert (out / "diagnostics.csv").read_text() == "name,value,bound,pass\n"


# ----------------------------------------------------- flags and exit codes


def test_radius_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", radius=2.0)
    out = tmp_path / "o"
    assert main(["search", "--config", cfg, "--out", str(out),
                 "--radius", "0.001"]) == 0
    lines = (out / "solutions.csv").read_text().splitlines()
    assert len(lines) == 1  # header only: nothing that close to zero


def test_q0_floor_flag_changes_scale(tmp_path):
    cfg = write_cfg(tmp_path / "c.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["gamma", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["gamma", "--config", cfg, "--out", str(out_b),
                 "--q0-floor", "10"]) == 0
    xa = json.loads((out_a / "report.json").read_text())["params"]["X"]
    xb = json.loads((out_b / "report.json").read_text())["params"]["X"]
    assert xb > xa
    assert json.loads((out_b / "report.json").read_text())["params"]["q0"] == 12


def test_seed_flag_changes_diagnostic_draws(tmp_path):
    cfg = write_cfg(tmp_path / "c.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out_b),
                 "--seed", "123"]) == 0
    da = json.loads((out_a / "report.json").read_text())["diagnostics"]
    db = json.loads((out_b / "report.json").read_text())["diagnostics"]
    ka = next(d for d in da if d["name"] == "kernel_bound")
    kb = next(d for d in db if d["name"] == "kernel_bound")
    assert ka["value"] != kb["value"]


def test_exit_code_config_error(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(make_doc(lambdas=[1.0, 2.0, 1.0, 1.0, 3.0]))
    assert main(["gamma", "--config", str(p), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("over,flags,path", [
    ({"q0_floor": 1}, [], "$.q0_floor"),
    ({}, ["--q0-floor", "0"], "$.q0_floor"),
    ({}, ["--q0-floor", "1"], "$.q0_floor"),
    ({"seed": -1}, [], "$.seed"),
    ({}, ["--seed", "-5"], "$.seed"),
])
@pytest.mark.parametrize("command", ["gamma", "search"])
def test_rejected_field_writes_nothing(tmp_path, capsys, command, over, flags,
                                       path):
    cfg = write_cfg(tmp_path / "c.json", **over)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), *flags]) == 2
    assert path in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("over,command,needle", [
    ({"budgets": {"max_nodes": 0.5}}, "gamma", "$.budgets.max_nodes"),
    ({"budgets": {"max_nodes": 300.7}}, "gamma", "$.budgets.max_nodes"),
    # H = log^2 X / eps falls below Delta: no oscillatory range is left
    ({"theta": 1.5, "q0_floor": 12}, "gamma", "theta=1.5"),
    ({"theta": 1.5, "q0_floor": 12}, "report", "theta=1.5"),
    ({"theta": 1.5, "q0_floor": 12}, "verify", "theta=1.5"),
    # eps = X^(e/2 + theta) overflows in every subcommand
    *(({"theta": 1000}, command, "theta=1000")
      for command in ("primes", "kernel", "sums", "gamma", "search", "verify",
                      "report")),
])
def test_inadmissible_budget_or_theta_writes_nothing(tmp_path, capsys, over,
                                                     command, needle):
    cfg = write_cfg(tmp_path / "c.json", **over)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_flags_override_before_validation(tmp_path):
    # the flag replaces the config's value before the one validation runs
    cfg = write_cfg(tmp_path / "c.json", q0_floor=0, seed=-1)
    out = tmp_path / "o"
    assert main(["primes", "--config", cfg, "--out", str(out),
                 "--q0-floor", "5", "--seed", "3"]) == 0
    assert (out / "primes.csv").exists()


def test_exit_code_io_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.json")
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["primes", "--config", cfg, "--out", str(blocker)]) == 1
    assert "io error" in capsys.readouterr().err


def test_exit_code_degenerate_ratio(tmp_path, capsys):
    # lambda1/lambda2 = 2 has the single convergent 2/1, below any floor
    cfg = write_cfg(tmp_path / "c.json", lambdas=[2.0, 1.0, 1.0, 1.0, -3.0])
    assert main(["gamma", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "no convergent denominator" in capsys.readouterr().err


@pytest.mark.parametrize("exc,code,label", [
    (SchemaError("$.x", "m"), 2, "config error"),
    (AdmissibilityError("m"), 2, "config error"),
    (DegenerateRatio("m"), 2, "config error"),
    (EmptyWindow("m"), 2, "config error"),
    (BudgetExceeded("m"), 3, "budget exceeded"),
    (CapacityExceeded("m"), 3, "budget exceeded"),
    (NonConvergence("m"), 4, "quadrature failed to converge"),
    (IoError("m"), 1, "io error"),
])
def test_exit_code_per_error_class(tmp_path, monkeypatch, capsys, exc, code,
                                   label):
    def fail(args):
        raise exc
    monkeypatch.setattr(cli, "_load_config", fail)
    assert main(["primes", "--config", write_cfg(tmp_path / "c.json")]) == code
    assert capsys.readouterr().err == f"{label}: {exc}\n"


def test_unmapped_error_propagates(tmp_path, monkeypatch):
    def fail(args):
        raise SpecMismatch("m")
    monkeypatch.setattr(cli, "_load_config", fail)
    with pytest.raises(SpecMismatch):
        main(["primes", "--config", write_cfg(tmp_path / "c.json")])


def test_exit_code_missing_config(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["gamma", "--config", missing, "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_exit_code_budget(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.json", q0_floor=20,
                    budgets={"memory_mb": 1e-4})
    assert main(["gamma", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "budget" in capsys.readouterr().err


def test_exit_code_nonconvergence(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.json", q0_floor=10,
                    budgets={"max_nodes": 8})
    assert main(["gamma", "--config", cfg, "--out", str(tmp_path)]) == 4
    assert "converge" in capsys.readouterr().err


def test_exit_code_time_budget(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.json", budgets={"time_s": 1e-9})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "time budget" in capsys.readouterr().err


def test_time_budget_bounds_the_quadrature(tmp_path, capsys):
    # the pinned instance spends seconds in the A/B integral; the budget
    # must stop it there, not after it
    cfg = write_cfg(tmp_path / "c.json", q0_floor=29, radius="theorem",
                    budgets={"time_s": 1})
    t0 = time.monotonic()
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 3
    elapsed = time.monotonic() - t0
    assert "time budget" in capsys.readouterr().err
    assert elapsed < 4.0


@pytest.mark.parametrize("radius", [0.8, 5.0])
def test_one_search_serves_solutions_and_direct(monkeypatch, radius):
    # pinned instance (kernel support 0.973); the integral is not under test
    conf = parse_config(make_doc(q0_floor=29, radius=radius))
    calls = []
    search = cli.search_mitm

    def counted(*args, **kwargs):
        calls.append(args[2])
        return search(*args, **kwargs)

    monkeypatch.setattr(cli, "search_mitm", counted)
    monkeypatch.setattr(cli, "gamma_integral", lambda *a, direct, **k:
                        GammaDecomposition(0j, 0j, 0.0, 0j, direct))
    inst = conf.instance
    params = derive_params(inst, conf.q0_floor)
    run = cli._full_run(conf, params, 1, with_diagnostics=False)
    tables = instance_tables(inst, params)
    kern = cli._kernel_for(params)
    assert calls == [max(radius, kern.epsilon)]
    # the same results as separate searches at the two radii
    want = search(inst, tables, radius, limit=10 ** 6)
    assert list(run.solutions) == want
    assert want
    assert run.decomposition.direct == gamma_direct(inst, params, kern, tables)
    assert run.decomposition.direct > 0


def test_module_entry_point_runs_without_warning():
    # the package root must not import cli, or runpy warns that the module
    # is already in sys.modules before it runs it as __main__
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-m", "psquintet.cli", "-h"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0
    assert run.stderr == ""
    assert run.stdout.startswith("usage: psquintet")
