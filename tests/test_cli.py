"""Config parsing, report emission, subcommands, exit codes."""

import functools
import hashlib
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

from psquintet import cli, numerics, ps_primes, quintet_search
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
    SchemaError,
    SpecMismatch,
)
from psquintet.ps_primes import build_table
from psquintet.quintet_search import QuintetSolutions
from solution_rows import rows

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
    assert cfg.budgets == {"memory_mb": 2048.0, "time_s": 1200.0}
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
    (make_doc(eta=math.inf), "$.eta"),
    (make_doc(k=5), "$.k"),
    (make_doc(k=True), "$.k"),
    (make_doc(gamma=1.5), "$.gamma"),
    (make_doc(theta=-1.0), "$.theta"),
    (make_doc(lambda0=1.5), "$.lambda0"),
    (make_doc(q0_floor=0), "$.q0_floor"),
    (make_doc(radius="huge"), "$.radius"),
    (make_doc(radius=-2.0), "$.radius"),
    (make_doc(radius=[1]), "$.radius"),
    (make_doc(radius=True), "$.radius"),
    (make_doc(frobnicate=1), "$.frobnicate"),
    (make_doc(budgets={"fuel": 3}), "$.budgets.fuel"),
    (make_doc(budgets={"memory_mb": -1}), "$.budgets.memory_mb"),
    (make_doc(seed="zero"), "$.seed"),
    (make_doc(q0_floor=1), "$.q0_floor"),
    (make_doc(seed=-1), "$.seed"),
    (make_doc(budgets={"max_nodes": 1024}), "$.budgets.max_nodes"),
    (make_doc(budgets={"time_s": 0}), "$.budgets.time_s"),
    (make_doc(budgets={"memory_mb": True}), "$.budgets.memory_mb"),
    # json reads NaN, and a NaN budget never trips: every comparison is false
    (make_doc(budgets={"time_s": math.nan}), "$.budgets.time_s"),
    (make_doc(budgets={"memory_mb": math.nan}), "$.budgets.memory_mb"),
    # integers that json reads exactly but a double cannot hold
    (make_doc(lambdas=[SQRT2, 10 ** 400, 1.0, 1.0, -3.0]), r"$.lambdas[1]"),
    (make_doc(eta=10 ** 400), "$.eta"),
    (make_doc(theta=10 ** 400), "$.theta"),
    (make_doc(radius=10 ** 400), "$.radius"),
    (make_doc(budgets={"time_s": 10 ** 400}), "$.budgets.time_s"),
    (make_doc(budgets={"memory_mb": 10 ** 400}), "$.budgets.memory_mb"),
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
        budgets={"memory_mb": 512, "time_s": 60},
        seed=11, output_dir="elsewhere"))
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("output_dir", ["a\tb", "a\nb", "a\x00b", "é", '"', "\\"])
def test_round_trip_string_needing_escapes(output_dir):
    cfg = parse_config(make_doc(output_dir=output_dir))
    assert parse_config(serialize_config(cfg)) == cfg


def test_numeric_radius_passes_through():
    cfg = parse_config(make_doc(radius=3.5))
    assert effective_radius(cfg, []) == 3.5


def test_theorem_radius_covers_window_extremes():
    cfg = parse_config(make_doc())
    table = build_table(0.99, 961.0, 0.02, 2)
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
    # inadmissible up to g_min itself; above it the loop below parses
    for g in (below, g_min):
        with pytest.raises(AdmissibilityError, match=text):
            parse_config(make_doc(k=k, gamma=g))
    table = build_table(0.99, 961.0, 0.02, 2)
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


def solution_columns(quintuples) -> QuintetSolutions:
    """The QuintetSolutions of (p, value, weight, max_p, meets) rows."""
    p, value, weight, max_p, meets = list(zip(*quintuples)) or [()] * 5
    return QuintetSolutions(np.array(p, dtype=np.int64).reshape(-1, 5),
                            np.array(value, dtype=float),
                            np.array(weight, dtype=float),
                            np.array(max_p, dtype=np.int64),
                            np.array(meets, dtype=bool))


def tiny_report(solutions=(), diagnostics=()):
    params = DhParams(q0=5, X=31.731537849473135, Delta=0.13829244284618936,
                      eps=0.98685401709273135, H=12.112226971464933)
    dec = GammaDecomposition(A=complex(9.32, 0.0), B=complex(-7.32, 0.0),
                             C_bound=5.27, direct=2.0028)
    return RunReport(params=params, decomposition=dec,
                     diagnostics=tuple(diagnostics),
                     solutions=solution_columns(solutions),
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
    sols = [((2, 2, 3, 3, p5), 0.25 * i, 1.0, max(3, p5), False)
            for i, p5 in enumerate((2, 3, 5))]
    emit_report(tiny_report(solutions=sols), str(tmp_path))
    lines = (tmp_path / "solutions.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("2,2,3,3,2,")


def test_emit_is_idempotent(tmp_path):
    rep = tiny_report(solutions=[
        ((2, 3, 5, 7, 11), -0.5, 2.0, 11, True)])
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


def test_writes_take_a_stricter_umask_without_setting_it(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path / "c.json")
    out = tmp_path / "o"

    def refuse(mask):
        raise AssertionError(f"os.umask({mask:#o}) called")

    old = os.umask(0o027)
    try:
        with monkeypatch.context() as m:
            m.setattr(os, "umask", refuse)
            assert main(["primes", "--config", cfg, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.filemode((out / "primes.csv").stat().st_mode) == "-rw-r-----"


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


def test_search_identical_across_threads(tmp_path, capsys):
    # pinned lambdas at q0 169: 658 quintuples over 21 values of p5, 40 of
    # them with p3 = p4, whose mirrored pairs the scan keys once
    cfg = write_cfg(tmp_path / "c.json", q0_floor=169, radius=5.0)
    out = tmp_path / "o"
    runs = []
    for threads in (1, 2):
        code = main(["search", "--config", cfg, "--out", str(out),
                     "--threads", str(threads)])
        runs.append((code, capsys.readouterr().out,
                     (out / "solutions.csv").read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    rows = [r.split(",") for r in runs[0][2].decode().splitlines()[1:]]
    assert len(rows) == 658
    assert len({r[4] for r in rows}) == 21
    assert sum(r[2] == r[3] for r in rows) == 40


# sha256 of search-desk's solutions.csv (pinned lambdas, q0 2378, radius
# 0.05): 20,325 quintuples, recorded before the residue filter and the outer
# slot choice, which must leave every byte as it was
_SEARCH_DESK_SHA256 = "3adb0885a5419ee7fa09d8214ed58e80ac620d2f4e454d9e2c18b33e53f6ea68"


@pytest.mark.parametrize("threads", [1, 2])
def test_search_desk_solutions_keep_their_bytes(tmp_path, capsys, threads):
    cfg = write_cfg(tmp_path / "c.json", q0_floor=2378, radius=0.05)
    out = tmp_path / "o"
    assert main(["search", "--config", cfg, "--out", str(out),
                 "--threads", str(threads)]) == 0
    assert capsys.readouterr().out.startswith("20325 quintuples within radius 0.05")
    digest = hashlib.sha256((out / "solutions.csv").read_bytes()).hexdigest()
    assert digest == _SEARCH_DESK_SHA256


# sha256 of solutions.csv for lambda2 = sqrt(3) at q0 1079, radius 2: 33,986
# quintuples over 3,943 distinct values of both signs, 15,910 within the
# theorem radius; no slot carries a residue lattice. Recorded before the
# certification and the CSV writer went to int64 columns
_SEARCH_SQRT3_SHA256 = "b973fe94e18874a55f67e4cc9ab6942e87c3bcd8faa14551ccdbc803f70aecea"


@pytest.mark.parametrize("threads", [1, 2])
def test_unreducible_search_solutions_keep_their_bytes(tmp_path, capsys, threads):
    cfg = write_cfg(tmp_path / "c.json", q0_floor=1079, radius=2.0,
                    lambdas=[SQRT2, math.sqrt(3.0), 1.0, 1.0, -3.0])
    out = tmp_path / "o"
    assert main(["search", "--config", cfg, "--out", str(out),
                 "--threads", str(threads)]) == 0
    assert capsys.readouterr().out.startswith(
        "33986 quintuples within radius 2 (15910 meet the theorem radius)")
    digest = hashlib.sha256((out / "solutions.csv").read_bytes()).hexdigest()
    assert digest == _SEARCH_SQRT3_SHA256


# sha256 of report.json, diagnostics.csv and tscan.csv from verify at q0 12,
# radius "theorem", per seed: the first two recorded while the diagnostics
# drew from np.random.default_rng, which the in-tree stream must reproduce
# bit for bit; tscan.csv recorded while it was rendered by csv.writer
_TSCAN_Q12_SHA256 = "bc841ca204be7b67fd9b5ddcf2950bac448cac37e6f4ed146a5398eb8346fc3b"
_VERIFY_Q12_SHA256 = {
    0: ("0896899cebecceca631fee77c844ee642d97561709c5c847299ef062c0307236",
        "b671a0ad04d04f1b1169c40666ea1f2e06cbf4d9d04ebff92793bf68409472bc",
        _TSCAN_Q12_SHA256),
    2301: ("d07e5110bbaff891117d96f22b6ebba550a1876a96d0248b3ac0343bd969444a",
           "9c111e4a1dfdd89c308f6903a8dbe890dac4d26549dbb9745f00f57fcf1990fe",
           _TSCAN_Q12_SHA256),
}


def _digests(out, names):
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in names)


@pytest.mark.parametrize("seed", sorted(_VERIFY_Q12_SHA256))
def test_verify_outputs_keep_their_bytes(tmp_path, seed):
    cfg = write_cfg(tmp_path / "c.json", q0_floor=12, radius="theorem", seed=seed)
    out = tmp_path / "o"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    digests = _digests(out, ("report.json", "diagnostics.csv", "tscan.csv"))
    assert digests == _VERIFY_Q12_SHA256[seed]


def test_kernel_outputs_keep_their_bytes(tmp_path):
    # sha256 of kernel_theta.csv at q0 12, recorded while it was rendered by
    # csv.writer, and of kernel_fourier.csv, recorded once its two transform
    # columns came from one array call each
    cfg = write_cfg(tmp_path / "c.json", q0_floor=12)
    out = tmp_path / "o"
    assert main(["kernel", "--config", cfg, "--out", str(out)]) == 0
    assert _digests(out, ("kernel_theta.csv", "kernel_fourier.csv")) == (
        "b0fc4f633916cf0898b6951259ce7f88f8141066927dec2a56723345c9502269",
        "c77ab674b9c2a209d0dbefdc1a1583b313b6da9f9060b7f9ccee2dd170b2a88c")
    # the bound column is the envelope the kernel_bound diagnostic divides by
    x, fourier, bound = np.loadtxt(out / "kernel_fourier.csv", delimiter=",",
                                   skiprows=1, unpack=True)
    kern = cli._kernel_for(derive_params(parse_config(make_doc()).instance, 12))
    assert fourier.tobytes() == numerics.kernel_fourier(kern, x).tobytes()
    assert bound.tobytes() == numerics.kernel_fourier_bound(kern, x).tobytes()


def test_k3_tables_keep_their_bytes(tmp_path, capsys):
    # sha256 of primes.csv (4,348 rows, more than one block of the CSV
    # renderer) and primes_k3.csv for k = 3, gamma 0.995 at q0 20000,
    # recorded while they were rendered by csv.writer
    cfg = write_cfg(tmp_path / "c.json", k=3, gamma=0.995, q0_floor=20000)
    out = tmp_path / "o"
    assert main(["primes", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("4348 PS primes in the square window")
    assert _digests(out, ("primes.csv", "primes_k3.csv")) == (
        "490c5d7dbfafaf34b4ba71cdce02e4065c091bbd31eeedb2389d2b3f37c9c1b8",
        "598125127bf551544000f1d1835cb3bafa7f018da39f95eec626b0eb3f023ce3")


def test_default_stream_matches_numpy_default_rng():
    # the diagnostics' two draws at q0 12, in their order, so that the
    # stream must also carry on from the first draw to the second
    inst = parse_config(make_doc()).instance
    eps = cli._kernel_for(derive_params(inst, 12)).epsilon
    draws = ((1e-2 / eps, 1e2 / eps, 1000), (0.0, 1.0, 17))
    seeds = [*range(1000), 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64,
             2 ** 128 + 1, 10 ** 40]
    for seed in seeds:
        want, got = np.random.default_rng(seed), cli._DefaultStream(seed)
        for lo, hi, n in draws:
            assert (got.uniform(lo, hi, n).tobytes()
                    == want.uniform(lo, hi, size=n).tobytes()), seed


def test_lattice_quadrature_report_identical_across_threads(tmp_path):
    # q0 12 integrates 219,648 lattice points in 7 chunks: 2 and 4 threads
    # split them differently, and A and B must keep every bit
    cfg = write_cfg(tmp_path / "c.json", q0_floor=12, radius="theorem")
    reports = []
    for threads in (1, 2, 4):
        out = tmp_path / f"o{threads}"
        assert main(["gamma", "--config", cfg, "--out", str(out),
                     "--threads", str(threads)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]


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


def test_radius_theorem_flag_over_numeric_config(tmp_path, capsys):
    # the flag's word replaces the config's number: the run is the one a
    # config with radius "theorem" makes
    runs = []
    for radius, flags in ((2.0, ["--radius", "theorem"]), ("theorem", [])):
        cfg = write_cfg(tmp_path / "c.json", radius=radius)
        out = tmp_path / str(len(runs))
        assert main(["search", "--config", cfg, "--out", str(out), *flags]) == 0
        runs.append((capsys.readouterr().out.rsplit(" -> ", 1)[0],
                     (out / "solutions.csv").read_bytes()))
    assert runs[0] == runs[1]
    assert "within radius 2 " not in runs[0][0]


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
    ({}, ["--threads", "0"], "--threads"),
    ({}, ["--radius", "wide"], "$.radius"),
    ({"eta": 10 ** 400}, [], "$.eta: too large for a double"),
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
    # the quadrature's node cap is gone: the key is an unknown budget
    ({"budgets": {"max_nodes": 1024}}, "gamma", "$.budgets.max_nodes"),
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


@pytest.mark.parametrize("lambdas,needle", [
    # lambda1/lambda2 = 2 has the single convergent 2/1, below any floor
    ([2.0, 1.0, 1.0, 1.0, -3.0], "no convergent denominator"),
    # 1e308 / 1e-308 overflows a double
    ([1e308, 1e-308, 1.0, 1.0, -3.0], "lambda1/lambda2 = inf"),
])
def test_exit_code_degenerate_ratio(tmp_path, capsys, lambdas, needle):
    cfg = write_cfg(tmp_path / "c.json", lambdas=lambdas)
    out = tmp_path / "o"
    assert main(["gamma", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and needle in err
    assert not out.exists()


@pytest.mark.parametrize("exc,code,label", [
    (SchemaError("$.x", "m"), 2, "config error"),
    (AdmissibilityError("m"), 2, "config error"),
    (DegenerateRatio("m"), 2, "config error"),
    (EmptyWindow("m"), 2, "config error"),
    (BudgetExceeded("m"), 3, "budget exceeded"),
    (CapacityExceeded("m"), 3, "budget exceeded"),
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


def test_undecodable_config_is_a_config_error(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_bytes(make_doc().encode() + b"\xff")
    out = tmp_path / "o"
    assert main(["primes", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: $: cannot read config")
    assert not out.exists()


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
    # exit 4 is retired with the node cap; its budget key is now unknown
    cfg = write_cfg(tmp_path / "c.json", budgets={"max_nodes": 1024})
    out = tmp_path / "o"
    assert main(["gamma", "--config", cfg, "--out", str(out)]) == 2
    assert "$.budgets.max_nodes: unknown budget" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    "primes", "sums", "search", "gamma", "report", "verify"])
def test_exit_code_time_budget(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path / "c.json", budgets={"time_s": 1e-9})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert "time budget" in capsys.readouterr().err
    assert not out.exists()


def test_time_budget_bounds_the_quadrature(tmp_path, capsys):
    # at q0 70 the A/B integral takes a few seconds at one thread; the
    # budget must stop it there, not after it
    cfg = write_cfg(tmp_path / "c.json", q0_floor=70, radius="theorem",
                    budgets={"time_s": 0.3})
    t0 = time.monotonic()
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 3
    elapsed = time.monotonic() - t0
    err = capsys.readouterr().err
    assert "time budget" in err and "(at integral)" in err
    assert elapsed < 4.0


@pytest.mark.parametrize("q0", [12, 29])
def test_verify_builds_one_gauss_rule(tmp_path, monkeypatch, q0):
    # A's two 64-cycle panels and B's panels of just under 64 cycles share
    # one node count, so a run builds one Gauss-Legendre rule
    built = []
    leggauss = numerics._leggauss.__wrapped__

    def counted(n):
        built.append(n)
        return leggauss(n)

    monkeypatch.setattr(numerics, "_leggauss", functools.cache(counted))
    cfg = write_cfg(tmp_path / "c.json", q0_floor=q0, radius="theorem")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert built == [133]


def test_time_budget_bounds_the_search_scan(tmp_path, capsys):
    # lambda2 = sqrt(3) at q0 2378, radius 0.05: no slot carries a residue
    # lattice, so the search keeps 639 primes a slot and scans all 639 p5
    # blocks (about 2 ms each), about 1.4 s at 1 thread on a 2-CPU machine,
    # which a machine several times faster still takes past the budget; the
    # budget is checked before each block. The pinned lambdas search the
    # same q0 in about 0.06 s, below the budget
    budget = 0.1
    cfg = write_cfg(tmp_path / "c.json", q0_floor=2378, radius=0.05,
                    lambdas=[SQRT2, math.sqrt(3.0), 1.0, 1.0, -3.0],
                    budgets={"time_s": budget})
    out = tmp_path / "o"
    t0 = time.monotonic()
    assert main(["search", "--config", cfg, "--out", str(out)]) == 3
    elapsed = time.monotonic() - t0
    err = capsys.readouterr().err
    assert "time budget 0.1s exhausted" in err and "(at search)" in err
    assert elapsed < budget + 0.5
    assert not (out / "solutions.csv").exists()


def test_time_budget_bounds_the_search_certification(tmp_path, monkeypatch,
                                                     capsys):
    # certification outlasts the budget after the scan's last check; the
    # check after the search returns stops the run before the listing
    budget = 0.5
    finalize = quintet_search._finalize

    def slow(*args):
        time.sleep(budget)
        return finalize(*args)

    monkeypatch.setattr(quintet_search, "_finalize", slow)
    cfg = write_cfg(tmp_path / "c.json", budgets={"time_s": budget})
    out = tmp_path / "o"
    assert main(["search", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "time budget 0.5s exhausted" in err and "(at search)" in err
    assert not (out / "solutions.csv").exists()


def test_time_budget_bounds_the_diagnostics(tmp_path, monkeypatch, capsys):
    # the first rung of the moment-grid ladder outlasts the budget; the check
    # before the next rung stops the run there, not after the ladder
    budget = 0.5
    rungs = []
    moment = cli.moment_integral

    def slow(*args):
        rungs.append(args[2])
        time.sleep(budget)
        return moment(*args)

    monkeypatch.setattr(cli, "moment_integral", slow)
    cfg = write_cfg(tmp_path / "c.json", budgets={"time_s": budget})
    out = tmp_path / "o"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "time budget 0.5s exhausted" in err and "(at diagnostics)" in err
    assert len(rungs) == 1
    assert not (out / "report.json").exists()


def test_verify_sieves_and_filters_each_window_once(tmp_path, monkeypatch):
    # the run's square table and the three rungs of the diagnostics' growth
    # ladder, which the moment fit and the gap fit share: four sieves and
    # four PS filters over three windows, for at X >= 64 the ladder's top
    # rung is the run's own square window, sieved and filtered a second time
    calls = dict.fromkeys(("sieve_primes", "window_table"), 0)
    modules = [m for name, m in sys.modules.items()
               if name.startswith("psquintet.")]
    for fn_name in calls:
        fn = getattr(ps_primes, fn_name)

        def counted(*args, _fn=fn, _name=fn_name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            if getattr(mod, fn_name, None) is fn:
                monkeypatch.setattr(mod, fn_name, counted)
    cfg = write_cfg(tmp_path / "c.json", q0_floor=12)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert calls == {"sieve_primes": 4, "window_table": 4}


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
                        GammaDecomposition(0j, 0j, 0.0, direct))
    inst = conf.instance
    params = derive_params(inst, conf.q0_floor)
    run = cli._full_run(conf, params, 1, cli._Deadline(math.inf),
                        with_diagnostics=False)
    tables = instance_tables(inst, params)
    kern = cli._kernel_for(params)
    assert calls == [max(radius, kern.epsilon)]
    # the same results as separate searches at the two radii
    want = search(inst, tables, radius)
    assert rows(run.solutions) == rows(want)
    assert want
    exact = search(inst, tables, kern.epsilon)
    assert run.decomposition.direct == gamma_direct(inst, kern, exact)
    assert run.decomposition.direct > 0


def test_listing_cap_cuts_only_the_listing(tmp_path, monkeypatch, capsys):
    # solutions.csv lists the first _REPORT_LIMIT quintuples; the direct
    # count still sums every quintuple inside the kernel support, and the
    # search's summary line counts the whole result and says it was cut
    cfg = write_cfg(tmp_path / "c.json")
    runs = {}
    for name, cap in (("full", cli._REPORT_LIMIT), ("cut", 3)):
        monkeypatch.setattr(cli, "_REPORT_LIMIT", cap)
        for command in ("search", "report"):
            out = tmp_path / name / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            runs[name, command] = (capsys.readouterr().out,
                                   (out / "solutions.csv").read_text().splitlines())
    assert len(runs["full", "search"][1]) > 4
    for command in ("search", "report"):
        assert runs["cut", command][1] == runs["full", command][1][:4]
    listing = runs["full", "search"][1][1:]
    meets = sum(row.endswith(",true") for row in listing)

    def summary(name, note):
        path = tmp_path / name / "search" / "solutions.csv"
        return (f"{len(listing)} quintuples within radius 2 ({meets} meet the "
                f"theorem radius{note}) -> {path}\n")

    assert runs["full", "search"][0] == summary("full", "")
    assert runs["cut", "search"][0] == summary("cut", "; the first 3 listed")
    full, cut = (json.loads((tmp_path / name / "report" / "report.json").read_text())
                 for name in ("full", "cut"))
    assert cut["solutions_found"] == 3
    assert cut["direct"] == full["direct"] > 0


def _src_env() -> dict:
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_module_entry_point_runs_without_warning():
    # the package root must not import cli, or runpy warns that the module
    # is already in sys.modules before it runs it as __main__
    run = subprocess.run([sys.executable, "-m", "psquintet.cli", "-h"],
                         capture_output=True, text=True, env=_src_env(),
                         timeout=60)
    assert run.returncode == 0
    assert run.stderr == ""
    assert run.stdout.startswith("usage: psquintet")
    assert "{" + ",".join(cli._COMMANDS) + "}" in run.stdout


# imports a CLI child never needs at one thread: mpmath (only a PS membership
# escalation needs it), dataclasses (the records are plain classes) and
# concurrent.futures (only a pool of more than one thread needs it)
_UNNEEDED = "m.split('.')[0] in ('mpmath', 'dataclasses', 'concurrent')"


def test_cli_import_leaves_mpmath_unloaded():
    code = f"import sys, psquintet.cli; print(sorted(m for m in sys.modules if {_UNNEEDED}))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_src_env(), timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_verify_leaves_numpy_random_and_mpmath_unloaded(tmp_path):
    # the diagnostics' seeded draws come from cli._DefaultStream, no PS
    # membership escalates at q0 12, every CSV is rendered by _io without
    # the csv module, and one thread runs without a pool: none of these
    # imports is paid for
    cfg = write_cfg(tmp_path / "c.json", q0_floor=12, radius="theorem")
    code = ("import sys; from psquintet.cli import main; "
            f"assert main(['verify', '--config', {cfg!r}, '--out', "
            f"{str(tmp_path / 'o')!r}, '--threads', '1']) == 0; "
            "print(sorted(m for m in sys.modules "
            f"if {_UNNEEDED} or m.split('.')[0] == 'csv' "
            "or m.startswith('numpy.random')))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_src_env(), timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("given,want", [(None, "1"), ("3", "3")])
def test_import_pins_openblas_threads_unless_set(given, want):
    # numpy's OpenBLAS pool would spin on every core, so --threads 1 would
    # not bound CPU time; a value the caller sets is kept
    env = _src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    code = "import os, psquintet; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == want
