"""The package root: its public names, resolved from their modules on first use."""

import enum
import inspect
import subprocess
import sys

import pytest

import psquintet
from psquintet import cli
from test_cli import _src_env

PUBLIC = set("""
    AdmissibilityError BudgetExceeded CapacityExceeded DegenerateRatio DhParams
    EmptyWindow Family GammaDecomposition GapKind HalfSumArray IoError
    MomentResult ProblemInstance PsPrimeTable PsQuintetError QuintetSolutions
    SchemaError SmoothingKernel SpecMismatch
    SumSpec asym_gap brute_oracle build_table cf_convergents derive_params
    dirichlet_approx eval_sum export_solutions export_table export_tscan
    gamma_direct gamma_integral growth_ladder instance_tables is_ps_prime
    kernel_eval kernel_fourier kernel_fourier_bound moment_integral
    oscillatory_integral ps_prime_count search_mitm sieve_primes tail_bound
    tscan window_bounds __version__
""".split())


# every record class's constructor: its parameter names in order, with their
# defaults; spelled out, so that a reordered or renamed field fails here
CONSTRUCTORS = {
    "DhParams": "q0, X, Delta, eps, H",
    "GammaDecomposition": "A, B, C_bound, direct=None",
    "HalfSumArray": "sums, index, n_b",
    "MomentResult": "m, value, grid_points, x_max",
    "ProblemInstance": "lambdas, eta, k, gamma, theta_exp, lambda0=0.1",
    "PsPrimeTable": "gamma, x_max, lambda0, k, primes, weights",
    "QuintetSolutions": "p, value, weight, max_p, meets_theorem_radius",
    "SmoothingKernel": "epsilon, l",
    "SumSpec": "family, k, x_max, lambda0, gamma=None",
    "cli.RunConfig": "instance, q0_floor, radius, budgets, output_dir, seed",
    "cli.Diagnostic": "name, value, bound, passed",
    "cli.RunReport": "params, decomposition, diagnostics, solutions, scan_ts, scan_values",
}


def _fresh(code: str) -> str:
    """Standard output of code run in a new interpreter on this source tree."""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_src_env(), timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def test_public_names():
    assert len(psquintet.__all__) == len(PUBLIC) == 47
    assert set(psquintet.__all__) == PUBLIC
    assert PUBLIC <= set(dir(psquintet))


def test_constructors_cover_every_record_class():
    records = {name for name in psquintet.__all__
               if isinstance(obj := getattr(psquintet, name), type)
               and not issubclass(obj, (BaseException, enum.Enum))}
    assert records == {name for name in CONSTRUCTORS if "." not in name}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_record_constructor_keeps_its_parameters(name):
    cls = getattr(cli, name[4:]) if name.startswith("cli.") else getattr(psquintet, name)
    params = inspect.signature(cls).parameters.values()
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                     for p in params) == CONSTRUCTORS[name]


def test_import_loads_no_submodule_and_no_numpy():
    code = ("import sys, psquintet; print(sorted(m for m in sys.modules "
            "if m.startswith('psquintet.') or m.split('.')[0] == 'numpy'))")
    assert _fresh(code) == "[]"


@pytest.mark.parametrize("bind", [
    "obj = getattr(psquintet, name)",
    "exec(f'from psquintet import {name}', ns); obj = ns[name]",
], ids=["getattr", "from-import"])
def test_each_name_is_its_modules_object(bind):
    # first access in a fresh process, so the lookup goes through the table
    code = (
        "import importlib, psquintet\n"
        "for name in sorted(psquintet.__all__):\n"
        "    if name == '__version__': continue\n"
        "    ns = {}\n"
        f"    {bind}\n"
        "    home = importlib.import_module(obj.__module__)\n"
        "    assert home.__name__.startswith('psquintet.'), name\n"
        "    assert getattr(home, name) is obj, name\n"
        "    assert getattr(psquintet, name) is obj, name\n"
        "print('ok')\n")
    assert _fresh(code) == "ok"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(psquintet, "no_such_name")
    with pytest.raises(ImportError):
        exec("from psquintet import no_such_name", {})


def test_star_import_binds_every_name():
    ns = {}
    exec("from psquintet import *", ns)
    assert PUBLIC <= set(ns)
    for name in PUBLIC:
        assert ns[name] is getattr(psquintet, name)
