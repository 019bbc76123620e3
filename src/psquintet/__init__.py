"""Prime quintuples under Diophantine inequalities.

Builds Piatetski-Shapiro prime tables, evaluates the smoothed counting
integral for five-term forms (four prime squares plus one prime k-th power,
k in {2,3,4}), and searches for explicit near-zero quintuples.

Each public name below is imported from its module on first use (PEP 562),
so `import psquintet` alone loads no submodule and no NumPy.
"""

import importlib
import os

# OpenBLAS's pool would spin past --threads; the only BLAS call is a 3x2 lstsq
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "errors": """AdmissibilityError BudgetExceeded CapacityExceeded
        DegenerateRatio EmptyWindow IoError PsQuintetError SchemaError
        SpecMismatch""",
    "dh_pipeline": """DhParams GammaDecomposition ProblemInstance
        derive_params gamma_direct gamma_integral instance_tables tail_bound""",
    "exp_sums": """Family GapKind MomentResult SumSpec asym_gap eval_sum
        export_tscan growth_ladder moment_integral tscan""",
    "quintet_search": """HalfSumArray QuintetSolutions brute_oracle
        export_solutions search_mitm""",
    "numerics": """QuadratureSpec SmoothingKernel cf_convergents
        dirichlet_approx kernel_eval kernel_fourier kernel_fourier_bound
        oscillatory_integral""",
    "ps_primes": """GammaParam PsPrimeTable build_table export_table
        is_ps_prime ps_prime_count sieve_primes window_bounds""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
