"""Prime quintuples under Diophantine inequalities.

Builds Piatetski-Shapiro prime tables, evaluates the smoothed counting
integral for five-term forms (four prime squares plus one prime k-th power,
k in {2,3,4}), and searches for explicit near-zero quintuples.
"""

import os

# OpenBLAS's pool would spin past --threads; the only BLAS call is a 3x2 lstsq
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .errors import (
    AdmissibilityError,
    BudgetExceeded,
    CapacityExceeded,
    DegenerateRatio,
    EmptyWindow,
    IoError,
    PsQuintetError,
    SchemaError,
    SpecMismatch,
)
from .dh_pipeline import (
    DhParams,
    GammaDecomposition,
    ProblemInstance,
    derive_params,
    gamma_direct,
    gamma_integral,
    instance_tables,
    tail_bound,
)
from .exp_sums import (
    Family,
    GapKind,
    MomentResult,
    SumSpec,
    asym_gap,
    eval_sum,
    export_tscan,
    growth_ladder,
    moment_integral,
    tscan,
)
from .quintet_search import (
    HalfSumArray,
    QuintetSolutions,
    brute_oracle,
    export_solutions,
    search_mitm,
)
from .numerics import (
    QuadratureSpec,
    SmoothingKernel,
    cf_convergents,
    dirichlet_approx,
    kernel_eval,
    kernel_fourier,
    kernel_fourier_bound,
    oscillatory_integral,
)
from .ps_primes import (
    GammaParam,
    PsPrimeTable,
    build_table,
    export_table,
    is_ps_prime,
    ps_prime_count,
    sieve_primes,
    window_bounds,
)

__all__ = [
    "AdmissibilityError",
    "BudgetExceeded",
    "CapacityExceeded",
    "DegenerateRatio",
    "DhParams",
    "EmptyWindow",
    "Family",
    "GammaDecomposition",
    "GammaParam",
    "GapKind",
    "HalfSumArray",
    "IoError",
    "MomentResult",
    "ProblemInstance",
    "PsPrimeTable",
    "PsQuintetError",
    "QuadratureSpec",
    "QuintetSolutions",
    "SchemaError",
    "SmoothingKernel",
    "SpecMismatch",
    "SumSpec",
    "asym_gap",
    "brute_oracle",
    "build_table",
    "cf_convergents",
    "derive_params",
    "dirichlet_approx",
    "eval_sum",
    "export_solutions",
    "export_table",
    "export_tscan",
    "gamma_direct",
    "gamma_integral",
    "growth_ladder",
    "instance_tables",
    "is_ps_prime",
    "kernel_eval",
    "kernel_fourier",
    "kernel_fourier_bound",
    "moment_integral",
    "oscillatory_integral",
    "ps_prime_count",
    "search_mitm",
    "sieve_primes",
    "tail_bound",
    "tscan",
    "__version__",
]
