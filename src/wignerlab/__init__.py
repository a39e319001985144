"""wignerlab: Hermitian random-matrix ensembles and semicircle-law checks.

Three independent routes to the semicircle law live here: closed-walk
moment combinatorics, metric convergence of empirical spectral
distributions after the truncate/centralize/rescale pipeline, and
Stieltjes-transform numerics.  Concentration bounds and a reproducible
CLI driver round out the toolkit.
"""

__version__ = "0.1.0"

from .ensembles import (
    ConditionReport,
    EnsembleSpec,
    EntryLaw,
    VarianceProfile,
    condition_sums,
    gaussian_row_check,
    heavy_tail_spec,
    sample,
    sample_trial,
    wigner_unit_spec,
)
from .hermitian_core import (
    HermitianMatrix,
    eigenvalues_desc,
    frobenius_norm,
    numeric_rank,
    principal_minor,
)
from .reductions import (
    ReductionTrace,
    ReplacePlan,
    auto_eta,
    centralize,
    pipeline,
    rescale_to_row_bound,
    truncate,
    truncated_profile,
    unit_variance_plan,
    unit_variance_replace,
)
from .spectral_measures import (
    RampFunction,
    SemicircleLaw,
    StepDistribution,
    esd,
    expected_esd,
    kolmogorov_distance,
    levy_distance,
    semicircle_moment,
)
from .concentration import (
    TailEstimate,
    bernstein_bound,
    bernstein_tail_check,
    empirical_tail,
    hoeffding_mgf_bound,
    spectral_bound,
)
from .stieltjes import (
    GridDensity,
    atomic_density,
    invert_on_grid,
    recursion_residual,
    semicircle_stieltjes,
    stieltjes_atomic,
)
from .streams import derive_rng
from .walk_combinatorics import (
    CanonicalWalk,
    DyckPath,
    WalkClass,
    all_dyck_paths,
    classify,
    dyck_of,
    enumerate_canonical_walks,
    enumerate_gamma,
    walk_sum_moment,
)
