"""hklab: a numerical laboratory for heat kernels on compact metric graphs."""

__version__ = "0.1.0"

from .graph import (  # noqa: F401
    DIRICHLET,
    KIRCHHOFF,
    Edge,
    GraphError,
    GraphPoint,
    MetricGraph,
    ScatteringWalk,
    Vertex,
    distance,
    enumerate_walks,
    load_graph,
    parse_graph,
    scattering_matrix,
)
from .kernels import (  # noqa: F401
    KernelEval,
    TruncationError,
    gauss_free,
    kernel_interval,
    kernel_pathsum,
    kernel_semigroup_residual,
    kernel_star,
    pathsum,
    star_sigma,
)
from .locality import (  # noqa: F401
    DecayBoundParams,
    IsometryMap,
    LocalityCertificate,
    MapPiece,
    SubdomainSpec,
    ball_subdomain,
    decomposition_residual,
    exit_density,
    fit_decay_params,
    interval_subdomain,
    kernel_killed,
    locality_compare,
    nonlocal_bound,
)
from .spectral import ModeTable, eigen, kernel_spectral, vertex_residuals  # noqa: F401
from .twoparticle import (  # noqa: F401
    AsymptoticFit,
    SymPoint,
    TraceSeries,
    asymptotic_fit,
    kernel_two_particle,
    predicted_coefficients,
    region_contributions,
    trace_two_particle,
)
from .wiener import (  # noqa: F401
    EnsembleResult,
    PathSample,
    SpliceConfig,
    compare_ensembles,
    first_exit,
    simulate,
    simulate_ensemble,
    splice,
)
