"""hklab: a numerical laboratory for heat kernels on compact metric graphs."""

__version__ = "0.1.0"

from .graph import (  # noqa: F401
    DIRICHLET,
    KIRCHHOFF,
    Edge,
    GraphError,
    GraphPoint,
    MetricGraph,
    Vertex,
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
    IsometryMap,
    LocalityCertificate,
    MapPiece,
    SubdomainSpec,
    ball_subdomain,
    decomposition_residual,
    exit_density,
    interval_subdomain,
    kernel_killed,
    locality_compare,
)
from .spectral import ModeTable, eigen, kernel_spectral, modesum, vertex_residuals  # noqa: F401
from .twoparticle import (  # noqa: F401
    AsymptoticFit,
    TraceSeries,
    asymptotic_fit,
    predicted_coefficients,
    trace_two_particle,
)
from .wiener import (  # noqa: F401
    EnsembleResult,
    SpliceConfig,
    compare_ensembles,
    simulate_ensemble,
    splice,
)
