"""Every public entry point that takes a time rejects NaN, +-inf and t <= 0."""

import math

import numpy as np
import pytest

from hklab.energy import SampledFunction, sample_function
from hklab.graph import GraphError, GraphPoint
from hklab.kernels import (
    gauss_free,
    kernel_interval,
    kernel_mass,
    kernel_pathsum,
    kernel_semigroup_residual,
    kernel_star,
    pathsum,
    star_sigma,
)
from hklab.locality import decomposition_residual, exit_density, interval_subdomain
from hklab.spectral import kernel_spectral
from hklab.twoparticle import (
    SymPoint,
    eigen_trace_series,
    kernel_two_particle,
    region_contributions,
    trace_series,
    trace_two_particle,
)
from hklab.wiener import n_steps

X = GraphPoint("e", 0.5)
S = np.linspace(0.0, 1.0, 5)

CALLS = {
    "gauss_free": lambda g, t: gauss_free(t, 0.1),
    "kernel_star": lambda g, t: kernel_star(3, star_sigma(3), t, (0, 0.1), (1, 0.2)),
    "kernel_interval": lambda g, t: kernel_interval(1.0, "neumann", "dirichlet", t, 0.3, 0.6),
    "kernel_pathsum": lambda g, t: kernel_pathsum(g, t, X, X),
    "pathsum_at_profile": lambda g, t: pathsum(g, t, X.edge, X.s, "e", S),
    "pathsum_at_diagonal": lambda g, t: pathsum(g, t, "e", S, "e", S),
    "pathsum_at_grid": lambda g, t: pathsum(g, t, "e", S[:, None], "e", S[None, :]),
    "semigroup_t": lambda g, t: kernel_semigroup_residual(g, t, 0.05, X, X),
    "semigroup_s": lambda g, t: kernel_semigroup_residual(g, 0.05, t, X, X),
    "kernel_spectral": lambda g, t: kernel_spectral(g, t, X, X, []),
    "kernel_two_particle": lambda g, t: kernel_two_particle(
        g, t, SymPoint(X, X), SymPoint(X, X)),
    "trace_two_particle": lambda g, t: trace_two_particle(g, t, 1e-2),
    "trace_series": lambda g, t: trace_series(g, [0.05, t], 1e-2),
    # a bad time after a good one: every time is checked, not only the least
    "eigen_trace_series": lambda g, t: eigen_trace_series(g, [0.05, t]),
    "region_contributions": lambda g, t: region_contributions(
        g, "B", {"eps": 0.1, "edge": "e"}, t),
    "exit_density": lambda g, t: exit_density(
        interval_subdomain(g, "e", 0.25, 0.75), X, GraphPoint("e", 0.25), t),
    "n_steps": lambda g, t: n_steps(t, 1e-3),
}


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0, -0.1])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_bad_time_rejected(interval, name, t):
    with pytest.raises(GraphError, match="finite and positive"):
        CALLS[name](interval, t)


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf, 0.0, -1e-2])
@pytest.mark.parametrize("call", [
    lambda g, step: trace_two_particle(g, 0.05, step),
    lambda g, step: trace_series(g, [0.05], step),
    lambda g, step: kernel_semigroup_residual(g, 0.05, 0.05, X, X, quadrature_step=step),
    lambda g, step: decomposition_residual(
        interval_subdomain(g, "e", 0.25, 0.75), 0.05, X, X, time_step=step),
    lambda g, step: kernel_mass(g, 0.05, X, step_frac=step),
    lambda g, step: sample_function(g, lambda eid, s: s, step),
    lambda g, step: SampledFunction(g, {"e": S}, step),
], ids=["trace_two_particle", "trace_series", "kernel_semigroup_residual",
        "decomposition_residual", "kernel_mass", "sample_function", "SampledFunction"])
def test_bad_quadrature_step_rejected(interval, call, step):
    with pytest.raises(ValueError, match="step must be finite and positive"):
        call(interval, step)
