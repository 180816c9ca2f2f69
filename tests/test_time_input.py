"""Every public entry point that takes a time rejects NaN, +-inf and t <= 0."""

import importlib
import inspect
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
    pathsum_tail_bound,
    star_sigma,
)
from hklab.locality import (
    decomposition_residual,
    exit_density,
    interval_subdomain,
    kernel_killed,
)
from hklab.spectral import (
    ModeTable,
    kernel_spectral,
    modesum,
    spectral_tail_bound,
    trace_tail_bound,
)
from hklab.twoparticle import (
    eigen_trace_series,
    single_trace_eigen,
    trace_series,
    trace_two_particle,
    trace_two_particle_eigen,
)
from hklab.wiener import n_steps, simulate_ensemble

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
    # a bad time after a good one in a time array
    "pathsum_time_array": lambda g, t: pathsum(g, np.array([0.05, t])[:, None], "e", S, "e", S),
    "semigroup_t": lambda g, t: kernel_semigroup_residual(g, t, 0.05, X, X),
    "semigroup_s": lambda g, t: kernel_semigroup_residual(g, 0.05, t, X, X),
    "pathsum_tail_bound": lambda g, t: pathsum_tail_bound(g, t, 2.0),
    "kernel_mass": lambda g, t: kernel_mass(g, t, X),
    "kernel_spectral": lambda g, t: kernel_spectral(g, t, X, X, ModeTable(g, [], [])),
    "modesum": lambda g, t: modesum(ModeTable(g, [], []), t, X.edge, X.s, X.edge, X.s),
    "modesum_at_grid": lambda g, t: modesum(
        ModeTable(g, [], []), t, "e", S[:, None], "e", S[None, :]),
    "modesum_time_array": lambda g, t: modesum(
        ModeTable(g, [], []), np.array([0.05, t])[:, None], "e", S, "e", S),
    "spectral_tail_bound": lambda g, t: spectral_tail_bound(g, t, 40.0),
    "spectral_tail_bound_time_array": lambda g, t: spectral_tail_bound(
        g, np.array([0.05, t]), 40.0),
    "trace_tail_bound": lambda g, t: trace_tail_bound(g, t, 40.0),
    "trace_tail_bound_time_array": lambda g, t: trace_tail_bound(g, np.array([0.05, t]), 40.0),
    # a list of times is read as an array
    "spectral_tail_bound_time_list": lambda g, t: spectral_tail_bound(g, [0.05, t], 40.0),
    "trace_tail_bound_time_list": lambda g, t: trace_tail_bound(g, [0.05, t], 40.0),
    "single_trace_eigen": lambda g, t: single_trace_eigen(ModeTable(g, [], []), t),
    "single_trace_eigen_time_array": lambda g, t: single_trace_eigen(
        ModeTable(g, [], []), np.array([0.05, t])),
    "trace_two_particle_eigen": lambda g, t: trace_two_particle_eigen(
        ModeTable(g, [], []), t),
    "trace_two_particle_eigen_time_array": lambda g, t: trace_two_particle_eigen(
        ModeTable(g, [], []), np.array([0.05, t])),
    "trace_two_particle": lambda g, t: trace_two_particle(g, t, 1e-2),
    "trace_series": lambda g, t: trace_series(g, [0.05, t]),
    # a bad time after a good one: every time is checked, not only the least
    "eigen_trace_series": lambda g, t: eigen_trace_series(g, [0.05, t]),
    "exit_density": lambda g, t: exit_density(
        interval_subdomain(g, "e", 0.25, 0.75), X, GraphPoint("e", 0.25), t),
    "exit_density_time_array": lambda g, t: exit_density(
        interval_subdomain(g, "e", 0.25, 0.75), X, GraphPoint("e", 0.25), np.array([0.05, t])),
    "kernel_killed": lambda g, t: kernel_killed(
        interval_subdomain(g, "e", 0.25, 0.75), t, X, X),
    "decomposition_residual": lambda g, t: decomposition_residual(
        interval_subdomain(g, "e", 0.25, 0.75), t, X, X),
    "n_steps": lambda g, t: n_steps(t, 1e-3),
    "simulate_ensemble": lambda g, t: simulate_ensemble(g, X, t, 2e-3, 1, 10),
}

LAYERS = ("graph", "kernels", "spectral", "locality", "twoparticle", "wiener", "energy")

# public functions with a time parameter that CALLS leaves out, and why
EXEMPT = {}


def timed_functions():
    """Names of the public functions of every layer with a parameter t, s or T."""
    names = set()
    for layer in LAYERS:
        module = importlib.import_module(f"hklab.{layer}")
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_")
                    and {"t", "s", "T"} & set(inspect.signature(fn).parameters)):
                names.add(name)
    return names


def test_every_time_parameter_is_checked():
    # the function a CALLS entry tests is the first global name its lambda loads
    called = {call.__code__.co_names[0] for call in CALLS.values()}
    timed = timed_functions()
    assert sorted(timed - called - set(EXEMPT)) == []
    assert set(EXEMPT) <= timed and not set(EXEMPT) & called


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0, -0.1])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_bad_time_rejected(interval, name, t):
    with pytest.raises(GraphError, match="finite and positive"):
        CALLS[name](interval, t)


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf, 0.0, -1e-2])
@pytest.mark.parametrize("call", [
    lambda g, step: trace_two_particle(g, 0.05, step),
    lambda g, step: decomposition_residual(
        interval_subdomain(g, "e", 0.25, 0.75), 0.05, X, X, time_step=step),
    lambda g, step: sample_function(g, lambda eid, s: s, step),
    lambda g, step: SampledFunction(g, {"e": S}, step),
], ids=["trace_two_particle", "decomposition_residual", "sample_function",
        "SampledFunction"])
def test_bad_quadrature_step_rejected(interval, call, step):
    with pytest.raises(ValueError, match="step must be finite and positive"):
        call(interval, step)


# the entry points of one time: a 0-d array is that time, and an array of
# times belongs to pathsum
ONE_TIME = {
    "kernel_pathsum": lambda g, t: kernel_pathsum(g, t, X, GraphPoint("e", 0.2)).value,
    "kernel_mass": lambda g, t: kernel_mass(g, t, X),
    "semigroup_t": lambda g, t: kernel_semigroup_residual(g, t, 0.05, X, X),
    "semigroup_s": lambda g, t: kernel_semigroup_residual(g, 0.05, t, X, X),
    "kernel_spectral": lambda g, t: kernel_spectral(
        g, t, X, GraphPoint("e", 0.2), ModeTable(g, [0.0, math.pi], [[[1.0, 0.0]], [[1.0, 0.0]]])
    ).value,
    "kernel_killed": lambda g, t: kernel_killed(
        interval_subdomain(g, "e", 0.25, 0.75), t, X, GraphPoint("e", 0.3)).value,
    "decomposition_residual": lambda g, t: decomposition_residual(
        interval_subdomain(g, "e", 0.25, 0.75), t, X, GraphPoint("e", 0.3)),
}


@pytest.mark.parametrize("name", sorted(ONE_TIME))
def test_0d_time_is_that_time(interval, name):
    assert ONE_TIME[name](interval, np.array(0.02)) == ONE_TIME[name](interval, 0.02)


@pytest.mark.parametrize("name", sorted(ONE_TIME))
def test_time_array_refused_toward_pathsum(interval, name):
    with pytest.raises(GraphError, match="one time.*pathsum"):
        ONE_TIME[name](interval, np.array([0.02, 0.05]))


@pytest.mark.parametrize("bound", [spectral_tail_bound, trace_tail_bound])
def test_time_list_reads_as_array(interval, bound):
    ts = [0.05, 0.1]
    assert bound(interval, ts, 40.0).tolist() == bound(interval, np.array(ts), 40.0).tolist()
    assert bound(interval, ts, 40.0).tolist() == [bound(interval, t, 40.0) for t in ts]


def test_killed_kernel_reports_a_float_time(interval):
    u = interval_subdomain(interval, "e", 0.25, 0.75)
    assert type(kernel_killed(u, np.array(0.02), X, X).t) is float


# an empty time array names its argument; empty points give empty values
EMPTY_TIMES = {
    "pathsum": (lambda g: pathsum(g, np.array([]), X.edge, X.s, "e", 0.3), "t"),
    "modesum": (lambda g: modesum(ModeTable(g, [], []), np.array([]), X.edge, X.s, "e", 0.3),
                "t"),
    "exit_density": (lambda g: exit_density(
        interval_subdomain(g, "e", 0.25, 0.75), X, GraphPoint("e", 0.25), np.array([])), "s"),
    "eigen_trace_series": (lambda g: eigen_trace_series(g, []), "t_grid"),
    "trace_series": (lambda g: trace_series(g, []), "t_grid"),
}


@pytest.mark.parametrize("name", sorted(EMPTY_TIMES))
def test_empty_time_array_refused(interval, name):
    call, arg = EMPTY_TIMES[name]
    with pytest.raises(GraphError, match=f"^{arg} must hold at least one time"):
        call(interval)


@pytest.mark.parametrize("name", ["pathsum", "modesum"])
def test_empty_points_give_empty_values(interval, name):
    modes = ModeTable(interval, [0.0, math.pi], [[[1.0, 0.0]], [[1.0, 0.0]]])
    call = {"pathsum": lambda *a: pathsum(interval, *a),
            "modesum": lambda *a: modesum(modes, *a)}[name]
    for sx, sy in ((np.array([]), 0.3), (0.3, np.array([])), (np.zeros((0, 3)), np.zeros(3))):
        values, _ = call(0.05, "e", sx, "e", sy)
        assert values.shape == np.broadcast_shapes(np.shape(sx), np.shape(sy))
