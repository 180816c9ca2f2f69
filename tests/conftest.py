import os
from pathlib import Path

import pytest

from hklab.graph import Edge, GraphPoint, MetricGraph, Vertex

# pyproject's `pythonpath` puts src/ on this interpreter's path only; the CLI
# tests that start `python -m hklab.cli` in a subprocess need it too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def make_graph(vertices, edges) -> MetricGraph:
    return MetricGraph(
        tuple(Vertex(*v) for v in vertices), tuple(Edge(*e) for e in edges)
    )


def make_star(legs, leaf="kirchhoff"):
    return make_graph([("c", "kirchhoff")] + [(f"l{i}", leaf) for i in range(len(legs))],
                      [(f"e{i}", "c", f"l{i}", leg) for i, leg in enumerate(legs)])


def random_graph(kind, rng):
    """A small graph of the given kind with seeded, unequal edge lengths."""
    u = rng.uniform
    if kind in ("star", "star_dirichlet"):
        leaf = "dirichlet" if kind == "star_dirichlet" else "kirchhoff"
        return make_star([u(0.8, 1.2), u(0.8, 1.2), u(0.05, 0.3)], leaf)
    if kind == "triangle":
        return make_graph([(v, "kirchhoff") for v in "abc"],
                          [("e1", "a", "b", u(0.5, 1.5)), ("e2", "b", "c", u(0.5, 1.5)),
                           ("e3", "c", "a", u(0.5, 1.5))])
    if kind == "lollipop":
        return make_graph([("o", "kirchhoff"), ("l", "dirichlet")],
                          [("loop", "o", "o", u(0.8, 1.5)), ("stem", "o", "l", u(0.2, 0.6))])
    if kind == "multi":
        return make_graph([("a", "kirchhoff"), ("b", "kirchhoff")],
                          [("e1", "a", "b", u(0.5, 1.0)), ("e2", "a", "b", u(0.5, 1.0)),
                           ("e3", "a", "b", u(1.0, 1.5))])
    raise ValueError(kind)


GRAPH_KINDS = ["star", "star_dirichlet", "triangle", "lollipop", "multi"]


def end_and_inner_points(g, rng):
    """Both ends of every edge and one seeded inner point per edge."""
    pts = []
    for e in g.edges:
        pts += [GraphPoint(e.id, 0.0), GraphPoint(e.id, e.length),
                GraphPoint(e.id, float(rng.uniform(0.0, e.length)))]
    return pts


@pytest.fixture(scope="session")
def interval():
    return make_graph(
        [("a", "kirchhoff"), ("b", "kirchhoff")], [("e", "a", "b", 1.0)]
    )


@pytest.fixture(scope="session")
def interval_dirichlet():
    return make_graph(
        [("a", "dirichlet"), ("b", "dirichlet")], [("e", "a", "b", 1.0)]
    )


@pytest.fixture(scope="session")
def star3():
    return make_graph(
        [("c", "kirchhoff"), ("l1", "kirchhoff"), ("l2", "kirchhoff"),
         ("l3", "kirchhoff")],
        [("e1", "c", "l1", 1.0), ("e2", "c", "l2", 1.0), ("e3", "c", "l3", 1.0)],
    )


@pytest.fixture(scope="session")
def star3_dirichlet_leaves():
    return make_graph(
        [("c", "kirchhoff"), ("l1", "dirichlet"), ("l2", "dirichlet"),
         ("l3", "dirichlet")],
        [("e1", "c", "l1", 1.0), ("e2", "c", "l2", 1.0), ("e3", "c", "l3", 1.0)],
    )


@pytest.fixture(scope="session")
def triangle():
    return make_graph(
        [("a", "kirchhoff"), ("b", "kirchhoff"), ("c", "kirchhoff")],
        [("e1", "a", "b", 1.0), ("e2", "b", "c", 1.0), ("e3", "c", "a", 1.0)],
    )


@pytest.fixture(scope="session")
def circle():
    return make_graph([("o", "kirchhoff")], [("loop", "o", "o", 1.0)])


@pytest.fixture(scope="session")
def long_interval():
    return make_graph(
        [("a", "kirchhoff"), ("b", "kirchhoff")], [("e", "a", "b", 8.0)]
    )
