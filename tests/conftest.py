import os
from pathlib import Path

import pytest

from hklab.graph import Edge, MetricGraph, Vertex

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
