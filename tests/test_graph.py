import numpy as np
import pytest

from hklab.graph import (
    GraphError,
    GraphPoint,
    parse_graph,
    scattering_matrix,
)

from conftest import make_graph
from walk_reference import enumerate_walks

MINIMAL = """
{"vertices":[{"id":"u","condition":"kirchhoff"},{"id":"v","condition":"kirchhoff"}],
 "edges":[{"id":"e","u":"u","v":"v","length":1.0}]}
"""

STAR = """
{"vertices":[{"id":"c","condition":"kirchhoff"},{"id":"l1","condition":"kirchhoff"},
             {"id":"l2","condition":"kirchhoff"},{"id":"l3","condition":"kirchhoff"}],
 "edges":[{"id":"e1","u":"c","v":"l1","length":1.0},
          {"id":"e2","u":"c","v":"l2","length":1.0},
          {"id":"e3","u":"c","v":"l3","length":1.0}]}
"""


class TestParse:
    def test_minimal_graph(self):
        g = parse_graph(MINIMAL)
        assert g.total_length == 1.0
        assert g.degree("u") == 1

    def test_star_structure(self):
        g = parse_graph(STAR)
        assert g.degree("c") == 3
        assert g.total_length == 3.0

    def test_nonpositive_length_rejected(self):
        bad = MINIMAL.replace("1.0", "-0.5")
        with pytest.raises(GraphError, match="nonpositive length"):
            parse_graph(bad)

    def test_dangling_endpoint_rejected(self):
        bad = MINIMAL.replace('"v":"v"', '"v":"nowhere"')
        with pytest.raises(GraphError, match="missing vertex"):
            parse_graph(bad)

    def test_malformed_document(self):
        with pytest.raises(GraphError, match="malformed"):
            parse_graph("{not json")

    def test_loop_and_multiedge_allowed(self):
        g = make_graph(
            [("a", "kirchhoff"), ("b", "kirchhoff")],
            [("e1", "a", "b", 1.0), ("e2", "a", "b", 2.0), ("loop", "a", "a", 1.5)],
        )
        assert g.degree("a") == 4  # two parallel ends plus both loop ends
        assert g.degree("b") == 2


class TestScatteringMatrix:
    def test_kirchhoff_deg3(self, star3):
        sig = scattering_matrix(star3, "c")
        assert np.allclose(np.diag(sig), -1.0 / 3.0)
        off = sig[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 2.0 / 3.0)
        assert np.allclose(sig, sig.T)
        assert np.allclose(sig.sum(axis=1), 1.0)

    def test_kirchhoff_deg2_invisible(self):
        g = make_graph(
            [("a", "kirchhoff"), ("m", "kirchhoff"), ("b", "kirchhoff")],
            [("e1", "a", "m", 1.0), ("e2", "m", "b", 1.0)],
        )
        sig = scattering_matrix(g, "m")
        assert np.array_equal(sig, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_dirichlet_is_minus_identity(self, star3_dirichlet_leaves):
        sig = scattering_matrix(star3_dirichlet_leaves, "l1")
        assert np.array_equal(sig, np.array([[-1.0]]))
        assert sig.sum() == -1.0

    def test_dirichlet_higher_degree_rows(self):
        g = make_graph(
            [("a", "kirchhoff"), ("m", "dirichlet"), ("b", "kirchhoff")],
            [("e1", "a", "m", 1.0), ("e2", "m", "b", 1.0)],
        )
        sig = scattering_matrix(g, "m")
        assert np.array_equal(sig, -np.eye(2))
        assert np.allclose(sig.sum(axis=1), -1.0)

    def test_unknown_vertex(self, star3):
        with pytest.raises(GraphError):
            scattering_matrix(star3, "zz")

    def test_plain_read_only_array(self, star3):
        sig = scattering_matrix(star3, "c")
        assert isinstance(sig, np.ndarray) and sig.shape == (3, 3)
        with pytest.raises(ValueError):
            sig[0, 0] = 0.0


class TestWalks:
    def test_interval_direct_only(self, interval):
        walks = enumerate_walks(
            interval, GraphPoint("e", 0.4), GraphPoint("e", 0.6), 0.3
        )
        assert len(walks) == 1
        assert walks[0].length == pytest.approx(0.2)
        assert walks[0].weight == 1.0
        assert walks[0].bounces == ()

    def test_deg2_reflection_dropped(self):
        g = make_graph(
            [("a", "kirchhoff"), ("m", "kirchhoff"), ("b", "kirchhoff")],
            [("e1", "a", "m", 1.0), ("e2", "m", "b", 1.0)],
        )
        walks = enumerate_walks(g, GraphPoint("e1", 0.5), GraphPoint("e2", 0.5), 1.2)
        # transmitted walk has weight 1; the zero-weight reflection is dropped
        assert len(walks) == 1
        assert walks[0].length == pytest.approx(1.0)
        assert walks[0].weight == pytest.approx(1.0)
        assert walks[0].bounces == (("m", "e1", "e2"),)

    def test_star_bounces_at_both_ends(self, star3):
        # both the center bounce (weight -1/3) and the leaf bounce (weight 1)
        # fit in length 1.1 on the compact graph
        x = GraphPoint("e1", 0.5)
        walks = enumerate_walks(star3, x, x, 1.1)
        key = [(w.length, w.weight, w.bounces) for w in walks]
        assert key[0] == (0.0, 1.0, ())
        assert key[1][0] == pytest.approx(1.0)
        assert key[1][1] == pytest.approx(-1.0 / 3.0)
        assert key[1][2] == (("c", "e1", "e1"),)
        assert key[2][0] == pytest.approx(1.0)
        assert key[2][1] == pytest.approx(1.0)
        assert key[2][2] == (("l1", "e1", "e1"),)
        assert len(walks) == 3

    def test_prefix_consistency(self, star3):
        x = GraphPoint("e1", 0.3)
        y = GraphPoint("e2", 0.4)
        within = enumerate_walks(star3, x, y, 2.0)
        longer = enumerate_walks(star3, x, y, 4.0)
        assert longer[: len(within)] == within
        assert [w for w in longer if w.length <= 2.0] == within

    def test_weights_multiply(self, star3):
        x = GraphPoint("e1", 0.5)
        y = GraphPoint("e2", 0.5)
        walks = enumerate_walks(star3, x, y, 3.1)
        for w in walks:
            prod = 1.0
            for vid, ein, eout in w.bounces:
                d = star3.degree(vid)
                prod *= (2.0 / d) if ein != eout else (2.0 / d - 1.0)
            assert w.weight == pytest.approx(prod, rel=1e-12)

    def test_negative_max_length(self, interval):
        with pytest.raises(GraphError):
            enumerate_walks(interval, GraphPoint("e", 0.5), GraphPoint("e", 0.5), -1.0)
