import json
import math
import subprocess
import sys

import numpy as np
import pytest

from hklab.cli import main

INTERVAL = {
    "vertices": [
        {"id": "a", "condition": "kirchhoff"},
        {"id": "b", "condition": "kirchhoff"},
    ],
    "edges": [{"id": "e", "u": "a", "v": "b", "length": 1.0}],
}

INTERVAL_D = {
    "vertices": [
        {"id": "a", "condition": "dirichlet"},
        {"id": "b", "condition": "dirichlet"},
    ],
    "edges": [{"id": "e", "u": "a", "v": "b", "length": 1.0}],
}

TRIANGLE = {
    "vertices": [{"id": v, "condition": "kirchhoff"} for v in "abc"],
    "edges": [{"id": f"e{i}", "u": u, "v": v, "length": 1.0}
              for i, (u, v) in enumerate(("ab", "bc", "ca"))],
}

STAR_D = {
    "vertices": [{"id": "c", "condition": "kirchhoff"}]
    + [{"id": f"l{i}", "condition": "dirichlet"} for i in range(3)],
    "edges": [{"id": f"e{i}", "u": "c", "v": f"l{i}", "length": 1.0} for i in range(3)],
}

MAP = {
    "pieces": [
        {"edge_a": "e", "lo_a": 0.25, "hi_a": 0.75, "edge_b": "e", "lo_b": 0.25,
         "sign": 1}
    ]
}


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "interval.json").write_text(json.dumps(INTERVAL))
    (tmp_path / "interval_d.json").write_text(json.dumps(INTERVAL_D))
    (tmp_path / "triangle.json").write_text(json.dumps(TRIANGLE))
    (tmp_path / "star_d.json").write_text(json.dumps(STAR_D))
    (tmp_path / "map.json").write_text(json.dumps(MAP))
    bad = dict(INTERVAL)
    bad["edges"] = [{"id": "e1", "u": "a", "v": "b", "length": -0.5}]
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    return tmp_path


class TestValidate:
    def test_good_graph(self, workdir, capsys):
        assert main(["graph", "validate", str(workdir / "interval.json")]) == 0
        assert "2 vertices" in capsys.readouterr().out

    def test_bad_graph_exit_2_names_edge(self, workdir):
        proc = subprocess.run(
            [sys.executable, "-m", "hklab.cli", "graph", "validate",
             str(workdir / "bad.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["offending"] == "e1"
        assert "nonpositive" in err["error"]


class TestKernelCommand:
    def test_pathsum_writes_csv(self, workdir, capsys):
        rc = main([
            "kernel", "--graph", str(workdir / "interval.json"),
            "--method", "pathsum", "--t", "0.05", "--x", "e:0.5", "--y", "e:0.5",
            "--tol", "1e-10", "--out", str(workdir),
        ])
        assert rc == 0
        lines = (workdir / "kernel.csv").read_text().splitlines()
        assert lines[0].startswith("# hklab")
        row = lines[2].split(",")
        assert float(row[5]) == pytest.approx(1.278567, abs=1e-6)
        assert lines[1].endswith("tail_bound,lam,walks")
        assert float(row[7]) > 0 and int(row[8]) > 1
        out = capsys.readouterr().out
        assert f"lam {row[7]} walks {row[8]}" in out

    def test_closed_forms_report_no_truncation(self, workdir, capsys):
        assert main([
            "kernel", "--graph", str(workdir / "interval.json"),
            "--method", "interval", "--t", "0.05", "--x", "e:0.5", "--y", "e:0.5",
            "--out", str(workdir),
        ]) == 0
        row = (workdir / "kernel.csv").read_text().splitlines()[2].split(",")
        assert row[7:] == ["", ""]
        assert "walks" not in capsys.readouterr().out

    def test_methods_agree(self, workdir):
        vals = {}
        for method in ("pathsum", "spectral", "interval"):
            main([
                "kernel", "--graph", str(workdir / "interval.json"),
                "--method", method, "--t", "0.05", "--x", "e:0.3", "--y", "e:0.8",
                "--out", str(workdir),
            ])
            row = (workdir / "kernel.csv").read_text().splitlines()[2].split(",")
            vals[method] = float(row[5])
        assert vals["pathsum"] == pytest.approx(vals["interval"], abs=1e-9)
        assert vals["pathsum"] == pytest.approx(vals["spectral"], abs=1e-8)

    @pytest.mark.parametrize("method", ["pathsum", "spectral", "interval"])
    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_non_finite_time_exit_2(self, workdir, method, t, capsys):
        args = ["kernel", "--graph", str(workdir / "interval.json"), "--method",
                method, "--t", t, "--x", "e:0.3", "--y", "e:0.6",
                "--out", str(workdir)]
        assert main(args) == 2
        err = json.loads(capsys.readouterr().err)
        assert "finite and positive" in err["error"]

    @pytest.mark.parametrize("tol", ["0", "-1", "inf", "nan"])
    def test_spectral_bad_tol_exit_2(self, workdir, tol, capsys):
        args = ["kernel", "--graph", str(workdir / "interval.json"), "--method",
                "spectral", "--t", "0.05", "--x", "e:0.3", "--y", "e:0.6",
                "--tol", tol, "--out", str(workdir)]
        assert main(args) == 2
        err = json.loads(capsys.readouterr().err)
        assert "tol must be finite and positive" in err["error"]
        assert not (workdir / "kernel.csv").exists()

    @pytest.mark.parametrize("tol", ["1e-10", "1e-6"])
    @pytest.mark.parametrize("graph,x,y", [("interval.json", "e:0.5", "e:0.5"),
                                           ("star_d.json", "e0:0.5", "e1:0.2")])
    def test_spectral_bound_within_tol(self, workdir, graph, x, y, tol, capsys):
        # the unit interval at t = 0.05 and tol 1e-10 used to report 4.95e-10
        assert main(["kernel", "--graph", str(workdir / graph), "--method", "spectral",
                     "--t", "0.05", "--x", x, "--y", y, "--tol", tol,
                     "--out", str(workdir)]) == 0
        row = (workdir / "kernel.csv").read_text().splitlines()[2].split(",")
        assert 0.0 < float(row[6]) <= float(tol)
        assert f"tail_bound {row[6]}" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["pathsum", "spectral", "interval"])
    @pytest.mark.parametrize("x", ["e:5.0", "e:-0.5"])
    def test_off_edge_point_exit_2(self, workdir, method, x, capsys):
        args = ["kernel", "--graph", str(workdir / "interval.json"), "--method",
                method, "--t", "0.05", "--x", x, "--y", "e:0.5", "--out", str(workdir)]
        assert main(args) == 2
        err = json.loads(capsys.readouterr().err)
        assert "off edge 'e'" in err["error"]
        assert not (workdir / "kernel.csv").exists()

    def test_interval_image_cap_exit_2(self, workdir, capsys):
        args = ["kernel", "--graph", str(workdir / "interval.json"), "--method",
                "interval", "--t", "1e12", "--x", "e:0.3", "--y", "e:0.6",
                "--out", str(workdir)]
        assert main(args) == 2
        assert "images" in json.loads(capsys.readouterr().err)["error"]
        assert not (workdir / "kernel.csv").exists()

    @pytest.mark.parametrize("x,y", [("e:5.0", "e:0.5"), ("e:0.5", "e:5.0")])
    def test_points_checked_before_eigen(self, workdir, monkeypatch, x, y, capsys):
        from hklab import cli

        def no_eigen(*args, **kwargs):
            raise AssertionError("eigen ran before the points were checked")

        monkeypatch.setattr(cli, "eigen", no_eigen)
        args = ["kernel", "--graph", str(workdir / "interval.json"), "--method",
                "spectral", "--t", "1e-4", "--x", x, "--y", y, "--out", str(workdir)]
        assert main(args) == 2
        assert "off edge 'e'" in json.loads(capsys.readouterr().err)["error"]


class TestLocalityCommand:
    def test_certificate_json(self, workdir):
        rc = main([
            "locality", "--graph-a", str(workdir / "interval.json"),
            "--graph-b", str(workdir / "interval_d.json"),
            "--map", str(workdir / "map.json"), "--V", "0.4:0.6",
            "--tgrid", "0.01:0.05:8", "--out", str(workdir),
        ])
        assert rc == 0
        doc = json.loads((workdir / "certificate.json").read_text())
        assert doc["certified"] is True
        assert doc["eps"] > 0
        assert doc["r2"] >= 0.999
        assert len(doc["sup_diffs"]) == 8
        assert "config_hash" in doc

    @pytest.mark.parametrize("doc, message", [
        ({"pieces": [{k: v for k, v in MAP["pieces"][0].items() if k != "lo_b"}]},
         "map piece has no 'lo_b'"),
        ({}, "map document has no 'pieces'"),
        ({"pieces": [dict(MAP["pieces"][0], sign=0)]}, "sign must be +1 or -1"),
        ({"pieces": [dict(MAP["pieces"][0], edge_a=["e"])]},
         "edge_a must be a string, got ['e']"),
    ], ids=["no_lo_b", "no_pieces", "sign_0", "edge_a_list"])
    def test_malformed_map_exit_2(self, workdir, doc, message, capsys):
        # the first two used to end in a KeyError traceback, sign 0 ran, and
        # a list edge ended in a TypeError traceback
        (workdir / "bad_map.json").write_text(json.dumps(doc))
        rc = main([
            "locality", "--graph-a", str(workdir / "interval.json"),
            "--graph-b", str(workdir / "interval_d.json"),
            "--map", str(workdir / "bad_map.json"), "--V", "0.4:0.6",
            "--tgrid", "0.01:0.05:8", "--out", str(workdir),
        ])
        assert rc == 2
        assert message in json.loads(capsys.readouterr().err)["error"]
        assert not (workdir / "certificate.json").exists()


class TestMcCommand:
    def test_simulate_deterministic_bytes(self, workdir):
        args = [
            "mc", "simulate", "--graph", str(workdir / "interval.json"),
            "--x0", "e:0.5", "--T", "0.01", "--h", "2e-3", "--paths", "4000",
            "--seed", "9", "--out", str(workdir),
        ]
        assert main(args) == 0
        first = (workdir / "ensemble.csv").read_bytes()
        assert main(args) == 0
        assert (workdir / "ensemble.csv").read_bytes() == first

    def test_seed_env_override(self, workdir, monkeypatch):
        args = [
            "mc", "simulate", "--graph", str(workdir / "interval.json"),
            "--x0", "e:0.5", "--T", "0.01", "--h", "2e-3", "--paths", "4000",
            "--seed", "9", "--out", str(workdir),
        ]
        main(args)
        baseline = (workdir / "ensemble.csv").read_bytes()
        monkeypatch.setenv("HKLAB_SEED", "777")
        main(args)
        assert (workdir / "ensemble.csv").read_bytes() != baseline

    @pytest.mark.parametrize("horizon", ["inf", "nan"])
    def test_non_finite_horizon_exit_2(self, workdir, horizon, capsys):
        args = [
            "mc", "simulate", "--graph", str(workdir / "interval.json"),
            "--x0", "e:0.5", "--T", horizon, "--h", "2e-3", "--paths", "10",
            "--out", str(workdir),
        ]
        assert main(args) == 2
        err = json.loads(capsys.readouterr().err)
        assert "finite and positive" in err["error"]

    @pytest.mark.parametrize("h", ["1e-200", "1e-160", "1e-5"])
    def test_too_many_steps_exit_2(self, workdir, h, capsys):
        # 1e-200 and 1e-160 once ended in ZeroDivisionError and OverflowError
        # tracebacks; 1e-5 at T = 1e3 asks for 2e13 steps, above the 2**32 limit
        args = [
            "mc", "simulate", "--graph", str(workdir / "interval.json"),
            "--x0", "e:0.5", "--T", "0.01" if h != "1e-5" else "1e3", "--h", h,
            "--paths", "10", "--out", str(workdir),
        ]
        assert main(args) == 2
        assert "more than 2**32 steps" in json.loads(capsys.readouterr().err)["error"]
        assert not (workdir / "ensemble.csv").exists()

    @pytest.mark.parametrize("paths", ["0", "-5"])
    def test_bad_path_count_exit_2(self, workdir, paths, capsys):
        args = [
            "mc", "simulate", "--graph", str(workdir / "interval.json"),
            "--x0", "e:0.5", "--T", "0.01", "--h", "0.01", "--paths", paths,
            "--out", str(workdir),
        ]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "n_paths must be at least 1" in json.loads(captured.err)["error"]
        assert "stay fraction" not in captured.out

    def test_start_on_dirichlet_vertex_exit_2(self, workdir, capsys):
        args = [
            "mc", "simulate", "--graph", str(workdir / "interval_d.json"),
            "--x0", "e:0", "--T", "0.01", "--h", "0.01", "--paths", "1000",
            "--out", str(workdir),
        ]
        assert main(args) == 2
        err = json.loads(capsys.readouterr().err)
        assert "Dirichlet vertex 'a'" in err["error"] and err["offending"] == "a"
        assert not (workdir / "ensemble.csv").exists()

    @pytest.mark.parametrize("option", ["--graph", "--x0", "--T", "--h"])
    def test_simulate_missing_option_exit_2(self, workdir, option, capsys):
        # each used to end in a TypeError or AttributeError traceback
        args = {"--graph": str(workdir / "interval.json"), "--x0": "e:0.5",
                "--T": "0.01", "--h": "0.01"}
        del args[option]
        argv = ["mc", "simulate", "--paths", "10", "--out", str(workdir)]
        for k, v in args.items():
            argv += [k, v]
        assert main(argv) == 2
        assert f"mc simulate requires {option}" in json.loads(capsys.readouterr().err)["error"]
        assert not (workdir / "ensemble.csv").exists()

    @pytest.mark.parametrize("paths", [0, -1, 2.7])
    def test_splice_bad_path_count_exit_2(self, workdir, paths, capsys):
        # 2.7 used to run 2 paths and exit 0
        cfg = {
            "graph_a": str(workdir / "interval_d.json"),
            "graph_b": str(workdir / "interval.json"),
            "u": [["e", 0.25, 0.75]],
            "map": MAP,
            "x0": "e:0.5",
            "T": 0.01,
            "h": 0.01,
            "paths": paths,
        }
        (workdir / "splice.json").write_text(json.dumps(cfg))
        rc = main(["mc", "splice", "--config", str(workdir / "splice.json"),
                   "--out", str(workdir)])
        assert rc == 2
        captured = capsys.readouterr()
        message = "n_paths must be at least 1" if paths < 1 else "paths must be a whole number"
        assert message in json.loads(captured.err)["error"]
        assert not (workdir / "ensemble.csv").exists()

    @pytest.mark.parametrize("key, value", [("bins", 2.5), ("seed", 5.5), ("bins", math.inf)])
    def test_splice_fractional_bins_or_seed_exit_2(self, workdir, key, value, capsys):
        # 2.5 bins used to give 2, and seed 5.5 ran (and recorded) seed 5
        cfg = {
            "graph_a": str(workdir / "interval_d.json"),
            "graph_b": str(workdir / "interval.json"),
            "u": [["e", 0.25, 0.75]],
            "map": MAP,
            "x0": "e:0.5",
            "T": 0.01,
            "h": 0.01,
            "paths": 20,
            key: value,
        }
        (workdir / "splice.json").write_text(json.dumps(cfg))
        rc = main(["mc", "splice", "--config", str(workdir / "splice.json"),
                   "--out", str(workdir)])
        assert rc == 2
        assert f"{key} must be a whole number" in json.loads(capsys.readouterr().err)["error"]
        assert not (workdir / "ensemble.csv").exists()

    @pytest.mark.parametrize("malform, message", [
        (lambda cfg: {k: v for k, v in cfg.items() if k != "T"}, "splice config has no 'T'"),
        (lambda cfg: [cfg], "splice config must be a JSON object"),
    ], ids=["no_T", "list"])
    def test_splice_malformed_config_exit_2(self, workdir, malform, message, capsys):
        # a missing key used to end in a KeyError traceback, and a list in a TypeError
        cfg = {
            "graph_a": str(workdir / "interval_d.json"),
            "graph_b": str(workdir / "interval.json"),
            "u": [["e", 0.25, 0.75]],
            "map": MAP,
            "x0": "e:0.5",
            "T": 0.01,
            "h": 0.01,
            "paths": 20,
        }
        (workdir / "splice.json").write_text(json.dumps(malform(cfg)))
        rc = main(["mc", "splice", "--config", str(workdir / "splice.json"),
                   "--out", str(workdir)])
        assert rc == 2
        assert message in json.loads(capsys.readouterr().err)["error"]
        assert not (workdir / "ensemble.csv").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("T", None, "T must be a number, got None"),
        ("h", [1], "h must be a number, got [1]"),
        ("map", {"pieces": [dict(MAP["pieces"][0], lo_b=None)]},
         "lo_b must be a number, got None"),
    ], ids=["T_null", "h_list", "lo_b_null"])
    def test_splice_non_number_exit_2(self, workdir, key, value, message, capsys):
        # each used to end in a TypeError traceback
        cfg = {
            "graph_a": str(workdir / "interval_d.json"),
            "graph_b": str(workdir / "interval.json"),
            "u": [["e", 0.25, 0.75]],
            "map": MAP,
            "x0": "e:0.5",
            "T": 0.01,
            "h": 0.01,
            "paths": 20,
            key: value,
        }
        (workdir / "splice.json").write_text(json.dumps(cfg))
        rc = main(["mc", "splice", "--config", str(workdir / "splice.json"),
                   "--out", str(workdir)])
        assert rc == 2
        assert message in json.loads(capsys.readouterr().err)["error"]
        assert not (workdir / "ensemble.csv").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("x0", None, "x0 must be a string, got None"),
        ("x0", 0.5, "x0 must be a string, got 0.5"),
        ("graph_a", None, "graph_a must be a string, got None"),
        ("u", None, "u must be a list of [edge, lo, hi] triples, got None"),
        ("u", [["e", 0.25]], "u must be a list of [edge, lo, hi] triples"),
        ("u", [[None, 0.25, 0.75]], "u edge must be a string, got None"),
    ], ids=["x0_null", "x0_number", "graph_a_null", "u_null", "u_pair", "u_edge_null"])
    def test_splice_non_string_or_bad_u_exit_2(self, workdir, key, value, message, capsys):
        # the first four used to end in an AttributeError or TypeError
        # traceback, and the last two in errors that did not name the key
        cfg = {
            "graph_a": str(workdir / "interval_d.json"),
            "graph_b": str(workdir / "interval.json"),
            "u": [["e", 0.25, 0.75]],
            "map": MAP,
            "x0": "e:0.5",
            "T": 0.01,
            "h": 0.01,
            "paths": 20,
            key: value,
        }
        (workdir / "splice.json").write_text(json.dumps(cfg))
        rc = main(["mc", "splice", "--config", str(workdir / "splice.json"),
                   "--out", str(workdir)])
        assert rc == 2
        assert message in json.loads(capsys.readouterr().err)["error"]
        assert not (workdir / "ensemble.csv").exists()

    def test_splice_config(self, workdir):
        cfg = {
            "graph_a": str(workdir / "interval_d.json"),
            "graph_b": str(workdir / "interval.json"),
            "u": [["e", 0.25, 0.75]],
            "map": MAP,
            "x0": "e:0.5",
            "T": 0.01,
            "h": 2e-3,
            "paths": 3000,
            "seed": 5,
        }
        (workdir / "splice.json").write_text(json.dumps(cfg))
        rc = main(["mc", "splice", "--config", str(workdir / "splice.json"),
                   "--out", str(workdir)])
        assert rc == 0
        lines = (workdir / "ensemble.csv").read_text().splitlines()
        counts = sum(float(r.split(",")[2]) for r in lines[2:])
        assert counts == 3000


class TestOtherCommands:
    def test_eigen_csv(self, workdir):
        assert main(["eigen", "--graph", str(workdir / "interval.json"),
                     "--kmax", "10", "--out", str(workdir)]) == 0
        lines = (workdir / "eigen.csv").read_text().splitlines()
        ks = [float(r.split(",")[0]) for r in lines[2:]]
        assert ks[0] == 0.0
        assert ks[1] == pytest.approx(math.pi, abs=1e-10)

    def test_eigen_circle_double_roots(self, workdir):
        circle = {"vertices": [{"id": "o", "condition": "kirchhoff"}],
                  "edges": [{"id": "loop", "u": "o", "v": "o", "length": 1.0}]}
        (workdir / "circle.json").write_text(json.dumps(circle))
        assert main(["eigen", "--graph", str(workdir / "circle.json"),
                     "--kmax", "40", "--out", str(workdir)]) == 0
        rows = [r.split(",") for r in (workdir / "eigen.csv").read_text().splitlines()[2:]]
        assert [float(r[0]) for r in rows] == pytest.approx(
            [2 * math.pi * n for n in range(7)], abs=1e-10)
        assert [int(r[2]) for r in rows] == [1] + [2] * 6

    @pytest.mark.parametrize("kmax", ["nan", "inf", "1e12"])
    def test_eigen_bad_kmax_exit_2(self, workdir, kmax, capsys):
        assert main(["eigen", "--graph", str(workdir / "interval.json"),
                     "--kmax", kmax, "--out", str(workdir)]) == 2
        assert "k_max" in json.loads(capsys.readouterr().err)["error"]
        assert not (workdir / "eigen.csv").exists()

    def test_trace_csv(self, workdir):
        assert main(["trace", "--graph", str(workdir / "interval.json"),
                     "--tgrid", "0.01:0.1:5", "--out", str(workdir)]) == 0
        lines = (workdir / "trace.csv").read_text().splitlines()
        assert len(lines) == 2 + 5

    def test_trace_tail_bound_column(self, workdir):
        # the column used to hold a hard-coded 0.0 headed quad_error
        assert main(["trace", "--graph", str(workdir / "interval.json"),
                     "--tgrid", "0.01:0.1:5", "--out", str(workdir)]) == 0
        lines = (workdir / "trace.csv").read_text().splitlines()
        assert lines[1] == "t,Z,tail_bound"
        for row in lines[2:]:
            t, z, bound = map(float, row.split(","))
            # the unit Kirchhoff interval: k = n pi for n = 0, 1, 2, ...
            exact = math.fsum(math.exp(-((n * math.pi) ** 2) * t) for n in range(200))
            assert bound > 0.0
            # Z is written to 12 significant digits
            assert abs(z - exact) <= bound + 5e-12 * exact

    @pytest.mark.parametrize("command", ["trace", "locality"])
    @pytest.mark.parametrize("tgrid", ["0.01:inf:3", "nan:0.05:3", "0:0.05:3",
                                       "0.01:-0.05:3", "0.01:0.05:0"])
    def test_bad_tgrid_exit_2(self, workdir, command, tgrid, capsys):
        graph = ["--graph", str(workdir / "interval.json")]
        if command == "locality":
            graph = ["--graph-a", str(workdir / "interval.json"),
                     "--graph-b", str(workdir / "interval_d.json"),
                     "--map", str(workdir / "map.json"), "--V", "0.4:0.6"]
        assert main([command, *graph, "--tgrid", tgrid, "--out", str(workdir)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "t-grid" in err["error"]
        assert not (workdir / "trace.csv").exists()

    def test_trace_bytes_repeat_across_processes(self, workdir):
        # each run is its own interpreter, so nothing that varies between
        # processes (such as an object address) may reach the header hash
        args = [sys.executable, "-m", "hklab.cli", "trace", "--graph",
                str(workdir / "interval.json"), "--tgrid", "0.01:0.1:5",
                "--out", str(workdir)]
        outputs = []
        for _ in range(2):
            subprocess.run(args, check=True, capture_output=True)
            outputs.append((workdir / "trace.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_twoparticle_predict_fit(self, workdir):
        assert main(["twoparticle", "predict", "--graph",
                     str(workdir / "interval.json"), "--fit",
                     "--out", str(workdir)]) == 0
        doc = json.loads((workdir / "fit_report.json").read_text())
        assert doc["predicted"]["a_0"] == pytest.approx(0.375)
        assert doc["relative_errors"]["a_0"] < 0.01

    @pytest.mark.parametrize("graph", ["triangle.json", "star_d.json"])
    def test_twoparticle_predict_fit_zero_a0(self, workdir, graph):
        # both predict a_0 = 0, which used to raise ZeroDivisionError
        assert main(["twoparticle", "predict", "--graph", str(workdir / graph),
                     "--fit", "--out", str(workdir)]) == 0
        doc = json.loads((workdir / "fit_report.json").read_text())
        pred, rel, err = doc["predicted"], doc["relative_errors"], doc["absolute_errors"]
        assert pred["a_0"] == 0.0 and rel["a_0"] is None
        assert rel["a_minus1"] < 1e-6 and rel["a_half"] < 1e-6
        assert err["a_0"] < 1e-6
        assert err["a_half"] == pytest.approx(rel["a_half"] * abs(pred["a_half"]))

    def test_twoparticle_trace(self, workdir):
        assert main(["twoparticle", "trace", "--graph",
                     str(workdir / "interval.json"), "--tgrid", "0.01:0.05:3",
                     "--out", str(workdir)]) == 0
        lines = (workdir / "trace.csv").read_text().splitlines()
        assert lines[1] == "t,Z,quad_error"
        rows = [[float(v) for v in r.split(",")] for r in lines[2:]]
        assert rows[0][1] > rows[-1][1] > 0
        # the column carries the certified bound of the Gauss-Legendre rule
        assert all(0.0 < err < 1e-9 * z for _, z, err in rows)

    def test_energy_study(self, workdir):
        assert main(["energy", "study", "--graph", str(workdir / "interval.json"),
                     "--f", "coordinate", "--rgrid", "2e-3:8e-3:3",
                     "--out", str(workdir)]) == 0
        lines = (workdir / "study.csv").read_text().splitlines()
        last_ratio = float(lines[-1].split(",")[2])
        assert last_ratio == pytest.approx(2.0, abs=0.01)

    @pytest.mark.parametrize("rgrid", ["1e-3:8e-3:0", "nan:8e-3:4", "1e-3:inf:4",
                                       "0:8e-3:4", "1e-3:8e-3"])
    def test_bad_rgrid_exit_2(self, workdir, rgrid, capsys):
        assert main(["energy", "study", "--graph", str(workdir / "interval.json"),
                     "--rgrid", rgrid, "--out", str(workdir)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "r-grid" in err["error"]
        assert not (workdir / "study.csv").exists()

    def test_decompose(self, workdir, capsys):
        assert main(["decompose", "--graph", str(workdir / "interval.json"),
                     "--u", "0.25:0.75", "--x", "e:0.5", "--y", "e:0.5",
                     "--t", "0.05", "--step", "2e-4"]) == 0
        out = capsys.readouterr().out
        assert float(out.split()[-1]) < 1e-4


class TestSelftestHook:
    def test_broken_sigma_fails_star_criterion(self, monkeypatch):
        # negative control: a scattering matrix off by 0.01 on the diagonal
        # must fail the star criterion
        from hklab import acceptance
        from hklab.graph import scattering_matrix

        def broken(g, vertex_id):
            return scattering_matrix(g, vertex_id) + 0.01 * np.eye(g.degree(vertex_id))

        monkeypatch.setattr(acceptance, "scattering_matrix", broken)
        res = acceptance.criterion_6()
        assert not res.passed

    def test_selftest_single_criterion(self, capsys):
        rc = main(["selftest", "--only", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "criterion 6" in out

    @pytest.mark.parametrize("only", ["11", "0,-1", "6,12"])
    def test_selftest_unknown_criterion_exit_2(self, only, capsys):
        # unknown numbers used to be dropped, printing "0/0 criteria passed"
        # with exit 0
        rc = main(["selftest", "--only", only])
        captured = capsys.readouterr()
        assert rc == 2
        assert "unknown criteria" in json.loads(captured.err)["error"]
        assert "criterion" not in captured.out
