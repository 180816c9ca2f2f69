"""Command-line interface: experiment orchestration and CSV/JSON emission.

Every output file embeds the tool version and a hash of the run
configuration; identical configuration and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .energy import convergence_study, sample_function
from .graph import GraphError, GraphPoint, _check_time, load_graph, parse_graph
from .kernels import TruncationError, kernel_interval, kernel_pathsum
from .locality import (
    IsometryMap,
    MapPiece,
    SubdomainSpec,
    decomposition_residual,
    interval_subdomain,
    locality_compare,
)
from .spectral import eigen, eigen_report, kernel_spectral
from .twoparticle import (
    asymptotic_fit,
    eigen_trace_series,
    predicted_coefficients,
    single_trace_eigen,
    trace_series,
)
from .wiener import SpliceConfig, histogram_counts, simulate_ensemble, splice
from . import acceptance

FMT = "%.12g"


def _fmt(x) -> str:
    return FMT % float(x)


def _options(args) -> dict:
    """The parsed option values of a run, without the subcommand handler,
    whose repr holds a memory address."""
    return {k: v for k, v in vars(args).items() if k != "func"}


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _write_csv(path: Path, header: list[str], rows, cfg: dict):
    lines = [f"# hklab {__version__} config={_config_hash(cfg)}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float)) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict, cfg: dict):
    payload = dict(payload)
    payload["tool_version"] = __version__
    payload["config_hash"] = _config_hash(cfg)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n")


def _point(text: str) -> GraphPoint:
    edge, _, s = text.rpartition(":")
    if not edge:
        raise GraphError(f"point {text!r} must look like edge:arclength")
    return GraphPoint(edge, float(s))


def _whole(value, name: str) -> int:
    """A count or seed from a config document; a fraction, inf or NaN is refused
    rather than truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise GraphError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _grid(text: str, name: str) -> np.ndarray:
    """The geometric grid lo..hi of n points given as lo:hi:n."""
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise GraphError(f"{name} {text!r} must look like lo:hi:n") from exc
    _check_time(lo, f"{name} start")
    _check_time(hi, f"{name} end")
    if n < 1:
        raise GraphError(f"{name} {text!r} needs at least one point")
    return np.geomspace(lo, hi, n)


def _subdomain(g, text: str) -> SubdomainSpec:
    parts = text.split(":")
    if len(parts) == 2:
        if len(g.edges) != 1:
            raise GraphError("edge-less interval spec needs a single-edge graph")
        return interval_subdomain(g, g.edges[0].id, float(parts[0]), float(parts[1]))
    if len(parts) == 3:
        return interval_subdomain(g, parts[0], float(parts[1]), float(parts[2]))
    raise GraphError(f"subdomain {text!r} must look like [edge:]lo:hi")


def _iso_from_doc(g_a, g_b, doc: dict) -> IsometryMap:
    pieces = tuple(
        MapPiece(
            p["edge_a"], float(p["lo_a"]), float(p["hi_a"]),
            p["edge_b"], float(p["lo_b"]), int(p.get("sign", 1)),
        )
        for p in doc["pieces"]
    )
    src = SubdomainSpec(g_a, tuple((p.edge_a, p.lo_a, p.hi_a) for p in pieces))
    tgt = SubdomainSpec(
        g_b,
        tuple((p.edge_b, p.lo_b, p.lo_b + (p.hi_a - p.lo_a)) for p in pieces),
    )
    return IsometryMap(src, tgt, pieces)


def _load_map(g_a, g_b, path: str) -> IsometryMap:
    return _iso_from_doc(g_a, g_b, json.loads(Path(path).read_text()))


# -- subcommand handlers --------------------------------------------------------


def _cmd_graph(args):
    if args.action != "validate":
        raise GraphError(f"unknown graph action {args.action!r}")
    g = load_graph(args.path)
    print(
        f"ok: {len(g.vertices)} vertices, {len(g.edges)} edges, "
        f"total length {_fmt(g.total_length)}"
    )
    return 0


def _cmd_kernel(args):
    g = load_graph(args.graph)
    x, y = _point(args.x), _point(args.y)
    g.check_point(x)  # before any method's work, such as the spectral eigen solve
    g.check_point(y)
    cfg = _options(args)
    if args.method == "pathsum":
        ev = kernel_pathsum(g, args.t, x, y, tol=args.tol)
    elif args.method == "spectral":
        _check_time(args.t)  # k_max is derived from t before kernel_spectral sees it
        k_max = math.sqrt(math.log(max(4.0 / args.tol, 8.0)) / args.t) + 3.0
        ev = kernel_spectral(g, args.t, x, y, eigen(g, k_max))
    elif args.method == "interval":
        if len(g.edges) != 1:
            raise GraphError("interval method needs a single-edge graph")
        e = g.edges[0]
        ev = kernel_interval(
            e.length, g.condition(e.u), g.condition(e.v), args.t, x.s, y.s
        )
    else:
        raise GraphError(f"unknown method {args.method!r}")
    out = Path(args.out) / "kernel.csv"
    lam, walks = ("", "") if ev.lam is None else (ev.lam, ev.walks)
    _write_csv(
        out,
        ["t", "edge_x", "s_x", "edge_y", "s_y", "value", "tail_bound", "lam", "walks"],
        [[args.t, x.edge, x.s, y.edge, y.s, ev.value, ev.tail_bound, lam, walks]],
        cfg,
    )
    truncation = "" if ev.lam is None else f" lam {_fmt(lam)} walks {walks}"
    print(f"value {_fmt(ev.value)} tail_bound {_fmt(ev.tail_bound)}{truncation} -> {out}")
    return 0


def _cmd_eigen(args):
    g = load_graph(args.graph)
    modes = eigen(g, args.kmax)
    rows = [
        [r["k"], r["lambda"], r["multiplicity"], r["continuity_residual"],
         r["kirchhoff_residual"]]
        for r in eigen_report(modes)
    ]
    out = Path(args.out) / "eigen.csv"
    _write_csv(out, ["k", "lambda", "multiplicity", "continuity_residual",
                     "kirchhoff_residual"], rows, _options(args))
    print(f"{len(modes)} modes up to k={_fmt(args.kmax)} -> {out}")
    return 0


def _cmd_trace(args):
    g = load_graph(args.graph)
    ts = _grid(args.tgrid, "t-grid")
    k_max = math.sqrt(math.log(1e16) / float(ts.min())) + 3.0
    modes = eigen(g, k_max)
    rows = [[t, single_trace_eigen(modes, t), 0.0] for t in ts]
    out = Path(args.out) / "trace.csv"
    _write_csv(out, ["t", "Z", "quad_error"], rows, _options(args))
    print(f"heat trace on {len(ts)} times -> {out}")
    return 0


def _cmd_locality(args):
    g_a = load_graph(args.graph_a)
    g_b = load_graph(args.graph_b)
    iso = _load_map(g_a, g_b, args.map)
    v = _subdomain(g_a, args.V)
    cert = locality_compare(g_a, g_b, iso, v, _grid(args.tgrid, "t-grid"))
    cfg = _options(args)
    out = Path(args.out) / "certificate.json"
    _write_json(
        out,
        {
            "V": list(v.pieces),
            "U": list(iso.source.pieces),
            "T": max(cert.t_grid),
            "t_grid": list(cert.t_grid),
            "sup_diffs": list(cert.sup_diffs),
            "C": cert.C,
            "eps": cert.eps,
            "r2": cert.r2,
            "certified": cert.certified,
            "reason": cert.reason,
        },
        cfg,
    )
    _write_csv(
        Path(args.out) / "supdiffs.csv",
        ["t", "sup_diff", "noise_floor"],
        [[t, s, f] for t, s, f in zip(cert.t_grid, cert.sup_diffs, cert.noise_floor)],
        cfg,
    )
    print(
        f"certified={cert.certified} eps={_fmt(cert.eps)} r2={_fmt(cert.r2)} -> {out}"
    )
    return 0 if cert.certified else 3


def _cmd_decompose(args):
    g = load_graph(args.graph)
    u = _subdomain(g, args.u)
    res = decomposition_residual(
        u, args.t, _point(args.x), _point(args.y), time_step=args.step
    )
    print(f"decomposition residual {_fmt(res)}")
    return 0


def _cmd_mc(args):
    if args.action == "simulate":
        g = load_graph(args.graph)
        u = _subdomain(g, args.u) if args.u else None
        seed = acceptance.base_seed(args.seed)
        ens = simulate_ensemble(g, _point(args.x0), args.T, args.h, seed, args.paths, U=u)
        coords = ens.endpoint_coords()
        counts, edges = histogram_counts(coords, 0.0, g.total_length, args.bins)
        cfg = _options(args)
        cfg["seed"] = seed
        out = Path(args.out) / "ensemble.csv"
        _write_csv(
            out,
            ["bin_lo", "bin_hi", "count"],
            [[edges[i], edges[i + 1], counts[i]] for i in range(len(counts))],
            cfg,
        )
        print(
            f"{args.paths} paths, {int(ens.alive.sum())} surviving, "
            f"stay fraction {_fmt(ens.stay_fraction())} -> {out}"
        )
        return 0
    if args.action == "splice":
        if not args.config:
            raise GraphError("mc splice requires --config")
        doc = json.loads(Path(args.config).read_text())
        g_a = parse_graph(Path(doc["graph_a"]).read_text())
        g_b = parse_graph(Path(doc["graph_b"]).read_text())
        iso = _iso_from_doc(g_a, g_b, doc["map"])
        u = SubdomainSpec(g_a, tuple((e, float(lo), float(hi)) for e, lo, hi in doc["u"]))
        seed = acceptance.base_seed(_whole(doc.get("seed", acceptance.DEFAULT_SEED), "seed"))
        cfg_obj = SpliceConfig(
            g_a, g_b, u, iso, _point(doc["x0"]), float(doc["T"]), float(doc["h"]),
            _whole(doc["paths"], "paths"), seed,
        )
        ens = splice(cfg_obj)
        counts, edges = histogram_counts(
            ens.endpoint_coords(), 0.0, g_b.total_length, _whole(doc.get("bins", 20), "bins")
        )
        out = Path(args.out) / "ensemble.csv"
        _write_csv(
            out,
            ["bin_lo", "bin_hi", "count"],
            [[edges[i], edges[i + 1], counts[i]] for i in range(len(counts))],
            {**doc, "seed": seed},
        )
        print(
            f"spliced {cfg_obj.n_paths} paths, stay fraction "
            f"{_fmt(ens.stay_fraction())} -> {out}"
        )
        return 0
    raise GraphError(f"unknown mc action {args.action!r}")


def _cmd_twoparticle(args):
    g = load_graph(args.graph)
    cfg = _options(args)
    if args.action == "trace":
        series = trace_series(g, _grid(args.tgrid, "t-grid"), args.step)
        out = Path(args.out) / "trace.csv"
        _write_csv(
            out,
            ["t", "Z", "quad_error"],
            [[t, z, e] for t, z, e in zip(series.t, series.Z, series.quad_error)],
            cfg,
        )
        print(f"two-particle trace on {len(series.t)} times -> {out}")
        return 0
    if args.action == "predict":
        pred = predicted_coefficients(g)
        payload = {
            "predicted": {
                "a_minus1": pred.a_minus1,
                "a_half": pred.a_half,
                "a_0": pred.a_0,
            }
        }
        if args.fit:
            fit = asymptotic_fit(eigen_trace_series(g, _grid(args.tgrid, "t-grid")))
            payload["fitted"] = {
                "a_minus1": fit.a_minus1,
                "a_half": fit.a_half,
                "a_0": fit.a_0,
                "residual": fit.residual,
            }
            payload["relative_errors"] = {
                "a_minus1": abs(fit.a_minus1 / pred.a_minus1 - 1.0),
                "a_half": abs(fit.a_half / pred.a_half - 1.0),
                "a_0": abs(fit.a_0 / pred.a_0 - 1.0),
            }
        out = Path(args.out) / "fit_report.json"
        _write_json(out, payload, cfg)
        print(
            f"a_minus1={_fmt(pred.a_minus1)} a_half={_fmt(pred.a_half)} "
            f"a_0={_fmt(pred.a_0)} -> {out}"
        )
        return 0
    raise GraphError(f"unknown twoparticle action {args.action!r}")


_ENERGY_FUNCTIONS = {
    "harmonic": lambda eid, s: np.sin(2 * np.pi * s),
    "coordinate": lambda eid, s: s,
}


def _cmd_energy(args):
    if args.action != "study":
        raise GraphError(f"unknown energy action {args.action!r}")
    g = load_graph(args.graph)
    try:
        fn = _ENERGY_FUNCTIONS[args.f]
    except KeyError:
        raise GraphError(
            f"unknown test function {args.f!r}; choices: {sorted(_ENERGY_FUNCTIONS)}"
        ) from None
    r_grid = _grid(args.rgrid, "r-grid")[::-1]  # decreasing
    f = sample_function(g, fn, r_grid[-1] / 25.0)
    study = convergence_study(g, f, r_grid)
    out = Path(args.out) / "study.csv"
    _write_csv(out, ["r", "E_r", "ratio"], [list(row) for row in study.rows],
               _options(args))
    print(f"kappa {_fmt(study.kappa)} -> {out}")
    return 0


def _cmd_selftest(args):
    only = set(int(x) for x in args.only.split(",")) if args.only else None
    results = acceptance.run_all(only=only)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 1


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hklab",
        description="heat kernels on compact metric graphs: exact, spectral, "
        "Monte Carlo, and trace-asymptotic experiments",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("graph", help="graph-spec utilities")
    sp.add_argument("action", choices=["validate"])
    sp.add_argument("path")
    sp.set_defaults(func=_cmd_graph)

    sp = sub.add_parser("kernel", help="evaluate a heat kernel at one point pair")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--method", default="pathsum",
                    choices=["pathsum", "spectral", "interval"])
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--x", required=True, help="edge:arclength")
    sp.add_argument("--y", required=True, help="edge:arclength")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--out", default=".")
    sp.set_defaults(func=_cmd_kernel)

    sp = sub.add_parser("eigen", help="eigenvalue report")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--kmax", type=float, required=True)
    sp.add_argument("--out", default=".")
    sp.set_defaults(func=_cmd_eigen)

    sp = sub.add_parser("trace", help="single-graph heat trace via eigenvalues")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--tgrid", required=True, help="lo:hi:n (log-spaced)")
    sp.add_argument("--out", default=".")
    sp.set_defaults(func=_cmd_trace)

    sp = sub.add_parser("locality", help="kernel-difference certificate on V x V")
    sp.add_argument("--graph-a", required=True)
    sp.add_argument("--graph-b", required=True)
    sp.add_argument("--map", required=True, help="isometry JSON")
    sp.add_argument("--V", required=True, help="[edge:]lo:hi")
    sp.add_argument("--tgrid", required=True)
    sp.add_argument("--out", default=".")
    sp.set_defaults(func=_cmd_locality)

    sp = sub.add_parser("decompose", help="first-exit decomposition residual")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--u", required=True, help="[edge:]lo:hi")
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--step", type=float, default=1e-4)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("mc", help="random-walk ensembles")
    sp.add_argument("action", choices=["simulate", "splice"])
    sp.add_argument("--graph")
    sp.add_argument("--x0")
    sp.add_argument("--T", type=float)
    sp.add_argument("--h", type=float)
    sp.add_argument("--paths", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    sp.add_argument("--bins", type=int, default=20)
    sp.add_argument("--u", help="track first exits from [edge:]lo:hi")
    sp.add_argument("--config", help="splice config JSON")
    sp.add_argument("--out", default=".")
    sp.set_defaults(func=_cmd_mc)

    sp = sub.add_parser("twoparticle", help="symmetric-product traces")
    sp.add_argument("action", choices=["trace", "predict"])
    sp.add_argument("--graph", required=True)
    sp.add_argument("--tgrid", default="0.002:0.02:8")
    sp.add_argument("--step", type=float, default=2e-3)
    sp.add_argument("--fit", action="store_true")
    sp.add_argument("--out", default=".")
    sp.set_defaults(func=_cmd_twoparticle)

    sp = sub.add_parser("energy", help="difference-quotient energy study")
    sp.add_argument("action", choices=["study"])
    sp.add_argument("--graph", required=True)
    sp.add_argument("--f", default="harmonic")
    sp.add_argument("--rgrid", default="1e-3:8e-3:4", help="lo:hi:n (run decreasing)")
    sp.add_argument("--out", default=".")
    sp.set_defaults(func=_cmd_energy)

    sp = sub.add_parser("selftest", help="run the acceptance suite")
    sp.add_argument("--only", help="comma-separated criterion numbers")
    sp.set_defaults(func=_cmd_selftest)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, TruncationError, ValueError, OSError) as exc:
        payload = {"error": str(exc)}
        offending = getattr(exc, "offending", None)
        if offending is not None:
            payload["offending"] = offending
        print(json.dumps(payload), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
