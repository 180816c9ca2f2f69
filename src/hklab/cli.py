"""Command-line interface: experiment orchestration and CSV/JSON emission.

Every output file embeds the tool version and a hash of the run
configuration; identical configuration and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .energy import convergence_study, sample_function
from .graph import GraphError, GraphPoint, _check_time, load_graph, parse_graph
from .kernels import TruncationError, kernel_interval, kernel_pathsum
from .locality import (IsometryMap, MapPiece, SubdomainSpec, decomposition_residual,
                       interval_subdomain, locality_compare)
from .spectral import _certified_k_max, eigen, eigen_report, kernel_spectral, trace_tail_bound
from .twoparticle import (asymptotic_fit, eigen_trace_series, predicted_coefficients,
                          single_trace_eigen, trace_series)
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


def _write_histogram(out_dir: str, ens, bins: int, cfg: dict) -> Path:
    """Write ensemble.csv: counts of the surviving endpoints in bins over the
    global arclength of the ensemble's graph (graph B for a splice)."""
    counts, edges = histogram_counts(ens.endpoint_coords(), 0.0, ens.graph.total_length, bins)
    out = Path(out_dir) / "ensemble.csv"
    rows = [[edges[i], edges[i + 1], counts[i]] for i in range(len(counts))]
    _write_csv(out, ["bin_lo", "bin_hi", "count"], rows, cfg)
    return out


def _point(text: str) -> GraphPoint:
    edge, _, s = text.rpartition(":")
    if not edge:
        raise GraphError(f"point {text!r} must look like edge:arclength")
    return GraphPoint(edge, float(s))


def _real(value, name: str) -> float:
    """A number from a config document; null, a list, a string or a boolean
    is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphError(f"{name} must be a number, got {value!r}")
    return float(value)


def _text(value, name: str) -> str:
    """A string from a config document; null, a number or a list is refused."""
    if not isinstance(value, str):
        raise GraphError(f"{name} must be a string, got {value!r}")
    return value


def _whole(value, name: str) -> int:
    """A count or seed from a config document; a fraction, inf or NaN is refused
    rather than truncated."""
    if not _real(value, name).is_integer():
        raise GraphError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _require(doc, keys, name: str):
    """Refuse a document that is not a JSON object or lacks one of the keys."""
    if not isinstance(doc, dict):
        raise GraphError(f"{name} must be a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise GraphError(f"{name} has no {', '.join(map(repr, missing))}")


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
    _require(doc, ("pieces",), "map document")
    if not isinstance(doc["pieces"], list):
        raise GraphError("map document 'pieces' must be a list")
    for p in doc["pieces"]:
        _require(p, ("edge_a", "lo_a", "hi_a", "edge_b", "lo_b"), "map piece")
    pieces = tuple(
        MapPiece(
            _text(p["edge_a"], "edge_a"), _real(p["lo_a"], "lo_a"), _real(p["hi_a"], "hi_a"),
            _text(p["edge_b"], "edge_b"), _real(p["lo_b"], "lo_b"),
            _whole(p.get("sign", 1), "sign"),
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
        k_max = _certified_k_max(g, args.t, args.tol)
        ev = kernel_spectral(g, args.t, x, y, eigen(g, k_max), tol=args.tol)
    else:  # interval
        if len(g.edges) != 1:
            raise GraphError("interval method needs a single-edge graph")
        e = g.edges[0]
        ev = kernel_interval(
            e.length, g.condition(e.u), g.condition(e.v), args.t, x.s, y.s
        )
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
    k_max = _certified_k_max(g, float(ts.min()), 1e-16)
    modes = eigen(g, k_max)
    # no quadrature runs: the error column bounds the modes beyond k_max
    rows = zip(ts, single_trace_eigen(modes, ts), trace_tail_bound(g, ts, k_max))
    out = Path(args.out) / "trace.csv"
    _write_csv(out, ["t", "Z", "tail_bound"], rows, _options(args))
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
        missing = [f"--{k}" for k in ("graph", "x0", "T", "h") if getattr(args, k) is None]
        if missing:
            raise GraphError(f"mc simulate requires {', '.join(missing)}")
        g = load_graph(args.graph)
        u = _subdomain(g, args.u) if args.u else None
        seed = acceptance.base_seed(args.seed)
        ens = simulate_ensemble(g, _point(args.x0), args.T, args.h, seed, args.paths, U=u)
        out = _write_histogram(args.out, ens, args.bins, {**_options(args), "seed": seed})
        print(
            f"{args.paths} paths, {int(ens.alive.sum())} surviving, "
            f"stay fraction {_fmt(ens.stay_fraction())} -> {out}"
        )
        return 0
    if args.action == "splice":
        if not args.config:
            raise GraphError("mc splice requires --config")
        doc = json.loads(Path(args.config).read_text())
        _require(doc, ("graph_a", "graph_b", "map", "u", "x0", "T", "h", "paths"),
                 "splice config")
        g_a = parse_graph(Path(_text(doc["graph_a"], "graph_a")).read_text())
        g_b = parse_graph(Path(_text(doc["graph_b"], "graph_b")).read_text())
        iso = _iso_from_doc(g_a, g_b, doc["map"])
        pieces = doc["u"]
        if not isinstance(pieces, list) or not all(
            isinstance(p, list) and len(p) == 3 for p in pieces
        ):
            raise GraphError(f"u must be a list of [edge, lo, hi] triples, got {pieces!r}")
        u = SubdomainSpec(g_a, tuple(
            (_text(e, "u edge"), _real(lo, "u lo"), _real(hi, "u hi")) for e, lo, hi in pieces
        ))
        seed = acceptance.base_seed(_whole(doc.get("seed", acceptance.DEFAULT_SEED), "seed"))
        cfg_obj = SpliceConfig(
            g_a, g_b, u, iso, _point(_text(doc["x0"], "x0")), _real(doc["T"], "T"),
            _real(doc["h"], "h"), _whole(doc["paths"], "paths"), seed,
        )
        ens = splice(cfg_obj)
        out = _write_histogram(args.out, ens, _whole(doc.get("bins", 20), "bins"),
                               {**doc, "seed": seed})
        print(
            f"spliced {cfg_obj.n_paths} paths, stay fraction "
            f"{_fmt(ens.stay_fraction())} -> {out}"
        )
        return 0


def _cmd_twoparticle(args):
    g = load_graph(args.graph)
    cfg = _options(args)
    if args.action == "trace":
        series = trace_series(g, _grid(args.tgrid, "t-grid"))
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
            pairs = {name: (getattr(fit, name), getattr(pred, name))
                     for name in ("a_minus1", "a_half", "a_0")}
            # a coefficient predicted to be exactly 0 has no relative error
            payload["relative_errors"] = {
                name: None if p == 0.0 else abs(f / p - 1.0) for name, (f, p) in pairs.items()
            }
            payload["absolute_errors"] = {name: abs(f - p) for name, (f, p) in pairs.items()}
        out = Path(args.out) / "fit_report.json"
        _write_json(out, payload, cfg)
        print(
            f"a_minus1={_fmt(pred.a_minus1)} a_half={_fmt(pred.a_half)} "
            f"a_0={_fmt(pred.a_0)} -> {out}"
        )
        return 0


_ENERGY_FUNCTIONS = {
    "harmonic": lambda eid, s: np.sin(2 * np.pi * s),
    "coordinate": lambda eid, s: s,
}


def _cmd_energy(args):
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
    unknown = sorted(only - acceptance.ALL_CRITERIA.keys()) if only else []
    if unknown:
        raise GraphError(f"--only names unknown criteria {unknown}; "
                         f"the criteria are {sorted(acceptance.ALL_CRITERIA)}")
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
