#!/usr/bin/env python3
"""hklab benchmark: seeded cross-check workloads, timed end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

* ``oracle``: warm analytic cross-checks on random small graphs: walk sum
  against eigenmode sum, two-particle trace by quadrature against eigenvalue
  pairs, a Neumann/Dirichlet locality certificate, an energy convergence study.
* ``first-exit``: cold walk sums: first-exit decomposition residuals and
  kernel evaluations on fresh short-leg stars.
* ``ensemble``: Monte Carlo ensembles on the lattice and general engines,
  spliced against direct runs and checked against kernel masses.

One process runs one task at a time (a closed loop with one client) until
``--seconds`` have passed, then finishes the round it is in.  BLAS is pinned
to one thread.  A fixed calibration task that never calls hklab is timed
before every task and after the last one, and the time metrics count in its
units (``cal``; see ``calibration``).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, whose spans go to ``perfbench/out/``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every result also lands in
``perfbench/out/`` together with an environment record and a digest of the
first round's numeric outputs.
"""

import os

# pin BLAS before numpy loads; the machine is small and shared
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path[:0] = [SRC, HERE]

# without the package sources these imports fail, before anything is printed
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5

# One set-up, timed in a fresh interpreter: import the package and build the
# inputs of the first round.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
import hklab, workloads
workloads.make_round(sys.argv[1], int(sys.argv[2]), 0, float(sys.argv[3]))
print(time.perf_counter() - start)
"""


def measure_setup(workload, seed, scale):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, workload, str(seed), str(scale)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# A shared host changes a process's speed under it: on a 2-vCPU Xeon VM the
# speed switched between a fast and a slow state 1.5 to 1.8 times apart, each
# lasting seconds to minutes, with CPU time following wall time.  Raw task
# times of one run then depend on how long it spent in each state.  So a
# calibration task is timed before every task and after the last one of a
# round: fixed work of about 10 ms that never calls hklab, shaped like
# hklab's own time: interpreted loops and numpy calls on short arrays, as in
# the walk sums and the energy form, a small symmetric eigenproblem, and
# random bits summed along long arrays, as in the lattice engine.  Each task
# time is divided by the mean of the calibration times just before and just
# after it, so the time metrics count in calibration units (``cal``) and
# follow hklab's speed rather than the host's.  Raw seconds are printed
# beside them.
_CAL_RNG = np.random.default_rng(0)
_CAL_SHORT = _CAL_RNG.random(64)
_CAL_MAT = _CAL_RNG.random((40, 40))


def calibration():
    """Seconds taken by one run of the calibration task."""
    start = time.perf_counter()
    acc, counts = 0.0, {}
    for i in range(4000):
        acc += i * 0.5
        counts[i % 97] = counts.get(i % 97, 0) + 1
    for j in range(1, 801):
        js = np.arange(1, j % 40 + 2)
        d = (_CAL_SHORT[js] - acc) / (js * 0.5)
        acc = float(np.dot(d, d)) * 1e-9
    for _ in range(3):
        np.linalg.eigh(_CAL_MAT)
    gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    bits = np.unpackbits(np.frombuffer(gen.bytes(1 << 17), dtype=np.uint8))
    signs = bits.reshape(512, -1).view(np.int8)
    np.cumsum(signs, axis=1, dtype=np.int32).max(axis=1)
    return time.perf_counter() - start


def blas_threads():
    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def digest(outcomes):
    """sha256 over the numeric outputs of a list of task outcomes."""
    h = hashlib.sha256()
    for outcome in outcomes:
        for arr in outcome.outputs:
            arr = np.ascontiguousarray(arr)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def tail(times):
    """Highest whole percentile with at least ten tasks beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, n
    return ordered[n - 11], int(100 * (n - 10) / n), n


def run_rounds(workload, seed, seconds, trace, scale, tracer):
    """Execute rounds until ``seconds`` have passed.

    Returns per-task records ``(round, traced, kind, seconds, cal, outcome,
    error)``, where ``cal`` is the mean calibration time around the task, and
    per-round records ``(traced, seconds in cal units)``.
    """
    records = []
    rounds = []
    start = time.perf_counter()
    index = 0
    while True:
        tasks = workloads.make_round(workload, seed, index, scale)
        traced = bool(trace) and index % 2 == 1
        done_tasks = []
        cal = calibration()
        if traced:
            tracer.install()
        try:
            for task in tasks:
                if traced:
                    tracer.task = len(records) + len(done_tasks)
                t0 = time.perf_counter()
                try:
                    outcome, error = task.run(), None
                except Exception:  # a task that raises counts as failed
                    outcome, error = None, traceback.format_exc(limit=3)
                dt = time.perf_counter() - t0
                after = calibration()  # never calls hklab, so leaves no spans
                done_tasks.append((index, traced, task.kind, dt, 0.5 * (cal + after),
                                   outcome, error))
                cal = after
        finally:
            if traced:
                tracer.remove()
                tracer.task = None
        records += done_tasks
        rounds.append((traced, sum(r[3] / r[4] for r in done_tasks)))
        index += 1
        done = time.perf_counter() - start >= seconds
        if done and (not trace or index >= 2):
            return records, rounds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink every input size by this factor (self-test only)")
    args = ap.parse_args(argv)

    env = environment()
    env["load_before"] = os.getloadavg()
    setup_s = measure_setup(args.workload, args.seed, args.scale)
    tracer = tracing.Tracer()
    records, rounds = run_rounds(args.workload, args.seed, args.seconds, args.trace,
                                 args.scale, tracer)
    env["load_after"] = os.getloadavg()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [(kind, outcome.detail if outcome else error)
                for _, _, kind, _, _, outcome, error in records
                if outcome is None or not outcome.ok]
    attempted = len(records)
    out_digest = digest([r[5] for r in records if r[0] == 0 and r[5] is not None])

    untraced = [r for r in records if not r[1]]
    task_times = [r[3] for r in untraced]
    task_cals = [r[3] / r[4] for r in untraced]
    tail_cal, tail_pct, n_tasks = tail(task_cals)
    # kernel values per cal, round by round: a round's rate is its values over
    # its calibrated task time, and the median over rounds is reported, so a
    # rare slow input moves the result no more than any other round does
    per_round = {}
    for r in untraced:
        values, cals, secs = per_round.get(r[0], (0, 0.0, 0.0))
        per_round[r[0]] = (values + (r[5].kernel_values if r[5] is not None else 0),
                           cals + r[3] / r[4], secs + r[3])
    evals_per_cal = statistics.median(v / c for v, c, _ in per_round.values())
    cal_ms = 1e3 * statistics.median(r[4] for r in records)
    notes = [f"calibration task: median {cal_ms:.3f} ms (1 cal), {len(rounds)} rounds",
             f"task_tail_cal is p{tail_pct} of {n_tasks} untraced tasks",
             f"fail_frac {len(failures) / attempted:.4g} ({len(failures)}/{attempted})",
             f"digest of round 0 outputs: {out_digest}",
             "raw seconds: wall_s {:.4f}, task_p50_s {:.4f}, task_tail_s {:.4f}, "
             "kernel_evals_per_s {:.5g}".format(
                 statistics.median(s for _, _, s in per_round.values()),
                 statistics.median(task_times), tail(task_times)[0],
                 statistics.median(v / s for v, _, s in per_round.values()))]
    by_kind = {}
    for r in untraced:
        by_kind.setdefault(r[2], []).append((r[3], r[3] / r[4]))
    notes += [f"{kind}: {len(ts)} tasks, median {statistics.median(t for t, _ in ts):.4f} s"
              f" = {statistics.median(c for _, c in ts):.2f} cal"
              for kind, ts in by_kind.items()]
    if args.trace:
        traced_seconds = sum(r[3] for r in records if r[1])
        layer = tracer.layer_metrics(traced_seconds)
        plain = statistics.median(w for t, w in rounds if not t)
        traced = statistics.median(w for t, w in rounds if t)
        layer["trace.overhead_frac"] = (traced / plain - 1.0, "fraction")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        table = [f"{'layer':12s} {'calls':>9s} {'self_s':>9s} {'share':>7s}"]
        for name in tracing.LAYERS:
            table.append(f"{name:12s} {layer[name + '.calls'][0]:9d} "
                         f"{layer[name + '.self_s'][0]:9.3f} {layer[name + '.share'][0]:7.3f}")
        outside = traced_seconds - sum(layer[n + ".self_s"][0] for n in tracing.LAYERS)
        table.append(f"{'(benchmark)':12s} {'':9s} {outside:9.3f} "
                     f"{outside / traced_seconds:7.3f}")
        for engine, (steps, secs, runs) in sorted(tracer.engine_steps.items()):
            table.append(f"wiener {engine} engine: {runs} ensembles, {steps} path steps, "
                         f"{secs:.3f} s of {traced_seconds:.3f} s traced")
        notes += table
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_cal": {"value": statistics.median(w for t, w in rounds if not t),
                         "unit": "cal"},
            "task_p50_cal": {"value": statistics.median(task_cals), "unit": "cal"},
            "task_tail_cal": {"value": tail_cal, "unit": "cal"},
            "kernel_evals_per_cal": {"value": evals_per_cal, "unit": "1/cal"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        tracer.write_spans(stem + "-spans.tsv")
        with open(stem + "-layers.txt", "w", encoding="utf-8") as fh:
            fh.write("\n".join(table) + "\n")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                   "digest": out_digest, "rounds": len(rounds), "notes": notes,
                   "tasks": [r[:5] for r in records],
                   "failures": failures, "metrics": metrics}, fh, indent=1)

    print("env: " + json.dumps(env))
    for note in notes:
        print(note)
    for kind, detail in failures:
        print(f"FAILED {kind}: {detail}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
