"""The benchmark's own test, at a reduced size.

    python3 -m pytest perfbench/check_bench.py

Every workload runs one round (two when traced) with every input size scaled
down; the result must carry exactly the metrics that BENCHMARK.json names,
and a deliberately corrupted output must be counted as a failed task.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402
from hklab import spectral  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _result(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--scale", "0.25"])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted(capsys, workload, trace):
    result = _result(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_output_is_counted(capsys, monkeypatch):
    honest = spectral.kernel_spectral

    def corrupted(*args, **kwargs):
        ev = honest(*args, **kwargs)
        return type(ev)(ev.t, ev.x, ev.y, ev.value + 1e-3, ev.tail_bound)

    monkeypatch.setattr(spectral, "kernel_spectral", corrupted)
    result = _result(capsys, "oracle", 0)
    assert not result["correct"]
    # one round: the two walk-sum against eigenmode tasks fail, the rest pass
    assert (result["failed"], result["attempted"]) == (2, 5)
