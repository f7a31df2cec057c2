"""Self-tests for the benchmark: run with ``python3 -m pytest perfbench -q``.

Every workload runs at a tiny size here, so the whole file takes seconds.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import binomial_moments as bm  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from binomial_moments import conjecture  # noqa: E402

SPEC = run.load_spec()
ORACLE = bm.oracle
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def tiny(workload, trace=False):
    return run.run(workload, seed=3, seconds=0, trace=trace, tiny=True, setup_samples=1)


def corrupt(target, tamper):
    """Patch ``target`` in every package namespace so its result is tampered."""

    def wrapper(*args, **kwargs):
        return tamper(target(*args, **kwargs))

    return tr.patched({id(target): wrapper})


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_emits_every_end_to_end_metric(workload):
    result = tiny(workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_smoke_emits_every_layer_metric(workload):
    result = tiny(workload, trace=True)
    assert result["correct"] and result["details"]["absent"] == []
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert bm.oracle is bm.moments.oracle is ORACLE  # wrappers removed after the run


def test_gate_counts_a_corrupted_sweep_value():
    def plus_one(res):
        return replace(res, value=res.value + 1) if res.method == "theorem" else res

    with corrupt(bm.evaluate, plus_one):
        result = tiny("sweep")
    assert not result["correct"] and result["failed"] > 0


def test_gate_counts_a_corrupted_deep_value():
    with corrupt(bm.oracle, lambda v: v + 1):
        result = tiny("deep")
    assert result["failed"] == result["attempted"]


def test_gate_counts_a_failing_verify_check():
    with corrupt(bm.moments.closed_form, lambda res: replace(res, value=res.value + 1)):
        result = tiny("verify")
    assert not result["correct"] and result["failed"] > 0


def test_gate_counts_a_dishonest_fit():
    with corrupt(conjecture.solve_exact, lambda xs: [x + 1 for x in xs]):
        result = tiny("discover")
    assert not result["correct"] and result["failed"] > 0


def test_gate_counts_a_shrunk_corollary_table():
    def refuse(q):
        raise bm.errors.NotTabulated("forced")

    with tr.patched({id(bm.moments.corollary_value): refuse}):
        result = tiny("sweep")
    assert not result["correct"] and result["failed"] > 0


def test_gate_counts_shapes_skipped_as_singular():
    def singular(*args, **kwargs):
        raise bm.errors.SingularSystem("forced")

    with tr.patched({id(conjecture.solve_exact): singular}):
        result = tiny("discover")
    assert not result["correct"] and result["details"]["refusals"]["fit.skipped_singular"] > 0


def test_pinned_corollary_table_is_in_the_library():
    for key, min_n in workloads.COROLLARY_MIN_N.items():
        assert bm.COROLLARIES[key].min_n <= min_n


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_cold_cache_assertion_fires_on_a_warm_cache(workload):
    wl = workloads.make(workload, str(run.RESULTS))
    inputs = wl.inputs(3, tiny=True)
    probe = tr.CacheProbe()
    bm.oracle(bm.MomentQuery("A", 2, 3))
    with pytest.raises(tr.ColdCacheError):
        wl.job(inputs, probe, [], time.perf_counter)
    probe.begin_job()
    probe.assert_cold()


def test_refusal_tallies_are_reported():
    refusals = tiny("sweep")["details"]["refusals"]
    assert refusals["theorem.NoClosedFormKnown"] > 0
    assert refusals["theorem.PreconditionViolated"] > 0


def test_reference_sum_matches_oracle_on_small_sizes():
    for family in "ABCD":
        for m in range(5):
            for n in range(1, 13):
                assert workloads.reference_sum(family, m, n) == bm.oracle(
                    bm.MomentQuery(family, m, n)
                )


def test_missing_targets_are_absent_not_fatal():
    assert tr.layer_metric("exact.gone_cache.hit_ratio", {}, {}) is None
    assert tr.layer_metric("exact.gone_function.self_s", {}, {}) is None
    assert tr.layer_metric("nolayer.self_s", {}, {}) is None
    t = tr.Tracer()
    with t.rep():
        pass
    values, absent = run.layer_metrics(
        [{"name": "exact.gone_function.calls"}, {"name": "exact.bracket.calls"}],
        [t.aggregate(*t.rep_bounds[0])],
        [{}],
    )
    assert absent == ["exact.gone_function.calls"] and values == {"exact.bracket.calls": 0}


def test_self_time_subtracts_child_spans():
    t = tr.Tracer()
    outer = t._wrap("x.outer", lambda: inner() or time.sleep(0.02))
    inner = t._wrap("x.inner", lambda: time.sleep(0.03))
    with t.rep():
        outer()
    stats = t.aggregate(*t.rep_bounds[0])
    assert stats["x.outer"]["calls"] == stats["x.inner"]["calls"] == 1
    assert 0.015 < stats["x.outer"]["self_s"] < 0.028 < stats["x.inner"]["self_s"]
    assert stats["x.outer"]["wall_s"] > stats["x.inner"]["wall_s"]


def test_inputs_depend_only_on_the_seed():
    for name in run.WORKLOADS:
        wl = workloads.make(name, str(run.RESULTS))
        assert repr(wl.inputs(5)) == repr(wl.inputs(5))
    assert workloads.Sweep().inputs(5) != workloads.Sweep().inputs(6)


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_fails_without_library_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
