"""Tests of the benchmark itself: span arithmetic, output checks and the
metric names BENCHMARK.json declares.

    python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing

BENCH = Path(__file__).resolve().parent


def test_self_times_subtract_the_union_of_overlapping_children():
    spans = [
        ("job", 0.0, 10.0, None),
        ("sparse", 1.0, 4.0, 0),
        ("complexes", 3.0, 6.0, 0),   # overlaps the sparse child on [3, 4]
        ("complexes", 12.0, 13.0, 0),  # outside its parent: clipped away
    ]
    self_s = tracing.layer_self_times(spans)
    assert self_s["job"] == pytest.approx(5.0)  # 10 minus the union [1, 6]
    assert self_s["sparse"] == pytest.approx(3.0)
    assert self_s["complexes"] == pytest.approx(4.0)


def test_nested_same_layer_calls_count_once():
    # job [0,10] > complexes.homology [1,9] > sparse.rank [2,8]
    #   > sparse.smith_normal_form [3,7] > complexes.d_of [4,5]
    spans = [
        ("job", 0.0, 10.0, None),
        ("complexes", 1.0, 9.0, 0),
        ("sparse", 2.0, 8.0, 1),
        ("sparse", 3.0, 7.0, 2),
        ("complexes", 4.0, 5.0, 3),
    ]
    names = ["job", "complexes.homology", "sparse.rank", "sparse.smith_normal_form",
             "complexes.d_of"]
    self_s = tracing.layer_self_times(spans)
    assert self_s == pytest.approx({"job": 2.0, "complexes": 3.0, "sparse": 5.0})
    assert sum(self_s.values()) == pytest.approx(10.0)  # the job's wall time
    assert tracing.outermost_total(spans, names, {"sparse.rank", "sparse.smith_normal_form"}) \
        == pytest.approx(6.0)
    assert tracing.outermost_total(spans, names, {"complexes.homology", "complexes.d_of"}) \
        == pytest.approx(8.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    pct, value = run.tail(list(range(1, 21)))
    assert (pct, value) == (50.0, 10)
    assert sum(v > value for v in range(1, 21)) == run.TAIL_BEYOND


def _good_outputs():
    arrows = {}
    for label, failing in ((checks.ARROW0, set()), (checks.ARROW1, checks.ARROW1_FAILING)):
        arrows[label] = {"ok": not failing,
                         "checks": {c: c not in failing for c in checks.ARROW_CHECKS}}
    items = [dict(item=name, dims=dims, twisted_dims=twisted,
                  **{flag: True for flag in checks.CONSTRUCTION_FLAGS})
             for name, (dims, twisted) in checks.CONSTRUCTION_DIMS.items()]
    return {
        "normality": {"verified": False, "arrows": arrows, "theta_N_dims": checks.THETA_N_DIMS},
        "constructions": {"items": items},
        "zhomology": {
            "wbar_homology": {"exit": 0, "results": {
                "wbar-homology": checks.WBAR_C5,
                "universal-bundle-acyclic": True,
                "universal-bundle-homology": checks.CONTRACTIBLE}},
            "shuffled_homology": {"exit": 0, "results": {"homology": checks.CONTRACTIBLE}},
        },
        "simplicial": {
            "tcp": {"exit": 0, "results": {"simplicial-identities": True}},
            "wbar": {"exit": 0, "results": {"simplicial-identities": True,
                                            "couniversal-twisting-function": True,
                                            "levels": checks.WBAR_LEVELS}},
        },
    }


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_each_check_accepts_the_expectation_and_rejects_its_control(workload):
    out = _good_outputs()[workload]
    assert checks.check(workload, out) == []
    assert checks.control_rejected(workload, out)
    assert checks.check(workload, out) == []  # the control corrupted a copy


def test_declared_metrics_match_what_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert list(spec["command"]) == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    layer_names = set(tracing.Tracer().layer_metrics()[0])
    layer_names |= {"rings.self_s", "rings.fraction_s", "rings.calls", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert m["unit"] == run.unit_of(m["name"]), m


def test_tracer_rebinds_imported_names_and_nests_spans():
    """complexes imports the sparse solvers by name; their calls must still
    land in sparse spans nested under complexes.homology.  Runs in a fresh
    interpreter because installing the tracer rewrites htwist's modules."""
    code = f"""
import json, sys
sys.path[:0] = [{str(BENCH)!r}, {str(BENCH.parent / 'src')!r}]
import tracing
from htwist import complexes, rings
tr = tracing.Tracer()
tr.install()
basis = complexes.GradedBasis(2, {{0: ["a"], 1: ["b", "c"], 2: ["e"]}})
X = complexes.ChainComplex(rings.ZZ, basis)
X.set_d_entry(1, "b", "a", 1)
X.set_d_entry(1, "c", "a", 1)
X.set_d_entry(2, "e", "b", 2)
X.set_d_entry(2, "e", "c", -2)
H = tr.run(complexes.homology, X, 1)
spans = [[n, *s] for n, s in zip(tr.names, tr.spans)]
print(json.dumps({{"H": {{str(k): v for k, v in H.by_degree.items()}}, "spans": spans,
                  "self": tracing.layer_self_times([tuple(s) for s in tr.spans])}}))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    rep = json.loads(proc.stdout)
    assert rep["H"] == {"0": [0, []], "1": [0, [2]]}
    spans = rep["spans"]
    names = [s[0] for s in spans]
    assert names[:2] == ["job", "complexes.homology"]
    sparse = [s for s in spans if s[1] == "sparse"]
    assert sparse and all(spans[s[4]][0].startswith(("complexes.homology", "sparse."))
                          for s in sparse)
    assert "sparse.smith_normal_form" in names
    root = spans[0]
    assert sum(rep["self"].values()) == pytest.approx(root[3] - root[2])
