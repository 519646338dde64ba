"""Tests of the benchmark harness itself: names, span arithmetic, and the
check path on shrunken workloads."""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
EXACT_COUNTS = [n for n in tracing.PER_LAYER if n.endswith(".calls")] + [
    "schemes.nonlinear_iters", "linsolve.factor_nnz", "cli.output_bytes", "trace.spans"]


def _benchmark():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_names_are_valid_and_match_the_harness():
    bench = _benchmark()
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in bench[key]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WORKLOADS[w["name"]].why for w in bench["workloads"])
    assert {e["name"]: e["unit"] for e in bench["end_to_end"]} == run.END_TO_END
    assert {e["name"]: e["unit"] for e in bench["per_layer"]} == {
        **tracing.PER_LAYER, run.OVERHEAD: "s"}


# a: 0..10 with children b (1..4, holding c 2..3), bookkeeping 5..6, b 7..9
SPANS = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
         ("trace.nnz", 5.0, 6.0, 0), ("b", 7.0, 9.0, 0)]


def test_self_time_subtracts_direct_children():
    assert tracing.self_s(SPANS, ("a",)) == pytest.approx(10 - 3 - 1 - 2)
    assert tracing.self_s(SPANS, ("b",)) == pytest.approx((3 - 1) + 2)
    assert tracing.self_s(SPANS, ("c",)) == pytest.approx(1)


def test_busy_time_is_a_union_less_bookkeeping():
    assert tracing.busy_s(SPANS, ("a",)) == pytest.approx(9)
    assert tracing.busy_s(SPANS, ("b", "c")) == pytest.approx(5)
    nested = [("r", 0.0, 5.0, -1), ("r", 1.0, 2.0, 0), ("r", 6.0, 7.0, -1)]
    assert tracing.busy_s(nested, ("r",)) == pytest.approx(6)
    assert tracing.busy_s(SPANS, ("missing",)) == 0


def test_tracer_records_parents_and_failed_calls():
    tracer = tracing.Tracer()

    def fail():
        raise RuntimeError("boom")

    inner = tracer.wrap("inner", fail)

    def call_inner():
        with pytest.raises(RuntimeError):
            inner()
        return 7

    assert tracer.wrap("outer", call_inner)() == 7
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0)]
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_summary_counts_failures_and_keeps_counts_exact():
    layers = dict.fromkeys(tracing.PER_LAYER, 0)
    samples = [
        {"traced": False, "ok": True, "solve_s": 1.0},
        {"traced": True, "ok": True, "solve_s": 1.5,
         "layers": dict(layers, **{"linsolve.factor.calls": 3})},
        {"traced": False, "ok": False, "solve_s": 3.0},
        {"traced": True, "ok": True, "solve_s": 1.7,
         "layers": dict(layers, **{"linsolve.factor.calls": 3})},
    ]
    result = run.summarize(samples, trace=True)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 4, 1)
    assert set(result["metrics"]) == {*tracing.PER_LAYER, run.OVERHEAD}
    calls = result["metrics"]["linsolve.factor.calls"]["value"]
    assert calls == 3 and isinstance(calls, int)
    assert result["metrics"][run.OVERHEAD]["value"] == pytest.approx(1.6 - 2.0)
    untraced = run.summarize(samples[::2], trace=False)["metrics"]
    assert set(untraced) == set(run.END_TO_END)
    assert untraced["solve_s"]["value"] == pytest.approx(2.0)


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perfbench")
    env = run.child_env(tmp)
    example = run.probe(env, tmp)["example_config"]
    reference = json.loads(run.REFERENCE.read_text())["small"]
    return tmp, env, example, reference


@pytest.fixture(scope="module")
def small_runs(harness):
    tmp, env, example, reference = harness
    return {name: (tmp / name, run.run_once(wl, "small", 11, tmp / name, True, env,
                                            example, reference[name]))
            for name, wl in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_small_workload_passes_its_checks(small_runs, name):
    _, sample = small_runs[name]
    assert sample["ok"], sample["problems"]
    assert sample["solve_s"] > 0 and sample["setup_s"] > 0
    assert set(sample["layers"]) == set(tracing.PER_LAYER)
    assert all(isinstance(sample["layers"][n], int) for n in EXACT_COUNTS)


def test_layers_are_reached_where_expected(small_runs):
    layers = {name: sample["layers"] for name, (_, sample) in small_runs.items()}
    assert layers["semi-n256"]["mesh.refine_red.calls"] == 1
    assert layers["semi-n256"]["schemes.stiffness_per_iter"] == 1.0
    assert layers["implicit-n64"]["schemes.stiffness_per_iter"] == 2.0
    assert layers["implicit-n64"]["assembly.weighted_mass.calls"] > 0
    assert layers["study-example"]["mesh.prolong.calls"] > 0
    assert layers["lemmas-1e6"]["orlicz.samples_per_s"] > 0
    assert layers["lemmas-1e6"]["linsolve.factor.calls"] == 0
    for name in ("semi-n256", "implicit-n64", "study-example"):
        lay = layers[name]
        assert lay["linsolve.factor.calls"] == lay["schemes.nonlinear_iters"] > 0
        assert lay["linsolve.factor_nnz"] > 0


def test_exact_counts_repeat(small_runs, harness):
    tmp, env, example, reference = harness
    wl = workloads.WORKLOADS["implicit-n64"]
    again = run.run_once(wl, "small", 11, tmp / "again", True, env, example,
                         reference[wl.name])
    first = small_runs[wl.name][1]["layers"]
    assert {n: again["layers"][n] for n in EXACT_COUNTS} == {n: first[n] for n in EXACT_COUNTS}


def test_untraced_process_records_only_the_entry(harness):
    tmp, env, example, reference = harness
    wl = workloads.WORKLOADS["lemmas-1e6"]
    sample = run.run_once(wl, "small", 3, tmp / "untraced", False, env, example,
                          reference[wl.name])
    assert sample["ok"], sample["problems"]
    assert "layers" not in sample
    spans = json.loads((tmp / "untraced" / "trace.json").read_text())["spans"]
    assert [s[0] for s in spans] == [wl.entry]


def test_tolerance_passes_solver_noise_and_fails_a_wrong_answer(small_runs, harness):
    reference = harness[3]
    for name in ("semi-n256", "implicit-n64"):
        values = small_runs[name][1]["values"]
        assert workloads.compare(values, reference[name]) == []
        noisy = {k: v * (1 + 1e-9) for k, v in reference[name].items()}
        assert workloads.compare(values, noisy) == []
        wrong = dict(reference[name], final_L2=reference[name]["final_L2"] * (1 + 1e-4))
        assert workloads.compare(values, wrong)


def test_corrupted_study_reference_fails(small_runs, harness):
    reference = harness[3]["study-example"]
    values = small_runs["study-example"][1]["values"]
    corrupt = copy.deepcopy(reference)
    corrupt["levels"][-1]["gap"] *= 1.001
    assert workloads.compare(values, corrupt)
    corrupt = copy.deepcopy(reference)
    corrupt["levels"][0]["ledgers"] = "fail"
    assert workloads.compare(values, corrupt)


def test_lemma_violations_fail(small_runs):
    run_dir, _ = small_runs["lemmas-1e6"]
    path = workloads.output_dir(run_dir) / "lemmas.json"
    report = json.loads(path.read_text())
    report["total_violations"] = 1
    path.write_text(json.dumps(report))
    wl = workloads.WORKLOADS["lemmas-1e6"]
    values, problems = workloads.observe(wl, run_dir, "")
    assert values == {} and problems
