"""Tests of the benchmark's own code: inputs, output gate and traces.

Run with `PYTHONPATH=src python3 -m pytest bench -q` from the repository
root.  The integer checks run the generated problems through the CLI at
small n, where every variant takes milliseconds.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from hilbertkunz import cli, hk, parse_closed_form  # noqa: E402


def _run(workload, text, tmp_path, nmax):
    path = tmp_path / f"{workload}.hk"
    path.write_text(text, encoding="utf-8")
    out = []
    for argv, expected in W.operations(workload, str(path), nmax):
        report, code = cli.run_command(argv)
        out.append((report, code, expected))
    return out


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_text(workload):
    for seed in range(6):
        text = W.problem_text(workload, seed)
        assert text.encode() == W.problem_text(workload, seed).encode()


def test_seed_zero_is_the_shipped_input():
    shipped = W.PROBLEMS / "determinantal.hk"
    assert W.problem_text("det-colength", 0) == shipped.read_text()
    quartic = (W.PROBLEMS / "quartic.hk").read_text()
    modules = W.problem_text("quartic-modules", 0)
    assert modules.startswith(quartic)
    assert modules[len(quartic):] == ("module N = idealmod [x1, x2]\n"
                                      "module T = coker rows=1 [[x1], [x2]]\n")
    dense = cli.parse_problem(W.problem_text("quartic-dense", 0))
    ring = dense.ring.ring
    x1, x2, x3, x4 = (ring.variable(v) for v in ("x1", "x2", "x3", "x4"))
    f = (x1 + 2 * x3) ** 4 + x2 ** 4 + (x3 + x4) ** 4 + x4 ** 4
    assert dense.ring.quotient == (f,)
    assert len(f) == 10


def test_seeds_vary_the_inputs():
    assert len(set(W.det_symmetries())) == 12
    assert {W.det_order(s) for s in range(80)} == set(W.det_symmetries())
    assert len({W.problem_text("det-colength", s) for s in range(80)}) == 12
    assert {W.var_pair(s) for s in range(40)} == set(W.VAR_PAIRS)
    assert {W.shear(s) for s in range(80)} == set(W.SHEARS)
    assert len(W.SHEARS) == 16


def test_expected_integers_match_the_shipped_closed_forms():
    for name, form in (("determinantal.hk", W.DET_FORM),
                       ("quartic.hk", W.QUARTIC_FORM)):
        line = [ln for ln in (W.PROBLEMS / name).read_text().splitlines()
                if ln.startswith("closedform known")][0]
        shipped = parse_closed_form(line.split("=", 1)[1])
        assert W.closed_form_values(form, 4) == tuple(
            int(shipped.value(n)) for n in range(5))
    assert W.closed_form_values(W.DET_FORM)[3] == 858573


VARIANTS = ([("det-colength", "det_order", v) for v in W.det_symmetries()]
            + [("quartic-modules", "var_pair", v) for v in W.VAR_PAIRS]
            + [("quartic-dense", "shear", v) for v in W.SHEARS])


@pytest.mark.parametrize("workload,chooser,variant", VARIANTS)
def test_every_seed_variant_passes(tmp_path, monkeypatch, workload, chooser,
                                   variant):
    monkeypatch.setattr(W, chooser, lambda seed: variant)
    text = W.problem_text(workload, 1)
    for report, code, expected in _run(workload, text, tmp_path, 2):
        assert W.check_report(report, code, expected) == []


def test_tampered_integer_is_a_failure(tmp_path):
    text = W.problem_text("quartic-modules", 0)
    runs = _run("quartic-modules", text, tmp_path, 1)
    for report, code, expected in runs:
        assert W.check_report(report, code, expected) == []
    for key in ("e", "delta", "tor1"):
        report, code, expected = next(r for r in runs if key in r[2])
        tampered = dict(expected)
        tampered[key] = (expected[key][0], expected[key][1] + 1)
        problems = W.check_report(report, code, tampered)
        assert problems and str(tampered[key][1]) in problems[0]
    report, code, expected = runs[0]
    assert W.check_report(report, 2, expected) == ["exit code 2"]
    assert W.check_report(dict(report, error={"kind": "budget"}), 0,
                          expected)
    assert W.check_report({}, 1, expected) == ["exit code 1",
                                               "no results object"]


def test_self_times_on_a_synthetic_tree():
    tree = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 8.0, 11.0, 0, 0],     # overlaps b and outlives root
        ["other-pass", 0.0, 2.0, None, 1],
    ]
    # root: 10 minus the union [1,4] + [5,10] clipped to its end = 10 - 8
    assert spans.self_times(tree) == pytest.approx([2.0, 2.0, 1.0, 4.0,
                                                    3.0, 2.0])


def test_summary_medians_and_unstable_counts():
    tree = [["cli.run_command", 0.0, 5.0, None, 0],
            ["hk.colength", 1.0, 4.0, 0, 0],
            ["cli.run_command", 0.0, 7.0, None, 1],
            ["hk.colength", 1.0, 6.0, 2, 1],
            ["cli.run_command", 0.0, 3.0, None, 2],
            ["hk.colength", 0.0, 1.0, 4, 2]]
    counts = {0: {"groebner.colength_calls": 1},
              1: {"groebner.colength_calls": 1},
              2: {"groebner.colength_calls": 2}}
    metrics, unstable = spans.summarise(tree, counts)
    assert metrics["groebner.colength_s"] == pytest.approx(3.0)
    assert metrics["cli.run_command.self_s"] == pytest.approx(2.0)
    assert unstable == ["groebner.colength_calls"]


def test_recorder_restores_and_counts_repeat(tmp_path):
    originals = {key: getattr(*key) for key in spans.TRACED}
    requests = {a: vars(hk.RingPresentation)[a]
                for a in spans.LENGTH_REQUESTS}
    text = W.problem_text("quartic-modules", 0)
    recorder = spans.Recorder()
    for pass_id in range(2):
        recorder.pass_id = pass_id
        with recorder:
            runs = _run("quartic-modules", text, tmp_path, 1)
        assert all(W.check_report(*r) == [] for r in runs)
    assert {key: getattr(*key) for key in spans.TRACED} == originals
    assert {a: vars(hk.RingPresentation)[a]
            for a in spans.LENGTH_REQUESTS} == requests
    assert recorder.counts[0] == recorder.counts[1]
    metrics, unstable = spans.summarise(recorder.spans, recorder.counts)
    assert unstable == []
    assert metrics["groebner.colength_calls"] > 0
    assert metrics["groebner.syzygy_gens"] > 0
    assert 0 < metrics["hk.length_cache_hit_ratio"] < 1
    names = {span[0] for span in recorder.spans}
    assert {"cli.run_command", "cli.tor1_length", "cli.delta_n",
            "hk.syzygies", "groebner.buchberger"} <= names


def test_benchmark_json_lists_what_the_runs_print():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(W.WORKLOADS)
    layer, _ = spans.summarise([], {})
    printed = list(layer) + ["trace.overhead_s"]
    assert [m["name"] for m in doc["per_layer"]] == printed
    assert all(m["unit"] == run._unit(m["name"]) for m in doc["per_layer"])
    assert {m["name"] for m in doc["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb", "success_frac"}


def test_budget_error_is_counted_once(tmp_path):
    path = tmp_path / "quartic.hk"
    path.write_text(W.problem_text("quartic-dense", 0), encoding="utf-8")
    recorder = spans.Recorder()
    with recorder:
        report, code = cli.run_command(
            ["series", str(path), "--module", "R", "--ideal", "m",
             "--nmax", "2", "--budget-pairs", "5"])
    assert code == 2
    assert recorder.counts[0]["groebner.budget_errors"] == 1
