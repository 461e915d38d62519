"""Smoke tests of the benchmark itself, at toy sizes.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import workloads  # noqa: E402

TOY = {
    "grid-lr-audited": {
        **workloads.SIZES["grid-lr-audited"],
        "cohort": {"n": 600, "d": 4, "years": (2001, 2003),
                   "transition_year": 2003},
        "seeds": 1, "levels": ["none", "high"],
        "training": {"epochs": 1, "influence_train_cap": 60,
                     "influence_test_cap": 20, "influence_panel": 10},
    },
    "grid-mlp-perexample": {
        **workloads.SIZES["grid-mlp-perexample"],
        "cohort": {"n": 600, "d": 4, "years": (2001, 2003),
                   "transition_year": 2003},
        "seeds": 1,
        "task": {"name": "outcome", "family": "mlp-1", "h": 4,
                 "l2_lambda": 0.01},
        "training": {"epochs": 1, "batch_size": 16, "microbatch_count": 16},
    },
    "cli-csv-session": {"rows": 600, "d": 4, "epochs": 1, "pair_train": 60,
                        "pair_test": 20, "queries": 3},
}


def _run(name, trace, out_root, seed=0):
    return bench.run(name, seed, 0, trace, ROOT, out_root,
                     sizes=TOY[name])


def _pass(name, tmp_path, seed=0):
    workload = workloads.make(name, TOY[name])
    program = bench.import_program(ROOT)
    ctx = workload.setup(program, seed, str(tmp_path / "setup"))
    pass_dir = str(tmp_path / "pass")
    result = workload.run_pass(program, ctx, pass_dir, 0)
    claims = workload.check(program, ctx, pass_dir, result, 0)
    assert result.errors == [] and claims
    assert bench.verify_epsilons(ROOT, claims, tmp_path / "eps") == []
    return workload, program, ctx, pass_dir


def _recheck(workload, program, ctx, pass_dir, tmp_path):
    result = workloads.PassResult()
    claims = workload.check(program, ctx, pass_dir, result, 0)
    return result.errors + bench.verify_epsilons(ROOT, claims,
                                                 tmp_path / "eps2")


@pytest.mark.parametrize("name", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    line, detail = _run(name, trace, tmp_path)
    assert line["correct"], detail["gate_errors"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    spec = bench.SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        emitted = line["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    assert detail["report_sha256"]


def test_gate_trips_on_an_altered_grid_epsilon(tmp_path):
    workload, program, ctx, pass_dir = _pass("grid-lr-audited", tmp_path)
    copy = tmp_path / "altered"
    shutil.copytree(pass_dir, copy)
    report = json.loads((copy / "report.json").read_text())
    row = next(r for c in report["cells"]
               for r in c.get("utility", {}).get("per_year", ())
               if r["spend"]["epsilon"] != "inf"
               and r["accounting_log"].get("sigma"))
    row["spend"]["epsilon"] *= 1.0 + 1e-12
    (copy / "report.json").write_text(json.dumps(report))
    errors = _recheck(workload, program, ctx, str(copy), tmp_path)
    assert any("reported" in e and "recomputed" in e for e in errors), errors


def test_gate_trips_on_an_altered_account_epsilon(tmp_path):
    workload, program, ctx, pass_dir = _pass("cli-csv-session", tmp_path)
    path = Path(pass_dir) / "account" / "000.json"
    out = json.loads(path.read_text())
    out["epsilon"] += 1e-9
    path.write_text(json.dumps(out))
    errors = _recheck(workload, program, ctx, pass_dir, tmp_path)
    assert any("account 000" in e for e in errors), errors


def test_account_sweeps_do_not_repeat_across_passes():
    workload = workloads.make("cli-csv-session")
    ctx = {"seed": 0, "delta": 1e-5}
    pairs = [(q, sigma) for k in range(4)
             for q, sigma, _, _ in workload.sweep(ctx, k)]
    assert len(set(pairs)) == len(pairs) == 4 * workload.sizes["queries"]
    assert workload.sweep(ctx, 2) == workload.sweep(dict(ctx), 2)


def test_traced_counts_repeat_across_runs(tmp_path):
    def counts(line):
        return {k: v["value"] for k, v in line["metrics"].items()
                if v["unit"] in ("count", "bytes")
                or k in ("accountant.reuse_ratio",
                         "dp_optim.grad_calls_per_step",
                         "harness.trainings_per_slot")}

    first, _ = _run("grid-lr-audited", True, tmp_path / "a")
    second, _ = _run("grid-lr-audited", True, tmp_path / "b")
    assert first["correct"] and second["correct"]
    assert counts(first) == counts(second)
    assert counts(first)["harness.models_trained"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(Path(HERE.name) / "run.py"),
         "--workload", "grid-lr-audited", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
