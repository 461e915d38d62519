"""Benchmark loop: set-up, timed passes, correctness gate, metrics.

A run times several set-ups, each in a fresh interpreter, then runs passes
one after another until the next pass would end more than half a pass
past the time budget (at least two passes, so byte identity across passes
is always checked). Each
pass runs on a freshly imported program, so nothing the program keeps in
memory, a cache included, carries over from an earlier pass: every pass
starts as cold as a user's new process. Untraced runs report the
end-to-end metrics; traced runs alternate untraced and traced passes and
report the per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

SETUP_REPS = 5
MIN_PASSES = 2

# Names, units and directions of the metrics, and the workload names, are
# read from BENCHMARK.json at the root of the checkout.
ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])

BLAS_THREADS_VAR = "OPENBLAS_NUM_THREADS"


def import_program(root):
    """Import every dp_tails module afresh from `<root>/src`.

    Dropping the modules first gives a program with no state left from
    earlier passes; numpy and scipy stay imported.
    """
    for name in [m for m in sys.modules
                 if m == "dp_tails" or m.startswith("dp_tails.")]:
        del sys.modules[name]
    src = str(Path(root) / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    mods = {m: importlib.import_module(f"dp_tails.{m}")
            for m in tracing.LAYERS}
    package = Path(sys.modules["dp_tails"].__file__).resolve().parent
    if package != (Path(src) / "dp_tails").resolve():
        raise RuntimeError(f"dp_tails imported from {package}, not {src}")
    return type("Program", (), mods)


def _digests(directory):
    out = {}
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            out[path.relative_to(directory).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


def _child(root, *args):
    """Run perfbench/child.py in a fresh interpreter; wait for it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("child.py")), *args],
        cwd=root, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {args[0]} failed:\n{proc.stderr}")


def setup_sample(root, name, seed, sizes, workdir):
    """Seconds for a fresh interpreter to import the program and set the
    workload up, from spawn to exit."""
    shutil.rmtree(workdir, ignore_errors=True)
    t0 = time.perf_counter()
    _child(root, "setup", name, str(seed), str(workdir),
           json.dumps(sizes))
    return time.perf_counter() - t0


def verify_epsilons(root, claims, workdir):
    """Errors for every claimed epsilon that differs from a recomputation
    in a fresh interpreter; each distinct query is computed once."""
    if not claims:
        return []
    queries = sorted({query for _, query, _ in claims})
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    src, dst = workdir / "queries.json", workdir / "epsilons.json"
    src.write_text(json.dumps(queries))
    _child(root, "epsilon", str(src), str(dst))
    fresh = dict(zip(queries, json.loads(dst.read_text())))
    return [f"{where}: epsilon {eps!r} != recomputed {fresh[query]!r}"
            for where, query, eps in claims if eps != fresh[query]]


def _git_commit(root):
    """HEAD of the git repository rooted at `root`, else None."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or \
            Path(lines[0]).resolve() != Path(root).resolve():
        return None
    return lines[1]


def provenance(root, workload, seed):
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((Path(root) / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode())
        src.update(path.read_bytes())
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}",
        "blas_threads": os.environ.get(BLAS_THREADS_VAR),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "src_sha256": src.hexdigest(),
    }


def _quantile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def run(name, seed, seconds, trace, root, out_root, sizes=None):
    """One benchmark run; returns (result line dict, detail dict)."""
    workload = workloads.make(name, sizes)
    run_dir = Path(out_root) / f"{name}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    setup_dir = run_dir / "setup"
    setup_reps = [setup_sample(root, name, seed, sizes, setup_dir)
                  for _ in range(SETUP_REPS)]
    shutil.rmtree(setup_dir, ignore_errors=True)
    ctx = workload.setup(import_program(root), seed, str(setup_dir))

    tracer = tracing.Tracer() if trace else None
    passes, errors = [], []
    reference = None
    loop_start = time.perf_counter()
    while True:
        k = len(passes)
        traced = trace and k % 2 == 1
        pass_dir = str(run_dir / f"pass{k}")
        t0 = time.perf_counter()
        program = import_program(root)
        hook = (tracer.installed(program, k) if traced
                else contextlib.nullcontext())
        t1 = time.perf_counter()
        with hook:
            result = workload.run_pass(program, ctx, pass_dir, k)
        wall = time.perf_counter() - t1
        claims = workload.check(program, ctx, pass_dir, result, k)
        result.errors.extend(verify_epsilons(root, claims,
                                             run_dir / f"epsilon{k}"))
        digests = _digests(pass_dir)
        if reference is None:
            reference = digests
        else:
            # Files under workload.varying differ between passes by design;
            # the epsilon claims above check them instead.
            changed = sorted(f for f in set(digests) | set(reference)
                             if not f.startswith(workload.varying)
                             and digests.get(f) != reference.get(f))
            if changed:
                result.errors.append(
                    f"pass {k} output differs from pass 0: {changed[:5]}")
            shutil.rmtree(pass_dir)
        errors.extend(f"pass {k}: {e}" for e in result.errors)
        passes.append({"wall": wall, "traced": traced, "result": result,
                       "took": time.perf_counter() - t0})
        elapsed = time.perf_counter() - loop_start
        # Stop once the next pass would end more than half a pass past
        # the budget, so a run measures `seconds` on average.
        if len(passes) >= MIN_PASSES and \
                elapsed + passes[-1]["took"] / 2 > seconds:
            break

    attempted = sum(p["result"].attempted for p in passes)
    failed = sum(p["result"].failed for p in passes)
    untraced = [p["wall"] for p in passes if not p["traced"]]
    detail = {
        "provenance": provenance(root, name, seed),
        "sizes": workload.sizes,
        "setup_reps_s": setup_reps,
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "failed_frac": failed / attempted if attempted else 0.0,
        "report_sha256": reference,
        "gate_errors": errors,
    }
    if not trace:
        latencies = [ms for p in passes for ms in p["result"].account_ms]
        detail["account_samples"] = len(latencies)
        # The median flips with the host's mix of fast and slow seconds, so
        # it is recorded here but is no bounded metric (see README.md).
        detail["account_p50_ms"] = (_quantile(latencies, 50) if latencies
                                    else 0.0)
        values = {
            "setup_s": statistics.median(setup_reps),
            "wall_s": statistics.mean(untraced),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "account_p90_ms": _quantile(latencies, 90) if latencies else 0.0,
        }
        spec = SPEC["end_to_end"]
    else:
        values, layer_errors = _per_layer(tracer, passes, untraced)
        errors.extend(layer_errors)
        detail["missing_probes"] = tracer.missing
        tracer.write_jsonl(run_dir / "spans.jsonl")
        spec = SPEC["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    line = {"correct": not errors and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    detail["metrics"] = metrics
    return line, detail


def _per_layer(tracer, passes, untraced):
    errors = []
    counts, times, walls = [], [], []
    for k, p in enumerate(passes):
        if not p["traced"]:
            continue
        spans = tracer.pass_spans(k)
        counts.append(tracing.layer_counts(spans, p["result"].slots))
        times.append(tracing.layer_times(spans))
        walls.append(p["wall"])
        self_sum = sum(v for m, v in times[-1].items()
                       if m.count(".") == 1 and m.endswith(".self_s"))
        if self_sum > p["wall"]:
            errors.append(f"pass {k}: per-layer self times sum to "
                          f"{self_sum:.6f} s > pass wall {p['wall']:.6f} s")
    if any(c != counts[0] for c in counts):
        errors.append("traced counts differ between passes of one seed")
    values = {**counts[0], **tracing.median_times(times)}
    values["trace.wall_s"] = statistics.mean(walls)
    values["trace.overhead_frac"] = (values["trace.wall_s"]
                                     / statistics.mean(untraced) - 1.0)
    return values, errors


def write_detail(out_root, name, seed, trace, detail):
    path = (Path(out_root) / "results"
            / f"{name}-seed{seed}-trace{int(trace)}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    return path
