"""The benchmark's workloads and their correctness checks.

Each workload is a closed loop with a single caller: one pass runs its
operations one after another, each after the previous one returned. The
workload seed is the only source of randomness the benchmark adds; the
program sees only the configs and files generated from it. Why each
workload was chosen is written next to its name in BENCHMARK.json.

A workload has three steps:
- `setup(program, seed, workdir)` turns the seed into plain data (configs,
  input files) that outlives the program it was made with;
- `run_pass(program, ctx, pass_dir, index)` is one timed pass;
- `check(program, ctx, pass_dir, result, index)` records the errors it
  finds in `result` and returns the pass's epsilon claims,
  `(where, (q, sigma, steps, delta), epsilon)`, which the benchmark
  recomputes in a fresh interpreter.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import re
import time

import numpy as np

# Standard cohort of the grids: lr-binary outcome with 10% prevalence, a
# label-coupled minority group and five drifting years with a shock.
STANDARD_COHORT = dict(
    n=6000, d=20, positive_prevalence=0.1, group_prevalences=(0.8, 0.2),
    group_label_association=0.3, years=(2001, 2005), yearly_drift=0.25,
    transition_year=2004, transition_shift=1.0)


def _seeds(seed, *path, count):
    """`count` distinct non-negative ints derived from the workload seed
    and an optional path below it (for example a pass index)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1729, *path]))
    return [int(s) for s in rng.choice(2 ** 31, size=count, replace=False)]


def call_cli(program, argv):
    """Run one `dp-tails` command in process; returns its exit code."""
    try:
        return program.cli.main(argv)
    except SystemExit as exc:          # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 2


@dataclasses.dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    slots: int = 0
    account_ms: list = dataclasses.field(default_factory=list)
    errors: list = dataclasses.field(default_factory=list)

    def command(self, rc, what):
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            self.errors.append(f"{what}: exit code {rc}")


def check_auroc_range(payload, where, errors):
    """Every AUROC in a JSON document lies in [0, 1]."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            if key in ("auroc", "auroc_mean") and isinstance(value, float):
                if not 0.0 <= value <= 1.0:
                    errors.append(f"{where}: {key}={value} outside [0,1]")
            elif key == "per_group_auroc" and isinstance(value, dict):
                for g, v in value.items():
                    if v is not None and not 0.0 <= v <= 1.0:
                        errors.append(f"{where}: AUROC of group {g}={v} "
                                      "outside [0,1]")
            else:
                check_auroc_range(value, where, errors)
    elif isinstance(payload, list):
        for item in payload:
            check_auroc_range(item, where, errors)


def _load_json_outputs(pass_dir, errors):
    """Every JSON file at the top of `pass_dir`, AUROC-checked."""
    docs = {}
    for fname in sorted(os.listdir(pass_dir)):
        if fname.endswith(".json"):
            with open(os.path.join(pass_dir, fname)) as fh:
                docs[fname] = json.load(fh)
            check_auroc_range(docs[fname], fname, errors)
    return docs


def _log_query(log):
    return (log["q"], log["sigma"], log["steps"], log["delta"])


def _timed_account(program, result, query, out_path):
    """One `dp-tails account` query; its latency is an account sample.
    Returns the epsilon it wrote, or None if the command failed."""
    q, sigma, steps, delta = query
    argv = ["account", "--q", repr(q), "--sigma", repr(sigma),
            "--steps", str(steps), "--delta", repr(delta), "--out", out_path]
    t0 = time.perf_counter()
    rc = call_cli(program, argv)
    result.account_ms.append((time.perf_counter() - t0) * 1e3)
    result.command(rc, f"account q={q!r} sigma={sigma!r} steps={steps}")
    if rc != 0:
        return None
    with open(out_path) as fh:
        return json.load(fh)["epsilon"]


class GridWorkload:
    """`harness.run_experiment` on one grid config per pass.

    After each pass the check re-queries every finite DP-SGD epsilon in the
    report through `dp-tails account`, as a user re-deriving it would; those
    queries are the account latency samples of the grid workloads, and they
    repeat (q, sigma, steps) triples the pass already computed. Both the
    reported and the re-queried epsilons are claims the benchmark
    recomputes outside this process.
    """

    varying = ()            # every output file repeats byte for byte

    def __init__(self, name, sizes):
        self.name, self.sizes = name, sizes

    def setup(self, program, seed, workdir):
        s = self.sizes
        cohort_seed, *grid_seeds = _seeds(seed, count=1 + s["seeds"])
        ctx = {"cohort": {**STANDARD_COHORT, **s["cohort"],
                          "seed": cohort_seed},
               "grid": dict(tasks=[s["task"]], privacy_levels=s["levels"],
                            mechanisms=s["mechanisms"], seeds=grid_seeds,
                            audits=s["audits"], **s.get("training", {})),
               "requery_dir": os.path.join(workdir, "requery")}
        self._config(program, ctx, workdir)     # fails early if invalid
        return ctx

    @staticmethod
    def _config(program, ctx, out_dir):
        return program.harness.ExperimentConfig(
            cohort=program.cohort.CohortConfig(**ctx["cohort"]),
            out_dir=out_dir, **ctx["grid"])

    def run_pass(self, program, ctx, pass_dir, index):
        report, _ = program.harness.run_experiment(
            self._config(program, ctx, pass_dir))
        result = PassResult()
        for cell in report["cells"]:
            result.attempted += 1
            if "error" in cell:
                result.failed += 1
                result.errors.append(f"cell {cell['task']}/{cell['level']}/"
                                     f"{cell['mechanism']}/{cell['seed']}: "
                                     f"{cell['error']}")
            result.slots += len(cell.get("utility", {}).get("per_year", ()))
        return result

    def check(self, program, ctx, pass_dir, result, index):
        errors = result.errors
        report = _load_json_outputs(pass_dir, errors)["report.json"]
        if report["failed_cells"] != 0:
            errors.append(f"failed_cells = {report['failed_cells']}")
        requery_dir = ctx["requery_dir"]
        os.makedirs(requery_dir, exist_ok=True)
        claims, cell_eps = [], {}
        for i, cell in enumerate(report["cells"]):
            own = set()
            for row in cell.get("utility", {}).get("per_year", ()):
                where = f"cell {i} {row['year']}"
                eps = row["spend"]["epsilon"]
                own.add(eps)
                if eps == "inf":
                    continue
                log = row["accounting_log"]
                if log.get("mechanism") == "objective-perturbation":
                    if eps != log["eps_p"]:
                        errors.append(f"{where}: epsilon {eps} != logged "
                                      f"eps_p {log['eps_p']}")
                    continue
                query = _log_query(log)
                claims.append((f"{where} reported", query, eps))
                out = os.path.join(requery_dir, f"c{i}-{row['year']}.json")
                again = _timed_account(program, result, query, out)
                if again is not None:
                    claims.append((f"{where} re-queried", query, again))
            cell_eps.setdefault(
                (cell["task"], cell["level"], cell["mechanism"]), set()
            ).update(own)
            infl = cell.get("influence")
            if infl and infl["spend"]["epsilon"] not in own:
                errors.append(f"cell {i}: influence epsilon "
                              f"{infl['spend']['epsilon']!r} matches no "
                              "utility row of its cell")
        for block in report["aggregates"]:
            match = re.search(r"\(([^,]+), [^)]+\)$", block["cell_text"])
            eps_text = match.group(1) if match else None
            key = (block["task"], block["level"], block["mechanism"])
            allowed = {"inf" if e == "inf" else f"{e:.2f}"
                       for e in cell_eps.get(key, ())}
            if eps_text not in allowed:
                errors.append(f"aggregate {block['task']}/{block['level']}/"
                              f"{block['mechanism']}: epsilon text "
                              f"{eps_text!r} matches no reported epsilon")
        return claims


class CliSessionWorkload:
    """One user session of `dp-tails` commands, in process, per pass.

    Each pass draws its own `account` sweep from (seed, pass index), so no
    sweep query repeats in one process; the sweep's output files are
    therefore the only ones that differ between passes.
    """

    varying = ("account/",)

    def __init__(self, name, sizes):
        self.name, self.sizes = name, sizes

    def setup(self, program, seed, workdir):
        s = self.sizes
        os.makedirs(workdir, exist_ok=True)
        cohort_seed, pair_seed, train_seed = _seeds(seed, count=3)
        big = {**STANDARD_COHORT, "n": s["rows"], "d": s["d"],
               "seed": cohort_seed}
        cohort_config = program.cohort.CohortConfig(**big)
        cohort_json = os.path.join(workdir, "cohort_config.json")
        with open(cohort_json, "w") as fh:
            fh.write(cohort_config.to_json())
        # Small train/test pair for the influence audit: one year, cut
        # into its first pair_train rows and the pair_test rows after them.
        n_train, n_test = s["pair_train"], s["pair_test"]
        small = program.cohort.generate_cohort(program.cohort.CohortConfig(
            **{**big, "n": n_train + n_test, "years": (2001, 2001),
               "yearly_drift": 0.0, "transition_year": None,
               "transition_shift": 0.0, "seed": pair_seed}))
        pair = {}
        for side, rows in (("train", slice(0, n_train)),
                           ("test", slice(n_train, n_train + n_test))):
            pair[side] = os.path.join(workdir, f"small_{side}.csv")
            program.cohort.write_cohort(small.subset(rows), pair[side])
        return {"seed": seed, "cohort_json": cohort_json, "pair": pair,
                "train_seed": train_seed, "pivot": cohort_config.years[1],
                "cfg_dir": workdir,
                "delta": program.accountant.DEFAULT_DELTA}

    def sweep(self, ctx, index):
        """The `account` queries of pass `index`, as (q, sigma, steps, delta).

        A Latin hypercube draw: log-uniform q in [1e-3, 5e-2], uniform
        sigma in [0.5, 2] and steps in [100, 20000], one query per stratum
        of each, so every pass covers the same range and its latency
        quantiles stay comparable across passes and seeds.
        """
        rng = np.random.default_rng(_seeds(ctx["seed"], index, count=1)[0])
        k = self.sizes["queries"]
        u = (np.array([rng.permutation(k) for _ in range(3)])
             + rng.random((3, k))) / k
        return list(zip(
            np.exp(math.log(1e-3) + u[0] * math.log(50.0)).tolist(),
            (0.5 + 1.5 * u[1]).tolist(),
            (100 + np.floor(u[2] * 19901)).astype(int).tolist(),
            [ctx["delta"]] * k))

    def _config(self, ctx, name, payload):
        path = os.path.join(ctx["cfg_dir"], f"{name}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return path

    def run_pass(self, program, ctx, pass_dir, index):
        os.makedirs(os.path.join(pass_dir, "account"))
        out = functools.partial(os.path.join, pass_dir)
        seed = str(ctx["train_seed"])
        result = PassResult()
        cohort_csv = out("cohort.csv")
        result.command(call_cli(program, [
            "generate-data", "--config", ctx["cohort_json"],
            "--out", cohort_csv]), "generate-data")
        train_cfg = self._config(ctx, "train", {
            "cohort_csv": cohort_csv, "pivot_year": ctx["pivot"],
            "family_spec": {"family": "lr-binary", "l2_lambda": 0.01},
            "training": {"privacy_level": "high", "batch_size": 64,
                         "microbatch_count": 16, "learning_rate": 0.5,
                         "epochs": self.sizes["epochs"]}})
        result.command(call_cli(program, [
            "train", "--config", train_cfg, "--seed", seed,
            "--out", out("model.json")]), "train")
        shift_cfg = self._config(ctx, "shift", {"cohort_csv": cohort_csv})
        result.command(call_cli(program, [
            "audit-shift", "--config", shift_cfg, "--seed", seed,
            "--out", out("shift.json"), "--csv", out("shift.csv")]),
            "audit-shift")
        if os.path.exists(out("model.json")):
            with open(out("model.json")) as fh:
                params = json.load(fh)["params"]
            fair_cfg = self._config(ctx, "fairness", {
                "cohort_csv": cohort_csv, "params": params})
            result.command(call_cli(program, [
                "audit-fairness", "--config", fair_cfg,
                "--out", out("fairness.json")]), "audit-fairness")
            infl_cfg = self._config(ctx, "influence", {
                "train_csv": ctx["pair"]["train"],
                "test_csv": ctx["pair"]["test"], "params": params})
            result.command(call_cli(program, [
                "audit-influence", "--config", infl_cfg,
                "--out", out("influence.json"),
                "--csv", out("influence.csv")]), "audit-influence")
        else:
            for what in ("audit-fairness", "audit-influence"):
                result.command(1, f"{what} (no model to audit)")
        for i, query in enumerate(self.sweep(ctx, index)):
            _timed_account(program, result, query,
                           out(f"account/{i:03d}.json"))
        return result

    def check(self, program, ctx, pass_dir, result, index):
        docs = _load_json_outputs(pass_dir, result.errors)
        claims = []
        model = docs.get("model.json")
        if model and model["spend"]["epsilon"] != "inf":
            claims.append(("model.json", _log_query(model["accounting_log"]),
                           model["spend"]["epsilon"]))
        for i, query in enumerate(self.sweep(ctx, index)):
            path = os.path.join(pass_dir, f"account/{i:03d}.json")
            if os.path.exists(path):
                with open(path) as fh:
                    claims.append((f"account {i:03d}", query,
                                   json.load(fh)["epsilon"]))
        return claims


SIZES = {
    "grid-lr-audited": {
        "cohort": {}, "seeds": 2,
        "task": {"name": "outcome", "family": "lr-binary", "l2_lambda": 0.01},
        "levels": ["none", "low", "high"],
        "mechanisms": ["dp-sgd", "objective-perturbation"],
        "audits": ["utility", "robustness", "fairness", "influence"],
    },
    "grid-mlp-perexample": {
        "cohort": {"d": 32}, "seeds": 2,
        "task": {"name": "outcome", "family": "mlp-1", "h": 32,
                 "l2_lambda": 0.01},
        "levels": ["low", "high"], "mechanisms": ["dp-sgd"],
        "audits": ["utility"],
        "training": {"batch_size": 64, "microbatch_count": 64},
    },
    "cli-csv-session": {
        "rows": 25000, "d": 16, "epochs": 2, "pair_train": 1000,
        "pair_test": 300, "queries": 30,
    },
}


def make(name, sizes=None):
    """The workload called `name`, at `sizes` (default: SIZES[name])."""
    cls = CliSessionWorkload if name == "cli-csv-session" else GridWorkload
    return cls(name, sizes or SIZES[name])
