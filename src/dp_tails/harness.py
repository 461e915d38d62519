"""Experiment orchestration: privacy-level sweeps over yearly protocols,
with utility, robustness, fairness, and influence audits emitted as
deterministic JSON/CSV reports.

Every cell of the (task x level x mechanism x seed) grid derives its rng
from a stable hash so it is independently reproducible, and every epsilon
in a report is recomputable from the logged (q, sigma, T, delta). Each
(cell, pivot year) has one model, and every audit of the cell reads it, so
utility, fairness, influence and shift results describe the same models.
The grid runs per (task, mechanism), pivot by pivot: at each pivot the
DP-SGD models of all its cells train in two stacks (dp_optim.train_stack),
the unclipped `none` level and the private levels, and a model gets the
bits it would get trained alone.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import (accountant, cohort as cohort_mod, dp_optim, fairness_audit,
               influence, metrics, models, objective_perturbation,
               shift_audit)
from .cohort import stable_seed
from .errors import ConfigurationError, DPTailsError, config_from_dict

# Objective-perturbation budgets matched to the named privacy levels; "none"
# trains the noiseless minimizer, reported as a non-private run.
OBJPERT_LEVEL_EPS = {"none": math.inf, "low": 3.5e5, "high": 3.54}


@dataclass
class ExperimentConfig:
    cohort: cohort_mod.CohortConfig
    tasks: list = field(default_factory=lambda: [
        {"name": "outcome", "family": "lr-binary", "l2_lambda": 0.01}])
    privacy_levels: list = field(default_factory=lambda: ["none", "low", "high"])
    mechanisms: list = field(default_factory=lambda: ["dp-sgd"])
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    audits: list = field(default_factory=lambda: ["utility"])
    out_dir: str = "runs"
    learning_rate: float = 0.5
    epochs: int = 5
    batch_size: int = 64
    microbatch_count: int = 16
    objpert_lambda: float = 0.01
    influence_train_cap: int = 1000
    influence_test_cap: int = 300
    influence_panel: int = influence.DEFAULT_PANEL

    def __post_init__(self):
        if not self.seeds or not self.tasks or not self.privacy_levels:
            raise ConfigurationError(
                "seeds/tasks/privacy_levels: must be nonempty")
        for level in self.privacy_levels:
            if not isinstance(level, str):
                raise ConfigurationError(
                    f"privacy_levels: {level!r} is not a level name")
        for i, task in enumerate(self.tasks):
            _family_spec(task, f"tasks[{i}]")
        for mech in self.mechanisms:
            if mech not in ("dp-sgd", "objective-perturbation"):
                raise ConfigurationError(f"mechanisms: unknown {mech!r}")
        for audit in self.audits:
            if audit not in ("utility", "robustness", "fairness", "influence"):
                raise ConfigurationError(f"audits: unknown {audit!r}")

    @classmethod
    def from_dict(cls, raw):
        if isinstance(raw, dict) and "cohort" in raw:
            raw = {**raw,
                   "cohort": cohort_mod.CohortConfig.from_dict(raw["cohort"])}
        return config_from_dict(cls, raw, "run config")


def _family_spec(task, where):
    """The models.FamilySpec of a grid task: a string `name` plus any
    FamilySpec field."""
    if not isinstance(task, dict) or not isinstance(task.get("name"), str):
        raise ConfigurationError(f"{where}: needs a string 'name'")
    return config_from_dict(models.FamilySpec,
                            {k: v for k, v in task.items() if k != "name"},
                            where)


def format_cell(mean, std, spend):
    eps = "inf" if not math.isfinite(spend.epsilon) else f"{spend.epsilon:.2f}"
    return f"{mean:.2f} +/- {std:.2f} ({eps}, {spend.delta:g})"


def _caught(fn, *args, **kwargs):
    """fn's result, or the DPTailsError it raised."""
    try:
        return fn(*args, **kwargs)
    except DPTailsError as exc:
        return exc


def _train_pivot(split, task, mechanism, jobs, config):
    """Train one model per (level, cell seed) job on one pivot's split;
    returns, per job, its TrainedModel or the DPTailsError that failed it.
    DP-SGD jobs train in two dp_optim.train_stack calls, the unclipped
    (`none`) and the private ones."""
    if mechanism == "objective-perturbation":
        return [_caught(_train_objpert, split, level, seed, config)
                for level, seed in jobs]
    results = [_caught(dp_optim.DPTrainingConfig.from_level, level,
                       batch_size=config.batch_size,
                       microbatch_count=config.microbatch_count,
                       learning_rate=config.learning_rate,
                       epochs=config.epochs, seed=seed)
               for level, seed in jobs]
    for private in (False, True):
        members = [i for i, r in enumerate(results)
                   if isinstance(r, dp_optim.DPTrainingConfig)
                   and r.private == private]
        if members:
            trained = _caught(dp_optim.train_stack,
                              _family_spec(task, "task"), split,
                              [results[i] for i in members])
            if isinstance(trained, DPTailsError):
                trained = [trained] * len(members)
            for i, result in zip(members, trained):
                results[i] = result
    return results


def _train_objpert(split, level, seed, config):
    if level not in OBJPERT_LEVEL_EPS:
        raise ConfigurationError(f"unknown privacy level {level!r}")
    op_config = objective_perturbation.ObjPertConfig(
        eps_p=OBJPERT_LEVEL_EPS[level], lam=config.objpert_lambda, seed=seed)
    return objective_perturbation.train_objective_perturbation(
        split, op_config, force_zero_noise=(level == "none"))


def _pivot_models(cohort, task, level, mechanism, config, seed):
    """Yield (pivot, split, TrainedModel) per pivot year for one cell, the
    model trained on the years before the pivot, as the grid trains it."""
    for pivot, split in cohort_mod.yearly_splits(cohort):
        cell_seed = stable_seed(seed, task["name"], level, mechanism, pivot)
        trained, = _train_pivot(split, task, mechanism, [(level, cell_seed)],
                                config)
        if isinstance(trained, DPTailsError):
            raise trained
        yield pivot, split, trained


def _utility_row(pivot, split, trained):
    scores = models.predict(trained.params, split.test.features)[:, 1]
    return {
        "year": int(pivot),
        "auroc": metrics.auroc(scores, split.test.labels),
        "auprc": metrics.auprc(scores, split.test.labels),
        "spend": trained.spend.to_dict(),
        "accounting_log": trained.accounting_log,
    }


def _aggregate(rows):
    aurocs = [r["auroc"] for r in rows]
    return {"auroc_mean": float(np.mean(aurocs)),
            "auroc_std": float(np.std(aurocs))}


def yearly_protocol(cohort, task, level, mechanism, config, seed):
    """Train on prior years, test on each pivot year; returns per-year
    metric rows plus the across-year aggregate."""
    rows = [_utility_row(*p) for p in _pivot_models(
        cohort, task, level, mechanism, config, seed)]
    return rows, _aggregate(rows)


def _fairness_audit(pivot, split, trained):
    scores = models.predict(trained.params, split.test.features)[:, 1]
    try:
        report = fairness_audit.fairness_gaps(
            scores, split.test.labels, split.test.groups, g1=0, g2=1)
        return {"year": int(pivot), **report.to_dict()}
    except DPTailsError as exc:
        return {"year": int(pivot), "error": str(exc)}


def _influence_audit(split, trained, config):
    train_sub = split.train.subset(slice(0, config.influence_train_cap))
    test_sub = split.test.subset(slice(0, config.influence_test_cap))
    matrix = influence.InfluenceEngine(trained.params, train_sub).matrix(
        train_sub, test_sub)
    return {**influence.influence_summary(matrix, train_sub,
                                          config.influence_panel),
            "spend": trained.spend.to_dict()}


class _CellAudits:
    """The audits of one grid cell, fed one pivot model at a time."""

    def __init__(self, cell, audits):
        self.cell, self.audits = cell, audits
        self.rows, self.fairness = [], []
        self.robustness = shift_audit.RobustnessAudit(cell["seed"])
        self.trained = None

    def add(self, pivot, split, trained):
        self.trained = trained
        if "utility" in self.audits:
            self.rows.append(_utility_row(pivot, split, trained))
        if "robustness" in self.audits:
            self.robustness.add(pivot, split, trained.params)
        if "fairness" in self.audits:
            self.fairness.append(_fairness_audit(pivot, split, trained))

    def finish(self, split, config):
        """The cell's audit results by name; influence reads the last
        pivot's model and split."""
        out = {}
        if "utility" in self.audits:
            out["utility"] = {"per_year": self.rows, **_aggregate(self.rows)}
        if "robustness" in self.audits:
            out["robustness"] = self.robustness.report()
        if "fairness" in self.audits:
            out["fairness"] = self.fairness
        if "influence" in self.audits:
            out["influence"] = _influence_audit(split, self.trained, config)
        return out


def _run_cells(base, task, mechanism, cells, config):
    """Train and audit the cells of one (task, mechanism) pivot by pivot,
    holding one pivot's split at a time: the pivot's models train together
    (_train_pivot), then feed their cells' audits. A cell whose training or
    audit raises records only its error and leaves the later stacks; the
    other cells are unaffected."""
    live = list(cells)

    def fail(state, exc):
        state.cell["error"] = f"{type(exc).__name__}: {exc}"
        live.remove(state)

    split = None
    try:
        for pivot, split in cohort_mod.yearly_splits(base):
            jobs = [(c.cell["level"], stable_seed(
                c.cell["seed"], task["name"], c.cell["level"], mechanism,
                pivot)) for c in live]
            trained = _train_pivot(split, task, mechanism, jobs, config)
            for state, result in zip(list(live), trained):
                if not isinstance(result, DPTailsError):
                    result = _caught(state.add, pivot, split, result)
                if result is not None:
                    fail(state, result)
    except DPTailsError as exc:
        for state in list(live):
            fail(state, exc)
    # The loop leaves the last pivot's split bound.
    for state in list(live):
        out = _caught(state.finish, split, config)
        if isinstance(out, DPTailsError):
            fail(state, out)
        else:
            state.cell.update(out)


def run_experiment(config: ExperimentConfig):
    """Execute the full grid; failed cells are recorded, not fatal.

    Returns (report dict, number of failed cells) and writes report.json
    plus the figure-feeding CSV tables under config.out_dir.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    base = cohort_mod.generate_cohort(config.cohort)

    cells = []
    by_group = {}
    for (t, task), level, mechanism, seed in itertools.product(
            enumerate(config.tasks), config.privacy_levels,
            config.mechanisms, config.seeds):
        cell = {"task": task["name"], "level": level,
                "mechanism": mechanism, "seed": seed}
        cells.append(cell)
        audits = [a for a in config.audits
                  if a in ("utility", "fairness")
                  or (mechanism == "dp-sgd" and a == "influence")
                  or (mechanism == "dp-sgd" and a == "robustness"
                      and level == config.privacy_levels[0])]
        if audits:
            by_group.setdefault((t, mechanism), []).append(
                _CellAudits(cell, audits))
    for (t, mechanism), states in by_group.items():
        _run_cells(base, config.tasks[t], mechanism, states, config)
    failures = sum("error" in cell for cell in cells)

    aggregates = _table_blocks(config, cells)
    report = {"config_hash": _config_hash(config), "cells": cells,
              "aggregates": aggregates, "failed_cells": failures}
    _write_reports(config, report)
    return report, failures


def _table_blocks(config, cells):
    """Mean +/- std blocks over seeds per (task, level, mechanism). The
    epsilon shown is the largest over pivot years and seeds: each pivot
    has its own sampling rate q = L/n, and the largest is the guarantee
    that binds."""
    blocks = []
    for task, level, mechanism in itertools.product(
            config.tasks, config.privacy_levels, config.mechanisms):
        utilities = [c["utility"] for c in cells
                     if "utility" in c and c["task"] == task["name"]
                     and c["level"] == level and c["mechanism"] == mechanism]
        if not utilities:
            continue
        vals = [u["auroc_mean"] for u in utilities]
        spends = [row["spend"] for u in utilities for row in u["per_year"]]
        eps = [math.inf if sp["epsilon"] == "inf" else float(sp["epsilon"])
               for sp in spends]
        worst = int(np.argmax(eps))
        spend = accountant.PrivacySpend(
            epsilon=eps[worst], delta=float(spends[worst]["delta"]))
        blocks.append({
            "task": task["name"], "level": level, "mechanism": mechanism,
            "auroc_mean": float(np.mean(vals)),
            "auroc_std": float(np.std(vals)),
            "cell_text": format_cell(float(np.mean(vals)),
                                     float(np.std(vals)), spend),
        })
    return blocks


def _config_hash(config):
    """Hash of every config field except out_dir, which names where the
    reports go and not what they hold."""
    payload = asdict(config)
    del payload["out_dir"]
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_reports(config, report):
    out = config.out_dir
    _write_json(os.path.join(out, "report.json"), report)

    with open(os.path.join(out, "utility_by_year.csv"), "w") as fh:
        fh.write("task,level,mechanism,seed,year,auroc,auprc\n")
        for cell in report["cells"]:
            for row in cell.get("utility", {}).get("per_year", []):
                fh.write(f"{cell['task']},{cell['level']},{cell['mechanism']},"
                         f"{cell['seed']},{row['year']},"
                         f"{row['auroc']!r},{row['auprc']!r}\n")

    with open(os.path.join(out, "malignancy.csv"), "w") as fh:
        fh.write("task,seed,year,malignancy_accuracy,p_value\n")
        for cell in report["cells"]:
            for row in cell.get("robustness", {}).get("per_year", []):
                mal = row["malignancy_accuracy"]
                fh.write(f"{cell['task']},{cell['seed']},{row['year']},"
                         f"{'' if mal is None else repr(mal)},"
                         f"{row['p_value']!r}\n")

    with open(os.path.join(out, "fairness_by_year.csv"), "w") as fh:
        fh.write("task,level,mechanism,seed,year,auroc_gap,parity_gap,"
                 "recall_gap,specificity_gap\n")
        for cell in report["cells"]:
            for row in cell.get("fairness", []):
                if "error" in row:
                    continue
                vals = [row[k] for k in ("auroc_gap", "parity_gap",
                                         "recall_gap", "specificity_gap")]
                text = ",".join("" if v is None else repr(v) for v in vals)
                fh.write(f"{cell['task']},{cell['level']},{cell['mechanism']},"
                         f"{cell['seed']},{row['year']},{text}\n")

    influence_cells = {f"{c['task']}|{c['level']}|{c['seed']}": c["influence"]
                       for c in report["cells"] if "influence" in c}
    if influence_cells:
        _write_json(os.path.join(out, "influence_summary.json"), influence_cells)
