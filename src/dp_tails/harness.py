"""Experiment orchestration: privacy-level sweeps over yearly protocols,
with utility, robustness, fairness, and influence audits emitted as
deterministic JSON/CSV reports.

Every cell of the (task x level x mechanism x seed) grid derives its rng
from a stable hash so it is independently reproducible, and every epsilon
in a report is recomputable from the logged (q, sigma, T, delta). Each
(cell, pivot year) has one model, and every audit of the cell reads it, so
utility, fairness, influence and shift results describe the same models.
The grid runs per (task, mechanism). First every model of its cells and
pivots trains: the DP-SGD models in one dp_optim.train_stack call, which
puts them in lockstep stacks by itself (on a grid of one batch size, one
stack for every level), each model on its own rows of the cohort and with
the bits it would get trained alone; the objective-perturbation models one
pivot's training records at a time. The noiseless objective-perturbation
minimizer (level `none`) depends on no seed, so it is solved once per
(task, pivot) and every seed's `none` cell reads that one model. Then the
audits run pivot by pivot, each pivot's split built in turn.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import sys
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
# The privacy level names each mechanism trains.
MECHANISM_LEVELS = {"dp-sgd": dp_optim.PRIVACY_LEVELS,
                    "objective-perturbation": OBJPERT_LEVEL_EPS}


@dataclass
class ExperimentConfig:
    cohort: cohort_mod.CohortConfig
    tasks: list = field(default_factory=lambda: [
        {"name": "outcome", "family": "lr-binary", "l2_lambda": 0.01}])
    privacy_levels: list = field(default_factory=lambda: ["none", "low", "high"])
    mechanisms: list = field(default_factory=lambda: ["dp-sgd"])
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
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
        for name in ("seeds", "tasks", "privacy_levels", "mechanisms",
                     "audits"):
            if not getattr(self, name):
                raise ConfigurationError(f"{name}: must be nonempty")
        if len(self.cohort.year_list()) < 2:
            raise ConfigurationError(
                "cohort.years: the yearly protocol needs >= 2 years")
        for i, task in enumerate(self.tasks):
            _family_spec(task, f"tasks[{i}]")
        for mech in self.mechanisms:
            if not isinstance(mech, str) or mech not in MECHANISM_LEVELS:
                raise ConfigurationError(f"mechanisms: unknown {mech!r}")
            for level in self.privacy_levels:
                if (not isinstance(level, str)
                        or level not in MECHANISM_LEVELS[mech]):
                    raise ConfigurationError(
                        f"privacy_levels: {level!r} is not a {mech} level "
                        f"({', '.join(MECHANISM_LEVELS[mech])})")
        for audit in self.audits:
            if audit not in ("utility", "robustness", "fairness", "influence"):
                raise ConfigurationError(f"audits: unknown {audit!r}")
        for name, values in (("tasks", [t["name"] for t in self.tasks]),
                             ("privacy_levels", self.privacy_levels),
                             ("mechanisms", self.mechanisms),
                             ("seeds", self.seeds)):
            if len(set(values)) != len(values):
                raise ConfigurationError(f"{name}: duplicate entries")
        # The trainer's own rules check the fields every grid model shares.
        dp_optim.DPTrainingConfig(
            batch_size=self.batch_size, microbatch_count=self.microbatch_count,
            learning_rate=self.learning_rate, epochs=self.epochs)
        for name in ("objpert_lambda", "influence_train_cap",
                     "influence_test_cap", "influence_panel"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name}: must be > 0")

    @classmethod
    def from_dict(cls, raw):
        if isinstance(raw, dict) and "cohort" in raw:
            raw = {**raw,
                   "cohort": cohort_mod.CohortConfig.from_dict(raw["cohort"])}
        return config_from_dict(cls, raw, "run config")


def _family_spec(task, where):
    """The models.FamilySpec of a grid task: a string `name` plus any
    FamilySpec field. The name is a CSV cell and part of the
    task|level|seed keys, so it is nonempty and holds no , " | CR or LF."""
    name = task.get("name") if isinstance(task, dict) else None
    if not isinstance(name, str) or not name or set(name) & set(',"|\r\n'):
        raise ConfigurationError(
            f"{where}: needs a nonempty string 'name' without , \" | CR or LF")
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


def _train_objpert(train, level, seed, config):
    op_config = objective_perturbation.ObjPertConfig(
        eps_p=OBJPERT_LEVEL_EPS[level], lam=config.objpert_lambda, seed=seed)
    return objective_perturbation.train_objective_perturbation(
        train, op_config)


def _train_models(cohort, task, mechanism, jobs, pivots, config):
    """Per pivot year, per (level, seed) job of grid cells: the job's
    TrainedModel, trained on the years before the pivot with cell seed
    stable_seed(seed, task, level, mechanism, pivot), or the DPTailsError
    that failed it. Every DP-SGD model trains in one dp_optim.train_stack
    call, on its rows of the cohort; objective perturbation trains one
    pivot's training records at a time, and every seed's `none` job of a
    pivot reads its one noiseless model (or its one error)."""
    n = len(jobs)
    slots = [(pivot, level, stable_seed(seed, task["name"], level,
                                        mechanism, pivot))
             for pivot in pivots for level, seed in jobs]
    if mechanism == "dp-sgd":
        rows = {pivot: cohort_mod.train_rows(cohort, pivot)
                for pivot in pivots}
        results = dp_optim.train_stack(
            _family_spec(task, "task"), cohort,
            [dp_optim.DPTrainingConfig.from_level(
                level, batch_size=config.batch_size,
                microbatch_count=config.microbatch_count,
                learning_rate=config.learning_rate, epochs=config.epochs,
                seed=cell_seed) for _, level, cell_seed in slots],
            [rows[pivot] for pivot, _, _ in slots])
    else:
        results = []
        for p, pivot in enumerate(pivots):
            train = cohort.subset(cohort_mod.train_rows(cohort, pivot))
            solved = {}
            for _, level, cell_seed in slots[p * n:(p + 1) * n]:
                # The noiseless minimizer reads no seed: one per pivot.
                key = (level, None if level == "none" else cell_seed)
                if key not in solved:
                    solved[key] = _caught(_train_objpert, train, level,
                                          cell_seed, config)
                results.append(solved[key])
    return [results[p * n:(p + 1) * n] for p in range(len(pivots))]


def _utility_row(pivot, split, trained, scores):
    return {
        "year": int(pivot),
        "auroc": metrics.auroc(scores, split.test.labels),
        "auprc": metrics.auprc(scores, split.test.labels),
        "spend": trained.spend.to_dict(),
        "accounting_log": trained.accounting_log,
    }


def _fairness_audit(pivot, split, scores):
    try:
        return {"year": int(pivot), **fairness_audit.fairness_gaps(
            scores, split.test.labels, split.test.groups, g1=0, g2=1)}
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


def _pivot_rows(seed, audits, pivot, split, trained):
    """A cell's rows of one pivot by audit name, all reading one scoring of
    the test year by the pivot's model."""
    if {"utility", "robustness", "fairness"}.isdisjoint(audits):
        return {}
    scores = models.predict(trained.params, split.test.features)
    rows = {}
    if "utility" in audits:
        rows["utility"] = _utility_row(pivot, split, trained, scores)
    if "robustness" in audits:
        rows["robustness"] = shift_audit.robustness_row(
            seed, pivot, split, trained.params, scores)
    if "fairness" in audits:
        rows["fairness"] = _fairness_audit(pivot, split, scores)
    return rows


def _cell_results(audits, rows, split, trained, config):
    """A cell's results by audit name from its pivot rows; influence reads
    the last pivot's model and split."""
    out = {a: [r[a] for r in rows] for a in audits if a != "influence"}
    if "utility" in out:
        aurocs = [r["auroc"] for r in out["utility"]]
        out["utility"] = {"per_year": out["utility"],
                          "auroc_mean": float(np.mean(aurocs)),
                          "auroc_std": float(np.std(aurocs))}
    if "robustness" in out:
        out["robustness"] = shift_audit.robustness_report(out["robustness"])
    if "influence" in audits:
        out["influence"] = _influence_audit(split, trained, config)
    return out


def _run_cells(base, task, mechanism, cells, config):
    """Train and audit the (cell, audits) pairs of one (task, mechanism):
    every pivot's models train first (_train_models), then each pivot's
    split is built in turn and its models audited. A cell whose training
    or audit raises records its first error, in pivot order, and no
    result, and is audited no further; the other cells are unaffected."""
    def settle(cell, result, keep=None):
        if isinstance(result, DPTailsError):
            cell.setdefault("error", f"{type(result).__name__}: {result}")
        else:
            keep(result)

    rows = [[] for _ in cells]
    try:
        pivots = cohort_mod.pivot_years(base)
        trained = _train_models(base, task, mechanism,
                                [(c["level"], c["seed"]) for c, _ in cells],
                                pivots, config)
        for pivot, models_of_pivot in zip(pivots, trained):
            split = cohort_mod.split_yearly(base, pivot)
            for (cell, audits), cell_rows, result in zip(
                    cells, rows, models_of_pivot):
                if "error" in cell:
                    continue
                if not isinstance(result, DPTailsError):
                    result = _caught(_pivot_rows, cell["seed"], audits,
                                     pivot, split, result)
                settle(cell, result, cell_rows.append)
    except DPTailsError as exc:
        for cell, _ in cells:
            settle(cell, exc)
        return
    # The loop leaves the last pivot's split bound.
    for (cell, audits), cell_rows, model in zip(cells, rows, trained[-1]):
        if "error" not in cell:
            settle(cell, _caught(_cell_results, audits, cell_rows, split,
                                 model, config), cell.update)


def _skip_rule(audit, task, mechanism, level, config):
    """The rule that keeps `audit` from a cell of this task, mechanism and
    level, or None if the audit runs there."""
    family = _family_spec(task, "task").family
    if mechanism == "objective-perturbation" and family != "lr-binary":
        return "objective-perturbation trains only lr-binary tasks"
    if audit in ("robustness", "influence") and mechanism != "dp-sgd":
        return f"{audit} audits only dp-sgd cells"
    if audit == "influence" and family != "lr-binary":
        return "influence audits only lr-binary tasks"
    if audit == "robustness" and level != config.privacy_levels[0]:
        return (f"robustness audits only privacy_levels[0] "
                f"({config.privacy_levels[0]})")
    return None


def run_experiment(config: ExperimentConfig):
    """Execute the full grid; failed cells are recorded, not fatal, and a
    grid on which no audit runs raises ConfigurationError. A cell that gets
    none of its requested audits records the rules that skip it under
    `skipped`.

    Returns (report dict, number of failed cells) and writes report.json
    plus the figure-feeding CSV tables under config.out_dir.
    """
    cells = []
    by_group = {}
    for (t, task), level, mechanism, seed in itertools.product(
            enumerate(config.tasks), config.privacy_levels,
            config.mechanisms, config.seeds):
        cell = {"task": task["name"], "level": level,
                "mechanism": mechanism, "seed": seed}
        cells.append(cell)
        rules = {a: _skip_rule(a, task, mechanism, level, config)
                 for a in config.audits}
        audits = [a for a, rule in rules.items() if rule is None]
        if audits:
            by_group.setdefault((t, mechanism), []).append((cell, audits))
        else:
            cell["skipped"] = "; ".join(dict.fromkeys(rules.values()))
    if not by_group:
        raise ConfigurationError(
            f"audits: none of {config.audits} runs on any cell "
            f"({cells[0]['skipped']})")
    os.makedirs(config.out_dir, exist_ok=True)
    base = cohort_mod.generate_cohort(config.cohort)
    for (t, mechanism), group in by_group.items():
        _run_cells(base, config.tasks[t], mechanism, group, config)
    failures = sum("error" in cell for cell in cells)

    aggregates = _table_blocks(config, cells)
    report = {"config_hash": _config_hash(config), "cells": cells,
              "aggregates": aggregates, "failed_cells": failures}
    _write_reports(config, report)
    return report, failures


def _table_blocks(config, cells):
    """Mean +/- std blocks over seeds per (task, level, mechanism). The
    epsilon shown is the largest per-model epsilon over pivot years and
    seeds: each pivot has its own sampling rate q = L/n. It is no bound on
    a record's total loss: a record of year y trains every later pivot's
    model, and those guarantees compose."""
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


def write_json(path, payload):
    """Every JSON output: sorted keys, indent 1 and a final newline, to the
    file `path` or, if path is None or empty, to standard output."""
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    if not path:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def write_table(path, header, rows):
    """A CSV table: the column names `header`, then one line per row, each
    cell a str or int as given, a float by repr and None as empty."""
    with open(path, "w") as fh:
        for row in itertools.chain([header], rows):
            fh.write(",".join(
                "" if v is None else repr(v) if isinstance(v, float)
                else str(v) for v in row) + "\n")


MALIGNANCY_COLUMNS = ("year", "malignancy_accuracy", "p_value")


def _write_reports(config, report):
    out, cells = config.out_dir, report["cells"]
    write_json(os.path.join(out, "report.json"), report)
    key = ("task", "level", "mechanism", "seed")
    gaps = ("auroc_gap", "parity_gap", "recall_gap", "specificity_gap")
    write_table(os.path.join(out, "utility_by_year.csv"),
                (*key, "year", "auroc", "auprc"),
                ([*(c[k] for k in key), r["year"], r["auroc"], r["auprc"]]
                 for c in cells
                 for r in c.get("utility", {}).get("per_year", [])))
    write_table(os.path.join(out, "malignancy.csv"),
                ("task", "seed", *MALIGNANCY_COLUMNS),
                ([c["task"], c["seed"], *(r[k] for k in MALIGNANCY_COLUMNS)]
                 for c in cells
                 for r in c.get("robustness", {}).get("per_year", [])))
    write_table(os.path.join(out, "fairness_by_year.csv"),
                (*key, "year", *gaps),
                ([*(c[k] for k in key), r["year"], *(r[k] for k in gaps)]
                 for c in cells for r in c.get("fairness", [])
                 if "error" not in r))

    influence_cells = {f"{c['task']}|{c['level']}|{c['seed']}": c["influence"]
                       for c in cells if "influence" in c}
    if influence_cells:
        write_json(os.path.join(out, "influence_summary.json"), influence_cells)
