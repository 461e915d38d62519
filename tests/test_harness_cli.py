import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dp_tails import (accountant, cli, cohort, dp_optim, errors, harness,
                      influence, metrics, models, objective_perturbation)
from dp_tails.errors import (ConfigurationError, DomainError, TrainingError,
                             config_from_dict)
from oracles import trainer_parent

from conftest import make_cohort, oracle_config


def _small_config(tmp_path, **overrides):
    cc = cohort.CohortConfig(n=600, d=4, positive_prevalence=0.3,
                             years=(2001, 2002), class_separation=2.0, seed=0)
    defaults = dict(cohort=cc, privacy_levels=["none"], seeds=[0],
                    audits=["utility"], epochs=1,
                    out_dir=str(tmp_path / "out"))
    defaults.update(overrides)
    return harness.ExperimentConfig(**defaults)


# ---------------------------------------------------------------- helpers


def test_stable_seed_deterministic_and_distinct():
    a = harness.stable_seed(0, "outcome", "none", 2002)
    b = harness.stable_seed(0, "outcome", "none", 2002)
    c = harness.stable_seed(0, "outcome", "none", 2003)
    assert a == b
    assert a != c
    assert 0 <= a < 2 ** 64


def test_format_cell():
    inf_spend = accountant.PrivacySpend(epsilon=math.inf, delta=0.0)
    assert harness.format_cell(0.82, 0.03, inf_spend) == \
        "0.82 +/- 0.03 (inf, 0)"
    fin_spend = accountant.PrivacySpend(epsilon=3.54321, delta=1e-5)
    assert harness.format_cell(0.60, 0.04, fin_spend) == \
        "0.60 +/- 0.04 (3.54, 1e-05)"


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ConfigurationError, match="nonempty"):
        _small_config(tmp_path, seeds=[])
    with pytest.raises(ConfigurationError, match="mechanisms"):
        _small_config(tmp_path, mechanisms=["magic"])
    with pytest.raises(ConfigurationError, match="audits"):
        _small_config(tmp_path, audits=["vibes"])


def test_task_names_that_would_corrupt_tables_refused(tmp_path):
    # A name is a cell of the CSV tables and part of the task|level|seed
    # keys of influence_summary.json.
    for name in ("", "a,b", 'a"b', "a|b", "a\rb", "a\nb"):
        with pytest.raises(ConfigurationError, match="'name'"):
            _small_config(tmp_path, tasks=[{"name": name}])
    assert _small_config(tmp_path, tasks=[{"name": "30-day outcome"}])


def test_config_from_dict_rejects_unknown_key(tmp_path):
    raw = {"cohort": json.loads(_small_config(tmp_path).cohort.to_json()),
           "bogus": 1}
    with pytest.raises(ConfigurationError, match="bogus"):
        harness.ExperimentConfig.from_dict(raw)


def test_config_rejects_multiclass_cohort(tmp_path):
    # Cohorts and models are binary: the multiclass keys and family are
    # refused before any training.
    raw = json.loads(_small_config(tmp_path).cohort.to_json())
    with pytest.raises(ConfigurationError, match="num_classes"):
        harness.ExperimentConfig.from_dict(
            {"cohort": {**raw, "num_classes": 3}})
    with pytest.raises(ConfigurationError, match="family"):
        harness.ExperimentConfig.from_dict({"cohort": raw, "tasks": [
            {"name": "outcome", "family": "lr-multinomial"}]})


# Each loader with a minimal valid JSON object for it.
_LOADERS = [
    ("cohort", cohort.CohortConfig.from_dict, {"n": 100, "d": 3}),
    ("run config", harness.ExperimentConfig.from_dict,
     {"cohort": {"n": 100, "d": 3, "years": [2001, 2002]}}),
    ("training", lambda raw: config_from_dict(dp_optim.DPTrainingConfig,
                                              raw, "training"), {}),
    ("training", lambda raw: harness.level("high").training(**raw), {}),
    ("objpert", lambda raw: config_from_dict(
        objective_perturbation.ObjPertConfig, raw, "objpert"),
     {"eps_p": 1.0, "lam": 0.1}),
]


@pytest.mark.parametrize("where, load, base", _LOADERS, ids=[
    "cohort", "run-config", "training", "training-from-level", "objpert"])
@settings(max_examples=50, deadline=None)
@given(key=st.from_regex(r"[a-z_]{1,12}", fullmatch=True))
def test_loader_rejects_extra_key_by_name(where, load, base, key):
    assume(key not in {f.name for f in dataclasses.fields(load(dict(base)))})
    with pytest.raises(ConfigurationError) as err:
        load({**base, key: 1})
    assert str(err.value).startswith(f"{where}: ")
    assert repr(key) in str(err.value)


@pytest.mark.parametrize("name, value", [
    ("objpert_lambda", 0.02), ("influence_train_cap", 999),
    ("influence_test_cap", 299), ("influence_panel", 99)])
def test_config_hash_covers_field(tmp_path, name, value):
    base = _small_config(tmp_path)
    assert harness._config_hash(base) != harness._config_hash(
        dataclasses.replace(base, **{name: value}))
    assert harness._config_hash(base) == harness._config_hash(
        dataclasses.replace(base, out_dir=str(tmp_path / "elsewhere")))


# ---------------------------------------------------------- yearly protocol


def _per_year(config):
    """The per-year utility rows of the one cell of a one-level, one-seed
    grid."""
    report, _ = harness.run_experiment(config)
    cell, = report["cells"]
    return cell["utility"]["per_year"]


def test_two_year_cohort_single_pivot_row(tmp_path):
    config = _small_config(tmp_path)
    report, failures = harness.run_experiment(config)
    assert failures == 0
    utility = report["cells"][0]["utility"]
    rows = utility["per_year"]
    assert len(rows) == 1
    assert rows[0]["year"] == 2002
    assert utility["auroc_mean"] == rows[0]["auroc"]
    assert utility["auroc_std"] == 0.0


def test_single_year_cohort_rejected(tmp_path):
    # The yearly protocol has no pivot in a one-year cohort, so the config
    # is refused before any cell runs.
    config = _small_config(tmp_path)
    with pytest.raises(ConfigurationError, match=r"cohort\.years: the "
                       r"yearly protocol needs >= 2 years"):
        dataclasses.replace(config, cohort=dataclasses.replace(
            config.cohort, years=(2001, 2001)))


def test_stationarity_on_drift_free_cohort(tmp_path):
    # Without drift or shocks, the per-year AUROC of a non-private model
    # is flat: spread (max - min) <= 0.05 for each of 5 seeds.
    task = {"name": "outcome", "family": "lr-binary", "l2_lambda": 0.01}
    for seed in range(5):
        cc = cohort.CohortConfig(n=8000, d=10, positive_prevalence=0.3,
                                 years=(2001, 2005), class_separation=2.0,
                                 seed=seed)
        config = harness.ExperimentConfig(cohort=cc, tasks=[task],
                                          privacy_levels=["none"],
                                          seeds=[seed], epochs=5,
                                          learning_rate=0.5,
                                          out_dir=str(tmp_path))
        aurocs = [r["auroc"] for r in _per_year(config)]
        assert max(aurocs) - min(aurocs) <= 0.05, f"seed {seed}: {aurocs}"


def test_transition_shock_year_is_auroc_minimum(tmp_path):
    # A large one-off covariate shock in the final year makes that pivot
    # the AUROC minimum for a non-private nonlinear model in >= 4/5 seeds
    # (the shocked year never enters training under the cumulative
    # protocol, while every earlier pivot is in-distribution).
    task = {"name": "outcome", "family": "mlp-1", "l2_lambda": 0.0, "h": 8}
    hits = 0
    for seed in range(5):
        cc = cohort.CohortConfig(n=8000, d=10, positive_prevalence=0.3,
                                 years=(2001, 2005), transition_year=2005,
                                 transition_shift=5.0, class_separation=1.0,
                                 seed=seed)
        config = harness.ExperimentConfig(cohort=cc, tasks=[task],
                                          privacy_levels=["none"],
                                          seeds=[seed], epochs=20,
                                          learning_rate=0.5,
                                          out_dir=str(tmp_path))
        aurocs = {r["year"]: r["auroc"] for r in _per_year(config)}
        hits += min(aurocs, key=aurocs.get) == 2005
    assert hits >= 4, f"shock year was the minimum in only {hits}/5 seeds"


# ------------------------------------------------------------ experiments


@pytest.mark.parametrize("mechanism", ["dp-sgd", "objective-perturbation"])
def test_run_experiment_minimal_grid(tmp_path, mechanism):
    config = _small_config(tmp_path, mechanisms=[mechanism])
    report, failures = harness.run_experiment(config)
    assert failures == 0
    assert len(report["cells"]) == 1
    assert len(report["aggregates"]) == 1
    block = report["aggregates"][0]
    assert block["cell_text"].endswith("(inf, 0)")
    for name in ("report.json", "utility_by_year.csv", "malignancy.csv",
                 "fairness_by_year.csv"):
        assert os.path.exists(os.path.join(config.out_dir, name))


def test_run_experiment_grid_completeness(tmp_path):
    config = _small_config(tmp_path, privacy_levels=["none", "high"],
                           seeds=[0, 1])
    report, failures = harness.run_experiment(config)
    assert failures == 0
    assert len(report["cells"]) == 2 * 2
    assert len(report["aggregates"]) == 2


def test_cells_without_an_audit_say_why(tmp_path):
    config = _small_config(tmp_path, privacy_levels=["none", "high"],
                           mechanisms=["dp-sgd", "objective-perturbation"],
                           audits=["robustness"])
    report, failures = harness.run_experiment(config)
    assert failures == 0
    cells = {(c["level"], c["mechanism"]): c for c in report["cells"]}
    assert "robustness" in cells["none", "dp-sgd"]
    assert "skipped" not in cells["none", "dp-sgd"]
    assert cells["high", "dp-sgd"]["skipped"] == (
        "robustness audits only privacy_levels[0] (none)")
    for level in ("none", "high"):
        cell = cells[level, "objective-perturbation"]
        assert cell["skipped"] == "robustness audits only dp-sgd cells"
        assert "robustness" not in cell
    with open(os.path.join(config.out_dir, "report.json")) as fh:
        assert json.load(fh)["cells"] == report["cells"]


def test_run_experiment_partial_failure_recorded(tmp_path):
    # The shift test refuses negative years, so on such a cohort the one
    # cell that audits robustness fails.
    config = _small_config(
        tmp_path, privacy_levels=["none", "high"],
        audits=["utility", "robustness"],
        cohort=dataclasses.replace(_small_config(tmp_path).cohort,
                                   years=(-3, -1)))
    report, failures = harness.run_experiment(config)
    assert failures == 1
    failed = [c for c in report["cells"] if "error" in c]
    assert len(failed) == 1
    assert failed[0]["level"] == "none"
    # Healthy cells are unaffected.
    assert len(report["cells"]) == 2
    assert len(report["aggregates"]) == 1


def test_run_experiment_byte_identical_rerun(tmp_path):
    names = ("report.json", "utility_by_year.csv", "malignancy.csv",
             "fairness_by_year.csv")
    payloads = []
    for run in ("a", "b"):
        config = _small_config(tmp_path, privacy_levels=["none", "high"],
                               audits=["utility", "fairness"],
                               out_dir=str(tmp_path / run))
        harness.run_experiment(config)
        payloads.append({name: Path(config.out_dir, name).read_bytes()
                         for name in names})
    assert payloads[0] == payloads[1]


def test_epsilon_traceable_from_accounting_log(tmp_path):
    cc = cohort.CohortConfig(n=1280, d=4, positive_prevalence=0.3,
                             years=(2001, 2002), class_separation=2.0, seed=0)
    config = harness.ExperimentConfig(cohort=cc, privacy_levels=["high"],
                                      seeds=[0], epochs=2,
                                      out_dir=str(tmp_path))
    report, _ = harness.run_experiment(config)
    checked = 0
    for cell in report["cells"]:
        for row in cell["utility"]["per_year"]:
            log = row["accounting_log"]
            spend, _ = accountant.spend_for_training(
                q=log["q"], sigma=log["sigma"], steps=log["steps"],
                delta=log["delta"])
            assert abs(spend.epsilon - row["spend"]["epsilon"]) <= 1e-9
            checked += 1
    assert checked >= 1


def test_aggregate_blocks_match_per_seed_rows(tmp_path):
    config = _small_config(tmp_path, seeds=[0, 1, 2])
    report, _ = harness.run_experiment(config)
    per_seed = [c["utility"]["auroc_mean"] for c in report["cells"]]
    block = report["aggregates"][0]
    assert block["auroc_mean"] == float(np.mean(per_seed))
    assert block["auroc_std"] == float(np.std(per_seed))


def test_aggregate_epsilon_is_largest_over_pivots(tmp_path):
    # Each pivot trains on a different number of records, so its q = L/n
    # and its epsilon differ; the block shows the binding (largest) one,
    # which at the "low" level is not the first pivot's.
    cc = cohort.CohortConfig(n=1500, d=4, positive_prevalence=0.3,
                             years=(2001, 2003), class_separation=2.0, seed=0)
    config = harness.ExperimentConfig(cohort=cc, privacy_levels=["low"],
                                      seeds=[0], epochs=1,
                                      out_dir=str(tmp_path))
    report, failures = harness.run_experiment(config)
    assert failures == 0
    eps = [row["spend"]["epsilon"]
           for row in report["cells"][0]["utility"]["per_year"]]
    assert eps[0] < eps[1]
    assert report["aggregates"][0]["cell_text"].endswith(
        f"({max(eps):.2f}, 1e-05)")


def test_each_slot_trains_once_and_audits_read_it(tmp_path, monkeypatch):
    # Every model trained: one per DP-SGD config of a stack, one per
    # objective-perturbation call, where both seeds' `none` cells of a
    # pivot read one noiseless model.
    calls = []
    for module, name, models_of in (
            (dp_optim, "train_stack", lambda args: args[2]),
            (objective_perturbation, "train_objective_perturbation",
             lambda args: [args[1]])):
        def counted(*args, _fn=getattr(module, name), _of=models_of,
                    **kwargs):
            calls.extend(_of(args))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    cc = cohort.CohortConfig(n=900, d=4, positive_prevalence=0.3,
                             years=(2001, 2003), class_separation=2.0, seed=0)
    config = harness.ExperimentConfig(
        cohort=cc, privacy_levels=["none", "high"],
        mechanisms=["dp-sgd", "objective-perturbation"], seeds=[0, 1],
        audits=["utility", "robustness", "fairness", "influence"], epochs=1,
        influence_train_cap=200, influence_test_cap=50, influence_panel=10,
        out_dir=str(tmp_path))
    report, failures = harness.run_experiment(config)
    assert failures == 0
    pivots = 2
    assert len(calls) == 2 * 2 * pivots + (1 + 2) * pivots == 14
    influenced = [c for c in report["cells"] if "influence" in c]
    assert len(influenced) == 4
    for cell in influenced:
        assert cell["influence"]["spend"] == \
            cell["utility"]["per_year"][-1]["spend"]


def test_noiseless_objpert_solved_once_per_pivot(tmp_path, monkeypatch):
    # Three seeds' `none` objective-perturbation cells of a pivot read one
    # noiseless minimizer: one solve per pivot for `none`, one per
    # (seed, pivot) for `high`, and the three `none` cells report the same
    # utility.
    levels = []
    real = objective_perturbation.train_objective_perturbation

    def counted(train, op_config):
        levels.append("none" if math.isinf(op_config.eps_p) else "private")
        return real(train, op_config)
    monkeypatch.setattr(objective_perturbation,
                        "train_objective_perturbation", counted)
    cc = cohort.CohortConfig(n=900, d=4, positive_prevalence=0.3,
                             years=(2001, 2003), class_separation=2.0, seed=0)
    config = harness.ExperimentConfig(
        cohort=cc, privacy_levels=["none", "high"],
        mechanisms=["objective-perturbation"], seeds=[0, 1, 2],
        audits=["utility"], out_dir=str(tmp_path))
    report, failures = harness.run_experiment(config)
    assert failures == 0
    pivots = 2
    assert levels.count("none") == pivots
    assert levels.count("private") == 3 * pivots
    none_cells = [c for c in report["cells"] if c["level"] == "none"]
    assert len(none_cells) == 3
    assert all(c["utility"] == none_cells[0]["utility"] for c in none_cells)


def test_standard_grid_steps_once_per_largest_pivot_step(tmp_path,
                                                        monkeypatch):
    # The standard lr-binary grid (n = 6000 over 2001-2005, none/low/high x
    # dp-sgd/objective-perturbation x 2 seeds, every audit) trains its
    # DP-SGD models in one lockstep stack, every level together, spanning
    # all four pivots. The stack takes epochs x the largest pivot's steps
    # per epoch: 5 x 75 = 375 stacked steps, not the 750 of one stack per
    # privacy or the 2 x 5 x (18 + 36 + 55 + 75) = 1840 of one per
    # (privacy, pivot).
    steps = []
    real = dp_optim._step

    def counted(stack, *args):
        steps.append(len(stack.index))
        return real(stack, *args)
    monkeypatch.setattr(dp_optim, "_step", counted)
    cc = cohort.CohortConfig(
        n=6000, d=20, positive_prevalence=0.1, group_prevalences=(0.8, 0.2),
        group_label_association=0.3, years=(2001, 2005), yearly_drift=0.25,
        transition_year=2004, transition_shift=1.0, seed=5)
    config = harness.ExperimentConfig(
        cohort=cc, privacy_levels=["none", "low", "high"],
        mechanisms=["dp-sgd", "objective-perturbation"], seeds=[0, 1],
        audits=["utility", "robustness", "fairness", "influence"],
        out_dir=str(tmp_path))
    _, failures = harness.run_experiment(config)
    assert failures == 0
    base = cohort.generate_cohort(cc)
    per_epoch = [len(cohort.train_rows(base, pivot)) // config.batch_size
                 for pivot in cohort.pivot_years(base)]
    assert per_epoch == [18, 36, 55, 75]
    assert len(steps) == config.epochs * max(per_epoch) == 375
    assert 2 * config.epochs * sum(per_epoch) == 1840
    # Every (level, seed, pivot) model steps in its stack until it is done.
    assert sum(steps) == 3 * 2 * config.epochs * sum(per_epoch)


def test_stacked_failure_fails_only_its_cell(tmp_path, monkeypatch):
    # One model of a private stack, at the second pivot, starts from
    # non-finite parameters. Only its cell fails, with the error the
    # per-model trainer gives it, and it records nothing else; every other
    # cell equals its cell in a run without the fault.
    cc = cohort.CohortConfig(n=900, d=4, positive_prevalence=0.3,
                             years=(2001, 2003), class_separation=2.0, seed=0)
    config = harness.ExperimentConfig(
        cohort=cc, privacy_levels=["none", "low", "high"], seeds=[0, 1],
        audits=["utility", "robustness", "fairness"], epochs=1,
        out_dir=str(tmp_path / "clean"))
    clean, failures = harness.run_experiment(config)
    assert failures == 0

    target = harness.stable_seed(1, "outcome", "low", "dp-sgd", 2003)
    init = models.init_params

    def poisoned(*args, seed=0, **kwargs):
        params = init(*args, seed=seed, **kwargs)
        if seed == target:
            params.theta[:] = np.nan
        return params
    monkeypatch.setattr(models, "init_params", poisoned)
    split = cohort.split_yearly(cohort.generate_cohort(cc), 2003)
    with pytest.raises(TrainingError) as per_model:
        trainer_parent.train(
            harness._family_spec(config.tasks[0], "task"),
            split, oracle_config(harness.level("low").training(
                batch_size=config.batch_size,
                microbatch_count=config.microbatch_count,
                learning_rate=config.learning_rate, epochs=1, seed=target)))
    faulty, failures = harness.run_experiment(
        dataclasses.replace(config, out_dir=str(tmp_path / "faulty")))
    assert failures == 1
    for before, after in zip(clean["cells"], faulty["cells"]):
        if (after["level"], after["seed"]) == ("low", 1):
            assert after == {"task": "outcome", "level": "low",
                             "mechanism": "dp-sgd", "seed": 1,
                             "error": "TrainingError: "
                                      f"{per_model.value}"}
        else:
            assert after == before


def test_emptied_stack_fails_each_of_its_cells(tmp_path, monkeypatch):
    # Every model of the `none` stack at the second pivot starts from
    # non-finite parameters, so the stack empties at the first of several
    # steps. Each of its cells records the per-model trainer's error, and
    # every other cell equals its cell in a run without the fault.
    cc = cohort.CohortConfig(n=900, d=4, positive_prevalence=0.3,
                             years=(2001, 2003), class_separation=2.0, seed=0)
    config = harness.ExperimentConfig(
        cohort=cc, privacy_levels=["none", "high"], seeds=[0, 1],
        audits=["utility", "robustness", "fairness"], epochs=1,
        out_dir=str(tmp_path / "clean"))
    clean, failures = harness.run_experiment(config)
    assert failures == 0

    targets = {harness.stable_seed(seed, "outcome", "none", "dp-sgd", 2003): seed
               for seed in config.seeds}
    init = models.init_params

    def poisoned(*args, seed=0, **kwargs):
        params = init(*args, seed=seed, **kwargs)
        if seed in targets:
            params.theta[:] = np.nan
        return params
    monkeypatch.setattr(models, "init_params", poisoned)
    split = cohort.split_yearly(cohort.generate_cohort(cc), 2003)
    assert split.train.n // config.batch_size > 1
    expected = {}
    for target, seed in targets.items():
        with pytest.raises(TrainingError) as per_model:
            trainer_parent.train(
                harness._family_spec(config.tasks[0], "task"),
                split, oracle_config(harness.level("none").training(
                    batch_size=config.batch_size,
                    microbatch_count=config.microbatch_count,
                    learning_rate=config.learning_rate, epochs=1,
                    seed=target)))
        expected[seed] = f"TrainingError: {per_model.value}"
    faulty, failures = harness.run_experiment(
        dataclasses.replace(config, out_dir=str(tmp_path / "faulty")))
    assert failures == len(config.seeds)
    for before, after in zip(clean["cells"], faulty["cells"]):
        if after["level"] == "none":
            assert after == {"task": "outcome", "level": "none",
                             "mechanism": "dp-sgd", "seed": after["seed"],
                             "error": expected[after["seed"]]}
        else:
            assert after == before


@pytest.mark.parametrize("where", ["auprc", "influence"])
def test_audit_failure_fails_only_its_cell(tmp_path, monkeypatch, where):
    # An audit that raises fails only the cell it audits. The utility audit
    # of the second cell at the middle pivot, or the influence audit of the
    # second cell, raises: that cell records only the error, none of the
    # rows its earlier pivots gave, and every other cell equals its cell in
    # a run without the fault.
    cc = cohort.CohortConfig(n=900, d=4, positive_prevalence=0.3,
                             years=(2001, 2004), class_separation=2.0, seed=0)
    config = harness.ExperimentConfig(
        cohort=cc, privacy_levels=["none", "high"], seeds=[0, 1],
        audits=["utility", "robustness", "fairness", "influence"], epochs=1,
        influence_train_cap=200, influence_test_cap=50, influence_panel=10,
        out_dir=str(tmp_path / "clean"))
    clean, failures = harness.run_experiment(config)
    assert failures == 0

    # Audits run pivot by pivot, the cells in grid order within a pivot:
    # call 4 + 1 of auprc is the second cell's at the second of 3 pivots.
    module, name, fault = ((metrics, "auprc", 4 + 1) if where == "auprc"
                           else (influence.InfluenceEngine, "matrix", 1))
    calls = []
    real = getattr(module, name)

    def faulty_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == fault + 1:
            raise DomainError("injected audit fault")
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, faulty_call)
    faulty, failures = harness.run_experiment(
        dataclasses.replace(config, out_dir=str(tmp_path / "faulty")))
    assert failures == 1
    for before, after in zip(clean["cells"], faulty["cells"]):
        if (after["level"], after["seed"]) == ("none", 1):
            assert after == {"task": "outcome", "level": "none",
                             "mechanism": "dp-sgd", "seed": 1,
                             "error": "DomainError: injected audit fault"}
        else:
            assert after == before


def test_negative_years_fail_only_the_robustness_cell(tmp_path):
    # The shift test seeds its draws with the pivot year, so a negative
    # year fails the one cell that audits robustness; the other cell, and
    # a negative grid seed (hashed into every cell seed), run.
    config = _small_config(
        tmp_path, privacy_levels=["none", "high"], seeds=[-1],
        audits=["utility", "robustness"],
        cohort=dataclasses.replace(_small_config(tmp_path).cohort,
                                   years=(-3, -1)))
    report, failures = harness.run_experiment(config)
    assert failures == 1
    failed, kept = report["cells"]
    assert failed["level"] == "none"
    assert failed["error"].startswith("DomainError: seed and year must be")
    assert "utility" not in failed
    assert [r["year"] for r in kept["utility"]["per_year"]] == [-2, -1]


def test_influence_skips_non_lr_binary_tasks(tmp_path):
    # The influence engine holds only lr-binary models: an mlp-1 task's
    # cells keep their utility results and say nothing of influence, and a
    # grid left with no audit is refused.
    tasks = [{"name": "outcome"}, {"name": "mlp", "family": "mlp-1", "h": 4}]
    config = _small_config(tmp_path, tasks=tasks,
                           audits=["utility", "influence"],
                           influence_train_cap=100, influence_test_cap=20)
    report, failures = harness.run_experiment(config)
    assert failures == 0
    lr, mlp = report["cells"]
    assert set(lr) >= {"utility", "influence"}
    assert "utility" in mlp and "influence" not in mlp
    assert "skipped" not in mlp
    with pytest.raises(ConfigurationError,
                       match="influence audits only lr-binary tasks"):
        harness.run_experiment(dataclasses.replace(
            config, tasks=tasks[1:], audits=["influence"]))


def test_objective_perturbation_skips_non_lr_binary_tasks(tmp_path):
    # The mechanism solves ridge LR: an mlp-1 task's cells record that once
    # under `skipped` instead of a ridge-LR model's results, and a grid left
    # with no audit is refused.
    tasks = [{"name": "outcome"}, {"name": "mlp", "family": "mlp-1", "h": 4}]
    config = _small_config(tmp_path, tasks=tasks,
                           mechanisms=["objective-perturbation"],
                           audits=["utility", "fairness"])
    report, failures = harness.run_experiment(config)
    assert failures == 0
    lr, mlp = report["cells"]
    assert set(lr) >= {"utility", "fairness"}
    assert mlp == {"task": "mlp", "level": "none",
                   "mechanism": "objective-perturbation", "seed": 0,
                   "skipped": "objective-perturbation trains only lr-binary "
                              "tasks"}
    with pytest.raises(ConfigurationError,
                       match="objective-perturbation trains only lr-binary"):
        harness.run_experiment(dataclasses.replace(config, tasks=tasks[1:]))


def test_utility_csv_matches_report(tmp_path):
    config = _small_config(tmp_path)
    report, _ = harness.run_experiment(config)
    path = Path(config.out_dir, "utility_by_year.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "task,level,mechanism,seed,year,auroc,auprc"
    fields = lines[1].split(",")
    row = report["cells"][0]["utility"]["per_year"][0]
    assert fields[:5] == ["outcome", "none", "dp-sgd", "0", "2002"]
    assert float(fields[5]) == row["auroc"]


# ------------------------------------------------------------------- CLI


def _strict_json(text):
    """JSON as the standard defines it: no Infinity, -Infinity or NaN."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


def test_cli_account(tmp_path):
    out = tmp_path / "eps.json"
    code = cli.main(["account", "--q", "0.01", "--sigma", "1.0",
                     "--steps", "1000", "--out", str(out)])
    assert code == 0
    payload = _strict_json(out.read_text())
    spend, _ = accountant.spend_for_training(q=0.01, sigma=1.0, steps=1000)
    assert payload["epsilon"] == spend.epsilon
    assert payload["delta"] == spend.delta
    assert payload["caveats"]
    # sigma ** 2 is subnormal, so epsilon is infinite: written as "inf".
    code = cli.main(["account", "--q", "0.01", "--sigma", "1e-160",
                     "--steps", "100", "--out", str(out)])
    assert code == 0
    assert _strict_json(out.read_text())["epsilon"] == "inf"


@pytest.mark.parametrize("sigma", ["inf", "nan"])
def test_cli_account_non_finite_sigma_exit_code(tmp_path, capsys, sigma):
    code = cli.main(["account", "--q", "0.01", "--sigma", sigma,
                     "--steps", "1000", "--out", str(tmp_path / "eps.json")])
    assert code == 2
    assert "sigma must be finite" in capsys.readouterr().err
    assert not (tmp_path / "eps.json").exists()


@pytest.mark.parametrize("q, sigma, message", [
    ("0", "-1", "sigma must be >= 0"),
    ("0.5", "-1", "sigma must be >= 0"),
    ("0.5", "1e-300", "under- or overflows"),
    ("0.01", "1e200", "under- or overflows"),
])
def test_cli_account_sigma_out_of_domain_exit_code(tmp_path, capsys, q, sigma,
                                                   message):
    # A negative sigma at q = 0 printed an epsilon; 1e-300 (sigma ** 2 == 0)
    # grew the fractional-order series until memory ran out; 1e200
    # overflowed sigma ** 2 with a traceback.
    code = cli.main(["account", "--q", q, "--sigma", sigma, "--steps", "100",
                     "--out", str(tmp_path / "eps.json")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "eps.json").exists()


def _write_cohort_config(tmp_path, **kw):
    cc = cohort.CohortConfig(n=800, d=4, positive_prevalence=0.3,
                             years=(2001, 2002), class_separation=2.0,
                             seed=0, **kw)
    path = tmp_path / "cohort.json"
    path.write_text(cc.to_json())
    return cc, path


def test_cli_generate_data_round_trip(tmp_path):
    cc, config_path = _write_cohort_config(tmp_path)
    csv_path = tmp_path / "cohort.csv"
    code = cli.main(["generate-data", "--config", str(config_path),
                     "--out", str(csv_path)])
    assert code == 0
    loaded = cohort.read_cohort(str(csv_path))
    direct = cohort.generate_cohort(cc)
    np.testing.assert_allclose(loaded.features, direct.features, atol=1e-12)
    assert np.array_equal(loaded.labels, direct.labels)


def test_cli_parser_built_once_and_nothing_leaks(tmp_path, capsys):
    # One parser serves every main() call of a process; flags given to one
    # call (--seed, --out, --delta) do not reach the next, whatever its
    # subcommand.
    cli.build_parser.cache_clear()
    cc, config_path = _write_cohort_config(tmp_path)
    seeded, plain = tmp_path / "seeded.csv", tmp_path / "plain.csv"
    assert cli.main(["generate-data", "--config", str(config_path),
                     "--seed", "7", "--out", str(seeded)]) == 0
    assert cli.main(["generate-data", "--config", str(config_path),
                     "--out", str(plain)]) == 0
    assert cohort.read_cohort(str(plain)) == cohort.generate_cohort(cc)
    assert cohort.read_cohort(str(seeded)) == cohort.generate_cohort(
        dataclasses.replace(cc, seed=7))
    eps = tmp_path / "eps.json"
    assert cli.main(["account", "--q", "0.01", "--sigma", "1.0",
                     "--steps", "100", "--delta", "1e-6",
                     "--out", str(eps)]) == 0
    capsys.readouterr()
    assert cli.main(["account", "--q", "0.02", "--sigma", "1.0",
                     "--steps", "100"]) == 0
    printed = json.loads(capsys.readouterr().out)
    want, _ = accountant.spend_for_training(q=0.02, sigma=1.0, steps=100)
    assert printed["epsilon"] == want.epsilon
    assert printed["delta"] == accountant.DEFAULT_DELTA
    assert json.loads(eps.read_text())["delta"] == 1e-6
    assert cli.build_parser.cache_info().misses == 1


def test_cli_train_refuses_protocol_key(tmp_path, capsys):
    # The train/test protocol is always the cumulative split; a config that
    # still names `protocol` is refused, naming the key.
    _, config_path = _write_cohort_config(tmp_path)
    csv_path = tmp_path / "cohort.csv"
    assert cli.main(["generate-data", "--config", str(config_path),
                     "--out", str(csv_path)]) == 0
    train_config = tmp_path / "train.json"
    train_config.write_text(json.dumps({
        "cohort_csv": str(csv_path), "pivot_year": 2002,
        "protocol": "cumulative"}))
    out = tmp_path / "model.json"
    assert cli.main(["train", "--config", str(train_config),
                     "--out", str(out)]) == 2
    assert "unknown key(s): ['protocol']" in capsys.readouterr().err
    assert not out.exists()


def test_cli_train(tmp_path):
    _, config_path = _write_cohort_config(tmp_path)
    csv_path = tmp_path / "cohort.csv"
    cli.main(["generate-data", "--config", str(config_path),
              "--out", str(csv_path)])
    train_config = tmp_path / "train.json"
    train_config.write_text(json.dumps({
        "cohort_csv": str(csv_path), "pivot_year": 2002,
        "training": {"privacy_level": "high", "epochs": 1,
                     "learning_rate": 0.5},
        "family_spec": {"family": "lr-binary", "l2_lambda": 0.01},
    }))
    out = tmp_path / "model.json"
    code = cli.main(["train", "--config", str(train_config), "--seed", "7",
                     "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["mechanism"] == "dp-sgd"
    assert payload["spend"]["epsilon"] > 0
    assert payload["accounting_log"]["sigma"] == 1.0


@pytest.mark.parametrize("command, raw", [
    ("generate-data", None),
    ("train", {}),
    ("train", {"mechanism": "objective-perturbation",
               "objpert": {"eps_p": 1.0, "lam": 0.1}}),
], ids=["generate-data", "train-dp-sgd", "train-objective-perturbation"])
def test_cli_negative_seed_exit_code(tmp_path, capsys, command, raw):
    _, config_path = _write_cohort_config(tmp_path)
    if raw is not None:
        csv_path = tmp_path / "cohort.csv"
        assert cli.main(["generate-data", "--config", str(config_path),
                         "--out", str(csv_path)]) == 0
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps(
            {"cohort_csv": str(csv_path), "pivot_year": 2002, **raw}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main([command, "--config", str(config_path), "--seed", "-1",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == "configuration error: seed: must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("level", ["none", "high"])
@pytest.mark.parametrize("delta", [0.0, 1.0, 1.5])
def test_cli_train_delta_outside_unit_interval_exit_code(tmp_path, capsys,
                                                         level, delta):
    # A DP-SGD delta outside (0, 1) is refused when the config loads, before
    # any training, whether or not the level is private.
    _, config_path = _write_cohort_config(tmp_path)
    csv_path = tmp_path / "cohort.csv"
    assert cli.main(["generate-data", "--config", str(config_path),
                     "--out", str(csv_path)]) == 0
    train_config = tmp_path / "train.json"
    train_config.write_text(json.dumps({
        "cohort_csv": str(csv_path), "pivot_year": 2002,
        "training": {"privacy_level": level, "epochs": 1, "delta": delta}}))
    out = tmp_path / "model.json"
    capsys.readouterr()
    assert cli.main(["train", "--config", str(train_config),
                     "--out", str(out)]) == 2
    assert (capsys.readouterr().err
            == "configuration error: delta: must lie in (0,1)\n")
    assert not out.exists()


@pytest.mark.parametrize("mechanism, section, message", [
    ("dp-sgd", {"family_spec": {"l2_lambda": 1e300}},
     "error: training diverged (non-finite loss)"),
    ("objective-perturbation", {"objpert": {"eps_p": 1e-300, "lam": 0.01}},
     "error: eps_p: 1e-300 is too small, exp(eps_p / 4) - 1 rounds to 0"),
], ids=["dp-sgd-overflow", "objpert-tiny-eps"])
def test_cli_train_failure_is_one_line(tmp_path, capsys, mechanism, section,
                                       message):
    # A diverging DP-SGD model printed two numpy RuntimeWarnings before its
    # error (here, filterwarnings = ["error"] raises the first); objective
    # perturbation at eps_p = 1e-300 ended in a ZeroDivisionError traceback.
    _, config_path = _write_cohort_config(tmp_path)
    csv_path = tmp_path / "cohort.csv"
    assert cli.main(["generate-data", "--config", str(config_path),
                     "--out", str(csv_path)]) == 0
    train_config = tmp_path / "train.json"
    train_config.write_text(json.dumps({
        "cohort_csv": str(csv_path), "pivot_year": 2002,
        "mechanism": mechanism, **section}))
    out = tmp_path / "model.json"
    capsys.readouterr()
    assert cli.main(["train", "--config", str(train_config),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


def test_cli_train_refuses_optimizer_key(tmp_path, capsys):
    # SGD is the trainer's only update rule; a training section that still
    # names `optimizer` is refused, naming the key, before any training.
    _, config_path = _write_cohort_config(tmp_path)
    csv_path = tmp_path / "cohort.csv"
    assert cli.main(["generate-data", "--config", str(config_path),
                     "--out", str(csv_path)]) == 0
    train_config = tmp_path / "train.json"
    train_config.write_text(json.dumps({
        "cohort_csv": str(csv_path), "pivot_year": 2002,
        "training": {"privacy_level": "none", "epochs": 1,
                     "optimizer": "adam"}}))
    out = tmp_path / "model.json"
    capsys.readouterr()
    assert cli.main(["train", "--config", str(train_config),
                     "--out", str(out)]) == 2
    assert (capsys.readouterr().err == "configuration error: training: "
            "unknown key(s): ['optimizer']\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["account", "--q", "0.01", "--sigma", "1", "--steps", "100"],
    ["audit-fairness", "--config", "fairness.json"],
    ["audit-influence", "--config", "influence.json"],
], ids=["account", "audit-fairness", "audit-influence"])
def test_cli_unseeded_commands_refuse_seed(tmp_path, capsys, argv):
    # Only the commands that read --seed take it; the others refuse it as
    # an unknown argument, before reading any file.
    out = tmp_path / "out.json"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        cli.main([*argv, "--seed", "4", "--out", str(out)])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --seed 4" in capsys.readouterr().err
    assert not out.exists()


def test_cli_audit_shift_negative_years_exit_code(tmp_path, capsys):
    cc, config_path = _write_cohort_config(tmp_path)
    config_path.write_text(dataclasses.replace(cc, years=(-3, -1)).to_json())
    csv_path = tmp_path / "cohort.csv"
    assert cli.main(["generate-data", "--config", str(config_path),
                     "--out", str(csv_path)]) == 0
    audit_config = tmp_path / "shift.json"
    audit_config.write_text(json.dumps({"cohort_csv": str(csv_path)}))
    capsys.readouterr()
    assert cli.main(["audit-shift", "--config", str(audit_config),
                     "--out", str(tmp_path / "shift.json")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: seed and year must be >= 0")


def test_cli_run_and_rerun_exit_codes(tmp_path):
    cc, _ = _write_cohort_config(tmp_path)
    run_config = tmp_path / "run.json"
    run_config.write_text(json.dumps({
        "cohort": json.loads(cc.to_json()),
        "tasks": [{"name": "outcome", "family": "lr-binary",
                   "l2_lambda": 0.01}],
        "privacy_levels": ["none"], "seeds": [0], "epochs": 1,
        "out_dir": str(tmp_path / "runs"),
    }))
    assert cli.main(["run", "--config", str(run_config)]) == 0
    assert os.path.exists(tmp_path / "runs" / "report.json")


def test_cli_run_partial_failure_exit_code(tmp_path):
    # The robustness cell fails on negative years; the other cell runs.
    cc, _ = _write_cohort_config(tmp_path)
    cc = dataclasses.replace(cc, years=(-3, -1))
    run_config = tmp_path / "run.json"
    run_config.write_text(json.dumps({
        "cohort": json.loads(cc.to_json()),
        "privacy_levels": ["none", "high"], "seeds": [0], "epochs": 1,
        "audits": ["utility", "robustness"],
        "out_dir": str(tmp_path / "runs"),
    }))
    assert cli.main(["run", "--config", str(run_config)]) == 3


def test_cli_configuration_error_exit_code(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"cohort": {"n": 100, "d": 2}, "seeds": []}))
    assert cli.main(["run", "--config", str(bad)]) == 2
    # audit-shift refuses a one-year cohort, as the grid does.
    csv_path = tmp_path / "one_year.csv"
    cohort.write_cohort(make_cohort(n=200, d=3, years=(2001, 2001)),
                        str(csv_path))
    shift = tmp_path / "shift.json"
    shift.write_text(json.dumps({"cohort_csv": str(csv_path)}))
    capsys.readouterr()
    assert cli.main(["audit-shift", "--config", str(shift),
                     "--out", str(tmp_path / "shift_out.json")]) == 2
    assert "yearly protocol needs >= 2 years" in capsys.readouterr().err
    assert not (tmp_path / "shift_out.json").exists()


def test_cli_run_unknown_key_exit_code(tmp_path, capsys):
    cc, _ = _write_cohort_config(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"cohort": json.loads(cc.to_json()),
                               "bogus": 1}))
    assert cli.main(["run", "--config", str(bad)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_cli_run_malformed_json_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"cohort": {"n": 100,')
    args = cli.build_parser().parse_args(["run", "--config", str(bad)])
    with pytest.raises(ConfigurationError, match="malformed JSON"):
        cli.cmd_run(args)
    assert cli.main(["run", "--config", str(bad)]) == 2


NAN, INF = math.nan, math.inf
_SMALL_COHORT = {"n": 600, "d": 4, "positive_prevalence": 0.3,
                 "years": [2001, 2002]}
_TYPO_TASK = {"name": "o", "family": "lr-binary", "l2_lamda": 0.5}
_PARAMS = {"family": "lr-binary", "dims": {"d": 3, "h": 16},
           "l2_lambda": 0.0, "theta": [0.0] * 4}


# Keys every probe of a command starts from, "csv" standing for the cohort
# CSV; a probe value of None deletes the key. _NO_CSV names no file.
_NO_CSV = "no-such-dir/cohort.csv"
_PROBE_BASE = {
    "train": {"cohort_csv": "csv", "pivot_year": 2002},
    "audit-fairness": {"cohort_csv": "csv", "params": {}},
    "audit-shift": {"cohort_csv": "csv"},
    "audit-influence": {"train_csv": "csv", "test_csv": "csv", "params": {}},
}


# (command, config, key the error must name). "api" builds the run config
# in-process.
@pytest.mark.parametrize("command, raw, key", [
    ("train", {"training": {"privacy_level": "high", "bogus": 1}}, "bogus"),
    ("train", {"training": {"privacy_level": "high", "clip_norm": 2.0}},
     "clip_norm"),
    ("train", {"mechanism": "objective-perturbation",
               "objpert": {"eps_p": 1.0, "lam": 0.1, "bogus": 1}}, "bogus"),
    # c = 1/4 is the logistic loss's, not a setting.
    ("train", {"mechanism": "objective-perturbation",
               "objpert": {"eps_p": 1.0, "lam": 0.1,
                           "smoothness_constant": 1.0}},
     "objpert: unknown key(s): ['smoothness_constant']"),
    ("train", {"mechanism": "objective-perturbation"}, "eps_p"),
    ("train", {"mechanism": "objective-perturbation",
               "objpert": {"eps_p": 1.0, "lam": 0.1},
               "family_spec": {"family": "mlp-1", "h": 4},
               "training": {"privacy_level": "high"}}, "'training'"),
    ("train", {"mechanism": "objective-perturbation",
               "objpert": {"eps_p": 1.0, "lam": 0.1},
               "family_spec": {"family": "mlp-1", "h": 4}}, "'family_spec'"),
    ("train", {"objpert": {"eps_p": 1.0, "lam": 0.1}}, "'objpert'"),
    ("generate-data", {"d": 3}, "'n'"),
    ("run", {"cohort": {"d": 3}}, "'n'"),
    ("train", {"family_spec": {"l2_lamda": 0.5}}, "l2_lamda"),
    ("run", {"cohort": _SMALL_COHORT, "tasks": [_TYPO_TASK], "epochs": 1,
             "privacy_levels": ["none"], "seeds": [0]}, "l2_lamda"),
    ("api", {"cohort": _SMALL_COHORT, "tasks": [{"family": "lr-binary"}]},
     "name"),
    ("train", {"training": {"epochs": "5"}}, "'epochs'"),
    ("run", {"cohort": {**_SMALL_COHORT, "n": "600"}}, "'n'"),
    ("run", {"cohort": _SMALL_COHORT, "epochs": "2"}, "'epochs'"),
    ("run", {"cohort": _SMALL_COHORT, "privacy_levels": [["high"]]},
     "privacy_levels"),
    ("audit-fairness", {"params": []}, "params"),
    ("train", {"training": {"privacy_level": ["high"]}}, "privacy level"),
    ("train", {"family_spec": {"family": "mlp-1", "h": "16"}}, "'h'"),
    ("train", {"family_spec": {"l2_lambda": "0.1"}}, "'l2_lambda'"),
    ("run", {"cohort": _SMALL_COHORT, "epochs": 1, "privacy_levels": ["none"],
             "seeds": [0], "tasks": [{"name": "o", "l2_lambda": "0.1"}]},
     "'l2_lambda'"),
    ("train", {"seed": "x"}, "'seed'"),
    ("train", {"pivot_year": "2002"}, "'pivot_year'"),
    ("train", {"pivot_year": None}, "missing key(s): ['pivot_year']"),
    ("audit-shift", {"seed": "x"}, "'seed'"),
    ("audit-fairness", {"threshold": "0.5"}, "'threshold'"),
    ("audit-influence", {"damping": "0.1"}, "'damping'"),
    ("train", {"training": {"microbatch_count": 0}}, "microbatch_count"),
    ("audit-fairness", {"params": {**_PARAMS, "dims": {"d": "3", "h": 16}}},
     "params.dims: 'd'"),
    ("audit-fairness", {"params": {**_PARAMS, "l2_lambda": "x"}},
     "params: 'l2_lambda'"),
    ("audit-fairness", {"params": {**_PARAMS, "theta": "abcd"}},
     "params: 'theta'"),
    ("audit-influence", {"params": {**_PARAMS, "dims": {"d": 3, "h": True}}},
     "params.dims: 'h'"),
    ("audit-fairness", {"params": {**_PARAMS, "theta": [0.0, NAN, 0.0, 0.0]}},
     "params: 'theta'"),
    ("audit-fairness", {"params": {**_PARAMS, "l2_lambda": INF}},
     "params: 'l2_lambda'"),
    ("audit-fairness", {"threshold": NAN}, "'threshold'"),
    ("audit-influence", {"damping": -INF}, "'damping'"),
    ("train", {"training": {"noise_multiplier": INF, "clip_norm": 1.0}},
     "'noise_multiplier'"),
    ("train", {"mechanism": "objective-perturbation",
               "objpert": {"eps_p": NAN, "lam": 0.1}}, "'eps_p'"),
    ("generate-data", {**_SMALL_COHORT, "yearly_drift": NAN},
     "'yearly_drift'"),
    ("run", {"cohort": {**_SMALL_COHORT, "years": [2001, INF]}}, "'years'"),
    ("generate-data", {**_SMALL_COHORT, "positive_prevalence": [NAN, 0.7]},
     "'positive_prevalence'"),
    ("generate-data", {**_SMALL_COHORT, "positive_prevalence": ["a", 0.7]},
     "'positive_prevalence'"),
    ("generate-data", {**_SMALL_COHORT, "group_prevalences": [0.8, "x"]},
     "'group_prevalences'"),
    ("generate-data", {**_SMALL_COHORT, "years": ["2001", 2002]}, "'years'"),
    ("run", {"cohort": {**_SMALL_COHORT, "years": [2001]}}, "'years'"),
    ("run", {"cohort": _SMALL_COHORT, "epochs": 1, "privacy_levels": ["none"],
             "seeds": [0], "tasks": [{"name": "o", "family": "lr-binomial"}]},
     "family: unknown 'lr-binomial'"),
    ("train", {"family_spec": {"family": "lr-multinomial"}},
     "family: unknown 'lr-multinomial'"),
    ("generate-data", {**_SMALL_COHORT, "num_classes": 2},
     "cohort: unknown key(s): ['num_classes']"),
    ("run", {"cohort": {**_SMALL_COHORT, "num_classes": 2}},
     "cohort: unknown key(s): ['num_classes']"),
    ("run", {"cohort": _SMALL_COHORT, "epochs": 1, "privacy_levels": ["none"],
             "seeds": [0], "tasks": [{"name": "o", "k": 2}]},
     "tasks[0]: unknown key(s): ['k']"),
    ("audit-fairness", {"params": {**_PARAMS, "dims": {"d": 3, "k": 2,
                                                       "h": 16}}},
     "params.dims: unknown key(s): ['k']"),
    # Grid values that exited 0 with a wrong report ...
    ("run", {"cohort": _SMALL_COHORT, "influence_panel": -5},
     "influence_panel"),
    ("run", {"cohort": _SMALL_COHORT, "influence_train_cap": -1},
     "influence_train_cap"),
    ("run", {"cohort": _SMALL_COHORT, "tasks": [
        {"name": "outcome"}, {"name": "outcome", "family": "mlp-1"}]},
     "tasks: duplicate"),
    ("run", {"cohort": _SMALL_COHORT, "seeds": [3, 3]}, "seeds: duplicate"),
    ("run", {"cohort": _SMALL_COHORT, "privacy_levels": ["none", "none"]},
     "privacy_levels: duplicate"),
    ("run", {"cohort": _SMALL_COHORT, "mechanisms": ["dp-sgd", "dp-sgd"]},
     "mechanisms: duplicate"),
    # ... and grid values that failed every cell (exit 3).
    ("run", {"cohort": _SMALL_COHORT, "epochs": -1}, "epochs"),
    ("run", {"cohort": _SMALL_COHORT, "learning_rate": 0}, "learning_rate"),
    ("run", {"cohort": _SMALL_COHORT, "microbatch_count": 7},
     "microbatch_count"),
    ("run", {"cohort": _SMALL_COHORT, "objpert_lambda": 0}, "objpert_lambda"),
    ("run", {"cohort": _SMALL_COHORT, "influence_train_cap": 0},
     "influence_train_cap"),
    ("run", {"cohort": _SMALL_COHORT, "influence_test_cap": 0},
     "influence_test_cap"),
    ("run", {"cohort": _SMALL_COHORT, "influence_panel": 0}, "influence_panel"),
    ("run", {"cohort": {**_SMALL_COHORT, "years": [2001, 2001]}},
     "cohort.years"),
    ("run", {"cohort": _SMALL_COHORT, "epochs": 1, "seeds": [0],
             "tasks": [{"name": "o", "l2_lambda": -0.1}]}, "l2_lambda"),
    # Unknown levels failed only their own cells (exit 3).
    ("run", {"cohort": _SMALL_COHORT, "epochs": 1, "seeds": [0],
             "privacy_levels": ["none", "medium"]}, "privacy_levels"),
    ("run", {"cohort": _SMALL_COHORT, "epochs": 1, "seeds": [0],
             "privacy_levels": ["none", "medium"],
             "mechanisms": ["objective-perturbation"]}, "privacy_levels"),
    # Configs that exited 0 having trained nothing, audited nothing or
    # dropped the noise they asked for.
    ("run", {"cohort": _SMALL_COHORT, "mechanisms": []}, "mechanisms"),
    ("run", {"cohort": _SMALL_COHORT, "audits": []}, "audits"),
    ("run", {"cohort": _SMALL_COHORT, "audits": ["robustness"],
             "mechanisms": ["objective-perturbation"]}, "audits"),
    ("train", {"training": {"noise_multiplier": 1.0}}, "noise_multiplier"),
    # A section's seed was overwritten by the top-level seed or --seed.
    ("train", {"training": {"privacy_level": "high", "seed": 5}},
     "training.seed: not read; set the top-level 'seed' or --seed"),
    ("train", {"mechanism": "objective-perturbation",
               "objpert": {"eps_p": 1.0, "lam": 0.1, "seed": 5}},
     "objpert.seed: not read; set the top-level 'seed' or --seed"),
    # A bad config was reported only after its cohort CSV was read: with a
    # missing CSV, as a missing file.
    ("train", {"cohort_csv": _NO_CSV, "training": {"privacy_level": "medium"}},
     "training.privacy_level: unknown privacy level 'medium'"),
    ("train", {"cohort_csv": _NO_CSV, "mechanism": "dp-sdg"},
     "mechanism: unknown 'dp-sdg'"),
    ("train", {"cohort_csv": _NO_CSV, "training": {"batch_size": 0}},
     "batch_size: must be >= 1"),
    ("train", {"cohort_csv": _NO_CSV, "family_spec": {"family": "mlp-2"}},
     "family: unknown 'mlp-2'"),
], ids=["training-unknown-key", "level-and-clip-norm", "objpert-unknown-key",
        "objpert-smoothness-constant", "objpert-missing", "objpert-unread-training",
        "objpert-unread-family-spec", "dp-sgd-unread-objpert",
        "generate-data-missing-n", "run-cohort-missing-n",
        "family-spec-typo", "run-task-typo", "task-without-name",
        "training-epochs-string", "run-cohort-n-string", "run-epochs-string",
        "run-level-not-string", "audit-params-not-object",
        "train-level-not-string", "family-spec-h-string",
        "family-spec-l2-lambda-string", "run-task-l2-lambda-string",
        "train-seed-string", "train-pivot-year-string",
        "train-pivot-year-missing", "audit-shift-seed-string",
        "audit-fairness-threshold-string", "audit-influence-damping-string",
        "training-zero-microbatches", "params-d-string",
        "params-l2-lambda-string", "params-theta-string", "params-h-bool",
        "params-theta-nan", "params-l2-lambda-inf", "threshold-nan",
        "damping-minus-inf", "noise-multiplier-inf", "objpert-eps-nan",
        "cohort-drift-nan", "cohort-years-inf",
        "cohort-prevalence-tuple-nan", "cohort-prevalence-tuple-string",
        "cohort-group-prevalences-string", "cohort-years-string",
        "run-cohort-years-single", "run-task-unknown-family",
        "family-spec-multinomial", "cohort-num-classes",
        "run-cohort-num-classes", "run-task-k", "params-dims-k",
        "run-panel-negative", "run-train-cap-negative",
        "run-task-names-repeated", "run-seeds-repeated",
        "run-levels-repeated", "run-mechanisms-repeated",
        "run-epochs-negative", "run-learning-rate-zero",
        "run-microbatches-not-dividing", "run-objpert-lambda-zero",
        "run-train-cap-zero", "run-test-cap-zero", "run-panel-zero",
        "run-cohort-one-year",
        "run-task-l2-lambda-negative", "run-level-unknown",
        "run-objpert-level-unknown",
        "run-mechanisms-empty", "run-audits-empty", "run-no-cell-audited",
        "train-noise-without-clip-norm", "training-seed", "objpert-seed",
        "missing-csv-level-unknown", "missing-csv-mechanism-unknown",
        "missing-csv-batch-size-zero", "missing-csv-family-unknown"])
def test_config_probe_fails_with_key_named(tmp_path, capsys, command, raw,
                                           key):
    if command == "api":
        with pytest.raises(ConfigurationError, match=key):
            harness.ExperimentConfig.from_dict(raw)
        return
    if command in _PROBE_BASE:
        _, cohort_config = _write_cohort_config(tmp_path)
        csv_path = tmp_path / "cohort.csv"
        cli.main(["generate-data", "--config", str(cohort_config),
                  "--out", str(csv_path)])
        base = {k: str(csv_path) if v == "csv" else v
                for k, v in _PROBE_BASE[command].items()}
        raw = {k: v for k, v in {**base, **raw}.items() if v is not None}
    config = tmp_path / "probe.json"
    config.write_text(json.dumps(raw))
    capsys.readouterr()
    code = cli.main([command, "--config", str(config),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ") and key in err


def _old_tables(report, shift_per_year):
    """The report tables as the per-table f-string formulas wrote them."""
    utility = ["task,level,mechanism,seed,year,auroc,auprc\n"]
    malignancy = ["task,seed,year,malignancy_accuracy,p_value\n"]
    fairness = ["task,level,mechanism,seed,year,auroc_gap,parity_gap,"
                "recall_gap,specificity_gap\n"]
    for cell in report["cells"]:
        for row in cell.get("utility", {}).get("per_year", []):
            utility.append(f"{cell['task']},{cell['level']},"
                           f"{cell['mechanism']},{cell['seed']},{row['year']},"
                           f"{row['auroc']!r},{row['auprc']!r}\n")
        for row in cell.get("robustness", {}).get("per_year", []):
            mal = row["malignancy_accuracy"]
            malignancy.append(f"{cell['task']},{cell['seed']},{row['year']},"
                              f"{'' if mal is None else repr(mal)},"
                              f"{row['p_value']!r}\n")
        for row in cell.get("fairness", []):
            if "error" in row:
                continue
            vals = [row[k] for k in ("auroc_gap", "parity_gap",
                                     "recall_gap", "specificity_gap")]
            text = ",".join("" if v is None else repr(v) for v in vals)
            fairness.append(f"{cell['task']},{cell['level']},"
                            f"{cell['mechanism']},{cell['seed']},"
                            f"{row['year']},{text}\n")
    shift = ["year,malignancy_accuracy,p_value\n"]
    for r in shift_per_year:
        mal = r["malignancy_accuracy"]
        shift.append(f"{r['year']},{'' if mal is None else repr(mal)},"
                     f"{r['p_value']!r}\n")
    return {"utility_by_year.csv": "".join(utility),
            "malignancy.csv": "".join(malignancy),
            "fairness_by_year.csv": "".join(fairness),
            "shift.csv": "".join(shift)}


def test_tables_keep_the_old_formula_bytes(tmp_path):
    # One table writer gives each table the bytes of its old formula, with
    # a None malignancy, None gaps, a failed fairness row and floats whose
    # repr differs from str (np.float64, -0.0, 1e-300).
    per_year = [{"year": 2002, "malignancy_accuracy": None,
                 "p_value": 0.16312268613743},
                {"year": 2003, "malignancy_accuracy": 0.92,
                 "p_value": np.float64(6.1e-05)}]
    report = {"cells": [
        {"task": "outcome", "level": "none", "mechanism": "dp-sgd",
         "seed": 7,
         "utility": {"per_year": [
             {"year": 2002, "auroc": 0.9123, "auprc": np.float64(0.5)},
             {"year": 2003, "auroc": -0.0, "auprc": 1e-300}]},
         "robustness": {"per_year": per_year},
         "fairness": [{"year": 2002, "error": "no group 1"},
                      {"year": 2003, "auroc_gap": None, "parity_gap": 0.25,
                       "recall_gap": None, "specificity_gap": -0.125}]},
        {"task": "t2", "level": "high", "mechanism": "objective-perturbation",
         "seed": 0, "error": "DomainError: empty"}]}
    config = harness.ExperimentConfig(
        cohort=cohort.CohortConfig(n=600, d=4, years=(2001, 2002)),
        out_dir=str(tmp_path))
    harness._write_reports(config, report)
    harness.write_table(str(tmp_path / "shift.csv"),
                        harness.MALIGNANCY_COLUMNS,
                        ([r[k] for k in harness.MALIGNANCY_COLUMNS]
                         for r in per_year))
    for name, text in _old_tables(report, per_year).items():
        assert (tmp_path / name).read_text() == text, name


@pytest.mark.parametrize("mechanism, section", [
    ("dp-sgd", "training"), ("dp-sgd", "family_spec"), ("dp-sgd", "objpert"),
    ("objective-perturbation", "objpert"),
    ("objective-perturbation", "training"),
])
def test_cli_train_refuses_null_section(tmp_path, capsys, mechanism,
                                        section):
    # A section given as JSON null is refused (exit 2, the key named), not
    # read as absent; the probes above delete a key whose value is None.
    _, cohort_config = _write_cohort_config(tmp_path)
    csv_path = tmp_path / "cohort.csv"
    cli.main(["generate-data", "--config", str(cohort_config),
              "--out", str(csv_path)])
    raw = {"cohort_csv": str(csv_path), "pivot_year": 2002,
           "mechanism": mechanism, section: None}
    if mechanism == "objective-perturbation" and section != "objpert":
        raw["objpert"] = {"eps_p": 1.0, "lam": 0.1}
    config = tmp_path / "probe.json"
    config.write_text(json.dumps(raw))
    capsys.readouterr()
    code = cli.main(["train", "--config", str(config),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ") and repr(section) in err


def test_cli_audit_fairness(tmp_path):
    _, config_path = _write_cohort_config(tmp_path, group_prevalences=(0.5, 0.5))
    csv_path = tmp_path / "cohort.csv"
    cli.main(["generate-data", "--config", str(config_path),
              "--out", str(csv_path)])
    base = cohort.read_cohort(str(csv_path))
    params = models.fit_lr_newton(base.features, base.labels, l2_lambda=0.01)
    audit_config = tmp_path / "fairness.json"
    audit_config.write_text(json.dumps({
        "cohort_csv": str(csv_path),
        "params": params.to_dict(),
    }))
    out = tmp_path / "fairness_report.json"
    code = cli.main(["audit-fairness", "--config", str(audit_config),
                     "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert "parity_gap" in payload
    assert "per_group_confusion" in payload


def test_cli_audit_fairness_same_group_exit_code(tmp_path, capsys):
    _, config_path = _write_cohort_config(tmp_path)
    csv_path = tmp_path / "cohort.csv"
    assert cli.main(["generate-data", "--config", str(config_path),
                     "--out", str(csv_path)]) == 0
    base = cohort.read_cohort(str(csv_path))
    params = models.fit_lr_newton(base.features, base.labels, l2_lambda=0.01)
    audit_config = tmp_path / "fairness.json"
    audit_config.write_text(json.dumps({
        "cohort_csv": str(csv_path), "params": params.to_dict(),
        "group_1": 1, "group_2": 1}))
    out = tmp_path / "fairness_report.json"
    capsys.readouterr()
    assert cli.main(["audit-fairness", "--config", str(audit_config),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: group 1 compared with itself\n"
    assert not out.exists()


def test_cli_audit_shift(tmp_path):
    _, config_path = _write_cohort_config(tmp_path)
    csv_path = tmp_path / "cohort.csv"
    cli.main(["generate-data", "--config", str(config_path),
              "--out", str(csv_path)])
    audit_config = tmp_path / "shift.json"
    audit_config.write_text(json.dumps({"cohort_csv": str(csv_path)}))
    out = tmp_path / "shift_report.json"
    csv_out = tmp_path / "shift.csv"
    code = cli.main(["audit-shift", "--config", str(audit_config),
                     "--out", str(out), "--csv", str(csv_out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["per_year"][0]["year"] == 2002
    assert csv_out.read_text().startswith("year,malignancy_accuracy,p_value")


def test_cli_audit_shift_int64_overflow_cell_exit_code(tmp_path, capsys):
    _, config_path = _write_cohort_config(tmp_path)
    csv_path = tmp_path / "cohort.csv"
    cli.main(["generate-data", "--config", str(config_path),
              "--out", str(csv_path)])
    lines = csv_path.read_text().split("\n")
    lines[3] = "99999999999999999999," + lines[3].split(",", 1)[1]
    csv_path.write_text("\n".join(lines))
    audit_config = tmp_path / "shift.json"
    audit_config.write_text(json.dumps({"cohort_csv": str(csv_path)}))
    capsys.readouterr()
    code = cli.main(["audit-shift", "--config", str(audit_config),
                     "--out", str(tmp_path / "shift_report.json")])
    assert code == 2
    assert "outside int64 (row 3, column 0)" in capsys.readouterr().err


def test_cli_generate_data_out_directory_exit_code(tmp_path, capsys):
    _, config_path = _write_cohort_config(tmp_path)
    capsys.readouterr()
    assert cli.main(["generate-data", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(tmp_path) in err


def test_cli_audit_shift_cohort_csv_directory_exit_code(tmp_path, capsys):
    audit_config = tmp_path / "shift.json"
    audit_config.write_text(json.dumps({"cohort_csv": str(tmp_path)}))
    capsys.readouterr()
    assert cli.main(["audit-shift", "--config", str(audit_config),
                     "--out", str(tmp_path / "shift_report.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(tmp_path) in err
    assert not (tmp_path / "shift_report.json").exists()


def test_cli_audit_shift_non_utf8_cohort_exit_code(tmp_path, capsys):
    _, config_path = _write_cohort_config(tmp_path)
    csv_path = tmp_path / "cohort.csv"
    cli.main(["generate-data", "--config", str(config_path),
              "--out", str(csv_path)])
    lines = csv_path.read_bytes().split(b"\n")
    lines[2] = lines[2][:5] + b"\xff" + lines[2][5:]
    csv_path.write_bytes(b"\n".join(lines))
    with pytest.raises(UnicodeDecodeError):
        cohort.read_cohort(csv_path)
    audit_config = tmp_path / "shift.json"
    audit_config.write_text(json.dumps({"cohort_csv": str(csv_path)}))
    capsys.readouterr()
    assert cli.main(["audit-shift", "--config", str(audit_config),
                     "--out", str(tmp_path / "shift_report.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {csv_path}: not UTF-8 (byte 0xff: invalid start byte)\n")


def test_cli_audit_influence(tmp_path):
    base = make_cohort(n=200, d=4, prevalence=0.4, seed=3)
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    cohort.write_cohort(base.subset(slice(0, 150)), str(train_csv))
    cohort.write_cohort(base.subset(slice(150, 200)), str(test_csv))
    params = models.fit_lr_newton(base.features[:150], base.labels[:150],
                                  l2_lambda=0.1)
    audit_config = tmp_path / "influence.json"
    audit_config.write_text(json.dumps({
        "train_csv": str(train_csv), "test_csv": str(test_csv),
        "params": params.to_dict(),
    }))
    out = tmp_path / "influence_report.json"
    csv_out = tmp_path / "influence.csv"
    code = cli.main(["audit-influence", "--config", str(audit_config),
                     "--out", str(out), "--csv", str(csv_out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["by_label"]["most_helpful_group"] in (0, 1)
    lines = csv_out.read_text().splitlines()
    assert len(lines) == 151  # header + one row per training record
    assert len(lines[0].split(",")) == 51
    # Every cell is a plain number equal to the engine's matrix entry.
    train, test = cohort.read_cohort(train_csv), cohort.read_cohort(test_csv)
    matrix = influence.InfluenceEngine(params, train).matrix(train, test)
    rows = [line.split(",") for line in lines]
    assert rows[0] == ["train_id"] + [str(t) for t in matrix.test_ids]
    assert [int(r[0]) for r in rows[1:]] == matrix.train_ids.tolist()
    assert ([[float(c) for c in r[1:]] for r in rows[1:]]
            == matrix.values.tolist())


def test_cli_audit_influence_refuses_feature_width(tmp_path, capsys):
    # Params for d = 3 on a 2-feature CSV: the Hessian read the features
    # first and ended in numpy's matmul ValueError with a traceback.
    csv_path = tmp_path / "cohort.csv"
    cohort.write_cohort(make_cohort(n=40, d=2, seed=1), str(csv_path))
    params = models.ModelParams("lr-binary", np.zeros(4), d=3, h=1,
                                l2_lambda=0.1).to_dict()
    audit_config = tmp_path / "audit.json"
    audit_config.write_text(json.dumps(
        {"train_csv": str(csv_path), "test_csv": str(csv_path),
         "params": params}))
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert cli.main(["audit-influence", "--config", str(audit_config),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: feature width 2 != d=3\n"
    assert not out.exists()


@pytest.mark.parametrize("command, scale, theta, message", [
    ("audit-influence", 1.0, [1e308] * 4 + [-1e308],
     "error: Hessian has 25 non-finite entries of 25"),
    ("audit-fairness", 1.0, [1e308] * 4 + [-1e308],
     "error: 3 of 200 scores are not finite"),
    ("audit-influence", 1e150, [1e-100, 0.0, 0.0, 0.0, 0.5],
     "error: influence variance has 76 non-finite entries of 200"),
    ("audit-influence", 1e200, [1e-160] * 4 + [0.0],
     "error: influence matrix has 8370 non-finite entries of 40000"),
], ids=["audit-influence", "audit-fairness", "audit-influence-summary",
        "audit-influence-matrix"])
def test_cli_audit_overflowing_params_exit_code(tmp_path, capsys, command,
                                                scale, theta, message):
    # Finite parameters whose log-odds overflow: the influence audit's
    # Cholesky factorization raised scipy's ValueError with a traceback, and
    # the fairness audit wrote NaN gaps and AUROCs with exit 0. Features
    # scaled so that a finite Hessian gives overflowing influence: the
    # influence audit wrote Infinity for every group std, or inf cells to
    # its CSV, with exit 0.
    base = cohort.generate_cohort(cohort.CohortConfig(n=400, d=4, seed=1))
    base = dataclasses.replace(base, features=base.features * scale)
    train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
    cohort.write_cohort(base.subset(slice(0, 200)), str(train_csv))
    cohort.write_cohort(base.subset(slice(200, 400)), str(test_csv))
    params = models.ModelParams("lr-binary", np.array(theta), d=4, h=1,
                                l2_lambda=0.0).to_dict()
    audit_config = tmp_path / "audit.json"
    audit_config.write_text(json.dumps(
        {"train_csv": str(train_csv), "test_csv": str(test_csv),
         "params": params} if command == "audit-influence"
        else {"cohort_csv": str(train_csv), "params": params}))
    out, csv_out = tmp_path / "report.json", tmp_path / "influence.csv"
    capsys.readouterr()
    assert cli.main([command, "--config", str(audit_config),
                     "--out", str(out)]
                    + (["--csv", str(csv_out)]
                       if command == "audit-influence" else [])) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists() and not csv_out.exists()


@pytest.mark.parametrize("command", ["audit-fairness", "audit-influence"])
def test_cli_audits_refuse_params_without_units(tmp_path, capsys, command):
    # A saved mlp-1 model with h = 0 scores every record with one constant:
    # audit-fairness exited 0 with AUROC 0.5 in both groups and every gap
    # 0. Saved params pass FamilySpec's rules, as a train config does.
    csv_path = tmp_path / "cohort.csv"
    cohort.write_cohort(make_cohort(n=40, d=2, seed=1), str(csv_path))
    params = {"family": "mlp-1", "dims": {"d": 2, "h": 0},
              "l2_lambda": 0.0, "theta": [0.0, 0.0]}
    audit_config = tmp_path / "audit.json"
    audit_config.write_text(json.dumps(
        {"train_csv": str(csv_path), "test_csv": str(csv_path),
         "params": params} if command == "audit-influence"
        else {"cohort_csv": str(csv_path), "params": params}))
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert cli.main([command, "--config", str(audit_config),
                     "--out", str(out)]) == 2
    assert (capsys.readouterr().err
            == "configuration error: h: need h >= 1 units\n")
    assert not out.exists()


def test_unknown_family_is_one_class_and_message(tmp_path, capsys):
    # A train config's family_spec and a saved model's params named an
    # unknown family with two classes and two messages.
    csv_path = tmp_path / "cohort.csv"
    cohort.write_cohort(make_cohort(n=40, d=2, seed=1), str(csv_path))
    params = models.ModelParams("lr-binary", np.zeros(3), d=2).to_dict()
    configs = {
        "train": {"cohort_csv": str(csv_path), "pivot_year": 2002,
                  "family_spec": {"family": "lr-binomial"}},
        "audit-fairness": {"cohort_csv": str(csv_path),
                           "params": {**params, "family": "lr-binomial"}}}
    expected = ("family: unknown 'lr-binomial', must be one of "
                "('lr-binary', 'mlp-1')")
    for command, raw in configs.items():
        config, out = tmp_path / "config.json", tmp_path / "out.json"
        config.write_text(json.dumps(raw))
        capsys.readouterr()
        assert cli.main([command, "--config", str(config),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"configuration error: "
                                           f"{expected}\n")
        assert not out.exists()
    for build in (lambda: models.param_count("lr-binomial", 2),
                  lambda: models.ModelParams("lr-binomial", np.zeros(3), 2)):
        with pytest.raises(ConfigurationError) as err:
            build()
        assert str(err.value) == expected


@pytest.mark.parametrize("cls", errors.DPTailsError.__subclasses__(),
                         ids=lambda cls: cls.__name__)
def test_error_class_contract(tmp_path, capsys, monkeypatch, cls):
    # Each failure has one class: README's error table names every class,
    # and the CLI prints each with its prefix and exits 2.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert f"| `{cls.__name__}` |" in readme

    def fail(**_):
        raise cls("x")

    monkeypatch.setattr(accountant, "spend_for_training", fail)
    out = tmp_path / "eps.json"
    capsys.readouterr()
    assert cli.main(["account", "--q", "0.01", "--sigma", "1.0",
                     "--steps", "10", "--out", str(out)]) == 2
    prefix = ("configuration error" if cls is ConfigurationError
              else "error")
    assert capsys.readouterr().err == f"{prefix}: x\n"
    assert not out.exists()


def test_cli_commands_load_scipy_on_first_use(tmp_path):
    # A fresh interpreter: this one already holds scipy. Importing the CLI,
    # generate-data, audit-fairness and audit-influence load no scipy
    # submodule; account loads scipy.special alone and writes the
    # in-process epsilon's bits. No command loads scipy.linalg.
    _, cohort_config = _write_cohort_config(tmp_path)
    csv_path = tmp_path / "cohort.csv"
    base = cohort.generate_cohort(cohort.CohortConfig.from_dict(
        json.loads(cohort_config.read_text())))
    params = models.fit_lr_newton(base.features, base.labels, l2_lambda=0.01)
    fairness_config = tmp_path / "fairness.json"
    fairness_config.write_text(json.dumps(
        {"cohort_csv": str(csv_path), "params": params.to_dict()}))
    influence_config = tmp_path / "influence.json"
    influence_config.write_text(json.dumps(
        {"train_csv": str(csv_path), "test_csv": str(csv_path),
         "params": params.to_dict()}))
    eps_path = tmp_path / "eps.json"
    commands = [
        ["generate-data", "--config", str(cohort_config), "--out",
         str(csv_path)],
        ["audit-fairness", "--config", str(fairness_config), "--out",
         str(tmp_path / "fairness_report.json")],
        ["audit-influence", "--config", str(influence_config), "--out",
         str(tmp_path / "influence_report.json")],
        ["account", "--q", "0.01", "--sigma", "1.1", "--steps", "700",
         "--out", str(eps_path)],
    ]
    code = ("import json, sys\n"
            "from dp_tails import cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith(\n"
            "        ('scipy.special', 'scipy.linalg', 'scipy.stats')))\n"
            "seen = {'import': loaded()}\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    seen[argv[0]] = loaded()\n"
            "print(json.dumps(seen))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": src}, check=True,
        capture_output=True, text=True).stdout
    seen = json.loads(out)
    assert seen["import"] == seen["generate-data"] == \
        seen["audit-fairness"] == seen["audit-influence"] == []
    assert "scipy.special" in seen["account"]
    assert not [m for m in seen["account"]
                if m.startswith(("scipy.linalg", "scipy.stats"))]
    assert not [m for loaded in seen.values() for m in loaded
                if m.startswith("scipy.linalg")]
    spend, _ = accountant.spend_for_training(q=0.01, sigma=1.1, steps=700)
    assert float.hex(json.loads(eps_path.read_text())["epsilon"]) == \
        float.hex(spend.epsilon)


def test_cli_audits_match_grid(tmp_path):
    # The CLI audits report what the grid reports for the same model and
    # split: influence and fairness on the last pivot's model, and the shift
    # test (whose task model is, in the CLI, a ridge-LR reference) on the
    # same cohort and seed.
    cc = cohort.CohortConfig(n=1200, d=4, positive_prevalence=0.3,
                             years=(2001, 2004), yearly_drift=0.5,
                             class_separation=2.0, seed=2)
    seed = 3
    config = harness.ExperimentConfig(
        cohort=cc, privacy_levels=["high"], seeds=[seed], epochs=1,
        audits=["robustness", "fairness", "influence"],
        out_dir=str(tmp_path / "grid"))
    _, failures = harness.run_experiment(config)
    assert failures == 0
    with open(tmp_path / "grid" / "report.json") as fh:
        cell = json.load(fh)["cells"][0]
    base = cohort.generate_cohort(cc)
    pivot = cohort.pivot_years(base)[-1]
    split = cohort.split_yearly(base, pivot)
    (trained,), = harness._train_models(
        base, config.tasks[0], "dp-sgd", [("high", seed)], [pivot], config)
    params = trained.params.to_dict()

    def run(command, name, payload, *args):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / f"{name}_out.json"
        assert cli.main([command, "--config", str(path), *args,
                         "--out", str(out)]) == 0
        return json.loads(out.read_text())

    paths = {}
    for name, part in (
            ("cohort", base), ("test", split.test),
            ("train_cap", split.train.subset(
                slice(0, config.influence_train_cap))),
            ("test_cap", split.test.subset(
                slice(0, config.influence_test_cap)))):
        paths[name] = str(tmp_path / f"{name}.csv")
        cohort.write_cohort(part, paths[name])

    got = run("audit-influence", "influence", {
        "train_csv": paths["train_cap"], "test_csv": paths["test_cap"],
        "params": params})
    assert got == {k: v for k, v in cell["influence"].items() if k != "spend"}

    got = run("audit-fairness", "fairness", {"cohort_csv": paths["test"],
                                             "params": params})
    row, = [r for r in cell["fairness"] if r["year"] == pivot]
    assert got == {k: v for k, v in row.items() if k != "year"}

    got = run("audit-shift", "shift", {"cohort_csv": paths["cohort"]},
              "--seed", str(seed))
    grid = cell["robustness"]
    assert set(got) == set(grid)
    keys = ("year", "domain_accuracy", "n_eval", "p_value", "significant")
    assert ([[r[k] for k in keys] for r in got["per_year"]]
            == [[r[k] for k in keys] for r in grid["per_year"]])
    assert len(got["per_year"]) == 3


def test_write_json_keeps_json_dump_bytes(tmp_path):
    # One write of json.dumps gives the bytes json.dump streamed in small
    # writes: sorted keys, indent 1, floats by repr, a trailing newline.
    payload = {"b": [0.1, -0.0, 1e-300, 3, None, True, "inf"],
               "a": {"z": {"y": []}, "x": [{"w": 2.5}, {}]}}
    path = tmp_path / "out.json"
    harness.write_json(str(path), payload)
    want = tmp_path / "want.json"
    with open(want, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    assert path.read_bytes() == want.read_bytes()
