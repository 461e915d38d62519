"""Command line interface.

Subcommands: generate-data, train, account, audit-shift, audit-fairness,
audit-influence, run. Exit codes: 0 success, 2 configuration error,
3 partial grid failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import (accountant, cohort as cohort_mod, dp_optim, fairness_audit,
               harness, influence, models, objective_perturbation,
               shift_audit)
from .errors import (ConfigurationError, DPTailsError, ParseError,
                     config_from_dict)


def _load_json(path):
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: malformed JSON: {exc}")
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{path}: must hold a JSON object")
    return payload


@dataclass
class TrainFile:
    """The `train` config file."""
    cohort_csv: str
    pivot_year: int
    seed: int = 0
    mechanism: str = "dp-sgd"
    training: dict = field(default_factory=dict)
    family_spec: dict = field(default_factory=dict)
    objpert: dict = field(default_factory=dict)

    # Each mechanism reads its own sections; a section it would not read
    # is refused, not silently ignored, and so is a seed in a section: the
    # top-level seed (or --seed) is the run's.
    UNREAD = {"dp-sgd": ("objpert",),
              "objective-perturbation": ("training", "family_spec")}

    @classmethod
    def load(cls, path, seed=None):
        """The file at `path` and its mechanism's DPTrainingConfig or
        ObjPertConfig with the run's seed (`seed`, or if None the file's),
        all checked before any cohort is read."""
        raw = _load_json(path)
        cfg = config_from_dict(cls, raw, path)
        if cfg.mechanism not in cls.UNREAD:
            raise ConfigurationError(
                f"{path}: mechanism: unknown {cfg.mechanism!r}")
        for key in cls.UNREAD[cfg.mechanism]:
            if key in raw:
                raise ConfigurationError(
                    f"{path}: {key!r}: not read by mechanism "
                    f"{cfg.mechanism!r}")
        for key in ("training", "objpert"):
            if "seed" in getattr(cfg, key):
                raise ConfigurationError(
                    f"{path}: {key}.seed: not read; set the top-level "
                    f"'seed' or --seed")
        if cfg.mechanism == "objective-perturbation":
            config = config_from_dict(objective_perturbation.ObjPertConfig,
                                      cfg.objpert, "objpert")
        elif "privacy_level" in cfg.training:
            training = dict(cfg.training)
            level = harness.level(training.pop("privacy_level"),
                                  "training.privacy_level")
            config = level.training(**training)
        else:
            config = config_from_dict(dp_optim.DPTrainingConfig,
                                      cfg.training, "training")
        return cfg, dataclasses.replace(
            config, seed=cfg.seed if seed is None else seed)


@dataclass
class ShiftAuditFile:
    """The `audit-shift` config file."""
    cohort_csv: str
    seed: int = 0
    l2_lambda: float = 0.01


@dataclass
class FairnessAuditFile:
    """The `audit-fairness` config file."""
    cohort_csv: str
    params: dict
    group_1: int = 0
    group_2: int = 1
    threshold: float = 0.5


@dataclass
class InfluenceAuditFile:
    """The `audit-influence` config file."""
    train_csv: str
    test_csv: str
    params: dict
    damping: float | None = None


def _load_config(cls, path):
    return config_from_dict(cls, _load_json(path), path)


def _read_cohort(path):
    """cohort.read_cohort, with a file that is not UTF-8 refused by name."""
    try:
        return cohort_mod.read_cohort(path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 (byte "
                         f"0x{exc.object[exc.start]:02x}: {exc.reason})")


def cmd_generate_data(args):
    config = cohort_mod.CohortConfig.from_dict(_load_json(args.config))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if not args.out:
        raise ConfigurationError("generate-data requires --out")
    cohort = cohort_mod.generate_cohort(config)
    cohort_mod.write_cohort(cohort, args.out)
    return 0


def cmd_train(args):
    cfg, config = TrainFile.load(args.config, args.seed)
    spec = config_from_dict(models.FamilySpec, cfg.family_spec, "family_spec")
    split = cohort_mod.split_yearly(_read_cohort(cfg.cohort_csv),
                                    cfg.pivot_year)
    if cfg.mechanism == "dp-sgd":
        trained = dp_optim.train(spec, split, config)
    else:
        trained = objective_perturbation.train_objective_perturbation(
            split.train, config)
    harness.write_json(args.out, trained.to_dict())
    return 0


def cmd_account(args):
    spend, log = accountant.spend_for_training(
        q=args.q, sigma=args.sigma, steps=args.steps, delta=args.delta)
    harness.write_json(args.out,
                       {**spend.to_dict(), "caveats": log["caveats"]})
    return 0


def cmd_audit_shift(args):
    """The grid's robustness report for a cohort, with a non-private
    ridge-LR task model fitted per pivot year in place of a trained one."""
    cfg = _load_config(ShiftAuditFile, args.config)
    cohort = _read_cohort(cfg.cohort_csv)
    seed = args.seed if args.seed is not None else cfg.seed
    rows = []
    for pivot, split in cohort_mod.yearly_splits(cohort):
        params = models.fit_lr_newton(
            split.train.features, split.train.labels, l2_lambda=cfg.l2_lambda)
        rows.append(shift_audit.robustness_row(
            seed, pivot, split, params,
            models.predict(params, split.test.features)))
    report = shift_audit.robustness_report(rows)
    harness.write_json(args.out, report)
    if args.csv:
        harness.write_table(args.csv, harness.MALIGNANCY_COLUMNS,
                            ([r[k] for k in harness.MALIGNANCY_COLUMNS]
                             for r in report["per_year"]))
    return 0


def cmd_audit_fairness(args):
    cfg = _load_config(FairnessAuditFile, args.config)
    cohort = _read_cohort(cfg.cohort_csv)
    params = models.ModelParams.from_dict(cfg.params)
    # Parameters that overflow the scores are refused by fairness_gaps,
    # which counts the non-finite scores.
    with np.errstate(over="ignore", invalid="ignore"):
        scores = models.predict(params, cohort.features)
    harness.write_json(args.out, fairness_audit.fairness_gaps(
        scores, cohort.labels, cohort.groups, g1=cfg.group_1, g2=cfg.group_2,
        threshold=cfg.threshold))
    return 0


def cmd_audit_influence(args):
    cfg = _load_config(InfluenceAuditFile, args.config)
    train_cohort = _read_cohort(cfg.train_csv)
    test_cohort = _read_cohort(cfg.test_csv)
    params = models.ModelParams.from_dict(cfg.params)
    engine = influence.InfluenceEngine(params, train_cohort,
                                       damping=cfg.damping)
    matrix = engine.matrix(train_cohort, test_cohort)
    harness.write_json(args.out,
                       influence.influence_summary(matrix, train_cohort))
    if args.csv:
        _write_influence_csv(matrix, args.csv)
    return 0


def _write_influence_csv(matrix, path):
    """The influence matrix as CSV: a `train_id` column, then one column
    per test record id."""
    with open(path, "w") as fh:
        fh.write(",".join(map(str, ["train_id",
                                    *matrix.test_ids.tolist()])) + "\n")
        cohort_mod.write_csv_rows(fh, (matrix.train_ids,), matrix.values)


def cmd_run(args):
    raw = _load_json(args.config)
    if args.out:
        raw["out_dir"] = args.out
    if args.seed is not None:
        raw["seeds"] = [args.seed]
    config = harness.ExperimentConfig.from_dict(raw)
    _, failures = harness.run_experiment(config)
    return 3 if failures else 0


@functools.cache
def build_parser():
    """The one parser of the process, built on first use: parse_args fills
    a fresh namespace per call, so no value of one command reaches the
    next."""
    parser = argparse.ArgumentParser(prog="dp-tails")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_config=True, seeded=True):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=True)
        if seeded:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)
        return p

    add("generate-data", cmd_generate_data)
    add("train", cmd_train)
    p = add("account", cmd_account, needs_config=False, seeded=False)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--delta", type=float, default=accountant.DEFAULT_DELTA)
    p = add("audit-shift", cmd_audit_shift)
    p.add_argument("--csv", default=None)
    add("audit-fairness", cmd_audit_fairness, seeded=False)
    p = add("audit-influence", cmd_audit_influence, seeded=False)
    p.add_argument("--csv", default=None)
    add("run", cmd_run)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError, OSError) as exc:
        # A path that is missing, a directory or not permitted is a
        # configuration error; an OSError on no path (a full disk) is not.
        if isinstance(exc, OSError) and exc.filename is None:
            raise
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DPTailsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
