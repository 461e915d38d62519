"""Command line interface.

Subcommands: generate-data, train, account, audit-shift, audit-fairness,
audit-influence, run. Exit codes: 0 success, 2 configuration error,
3 partial grid failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field

from . import (accountant, cohort as cohort_mod, dp_optim, fairness_audit,
               harness, influence, models, objective_perturbation,
               shift_audit)
from .errors import ConfigurationError, DPTailsError, config_from_dict


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
    protocol: str = "cumulative"
    seed: int = 0
    mechanism: str = "dp-sgd"
    training: dict = field(default_factory=dict)
    family_spec: dict = field(default_factory=dict)
    objpert: dict = field(default_factory=dict)

    # Each mechanism reads its own sections; a section it would not read
    # is refused, not silently ignored.
    UNREAD = {"dp-sgd": ("objpert",),
              "objective-perturbation": ("training", "family_spec")}

    @classmethod
    def load(cls, path):
        raw = _load_json(path)
        cfg = config_from_dict(cls, raw, path)
        for key in cls.UNREAD.get(cfg.mechanism, ()):
            if key in raw:
                raise ConfigurationError(
                    f"{path}: {key!r}: not read by mechanism "
                    f"{cfg.mechanism!r}")
        return cfg


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


def _dump(payload, path=None):
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    cfg = TrainFile.load(args.config)
    cohort = cohort_mod.read_cohort(cfg.cohort_csv)
    split = cohort_mod.split_yearly(cohort, cfg.pivot_year, cfg.protocol)
    seed = args.seed if args.seed is not None else cfg.seed
    if cfg.mechanism == "dp-sgd":
        training = dict(cfg.training)
        if "privacy_level" in training:
            config = dp_optim.DPTrainingConfig.from_level(
                training.pop("privacy_level"), **training)
        else:
            config = config_from_dict(dp_optim.DPTrainingConfig, training,
                                      "training")
        trained = dp_optim.train(cfg.family_spec, split,
                                 dataclasses.replace(config, seed=seed))
    elif cfg.mechanism == "objective-perturbation":
        op = config_from_dict(objective_perturbation.ObjPertConfig,
                              cfg.objpert, "objpert")
        trained = objective_perturbation.train_objective_perturbation(
            split, dataclasses.replace(op, seed=seed))
    else:
        raise ConfigurationError(f"unknown mechanism {cfg.mechanism!r}")
    _dump(trained.to_dict(), args.out)
    return 0


def cmd_account(args):
    spend, log = accountant.spend_for_training(
        q=args.q, sigma=args.sigma, steps=args.steps, delta=args.delta)
    _dump({**spend.to_dict(), "caveats": log["caveats"]}, args.out)
    return 0


def cmd_audit_shift(args):
    """The grid's robustness report for a cohort, with a non-private
    ridge-LR task model fitted per pivot year in place of a trained one."""
    cfg = _load_config(ShiftAuditFile, args.config)
    cohort = cohort_mod.read_cohort(cfg.cohort_csv)
    audit = shift_audit.RobustnessAudit(
        args.seed if args.seed is not None else cfg.seed)
    for pivot, split in cohort_mod.yearly_splits(cohort):
        audit.add(pivot, split, models.fit_lr_newton(
            split.train.features, split.train.labels,
            l2_lambda=cfg.l2_lambda))
    report = audit.report()
    _dump(report, args.out)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("year,malignancy_accuracy,p_value\n")
            for r in report["per_year"]:
                mal = r["malignancy_accuracy"]
                fh.write(f"{r['year']},{'' if mal is None else repr(mal)},"
                         f"{r['p_value']!r}\n")
    return 0


def cmd_audit_fairness(args):
    cfg = _load_config(FairnessAuditFile, args.config)
    cohort = cohort_mod.read_cohort(cfg.cohort_csv)
    params = models.ModelParams.from_dict(cfg.params)
    scores = models.predict(params, cohort.features)[:, 1]
    report = fairness_audit.fairness_gaps(
        scores, cohort.labels, cohort.groups, g1=cfg.group_1, g2=cfg.group_2,
        threshold=cfg.threshold)
    _dump(report.to_dict(), args.out)
    return 0


def cmd_audit_influence(args):
    cfg = _load_config(InfluenceAuditFile, args.config)
    train_cohort = cohort_mod.read_cohort(cfg.train_csv)
    test_cohort = cohort_mod.read_cohort(cfg.test_csv)
    params = models.ModelParams.from_dict(cfg.params)
    engine = influence.InfluenceEngine(params, train_cohort,
                                       damping=cfg.damping)
    matrix = engine.matrix(train_cohort, test_cohort)
    _dump(influence.influence_summary(matrix, train_cohort), args.out)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(",".join(map(str, ["train_id",
                                        *matrix.test_ids.tolist()])) + "\n")
            fh.writelines(",".join(map(repr, [tid, *row])) + "\n"
                          for tid, row in zip(matrix.train_ids.tolist(),
                                              matrix.values.tolist()))
    return 0


def cmd_run(args):
    raw = _load_json(args.config)
    if args.out:
        raw["out_dir"] = args.out
    if args.seed is not None:
        raw["seeds"] = [args.seed]
    config = harness.ExperimentConfig.from_dict(raw)
    _, failures = harness.run_experiment(config)
    return 3 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(prog="dp-tails")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_config=True):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)
        return p

    add("generate-data", cmd_generate_data)
    add("train", cmd_train)
    p = add("account", cmd_account, needs_config=False)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--delta", type=float, default=accountant.DEFAULT_DELTA)
    p = add("audit-shift", cmd_audit_shift)
    p.add_argument("--csv", default=None)
    add("audit-fairness", cmd_audit_fairness)
    p = add("audit-influence", cmd_audit_influence)
    p.add_argument("--csv", default=None)
    add("run", cmd_run)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DPTailsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
