"""In-memory span tracing around the public entry points of each dp_tails
layer, installed from the benchmark's side by replacing module attributes.

Every call into the program goes through a module attribute (for example
`accountant.spend_for_training` from `dp_optim.train`), so replacing the
attribute routes those calls through a timing wrapper without touching
`src/`. Only public entry points are wrapped; inner helpers such as
`accountant._log_add` run more than a million times per grid and are never
wrapped. The one private name, `harness._write_reports`, runs once per
grid and is the only boundary around report writing.

A span is [id, name, start, end, parent id, pass id, counts]. Spans stay in
memory and are written out once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time

import numpy as np


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _grad_counts(args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    rows = np.atleast_2d(_arg(args, kwargs, 1, "features")).shape[0]
    return {"rows": rows, "theta": int(params.theta.size)}


def _account_counts(args, kwargs, result):
    return {"q": _arg(args, kwargs, 0, "q"),
            "sigma": _arg(args, kwargs, 1, "sigma")}


def _write_counts(args, kwargs, result):
    return {"rows": int(_arg(args, kwargs, 0, "cohort").n),
            "bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _read_counts(args, kwargs, result):
    return {"rows": int(result.n),
            "bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (module, attribute path, counter). The span name is "<module>.<attr>".
PROBES = (
    ("cohort", "generate_cohort", None),
    ("cohort", "split_yearly", None),
    ("cohort", "write_cohort", _write_counts),
    ("cohort", "read_cohort", _read_counts),
    ("models", "loss_and_per_example_grads", _grad_counts),
    ("models", "fit_lr_newton", None),
    ("models", "predict", None),
    ("models", "lr_hessian", None),
    ("dp_optim", "train", lambda a, k, r: {"steps": int(r.steps_taken)}),
    ("accountant", "spend_for_training", _account_counts),
    ("objective_perturbation", "train_objective_perturbation", None),
    ("influence", "InfluenceEngine.__init__", None),
    ("influence", "InfluenceEngine.matrix",
     lambda a, k, r: {"pairs": int(r.values.size)}),
    ("influence", "group_influence", None),
    ("influence", "top_variance_test_points", None),
    ("influence", "influencer_frequency", None),
    ("shift_audit", "domain_classifier_significance", None),
    ("shift_audit", "shift_malignancy", None),
    ("shift_audit", "robustness_correlation", None),
    ("fairness_audit", "fairness_gaps", None),
    ("metrics", "auroc", None),
    ("metrics", "auprc", None),
    ("metrics", "confusion", None),
    ("metrics", "binomial_test", None),
    ("metrics", "pearson", None),
    ("harness", "run_experiment", None),
    ("harness", "yearly_protocol", None),
    ("harness", "_write_reports", None),
    ("cli", "main", None),
)

TRAININGS = ("dp_optim.train",
             "objective_perturbation.train_objective_perturbation")


class Tracer:
    def __init__(self):
        self.spans = []
        self.pass_id = None
        self.missing = []
        self._stack = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), name, 0.0, 0.0,
                    stack[-1] if stack else None, self.pass_id, None]
            spans.append(span)
            stack.append(span[0])
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, program, pass_id):
        """Route the probed entry points of `program` (a namespace of
        dp_tails modules) through spans tagged `pass_id`; restore on exit."""
        self.pass_id = pass_id
        saved = []
        try:
            for module, path, counter in PROBES:
                *owner_path, attr = path.split(".")
                owner = getattr(program, module)
                for part in owner_path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner else None
                if original is None:
                    if f"{module}.{path}" not in self.missing:
                        self.missing.append(f"{module}.{path}")
                    continue
                # Class attributes are read from __dict__ so a restored
                # method stays a plain function.
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr,
                        self._wrap(f"{module}.{path}", original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.pass_id = None

    def pass_spans(self, pass_id):
        return [s for s in self.spans if s[5] == pass_id]

    def write_jsonl(self, path):
        keys = ("id", "name", "start", "end", "parent", "pass", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans):
    """Span id -> duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and
    do not overlap one another.
    """
    child_time = {}
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
    return {s[0]: (s[3] - s[2]) - child_time.get(s[0], 0.0) for s in spans}


def _has_ancestor(span, by_id, names):
    parent = span[4]
    while parent is not None:
        ancestor = by_id.get(parent)
        if ancestor is None:
            return False
        if ancestor[1] in names:
            return True
        parent = ancestor[4]
    return False


LAYERS = ("cohort", "models", "dp_optim", "accountant",
          "objective_perturbation", "influence", "shift_audit",
          "fairness_audit", "metrics", "harness", "cli")


def layer_counts(spans, slots):
    """Per-layer counts of one pass; these repeat exactly for one seed.

    slots: (cell, pivot year) slots the pass's grid reported, the base of
    harness.trainings_per_slot.
    """
    by_id = {s[0]: s for s in spans}
    named = {}
    for s in spans:
        named.setdefault(s[1], []).append(s)

    def calls(name):
        return len(named.get(name, ()))

    def total(name, key):
        return sum(s[6][key] for s in named.get(name, ()) if s[6])

    grads = named.get("models.loss_and_per_example_grads", ())
    accounts = [s[6] for s in named.get("accountant.spend_for_training", ())
                if s[6]]
    distinct = len({(a["q"], a["sigma"]) for a in accounts})
    steps = total("dp_optim.train", "steps")
    step_grads = sum(1 for s in grads
                     if _has_ancestor(s, by_id, ("dp_optim.train",)))
    trained = sum(1 for name in TRAININGS for s in named.get(name, ())
                  if _has_ancestor(s, by_id, ("harness.run_experiment",)))
    return {
        "accountant.calls": len(accounts),
        "accountant.distinct_q_sigma": distinct,
        "accountant.reuse_ratio": (len(accounts) / distinct
                                   if distinct else 0.0),
        "dp_optim.train_calls": calls("dp_optim.train"),
        "dp_optim.steps": steps,
        "dp_optim.grad_calls_per_step": step_grads / steps if steps else 0.0,
        "models.grad_calls": len(grads),
        "models.grad_rows": total("models.loss_and_per_example_grads", "rows"),
        "models.grad_bytes_computed": sum(
            s[6]["rows"] * s[6]["theta"] * 8 for s in grads if s[6]),
        "models.newton_calls": calls("models.fit_lr_newton"),
        "objective_perturbation.calls": calls(
            "objective_perturbation.train_objective_perturbation"),
        "influence.matrix_calls": calls("influence.InfluenceEngine.matrix"),
        "influence.pairs": total("influence.InfluenceEngine.matrix", "pairs"),
        "shift_audit.calls": calls(
            "shift_audit.domain_classifier_significance"),
        "fairness_audit.calls": calls("fairness_audit.fairness_gaps"),
        "metrics.calls": sum(len(v) for k, v in named.items()
                             if k.startswith("metrics.")),
        "cohort.rows_written": total("cohort.write_cohort", "rows"),
        "cohort.rows_read": total("cohort.read_cohort", "rows"),
        "cohort.csv_bytes": (total("cohort.write_cohort", "bytes")
                             + total("cohort.read_cohort", "bytes")),
        "cohort.split_calls": calls("cohort.split_yearly"),
        "harness.models_trained": trained,
        "harness.trainings_per_slot": trained / slots if slots else 0.0,
        "cli.commands": calls("cli.main"),
        "trace.spans": len(spans),
    }


def layer_times(spans):
    """Per-layer seconds of one pass: each layer's self time, plus the
    inclusive time of the boundaries the layer metrics name."""
    selfs = self_times(spans)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        out[s[1].split(".")[0] + ".self_s"] += selfs[s[0]]

    def inclusive(name):
        return sum((s[3] - s[2] for s in spans if s[1] == name), 0.0)

    out.update({
        "models.grad_self_s": sum(
            (selfs[s[0]] for s in spans
             if s[1] == "models.loss_and_per_example_grads"), 0.0),
        "models.newton_s": inclusive("models.fit_lr_newton"),
        "models.predict_s": inclusive("models.predict"),
        "cohort.write_s": inclusive("cohort.write_cohort"),
        "cohort.read_s": inclusive("cohort.read_cohort"),
        "cohort.split_s": inclusive("cohort.split_yearly"),
        "cohort.generate_s": inclusive("cohort.generate_cohort"),
        "harness.report_write_s": inclusive("harness._write_reports"),
    })
    return out


def median_times(per_pass):
    """Median over passes of each per-layer time."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
