"""Executable verification of similarity-transform invariance.

For each scale factor p the harness transforms the inputs, runs the model on
both versions, and scores (a) invariance of the dimensionless prediction,
(b) correctness of the output scaling, and (c) prediction error against
solver ground truth at the stretched horizon.  A solver-only oracle checks
that the dataset itself obeys the invariance before any model is blamed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from . import dims
from .data import Sample
from .model import DimINOModel
from .solvers import SolverConfig, solve_sample
from .training import rel_metric


class SpecMismatch(Exception):
    pass


@dataclass
class STIEntry:
    p: float
    latent_residual: float
    output_scaling_residual: float
    model_rel_l2: float
    baseline_single_shot: Optional[float] = None
    baseline_rollout: Optional[float] = None


@dataclass
class STIReport:
    system: str
    n_samples: int
    entries: List[STIEntry] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "system": self.system,
                "n_samples": self.n_samples,
                "entries": [vars(e) for e in self.entries],
            },
            indent=2,
        )

    def format_table(self) -> str:
        ps = [e.p for e in self.entries]
        lines = [f"{'rel-L2 (1e-2)':<22}" + "".join(f"{'p=' + format(p, 'g'):>12}" for p in ps)]
        lines.append(
            f"{'model':<22}" + "".join(f"{100 * e.model_rel_l2:>12.3f}" for e in self.entries)
        )
        if any(e.baseline_single_shot is not None for e in self.entries):
            lines.append(
                f"{'baseline single-shot':<22}"
                + "".join(f"{100 * e.baseline_single_shot:>12.3f}" for e in self.entries)
            )
        if any(e.baseline_rollout is not None for e in self.entries):
            lines.append(
                f"{'baseline rollout':<22}"
                + "".join(f"{100 * e.baseline_rollout:>12.3f}" for e in self.entries)
            )
        lines.append(
            f"{'latent residual':<22}"
            + "".join(f"{e.latent_residual:>12.2e}" for e in self.entries)
        )
        lines.append(
            f"{'output-scale residual':<22}"
            + "".join(f"{e.output_scaling_residual:>12.2e}" for e in self.entries)
        )
        return "\n".join(lines)


def sti_check(model: DimINOModel, samples: List[Sample], p_list,
              baseline: DimINOModel = None, solver_cfg: SolverConfig = None
              ) -> STIReport:
    """Run the invariance protocol over a p sweep.

    Ground truth at the stretched horizon comes from the reference solver,
    not from model rollout.  When a baseline twin is supplied, its error on
    the transformed inputs is reported both single-shot and (for integer p)
    as a p-fold rollout.
    """
    system = samples[0].system
    if system not in dims.SIMILAR_TRANSFORM_RULES:
        raise dims.UnknownSystemRule(system)
    if model.config.system != system:
        raise SpecMismatch(
            f"model is for {model.config.system!r}, samples are {system!r}"
        )
    p_list = sorted(float(p) for p in p_list)
    if 1.0 not in p_list:
        p_list = sorted(p_list + [1.0])

    report = STIReport(system, len(samples))
    rule = dims.SIMILAR_TRANSFORM_RULES[system]
    base = model.forward(samples)
    base_pred, base_star = base.output.data, base.u_star.data
    truths = {}
    for p in p_list:
        transformed = [dims.similar_transform(s, p) for s in samples]
        result = model.forward(transformed)
        pred = result.output.data
        star = result.u_star.data
        # each target field carries p ** (its exponent) relative to p = 1
        ratios = np.array([p ** rule.get(name, 0) for name in model.config.target_fields])

        latent = np.mean([rel_metric("rel-l2", star[i], base_star[i])
                          for i in range(len(samples))])
        scaling = np.mean(
            [rel_metric("rel-l2", pred[i], ratios * base_pred[i]) for i in range(len(samples))]
        )
        truth_p = []
        for s_t in transformed:
            truth_p.append(solve_sample(s_t, solver_cfg))
        truths[p] = (transformed, truth_p)
        name0 = model.config.target_fields
        model_err = np.mean(
            [
                rel_metric("rel-l2", pred[i, ..., j], truth_p[i][name])
                for i in range(len(samples))
                for j, name in enumerate(name0)
            ]
        )
        entry = STIEntry(
            p=p,
            latent_residual=float(latent),
            output_scaling_residual=float(scaling),
            model_rel_l2=float(model_err),
        )
        if baseline is not None:
            bp = baseline.predict(transformed)
            entry.baseline_single_shot = float(
                np.mean(
                    [
                        rel_metric("rel-l2", bp[i, ..., j], truth_p[i][name])
                        for i in range(len(samples))
                        for j, name in enumerate(baseline.config.target_fields)
                    ]
                )
            )
            if float(p).is_integer():
                entry.baseline_rollout = _baseline_rollout_error(
                    baseline, transformed, truth_p, int(p)
                )
        report.entries.append(entry)
    return report


def _baseline_rollout_error(baseline: DimINOModel, transformed, truth_p,
                            n_steps: int) -> float:
    """Autoregressive error: apply the horizon-T map n_steps times."""
    current = [replace(s, t_final=s.t_final / n_steps) for s in transformed]
    for _ in range(n_steps):
        pred = baseline.predict(current)
        nxt = []
        for i, s in enumerate(current):
            fields = dict(s.fields)
            for j, name in enumerate(baseline.config.target_fields):
                fields[name] = pred[i, ..., j]
            nxt.append(replace(s, fields=fields))
        current = nxt
    errs = []
    for i, s in enumerate(current):
        for j, name in enumerate(baseline.config.target_fields):
            errs.append(rel_metric("rel-l2", s.fields[name], truth_p[i][name]))
    return float(np.mean(errs))


def solver_sti_oracle(sample: Sample, p: float, cfg: SolverConfig = None) -> float:
    """rel-L2 between the solver run on the transformed sample and the scaled
    original run; asserts the dataset obeys the invariance."""
    if p <= 0:
        raise ValueError("p must be positive")
    base = solve_sample(sample, cfg)
    transformed = dims.similar_transform(sample, p)
    # stretch the step count with the horizon so accuracy is comparable
    cfg_t = cfg
    if cfg is not None and cfg.steps is not None:
        cfg_t = replace(cfg, steps=max(int(math.ceil(cfg.steps * p)), 1))
    moved = solve_sample(transformed, cfg_t)
    rule = dims.SIMILAR_TRANSFORM_RULES[sample.system]
    errs = [rel_metric("rel-l2", moved[name], p ** rule.get(name, 0) * base[name])
            for name in base]
    return float(np.mean(errs))
