"""Executable verification of similarity-transform invariance.

For each scale factor p the harness transforms the inputs, runs the model on
both versions, and scores (a) invariance of the dimensionless prediction,
(b) correctness of the output scaling, and (c) prediction error against
solver ground truth at the stretched horizon.  A solver-only oracle checks
that the solver itself obeys the invariance before any model is blamed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import List, Optional

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


# Systems whose similarity rule is an exact symmetry of the PDE and whose
# solver is bit-exactly equivariant under it for power-of-two p (pinned by the
# oracle tests).  diffreact2d is not among them: its reaction u - u^3 - k - v
# carries an implicit unit rate and is not homogeneous in u.
EXACT_SOLVER_SYMMETRY = frozenset({"advection1d", "burgers1d", "ns-vorticity2d"})


def _is_power_of_two(p: float) -> bool:
    return math.frexp(p)[0] == 0.5


def _mean_rel_l2(pred: np.ndarray, names, truth) -> float:
    """Mean rel-L2 over samples i and target channels j against truth[i][name]."""
    return float(np.mean([rel_metric("rel-l2", pred[i, ..., j], truth[i][name])
                          for i in range(len(truth)) for j, name in enumerate(names)]))


def sti_check(model: DimINOModel, samples: List[Sample], p_list,
              baseline: DimINOModel = None, solver_cfg: SolverConfig = None
              ) -> STIReport:
    """Run the invariance protocol over a p sweep.

    Ground truth at the stretched horizon comes from the reference solver,
    not from model rollout.  Each sample is solved once at p = 1.  For a
    system in EXACT_SOLVER_SYMMETRY and p a power of two, the truth at p is
    that solve times p ** (each target's exponent): the continuous PDE maps
    exactly under the rule, and the solver agrees bit for bit because
    scaling by a power of two is exact in floating point, so every
    intermediate of the transformed solve is the original one times a power
    of two and the CFL step count is the same.  Only when the velocity floor
    of the step count binds (max speed below 1e-6) do the step counts differ;
    the rescaled truth is then still the exact transformed solution.  Any
    other p, and every p != 1 of the other systems, is solved afresh.

    When a baseline twin is supplied, its error on the transformed inputs is
    reported both single-shot and (for integer p) as a p-fold rollout; at
    p = 1 the one-step rollout is the single-shot prediction.
    """
    if not samples:
        raise ValueError("sti_check needs at least one sample")
    system = samples[0].system
    rule = dims.similarity_exponents(system)
    if model.config.system != system:
        raise SpecMismatch(
            f"model is for {model.config.system!r}, samples are {system!r}"
        )
    p_list = sorted(float(p) for p in p_list)
    if 1.0 not in p_list:
        p_list = sorted(p_list + [1.0])

    report = STIReport(system, len(samples))
    targets = model.config.target_fields
    base = model.forward(samples)
    base_pred, base_star = base.output.data, base.u_star.data
    base_truth = [solve_sample(s, solver_cfg) for s in samples]
    for p in p_list:
        if p == 1.0:
            transformed, pred, star = samples, base_pred, base_star
        else:
            transformed = [dims.similar_transform(s, p) for s in samples]
            result = model.forward(transformed)
            pred, star = result.output.data, result.u_star.data
        # each target field carries p ** (its exponent) relative to p = 1
        ratios = np.array([p ** rule.get(name, 0) for name in targets])

        latent = np.mean([rel_metric("rel-l2", star[i], base_star[i])
                          for i in range(len(samples))])
        scaling = np.mean(
            [rel_metric("rel-l2", pred[i], ratios * base_pred[i]) for i in range(len(samples))]
        )
        if p == 1.0 or (system in EXACT_SOLVER_SYMMETRY and _is_power_of_two(p)):
            truth = [{name: arr * p ** rule.get(name, 0) for name, arr in t.items()}
                     for t in base_truth]
        else:
            truth = [solve_sample(s, solver_cfg) for s in transformed]
        entry = STIEntry(
            p=p,
            latent_residual=float(latent),
            output_scaling_residual=float(scaling),
            model_rel_l2=_mean_rel_l2(pred, targets, truth),
        )
        if baseline is not None:
            names = baseline.config.target_fields
            entry.baseline_single_shot = _mean_rel_l2(
                baseline.predict(transformed), names, truth)
            if p == 1.0:
                entry.baseline_rollout = entry.baseline_single_shot
            elif p.is_integer():
                entry.baseline_rollout = _mean_rel_l2(
                    _baseline_rollout(baseline, transformed, int(p)), names, truth)
        report.entries.append(entry)
    return report


def _baseline_rollout(baseline: DimINOModel, transformed, n_steps: int) -> np.ndarray:
    """Autoregressive prediction: apply the horizon-T/n_steps map n_steps times."""
    current = [replace(s, t_final=s.t_final / n_steps) for s in transformed]
    for _ in range(n_steps):
        pred = baseline.predict(current)
        current = [
            replace(s, fields={**s.fields, **{name: pred[i, ..., j] for j, name
                                              in enumerate(baseline.config.target_fields)}})
            for i, s in enumerate(current)
        ]
    return pred


def solver_sti_oracle(sample: Sample, p: float, cfg: SolverConfig = None) -> float:
    """rel-L2 between the solver run on the transformed sample and the scaled
    original run, both under the same SolverConfig.

    It is exactly 0.0 for the systems in EXACT_SOLVER_SYMMETRY at power-of-two
    p, so any residual there is a solver defect.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    rule = dims.similarity_exponents(sample.system)
    base = solve_sample(sample, cfg)
    moved = solve_sample(dims.similar_transform(sample, p), cfg)
    errs = [rel_metric("rel-l2", moved[name], p ** rule.get(name, 0) * base[name])
            for name in base]
    return float(np.mean(errs))
