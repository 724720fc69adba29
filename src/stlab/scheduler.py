"""Task-impact measurement and exponential weight decay for the auxiliary
tasks, with pruning once a weight falls below threshold.

Per probe instance j the impact of auxiliary task i is
    m_i = (1/k) * sum_j ||delta_i^j|| / ||delta_st^j + delta_i^j||
over flattened self-attention gradients of the relevant module; weights
update as w_i <- w_i * m_i^(u/s), with u the global step, and the task is
dropped below threshold.
The probes (train.make_probe_fn) measure each task as the run trains it:
ASR under the configured variant, MT under the run's input noise. The k
instances form one batch, and each task's k gradients come from one forward
and one backward with per-example ATTEN parameters
(analysis.capture_instance_gradients), as one [k, n] matrix per module whose
row j is delta^j.

Dropping a task removes its weighted term, and for MT its forward pass too.
ASR reads the ST pass's speech encoding, so dropping it saves only its
loss (and, for the `ce` variants, the source decode). The CTC objective
that shrinking reads stays, on the ST pass's log-probs at weight 1 (see
train.compute_losses), so the segmenter does not freeze once ASR is gone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import SchedulerConfig

AUX_TASKS = ("asr", "mt")

# module each auxiliary task is judged by; mt takes the max over its two
MODULES_FOR_TASK = {"asr": ("A-Enc",), "mt": ("T-Enc", "Decoder")}


@dataclass
class HistoryRow:
    step: int
    task: str
    m: float
    w: float


@dataclass
class TaskWeights:
    """The scheduler's state; it reads its settings from `config`."""
    config: SchedulerConfig
    weights: dict  # task -> current weight, for the tasks the run trains
    pruned: set = field(default_factory=set)
    history: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def active(self, task: str) -> bool:
        return task in self.weights and task not in self.pruned

    def active_tasks(self):
        return [t for t in AUX_TASKS if self.active(t)]

    def as_rows(self):
        return [(r.step, r.task, r.m, r.w) for r in self.history]


def task_impact(deltas_task, deltas_st) -> float:
    """Mean per-instance ratio ||d_task|| / ||d_st + d_task|| over the rows
    of two [k, n] gradient matrices (row j: instance j).

    Instances with a zero denominator are skipped and the mean renormalized;
    all-skipped raises."""
    deltas_task, deltas_st = np.asarray(deltas_task), np.asarray(deltas_st)
    if deltas_task.ndim != 2 or deltas_task.shape != deltas_st.shape or not len(deltas_task):
        raise ValueError(f"need two [k, n] gradient matrices of one shape with k >= 1, "
                         f"got {deltas_task.shape} and {deltas_st.shape}")
    # one norm per row: a vectorised norm rounds differently in the last bit
    denoms = [np.linalg.norm(row) for row in deltas_st + deltas_task]
    ratios = [np.linalg.norm(dt) / d for dt, d in zip(deltas_task, denoms) if d != 0.0]
    if not ratios:
        raise ValueError("task impact undefined: every instance had a zero denominator")
    return float(np.mean(ratios))


def update_weight(w_prev: float, m: float, u: int, s: float) -> float:
    """w_new = w_prev * m^(u/s)."""
    if m < 0:
        raise ValueError(f"task impact must be non-negative, got {m}")
    return w_prev * m ** (u / s)


def mt_module_rule(m_tenc: float, m_dec: float) -> float:
    """The MT weight follows whichever shared module it impacts more."""
    return max(m_tenc, m_dec)


def schedule_step(step: int, weights: TaskWeights, probe_fn) -> TaskWeights:
    """One scheduled update: draw probes, measure impact, decay, prune.

    probe_fn() returns {task: {module: [k, n] ATTEN gradients}}, "st"
    included, with row j holding probe instance j's gradients.
    A probe failure, or an impact that is undefined, leaves the weights
    and history unchanged and records a warning.
    """
    try:
        probes = probe_fn()
    except Exception as exc:  # probe failure must not kill training
        weights.warnings.append((step, f"probe failed: {exc}"))
        return weights
    try:
        module_ms = {task: [task_impact(probes[task][module], probes["st"][module])
                            for module in MODULES_FOR_TASK[task]]
                     for task in weights.active_tasks()}
    except ValueError as exc:
        weights.warnings.append((step, f"impact failed: {exc}"))
        return weights
    cfg = weights.config
    for task, ms in module_ms.items():
        m = mt_module_rule(*ms) if len(ms) > 1 else ms[0]
        w = update_weight(weights.weights[task], m, step, cfg.smoothing(task))
        weights.weights[task] = w
        weights.history.append(HistoryRow(step, task, m, w))
        if w < cfg.prune_threshold:
            weights.pruned.add(task)
    return weights


def verify_history(weights: TaskWeights, initial=None) -> bool:
    """Replay every recorded (step, m) pair from the initial weights and
    check the stored w values match to 1e-12."""
    current = dict(initial or {t: 1.0 for t in AUX_TASKS})
    for row in weights.history:
        expected = update_weight(current[row.task], row.m, row.step,
                                 weights.config.smoothing(row.task))
        if abs(expected - row.w) > 1e-12 * max(1.0, abs(expected)):
            return False
        current[row.task] = row.w
    return True
