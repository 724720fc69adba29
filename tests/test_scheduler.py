"""Task impact measurement and the exponential weight schedule."""

import numpy as np
import pytest

from stlab.config import SchedulerConfig
from stlab.scheduler import (AUX_TASKS, HistoryRow, TaskWeights, schedule_step,
                             task_impact, update_weight)


def verify_history(weights: TaskWeights) -> bool:
    """Replay every recorded (step, m) pair from weights of 1 and check the
    stored w values match to 1e-12."""
    current = {t: 1.0 for t in AUX_TASKS}
    for row in weights.history:
        expected = update_weight(current[row.task], row.m, row.step,
                                 weights.config.smoothing(row.task))
        if abs(expected - row.w) > 1e-12 * max(1.0, abs(expected)):
            return False
        current[row.task] = row.w
    return True


# -- impact hand cases (||d_task|| / ||d_st + d_task||) -----------------------


def rows(*vectors):
    """A [k, n] gradient matrix, one row per probe instance."""
    return np.stack(vectors)


def test_impact_zero_auxiliary_gradient():
    z = np.zeros(4)
    st = np.array([1.0, 2.0, 3.0, 4.0])
    assert task_impact(rows(z), rows(st)) == 0.0


def test_impact_equal_gradients_is_half():
    d = np.array([1.0, -2.0, 0.5])
    assert task_impact(rows(d), rows(d.copy())) == pytest.approx(0.5, abs=1e-15)


def test_impact_three_four_five_case():
    """Orthogonal gradients with norms 4 (task) and 3 (st): combined norm 5,
    impact 4/5 = 0.8."""
    d_task = np.array([4.0, 0.0])
    d_st = np.array([0.0, 3.0])
    assert task_impact(rows(d_task), rows(d_st)) == pytest.approx(0.8, abs=1e-15)


def test_impact_averages_over_instances():
    d = np.array([1.0, 0.0])
    got = task_impact(rows(d, np.zeros(2)), rows(d.copy(), d.copy()))
    assert got == pytest.approx(0.25)  # mean of 0.5 and 0


def test_impact_skips_zero_denominators():
    d = np.array([1.0, 0.0])
    # instance 2 cancels exactly -> skipped, mean over the rest
    got = task_impact(rows(d, d), rows(d.copy(), -d))
    assert got == pytest.approx(0.5)
    with pytest.raises(ValueError):
        task_impact(rows(d), rows(-d))  # every instance degenerate
    with pytest.raises(ValueError):
        task_impact(np.zeros((0, 2)), np.zeros((0, 2)))


def test_impact_rejects_mismatched_and_1d_input():
    d = np.array([1.0, 0.0])
    for task, st in ((rows(d), rows(d, d)),          # k differs
                     (rows(d), rows(np.ones(3))),    # n differs
                     (d, d),                         # one instance as a 1-D vector
                     (d[None, None], d[None, None])):
        with pytest.raises(ValueError, match=r"\[k, n\]"):
            task_impact(task, st)


# -- weight update ------------------------------------------------------------


def test_update_weight_formula():
    assert update_weight(1.0, 0.5, u=500, s=500.0) == pytest.approx(0.5)
    assert update_weight(0.8, 0.5, u=500, s=1000.0) == pytest.approx(0.8 * 0.5 ** 0.5)
    with pytest.raises(ValueError):
        update_weight(1.0, -0.1, 1, 1.0)


def test_update_weight_closed_form():
    """Iterating with constant m equals w0 * m^(sum(u)/s) to 1e-12."""
    m, s = 0.7, 1000.0
    w = 1.0
    total_u = 0
    for step in (500, 1000, 1500, 2000):
        u = step  # absolute mode
        w = update_weight(w, m, u, s)
        total_u += u
    assert w == pytest.approx(m ** (total_u / s), abs=1e-12)


# -- scheduled stepping ----------------------------------------------------------


def make_probe(ms):
    """One-instance probe ([1, n] matrices) where ||d_task||/||d_st+d_task||
    is exactly ms[task][module]."""
    def probe():
        probes = {"st": {}, "asr": {}, "mt": {}}
        modules = {"asr": ["A-Enc"], "mt": ["T-Enc", "Decoder"]}
        for task, mods in modules.items():
            for mod in mods:
                m = ms[task][mod]
                # orthogonal construction: task norm m, st chosen so the
                # combined norm is 1
                probes[task][mod] = np.array([[m, 0.0]])
                probes["st"][mod] = np.array([[0.0, np.sqrt(1 - m * m)]])
        probes["st"].setdefault("A-Enc", np.zeros((1, 2)))
        return probes
    return probe


def fresh_weights(**over):
    return TaskWeights(SchedulerConfig(**over), weights={"asr": 1.0, "mt": 1.0})


@pytest.mark.parametrize("m_tenc, m_dec", [(0.5, 0.9), (0.9, 0.2)])
def test_schedule_step_updates_and_records(m_tenc, m_dec):
    tw = fresh_weights()
    probe = make_probe({"asr": {"A-Enc": 0.6}, "mt": {"T-Enc": m_tenc, "Decoder": m_dec}})
    schedule_step(500, tw, probe)
    assert tw.weights["asr"] == pytest.approx(0.6 ** (500 / 500))
    # MT follows whichever shared module it impacts more
    assert tw.history[1].m == pytest.approx(max(m_tenc, m_dec))
    assert tw.weights["mt"] == pytest.approx(max(m_tenc, m_dec) ** (500 / 1000))
    assert [(r.step, r.task) for r in tw.history] == [(500, "asr"), (500, "mt")]
    assert verify_history(tw)


def test_schedule_prunes_below_threshold():
    tw = fresh_weights()
    probe = make_probe({"asr": {"A-Enc": 0.05}, "mt": {"T-Enc": 0.9, "Decoder": 0.9}})
    schedule_step(500, tw, probe)
    assert "asr" in tw.pruned and "mt" not in tw.pruned
    assert tw.active_tasks() == ["mt"]
    # a pruned task is no longer updated
    schedule_step(1000, tw, probe)
    assert [r.task for r in tw.history if r.step == 1000] == ["mt"]


def test_smaller_smoothing_prunes_first():
    """Identical impacts, s_asr < s_mt: the ASR weight decays faster and is
    pruned strictly before MT."""
    tw = fresh_weights()
    probe = make_probe({"asr": {"A-Enc": 0.5}, "mt": {"T-Enc": 0.5, "Decoder": 0.5}})
    pruned_at = {}
    for step in range(500, 5001, 500):
        schedule_step(step, tw, probe)
        for t in tw.pruned:
            pruned_at.setdefault(t, step)
        if len(pruned_at) == 2:
            break
    assert pruned_at["asr"] < pruned_at["mt"]


def test_probe_failure_keeps_weights():
    tw = fresh_weights()

    def broken():
        raise RuntimeError("probe exploded")

    schedule_step(500, tw, broken)
    assert tw.weights == {"asr": 1.0, "mt": 1.0}
    assert len(tw.warnings) == 1 and tw.history == []


def test_undefined_impact_keeps_weights():
    """An all-zero-denominator impact is recorded as a warning, like a probe
    failure, and no task's weight moves, not even one measured before it."""
    zeros = {"A-Enc": np.zeros((1, 2)), "T-Enc": np.zeros((1, 2)), "Decoder": np.zeros((1, 2))}
    tw = fresh_weights()
    schedule_step(500, tw, lambda: {"st": zeros, "asr": zeros, "mt": zeros})
    assert tw.weights == {"asr": 1.0, "mt": 1.0}
    assert tw.history == []
    assert len(tw.warnings) == 1 and tw.warnings[0][0] == 500

    asr_defined = {"st": dict(zeros, **{"A-Enc": np.array([[0.0, 1.0]])}),
                   "asr": {"A-Enc": np.array([[1.0, 0.0]])}, "mt": zeros}
    schedule_step(1000, tw, lambda: asr_defined)
    assert tw.weights == {"asr": 1.0, "mt": 1.0}
    assert tw.history == [] and len(tw.warnings) == 2


def test_verify_history_detects_tampering():
    tw = fresh_weights()
    probe = make_probe({"asr": {"A-Enc": 0.6}, "mt": {"T-Enc": 0.7, "Decoder": 0.7}})
    schedule_step(500, tw, probe)
    schedule_step(1000, tw, probe)
    assert verify_history(tw)
    tw.history[1] = HistoryRow(tw.history[1].step, tw.history[1].task,
                               tw.history[1].m, tw.history[1].w * 1.01)
    assert not verify_history(tw)
