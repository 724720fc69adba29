"""Adam on flat moment buffers: bitwise equal to the per-tensor update,
resumable through its state buffers, and refusing non-finite gradients."""

import numpy as np
import pytest

from stlab.autograd import Tensor
from stlab.optim import Adam
from unfused_reference import PerTensorAdam

SHAPES = [(4, 3), (3,), (2, 2, 3), (1,), (5,), (3, 4)]
SETTINGS = dict(lr=3e-3, beta1=0.9, beta2=0.98, warmup_steps=5)


def make_params(rng):
    return [Tensor(rng.normal(size=s), requires_grad=True) for s in SHAPES]


def set_grads(params, grads):
    for p, g in zip(params, grads):
        p.grad = None if g is None else g.copy()


def assert_same_state(opt, ref):
    """Equal parameters, and flat moments equal to the reference's
    per-tensor moments concatenated in parameter order."""
    assert opt.t == ref.t
    for p, q in zip(opt.params, ref.params):
        np.testing.assert_array_equal(p.data, q.data)
    np.testing.assert_array_equal(opt.m, np.concatenate([m.ravel() for m in ref.m]))
    np.testing.assert_array_equal(opt.v, np.concatenate([v.ravel() for v in ref.v]))


def test_flat_adam_is_the_per_tensor_update_bit_for_bit():
    """25 steps with a changing set of parameters without a gradient (none,
    some, a leading and a trailing one, all), and a state_buffers round trip
    into a fresh optimizer at step 12: parameters and moments stay equal to
    the per-tensor reference in every bit."""
    rng = np.random.default_rng(40)
    params = make_params(np.random.default_rng(41))
    ref_params = make_params(np.random.default_rng(41))
    opt, ref = Adam(params, **SETTINGS), PerTensorAdam(ref_params, **SETTINGS)
    patterns = [[], [1], [0, 5], [2, 3], [0, 1, 2, 3, 4, 5], [5], [0, 2, 4]]
    for step in range(25):
        missing = patterns[step % len(patterns)]
        grads = [None if i in missing else rng.normal(size=s) * 10.0 ** rng.integers(-4, 4)
                 for i, s in enumerate(SHAPES)]
        set_grads(params, grads)
        set_grads(ref_params, grads)
        opt.step()
        ref.step()
        assert_same_state(opt, ref)
        if step == 12:
            saved = {k: v.copy() for k, v in opt.state_buffers().items()}
            opt = Adam(params, **SETTINGS)
            opt.load_state_buffers(saved)
            assert_same_state(opt, ref)
            for name, buf in opt.state_buffers().items():
                np.testing.assert_array_equal(buf, saved[name])


def test_loaded_moments_stay_views_of_the_flat_state():
    """Loading copies into the flat moments the update runs on: the state
    buffers are those moments, and no loaded buffer is aliased. A moment
    buffer that is missing, or not one entry per parameter entry, raises."""
    params = make_params(np.random.default_rng(42))
    opt = Adam(params, **SETTINGS)
    m, v = opt.m, opt.v
    assert sorted(opt.state_buffers()) == ["opt_m", "opt_t", "opt_v"]
    assert opt.state_buffers()["opt_m"] is m and opt.state_buffers()["opt_v"] is v
    assert m.shape == v.shape == (sum(p.data.size for p in params),)
    buffers = {k: np.full_like(b, 0.5) for k, b in opt.state_buffers().items()}
    buffers["opt_t"] = np.array([3.0])
    opt.load_state_buffers(buffers)
    assert opt.t == 3 and opt.m is m and opt.v is v
    assert not any(np.shares_memory(m, b) or np.shares_memory(v, b) for b in buffers.values())
    np.testing.assert_array_equal(m, 0.5)
    np.testing.assert_array_equal(v, 0.5)
    with pytest.raises(ValueError, match="no opt_v buffer"):
        opt.load_state_buffers({k: b for k, b in buffers.items() if k != "opt_v"})
    with pytest.raises(ValueError, match="no opt_m buffer of 45 entries"):
        opt.load_state_buffers({**buffers, "opt_m": np.zeros(1)})


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_gradient_raises_before_any_state_changes(bad):
    rng = np.random.default_rng(43)
    params = make_params(rng)
    opt = Adam(params, **SETTINGS)
    set_grads(params, [rng.normal(size=s) for s in SHAPES])
    opt.step()
    before = [p.data.copy() for p in params] + [opt.m.copy(), opt.v.copy()]
    grads = [rng.normal(size=s) for s in SHAPES]
    grads[1] = None
    grads[4][2] = bad  # in the second run of parameters with a gradient
    set_grads(params, grads)
    with pytest.raises(FloatingPointError, match="parameter 4"):
        opt.step()
    assert opt.t == 1
    for now, was in zip([p.data for p in params] + [opt.m, opt.v], before):
        np.testing.assert_array_equal(now, was)
