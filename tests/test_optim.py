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
    assert opt.t == ref.t
    for p, q, m, rm, v, rv in zip(opt.params, ref.params, opt.m, ref.m, opt.v, ref.v):
        np.testing.assert_array_equal(p.data, q.data)
        np.testing.assert_array_equal(m, rm)
        np.testing.assert_array_equal(v, rv)


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
    params = make_params(np.random.default_rng(42))
    opt = Adam(params, **SETTINGS)
    buffers = {k: np.full_like(v, 0.5) for k, v in opt.state_buffers().items()}
    buffers["opt_t"] = np.array([3.0])
    opt.load_state_buffers(buffers)
    assert opt.t == 3
    for m, v in zip(opt.m, opt.v):
        assert np.shares_memory(m, opt._m) and np.shares_memory(v, opt._v)
    np.testing.assert_array_equal(opt._m, 0.5)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_gradient_raises_before_any_state_changes(bad):
    rng = np.random.default_rng(43)
    params = make_params(rng)
    opt = Adam(params, **SETTINGS)
    set_grads(params, [rng.normal(size=s) for s in SHAPES])
    opt.step()
    before = ([p.data.copy() for p in params], [m.copy() for m in opt.m],
              [v.copy() for v in opt.v])
    grads = [rng.normal(size=s) for s in SHAPES]
    grads[1] = None
    grads[4][2] = bad  # in the second run of parameters with a gradient
    set_grads(params, grads)
    with pytest.raises(FloatingPointError, match="parameter 4"):
        opt.step()
    assert opt.t == 1
    for now, was in zip((params, opt.m, opt.v), before):
        for a, b in zip(now, was):
            np.testing.assert_array_equal(getattr(a, "data", a), b)
