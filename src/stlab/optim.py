"""Adam with linear warmup followed by inverse-sqrt decay.

The moments `m` and `v` live in one flat buffer each, parameter i's
entries after those of parameters 0 .. i-1. A step updates each maximal
run of consecutive parameters that hold a gradient with one elementwise
expression over the run's slice, in the same order of operations as a
per-tensor update, so the result is bit for bit the same. A parameter
without a gradient keeps its data and moments. The checkpoint buffers are
`opt_t`, `opt_m` and `opt_v`.
"""

from __future__ import annotations

import itertools

import numpy as np

ADAM_EPS = 1e-9  # added to sqrt(v) in the update's denominator


def lr_at(step: int, base_lr: float, warmup_steps: int) -> float:
    warmup_steps = max(1, warmup_steps)
    if step <= warmup_steps:
        return base_lr * step / warmup_steps
    return base_lr * np.sqrt(warmup_steps / step)


class Adam:
    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.98, warmup_steps=1):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = beta1, beta2
        self.warmup_steps = warmup_steps
        self.t = 0
        self._offsets = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        n = self._offsets[-1]
        # moments, and two scratch buffers the update reuses every step
        self.m, self.v, self._g, self._tmp = np.zeros((4, n))
        self._steps = [self._g[lo:hi].reshape(p.data.shape)
                       for p, lo, hi in zip(self.params, self._offsets, self._offsets[1:])]

    def step(self):
        """One Adam update. Raises FloatingPointError, before any state
        changes, when a gradient holds a non-finite value."""
        off = self._offsets
        runs, first = [], 0  # [first, stop) ranges of parameters with a grad
        for has_grad, group in itertools.groupby(self.params, lambda p: p.grad is not None):
            stop = first + len(list(group))
            if has_grad:
                runs.append((first, stop))
            first = stop
        for first, stop in runs:
            g = self._g[off[first]:off[stop]]
            np.concatenate([p.grad.ravel() for p in self.params[first:stop]], out=g)
            if not np.isfinite(g).all():
                bad = next(i for i in range(first, stop)
                           if not np.isfinite(self.params[i].grad).all())
                raise FloatingPointError(f"non-finite gradient in parameter {bad}")
        self.t += 1
        lr = lr_at(self.t, self.lr, self.warmup_steps)
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for first, stop in runs:
            lo, hi = off[first], off[stop]
            g, tmp, m, v = self._g[lo:hi], self._tmp[lo:hi], self.m[lo:hi], self.v[lo:hi]
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
            m *= b1
            np.multiply(g, 1 - b2, out=tmp)
            tmp *= g
            g *= 1 - b1
            m += g
            v *= b2
            v += tmp
            # step = lr (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(m, bc1, out=g)
            g *= lr
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += ADAM_EPS
            g /= tmp
            for p, step in zip(self.params[first:stop], self._steps[first:stop]):
                p.data -= step

    # -- resume support ----------------------------------------------------

    def state_buffers(self):
        return {"opt_t": np.array([float(self.t)]), "opt_m": self.m, "opt_v": self.v}

    def load_state_buffers(self, buffers):
        """Copies into the flat moments. Raises ValueError when a moment
        buffer is missing or does not hold one entry per parameter entry,
        or the step count is missing or does not hold exactly one."""
        for name, flat in (("opt_m", self.m), ("opt_v", self.v)):
            buf = buffers.get(name)
            if buf is None or buf.shape != flat.shape:
                raise ValueError(f"no {name} buffer of {flat.size} entries, one per "
                                 f"parameter entry")
            flat[...] = buf
        if buffers.get("opt_t", np.empty(0)).shape != (1,):
            raise ValueError("no opt_t buffer of exactly one entry, the step count")
        self.t = int(buffers["opt_t"][0])
