"""CTC from both ends: the forward algorithm against brute-force alignment
enumeration, then the greedy path driving length compression with the
look-back attention.

Run:  python demos/03_ctc_and_shrinking.py
"""

import numpy as np

from stlab.autograd import Tensor
from stlab.losses import ctc_loss, ctc_loss_bruteforce
from stlab.model import LbmParams
from stlab.shrink import ctc_greedy_path, shrink_sequence

rng = np.random.default_rng(3)

# --- the loss ----------------------------------------------------------
T, V = 5, 4
log_probs = Tensor(np.log(rng.dirichlet(np.ones(V), size=T)), requires_grad=True)
target = np.array([2, 1])

fast = ctc_loss(log_probs, target)
slow = ctc_loss_bruteforce(log_probs, target)
print(f"forward algorithm : {fast.item():.10f}")
print(f"path enumeration  : {slow:.10f}  ({V}^{T} = {V**T} labellings)")

fast.backward()
print(f"gradient row sums (softmax direction): {log_probs.grad.sum(axis=1).round(6)}")

# --- the shrinking -------------------------------------------------------
print("\nshrinking a 10-frame sequence:")
d = 6
feats = Tensor(rng.normal(size=(10, d)), requires_grad=True)
tokens = np.array([1, 1, 1, 0, 2, 2, 0, 0, 3, 3])
lp = np.full((10, V), -8.0)
lp[np.arange(10), tokens] = -0.05
print(f"greedy path     : {ctc_greedy_path(lp).tokens.tolist()}")

lbm = LbmParams(np.random.default_rng(0), d, 12)
shrunk, fused, ratio = shrink_sequence(feats, Tensor(lp), lbm)
print(f"merged tokens   : {shrunk.unique_tokens.tolist()}  (blanks kept)")
print(f"representatives : {shrunk.origin_index.tolist()}")
print(f"boundaries      : {shrunk.boundary.tolist()}")
print(f"decompression   : {shrunk.decompress().tolist()}")
print(f"fused output    : {fused.shape}  (ratio {ratio:.2f})")

fused.sum().backward()
reached = np.flatnonzero(np.linalg.norm(feats.grad, axis=1) > 0)
print(f"frames reached by the backward pass: {reached.tolist()} "
      f"(every frame, thanks to the look-back windows)")
