"""Gradient-consistency and attention-entropy measurement apparatus.

For a probe batch fed identically to two tasks, consistency is the cosine
between their flattened parameter gradients, reported per
(partition, sublayer kind) or per layer. Entropy reports are base-2
Shannon entropy of attention rows, padding keys excluded. A report row is
a NamedTuple whose fields are its CSV's columns (ConsistencyRow, EntropyRow).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .data import make_batch
# ce_loss and ctc_loss are looked up here by name (perfbench/tracer.py)
from .losses import ce_loss, ctc_loss, task_loss  # noqa: F401


class ConsistencyRow(NamedTuple):
    partition: str
    kind: str
    layer: int | None    # None for module-level concatenation
    mean: float
    std: float


def capture_gradients(model, batch, task: str, **forward_kw) -> dict:
    """Backward the task's own unweighted loss (no CL/consistency terms) and
    return {GroupKey: flat grad} for every touched parameter group;
    untouched groups are absent. forward_kw go to Model.forward_task."""
    model.zero_grad()
    try:
        task_loss(model.forward_task(batch, task, **forward_kw), batch).backward()
    except Exception as exc:
        raise RuntimeError(f"gradient capture failed for task {task!r}: {exc}") from exc
    vectors = {}
    for g in model.param_groups:
        if g.has_grads():
            vectors[g.key] = g.flat_grad()
    model.zero_grad()
    return vectors


def capture_instance_gradients(model, batch, task: str, **forward_kw) -> dict:
    """Each item's own ATTEN gradients from one forward and one backward.

    Every ATTEN group member (a Linear weight or bias) is swapped for a
    read-only per-example view with a leading batch axis, so the backward
    of the summed per-item losses leaves item b's gradient in its grad[b].
    Returns {partition: [B, n]}: row b holds the ATTEN gradients that
    capture_gradients reports for item b alone, the partition's groups
    concatenated in layer order. Partitions the task does not reach are
    left out."""
    groups = sorted((g for g in model.param_groups if g.key.kind == "ATTEN"),
                    key=lambda g: g.key.layer)
    saved = [(t, t.data) for g in groups for t in g.tensors]
    model.zero_grad()
    try:
        for t, data in saved:  # biases [d] become [B, 1, d]
            item = data if data.ndim == 2 else data[None]
            t.data = np.broadcast_to(item, (batch.batch_size,) + item.shape)
        task_loss(model.forward_task(batch, task, **forward_kw), batch,
                  per_item=True).backward()
        rows = {}
        for g in groups:
            if g.has_grads():
                rows.setdefault(g.key.partition, []).extend(
                    t.grad.reshape(batch.batch_size, -1) for t in g.tensors)
        return {part: np.concatenate(blocks, axis=1) for part, blocks in rows.items()}
    finally:
        for t, data in saved:
            t.data = data
        model.zero_grad()


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    if np.array_equal(u, v):
        return 1.0  # identical vectors: exactly 1, no sqrt round-off
    return float(np.dot(u, v) / (nu * nv))


def grad_consistency(grads_a: dict, grads_b: dict, *,
                     partition: str, kind: str, per_layer: bool = False):
    """Cosine between two capture_gradients results under a group filter.

    Module-level (default): concatenate all matching groups into one vector
    per side. per_layer=True: one cosine per layer index instead.
    Returns {layer_or_None: cosine}.
    """
    common = [k for k in grads_a
              if k in grads_b and k.partition == partition and k.kind == kind
              and k.layer >= 0]
    if not common:
        raise ValueError(f"the two gradients share no parameters under filter "
                         f"({partition}, {kind})")
    common.sort(key=lambda k: k.layer)
    if per_layer:
        return {k.layer: cosine(grads_a[k], grads_b[k]) for k in common}
    a = np.concatenate([grads_a[k] for k in common])
    b = np.concatenate([grads_b[k] for k in common])
    return {None: cosine(a, b)}


def consistency_protocol(model, task_pair, *, n: int, repeats: int, seed: int,
                         partitions=None, per_layer: bool = False,
                         probe_kwargs_a=None, probe_kwargs_b=None):
    """Averaged consistency over `repeats` draws of n samples of the model's corpus.

    task_pair: (task_a, task_b) e.g. ("asr", "st"). Returns ConsistencyRow
    list in (partition, kind, layer) order; partitions default to every
    partition the two tasks share, sorted. An MT side draws item j's input
    noise from the generator seeded (seed, 0xAB, repeat, j).
    """
    cosines: dict = {}  # (partition, kind, layer) -> one cosine per repeat, in row order
    for r in range(repeats):
        rng = np.random.default_rng((seed, 0xAB, r))
        batch = make_batch(model.corpus, rng.integers(0, 2**62, size=n))
        grads = []
        for task, kw in zip(task_pair, (probe_kwargs_a, probe_kwargs_b)):
            kw = dict(kw or {})
            if task == "mt":
                kw["mt_noise_rngs"] = [np.random.default_rng((seed, 0xAB, r, j)) for j in range(n)]
            grads.append(capture_gradients(model, batch, task, **kw))
        grads_a, grads_b = grads
        shared = partitions if partitions is not None else sorted(
            {k.partition for k in grads_a} & {k.partition for k in grads_b})
        for part in shared:
            for kind in ("ATTEN", "FFN"):
                try:
                    res = grad_consistency(grads_a, grads_b, partition=part,
                                           kind=kind, per_layer=per_layer)
                except ValueError:
                    continue
                for layer, value in res.items():  # ascending layers
                    cosines.setdefault((part, kind, layer), []).append(value)
    return [ConsistencyRow(part, kind, layer, float(np.mean(values)), float(np.std(values)))
            for (part, kind, layer), values in cosines.items()]


def attention_entropy(weights, query_mask=None, key_mask=None) -> float:
    """Mean base-2 entropy of attention rows for one layer.

    weights: [B, H, Lq, Lk] (rows sum to 1 within 1e-6 or we raise). Padding
    keys are excluded by renormalizing rows over valid keys; padding queries
    are excluded from the average. one-hot rows give 0 (0*log0 := 0).
    """
    w = np.asarray(weights, dtype=np.float64)
    B, H, Lq, Lk = w.shape
    if key_mask is None:
        key_mask = np.ones((B, Lk), dtype=bool)
    if query_mask is None:
        query_mask = np.ones((B, Lq), dtype=bool)
    sums = w.sum(axis=-1)
    valid_q = np.broadcast_to(query_mask[:, None, :], sums.shape)
    if np.any(np.abs(sums[valid_q] - 1.0) > 1e-6):
        raise ValueError("attention rows are not normalized within 1e-6")
    wk = w * key_mask[:, None, None, :]
    renorm = wk.sum(axis=-1, keepdims=True)
    p = np.divide(wk, renorm, out=np.zeros_like(wk), where=renorm > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log2(p), 0.0)
    ent = -plogp.sum(axis=-1)  # [B, H, Lq]
    return float(ent[valid_q].mean())


class EntropyRow(NamedTuple):
    layer: int
    stream: str
    entropy_bits: float


def stream_entropy_report(attention_weights, mask, stream: str):
    """Per-layer entropy rows for one encoder stream.

    attention_weights: list (per layer) of [B, H, L, L] arrays; mask is both
    the query and key validity mask."""
    return [EntropyRow(i, stream, attention_entropy(w, mask, mask))
            for i, w in enumerate(attention_weights)]
