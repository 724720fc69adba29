"""Three-partition toy network: acoustic encoder, textual encoder with
local-to-global extractors, and decoder, with the T-Enc and decoder shared
between the translation tasks.

Forward paths: speech and text each enter the T-Enc once, and one
teacher-forced `decode` serves ST (tgt), the `ce` ASR (src) and MT (tgt).
  speech   A-Enc -> CTC head, (shrink) -> T-Enc   encode_speech: st, asr/ce
  text     src + noise -> embed -> T-Enc          encode_text: mt
  asr/ctc  speech -> A-Enc -> CTC head (A-Enc parameters only)

The trainer encodes speech once per step: `asr_outputs` reads ASR off the
ST pass (its CTC log-probs, or the source decoded from its T-Enc memory).
A standalone `forward_task("asr")`, as the impact probes run it, encodes
the batch itself. Pad and BOS are those of the model's corpus.

Each projection is one `autograd.linear` node, each norm one
`autograd.affine_norm` node and each attention core one
`autograd.multi_head_attention` node (heads split, masked softmax and heads
merged inside it); its weights are an ndarray outside the graph, and only
the T-Enc returns them, for the entropy reports.

Its sizes come from the corpus: the frame width, the one symbol table both
sides share, and the CTC classes. A checkpoint records both configs;
`config.py` defines and checks them, and names the ASR variants.

A layer's parameters are its Tensor attributes and its sub-layers'
(`Layer`); the model's GroupKey groups must hold each of them exactly once.

The model carries a run's forward settings, `use_l2g` (the extractors),
`use_lbm` (the look-back) and `mt_noise_p` (MT's input noise), which
`apply_toggles` sets once per model; every forward reads them from there.
A new model holds those of the default toggles, a loaded one its own.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import struct
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autograd as ag
from . import shrink as shrink_mod
from .autograd import Tensor, GroupKey, ParamGroup
from .config import ASR_VARIANTS, CorpusConfig, ModelConfig, Toggles
from .data import SyntheticBatch, noise_inject, pad_sequences

CHECKPOINT_MAGIC = b"STLAB-CKPT-v1\n"
FORWARD_SETTINGS = ("use_l2g", "use_lbm", "mt_noise_p")  # set by apply_toggles, saved

TASKS = ("st", "asr", "mt")


@functools.lru_cache(maxsize=128)
def sinusoidal_positions(length: int, d_model: int) -> np.ndarray:
    """[length, d_model] position table, cached per shape and read-only."""
    pos = np.arange(length)[:, None]
    i = np.arange(d_model // 2)[None, :]
    angles = pos / np.power(10000.0, 2 * i / d_model)
    out = np.zeros((length, d_model))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    out.flags.writeable = False
    return out


class Layer:
    """A block of the network. Its parameters are its Tensor attributes and
    those of its sub-layers, lists of layers included."""

    @property
    def tensors(self):  # in the order the attributes were assigned
        out = []
        for value in vars(self).values():
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, Tensor):
                    out.append(item)
                elif isinstance(item, Layer):
                    out += item.tensors
        return out


class Linear(Layer):
    def __init__(self, rng, d_in, d_out):
        scale = np.sqrt(2.0 / (d_in + d_out))
        self.w = Tensor(rng.normal(scale=scale, size=(d_in, d_out)), requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x):
        return ag.linear(x, self.w, self.b)


class AffineNorm(Layer):
    """LayerNorm with learned gain/bias."""

    def __init__(self, d):
        self.gain = Tensor(np.ones(d), requires_grad=True)
        self.bias = Tensor(np.zeros(d), requires_grad=True)

    def __call__(self, x):
        return ag.affine_norm(x, self.gain, self.bias)


class MultiHeadAttention(Layer):
    def __init__(self, rng, d_model, n_heads):
        self.n_heads = n_heads
        self.wq = Linear(rng, d_model, d_model)
        self.wk = Linear(rng, d_model, d_model)
        self.wv = Linear(rng, d_model, d_model)
        self.wo = Linear(rng, d_model, d_model)

    def __call__(self, q_in, kv_in, bias):
        """bias: ndarray broadcastable to [B, H, Lq, Lk]. Returns (out,
        weights); the weights are an ndarray, read only by the reports."""
        ctx, w = ag.multi_head_attention(self.wq(q_in), self.wk(kv_in), self.wv(kv_in),
                                         self.n_heads, bias)
        return self.wo(ctx), w


class Ffn(Layer):
    def __init__(self, rng, d_model, d_hidden):
        self.w1 = Linear(rng, d_model, d_hidden)
        self.w2 = Linear(rng, d_hidden, d_model)

    def __call__(self, x):
        return self.w2(ag.relu(self.w1(x)))


class LbmParams(Layer):
    """Learned pieces of the look-back step: the shared linear map R and the
    fusion FFN with its entry norm."""

    def __init__(self, rng, d_model, ffn_dim):
        self.r_map = Tensor(rng.normal(scale=np.sqrt(1.0 / d_model),
                                       size=(d_model, d_model)), requires_grad=True)
        self.norm = AffineNorm(d_model)
        self.ffn = Ffn(rng, d_model, ffn_dim)


class EncoderLayer(Layer):
    """Pre-norm transformer encoder layer."""

    def __init__(self, rng, d_model, n_heads, ffn_dim):
        self.ln1 = AffineNorm(d_model)
        self.attn = MultiHeadAttention(rng, d_model, n_heads)
        self.ln2 = AffineNorm(d_model)
        self.ffn = Ffn(rng, d_model, ffn_dim)

    def __call__(self, x, bias):
        normed = self.ln1(x)
        h, w = self.attn(normed, normed, bias)
        a = x + h
        out = a + self.ffn(self.ln2(a))
        return out, a, w  # a is the attention sublayer output (post-residual)


class L2GExtractor(Layer):
    """x + PointwiseConv(DepthwiseConv(LayerNorm(x))) with a per-layer kernel."""

    def __init__(self, rng, d_model, kernel):
        self.kernel_size = kernel
        self.ln = AffineNorm(d_model)
        self.depthwise = Tensor(
            rng.normal(scale=1.0 / np.sqrt(kernel), size=(kernel, d_model)),
            requires_grad=True)
        self.pointwise = Linear(rng, d_model, d_model)

    def __call__(self, x, mask):
        h = ag.mul(self.ln(x), Tensor(mask[:, :, None].astype(np.float64)))
        h = ag.depthwise_conv1d(h, self.depthwise)
        return x + self.pointwise(h)


class TEncLayer(Layer):
    """L2G extractor followed by a transformer layer; both streams share it."""

    def __init__(self, rng, d_model, n_heads, ffn_dim, kernel):
        self.extractor = L2GExtractor(rng, d_model, kernel)
        self.transformer = EncoderLayer(rng, d_model, n_heads, ffn_dim)

    def __call__(self, x, mask, bias, use_extractor=True):
        ext = self.extractor(x, mask) if use_extractor else x
        out, attn_out, w = self.transformer(ext, bias)
        return out, ext, attn_out, w


class DecoderLayer(Layer):
    def __init__(self, rng, d_model, n_heads, ffn_dim):
        self.ln1 = AffineNorm(d_model)
        self.self_attn = MultiHeadAttention(rng, d_model, n_heads)
        self.ln2 = AffineNorm(d_model)
        self.cross_attn = MultiHeadAttention(rng, d_model, n_heads)
        self.ln3 = AffineNorm(d_model)
        self.ffn = Ffn(rng, d_model, ffn_dim)

    def __call__(self, x, memory, self_bias, cross_bias):
        normed = self.ln1(x)
        h, _ = self.self_attn(normed, normed, self_bias)
        x = x + h
        h, _ = self.cross_attn(self.ln2(x), memory, cross_bias)
        x = x + h
        return x + self.ffn(self.ln3(x))


@dataclass
class TaskOutputs:
    """Everything the losses and analysis need from one task forward."""
    logits: Tensor | None = None
    targets: np.ndarray | None = None
    ctc_log_probs: Tensor | None = None
    tenc_input: Tensor | None = None
    tenc_mask: np.ndarray | None = None
    memory: Tensor | None = None    # T-Enc output the decoder attends to
    extractor_outs: list = field(default_factory=list)
    attention_outs: list = field(default_factory=list)
    attention_weights: list = field(default_factory=list)
    length_ratio: float | None = None


def _key_bias(valid_mask):
    """[B, Lk] bool -> additive bias [B, 1, 1, Lk]."""
    return np.where(valid_mask[:, None, None, :], 0.0, ag.MASK_BIAS)


def _causal_bias(L):
    return np.where(np.tril(np.ones((L, L), dtype=bool)), 0.0, ag.MASK_BIAS)[None, None, :, :]


class Model(Layer):
    def __init__(self, config: ModelConfig, corpus: CorpusConfig):
        self.config, self.corpus = config, corpus
        rng = np.random.default_rng((config.seed, 0x90DE1))
        d, h, f = config.d_model, config.n_heads, config.ffn_dim

        self.in_proj = Linear(rng, corpus.frame_dim, d)
        self.a_layers = [EncoderLayer(rng, d, h, f) for _ in range(config.a_enc_layers)]
        self.a_final_ln = AffineNorm(d)
        self.ctc_head = Linear(rng, d, corpus.vocab_size + 1)
        self.lbm = LbmParams(rng, d, f)

        self.src_embed = Tensor(rng.normal(scale=0.1, size=(corpus.n_symbols, d)),
                                requires_grad=True)
        self.t_layers = [TEncLayer(rng, d, h, f, config.l2g_kernel(i))
                         for i in range(config.t_enc_layers)]
        self.t_final_ln = AffineNorm(d)

        self.tgt_embed = Tensor(rng.normal(scale=0.1, size=(corpus.n_symbols, d)),
                                requires_grad=True)
        self.dec_layers = [DecoderLayer(rng, d, h, f) for _ in range(config.dec_layers)]
        self.dec_final_ln = AffineNorm(d)
        self.out_proj = Linear(rng, d, corpus.n_symbols)

        self.param_groups = self._build_groups()
        self._check_coverage()
        self.apply_toggles(Toggles())

    def apply_toggles(self, toggles: Toggles) -> "Model":
        """Take a run's forward settings from its toggles. MT trains and is
        probed on speech-like noisy text only with the L2G extractors on."""
        self.use_l2g = toggles.use_l2g  # False bypasses the extractors (ablation)
        self.use_lbm = toggles.use_lbm  # False shrinks without the look-back (ablation)
        self.mt_noise_p = toggles.mt_noise_p if toggles.use_l2g else 0.0
        return self

    # -- parameter bookkeeping -------------------------------------------

    def _build_groups(self):
        groups = []

        def grp(partition, layer, kind, *parts):  # sub-layers and bare tensors
            tensors = [t for p in parts for t in (p.tensors if isinstance(p, Layer) else [p])]
            groups.append(ParamGroup(GroupKey(partition, layer, kind), tensors))

        # layer -1 holds io plumbing, -2 the shrink/look-back parameters
        grp("A-Enc", -1, "OTHER", self.in_proj, self.ctc_head, self.a_final_ln)
        grp("A-Enc", -2, "OTHER", self.lbm)
        for i, layer in enumerate(self.a_layers):
            grp("A-Enc", i, "ATTEN", layer.attn)
            grp("A-Enc", i, "FFN", layer.ffn)
            grp("A-Enc", i, "OTHER", layer.ln1, layer.ln2)

        grp("T-Enc", -1, "OTHER", self.src_embed, self.t_final_ln)
        for i, layer in enumerate(self.t_layers):
            grp("T-Enc", i, "ATTEN", layer.transformer.attn)
            grp("T-Enc", i, "FFN", layer.transformer.ffn)
            grp("T-Enc", i, "OTHER",
                layer.transformer.ln1, layer.transformer.ln2, layer.extractor)

        grp("Decoder", -1, "OTHER", self.tgt_embed, self.dec_final_ln, self.out_proj)
        for i, layer in enumerate(self.dec_layers):
            grp("Decoder", i, "ATTEN", layer.self_attn)
            grp("Decoder", i, "FFN", layer.ffn)
            grp("Decoder", i, "OTHER", layer.ln1, layer.ln2, layer.ln3, layer.cross_attn)
        return groups

    def _check_coverage(self):
        """Every tensor the model holds sits in exactly one group."""
        grouped = [id(t) for g in self.param_groups for t in g.tensors]
        if len(set(grouped)) < len(grouped):
            raise RuntimeError("a parameter is assigned to two groups")
        if set(grouped) != {id(t) for t in self.tensors}:
            raise RuntimeError("a parameter of the model is in no group")

    def parameters(self):
        return [t for g in self.param_groups for t in g.tensors]

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    # -- building blocks ---------------------------------------------------

    def _pos(self, L):
        return Tensor(sinusoidal_positions(L, self.config.d_model))

    def a_enc_forward(self, speech, speech_lens):
        """speech: [B, T, frame_dim] ndarray. Returns (features, valid mask)."""
        B, T, _ = speech.shape
        if T == 0:
            raise ValueError("a_enc_forward: empty time axis")
        mask = np.arange(T)[None, :] < np.asarray(speech_lens)[:, None]
        bias = _key_bias(mask)
        x = self.in_proj(Tensor(speech)) + self._pos(T)
        for layer in self.a_layers:
            x, _, _ = layer(x, bias)
        return self.a_final_ln(x), mask

    def ctc_log_probs(self, features):
        return ag.log_softmax(self.ctc_head(features))

    def t_enc_forward(self, out: TaskOutputs) -> TaskOutputs:
        """Shared textual encoder on out.tenc_input [B, L, d] under
        out.tenc_mask [B, L]. Fills out's memory and, per layer, its
        extractor outs, attention sublayer outs and attention weights;
        returns out."""
        x = out.tenc_input + self._pos(out.tenc_input.shape[1])
        bias = _key_bias(out.tenc_mask)
        for layer in self.t_layers:
            x, ext, attn_out, w = layer(x, out.tenc_mask, bias, use_extractor=self.use_l2g)
            out.extractor_outs.append(ext)
            out.attention_outs.append(attn_out)
            out.attention_weights.append(w)
        out.memory = self.t_final_ln(x)
        return out

    def embed_src(self, tokens):
        """Clean source embeddings; pad rows are still looked up but masked
        downstream."""
        safe = np.where(tokens == self.corpus.pad_id, 0, tokens)
        return ag.embedding(self.src_embed, safe)

    def decoder_forward(self, prefix, memory, memory_mask):
        """Decoder logits for prefix: int [B, L], BOS first, pad masked."""
        B, L = prefix.shape
        if L == 0:
            raise ValueError("decoder_forward: empty prefix")
        pad = self.corpus.pad_id
        x = ag.embedding(self.tgt_embed, np.where(prefix == pad, 0, prefix)) + self._pos(L)
        self_bias = _causal_bias(L) + _key_bias(prefix != pad)
        cross_bias = _key_bias(memory_mask)
        for layer in self.dec_layers:
            x = layer(x, memory, self_bias, cross_bias)
        return self.out_proj(self.dec_final_ln(x))

    # -- the two streams into the T-Enc, and the decode --------------------

    def encode_speech(self, batch: SyntheticBatch, use_shrink: bool) -> TaskOutputs:
        """A-Enc, CTC head, optional CTC-driven shrinking, then the T-Enc:
        the outputs carry the CTC log-probs and the measured length ratio."""
        feats, mask = self.a_enc_forward(batch.speech, batch.speech_lens)
        out = TaskOutputs(ctc_log_probs=self.ctc_log_probs(feats), tenc_input=feats,
                          tenc_mask=mask, length_ratio=1.0)
        if use_shrink:
            out.tenc_input, out.tenc_mask, _, out.length_ratio = shrink_mod.shrink_batch(
                feats, out.ctc_log_probs, batch.speech_lens, self.lbm, use_lbm=self.use_lbm)
        return self.t_enc_forward(out)

    def encode_text(self, batch: SyntheticBatch, mt_noise_rngs=None) -> TaskOutputs:
        """MT's stream: the source under the model's `mt_noise_p`, item b's
        noise drawn from `mt_noise_rngs[b]` (one generator for every item:
        draws follow item order), embedded, then the T-Enc."""
        if mt_noise_rngs is None:
            if self.mt_noise_p > 0:
                raise ValueError(f"forward_task('mt') at mt_noise_p={self.mt_noise_p} needs "
                                 f"mt_noise_rngs, one noise generator per item")
            mt_noise_rngs = [None] * batch.batch_size  # no noise, no draws
        if len(mt_noise_rngs) != batch.batch_size:
            raise ValueError(f"mt_noise_rngs holds {len(mt_noise_rngs)} generators "
                             f"for {batch.batch_size} items")
        tokens, lens = pad_sequences(
            [noise_inject(batch.src_tokens[b, : batch.src_lens[b]], self.mt_noise_p, rng)
             for b, rng in enumerate(mt_noise_rngs)], self.corpus.pad_id)
        mask = np.arange(tokens.shape[1])[None, :] < lens[:, None]
        return self.t_enc_forward(TaskOutputs(tenc_input=self.embed_src(tokens),
                                              tenc_mask=mask))

    def decode(self, enc: TaskOutputs, tokens, lens) -> TaskOutputs:
        """Teacher-forced decode of tokens [B, L] attending to enc.memory: the
        prefix is BOS, then the tokens shifted by one, pad past each length.
        Returns enc with those logits and the tokens as targets."""
        L = tokens.shape[1]
        prefix = np.full(tokens.shape, self.corpus.pad_id, dtype=np.int64)
        prefix[:, 0] = self.corpus.bos_id
        prefix[:, 1:] = tokens[:, :-1]
        prefix[np.arange(L)[None, :] >= lens[:, None]] = self.corpus.pad_id
        enc.logits = self.decoder_forward(prefix, enc.memory, enc.tenc_mask)
        enc.targets = tokens
        return enc

    def asr_outputs(self, speech: TaskOutputs, batch: SyntheticBatch,
                    asr_variant: str) -> TaskOutputs:
        """ASR outputs on already-encoded speech (an ST forward's outputs or
        encode_speech's), leaving `speech` as it is: its CTC log-probs for
        `ctc`, the source decoded from its T-Enc memory for `ce`. The `ctc`
        outputs carry no logits, not even an ST pass's, since `task_loss`
        reads CE off any logits."""
        if asr_variant not in ASR_VARIANTS:
            raise ValueError(f"unknown asr_variant {asr_variant!r}")
        if asr_variant == "ce":
            return self.decode(dataclasses.replace(speech, ctc_log_probs=None),
                               batch.src_tokens, batch.src_lens)
        return dataclasses.replace(speech, logits=None, targets=batch.src_tokens)

    # -- task forwards -------------------------------------------------------

    def forward_task(self, batch: SyntheticBatch, task: str, *,
                     asr_variant: str = "ctc", use_shrink: bool = False,
                     mt_noise_rngs: list | None = None) -> TaskOutputs:
        """One task's forward pass; MT's noise as in encode_text."""
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")
        if task == "mt":
            return self.decode(self.encode_text(batch, mt_noise_rngs),
                               batch.tgt_tokens, batch.tgt_lens)
        if task == "asr" and asr_variant == "ctc":  # the CTC head reads only the A-Enc
            feats, _ = self.a_enc_forward(batch.speech, batch.speech_lens)
            return self.asr_outputs(TaskOutputs(ctc_log_probs=self.ctc_log_probs(feats)),
                                    batch, asr_variant)
        speech = self.encode_speech(batch, use_shrink)
        if task == "asr":
            return self.asr_outputs(speech, batch, asr_variant)
        return self.decode(speech, batch.tgt_tokens, batch.tgt_lens)

    def greedy_decode(self, batch: SyntheticBatch, *,
                      use_shrink: bool = False) -> np.ndarray:
        """Greedy autoregressive ST decode for exactly tgt_lens steps."""
        enc = self.encode_speech(batch, use_shrink)
        memory = enc.memory.detach()
        L = int(batch.tgt_lens.max())
        # BOS, then each step's prediction, which the next step reads
        seq = np.full((batch.batch_size, L + 1), self.corpus.pad_id, dtype=np.int64)
        seq[:, 0] = self.corpus.bos_id
        for i in range(L):
            logits = self.decoder_forward(seq[:, : i + 1], memory, enc.tenc_mask)
            seq[:, i + 1] = np.argmax(logits.data[:, i, :], axis=-1)
        return np.where(np.arange(L)[None, :] < batch.tgt_lens[:, None], seq[:, 1:],
                        self.corpus.pad_id)


def save_checkpoint(path, model: Model, extra_meta=None, extra_buffers=None):
    """Versioned binary: magic, JSON header, then raw float64 buffers: the
    parameters in group order, at the shapes the header's configs give
    them, then the extra buffers sorted by name, with their shapes in the
    header; and a trailer: the sha256 digest of all the bytes before it.

    Written to `<path>.tmp` and moved onto `path`, so a write that fails
    part-way leaves any checkpoint already at `path` as it was."""
    extra_meta = extra_meta or {}
    extra_buffers = extra_buffers or {}
    extra_names = sorted(extra_buffers)
    header = {
        "model_config": asdict(model.config),
        "corpus": asdict(model.corpus),
        "forward": {name: getattr(model, name) for name in FORWARD_SETTINGS},
        "extra_buffers": {n: list(np.asarray(extra_buffers[n]).shape) for n in extra_names},
        "meta": extra_meta,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    tmp = f"{os.fspath(path)}.tmp"
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            def write(chunk):
                fh.write(chunk)
                digest.update(chunk)

            write(CHECKPOINT_MAGIC)
            write(struct.pack("<Q", len(blob)))
            write(blob)
            for t in model.parameters():
                write(np.ascontiguousarray(t.data, dtype=np.float64).tobytes())
            for n in extra_names:
                write(np.ascontiguousarray(extra_buffers[n], dtype=np.float64).tobytes())
            fh.write(digest.digest())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Returns (model, meta, extra_buffers), the model built from the model
    and corpus configs its header records and set to its forward settings.
    Raises ValueError naming the file when it is not a checkpoint, or when
    its trailer does not match the bytes before it (cut short, extended or
    altered anywhere), before parsing any of them; and when a header is
    malformed, a section of it does not hold exactly its fields, or the
    buffers its configs and header declare do not fill the file exactly."""
    with open(path, "rb") as fh:
        data = fh.read()
    pos, trailer = 0, hashlib.sha256().digest_size

    def read(n, what):
        nonlocal pos
        if len(data) - pos < n:
            raise ValueError(f"truncated: {what} needs {n} bytes, {len(data) - pos} left")
        pos += n
        return data[pos - n:pos]

    def read_array(shape, what):
        n = int(np.prod(shape)) if shape else 1
        return np.frombuffer(read(8 * n, what), dtype=np.float64).reshape(shape)

    def section(name, cls, fields=()):  # cls from header[name], which holds exactly its fields
        if odd := set(header[name]) ^ set(fields or asdict(cls())):
            raise ValueError(f"header {name} lacks or adds the fields {sorted(odd)}")
        return cls(**header[name])

    try:
        if read(len(CHECKPOINT_MAGIC), "magic") != CHECKPOINT_MAGIC:
            raise ValueError("not a checkpoint file")
        if (len(data) < pos + trailer
                or hashlib.sha256(data[:-trailer]).digest() != data[-trailer:]):
            raise ValueError("sha256 trailer does not match: the file is cut short, "
                             "extended or corrupt")
        data = data[:-trailer]
        (hlen,) = struct.unpack("<Q", read(8, "header length"))
        header = json.loads(read(hlen, "header").decode())
        model = Model(section("model_config", ModelConfig), section("corpus", CorpusConfig))
        model.apply_toggles(section("forward", Toggles, FORWARD_SETTINGS))
        for i, t in enumerate(model.parameters()):
            t.data[...] = read_array(t.data.shape, f"parameter {i}")
        extra = {name: read_array(shape, f"buffer {name}").copy()
                 for name, shape in header["extra_buffers"].items()}
        if pos != len(data):
            raise ValueError(f"{len(data) - pos} bytes after its last buffer")
        return model, header["meta"], extra
    except KeyError as exc:
        raise ValueError(f"checkpoint {path}: header lacks {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from exc
