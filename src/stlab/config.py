"""Run configuration: the five sections of a run config, each field's type
(its annotation) and range (a rule next to its default), checked whenever a
section is built, and strict JSON (de)serialization of every knob a run needs.

Unknown keys are rejected so a typo in a config file fails loudly instead
of silently training with a default.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field


class ConfigError(ValueError):
    pass


ASR_VARIANTS = ("ctc", "ce")

# A field's rule, (test, what the test asks); NaN fails every test.
_POSITIVE = (lambda v: v > 0, "positive")
_UNIT = (lambda v: 0 <= v < 1, "in [0, 1)")
_FINITE_NONNEG = (lambda v: 0 <= v < math.inf, "finite and >= 0")
_ASR_VARIANT = (lambda v: v in ASR_VARIANTS, f"one of {ASR_VARIANTS}")

# The types a field takes, by its annotation. A bool is an int to isinstance,
# but only a bool field takes one.
_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def _ruled(default, rule):
    return field(default=default, metadata={"rule": rule})


def _check(section):
    """Test each field of `section` against its annotated type, then its rule."""
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        if not isinstance(value, _TYPES[f.type]) or isinstance(value, bool) != (f.type == "bool"):
            raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
        test, what = f.metadata.get("rule", (None, None))
        if test and not test(value):
            raise ConfigError(f"{f.name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class CorpusConfig:
    vocab_size: int = _ruled(20, _POSITIVE)       # content tokens, excluding the blank
    max_src_len: int = _ruled(8, _POSITIVE)
    expansion_min: int = _ruled(2, _POSITIVE)     # frames per token
    expansion_max: int = _ruled(4, _POSITIVE)
    blank_insert_prob: float = _ruled(0.2, _UNIT)
    frame_noise_std: float = _ruled(0.1, _FINITE_NONNEG)
    frame_dim: int = _ruled(16, _POSITIVE)
    seed: int = _ruled(0, _FINITE_NONNEG)

    def __post_init__(self):
        _check(self)
        if self.expansion_min > self.expansion_max:
            raise ConfigError("expansion_min must be <= expansion_max")

    @property
    def pad_id(self):
        return self.vocab_size + 1

    @property
    def bos_id(self):
        return self.vocab_size + 2

    @property
    def n_symbols(self):
        # blank + content + pad + bos
        return self.vocab_size + 3


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = _ruled(32, _POSITIVE)
    n_heads: int = _ruled(2, _POSITIVE)
    ffn_dim: int = _ruled(64, _POSITIVE)
    a_enc_layers: int = _ruled(2, _POSITIVE)      # the scheduler judges ASR by its ATTEN groups
    t_enc_layers: int = _ruled(2, _POSITIVE)      # the consistency loss needs one
    dec_layers: int = _ruled(2, _POSITIVE)        # cross-attention carries ST's gradient back
    l2g_base_kernel: int = _ruled(5, _POSITIVE)   # kernel of T-Enc layer 0
    l2g_stride: int = _ruled(3, _FINITE_NONNEG)   # kernel growth per layer
    seed: int = _ruled(0, _FINITE_NONNEG)

    def __post_init__(self):
        _check(self)
        if self.d_model % self.n_heads != 0:
            raise ConfigError("d_model must be divisible by n_heads")
        if self.l2g_base_kernel % 2 != 1:
            raise ConfigError("l2g_base_kernel must be odd")

    def l2g_kernel(self, layer: int) -> int:
        return self.l2g_base_kernel + self.l2g_stride * layer


@dataclass(frozen=True)
class SchedulerConfig:
    s_asr: float = _ruled(500.0, _POSITIVE)   # smoothing s in w <- w * m^(u/s), u the global step
    s_mt: float = _ruled(1000.0, _POSITIVE)
    update_every: int = _ruled(500, _POSITIVE)
    prune_threshold: float = _ruled(0.1, _FINITE_NONNEG)
    k: int = _ruled(16, _POSITIVE)            # probe instances per impact measurement

    __post_init__ = _check

    def smoothing(self, task: str) -> float:
        return {"asr": self.s_asr, "mt": self.s_mt}[task]


@dataclass(frozen=True)
class TrainingConfig:
    steps: int = _ruled(4000, _POSITIVE)
    batch_size: int = _ruled(32, _POSITIVE)
    learning_rate: float = _ruled(1e-3, _POSITIVE)
    beta1: float = _ruled(0.9, _UNIT)
    beta2: float = _ruled(0.98, _UNIT)
    warmup_fraction: float = _ruled(0.1, _FINITE_NONNEG)
    seed: int = _ruled(7, _FINITE_NONNEG)
    log_every: int = _ruled(1, _POSITIVE)
    eval_every: int = _ruled(100, _POSITIVE)
    eval_batch_size: int = _ruled(16, _POSITIVE)
    checkpoint_every: int = _ruled(1000, _POSITIVE)

    __post_init__ = _check


@dataclass(frozen=True)
class Toggles:
    use_asr: bool = True
    use_mt: bool = True
    use_cl: bool = True
    use_lbm: bool = True
    use_l2g: bool = True
    shrink_warmup_fraction: float = _ruled(0.1, _FINITE_NONNEG)   # >= 1.0 disables shrinking
    mt_noise_p: float = _ruled(0.2, _UNIT)
    asr_variant: str = _ruled("ctc", _ASR_VARIANT)

    __post_init__ = _check


@dataclass(frozen=True)
class RunConfig:
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    toggles: Toggles = field(default_factory=Toggles)

    def __post_init__(self):
        steps = self.training.steps
        for name, frac in (("warmup_fraction", self.training.warmup_fraction),
                           ("shrink_warmup_fraction", self.toggles.shrink_warmup_fraction)):
            if not math.isfinite(frac * steps):  # train rounds it to a step with int()
                raise ConfigError(f"{name} x steps must be finite, got {frac} x {steps}")


def default_config(**training_overrides) -> RunConfig:
    """The desk-scale config; keyword args patch training fields."""
    return RunConfig(training=TrainingConfig(**training_overrides))


_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)}


def _build(cls, data, path):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    try:
        return cls(**data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown top-level sections {sorted(unknown)}")
    return RunConfig(**{name: _build(cls, data[name], name)
                        for name, cls in _SECTIONS.items() if name in data})


def config_to_json(config: RunConfig) -> str:
    """Canonical document: sorted keys, two-space indent, trailing newline."""
    return json.dumps(dataclasses.asdict(config), sort_keys=True, indent=2) + "\n"


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def save_config(config: RunConfig, path) -> None:
    with open(path, "w") as fh:
        fh.write(config_to_json(config))


def with_seed(config: RunConfig, seed: int) -> RunConfig:
    """Override the corpus, model and training seeds (CLI --seed)."""
    return dataclasses.replace(config, **{
        name: dataclasses.replace(getattr(config, name), seed=seed)
        for name in ("corpus", "model", "training")})
