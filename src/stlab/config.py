"""Run configuration: strict JSON (de)serialization of every knob a run needs.

Unknown keys are rejected so a typo in a config file fails loudly instead
of silently training with a default.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .data import CorpusConfig
from .model import ModelConfig, ASR_VARIANTS


class ConfigError(ValueError):
    pass


def _require_positive(section, *names):
    for name in names:
        if not getattr(section, name) > 0:  # NaN fails too
            raise ConfigError(f"{name} must be positive, got {getattr(section, name)}")


def _require_in(section, lo, hi, *names):
    for name in names:
        if not lo <= getattr(section, name) < hi:  # NaN fails too
            raise ConfigError(f"{name} must be in [{lo}, {hi}), got {getattr(section, name)}")


@dataclass(frozen=True)
class SchedulerConfig:
    s_asr: float = 500.0   # smoothing s of a task's update w <- w * m^(u/s), u the global step
    s_mt: float = 1000.0
    update_every: int = 500
    prune_threshold: float = 0.1
    k: int = 16            # probe instances per impact measurement

    def __post_init__(self):
        _require_positive(self, "s_asr", "s_mt", "update_every", "k")

    def smoothing(self, task: str) -> float:
        return {"asr": self.s_asr, "mt": self.s_mt}[task]


@dataclass(frozen=True)
class TrainingConfig:
    steps: int = 4000
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.98
    warmup_fraction: float = 0.1
    seed: int = 7
    log_every: int = 1
    eval_every: int = 100
    eval_batch_size: int = 16
    checkpoint_every: int = 1000

    def __post_init__(self):
        _require_positive(self, "steps", "batch_size", "learning_rate", "eval_batch_size",
                          "log_every", "eval_every", "checkpoint_every")
        _require_in(self, 0, 1, "beta1", "beta2")
        _require_in(self, 0, float("inf"), "warmup_fraction")  # finite


@dataclass(frozen=True)
class Toggles:
    use_asr: bool = True
    use_mt: bool = True
    use_cl: bool = True
    use_lbm: bool = True
    use_l2g: bool = True
    shrink_warmup_fraction: float = 0.1   # finite, >= 0; >= 1.0 disables shrinking
    mt_noise_p: float = 0.2
    asr_variant: str = "ctc"

    def __post_init__(self):
        if self.asr_variant not in ASR_VARIANTS:
            raise ConfigError(f"asr_variant must be one of {ASR_VARIANTS}")
        _require_in(self, 0, 1, "mt_noise_p")
        _require_in(self, 0, float("inf"), "shrink_warmup_fraction")  # finite

    def mt_noise(self) -> float:
        """The MT input noise the run trains and probes with: mt_noise_p,
        or 0 with the L2G extractors off."""
        return self.mt_noise_p if self.use_l2g else 0.0


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


_SECTIONS = {"corpus": CorpusConfig, "model": ModelConfig,
             "scheduler": SchedulerConfig, "training": TrainingConfig,
             "toggles": Toggles}


def _build(cls, data, path):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    for f in dataclasses.fields(cls):  # a bool is an int to isinstance
        if f.name in data and f.type in (int, "int") and type(data[f.name]) is not int:
            raise ConfigError(f"{path}.{f.name} must be an integer, got {data[f.name]!r}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
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
    """Override the training and corpus seeds (CLI --seed)."""
    return RunConfig(
        corpus=dataclasses.replace(config.corpus, seed=seed),
        model=dataclasses.replace(config.model, seed=seed),
        scheduler=config.scheduler,
        training=dataclasses.replace(config.training, seed=seed),
        toggles=config.toggles,
    )
