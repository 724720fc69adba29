"""Run configuration: strict JSON (de)serialization of every knob a run needs.

Unknown keys are rejected so a typo in a config file fails loudly instead
of silently training with a default.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .data import CorpusConfig
from .model import ModelConfig, ASR_VARIANTS


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SchedulerConfig:
    s_asr: float = 500.0
    s_mt: float = 1000.0
    update_every: int = 500
    prune_threshold: float = 0.1
    k: int = 16                      # probe instances per impact measurement
    exponent_mode: str = "absolute"  # Eq.-literal absolute step, or "delta"


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


@dataclass(frozen=True)
class Toggles:
    use_asr: bool = True
    use_mt: bool = True
    use_cl: bool = True
    use_lbm: bool = True
    use_l2g: bool = True
    shrink_warmup_fraction: float = 0.1   # >= 1.0 disables shrinking entirely
    mt_noise_p: float = 0.2
    asr_variant: str = "ctc"

    def __post_init__(self):
        if self.asr_variant not in ASR_VARIANTS:
            raise ConfigError(f"asr_variant must be one of {ASR_VARIANTS}")

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
        m, c = self.model, self.corpus
        if m.frame_dim != c.frame_dim:
            raise ConfigError("model.frame_dim must match corpus.frame_dim")
        if m.vocab_size_src != c.n_symbols or m.vocab_size_tgt != c.n_symbols:
            raise ConfigError(
                f"model vocab sizes must equal corpus symbol count ({c.n_symbols})")
        if m.ctc_classes != c.vocab_size + 1:
            raise ConfigError("model.ctc_classes must be corpus.vocab_size + 1")


def default_config(**training_overrides) -> RunConfig:
    """A consistent desk-scale config; keyword args patch training fields."""
    corpus = CorpusConfig()
    model = ModelConfig(frame_dim=corpus.frame_dim,
                        vocab_size_src=corpus.n_symbols,
                        vocab_size_tgt=corpus.n_symbols,
                        ctc_classes=corpus.vocab_size + 1)
    training = TrainingConfig(**training_overrides) if training_overrides else TrainingConfig()
    return RunConfig(corpus=corpus, model=model, training=training)


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
    kwargs = {name: _build(cls, data[name], name)
              for name, cls in _SECTIONS.items() if name in data}
    try:
        return RunConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
