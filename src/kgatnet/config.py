"""The config schema: every key's name, default, type and range.

`parse_config` reads a flat ``key = value`` text into a `PipelineConfig`
and its classifier and embedder records, `TrainConfig` and `EmbedConfig`.
A key sets every field of its name, so `seed` seeds all three, and each
record checks its fields' ranges, so an error names the key to fix.
Standard library only, so that parsing a config and deciding that a stage
has nothing to do never import numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

TRAITS = ("O", "C", "E", "A", "N")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 3e-4
    patience: int = 10
    validation_split: float = 0.1
    heads_per_layer: int = 8
    hidden_units: int = 128
    dense_units: int = 128
    attention_layers: int = 5
    weight_decay: float = 0.0
    seed: int = 42
    enriched: bool = False

    def __post_init__(self):
        for name in ("epochs", "batch_size", "heads_per_layer", "hidden_units",
                     "dense_units", "attention_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if not 0.0 < self.validation_split < 1.0:
            raise ConfigError("validation_split must be in (0, 1)")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        # numpy's generators, which `seed` seeds, take no negative seed
        for name in ("weight_decay", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")


@dataclass(frozen=True)
class EmbedConfig:
    embed_dim: int = 500
    walk_depth: int = 5
    walks_per_node: int = 5
    window: int = 5
    negatives: int = 5
    embed_epochs: int = 5
    embed_learning_rate: float = 0.025
    embed_min_learning_rate: float = 1e-4
    seed: int = 42

    def __post_init__(self):
        for name in ("embed_dim", "walk_depth", "walks_per_node", "window", "embed_epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        for name in ("negatives", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not 0 < self.embed_min_learning_rate <= self.embed_learning_rate:
            raise ConfigError("need 0 < embed_min_learning_rate <= embed_learning_rate")


@dataclass(frozen=True)
class PipelineConfig:
    corpus: Path
    dump: Path | None
    endpoint: str | None
    output_dir: Path
    cache_dir: Path
    stopwords: Path | None
    lemmas: Path | None
    gazetteer: Path | None
    seed: int
    protocol: str
    cv_folds: int
    test_fraction: float
    predicate_prefixes: tuple[str, ...]
    train: TrainConfig
    embed: EmbedConfig

    def __post_init__(self):
        if (self.dump is None) == (self.endpoint is None):
            raise ConfigError("exactly one of 'dump' and 'endpoint' is required")
        if self.endpoint is not None and not self.endpoint.startswith(("http://", "https://")):
            raise ConfigError(f"endpoint must be an http(s) URL, got {self.endpoint!r}")
        if self.protocol not in ("cv", "split80"):
            raise ConfigError(f"protocol must be 'cv' or 'split80', got {self.protocol!r}")
        if self.cv_folds < 2:
            raise ConfigError("cv_folds must be >= 2")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must be in (0, 1)")

    @property
    def enriched(self) -> bool:
        return self.train.enriched


# defaults of the keys no `TrainConfig` or `EmbedConfig` field sets (None:
# unset); a path key's value resolves against the config file's directory
_KEY_DEFAULTS: dict[str, object] = {
    "corpus": None,  # required
    "dump": None,
    "endpoint": None,
    "output_dir": "out",
    "cache_dir": None,  # defaults to <output_dir>/cache
    "stopwords": None,  # bundled list
    "lemmas": None,  # bundled table
    "gazetteer": None,  # no multi-word entities
    "protocol": "cv",
    "cv_folds": 10,
    "test_fraction": 0.2,
    "predicate_prefixes": "",
}

# every key parse_config accepts, with its default; a value is parsed as
# the type of its key's default
CONFIG_DEFAULTS: dict[str, object] = {
    **_KEY_DEFAULTS,
    **{f.name: f.default for record in (TrainConfig, EmbedConfig) for f in fields(record)},
}

# the input files a config names
_INPUT_FILES = ("corpus", "dump", "stopwords", "lemmas", "gazetteer")

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_EXPECTED = {bool: "true/false", int: "an integer", float: "a finite number"}


def _convert(key: str, raw: str, default: object) -> object:
    """`raw` as a value of the default's type; text keys keep the string."""
    kind = type(default)
    try:
        if kind is bool:
            return _BOOL_WORDS[raw.lower()]
        if kind is int:
            return int(raw)
        if kind is float and math.isfinite(value := float(raw)):
            return value
    except (KeyError, ValueError):
        pass
    if kind in _EXPECTED:
        raise ConfigError(f"{key}: expected {_EXPECTED[kind]}, got {raw!r}")
    return raw


def _fields_of(record: type, values: dict[str, object]) -> dict[str, object]:
    return {f.name: values[f.name] for f in fields(record)}


def parse_config(text: str, base_dir: Path | str = ".",
                 overrides: dict[str, str] | None = None) -> PipelineConfig:
    """Parse a flat ``key = value`` config (# comments, blank lines allowed).
    `overrides` maps keys to raw values that replace the text's."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    for key, value in (overrides or {}).items():
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"unknown key {key!r}")
        raw[key] = value
    if "corpus" not in raw:
        raise ConfigError("missing required key 'corpus'")

    values = {key: _convert(key, raw[key], default) if key in raw else default
              for key, default in CONFIG_DEFAULTS.items()}
    for key in (*_INPUT_FILES, "output_dir", "cache_dir"):
        if values[key] is not None:
            # an absolute path replaces the base
            values[key] = Path(base_dir) / values[key]
    if values["cache_dir"] is None:
        values["cache_dir"] = values["output_dir"] / "cache"
    values["predicate_prefixes"] = tuple(
        p.strip() for p in values["predicate_prefixes"].split(",") if p.strip())

    values["train"] = TrainConfig(**_fields_of(TrainConfig, values))
    values["embed"] = EmbedConfig(**_fields_of(EmbedConfig, values))
    return PipelineConfig(**_fields_of(PipelineConfig, values))
