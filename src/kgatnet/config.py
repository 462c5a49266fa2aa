"""The trait order and the classifier's and embedder's configurations.

Plain dataclasses on the standard library alone, so that parsing a config
and deciding that a stage has nothing to do never import numpy.  `gat`,
`rdf2vec` and `evaluation` re-export the names they used to define.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")


@dataclass(frozen=True)
class EmbedConfig:
    dim: int = 500
    max_depth: int = 5
    walks_per_node: int = 5
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    min_learning_rate: float = 1e-4
    seed: int = 42

    def __post_init__(self):
        for name in ("dim", "max_depth", "walks_per_node", "window", "epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.negatives < 0:
            raise ConfigError("negatives must be >= 0")
        if not 0 < self.min_learning_rate <= self.learning_rate:
            raise ConfigError("need 0 < min_learning_rate <= learning_rate")
