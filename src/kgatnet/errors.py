"""Exception types shared across the toolkit."""


class KgatnetError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(KgatnetError):
    """Bad, missing, or inconsistent configuration value."""


class NetworkError(KgatnetError):
    """Triple-source endpoint unreachable after retries.

    Distinguishes transient infrastructure failure from an empty (but
    successful) lookup result.
    """


class ShapeMismatch(KgatnetError):
    """Array shapes inconsistent with the configured model dimensions."""


class MissingEmbedding(KgatnetError):
    """Enriched model invoked without an embedding matrix."""


class NonFiniteLoss(KgatnetError):
    """Training loss became NaN or Inf, signalling divergence.  When a
    stack of models was trained, `model` is the index of the one that
    diverged."""

    def __init__(self, message: str, model: int | None = None):
        super().__init__(message)
        self.model = model


class DuplicateDocumentId(ConfigError):
    """Two corpus documents share the same id."""


class MissingLabel(KgatnetError):
    """A document required to carry trait labels does not."""


class LengthMismatch(KgatnetError):
    """Predicted and actual label sequences differ in length."""


class InvalidK(ConfigError):
    """Fold count outside the valid range for the given corpus size."""


class UndefinedMetric(KgatnetError):
    """Metric denominator is zero; the value is absent, not zero."""


class EmptyCorpus(KgatnetError):
    """Embedding training requested on an empty walk corpus."""


class UnknownNode(KgatnetError):
    """Node id absent from the embedding matrix."""


class MissingStageInput(KgatnetError):
    """A pipeline stage was run before its upstream artifacts exist."""
