"""Exception types shared across the toolkit."""


class KgatnetError(Exception):
    """Base class for all toolkit errors.  `exit_code` is what the command
    line returns for it: 3, a stage input that is missing or disagrees with
    another, unless a class below says otherwise (README lists them)."""
    exit_code = 3


class ConfigError(KgatnetError):
    """Bad, missing, or inconsistent configuration value."""
    exit_code = 2


class NetworkError(KgatnetError):
    """Triple-source endpoint unreachable after retries.

    Distinguishes transient infrastructure failure from an empty (but
    successful) lookup result.
    """
    exit_code = 4


class ShapeMismatch(KgatnetError):
    """Array shapes inconsistent with the configured model dimensions."""


class MissingEmbedding(KgatnetError):
    """Enriched model invoked without an embedding matrix."""


class NonFiniteLoss(KgatnetError):
    """Training loss became NaN or Inf, signalling divergence.  When a
    stack of models was trained, `model` is the index of the one that
    diverged."""
    exit_code = 5

    def __init__(self, message: str, model: int | None = None):
        super().__init__(message)
        self.model = model


class WorkerDied(KgatnetError):
    """A training process ended without raising, as one killed for lack
    of memory does."""
    exit_code = 6


class DuplicateDocumentId(ConfigError):
    """Two corpus documents share the same id."""


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
