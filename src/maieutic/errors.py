"""Exception types shared across the engine."""


class MaieuticError(Exception):
    """Base class for all engine errors."""


# --- backend ---

class BackendUnavailable(MaieuticError):
    """The backend could not be reached (network failure, timeout, exhausted retries)."""


class MissingFixture(MaieuticError):
    """A scripted backend has no entry for the requested digest."""


class MalformedResponse(MaieuticError):
    """The backend returned a response the engine cannot interpret."""


class EmptyGeneration(MaieuticError):
    """Every sampled completion was empty or whitespace."""


class NotSupported(MaieuticError):
    """The backend does not expose the requested capability (e.g. token log-probabilities)."""


class CacheCorrupt(MaieuticError):
    """A line of the response cache's file is not a cache entry."""


# --- constraint compilation ---

class DegenerateBelief(MaieuticError):
    """Both truth probabilities are zero, so the belief ratio is undefined."""


class EmptyTree(MaieuticError):
    """The pruned tree holds only the root, so there is nothing to compile."""


# --- solving ---

class TooManyVariables(MaieuticError):
    """The instance exceeds the exhaustive solver's variable limit."""


class UnassignedVariable(MaieuticError):
    """An evaluation was requested with at least one declared variable unassigned."""


class ParseError(MaieuticError):
    """A WCNF file could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class WeightOverflow(MaieuticError):
    """A clause weight does not fit the integer range of the WCNF format."""


# --- evaluation ---

class MissingGold(MaieuticError):
    """A dataset record lacks a gold label."""
