"""Exception and warning types shared by all koopid modules, and the one
rule that turns a failed read or write into one of them."""

import contextlib


class KoopidError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(KoopidError):
    """Malformed or non-finite input (bad shapes, NaN/Inf entries, empty boxes)."""


class EvaluationOverflow(KoopidError):
    """Evaluating a map or dictionary produced a non-finite value."""

    def __init__(self, message, row=None):
        super().__init__(message if row is None else f"{message} (row {row})")
        self.row = row


class RankError(KoopidError):
    """A matrix required to have full column rank does not."""


class AssumptionViolation(KoopidError):
    """The dictionary snapshot matrices are rank deficient, so the
    forward-backward and subspace-decomposition guarantees do not apply."""


class InternalInvariantViolation(KoopidError):
    """A structural property the algorithms guarantee was violated at runtime;
    indicates inconsistent tolerance decisions or a bug."""


class ArtifactIOError(KoopidError):
    """Reading or writing a snapshot/result artifact failed."""


@contextlib.contextmanager
def artifact_io(action, file=None):
    """Raise an OSError of the block as ``ArtifactIOError("cannot <action>:
    <error>")``; given the file, raise a UnicodeDecodeError, a file that is
    not UTF-8 text, as ``InvalidInput("<file>: <error>")``."""
    try:
        yield
    except OSError as exc:
        raise ArtifactIOError(f"cannot {action}: {exc}") from exc
    except UnicodeDecodeError as exc:
        if file is None:
            raise
        raise InvalidInput(f"{file}: {exc}") from exc


class RankWarning(UserWarning):
    """Rank deficiency detected where computation can still proceed."""
