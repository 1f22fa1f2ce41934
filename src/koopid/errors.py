"""Exception and warning types shared by all koopid modules, the one rule
that turns a failed read or write into one of them, and the one rule by
which every file is written."""

import contextlib
import os
import pathlib


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


def is_stream(path):
    """Whether ``path`` names a device or pipe (/dev/null, /dev/stdout, a FIFO)."""
    return os.path.exists(path) and not os.path.isfile(path)


@contextlib.contextmanager
def replaced(path, action):
    """A binary handle on the temporary file ``.<name>.<pid>.tmp`` beside
    ``path``, in the directories it makes if missing (kept if the write then
    fails), which replaces ``path``, taking its permission bits, when the
    block ends and is removed on any exception, KeyboardInterrupt too, so a
    failed or interrupted write leaves the old file whole (nothing is
    synced); under ``artifact_io(action)``."""
    with artifact_io(action):
        if is_stream(path):  # written in place: replacing it would swap the device
            with open(path, "wb") as fh:
                yield fh
            return
        path = pathlib.Path(os.path.realpath(path))  # a link's target is replaced
        path.parent.mkdir(parents=True, exist_ok=True)
        temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(temporary, "wb") as fh:
                yield fh
            with contextlib.suppress(FileNotFoundError):  # a rewrite keeps the mode
                os.chmod(temporary, path.stat().st_mode & 0o7777)
            os.replace(temporary, path)
        finally:
            temporary.unlink(missing_ok=True)


class RankWarning(UserWarning):
    """Rank deficiency detected where computation can still proceed."""
