"""Exception hierarchy shared by all twinfuse modules, and the input rules
every reader shares: the file reader that names the file in its errors, the
record reader that names a missing key or a malformed value, and the
positive-number check."""

import json
import math
import numbers
from contextlib import contextmanager


class TwinfuseError(Exception):
    """Base class for all errors raised by this package."""


class FrameMismatchError(TwinfuseError):
    """Transform/cloud frame chain does not line up."""


class InsufficientCorrespondencesError(TwinfuseError):
    """Fewer matched points than the solver needs."""


class InsufficientViewsError(TwinfuseError):
    """Fewer than two usable camera views for triangulation."""


class DegenerateGeometryError(TwinfuseError):
    """Point configuration is rank-deficient for the requested fit."""


class ConvergenceError(TwinfuseError):
    """Iterative refinement failed to reduce the error.

    Carries the last iterate so callers can inspect it.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class ParameterError(TwinfuseError):
    """Invalid user-supplied parameter value."""


class NoOverlapError(TwinfuseError):
    """No correspondences survive the distance cutoff / no common time range."""


class BehindCameraError(TwinfuseError):
    """Point has non-positive depth in the camera frame."""


class CorrespondenceError(TwinfuseError):
    """No distance-consistent marker correspondence exists."""


class AmbiguityError(TwinfuseError):
    """Multiple distance-consistent correspondences exist.

    ``candidates`` lists the consistent index permutations.
    """

    def __init__(self, message, candidates=()):
        super().__init__(message)
        self.candidates = list(candidates)


class EmptySelectionError(TwinfuseError):
    """No person detections available in any camera."""


class UnknownEntityError(TwinfuseError):
    """A referenced camera/entity name is not known."""


class ManifestError(TwinfuseError):
    """Scene manifest is malformed, missing assets, or has an unknown version."""


def parse_file(path, parse):
    """``parse`` applied to the text of ``path``; text that is not UTF-8, a
    ParameterError it raises and malformed JSON are raised as ParameterError
    naming the file."""
    try:
        with open(path) as f:
            return parse(f.read())
    except UnicodeDecodeError:
        raise ParameterError(f"{path}: not UTF-8 text") from None
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{path}: malformed JSON at line {exc.lineno}, "
                             f"column {exc.colno}: {exc.msg}") from None


@contextmanager
def reading(what: str, malformed: str = "{what}: {exc}"):
    """Context for reading the JSON record named ``what``: a KeyError in the
    block is raised as ParameterError "<what> missing key 'k'", and a
    TypeError or ValueError as ParameterError ``malformed``, formatted with
    ``what`` and the exception as ``exc``."""
    try:
        yield
    except KeyError as exc:
        raise ParameterError(f"{what} missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParameterError(malformed.format(what=what, exc=exc)) from None


def positive_number(value, what: str) -> float:
    """``value`` as a float; it must be a finite positive real and not a
    bool, or ParameterError names it as ``what``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value <= 0):
        raise ParameterError(
            f"{what} must be a finite positive number, got {value!r}")
    return float(value)
