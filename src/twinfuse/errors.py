"""Exception hierarchy shared by all twinfuse modules, and the file rules
every reader and writer shares: the UTF-8 text file reader that names the
file in its errors and its writer twin, the record reader that names a
missing key or a malformed value, the CSV row reader and writer, and the
number checks."""

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
    """``parse`` applied to the UTF-8 text of ``path``; text that is not
    UTF-8, a ParameterError it raises and malformed JSON are raised as
    ParameterError naming the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return parse(f.read())
    except UnicodeDecodeError:
        raise ParameterError(f"{path}: not UTF-8 text") from None
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{path}: malformed JSON at line {exc.lineno}, "
                             f"column {exc.colno}: {exc.msg}") from None


def write_file(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, its line ends as given."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


# Raised by converting a malformed value, e.g. an int too large for a float
MALFORMED = (TypeError, ValueError, OverflowError)


@contextmanager
def reading(what: str, malformed: str = "{what}: {exc}"):
    """Context for reading the JSON record named ``what``: a KeyError in the
    block is raised as ParameterError "<what> missing key 'k'", and a
    MALFORMED error as ParameterError ``malformed``, formatted with ``what``
    and the exception as ``exc``."""
    try:
        yield
    except KeyError as exc:
        raise ParameterError(f"{what} missing key {exc}") from None
    except MALFORMED as exc:
        raise ParameterError(malformed.format(what=what, exc=exc)) from None


def csv_rows(text: str, what: str, header: str, types):
    """(line number, values) of each data row of the CSV ``text`` named
    ``what``, in order: the first non-blank line must start with ``header``,
    a row must have one value per entry of ``types``, and each value is
    parsed by its column's entry, or ParameterError names the line."""
    lines = [(n, l) for n, l in enumerate(text.splitlines(), 1) if l.strip()]
    if not lines or not lines[0][1].startswith(header):
        raise ParameterError(f"{what} missing {header} header")
    for n, line in lines[1:]:
        values = line.split(",")
        if len(values) != len(types):
            raise ParameterError(f"{what} line {n}: expected {len(types)} "
                                 f"columns, got {len(values)}")
        try:
            row = [parse(v) for parse, v in zip(types, values)]
        except MALFORMED:
            raise ParameterError(f"{what} line {n}: non-numeric value") from None
        yield n, row


def csv_text(header: str, rows) -> str:
    """The CSV text that ``csv_rows`` reads back: the ``header`` line, then
    each row of Python ints and floats as its comma-joined ``repr``, each
    line ending in a line feed."""
    return "".join([header, "\n", *(",".join(map(repr, row)) + "\n" for row in rows)])


def _repeated(ids):
    """The first item of ``ids`` that an earlier item equals, or None."""
    seen = set()
    for i in ids:
        if i in seen:
            return i
        seen.add(i)
    return None


def finite_number(value, kinds=(int, float)) -> bool:
    """Whether ``value`` is a finite number of one of ``kinds`` (by default
    the numbers JSON parses to) and not a bool."""
    try:
        return (isinstance(value, kinds) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int too large for a float is not finite
        return False


def non_numbers(values) -> list:
    """The items of the list or tuple ``values`` that ``finite_number``
    refuses, in order; readers refuse "1.5" and true with it, which numpy
    converts. Ints and floats cost no Python call per item: one type test
    per distinct type and one ``math.fsum`` pass."""
    try:
        if set(map(type, values)) <= {int, float} and math.isfinite(math.fsum(values)):
            return []
    except (OverflowError, ValueError):  # e.g. an int too large for a float
        pass
    return [v for v in values if not finite_number(v)]


def positive_number(value, what: str) -> float:
    """``value`` as a float; it must be a finite positive real and not a
    bool, or ParameterError names it as ``what``."""
    if not finite_number(value, numbers.Real) or value <= 0:
        raise ParameterError(
            f"{what} must be a finite positive number, got {value!r}")
    return float(value)
