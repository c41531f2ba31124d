"""Exception hierarchy shared by every cohexp module.

Each exception carries a short machine-readable ``code`` so the CLI can
emit one-line errors of the form ``error[CODE]: message`` and map the
failure class onto its exit code (input problems exit 2, broken
mathematical contracts exit 3).
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from functools import cache
from typing import Iterator

from numbers import Integral, Real

import numpy as np

__all__ = [
    "CohexpError",
    "ValidationError",
    "CapacityError",
    "SerializationError",
    "ContractError",
    "TrainingError",
]


class CohexpError(Exception):
    """Base class for all errors raised by this package."""

    code = "E_INTERNAL"


class ValidationError(CohexpError):
    """Malformed input: bad arities, out-of-range values, unknown kinds."""

    code = "E_INPUT"


class CapacityError(ValidationError):
    """Request exceeds a documented size cap (e.g. vertex enumeration)."""

    code = "E_CAPACITY"


class SerializationError(ValidationError):
    """A document does not conform to the interchange schema."""

    code = "E_FORMAT"


class ContractError(CohexpError):
    """A mathematical contract failed: the requested construction exists
    syntactically but violates a guarantee it is required to provide
    (for example a repair that is still incoherent)."""

    code = "E_CONTRACT"


class TrainingError(ContractError):
    """Training diverged or otherwise failed to produce a usable model."""

    code = "E_TRAINING"


# what decoding a wrong-shaped document raises: a missing key, a wrong type
_MALFORMED = (KeyError, TypeError, IndexError, ValueError, OverflowError, AttributeError)


@contextmanager
def malformed(what: str, *, prefix_invalid: bool = False) -> Iterator[None]:
    """The one error policy for decoding a document: a built-in error of
    a wrong-shaped one is ``malformed <what>``, and a ``ValidationError``
    keeps its message, restated as ``invalid <what>`` with
    ``prefix_invalid``; every one leaves as a ``SerializationError``."""
    try:
        yield
    except ValidationError as exc:
        if prefix_invalid:
            raise SerializationError(f"invalid {what}: {exc}") from exc
        if isinstance(exc, SerializationError):
            raise
        raise SerializationError(str(exc)) from exc
    except _MALFORMED as exc:
        raise SerializationError(f"malformed {what}: {exc}") from exc


def _fields_only(doc, allowed: tuple[str, ...], what: str) -> None:
    """Refuse the first key of the document object ``doc`` that is not
    in ``allowed`` with a ``SerializationError`` naming it.  A ``doc``
    that is not an object is left to the code that reads it.  Its
    writing twins are ``core._fields`` and ``core._set_fields``."""
    if isinstance(doc, dict):
        stray = [key for key in doc if key not in allowed]
        if stray:
            raise SerializationError(f"{what} has no field {stray[0]!r}")


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    """The fields of the dataclass ``cls``: the keys its document holds.
    Kept per class, never per instance, which may be unhashable."""
    return tuple(field.name for field in dataclasses.fields(cls))


# per field kind: the Python types and the numpy dtype kinds it takes
_TAKES = {bool: ((bool, np.bool_), "b"), int: (Integral, "iu"), float: (Real, "iuf")}


def _checked(value, kind: type, need: str, low=None, high=None):
    """``value`` as a ``kind`` (``bool``, ``int`` or ``float``) within
    ``[low, high]``, else a ``ValidationError`` that states ``need``:
    nothing is parsed from a string or truncated, and only a ``bool``
    field takes a bool.  A numpy array is checked once, by dtype and
    range, and returned as it is."""
    types, dtypes = _TAKES[kind]
    if isinstance(value, np.ndarray):
        if not value.size:
            return value
        if value.dtype.kind not in dtypes:
            raise ValidationError(f"{need}, got dtype {value.dtype}")
        lo, hi = value.min(), value.max()
    elif isinstance(value, types) and (kind is bool or not isinstance(value, bool)):
        value = lo = hi = kind(value)
    else:
        raise ValidationError(f"{need}, got {value!r}")
    if (low is not None and not lo >= low) or (high is not None and not hi <= high):
        raise ValidationError(f"{need}, got {lo!r}" if lo is hi else f"{need}, got {lo} to {hi}")
    return value
