"""Declared records: frozen dataclasses whose fields carry the bounds checked
on construction; require, the one checker of those bounds, which also checks
the library's array arguments, and require_number and require_integer, which
first check that a number argument holds one number, or one integer; and
read_record, the one reader that builds a record from a parsed config section
or model-file object. It imports nothing from drlearn, so every layer can
declare its records here."""

from __future__ import annotations

import math
import numbers
import operator
import typing
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields
from functools import cache, partial

import numpy as np


class RecordError(ValueError):
    """A refused record or argument: path names it (section.field[k]), problem says why."""

    def __init__(self, path: str, problem: str):
        super().__init__(f"{path}: {problem}")
        self.path, self.problem = path, problem


def bounded(default=MISSING, **bounds):
    """A field with the bounds that Bounded checks, and a default unless MISSING."""
    return field(default=default, metadata=bounds)


def _nonfinite(value, _):
    """Whether value, a float, or each float entry of an array, is NaN or infinite."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind == "f" and ~np.isfinite(value)
    return isinstance(value, (float, np.floating)) and not math.isfinite(value)


# Each rule in the order checked: the bound it reads (None: checked for every value), whether
# value, a number or entrywise an array, breaks it, and why. Only within and finiteness refuse NaN.
_RULES = (
    ("minimum", operator.lt, lambda v, b: f"must be >= {b}, got {v}"),
    ("within", lambda v, b: np.logical_not((b[0] <= v) & (v < b[1])),
     lambda v, b: f"must be in [{b[0]:g}, {b[1]:g}), got {v}"),
    (None, _nonfinite, lambda v, _: f"must be a finite number, got {v}"),
    ("maximum", operator.gt, lambda v, b: f"must be <= {b}, got {v}"),
    ("above", operator.le, lambda v, b: f"must be > {b}, got {v}"),
    ("below", operator.ge, lambda v, b: f"must be < {b}, got {v}"),
    ("choices", lambda v, b: v not in b, lambda v, b: f"must be one of {sorted(b)}, got {v!r}"),
)


def bound_violation(value, **bounds) -> str | None:
    """Why the number value breaks a bound or is a non-finite float, or None.
    minimum/maximum are inclusive, above/below strict, within is [low, high),
    and choices holds the values allowed."""
    for name, breaks, problem in _RULES:
        if (name is None or name in bounds) and breaks(value, bounds.get(name)):
            return problem(value, bounds.get(name))
    return None


def require(path: str, value, **bounds) -> None:
    """Raise a RecordError naming path, or path[k] for entry k, if value breaks
    bounds: a number by bound_violation, a tuple (not empty) or a list entry by
    entry, and a 1-D ndarray in one pass, naming its first bad entry."""
    if isinstance(value, tuple) and not value:
        raise RecordError(path, f"must not be empty, got {value!r}")
    if isinstance(value, (tuple, list)):
        for k, entry in enumerate(value):
            require(f"{path}[{k}]", entry, **bounds)
    elif isinstance(value, np.ndarray):
        if value.ndim != 1:
            raise RecordError(path, f"must be 1-D, got shape {value.shape}")
        broken = np.zeros(len(value), dtype=bool)
        for name, breaks, _ in _RULES:
            if name is None or name in bounds:
                broken |= breaks(value, bounds.get(name))
        for k in np.flatnonzero(broken)[:1]:
            require(f"{path}[{k}]", value[k].item(), **bounds)
    elif (problem := bound_violation(value, **bounds)) is not None:
        raise RecordError(path, problem)


def require_number(path: str, value, **bounds) -> None:
    """require for an argument that takes one number: anything else, such as
    an array or a list, is refused by name before any bound is read."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise RecordError(path, f"must be a number, got {type(value).__name__}")
    require(path, value, **bounds)


def require_integer(path: str, value, **bounds) -> None:
    """require_number for an argument that takes one integer: a float, even a
    whole one such as 24.0, is refused by name."""
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):
        raise RecordError(path, f"must be an integer, got {value}")
    require_number(path, value, **bounds)


@dataclass(frozen=True)
class Bounded:
    """Base of the declared records: construction requires each field to keep
    its bounded() bounds, a field annotated np.ndarray to hold one, and one
    annotated int, or each entry of one annotated tuple[int, ...], to hold an
    integer (not a float or a bool)."""

    def __post_init__(self) -> None:
        for name, bounds, hint, _ in _schema(type(self)):
            value = getattr(self, name)
            if hint is np.ndarray and not isinstance(value, np.ndarray):
                raise RecordError(name, f"must be a 1-D array, got {type(value).__name__}")
            if hint == tuple[int, ...]:
                require(name, value)  # not empty
                for k, entry in enumerate(value):
                    require_integer(f"{name}[{k}]", entry, **bounds)
            else:
                (require_integer if hint is int else require)(name, value, **bounds)


def read_array(value, path: str, ndim: int) -> np.ndarray:
    """A float array of ndim dimensions from (nested lists of) JSON numbers,
    every one finite. true, false and strings are refused: numpy would read
    them as 1.0, 0.0 and the number they spell."""
    entries = np.array(value, dtype=object)  # lists of unequal lengths stay lists
    types = set(map(type, entries.flat))
    if bool in types:
        raise RecordError(path, "holds true or false, not a number")
    if not types <= {int, float}:
        raise RecordError(path, "not numeric")
    if entries.ndim != ndim:
        raise RecordError(path, f"must have {ndim} dimensions, got {entries.ndim}")
    try:
        arr = entries.astype(float)
    except OverflowError:  # an integer beyond the float range
        raise RecordError(path, "holds a non-finite value") from None
    if not np.all(np.isfinite(arr)):
        raise RecordError(path, "holds a non-finite value")
    return arr


def read_list(value, path: str, read_entry) -> tuple:
    """A non-empty list, entry k read by read_entry(entry, f"{path}[{k}]")."""
    if not isinstance(value, (list, tuple)) or not value:
        raise RecordError(path, "expected a non-empty list")
    return tuple(read_entry(item, f"{path}[{k}]") for k, item in enumerate(value))


# annotation -> (the Python types a value of it may have, what a refusal expected)
_SCALARS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true/false"),
    str: ((str,), "a string"),
    str | None: ((str, type(None)), "a string"),
}


def _read_scalar(hint, value, path: str):
    """value as a hint: not a bool unless hint is bool, and for float an int
    as a float, infinite beyond the float range."""
    types, expected = _SCALARS[hint]
    if not isinstance(value, types) or (isinstance(value, bool) and hint is not bool):
        raise RecordError(path, f"expected {expected}, got {value!r}")
    if hint is not float:
        return value
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _reader(hint):
    """read(value, path) for a field annotated hint (see read_record)."""
    if hint is np.ndarray:
        return partial(read_array, ndim=1)
    if typing.get_origin(hint) is tuple:
        return partial(read_list, read_entry=partial(_read_scalar, typing.get_args(hint)[0]))
    return partial(_read_scalar, hint)


@cache
def _schema(cls) -> tuple:
    """(name, bounds, annotation, has a default) of each field of cls, with
    its bounded() metadata."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, f.metadata, hints[f.name],
         f.default is not MISSING or f.default_factory is not MISSING)
        for f in fields(cls)
    )


def read_record(cls, raw, where: str, require_all: bool = False):
    """cls built from raw, the mapping found at where, so that its bounds run,
    each field read by its annotation (_SCALARS, read_list, read_array). A
    missing field takes its default unless it has none or require_all is set,
    and an unknown key is refused: a RecordError naming where.field."""
    if not isinstance(raw, Mapping):
        raise RecordError(where, f"expected a mapping, got {type(raw).__name__}")
    values = {}
    for name, _, hint, has_default in _schema(cls):
        if name in raw:
            values[name] = _reader(hint)(raw[name], f"{where}.{name}")
        elif require_all or not has_default:
            raise RecordError(f"{where}.{name}", "missing field")
    unknown = sorted(set(raw) - set(values))
    if unknown:
        raise RecordError(f"{where}.{unknown[0]}", "unknown field")
    try:
        return cls(**values)
    except RecordError as exc:
        raise RecordError(f"{where}.{exc.path}", exc.problem) from exc
