"""Declared records: frozen dataclasses whose fields carry the bounds checked
on construction, and read_record, the one reader that builds a record from a
parsed config section or model-file object. It imports nothing from drlearn,
so every layer can declare its records here."""

from __future__ import annotations

import math
import typing
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields
from functools import cache, partial

import numpy as np


class RecordError(ValueError):
    """A refused record: path names the field (section.field[k]), problem says why."""

    def __init__(self, path: str, problem: str):
        super().__init__(f"{path}: {problem}")
        self.path, self.problem = path, problem


def bounded(default=MISSING, **bounds):
    """A field with the bounds that Bounded checks, and a default unless MISSING."""
    return field(default=default, metadata=bounds)


def bound_violation(
    value, minimum=None, maximum=None, above=None, below=None, within=None, choices=None
) -> str | None:
    """Why value breaks its field's bounds or is a non-finite float, or None.
    minimum/maximum are inclusive, above/below strict, within is [low, high),
    checked before finiteness so that a NaN reads as outside it."""
    if minimum is not None and value < minimum:
        return f"must be >= {minimum}, got {value}"
    if within is not None and not within[0] <= value < within[1]:
        return f"must be in [{within[0]:g}, {within[1]:g}), got {value}"
    if isinstance(value, float) and not math.isfinite(value):
        return f"must be a finite number, got {value}"
    if maximum is not None and value > maximum:
        return f"must be <= {maximum}, got {value}"
    if above is not None and not value > above:
        return f"must be > {above}, got {value}"
    if below is not None and not value < below:
        return f"must be < {below}, got {value}"
    if choices is not None and value not in choices:
        return f"must be one of {sorted(choices)}, got {value!r}"
    return None


@dataclass(frozen=True)
class Bounded:
    """Base of the declared records: construction checks each field (each
    entry, as field[k], of a tuple, list or 1-D array field) against its
    bounded() declaration, a non-finite float and an empty tuple breaking
    every field, and raises a RecordError naming the first that breaks it."""

    def __post_init__(self) -> None:
        for name, bounds, _, _ in _schema(type(self)):
            value = getattr(self, name)
            if isinstance(value, tuple) and not value:
                raise RecordError(name, f"must not be empty, got {value!r}")
            sequence = isinstance(value, (tuple, list, np.ndarray))
            for k, entry in enumerate(value) if sequence else [(None, value)]:
                problem = bound_violation(entry, **bounds)
                if problem is not None:
                    raise RecordError(name if k is None else f"{name}[{k}]", problem)


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
    """(name, bounds, reader, has a default) of each field of cls, from its
    bounded() metadata and its annotation."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, f.metadata, _reader(hints[f.name]),
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
    for name, _, read, has_default in _schema(cls):
        if name in raw:
            values[name] = read(raw[name], f"{where}.{name}")
        elif require_all or not has_default:
            raise RecordError(f"{where}.{name}", "missing field")
    unknown = sorted(set(raw) - set(values))
    if unknown:
        raise RecordError(f"{where}.{unknown[0]}", "unknown field")
    try:
        return cls(**values)
    except RecordError as exc:
        raise RecordError(f"{where}.{exc.path}", exc.problem) from exc
