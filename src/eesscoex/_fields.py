"""One value check for the input dataclasses: a field's annotation gives its
type and `bounded` its range, so a `__post_init__` writes by hand only the
conditions that relate two or more fields."""

import dataclasses
import functools
import math
import numbers
import operator
import sys
import typing

_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
           "le": (operator.le, "<="), "lt": (operator.lt, "<")}


def bounded(default=dataclasses.MISSING, **bounds):
    """A dataclass field whose value must meet each bound: ge=, gt=, le= or lt=."""
    return dataclasses.field(default=default, metadata={"bounds": bounds})


def _is_float(value):
    """A finite real number that is not a bool (an integer past float range is not)."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, numbers.Integral):
        return not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return isinstance(value, numbers.Real) and math.isfinite(value)


# The built-in types are tested first; an isinstance test against an ABC is far slower.
_KINDS = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: (isinstance(v, int) or isinstance(v, numbers.Integral))
          and not isinstance(v, bool)),
    float: ("a finite number", _is_float),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple[str, ...]: ("a list of strings", lambda v: isinstance(v, tuple)
                      and all(isinstance(x, str) for x in v)),
    tuple[float, float]: ("a list of two finite numbers", lambda v: isinstance(v, tuple)
                          and len(v) == 2 and all(map(_is_float, v))),
}


@functools.cache
def _checks(cls):
    """(name, description, predicate, [(op, symbol, limit)]) per field."""
    return [(f.name, *_KINDS[f.type],
             [(*_BOUNDS[op], limit) for op, limit in f.metadata.get("bounds", {}).items()])
            for f in dataclasses.fields(cls)]


def from_json(tp, value):
    """A JSON value for a field of type `tp`: an integer as a float, a list as a tuple."""
    if tp is float and isinstance(value, int) and _is_float(value):
        return float(value)
    if typing.get_origin(tp) is tuple and isinstance(value, list):
        return tuple(value)
    return value


def unique_keys(pairs):
    """A `json` object_pairs_hook: the object as a dict, or ValueError at a
    repeated key, which would otherwise silently replace the earlier value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = value
    return out


def check_fields(obj):
    """Raise ValueError unless every field of the dataclass `obj` holds its
    declared type, is finite where it is a float, and meets its bounds."""
    for name, what, ok, bounds in _checks(type(obj)):
        value = getattr(obj, name)
        if not ok(value):
            raise ValueError(f"{name!r} must be {what}, got {value!r}")
        for op, symbol, limit in bounds:
            if not op(value, limit):
                raise ValueError(f"{name!r} must be {symbol} {limit:g}, got {value}")
