"""Type checks for the fields of the configuration dataclasses."""

import dataclasses
import numbers
import types

import numpy as np

# annotation -> (accepted class, wording for the error message)
_ACCEPTED = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a number"),
    str: (str, "a string"),
    tuple: (tuple, "a list"),
}


def check_field_types(obj) -> None:
    """Raise ValueError naming the first field of ``obj`` whose value has the
    wrong type for its annotation.

    An ``int`` field takes any integer, a ``float`` field any real number, and
    ``X | None`` also takes None. True and False are never numbers. A numpy
    scalar that passes is replaced by the equal Python number, so that the
    config computes and echoes to JSON as that number does.
    """
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        allowed = f.type.__args__ if isinstance(f.type, types.UnionType) else (f.type,)
        if value is None and type(None) in allowed:
            continue
        base = allowed[0]
        cls, wording = _ACCEPTED[base]
        if isinstance(value, bool) or not isinstance(value, cls):
            raise ValueError(f"{f.name} must be {wording}, "
                             f"not {type(value).__name__} {value!r}")
        if isinstance(value, np.generic):
            # object.__setattr__ also sets the field of a frozen dataclass
            object.__setattr__(obj, f.name, value.item())
