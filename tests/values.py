"""Field-level helpers over afinv's frozen value types, read off ``__match_args__``.

Every value type lists its fields, in order, in ``__match_args__``.  Its
constructor, the one ``__init__`` of ``afinv.groups._Value`` or a checking
type's own, takes them by position or under the same names as keywords, and
an omitted field takes the default its class body gives it.
"""


def fields_of(x) -> dict:
    """The fields of a value by name, in order."""
    return {name: getattr(x, name) for name in type(x).__match_args__}


def replace(x, **changes):
    """A new value of x's type with some fields changed, built through its ``__init__``."""
    return type(x)(**{**fields_of(x), **changes})


def is_value(x) -> bool:
    return hasattr(type(x), "__match_args__")


def as_tuple(x):
    """x with every value and tuple inside it turned into a plain tuple, recursively."""
    if is_value(x):
        return tuple(as_tuple(v) for v in fields_of(x).values())
    if isinstance(x, tuple):
        return tuple(as_tuple(v) for v in x)
    return x
