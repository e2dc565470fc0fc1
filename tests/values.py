"""Field-level helpers over afinv's frozen value types, read off ``__match_args__``.

Every value type lists its fields, in order, in ``__match_args__``, and its
constructor takes them in that order by position: the one ``__init__`` of
``afinv.groups._Value`` takes exactly those fields, and a type with an
``__init__`` of its own (a checking type, ``Verdict`` or ``DiagramEdge``)
takes them in the same order.  So these helpers build every value by
position.
"""


def fields_of(x) -> dict:
    """The fields of a value by name, in order."""
    return {name: getattr(x, name) for name in type(x).__match_args__}


def replace(x, **changes):
    """A new value of x's type with some fields changed, built by position."""
    return type(x)(*{**fields_of(x), **changes}.values())


def is_value(x) -> bool:
    return hasattr(type(x), "__match_args__")


def as_tuple(x):
    """x with every value and tuple inside it turned into a plain tuple, recursively."""
    if is_value(x):
        return tuple(as_tuple(v) for v in fields_of(x).values())
    if isinstance(x, tuple):
        return tuple(as_tuple(v) for v in x)
    return x
