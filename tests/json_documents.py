"""Hypothesis strategies for the input-contract tests of the CLI and the parsers."""

import json

from hypothesis import strategies as st

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


def _subtree_paths(doc, path=()):
    """The key path of every subtree of a JSON document, the root's () first."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _subtree_paths(value, path + (key,))


@st.composite
def any_or_mutated(draw, valid_docs):
    """Any JSON value, or a valid document with one subtree replaced by one."""
    value = draw(JSON_VALUES)
    if draw(st.booleans()):
        return value
    doc = json.loads(json.dumps(draw(st.sampled_from(valid_docs))))
    path = draw(st.sampled_from(list(_subtree_paths(doc))))
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc
