"""Exception hierarchy shared across the toolkit, and how much of an input a message repeats.

Each error type is one exit code of ``afinv.cli.main``: ``InvalidInputError``
and ``ResourceLimitError`` exit with 1, and ``InternalConsistencyError`` exits
with 2, a failed oracle included.
"""

from __future__ import annotations


def _cut(text: str) -> str:
    """``text``, usually the ``repr`` of an input, cut to 60 characters for an error message."""
    return text if len(text) <= 60 else text[:60] + "..."


class AfinvError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(AfinvError):
    """Malformed or out-of-domain input (bad JSON, wrong group, shape mismatch)."""


class ResourceLimitError(AfinvError):
    """An enumeration or search would exceed the configured bound."""


class InternalConsistencyError(AfinvError):
    """An exactness invariant failed mid-computation; results would be unsound."""
