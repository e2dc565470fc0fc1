"""Exception hierarchy shared across the toolkit, and how much of an input a message repeats."""

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


class InvalidCompositionError(AfinvError):
    """Attempt to compose bimodules whose middle Q-systems do not match."""


class InternalConsistencyError(AfinvError):
    """An exactness invariant failed mid-computation; results would be unsound."""


class OracleFailureError(AfinvError):
    """The crossed-product oracle's block counts disagree with the simple-bimodule counts."""
