"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


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
