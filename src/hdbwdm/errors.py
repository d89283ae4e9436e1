"""Exception types shared across the package.

Each class names one kind of failure, and the command line maps each
kind to one exit code:

- :class:`UsageError` (exit 1): an argument the call cannot honour, on
  its own (``alpha`` outside [0, 0.5)) or for the data's shape (``p``
  above the data dimension).  It is raised where the value is checked,
  in the library, and subclasses ``ValueError``.
- :class:`DataError` (exit 2): input data that cannot be used.
- :class:`NumericalError` (exit 3): a computation that could not be
  completed.

A plain ``ValueError`` marks data that breaks a structure's contract
(labels outside ``0..K-1``, a non-2-D matrix) or a programming error;
the command line reports it as a data error.
"""

from __future__ import annotations

__all__ = ["HdbwdmError", "UsageError", "DataError", "NumericalError"]


class HdbwdmError(Exception):
    """Base class for package-specific errors."""


class UsageError(HdbwdmError, ValueError):
    """An argument the call cannot honour (out of range, repeated, too large for the data)."""


class DataError(HdbwdmError):
    """Input data cannot be used (unparseable file, missing labels, ...)."""


class NumericalError(HdbwdmError):
    """A computation failed (all restarts diverged, degenerate cell, ...)."""
