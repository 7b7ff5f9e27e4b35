"""Shared exception types."""

__all__ = ["GroupAuthError", "SchemaError"]


class GroupAuthError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(GroupAuthError):
    """A JSON input file violates its schema.

    ``field`` names the offending field when known, so callers can report
    exactly what was wrong with the file.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field
