"""Shared exception types."""


class CapExceeded(RuntimeError):
    """An instance exceeds a configured size cap ("instance too large")."""


class Precondition(ValueError):
    """An instance lies outside a claim's hypothesis."""
