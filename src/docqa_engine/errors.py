"""Exception hierarchy shared across the engine.

Every error raised by this package derives from EngineError so callers can
catch one base class; the CLI maps subclasses to distinct exit codes.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine errors."""


class ConfigError(EngineError):
    """Bad configuration value, unresolvable path, or missing template."""

    def __init__(self, message: str):
        # one line, however many a quoted key or value holds
        super().__init__("\\n".join(message.splitlines()))


class ParseError(EngineError):
    """Malformed input record or unparseable model output."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class IntegrityError(EngineError):
    """Structural invariant violated (duplicate or missing pages, empty corpus)."""


class FormatError(EngineError):
    """Persisted artifact is truncated, corrupt, or has an unknown version."""


class TransportError(EngineError):
    """A model endpoint call failed after the gateway's retries."""


class EndpointError(TransportError):
    """Endpoint answered with a non-2xx status, kept in `status`."""

    def __init__(self, message: str, status: int):
        super().__init__(f"{message} (status {status})")
        self.status = status


class ContractError(EngineError):
    """Endpoint response violated the wire contract (shape, dimension)."""
