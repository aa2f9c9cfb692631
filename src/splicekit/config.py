"""Enumeration caps; the SPLICEKIT_ENUM_CAP env var overrides only the search cap."""

from __future__ import annotations

import os

from .errors import ValidationError

DEFAULT_SOLUTION_LIMIT = 100_000
DEFAULT_GROUP_CAP = 1_000_000

_ENV_VAR = "SPLICEKIT_ENUM_CAP"


def _env_cap() -> int | None:
    """The env override, or None when unset; ValidationError unless it is a
    positive integer."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
        if value > 0:
            return value
    except ValueError:
        pass
    raise ValidationError(f"{_ENV_VAR} must be a positive integer, got {raw!r}")


def solution_limit(override: int | None = None) -> int:
    """Per-edge cap on enumerated exponent solutions."""
    if override is not None:
        return override
    return _env_cap() or DEFAULT_SOLUTION_LIMIT
