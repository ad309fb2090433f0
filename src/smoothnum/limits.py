"""Resource envelopes, overridable through the environment.

Each limit guards the sieve or exact counting, whose cost grows with
its argument; the environment variables let a bigger machine raise
them without code changes.  They are read at call time so tests can
tweak them with monkeypatch.
"""

import os

from .errors import ResourceError

DEFAULTS = {
    "SMOOTHNUM_MAX_SIEVE": 10**9,
    "SMOOTHNUM_MAX_PSI_X": 10**12,
    "SMOOTHNUM_MAX_PSI_Y": 10**5,
}


def env_limit(name: str) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return DEFAULTS[name]
    try:
        value = int(float(raw))
    except (ValueError, OverflowError):  # nan, inf, 1e400, not a number
        raise ResourceError(f"{name} must be a finite number, got {raw!r}") from None
    if value <= 0:
        raise ResourceError(f"{name} must be positive, got {raw!r}")
    return value
