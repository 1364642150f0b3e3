"""Retry policy: exponential backoff with deterministic jitter.

The resilient pool (and anything else that retries) sleeps between
attempts; the delays grow exponentially and carry *deterministic*
jitter — a seeded hash of ``(seed, label, attempt)`` — so two processes
retrying different tasks desynchronize (no thundering herd against a
shared disk) while a replayed chaos run sleeps exactly as long as the
original did.
"""

import hashlib
import math
import os
import time

#: Environment knobs for the resilient pool (documented in README).
ENV_TIMEOUT = "REPRO_TASK_TIMEOUT"
ENV_RETRIES = "REPRO_TASK_RETRIES"
ENV_BACKOFF = "REPRO_RETRY_BACKOFF"

DEFAULT_RETRIES = 2
DEFAULT_BACKOFF = 0.25
BACKOFF_CAP = 10.0


def _jitter(seed, label, attempt):
    """A deterministic U[0,1) draw for one retry decision."""
    token = f"retry:{seed}:{label}:{attempt}".encode()
    digest = hashlib.sha256(token).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def backoff_delay(attempt, base=DEFAULT_BACKOFF, cap=BACKOFF_CAP,
                  seed=0, label=""):
    """Seconds to sleep before retry number ``attempt`` (1-based).

    Exponential (``base * 2**(attempt-1)``) with full multiplicative
    jitter in ``[0.5, 1.0)`` of the raw delay, capped at ``cap``.
    """
    raw = min(float(cap), float(base) * (2.0 ** (max(1, int(attempt)) - 1)))
    return raw * (0.5 + 0.5 * _jitter(seed, label, attempt))


def sleep_before_retry(attempt, base=DEFAULT_BACKOFF, cap=BACKOFF_CAP,
                       seed=0, label=""):
    """Sleep the backoff delay; returns the seconds slept."""
    delay = backoff_delay(attempt, base=base, cap=cap, seed=seed,
                          label=label)
    if delay > 0:
        time.sleep(delay)
    return delay


def _env_value(name, parse, valid, requirement):
    """``name``'s parsed value, or None when unset or empty.

    A value that does not parse, or that ``valid`` rejects, raises a
    ``ValueError`` naming the variable, rather than crashing the pool
    later or silently meaning something else.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = parse(raw)
    except ValueError:
        value = None
    if value is None or not valid(value):
        raise ValueError(f"{name} must be {requirement}, got {raw!r}")
    return value


def pool_timeout():
    """Per-task timeout the environment implies (None = no timeout).

    Unset, empty and values <= 0 mean no timeout; ``inf`` and ``nan``
    are rejected (one crashes the pool's wait, the other never expires).
    """
    value = _env_value(ENV_TIMEOUT, float, math.isfinite,
                       "a finite number of seconds")
    if value is None or value <= 0:
        return None
    return value


def pool_retries():
    """Retries per failed pool task the environment implies."""
    value = _env_value(ENV_RETRIES, int, lambda v: v >= 0,
                       "a non-negative integer")
    return DEFAULT_RETRIES if value is None else value


def pool_backoff():
    """Base backoff seconds between pool retry rounds."""
    value = _env_value(ENV_BACKOFF, float,
                       lambda v: math.isfinite(v) and v >= 0,
                       "a finite non-negative number of seconds")
    return DEFAULT_BACKOFF if value is None else value
