"""Small shared helpers: formatting, hashing, integer math, field checks."""

from __future__ import annotations

import hashlib
import numbers
from typing import Sequence

import numpy as np

FLOAT_FORMAT = "{:.8e}"


def fmt_float(x: float) -> str:
    """Format a value with 9 significant digits in scientific notation.

    This is the one float format (`FLOAT_FORMAT`) used in every text output
    so that files round-trip float32 values exactly and stay byte-stable
    across runs.
    """
    return FLOAT_FORMAT.format(float(x))


def require_fields(owner, names: Sequence[str], error: type[Exception]) -> None:
    """Raise `error` naming the first of `names` whose value on `owner` is not a real number."""
    for name in names:  # numpy numbers pass; a bool, a string or None does not
        v = getattr(owner, name)
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise error(f"{name} must be a number, got {v!r}")


def _require_size(name: str, v, error: type[Exception], minimum: int = 1) -> None:
    """The size rule: raise `error` naming `name` unless `v` is an integer >= `minimum`.

    A numpy integer passes, a bool does not. Every rulebook builder call runs
    it, so the test is a plain isinstance, not the slower `numbers.Integral`."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise error(f"{name} must be an integer, got {v!r}")
    if v < minimum:
        raise error(f"{name} must be >= {minimum}, got {v!r}")


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
