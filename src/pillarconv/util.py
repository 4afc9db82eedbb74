"""Small shared helpers: formatting, hashing, integer math."""

from __future__ import annotations

import hashlib
import numbers
from typing import Sequence

FLOAT_FORMAT = "{:.8e}"


def fmt_float(x: float) -> str:
    """Format a value with 9 significant digits in scientific notation.

    This is the one float format (`FLOAT_FORMAT`) used in every text output
    so that files round-trip float32 values exactly and stay byte-stable
    across runs.
    """
    return FLOAT_FORMAT.format(float(x))


def require_fields(
    owner, names: Sequence[str], error: type[Exception],
    kind: type = numbers.Integral, what: str = "an integer",
) -> None:
    """Raise `error` naming the first of `names` whose value on `owner` is not a `kind`."""
    for name in names:  # numpy numbers pass; a bool, a string or None does not
        v = getattr(owner, name)
        if isinstance(v, bool) or not isinstance(v, kind):
            raise error(f"{name} must be {what}, got {v!r}")


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
