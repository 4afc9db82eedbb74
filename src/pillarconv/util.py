"""Small shared helpers: formatting, hashing, integer math."""

from __future__ import annotations

import hashlib

FLOAT_FORMAT = "{:.8e}"


def fmt_float(x: float) -> str:
    """Format a value with 9 significant digits in scientific notation.

    This is the one float format (`FLOAT_FORMAT`) used in every text output
    so that files round-trip float32 values exactly and stay byte-stable
    across runs.
    """
    return FLOAT_FORMAT.format(float(x))


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
