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


def _words(text: str) -> np.ndarray:
    """ASCII `text` as native uint32 words of four bytes each."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint32)


# Byte tables: each entry is four ASCII bytes read as one native uint32.
_QUADS = _words("".join(f"{i:04d}" for i in range(10000)))  # "0000" .. "9999"
# a free byte, the sign byte (zero when positive), the leading digit and the point
_HEADS = _words("".join(f"\0{sign}{d}." for sign in "\0-" for d in range(10)))
_EXP_MIN = -50
_EXPS = _words("".join(f"e{e:+03d}" for e in range(_EXP_MIN, 51)))  # "e-50" .. "e+50"
_POW10 = np.array([float(10**k) for k in range(64)])  # each correctly rounded
_INT_POW10 = 10 ** np.arange(19, dtype=np.int64)


def float_fields(x: np.ndarray) -> np.ndarray:
    """`fmt_float` of each float32 in `x`, as an (n, 16) uint8 array of ASCII text.

    Row i holds value i's text right-aligned, after zero bytes; byte 0 is
    always zero, free for a caller's separator. The bytes are exactly
    `fmt_float`'s, which rounds the float64 value to nine significant digits,
    half to even on its exact binary value. Why the vectorised form agrees:

    - A float32 is exact in float64. For a nonzero finite |x| and a
      candidate exponent e, s = |x| * 10**(8 - e) is computed with one
      multiply (or one divide, for a negative power) by `float(10**k)`,
      itself correctly rounded. So s has a relative error under 2.3e-16
      and, near [1e8, 1e9), an absolute error under 3e-7.
    - |x| lies in [2**b, 2**(b+1)) for its binary exponent b, so its
      decimal exponent is floor(b log10 2) or one more. e starts at the
      first and moves up by one where s >= 1e9. Computed and exact s can
      straddle 1e9 only within 3e-7 of it, where both exponents give the
      same text: 1e9 - 3e-7 rounds to 1e9, which carries.
    - Where the fraction of s lies 1e-6 or more from 0.5, rounding s to the
      nearest integer rounds the exact value the same way. A mantissa of
      1e9 carries: it becomes 1e8 at exponent e + 1.
    - The few values left, NaN, +-inf and mantissas within 1e-6 of a tie,
      are formatted by `fmt_float` itself.

    Digits, heads and exponents are read from small byte tables.
    """
    x = np.asarray(x, dtype=np.float32).ravel()
    with np.errstate(invalid="ignore"):  # a signalling NaN raises the flag on conversion
        x64 = x.astype(np.float64)
    scaled = np.isfinite(x64) & (x64 != 0)
    v = np.where(scaled, np.abs(x64), 1.0)  # 0, NaN and inf scale as 1: exponent 0
    e = (np.frexp(v)[1] - 1) * 78913 >> 18  # floor(log10(2) * binary exponent)

    def mantissa(v, e):
        k = 8 - e
        return v * _POW10[np.maximum(k, 0)] / _POW10[np.maximum(-k, 0)]

    s = mantissa(v, e)
    up = np.flatnonzero(s >= 1e9)
    e[up] += 1
    s[up] = mantissa(v[up], e[up])
    m = np.rint(s)
    fallback = ~np.isfinite(x64) | (np.abs(s - np.floor(s) - 0.5) < 1e-6)
    carry = m >= 1e9
    m[carry] = 1e8
    e += carry
    m = np.where(scaled, m, 0.0).astype(np.int64)
    out = np.empty((x.size, 4), dtype=np.uint32)
    out[:, 0] = _HEADS[np.signbit(x) * 10 + m // 100_000_000]
    low = m % 100_000_000
    out[:, 1] = _QUADS[low // 10_000]
    out[:, 2] = _QUADS[low % 10_000]
    out[:, 3] = _EXPS[e - _EXP_MIN]
    fields = out.view(np.uint8)
    for i in np.flatnonzero(fallback).tolist():
        text = fmt_float(x64[i]).encode("ascii")
        fields[i, 1:] = 0
        fields[i, 16 - len(text):] = np.frombuffer(text, dtype=np.uint8)
    return fields


def int_fields(a: np.ndarray) -> np.ndarray:
    """str() of each non-negative int64 in `a`, as an (n, w) uint8 array of ASCII text.

    Each row holds its digits right-aligned after zero bytes, taken four at
    a time from the same table as `float_fields`; w fits the widest value.
    """
    a = np.asarray(a, dtype=np.int64)
    groups = ceil_div(len(str(int(a.max(initial=0)))), 4)
    out = np.empty((a.size, groups), dtype=np.uint32)
    for j in range(groups):
        out[:, groups - 1 - j] = _QUADS[a // _INT_POW10[4 * j] % 10_000]
    fields = out.view(np.uint8)
    digits = 1 + _INT_POW10[1:].searchsorted(a, side="right")
    fields[np.arange(4 * groups) < (4 * groups - digits)[:, None]] = 0
    return fields


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
