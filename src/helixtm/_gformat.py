"""``%.<digits>g`` CSV text of a float block, formatted as arrays.

``block_text`` gives the same bytes as ``"%.*g" % (digits, x)`` for every
value, joined by ``,`` with each row ended by ``\\n``.  Two paths share
the work:

* Fixed-notation values (rounded decimal exponent e in [-4, digits)) at
  ``digits <= MAX_DIGITS`` are formatted as arrays.  The value is scaled
  by an exact power of ten to a mantissa y in [10**(digits-1), 10**digits)
  with one rounding, and ``rint(y)`` is the mantissa m.  ``N = m *
  10**(e + 4)`` is the printed value with its decimal point moved
  ``digits + 3`` places to the right: an integer below 10**15, exact in
  float64.  Its integer and fraction digits are read from lookup tables of
  4-byte words into a fixed-width row per value; a mask keeps the sign, the
  integer digits from the first significant one (or a single 0), the point,
  the fraction digits up to the last nonzero one and the separator, and one
  compaction drops the rest.
* Every other value goes through ``_per_value``, the ``%`` itself: values
  printed in exponent notation, values that are not finite, and values
  whose scaled mantissa lies within ``GUARD`` of a rounding tie (k + 0.5)
  or a decade edge (10**(digits-1), 10**digits).  ``%`` rounds the exact
  binary value, so that path is exact for every input.  Where that is more
  than half of a block, and at more than ``MAX_DIGITS`` digits, the whole
  block goes through ``_per_block``, one row format filled by one ``%``.

Why the array path is exact: the ties and edges are floats, and rounding
is monotonic, so a y that is not on one of them lies on the same side of
each as the exact product.  A y inside (10**(digits-1), 10**digits) thus
means that e is the decade of the value (where ``log10`` is a decade off,
y falls outside and the value goes to ``%``), and ``rint(y)`` rounds to
the mantissa ``%`` prints wherever y is not on a tie.  ``GUARD`` keeps 16
ulp of margin around every tie and edge on top.
"""

from __future__ import annotations

import numpy as np

# Fixed-notation values are formatted as arrays up to this many digits: N
# has at most 2*digits + 3 decimal digits and must stay below 2**53, a row
# has 8 columns for the sign and up to ``digits`` integer digits and 9 for
# up to digits + 3 fraction digits, and a value printed by ``%`` has at
# most digits + 7 characters, which fit in the row before its separator.
MAX_DIGITS = 6
# Relative distance to a rounding tie or a decade edge below which a
# value's digits are left to ``%``: 16 ulp.
GUARD = 16 * np.finfo(float).eps

_POW10 = (10 ** np.arange(16, dtype=np.int64)).astype(float)  # exact
# The four decimal digits of 0..9999, most significant first.
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T
# Lookup table of 4-byte words, in memory order: the four digits of
# 0..9999; "." and the three digits of 0..999; the two digits of 0..99
# followed by "," and by "\n" (and a zero byte).
_WORDS = np.zeros((11200, 4), np.uint8)
_WORDS[:10000] = ord("0") + _DIGITS
_WORDS[10000:11000, 0] = ord(".")
_WORDS[10000:11000, 1:] = _WORDS[:1000, 1:]
_WORDS[11000:, :2] = np.repeat(_WORDS[:100, 2:], 2, axis=0)
_WORDS[11000:, 2] = np.tile(np.frombuffer(b",\n", np.uint8), 100)
_WORDS = _WORDS.view(np.uint32).ravel()
_POINT_WORDS = 10000
_END_WORDS = 11000
# Trailing decimal zeros of 0..9999 (4 for 0).
_TRAILING_ZEROS = np.logical_and.accumulate(_DIGITS[:, ::-1] == 0, axis=1).sum(
    axis=1, dtype=np.int32)

# A value's row: eight integer digits, the point, nine fraction digits, the
# separator and a zero byte.  The sign takes the place of the zero before
# the first integer digit.
_ROW = 20
_UNITS = 7  # column of the units digit
_FRACTION = 9
_SEPARATOR = 18
# _KEEP[start * (_FRACTION + 1) + f]: the columns kept of a row that starts
# at column ``start`` and prints f fraction digits (with the point if f > 0),
# and its separator, as one _ROW-byte item.
_STOP = _UNITS + 1 + np.arange(_FRACTION + 1) + (np.arange(_FRACTION + 1) > 0)
_COLS = np.arange(_ROW)
_KEEP = (_COLS >= np.arange(_UNITS + 1)[:, None, None]) & (_COLS < _STOP[:, None])
_KEEP[..., _SEPARATOR] = True
_KEEP = _KEEP.reshape(-1, _ROW).view(np.dtype((np.void, _ROW))).ravel()


def _per_block(block, digits):
    """CSV rows of a 2-d float block from one row format filled by one ``%``."""
    rows, ncols = block.shape
    return ((",".join([f"%.{digits}g"] * ncols) + "\n") * rows) % tuple(block.ravel().tolist())


def _per_value(values, digits):
    """``%.<digits>g`` of each value of a 1-d float array, left-aligned and
    padded with spaces to ``_SEPARATOR`` columns: a (values, _SEPARATOR)
    uint8 array."""
    text = (f"%-{_SEPARATOR}.{digits}g" * values.size) % tuple(values.tolist())
    return np.frombuffer(text.encode("ascii"), np.uint8).reshape(values.size, _SEPARATOR)


def block_text(block, digits):
    """CSV rows of a 2-d float block without -0.0 values, one
    ``%.<digits>g`` field per value."""
    if digits > MAX_DIGITS:
        return _per_block(block, digits)
    ncols = block.shape[1]
    x = block.ravel()
    n = x.size
    lo, hi = _POW10[digits - 1], _POW10[digits]

    # mantissa m and exponent e of the fixed-notation values
    y = np.abs(x)
    zero = y == 0.0
    fast = np.isfinite(y) & ~zero
    y[~fast] = 1.0  # log10 sees neither 0 nor a value that is not finite
    e = np.floor(np.log10(y)).astype(np.int32)
    fast &= (e >= -4) & (e < digits)
    e.clip(-4, digits - 1, out=e)
    y *= _POW10.take(digits - 1 - e)
    m = np.rint(y)
    fast &= (y > lo * (1 + GUARD)) & (y < hi * (1 - GUARD))
    y -= np.floor(y)
    y -= 0.5
    fast &= np.abs(y, out=y) > GUARD * hi  # not near a rounding tie
    carry = m == hi
    m[carry] = lo
    e[carry] += 1
    fast &= e < digits
    m[~fast] = 0.0  # zeros print as 0; the rest is overwritten below
    e[~fast] = 0
    slow = np.flatnonzero(~fast & ~zero)
    if 2 * slow.size > n:
        # mostly values for %, such as a current that vanishes up to
        # rounding: one % over the block costs less than arrays and splice
        return _per_block(block, digits)

    # integer part and fraction of N, the fraction left-aligned to 9 digits
    big = m * _POW10.take(e + 4)
    whole = np.floor(big / _POW10[digits + 3])  # exact: big < 2**53
    big -= whole * _POW10[digits + 3]
    big *= _POW10[6 - digits]
    words = np.empty((n, _ROW // 4), np.intp)
    words[:, 0] = np.floor(whole / 1e4)
    words[:, 1] = whole - words[:, 0] * 1e4
    words[:, 2] = np.floor(big / 1e6)
    big -= words[:, 2] * 1e6
    words[:, 2] += _POINT_WORDS
    words[:, 3] = np.floor(big / 100)
    words[:, 4] = big - words[:, 3] * 100
    words[:, 4] *= 2
    words[ncols - 1::ncols, 4] += 1  # "\n" ends a row
    words[:, 4] += _END_WORDS
    text = _WORDS.take(words).view(np.uint8)

    # fraction digits up to the last nonzero one, integer digits from the
    # first significant one
    low = m - np.floor(m / 1e4) * 1e4
    zeros = _TRAILING_ZEROS.take(low.astype(np.intp))
    if digits > 4:
        zeros[low == 0] += _TRAILING_ZEROS.take((m[low == 0] / 1e4).astype(np.intp))
    frac = np.maximum(digits - 1 - e - zeros, 0)
    start = _UNITS - np.maximum(e, 0)
    neg = np.flatnonzero(x < 0.0)
    start[neg] -= 1
    text.ravel()[neg * _ROW + start[neg]] = ord("-")
    keep = _KEEP.take(start * (_FRACTION + 1) + frac).view(np.bool_).reshape(n, _ROW)

    if slow.size:
        by_value = _per_value(x[slow], digits)
        text[slow, :_SEPARATOR] = by_value
        keep[slow, :_SEPARATOR] = by_value != ord(" ")
    return str(text[keep], "ascii")
