"""``%.<digits>g`` CSV text of a float block, formatted as arrays.

``block_text`` gives the same bytes as ``"%.*g" % (digits, x)`` for every
value, joined by ``,`` with each row ended by ``\\n``.  Two paths share
the work:

* Fixed-notation values (rounded decimal exponent e in [-4, digits)) at
  ``digits <= MAX_DIGITS`` are formatted as arrays.  The value is scaled
  by an exact power of ten to a mantissa y in [10**(digits-1), 10**digits)
  with one rounding, and ``rint(y)`` is the mantissa m.  ``N = m *
  10**(e + 10 - digits)`` is the printed value times 10**9: an integer
  below 10**15, exact in float64.  Its digits are five 4-byte words, the
  integer part in two and the nine fraction digits in three, read with
  one ``take`` from tables whose variants hold NUL in place of the bytes
  ``%`` does not print: the sign of a positive value, the leading zeros of
  the integer part, the trailing zeros of the fraction and the point of a
  zero fraction.  An index offset picks each word's variant, and one
  ``bytes.translate`` drops every NUL (and the spaces that pad a value
  printed by ``%``).  Every block of a table reuses one ``workspace``.
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
means that e, ``floor(log10(|x|))`` clipped to [-4, digits), is the
decade of the value (where it is not, y falls outside and the value goes
to ``%``), and ``rint(y)`` rounds to the mantissa ``%`` prints wherever y
is not on a tie; an m rounded up to 10**digits is the next decade's, and
exponent notation if e = digits - 1.  ``GUARD`` keeps 16 ulp of margin
around every tie and edge on top.
"""

from __future__ import annotations

import numpy as np

# Fixed-notation values are formatted as arrays up to this many digits: N
# has at most digits + 9 decimal digits and must stay below 2**53, and a
# value printed by ``%`` (at most digits + 7 characters) fits in a slot.
MAX_DIGITS = 6
# Relative distance to a rounding tie or a decade edge below which a
# value's digits are left to ``%``: 16 ulp.
GUARD = 16 * np.finfo(float).eps

_POW10 = (10 ** np.arange(16, dtype=np.int64)).astype(float)  # exact


def _word_table():
    """The uint32 words of a slot, NUL where a byte is not printed: w0, w0 for
    x < 0, w1 for w0 == 0, four digits (w1, w3), w3 for w4 == 0, w2, w2 for
    a fraction that ends there, and 2 * w4 + [row end]."""
    digits = np.stack(np.indices((10,) * 4, np.uint8), axis=-1).reshape(-1, 4)  # of 0..9999
    text, lead, trail = ord("0") + digits, digits == 0, digits == 0
    for j in (1, 2, 3):
        lead[:, j] &= lead[:, j - 1]  # leading zeros
        trail[:, 3 - j] &= trail[:, 4 - j]  # trailing zeros
    high, units = text[:100] * ~lead[:100], text * ~lead
    minus, point = high.copy(), text[:1000].copy()
    minus[:, 0], point[:, 0], units[0, 3] = ord("-"), ord("."), ord("0")  # integer part 0: "0"
    end = np.zeros((200, 4), np.uint8)
    end[:, :2] = np.repeat(text[:100, 2:] * ~trail[:100, 2:], 2, axis=0)
    end[:, 2] = np.tile(np.frombuffer(b",\n", np.uint8), 100)
    words = [high, minus, units, text, text * ~trail, point,
             point * ~trail[:1000, [1, 1, 2, 3]], end]
    return np.concatenate(words).view(np.uint32).ravel()


_WORDS = _word_table()
# Where the tables of w1, w2, w3 and w4 start in _WORDS (w0's at 0).
_W1, _W2, _W3, _W4 = 200, 30200, 10200, 32200
# A value's slot: five words, 20 bytes, of which the first _SEPARATOR are
# overwritten for a value printed by ``%``.
_ROW = 20
_SEPARATOR = 18


def workspace(size):
    """The arrays ``block_text`` works in, for blocks of up to ``size``
    values, reused by every block of a table; the last holds two float rows
    until it holds the text."""
    return (np.empty((2, size)), np.empty((2, size), np.bool_),
            np.empty((size, _ROW // 4), np.intp), np.empty((_ROW * size + 7) // 8))


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


def block_text(block, digits, work):
    """CSV rows of a 2-d float block without -0.0 values, one
    ``%.<digits>g`` field per value, formatted in ``work``, a ``workspace``
    of at least the block's size."""
    if digits > MAX_DIGITS:
        return _per_block(block, digits)
    ncols = block.shape[1]
    x = block.ravel()
    n = x.size
    lo, hi = _POW10[digits - 1], _POW10[digits]
    floats, flags, words, text = work
    big, w = floats[:, :n]
    fast, flag = flags[:, :n]
    y, t = text[:2 * n].reshape(2, n)  # free until the text is written
    words, text = words[:n], text.view(np.uint32)[:_ROW // 4 * n].reshape(n, _ROW // 4)
    k = words.reshape(-1)[:n]  # free until the words are written

    # mantissa m = rint(y) and decade e of the fixed-notation values; both
    # takes clip k = e + 4 to [0, digits + 3]
    np.abs(x, out=y)
    np.fmin(np.fmax(y, 1e-300, out=y), 1e100, out=y)  # log10 sees no 0, inf or nan
    np.floor(np.log10(y, out=t), out=t)
    np.add(t, 4, out=k, casting="unsafe")
    y *= np.take(_POW10[digits + 3::-1], k, out=t, mode="clip")  # 10**(digits-1-e)
    m = np.rint(y, out=big)
    np.greater(y, lo * (1 + GUARD), out=fast)
    fast &= np.less(y, hi * (1 - GUARD), out=flag)
    y -= m
    fast &= np.less(np.abs(y, out=y), 0.5 - GUARD * hi, out=flag)  # not near a tie
    # N = m * 10**(e + 10 - digits): the printed value times 10**9
    big *= np.take(_POW10[6 - digits:10], k, out=t, mode="clip")
    fast &= np.less(big, _POW10[digits + 9], out=flag)  # no carry to exponent notation
    big *= fast  # zeros print as 0; the rest is overwritten below
    fast |= np.equal(x, 0.0, out=flag)
    slow = np.flatnonzero(np.logical_not(fast, out=flag))
    if 2 * slow.size > n:
        # mostly values for %, such as a current that vanishes up to
        # rounding: one % over the block costs less than arrays and splice
        return _per_block(block, digits)

    # the words of N (integer in w0, w1; fraction in w2, w3, w4), each
    # written to ``words`` once final with its variant: NUL for a positive
    # sign, the integer's leading zeros and the fraction's trailing zeros
    np.floor(np.divide(big, 1e9, out=t), out=t)  # integer part
    big -= np.multiply(t, 1e9, out=y)  # fraction, as 9 digits
    np.floor(np.divide(t, 1e4, out=w), out=w)  # w0
    t -= np.multiply(w, 1e4, out=y)  # w1
    t += np.multiply(np.not_equal(w, 0.0, out=flag), 1e4, out=y)
    np.add(t, _W1, out=words[:, 1], casting="unsafe")
    w += np.multiply(np.less(x, 0.0, out=flag), 100.0, out=y)
    np.copyto(words[:, 0], w, casting="unsafe")
    np.floor(np.divide(big, 1e6, out=w), out=w)  # w2
    big -= np.multiply(w, 1e6, out=y)
    w += np.multiply(np.equal(big, 0.0, out=flag), 1e3, out=y)
    np.add(w, _W2, out=words[:, 2], casting="unsafe")
    np.floor(np.divide(big, 100.0, out=w), out=w)  # w3
    big -= np.multiply(w, 100.0, out=y)  # w4
    w += np.multiply(np.equal(big, 0.0, out=flag), 1e4, out=y)
    np.add(w, _W3, out=words[:, 3], casting="unsafe")
    big *= 2
    big[ncols - 1::ncols] += 1  # "\n" ends a row
    np.add(big, _W4, out=words[:, 4], casting="unsafe")
    np.take(_WORDS, words, out=text, mode="wrap")
    if slow.size:
        text.view(np.uint8).reshape(n, _ROW)[slow, :_SEPARATOR] = _per_value(x[slow], digits)
    return text.tobytes().translate(None, b"\0 ").decode("ascii")  # drop NUL and padding
