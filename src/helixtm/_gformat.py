"""``%.<digits>g`` CSV text of a float block, formatted as arrays.

``block_text`` gives the same bytes as ``"%.*g" % (digits, x)`` for every
value, joined by ``,`` with each row ended by ``\\n``.  Two paths share
the work:

* Fixed-notation values (rounded decimal exponent e in [-4, digits)) at
  ``digits <= MAX_DIGITS`` are formatted as arrays.  The value is scaled
  by an exact power of ten to a mantissa y in [10**(digits-1), 10**digits)
  with one rounding, and ``rint(y)`` is the mantissa m.  Its six-digit
  form ``m6 = m * 10**(6-digits)`` splits into ``G1 = floor(m6 * 0.001)``
  and ``G2 = m6 - 1000 G1``.  A value's text is a 16-byte slot of four
  4-byte words, read with one ``take``: its separator, sign and the "0."
  of e < 0; the zeros after that point; G1, from a variant for each pair
  (e, G2 == 0) that places the point and trims trailing zeros; G2, from a
  variant for each e.  The separator is "\\n" at a row's start and NUL at
  the block's, and one more slot ends the block.  The tables hold NUL for
  every byte ``%`` does not print, and one ``bytes.translate`` drops the
  NULs (and the spaces that pad a value printed by ``%``).  Every block of
  a table reuses one ``workspace``.
* Every other value goes through ``_per_value``, the ``%`` itself: values
  printed in exponent notation, values that are not finite, and values
  whose scaled mantissa lies within ``GUARD`` of a rounding tie (k + 0.5)
  or of the decade edge 10**(digits-1), or rounds up to 10**digits.  ``%``
  rounds the exact binary value, so that path is exact for every input.
  Where that is more than half of a block, and at more than ``MAX_DIGITS``
  digits, the whole block goes to ``_per_block``: one ``%`` over the rows.

Why the array path is exact: the ties and edges are floats, and rounding
is monotonic, so a y that is not on one of them lies on the same side of
each as the exact product.  A y inside (10**(digits-1), 10**digits) thus
means that e, ``floor(log10(|x|))`` clipped to [-4, digits), is the decade
of the value (where it is not, y falls outside and the value goes to
``%``), and ``rint(y)`` rounds to the mantissa ``%`` prints wherever y is
not on a tie; ``GUARD`` keeps 16 ulp of margin around every tie and edge
on top.  The upper edge is the tie 10**digits - 0.5: a mantissa that
rounds up to 10**digits is the next decade's (exponent notation if e =
digits - 1, one zero fewer after the point if e < 0) and goes to ``%``.
A zero takes e = 0, where G1 = G2 = 0 print "0".  The float 0.001 is
1/1000 (1 + 2.1e-17), closer than 2**-54, the smallest relative half-ulp,
so for an integer m6 < 10**6 the product m6 * 0.001 rounds to G1 where
G2 = 0 and lies strictly inside (G1, G1 + 1) otherwise: its floor is G1,
its ceiling G1 + [G2 != 0].  A slot holds one separator byte and at most
13 characters: "-0.000123456" in fixed notation, "-1.23456e-308" by ``%``.
"""

from __future__ import annotations

import functools

import numpy as np

# Fixed-notation values are formatted as arrays up to this many digits: m6
# has six, and a value printed by ``%`` (at most digits + 7 characters)
# fits in a slot after its separator.
MAX_DIGITS = 6
# Relative distance to a rounding tie or a decade edge below which a
# value's digits are left to ``%``: 16 ulp.
GUARD = 16 * np.finfo(float).eps

_POW10 = (10 ** np.arange(16, dtype=np.int64)).astype(float)  # exact
# The decades e of the word tables' rows.
_DECADES = np.arange(-4, MAX_DIGITS)
# A word: four bytes of text, the first in the lowest byte.
_WORD = np.dtype("<u4")


def _group_words():
    """The words of 3-digit groups g in [0, 1000), with q of the group's
    digits before the point (q = 0 puts the point before the group, 3 after
    it, 4 leaves it out): a (5, 1000, 2) array of [trimmed, followed by
    nonzero digits] words, where a trimmed word has NUL for trailing zeros
    after the point and for a point with no digit after it."""
    g = np.arange(1000)
    digits = np.stack([g // 100, g // 10 % 10, g % 10])
    chars = np.zeros((5, 1000), _WORD)  # the digits, ".", NUL
    chars[:3], chars[3] = ord("0") + digits, ord(".")
    keep = np.zeros((5, 1000), _WORD)  # a nonzero digit from digit i on
    keep[4] = 1
    for i in (2, 1, 0):
        keep[i] = (digits[i] != 0) | keep[i + 1]
    # for each byte of the word and each q: its row of ``chars``, and the
    # row of ``keep`` that trims it (4 for an integer digit)
    show = [[0, 0, 0, 0, 0], [1, 3, 1, 1, 1], [2, 1, 3, 2, 2], [4, 2, 2, 3, 4]]
    trim = [[0, 4, 4, 4, 4], [1, 1, 4, 4, 4], [2, 1, 2, 4, 4], [4, 2, 2, 3, 4]]
    words = np.zeros((5, 1000, 2), _WORD)
    for byte, (rows, trims) in enumerate(zip(show, trim)):
        plane = chars[rows] << 8 * byte
        words[..., 0] |= plane * keep[trims]
        words[..., 1] |= plane
    return words


@functools.cache
def _word_table():
    """The words of a slot, one row per decade of ``_DECADES``: G2's words,
    G1's words at 2 G1 + [G2 != 0], then the separator words of each sign
    and the zero words."""
    e = _DECADES
    groups = _group_words()
    high, low = groups[np.clip(e + 1, 0, 4)], groups[np.clip(e - 2, 0, 3), :, 0]
    words = np.frombuffer(",   ,-  , 0.,-0.    0   00  000 ".replace(" ", "\0").encode(), _WORD)
    sign = words[np.arange(2)[:, None] + 2 * (e < 0)]
    zeros = words[4 + np.clip(-1 - e, 0, 3)]
    return np.concatenate([low.ravel(), high.ravel(), sign.ravel(), zeros], dtype=_WORD)


# Where each table's row of e = 0 starts in ``_word_table()`` (built on
# first use): the rows of G2 (1000 words each), G1 (2000), the separators
# (two) and the zeros (one).
_W2, _W1, _SIGN, _ZEROS = 4000, 18000, 30004, 30024
# A value's slot: its separator byte, then its text.
_SLOT = 16


def workspace(size):
    """The arrays ``block_text`` works in, for blocks of up to ``size``
    values, reused by every block of a table; the last holds two float rows
    until it holds the text, ``size + 1`` slots."""
    return (np.empty((2, size)), np.empty((2, size), np.bool_),
            np.empty((size, 4), np.intp), np.empty(2 * size + 2))


def _per_block(block, digits):
    """CSV rows of a 2-d float block from one row format filled by one ``%``."""
    rows, ncols = block.shape
    return ((",".join([f"%.{digits}g"] * ncols) + "\n") * rows) % tuple(block.ravel().tolist())


def _per_value(values, digits):
    """``%.<digits>g`` of each value of a 1-d float array, left-aligned and
    padded with spaces to the text of a slot: a (values, _SLOT - 1) uint8
    array."""
    text = (f"%-{_SLOT - 1}.{digits}g" * values.size) % tuple(values.tolist())
    return np.frombuffer(text.encode("ascii"), np.uint8).reshape(values.size, _SLOT - 1)


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
    big, e = floats[:, :n]
    fast, flag = flags[:, :n]
    y, t = text[:2 * n].reshape(2, n)  # free until the text is written
    words, text = words[:n], text.view(_WORD)[:4 * (n + 1)].reshape(n + 1, 4)
    k = words.reshape(-1)[:n]  # free until the words are written

    # mantissa m = rint(y) and decade e of the fixed-notation values
    np.fmax(np.abs(x, out=y), 1e-300, out=y)  # log10 sees no 0 or nan
    np.clip(np.floor(np.log10(y, out=e), out=e), -4, digits - 1, out=e)
    np.add(e, 4, out=k, casting="unsafe")
    y *= np.take(_POW10[digits + 3::-1], k, out=t, mode="clip")  # 10**(digits-1-e)
    m = np.rint(np.fmin(y, hi, out=y), out=big)  # capped, so every index stays finite
    np.greater(y, lo * (1 + GUARD), out=fast)
    fast &= np.less(y, hi - 0.5, out=flag)  # m < 10**digits: no carry
    y -= m
    fast &= np.less(np.abs(y, out=y), 0.5 - GUARD * hi, out=flag)  # not near a tie
    fast |= np.equal(x, 0.0, out=flag)
    np.copyto(e, 0.0, where=flag)  # zeros print "0" in the rows of e = 0
    slow = np.flatnonzero(np.logical_not(fast, out=flag))
    if 2 * slow.size > n:
        # mostly values for %, such as a current that vanishes up to
        # rounding: one % over the block costs less than arrays and splice
        return _per_block(block, digits)

    # each word's index, as a float, then written to its column of
    # ``words``: G1 and [G2 != 0] from u = m6 * 0.001, G2 from m6
    big *= _POW10[6 - digits]  # m6
    g1 = np.floor(np.multiply(big, 0.001, out=t), out=y)
    np.ceil(t, out=t)
    t += g1  # 2 G1 + [G2 != 0]
    np.multiply(np.subtract(e, g1, out=y), 1000.0, out=y)
    y += big  # G2 + 1000 e
    t += np.multiply(e, 2000.0, out=big)
    np.multiply(np.less(x, 0.0, out=flag), float(_DECADES.size), out=big)
    big += e
    for column, (index, row) in enumerate([(big, _SIGN), (e, _ZEROS), (t, _W1), (y, _W2)]):
        np.add(index, row, out=words[:, column], casting="unsafe")
    np.take(_word_table(), words, out=text[:n], mode="clip")
    text[n] = 0
    slots = text.view(np.uint8)
    if slow.size:
        slots[slow, 1:] = _per_value(x[slow], digits)
    slots[ncols::ncols, 0] = ord("\n")  # a row's end, the block's in the last slot
    slots[0, 0] = 0
    return slots.tobytes().translate(None, b"\0 ").decode("ascii")  # drop NUL and padding
