"""Vectorized ASCII text of numbers for the output table of ``camt fit``.

:func:`float_cells` writes each float64 exactly as ``repr(float(v))``:
the shortest decimal string that reads back to v, and of those the
nearest to v. :func:`int_cells` writes non-negative integers as
``str``. Both return a uint8 matrix with one fixed-width cell per
value. NUL bytes anywhere in a cell are padding, and dropping them
leaves the text; the last byte of every cell is NUL, free for a
delimiter.

How a float's digits are found, for finite x with 1e-250 <= |x| <
1e250: with E the decimal exponent of |x|, y = |x| * 10**(16 - E) lies
in [1e16, 1e17). y is formed as an unevaluated sum hi + lo of two
doubles: 10**k is tabled as a correctly rounded pair, and the product
with |x| is exact by Dekker's split. The error of hi + lo is below
2**-104 * y, under 5e-15 units of the 17th significant digit. y rounded
to 17, 16 and 15 significant digits gives three candidates; one of
them is ``repr``'s: the 15-digit rounding whenever some string of at
most 15 digits reads back to x (then it is that string with its
trailing zeros dropped), else the 16-digit rounding if it reads back,
else the 17-digit rounding, which always does. A candidate reads back
to x when its distance from y is below half an ulp of x, in the same
units.

Fallback: every quantity compared above (the remainders at the three
roundings and the distances compared with the half ulp) is known to
within 1e-13 units. A value is certified only if no comparison that
decides its text lies within 1e-9 units of its boundary: the distance
of the 15- or the 16-digit rounding from half an ulp, a tie at the
16-digit rounding when half an ulp exceeds 5 units (both neighbours
then read back), and a tie at the 17-digit rounding when neither
shorter rounding reads back. Half an ulp is at most 11.2 units, so a
tie at the 15-digit rounding never reads back. Every other value is
written by ``repr`` itself: zeros, NaN, infinities, |x| outside
[1e-250, 1e250), exact powers of two (whose rounding interval is
asymmetric) and the values near a boundary above. Exact ties are
common only for |x| between about 1e13 and 1e20, where the binary
fraction is short. The fallback depends only on the value, so the text
never does.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

FLOAT_CELL = 32
INT_CELL = 24

_E_LO, _E_HI = -250, 250  # certified range: 10**_E_LO <= |x| < 10**_E_HI
_TOL = 1e-9  # certify only values this far (17th-digit units) from every boundary
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
_DIGIT0 = 7  # byte of a float cell that holds the leading digit


class _Tables(NamedTuple):
    pow10: np.ndarray  # (4, n): 10**k as hi, split(hi) and lo, by _E_HI + 1 - E
    quads: np.ndarray  # uint32: the four ASCII digits of 0..9999
    quad_zeros: np.ndarray  # trailing zeros of 0..9999 as four digits
    prefix: np.ndarray  # uint64 text: sign, then "0." and up to three zeros
    exponent: np.ndarray  # uint64 text "\0e+XX" by E - _E_LO + 2; entry 0 empty
    keep: np.ndarray  # float cell masks by point * 18 + visible digits
    shift: np.ndarray
    point: np.ndarray
    int_keep: np.ndarray  # int cell masks by digit count


def _split(a):
    """Dekker split: a == hi + lo, each with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _packed(strings):
    """uint64 array whose bytes are each string, NUL padded to 8."""
    return np.frombuffer(b"".join(s.encode().ljust(8, b"\0") for s in strings), np.uint64)


@functools.cache
def _tables():
    hi, lo = [], []
    for k in range(16 - _E_HI - 1, 16 - _E_LO + 2):
        # 10**k = a / b; int true division is correctly rounded
        a, b = 10 ** max(k, 0), 10 ** max(-k, 0)
        h = a / b
        num, den = h.as_integer_ratio()
        hi.append(h)
        lo.append((a * den - num * b) / (b * den))
    hi = np.array(hi)
    pow10 = np.stack([hi, *_split(hi), np.array(lo)])

    q = np.arange(10000)
    digits = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1)
    quads = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    quad_zeros = sum(q % 10**j == 0 for j in range(1, 5))

    prefix = _packed([s + p for s in ("", "-") for p in ("", "0.", "0.0", "0.00", "0.000")])
    exponent = _packed([""] + [f"\0e{e:+03d}" for e in range(_E_LO - 1, _E_HI + 2)])

    # a float cell: bytes 0-6 sign and "0.000" prefix, 7-23 the 17
    # digits, 25-29 the exponent. Digit j stays in place if it is
    # before the point, moves one byte right if after it, and is
    # dropped from the visible count on. Row point * 18 + visible.
    point, visible = np.divmod(np.arange(19 * 18)[:, None], 18)
    j = np.arange(FLOAT_CELL) - _DIGIT0
    body = (j >= 0) & (j <= 17)
    keep = ~body | ((j < point) & (j < visible))
    shift = body & (j - 1 >= point) & (j - 1 < visible)
    dot = body & (j == point)

    # an int cell: 20 digits, the leading zeros dropped
    count = np.arange(21)[:, None]
    c = np.arange(INT_CELL)
    int_keep = (c >= 20 - count) & (c < 20)

    tables = _Tables(
        pow10,
        quads,
        quad_zeros,
        prefix,
        exponent,
        keep.astype(np.uint8),
        shift.astype(np.uint8),
        dot.astype(np.uint8) * np.uint8(ord(".")),
        int_keep.astype(np.uint8),
    )
    for t in tables:
        t.flags.writeable = False
    return tables


def _scaled(a, E, pow10):
    """(hi, lo, 10**(16 - E) rounded): a * 10**(16 - E) == hi + lo to
    within 2**-104 of itself."""
    ph, ph_hi, ph_lo, pl = pow10.take(_E_HI + 1 - E, axis=1)
    p = a * ph
    a_hi, a_lo = _split(a)
    e = ((a_hi * ph_hi - p) + a_hi * ph_lo + a_lo * ph_hi) + a_lo * ph_lo + a * pl
    hi = p + e
    return hi, e - (hi - p), ph


def float_cells(x):
    """(x.size, FLOAT_CELL) uint8 cells holding repr(float(v)) of each
    value of x, in row-major order."""
    t = _tables()
    x = np.asarray(x, dtype=np.float64).ravel()
    n = x.size
    a = np.abs(x)
    mant, e2 = np.frexp(a)
    certified = (a >= 10.0**_E_LO) & (a < 10.0**_E_HI) & (mant != 0.5)
    a = np.where(certified, a, 1.0)

    # y = a * 10**(16 - E) = hi + lo in [1e16, 1e17); log10 may miss E by one
    E = np.floor(np.log10(a)).astype(np.int64)
    hi, lo, ph = _scaled(a, E, t.pow10)
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    if below.any() or above.any():
        E += above.astype(np.int64) - below
        hi, lo, ph = _scaled(a, E, t.pow10)

    # the 17-digit rounding is top * 1e8 + low, y minus it is r; every
    # quantity below is an exactly held integer or within 1e-13 of exact
    top, bot = np.divmod(hi.astype(np.int64), 10**8)
    top = top.astype(np.float64)
    low = np.round(lo)
    r = lo - low
    low += bot
    half_ulp = np.ldexp(ph, e2 - 54)
    tens = np.floor(low / 10)
    t16 = (low - 10 * tens) + r  # y minus the 16-digit rounding down
    up16 = t16 > 5
    off16 = np.abs(t16 - 10 * up16)
    hundreds = np.floor(low / 100)
    t15 = (low - 100 * hundreds) + r
    up15 = t15 > 50
    off15 = np.abs(t15 - 100 * up15)
    fits15 = off15 < half_ulp
    fits16 = off16 < half_ulp
    certified &= ~(
        (np.abs(off15 - half_ulp) < _TOL)
        | (np.abs(off16 - half_ulp) < _TOL)
        | ((np.abs(t16 - 5) < _TOL) & (half_ulp > 5))
        | ((np.abs(np.abs(r) - 0.5) < _TOL) & ~fits15 & ~fits16)
    )
    low = np.where(fits15, (hundreds + up15) * 100, np.where(fits16, (tens + up16) * 10, low))
    carry = np.floor(low / 1e8)
    top += carry
    low -= carry * 1e8
    over = top == 1e9  # rounded up to 10**17
    top[over] = 1e8
    E += over

    # the leading digit and four groups of four
    groups = np.empty((5, n))
    groups[0] = np.floor(top / 1e8)
    top -= 1e8 * groups[0]
    groups[1] = np.floor(top / 1e4)
    groups[2] = top - 1e4 * groups[1]
    groups[3] = np.floor(low / 1e4)
    groups[4] = low - 1e4 * groups[3]
    groups = groups.astype(np.intp)
    zeros = t.quad_zeros.take(groups[1:])
    whole = zeros == 4
    n_digits = 17 - (
        zeros[3] + whole[3] * (zeros[2] + whole[2] * (zeros[1] + whole[1] * zeros[0]))
    )

    # repr's forms by decpt = E + 1: dd.ddd or ddd.0 for 1..16, 0.000ddd
    # for -3..0, d.ddde±XX otherwise
    decpt = E + 1
    fixed = (decpt >= 1) & (decpt <= 16)
    small = (decpt <= 0) & (decpt >= -3)
    sci = ~(fixed | small)
    visible = np.where(fixed, np.maximum(n_digits, decpt + 1), n_digits)
    point = np.where(fixed, decpt, np.where(sci & (n_digits > 1), 1, 18))

    # one spare cell in front, so that flat[FLOAT_CELL - 1 : -1] is
    # the cells shifted one byte right
    flat = np.empty((n + 1) * FLOAT_CELL, np.uint8)
    cells = flat[FLOAT_CELL:].reshape(n, FLOAT_CELL)
    words = cells.view(np.uint64)
    words[:, 0] = t.prefix.take(np.signbit(x) * 5 + small * (1 - decpt))
    words[:, 3] = t.exponent.take(sci * (E - _E_LO + 2))
    cells[:, _DIGIT0] = groups[0] + ord("0")
    quad_words = cells.view(np.uint32)
    for i in range(4):
        quad_words[:, 2 + i] = t.quads.take(groups[1 + i])
    layout = point * 18 + visible
    out = cells * t.keep.take(layout, axis=0)
    out += flat[FLOAT_CELL - 1 : -1].reshape(n, FLOAT_CELL) * t.shift.take(layout, axis=0)
    out += t.point.take(layout, axis=0)

    fallback = np.flatnonzero(~certified)
    if fallback.size:
        texts = np.array([repr(v) for v in x[fallback].tolist()], dtype=f"S{FLOAT_CELL}")
        out[fallback] = texts.view(np.uint8).reshape(-1, FLOAT_CELL)
    return out


def int_cells(v):
    """(v.size, INT_CELL) uint8 cells holding str(int(i)) of each
    non-negative int64 of v."""
    t = _tables()
    v = np.asarray(v, dtype=np.int64).ravel()
    count = 1 + np.searchsorted(10 ** np.arange(1, 19), v, side="right")
    cells = np.empty((v.size, INT_CELL), np.uint8)
    quad_words = cells.view(np.uint32)
    for i in range(4, -1, -1):
        v, quad = np.divmod(v, 10000)
        quad_words[:, i] = t.quads.take(quad)
    return cells * t.int_keep.take(count, axis=0)
