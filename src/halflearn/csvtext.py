"""Exact '%.17g' text for blocks of doubles, vectorised with numpy.

The digit generation follows the fixed-precision idea of Ryu-printf (Adams
2019, "Ryu revisited: printf floating point conversion"): with 17 digits and
moderate exponents, every digit comes from integer arithmetic no wider than
128 bits.  A normal double x = f * 2**(e - 1075) with decimal exponent
X = floor(log10|x|) in [_X_MIN, _X_MAX] has the 17 significant digits
N = round_half_even(f * 5**t / 2**s), t = 16 - X in [0, 27] and
s = 1075 - e - t.  5**27 < 2**63, so f * 5**t < 2**116 fits in two uint64
limbs, and s lies in [-4, 62]: one shift of the 128-bit product gives N.  Zero,
subnormals and |x| outside [1e-11, 1e17) keep a per-value '%.17g' % x.

No double in that range rounds up to N = 10**17: the largest double below each
power of ten from 1e-10 to 1e17 keeps N < 10**17 (the powers-of-ten test in
tests/test_datagen.py formats each), so X is final once it is floor(log10|x|).
"""

from __future__ import annotations

import numpy as np

_X_MIN, _X_MAX = -11, 16
_LO32 = np.uint64(0xFFFFFFFF)
_POW5 = np.array([5**t for t in range(28)], dtype=np.uint64)
_POW5_HI, _POW5_LO = _POW5 >> 32, _POW5 & _LO32
_ONE = np.uint64(1)
_E8, _E16, _E17 = np.uint64(10**8), np.uint64(10**16), np.uint64(10**17)

# Values formatted per pass.  A pass makes a few dozen arrays of this many
# values, about 80 KB each, which stay in cache: on a 2-vCPU Xeon VM, passes
# of 16x as many values took 1.9x as long per value.
_PASS_VALUES = 10240

# Each value gets a slot in a character grid: its sign, the "0.000" prefix of
# -4 <= X < 0, a digit region holding "D0.D1...D16" (or "D0...DX.D(X+1)..." for
# 1 <= X <= 16), the exponent "e+XX" and the separator.  Every output is a
# subsequence of its slot, and which one depends only on the layout (sign, X,
# significant-digit count k), so one mask row per layout picks it out.
_SLOT = np.frombuffer(b"-0.000" + b"0." + b"0" * 16 + b"e+00,", dtype=np.uint8)
_SLOT_W = len(_SLOT)
_REGION = 6  # first column of the digit region
_LAYOUT_XS = _X_MAX + 1 - _X_MIN


def _layout_masks() -> np.ndarray:
    """(2 * _LAYOUT_XS * 17 + 1, _SLOT_W) bool: the slot columns that '%.17g'
    prints for each layout, then the fallback row (the separator alone)."""
    c = np.arange(_SLOT_W)
    neg = np.array([False, True])[:, None, None, None]
    X = np.arange(_X_MIN, _X_MAX + 1)[None, :, None, None]
    k = np.arange(1, 18)[None, None, :, None]
    fixed_neg = (X >= -4) & (X < 0)  # 0.000ddd
    fixed_pos = X >= 0  # ddd.ddd, trailing zeros and a bare "." stripped
    expo = X < -4  # d.ddde-XX
    r = c - _REGION
    in_region = (r >= 0) & (r < 18)
    dot = np.where(fixed_pos, X + 1, 1)  # region column of the "."
    shown = np.where(fixed_pos, np.maximum(k, X + 1), k)  # digits printed
    digit = np.where(r < dot, r, r - 1)  # which digit a region column holds
    m = (neg & (c == 0)) | (c == _SLOT_W - 1)
    m = m | (fixed_neg & ((c == 1) | (c == 2) | ((c >= 3) & (c < 2 - X))))
    m = m | (in_region & (r != dot) & (digit < shown))
    m = m | (in_region & (r == dot) & np.where(fixed_pos, k > X + 1, expo & (k > 1)))
    m = m | (expo & (c >= _SLOT_W - 5) & (c < _SLOT_W - 1))
    return np.vstack([m.reshape(-1, _SLOT_W), c == _SLOT_W - 1])


_MASKS = _layout_masks()
_MASK_ROWS = _MASKS.view(np.dtype((np.void, _SLOT_W))).ravel()  # np.take copies a row at once
_MASK_LENS = _MASKS.sum(axis=1)
_FALLBACK = len(_MASKS) - 1
_EXPONENTS = np.frombuffer(b"".join(b"%+03d" % X for X in range(_X_MIN, _X_MAX + 1)), np.uint8).reshape(-1, 3)
_DIGITS = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
_CHUNK_TEXT = (_DIGITS + ord("0")).astype(np.uint8).view(np.uint32).ravel()  # i -> b"%04d" % i
# i -> the trailing zeros of b"%04d" % i
_CHUNK_ZEROS = np.where(np.arange(10000) == 0, 4, np.argmax(_DIGITS[:, ::-1] != 0, axis=1))


def _scaled(f: np.ndarray, e: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, up) with T = floor(f * 5**t / 2**s) and up = 1 where rounding half
    to even raises T by one; t = 16 - X, s = 1075 - e - t."""
    t = 16 - X
    p_hi, p_lo = _POW5_HI[t], _POW5_LO[t]
    s = (1059 - e) + X
    f_hi, f_lo = f >> 32, f & _LO32  # 21 and 32 bits; p_hi has 31, p_lo 32
    ll = f_lo * p_lo
    mid = f_lo * p_hi + f_hi * p_lo  # < 2**64
    lo = ll + (mid << 32)
    hi = f_hi * p_hi + (mid >> 32) + (lo < ll)
    right = np.maximum(s, 1).astype(np.uint64)
    T = (hi << (64 - right)) | (lo >> right)  # T < 2**60, so hi < 2**right
    rem = lo & ((_ONE << right) - _ONE)
    up = rem + (T & _ONE) > _ONE << (right - _ONE)  # above half, or half and T odd
    left = s <= 0  # |x| >= 2**53: the product is exact, hi = 0
    if left.any():
        T = np.where(left, lo << (-np.minimum(s, 0)).astype(np.uint64), T)
        up &= ~left
    return T, up


def format_rows(block: np.ndarray) -> bytes:
    """The CSV rows of a (rows, cols) float64 block: each value as '%.17g'
    formats it, ',' between values, a newline after each row."""
    step = max(1, _PASS_VALUES // block.shape[1])
    return b"".join(_format_pass(block[i : i + step]) for i in range(0, len(block), step))


def _format_pass(block: np.ndarray) -> bytes:
    rows, cols = block.shape
    v = np.ascontiguousarray(block, dtype=np.float64).ravel()
    bits = v.view(np.uint64)
    e = ((bits >> 52) & np.uint64(0x7FF)).astype(np.int64)
    X = np.floor(np.log10(np.where(e != 0, np.abs(v), 1.0))).astype(np.int64)
    exact = (e != 0) & (X >= _X_MIN) & (X <= _X_MAX)
    if not exact.all():  # computed as 1.0, printed by the fallback
        X[~exact], e[~exact] = 0, 1023
    f = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    T, up = _scaled(f, e, X)
    # log10 can round across a power of ten; the truncated T is in [10**16,
    # 10**17) exactly when X = floor(log10|x|).  (The rounded N is not: it
    # would print 9.9999999999999995e-08 as 1e-07.)
    off = np.flatnonzero((T < _E16) | (T >= _E17))
    if len(off):
        Xo = X[off] + (T[off] >= _E17) - (T[off] < _E16).astype(np.int64)
        ok = (Xo >= _X_MIN) & (Xo <= _X_MAX)
        exact[off] &= ok
        X[off], e[off] = np.where(ok, Xo, 0), np.where(ok, e[off], 1023)
        T[off], up[off] = _scaled(f[off], e[off], X[off])
    N = T + up

    # N's 17 digits as five 4-digit chunks looked up as text: "000" D0 ... D16
    hi = N // _E8
    lo = (N - hi * _E8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    d0 = hi // 10**8
    mid = hi - d0 * 10**8
    c1, c3 = mid // 10000, lo // 10000
    chunks = np.stack([d0, c1, mid - c1 * 10000, c3, lo - c3 * 10000], axis=1)
    text = _CHUNK_TEXT[chunks].view(np.uint8)
    zeros = _CHUNK_ZEROS[chunks[:, 4]]
    more = np.flatnonzero(zeros == 4)
    for j in (3, 2, 1):  # d0 >= 1 ends the run
        if not len(more):
            break
        z = _CHUNK_ZEROS[chunks[more, j]]
        zeros[more] += z
        more = more[z == 4]
    layout = ((bits >> 63).astype(np.int64) * _LAYOUT_XS + (X - _X_MIN)) * 17 + (16 - zeros)
    layout[~exact] = _FALLBACK

    grid = np.empty((rows, cols, _SLOT_W), np.uint8)
    grid[:] = _SLOT
    grid[:, -1, -1] = ord("\n")
    slots = grid.reshape(rows * cols, _SLOT_W)
    slots[:, _REGION] = text[:, 3]
    slots[:, _REGION + 2 : _REGION + 18] = text[:, 4:]
    wide = np.flatnonzero(X >= 1)
    if len(wide):  # move the "." behind digit X
        col = np.arange(18)
        Xw = X[wide, None]
        moved = np.take_along_axis(text[wide, 3:], np.where(col <= Xw, col, col - 1), axis=1)
        slots[wide, _REGION : _REGION + 18] = np.where(col == Xw + 1, ord("."), moved)
    expo = np.flatnonzero(X < -4)
    slots[expo, _SLOT_W - 4 : _SLOT_W - 1] = _EXPONENTS[X[expo] - _X_MIN]
    out = np.compress(np.take(_MASK_ROWS, layout).view(np.bool_), grid.reshape(-1))
    if exact.all():
        return out.tobytes()
    lens = _MASK_LENS[layout]
    starts = np.cumsum(lens) - lens
    parts, done = [], 0
    for i in np.flatnonzero(~exact):
        parts += [out[done : starts[i]].tobytes(), b"%.17g" % v[i]]
        done = starts[i]
    parts.append(out[done:].tobytes())
    return b"".join(parts)
