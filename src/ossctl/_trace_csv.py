"""The %.12g kernel of Trace.to_csv.  It is a module of its own because,
without cached bytecode, compiling it as part of sim.py cost every command
about 0.5 MB of peak memory."""

import functools

import numpy as np

_XMAX = 295  # _tables covers the decimal exponents X in [-_XMAX, _XMAX]
_FALLBACK = 18 * 48  # the first mask row of Python-formatted values


@functools.cache
def _tables():
    """The tables of csv_bytes, built on the first write.  By 4-digit
    group: its "d.d.d.d." word, and -4 times its trailing zeros (a leading
    0 counts 3, so that zero prints one digit).  By X + _XMAX: 10^(11 - X),
    the exponent word, and the mask row of 12 significant digits.  Then the
    mask rows, and the prefix word."""
    digits = np.full((10, 10, 10, 10, 8), ord("."), np.uint8)
    for k in range(4):
        digits[..., 2 * k] = np.arange(48, 58).reshape((10,) + (1,) * (3 - k))
    tz4 = np.zeros(10_000, np.int8)
    for step in (10, 100, 1000, 10_000):
        tz4[::step] -= 4
    lead4 = tz4.copy()
    lead4[0] = -12

    X = np.arange(-_XMAX, _XMAX + 1)
    exp = "".join(f"e{x:+03d}".ljust(5, "\0") + ",\r\n" for x in X.tolist())
    notation = np.where((X < -4) | (X > 11), 16 + (np.abs(X) >= 100), X + 4)

    # row ((kind * 12 + s) * 2 + neg) * 2 + last prints s + 1 digits
    kind, s, neg, last = np.indices((18, 12, 2, 2)).reshape(4, -1)
    Xk = np.where(kind < 16, kind - 4, 12)  # 12 marks exponential notation
    dot = np.where(Xk < 12, Xk, 0)  # the digit the dot follows
    i = np.arange(12)
    masks = np.zeros((_FALLBACK + 48, 40), bool)
    m = masks[:_FALLBACK]
    m[:, 2] = neg
    m[:, 3:8] = (Xk[:, None] < 0) & (np.arange(3, 8) <= 3 - Xk[:, None])
    m[:, 8:32:2] = i <= np.where(Xk < 12, np.maximum(Xk, s), s)[:, None]
    m[:, 9:32:2] = (i == dot[:, None]) & (s > dot)[:, None]
    m[:, 32:36] = (kind >= 16)[:, None]
    m[:, 36] = kind == 17
    length, last_fb = np.indices((24, 2)).reshape(2, -1)
    masks[_FALLBACK:, :24] = np.arange(24) < length[:, None]
    last = np.concatenate([last, last_fb]) == 1
    masks[:, 37] = ~last
    masks[:, 38:] = last[:, None]
    return (
        digits.view(np.uint64).ravel(), tz4, lead4, 10.0 ** (11 - X),
        np.frombuffer(exp.encode(), np.uint64), (48 * notation + 44).astype(np.int32),
        masks.view(np.uint64), np.frombuffer(b"\0\0-0.000", np.uint64)[0],
    )


def csv_bytes(chunk: np.ndarray) -> np.ndarray:
    """The rows of chunk as one uint8 array: each value as '%.12g' prints
    it, followed by "," or, ending a row, by "\r\n".

    Each value is laid out in a 40-byte slot: "\0\0-0.000" (the sign and
    the "0.000" that leads 1e-4 <= |v| < 1), the 12 significant digits as
    "d.d.d.d." x 3, then "e+XXX,\r\n".  The mask row
    48 * notation + 4 * (significant digits - 1) + 2 * sign + last column
    keeps the bytes that '%.12g' prints, with the notation fixed (X + 4) for
    X in [-4, 11], else exponential with a 2- (16) or 3-digit (17) exponent.

    The fast path takes X = floor(log10|v|) and M = rint(|v| 10^(11-X)) in
    float64, a product within about 4e-4 of the exact one.  It keeps M only
    when 1e11 <= |v| 10^(11-X) (computed) and M < 1e12, so that X is the
    exponent of v rounded to 12 digits, and when the product is more than
    1e-3 from a tie, so that M is correctly rounded.  Zero takes it as
    M = 0.  Every other value (nan, inf, near-ties, a log10 off by one, |v|
    outside [1e-290, 1e290]) has Python's text in its slot's first L bytes,
    and mask row _FALLBACK + 2 L + last column."""
    rows, cols = chunk.shape
    digits, tz4, lead4, p10, exp, row12, masks, prefix = _tables()
    v = chunk.ravel()
    a = np.abs(v)
    fast = (a >= 1e-290) & (a <= 1e290)
    a[~fast] = 1.0
    xi = np.floor(np.log10(a)).astype(np.intp) + _XMAX
    mf = a * p10[xi]
    m = np.rint(mf)
    fast &= (mf >= 1e11) & (m < 1e12) & (np.abs(mf - m) < 0.499)
    q, g2 = np.divmod(np.where(fast, m, 0.0).astype(np.int64), 10_000)
    g0, g1 = np.divmod(q, 10_000)
    slots = np.empty((v.size, 5), np.uint64)
    slots[:, 0] = prefix
    slots[:, 1] = digits[g0]
    slots[:, 2] = digits[g1]
    slots[:, 3] = digits[g2]
    slots[:, 4] = exp[xi]
    code = row12[xi] + tz4[g2] + (g2 == 0) * (tz4[g1] + (g1 == 0) * lead4[g0])
    code += np.signbit(v).view(np.uint8) << 1
    code.reshape(rows, cols)[:, -1] += 1

    slow = np.flatnonzero(~fast & (v != 0))
    if slow.size:
        text = "".join("%-24.12g" % x for x in v[slow].tolist()).encode()
        buf = np.frombuffer(text, np.uint8).reshape(-1, 24)
        slots.view(np.uint8)[slow, :24] = buf
        code[slow] = _FALLBACK + 2 * (buf != 32).sum(1) + (slow % cols == cols - 1)
    keep = np.take(masks, code, axis=0).view(bool).ravel()
    return np.compress(keep, slots.view(np.uint8).ravel())
