"""Base groups of the three families and their boundary metrics.

Three base groups B are supported exactly:

* the lamplighter base ``⊕_Z Z_n`` (finitely supported configurations),
  packed into digit fields of one int: two configurations aligned at one
  ``low`` differ exactly at the nonzero fields of their XOR, and for n = 2
  the sum is that XOR.  The field layout lives here (``lamp_align``,
  ``digits_at``, ``diff_span``, ``window_digits``, ``rewrite_window``,
  ``field_bit``, ``field_rewrites``, ``check_write``); for speed,
  ``maps.qi_distortion`` and ``quads.verify_lamp_claim`` read packed fields
  inline.  A config or an aligned pair packs into at most ``MAX_LAMP_BITS`` bits,
* ``Z[1/n]`` in normalized form ``r * n^k`` with ``n ∤ r``,
* ``Z^2`` carrying the quadratic form left invariant by a hyperbolic
  ``A ∈ SL(2,Z)``.

On each we compute the product boundary quantity ``delta`` and the lower
and upper boundary metrics where they make sense.  All arithmetic is exact
(ints and Fractions); no float appears.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import DomainError

SolVector = tuple[int, int]
Matrix2 = tuple[tuple[int, int], tuple[int, int]]


# ---------------------------------------------------------------------------
# lamplighter configurations
# ---------------------------------------------------------------------------

class Frozen:
    """Base of the slotted value types: attributes are set once, through
    their slot descriptors, by the module that builds the object.  The repr
    and the pickle form list the constructor arguments named in ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


# The packed int of a configuration, and of two configurations aligned for
# one operation, has at most this many bits: a field of 2^digit_shift(n) bits
# for every index from the lowest to the highest (2^16 indices for n = 2,
# 2^15 for n = 3 or 4).  This bounds memory, and time too: at the edge, a
# dense n = 3 sum with its entries takes about 0.35 s on a 2-vCPU VM
MAX_LAMP_BITS = 1 << 16


def _span_error(span: int, shift: int) -> DomainError:
    return DomainError(f"a configuration spanning {span} indices of {1 << shift} bits each is "
                       f"above the budget of MAX_LAMP_BITS = {MAX_LAMP_BITS} bits")


class LampConfig(Frozen):
    """Finitely supported function Z -> Z_n, packed into one int.

    The digit of index ``low + i`` is field i of ``digits``, at bit
    ``i << digit_shift(n)``; ``low`` is the lowest support index (0 for the
    zero config).  The form is canonical, so equality compares (n, low,
    digits) and the hash is computed once.  ``entries``, the (index, value)
    pairs sorted by index with values in 1..n-1, is kept from the
    constructor or derived on first read.  A config whose fields would take
    more than MAX_LAMP_BITS bits raises DomainError.
    """

    __slots__ = ("n", "digits", "low", "_hash", "_entries")
    _fields = ("n", "entries")

    def __new__(cls, n: int, entries: tuple[tuple[int, int], ...] = ()):
        if n < 2:
            raise DomainError(f"modulus must be >= 2, got {n}")
        shift = digit_shift(n)
        low = entries[0][0] if entries else 0
        digits = 0
        prev = None
        for idx, val in entries:
            if prev is not None and idx <= prev:
                raise DomainError("entries must be strictly sorted by index")
            if not 0 < val < n:
                raise DomainError(f"value {val} at index {idx} not in 1..{n - 1}")
            if (idx - low + 1) << shift > MAX_LAMP_BITS:
                raise _span_error(idx - low + 1, shift)
            digits |= val << ((idx - low) << shift)
            prev = idx
        cfg = packed_lamp(n, digits, low)
        _set_entries(cfg, tuple(entries))
        return cfg

    @classmethod
    def of(cls, n: int, items: Mapping[int, int] | Iterable[tuple[int, int]] = ()) -> "LampConfig":
        """Build a canonical config from a mapping or (index, value) pairs.

        Values are reduced mod n; repeated indices accumulate; zeros drop out.
        """
        acc: dict[int, int] = {}
        pairs = items.items() if isinstance(items, Mapping) else items
        for idx, val in pairs:
            acc[idx] = (acc.get(idx, 0) + val) % n
        return cls(n, tuple(sorted((i, v) for i, v in acc.items() if v)))

    @classmethod
    def zero(cls, n: int) -> "LampConfig":
        return cls(n)

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        try:
            return self._entries
        except AttributeError:
            shift = digit_shift(self.n)
            _set_entries(self, tuple((self.low + (pos >> shift), v)
                                     for pos, v in _nonzero_fields(self.digits, shift)))
            return self._entries

    def value_at(self, index: int) -> int:
        if index < self.low:
            return 0
        shift = digit_shift(self.n)
        return self.digits >> ((index - self.low) << shift) & ((1 << (1 << shift)) - 1)

    def support(self) -> tuple[int, ...]:
        return tuple(idx for idx, _ in self.entries)

    def is_zero(self) -> bool:
        return not self.digits

    def __add__(self, other: "LampConfig") -> "LampConfig":
        return lamp_add(self, other)

    def __neg__(self) -> "LampConfig":
        return lamp_neg(self)

    def __sub__(self, other: "LampConfig") -> "LampConfig":
        return lamp_add(self, lamp_neg(other))

    def __eq__(self, other):
        if other.__class__ is not LampConfig:
            return NotImplemented
        return self.digits == other.digits and self.low == other.low and self.n == other.n

    def __hash__(self) -> int:
        return self._hash


_set_n, _set_digits, _set_low, _set_hash, _set_entries = (
    getattr(LampConfig, name).__set__ for name in LampConfig.__slots__)


def packed_lamp(n: int, digits: int, low: int) -> LampConfig:
    """The config with field i of ``digits`` at index ``low + i``, made
    canonical: zero low fields are stripped, and the zero config sits at
    low 0.  Every LampConfig is built here."""
    if not digits:
        low = 0
    elif not digits & 1:
        shift = digit_shift(n)
        f = ((digits & -digits).bit_length() - 1) >> shift
        digits >>= f << shift
        low += f
    cfg = object.__new__(LampConfig)
    _set_n(cfg, n)
    _set_digits(cfg, digits)
    _set_low(cfg, low)
    _set_hash(cfg, hash((digits, low)))
    return cfg


def _check_same_modulus(p: LampConfig, q: LampConfig) -> int:
    if p.n != q.n:
        raise DomainError(f"modulus mismatch: {p.n} != {q.n}")
    return p.n


def lamp_add(p: LampConfig, q: LampConfig) -> LampConfig:
    """Componentwise sum mod n; the abelian group law of ⊕ Z_n.

    Both configs are aligned by ``lamp_align``; for n = 2 the sum is the
    XOR, otherwise it is ``digit_sum``.
    """
    n = _check_same_modulus(p, q)
    a, b, low = lamp_align(p, q)
    return packed_lamp(n, a ^ b if n == 2 else digit_sum(a, b, n), low)


def digit_sum(a: int, b: int, n: int) -> int:
    """Fieldwise sum mod n of two packed digit strings at one alignment:
    b's nonzero fields are added into a's, so the cost grows with them."""
    shift = digit_shift(n)
    mask = (1 << (1 << shift)) - 1
    for pos, v in _nonzero_fields(b, shift):
        x = a >> pos & mask
        a += ((x + v) % n - x) << pos
    return a


def packed_add(n: int):
    """The sum of two packed digit strings at one alignment: XOR for n = 2, else digit_sum."""
    return operator.xor if n == 2 else functools.partial(digit_sum, n=n)


def _nonzero_fields(d: int, shift: int):
    """(bit position, value) of each nonzero field of d, lowest first: the
    cost grows with the nonzero fields, not with the span."""
    mask = (1 << (1 << shift)) - 1
    while d:
        pos = ((d & -d).bit_length() - 1) >> shift << shift
        v = d >> pos & mask
        yield pos, v
        d ^= v << pos


def lamp_neg(p: LampConfig) -> LampConfig:
    return p if p.n == 2 else LampConfig(p.n, tuple((i, p.n - v) for i, v in p.entries))


def digits_at(cfg: LampConfig, low: int) -> int:
    """cfg's digits with field 0 at index low, which is at most cfg.low
    unless cfg is zero; DomainError past MAX_LAMP_BITS."""
    d, by = cfg.digits, cfg.low - low
    if not by or not d:
        return d
    shift = digit_shift(cfg.n)
    span = by + ((d.bit_length() - 1) >> shift) + 1
    if span << shift > MAX_LAMP_BITS:
        raise _span_error(span, shift)
    return d << (by << shift)


def lamp_align(p: LampConfig, q: LampConfig) -> tuple[int, int, int]:
    """p's and q's digits aligned at one low, and that low: the lower of
    their lows, or the other one's when p or q is zero."""
    pl, ql = p.low, q.low
    if pl == ql or not q.digits:
        return p.digits, q.digits, pl
    if ql < pl or not p.digits:
        return digits_at(p, ql), q.digits, ql
    return p.digits, digits_at(q, pl), pl


def field_bit(n: int, index: int, low: int) -> int:
    """Bit position of index's digit field in a packed int whose field 0
    holds index low (index >= low)."""
    return (index - low) << digit_shift(n)


def field_rewrites(d: int, pos: int, n: int) -> list[int]:
    """The n - 1 ints that differ from d in the digit field at bit pos
    alone, with s added to that digit mod n for s = 1..n-1.  The bits below
    pos may hold anything; no write reaches them."""
    x = d >> pos & ((1 << (1 << digit_shift(n))) - 1)
    return [d + (((x + s) % n - x) << pos) for s in range(1, n)]


def check_write(n: int, digits: int, low: int, index: int, last: int | None = None) -> None:
    """DomainError when writes at index (through last, if given) would take
    the config packed as digits at low past MAX_LAMP_BITS (a zero config
    then spans the writes alone)."""
    if not digits:
        return
    shift = digit_shift(n)
    lo = low + (((digits & -digits).bit_length() - 1) >> shift)
    hi = low + ((digits.bit_length() - 1) >> shift)
    span = max(hi, index if last is None else last) - min(lo, index) + 1
    if span << shift > MAX_LAMP_BITS:
        raise _span_error(span, shift)


def window_digits(cfg: LampConfig, width: int) -> int:
    """cfg's digits at indices 0..width-1, packed with field i at index i; a
    config wholly outside the window reads 0 without being aligned to it."""
    if (low := cfg.low) >= width:
        return 0
    shift = digit_shift(cfg.n)
    d = cfg.digits >> (-low << shift) if low <= 0 else cfg.digits << (low << shift)
    return d & ((1 << (width << shift)) - 1)


def rewrite_window(cfg: LampConfig, s: int, t: int) -> LampConfig:
    """cfg, whose fields from index 0 on read s, with them rewritten to t
    (both packed as by window_digits).  DomainError, as in lamp_add, when
    cfg and the fields where s and t differ span more than MAX_LAMP_BITS."""
    n, d, low = cfg.n, cfg.digits, cfg.low
    shift = digit_shift(n)
    x = s ^ t
    check_write(n, d, low, ((x & -x).bit_length() - 1) >> shift, (x.bit_length() - 1) >> shift)
    lo = min(low, 0)
    return packed_lamp(n, (d << ((low - lo) << shift)) + ((t - s) << (-lo << shift)), lo)


def diff_span(p: LampConfig, q: LampConfig) -> tuple[int, int] | None:
    """First and last index where two configs of one modulus differ, or
    None: the lowest and highest nonzero field of their XOR, aligned at the
    lower low as in lamp_align (DomainError past MAX_LAMP_BITS)."""
    a, b, low = p.digits, q.digits, p.low
    if a and b and low != q.low:
        if q.low < low:
            a, low = digits_at(p, q.low), q.low
        else:
            b = digits_at(q, low)
    elif not a:
        low = q.low
    if not (d := a ^ b):
        return None
    if p.n == 2:
        return low + (d & -d).bit_length() - 1, low + d.bit_length() - 1
    shift = digit_shift(p.n)
    return low + (((d & -d).bit_length() - 1) >> shift), low + ((d.bit_length() - 1) >> shift)


def lamp_delta(p: LampConfig, q: LampConfig) -> tuple[int, int | None]:
    """delta(p,q) = n^gap and the gap itself; (0, None) when p == q."""
    n = _check_same_modulus(p, q)
    span = diff_span(p, q)
    if span is None:
        return 0, None
    gap = span[1] - span[0]
    return n ** gap, gap


def lamp_dl(p: LampConfig, q: LampConfig) -> Fraction:
    """Lower-boundary metric n^(-l_plus). Requires p != q."""
    n = _check_same_modulus(p, q)
    span = diff_span(p, q)
    if span is None:
        raise DomainError("lower-boundary metric needs distinct configurations")
    return Fraction(n) ** -span[0]


def lamp_du(p: LampConfig, q: LampConfig) -> Fraction:
    """Upper-boundary metric n^(l_minus). Requires p != q."""
    n = _check_same_modulus(p, q)
    span = diff_span(p, q)
    if span is None:
        raise DomainError("upper-boundary metric needs distinct configurations")
    return Fraction(n) ** span[1]


@functools.lru_cache(maxsize=64)
def digit_shift(n: int) -> int:
    """log2 of the bit width of a packed Z_n digit field: the smallest power
    of two of bits that holds n - 1 (0 for n = 2, so a field is one bit)."""
    return ((n - 1).bit_length() - 1).bit_length()


# ---------------------------------------------------------------------------
# Z[1/n] in normalized form
# ---------------------------------------------------------------------------

class BSNumber(Frozen):
    """Element r * n^k of Z[1/n] with n ∤ r (r = 0 forces k = 0).

    Arithmetic stays on the integer pair (r, k): a sum aligns both terms at
    the smaller exponent, and only a sum at equal exponents can carry
    factors of n, which ``nadic_split`` strips.
    ``Fraction`` appears only at the boundaries, in ``value`` and
    ``from_fraction``.  The constructor checks the normal form; the
    normalized results of arithmetic are built through ``_bs`` without
    checking it again.  The hash is computed once.
    """

    __slots__ = ("r", "k", "n", "_hash")
    _fields = ("r", "k", "n")

    def __new__(cls, r: int, k: int, n: int):
        if n < 2:
            raise DomainError(f"base must be >= 2, got {n}")
        if r == 0:
            if k != 0:
                raise DomainError("zero is normalized as r=0, k=0")
        elif r % n == 0:
            raise DomainError(f"{r} is divisible by {n}; not normalized")
        return _bs(r, k, n)

    @classmethod
    def normalize(cls, numerator: int, exponent: int, n: int) -> "BSNumber":
        return bs_normalize(numerator, exponent, n)

    @classmethod
    def from_fraction(cls, value: Fraction | int, n: int) -> "BSNumber":
        """value as r * n^k.  Its denominator den divides n^j for some j iff
        value is in Z[1/n], and then for j = den.bit_length() already (a prime
        power p^e dividing den has e < that); j doubles from 1 until n^j is a
        multiple of den, so the steps number about log2 of the exponent."""
        if n < 2:
            raise DomainError(f"base must be >= 2, got {n}")
        value = Fraction(value)
        num, den = value.numerator, value.denominator
        if den == 1:
            return _bs_split(num, 0, n)
        j, power = 1, n  # power = n ** j
        while power % den:
            if j >= den.bit_length():
                raise DomainError(f"{value} is not an element of Z[1/{n}]")
            j, power = 2 * j, power * power
        return _bs_split(num * (power // den), -j, n)

    def value(self) -> Fraction:
        if self.k >= 0:
            return Fraction(self.r * self.n ** self.k)
        return Fraction(self.r, self.n ** -self.k)

    def is_zero(self) -> bool:
        return self.r == 0

    def __add__(self, other: "BSNumber") -> "BSNumber":
        return _bs_sum(self, other.r, other.k, other.n)

    def __sub__(self, other: "BSNumber") -> "BSNumber":
        return _bs_sum(self, -other.r, other.k, other.n)

    def __neg__(self) -> "BSNumber":
        if self.r == 0:
            return self
        return _bs(-self.r, self.k, self.n)

    def __eq__(self, other):
        if other.__class__ is not BSNumber:
            return NotImplemented
        return self.r == other.r and self.k == other.k and self.n == other.n

    def __hash__(self) -> int:
        return self._hash


_set_bs_r, _set_bs_k, _set_bs_n, _set_bs_hash = (
    getattr(BSNumber, name).__set__ for name in BSNumber.__slots__)


def _bs_sum(p: BSNumber, r: int, k: int, n: int) -> BSNumber:
    # p + r * n^k, both terms written as integers at the smaller exponent.  At
    # unequal exponents the sum of two nonzero normal terms is r' + n * (...)
    # with n ∤ r', so it is normal already; only equal exponents can carry n.
    if n != p.n:
        raise DomainError(f"base mismatch: {p.n} != {n}")
    pr, pk = p.r, p.k
    if not r:
        return p
    if not pr:
        return _bs(r, k, n)
    if pk < k:
        return _bs(pr + r * n ** (k - pk), pk, n)
    if pk > k:
        return _bs(pr * n ** (pk - k) + r, k, n)
    x = pr + r
    return _bs(x, k, n) if x % n else _bs_split(x, k, n)


def _bs(r: int, k: int, n: int) -> BSNumber:
    # r * n^k, already in normal form
    x = object.__new__(BSNumber)
    _set_bs_r(x, r)
    _set_bs_k(x, k)
    _set_bs_n(x, n)
    _set_bs_hash(x, hash((r, k, n)))
    return x


def nadic_split(x: int, n: int) -> tuple[int, int]:
    """(r, v) with x = r * n^v and n ∤ r; (0, 0) for x = 0.  Past 8 factors n,
    the rest is split by n^2, so the steps number about 8 log2 v, not v."""
    if x == 0:
        return 0, 0
    v = 0
    while x % n == 0:
        if v == 8:
            r, w = nadic_split(x, n * n)
            return (r, v + 2 * w) if r % n else (r // n, v + 2 * w + 1)
        x //= n
        v += 1
    return x, v


def bs_normalize(numerator: int, exponent: int, n: int) -> BSNumber:
    """Canonical r * n^k with n ∤ r; zero normalizes to (0, 0)."""
    if n < 2:
        raise DomainError(f"base must be >= 2, got {n}")
    return _bs_split(numerator, exponent, n)


def _bs_split(numerator: int, exponent: int, n: int) -> BSNumber:
    # bs_normalize for a base already checked
    r, v = nadic_split(numerator, n)
    return _bs(r, exponent + v if r else 0, n)


def bs_delta(p: BSNumber, q: BSNumber) -> int:
    """delta(p,q) = |r| where p - q = r * n^k normalized; 0 iff p == q."""
    return abs((p - q).r)


# ---------------------------------------------------------------------------
# Z^2 with an A-invariant quadratic form (the SOL lattice base)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolContext:
    """Hyperbolic A in SL(2,Z) with its invariant primitive integer form.

    ``form`` holds (alpha, beta, gamma) of f(x,y) = alpha x^2 + beta xy +
    gamma y^2 with f(Av) = f(v).
    """

    a: Matrix2
    form: tuple[int, int, int]

    def f(self, v: SolVector) -> int:
        alpha, beta, gamma = self.form
        x, y = v
        return alpha * x * x + beta * x * y + gamma * y * y

    def apply_a(self, v: SolVector) -> SolVector:
        (a, b), (c, d) = self.a
        x, y = v
        return (a * x + b * y, c * x + d * y)


def sol_invariant_form(a: Matrix2 | Iterable[Iterable[int]]) -> SolContext:
    """Context for a hyperbolic A in SL(2,Z): A and its invariant form.

    Rejects matrices with det != 1 or |trace| <= 2.  The form is
    omega(v, Av) = c x^2 + (d - a) xy - b y^2, with omega(u, w) = u_x w_y -
    u_y w_x, divided by g = gcd(c, d - a, b) and signed so that alpha > 0:

    * it is A-invariant, because omega(Au, Aw) = det A * omega(u, w);
    * c != 0 for every hyperbolic A (c = 0 forces a = d = +-1), and so is b;
    * its discriminant (tr^2 - 4) / g^2 is never a square when |tr| > 2,
      so f(v) = 0 only at v = 0, and sol_delta(p, q) = 0 iff p = q.
    """
    a = tuple(tuple(int(x) for x in row) for row in a)
    if len(a) != 2 or any(len(row) != 2 for row in a):
        raise DomainError("matrix must be 2x2")
    (pa, pb), (pc, pd) = a
    det = pa * pd - pb * pc
    if det != 1:
        raise DomainError(f"matrix must have determinant 1, got {det}")
    tr = pa + pd
    if abs(tr) <= 2:
        raise DomainError(f"matrix must be hyperbolic (|trace| > 2), got trace {tr}")
    g = math.gcd(pc, pd - pa, pb) * (1 if pc > 0 else -1)
    return SolContext(a=a, form=(pc // g, (pd - pa) // g, -pb // g))


def sol_delta(ctx: SolContext, p: SolVector, q: SolVector) -> int:
    """delta(p,q) = |f(p - q)|; A-invariant, 0 iff p == q."""
    dx, dy = p[0] - q[0], p[1] - q[1]
    return abs(ctx.f((dx, dy)))
