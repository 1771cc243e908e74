"""Exact scalar tower: rationals, cyclotomic numbers, Laurent polynomials,
and truncated Laurent series in a distinguished variable t.

All values are immutable and exact (no float).  Every level of the tower
supports +, -, *, ==, unary -, and multiplication by int / Fraction; fields
additionally support inversion.  A small "domain" object describes each
ring and provides construction, coercion from lower levels of the tower,
and the canonical text serialization.

Each level computes on machine integers.  A rational is an int when it is
integral and a Fraction otherwise, the form DomainQ gives every value it
constructs, coerces, parses or divides (`rat_canon`, `rat_over`); a sum or
product of Fractions may be an integral Fraction, which equals, hashes and
prints as its int.  A cyclotomic number, and a truncated series, stores
integral numerators over one positive common denominator with content
coprime to it (the primitive part, as in von zur Gathen & Gerhard, Modern
Computer Algebra, 6.2).  A cyclotomic product reduces modulo the integer
Phi_m, and x^-1 = c / N(x), where c is the product of the other Galois
conjugates of x and N(x) = x c is rational.  A series has one product
kernel (`_convolve`) and one normaliser (`_make`).  A rational Cyclotomic
and a constant LaurentPoly hash as the rational they equal.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add as _add, neg as _neg, sub as _sub


# ---------------------------------------------------------------------------
# rationals

def rat_canon(q):
    """q as an int when it is an integral Fraction; any other value, a
    series over Q say, as it is."""
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


def rat_over(n, d):
    """n / d for a rational n and a nonzero int d, an int when integral."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def rat_integral(qs):
    """(num, den) with qs[i] = num[i] / den: den the least common
    denominator, so the content of num is coprime to it."""
    den = lcm(*[q.denominator for q in qs])
    return tuple([q.numerator * (den // q.denominator) for q in qs]), den


def rat_show(q) -> str:
    return "%d/%d" % (q.numerator, q.denominator)


def rat_parse(s: str):
    return rat_canon(Fraction(s.strip()))


# ---------------------------------------------------------------------------
# cyclotomic numbers

@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Integer coefficients of the m-th cyclotomic polynomial, low degree first."""
    if m < 1:
        raise ValueError("order must be positive")
    # (x^m - 1) / prod of Phi_d over proper divisors d
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _polydiv_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _polydiv_exact(num, den):
    """Exact division of integer polynomials (low degree first)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c, r = divmod(num[i + len(den) - 1], den[-1])
        if r:
            raise ArithmeticError("non-exact polynomial division")
        out[i] = c
        for j, dc in enumerate(den):
            num[i + j] -= c * dc
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


def euler_phi(m: int) -> int:
    return _modulus(m)[0]


@lru_cache(maxsize=None)
def _modulus(m: int):
    """(phi(m), the nonzero low coefficients (i, c) of Phi_m, phi(m) - 1
    zeros).  Phi_m is monic of degree phi(m), so x^phi = -sum c x^i."""
    poly = cyclotomic_polynomial(m)
    phi = len(poly) - 1
    low = tuple((i, c) for i, c in enumerate(poly[:phi]) if c)
    return phi, low, (0,) * (phi - 1)


class Cyclotomic:
    """Element of Q(zeta_m) on the power basis 1, z, ..., z^(phi(m)-1):
    phi(m) int numerators `num` over one positive int `den`, with the
    content of num coprime to den (den is 1 for zero), so equal numbers
    have equal fields.  `coeffs`, the coefficients as Fractions, is a view.

    The constructor coerces and counts the coefficients; results of
    arithmetic are made by the unchecked `_cyc`, or by `_cyc_over` where a
    common factor may have to be divided out."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs):
        phi = euler_phi(order)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != phi:
            raise ValueError("expected %d coefficients for order %d" % (phi, order))
        num, den = rat_integral(coeffs)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic is immutable")

    @property
    def coeffs(self):
        """The power-basis coefficients, as Fractions."""
        den = self.den
        return tuple([Fraction(n, den) for n in self.num])

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_rational(r, m: int) -> "Cyclotomic":
        if not isinstance(r, (int, Fraction)):
            r = Fraction(r)
        return _cyc(m, (r.numerator,) + _modulus(m)[2], r.denominator)

    @staticmethod
    def root(m: int, k: int = 1) -> "Cyclotomic":
        """zeta_m^k in reduced form."""
        k %= m
        raw = [0] * (k + 1)
        raw[k] = 1
        return _cyc(m, _reduce(raw, m), 1)

    # -- helpers -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise ValueError(
                    "mixed cyclotomic orders %d and %d; embed explicitly"
                    % (self.order, other.order))
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(other, self.order)
        return NotImplemented

    def embed(self, big_order: int) -> "Cyclotomic":
        """Image in Q(zeta_M) for order | M, sending zeta_m to zeta_M^(M/m)."""
        m, big = self.order, big_order
        if big % m:
            raise ValueError("no embedding of Q(zeta_%d) into Q(zeta_%d)" % (m, big))
        return _cyc_over(big, _substitute(self.num, big // m, big), self.den)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, _add)

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.order, tuple(map(_neg, self.num)), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, _sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        m, xs = self.order, self.num
        if isinstance(other, Cyclotomic):
            ys = self._coerce(other).num
            if len(xs) == 1:
                num = (xs[0] * ys[0],)
            else:
                raw = [0] * (2 * len(xs) - 1)
                for i, a in enumerate(xs):
                    if a:
                        for j, b in enumerate(ys, i):
                            if b:
                                raw[j] += a * b
                num = _reduce(raw, m)
            den = self.den * other.den
        elif isinstance(other, int):
            num, den = tuple([a * other for a in xs]), self.den
        elif isinstance(other, Fraction):
            p = other.numerator
            num, den = tuple([a * p for a in xs]), self.den * other.denominator
        else:
            return NotImplemented
        return _cyc_over(m, num, den)

    __rmul__ = __mul__

    def __floordiv__(self, k: int):
        """Each numerator floor-divided by the int k: the exact quotient of
        an integral number (den 1) when k divides every numerator."""
        return _cyc(self.order, tuple([a // k for a in self.num]), 1)

    def inv(self) -> "Cyclotomic":
        """Multiplicative inverse c / N(x): c is the product of the
        conjugates sigma_k(x), zeta -> zeta^k, over the units k != 1 mod m,
        so x c = N(x) is rational.  It is formed on the numerators a = x den:
        x^-1 = den c(a) / N(a)."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic")
        m, num = self.order, self.num
        c = None
        for k in range(2, m):
            if gcd(k, m) == 1:
                s = _cyc(m, _substitute(num, k, m), 1)
                c = s if c is None else c * s
        if c is None:       # phi(m) = 1: x is rational
            return _cyc_over(m, (self.den,), num[0])
        norm = (_cyc(m, num, 1) * c).num[0]
        return _cyc_over(m, tuple([a * self.den for a in c.num]), norm)

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = Cyclotomic.from_rational(1, self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return (self.order == other.order and self.num == other.num
                    and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            return (self.num[0] == other.numerator
                    and self.den == other.denominator
                    and not any(self.num[1:]))
        return NotImplemented

    def __hash__(self):
        """A rational number hashes as that rational, which it equals."""
        if self.is_rational():
            return hash(self.as_rational())
        return hash((self.order, self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("not a rational cyclotomic: %s" % self)
        return rat_over(self.num[0], self.den)

    def __repr__(self):
        return cyc_show(self)


def _reduce(raw, m):
    """A list of ints (low degree first) modulo the monic Phi_m, as a tuple
    of phi(m) ints; raw is consumed."""
    phi, low, _ = _modulus(m)
    for top in range(len(raw) - 1, phi - 1, -1):
        c = raw[top]
        if c:
            base = top - phi
            for i, a in low:
                raw[base + i] -= c * a
    if len(raw) < phi:
        raw += [0] * (phi - len(raw))
    return tuple(raw[:phi])


_cyc_new = object.__new__
_set_order = Cyclotomic.order.__set__
_set_cyc_num = Cyclotomic.num.__set__
_set_cyc_den = Cyclotomic.den.__set__


def _cyc(order, num, den):
    """The Cyclotomic num / den, unchecked: num must be a tuple of phi(order)
    ints and den a positive int coprime to their content, as every
    arithmetic result is."""
    x = _cyc_new(Cyclotomic)
    _set_order(x, order)
    _set_cyc_num(x, num)
    _set_cyc_den(x, den)
    return x


def _cyc_over(order, num, den):
    """The canonical Cyclotomic num / den for a tuple of phi(order) ints
    and a nonzero int den: the sign goes to num and the common factor of
    den and num is divided out."""
    if den != 1:
        if den < 0:
            num, den = tuple(map(_neg, num)), -den
        g = gcd(den, *num)
        if g != 1:
            num, den = tuple([a // g for a in num]), den // g
    return _cyc(order, num, den)


def _combine(x, y, op):
    """x op y, for op + or -, on the numerators of x and y brought to the
    lcm of their denominators."""
    a, b, den, db = x.num, y.num, x.den, y.den
    if den != db:
        g = gcd(den, db)
        a = [n * (db // g) for n in a]
        b = [n * (den // g) for n in b]
        den = den // g * db
    return _cyc_over(x.order, tuple(map(op, a, b)), den)


def _substitute(num, k, order):
    """The int numerators of sum_i num_i zeta^(i k) in Q(zeta_order); the
    i k must be distinct mod order (k a unit, or an embedding's step)."""
    raw = [0] * order
    for i, c in enumerate(num):
        raw[i * k % order] = c
    return _reduce(raw, order)


def cyc_show(x: Cyclotomic) -> str:
    return "[%d; %s]" % (x.order, ",".join(rat_show(c) for c in x.coeffs))


def cyc_parse(s: str) -> Cyclotomic:
    s = s.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError("bad cyclotomic literal: %r" % s)
    head, tail = s[1:-1].split(";")
    m = int(head)
    coeffs = [rat_parse(c) for c in tail.split(",")]
    return Cyclotomic(m, coeffs)


# ---------------------------------------------------------------------------
# multivariate Laurent polynomials

class LaurentPoly:
    """Sparse Laurent polynomial in nvars variables; coefficients live in any
    lower level of the scalar tower (Fraction or Cyclotomic), or are ints in
    the integral numerators of a series.

    The constructor coerces exponents and drops zero terms; results of
    arithmetic, whose terms are already clean, are made by the unchecked
    `_lp`."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        clean = {}
        for expo, c in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars:
                raise ValueError("exponent arity mismatch")
            if c == 0 if isinstance(c, (int, Fraction)) else not c:
                continue
            clean[expo] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def constant(nvars: int, c) -> "LaurentPoly":
        return LaurentPoly(nvars, {(0,) * nvars: c})

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return LaurentPoly.constant(self.nvars, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for k, c in other.terms.items():
            if k in terms:
                c = terms[k] + c
                if c:
                    terms[k] = c
                else:
                    del terms[k]
            else:
                terms[k] = c
        return _lp(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return _lp(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            other = self._coerce(other)
            terms = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    k = tuple(map(_add, k1, k2))
                    if k in terms:
                        terms[k] += c1 * c2
                    else:
                        terms[k] = c1 * c2
            if len(terms) < len(self.terms) * len(other.terms):
                # some terms were merged, and may have cancelled
                terms = {k: c for k, c in terms.items() if c}
            return _lp(self.nvars, terms)
        if isinstance(other, (int, Fraction, Cyclotomic)):
            if not other:
                return _lp(self.nvars, {})
            return _lp(self.nvars, {k: c * other for k, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __floordiv__(self, k: int):
        """Each coefficient floor-divided by the int k: the exact quotient
        when k divides every coefficient."""
        return _lp(self.nvars, {e: c // k for e, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = LaurentPoly.constant(self.nvars, other) if other else \
                LaurentPoly(self.nvars, {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        """A constant hashes as that constant, which it equals."""
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1:
            (expo, c), = terms.items()
            if not any(expo):
                return hash(c)
        return hash((self.nvars, tuple(sorted(terms.items(),
                                              key=lambda kv: kv[0]))))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return lp_show(self)


_lp_new = object.__new__
_set_nvars = LaurentPoly.nvars.__set__
_set_terms = LaurentPoly.terms.__set__


def _lp(nvars, terms):
    """The LaurentPoly with these terms, unchecked: terms must map nvars-tuples
    of ints to nonzero coefficients, as every arithmetic result does."""
    p = _lp_new(LaurentPoly)
    _set_nvars(p, nvars)
    _set_terms(p, terms)
    return p


def lp_show(p: LaurentPoly) -> str:
    if not p.terms:
        return "0"
    bits = []
    for expo in sorted(p.terms):
        c = p.terms[expo]
        cs = rat_show(c) if isinstance(c, (int, Fraction)) else cyc_show(c)
        mono = "".join("*x%d^%d" % (i + 1, e) for i, e in enumerate(expo) if e)
        bits.append(cs + mono)
    return " + ".join(bits)


# ---------------------------------------------------------------------------
# truncated Laurent series in t

class TruncSeries:
    """Laurent series in t over a base ring, known modulo t^prec.

    prec is None for exact data (a genuine Laurent polynomial in t).  The
    series is t^low (num[0] + num[1] t + ...) / den: den is a positive int
    and num a tuple of integral elements of the base (ints over Q, Laurent
    polynomials with int coefficients over Q[x^+-1], cyclotomic numbers
    with den 1 over Q(zeta_m)).  The form is canonical: num
    starts and ends with a nonzero element, holds nothing at or past the
    horizon, and its content is coprime to den.  The zero-at-precision
    element stores no coefficients and no valuation.  `coeffs`, the
    coefficients in the base ring, is built on first use.

    == is congruence up to the common precision (see `congruent`), which
    linalg.span_coords relies on for entries with a horizon.  It is not
    transitive, so no hash can agree with it and series are unhashable.
    """

    __slots__ = ("base", "low", "prec", "num", "den", "_coeffs")

    def __new__(cls, base, low: int, prec, coeffs):
        num, den = base.integral([base.lift(c) for c in coeffs])
        return _make(base, low, prec, list(num), den)

    def __setattr__(self, *a):
        raise AttributeError("TruncSeries is immutable")

    @property
    def coeffs(self):
        """The coefficients of t^low, t^(low+1), ... in the base ring."""
        c = self._coeffs
        if c is None:
            over, den = self.base.over, self.den
            c = tuple([over(n, den) for n in self.num])
            _set_ts_coeffs(self, c)
        return c

    # -- queries -------------------------------------------------------------

    def valuation(self):
        return self.low if self.num else None

    def is_polynomial(self) -> bool:
        """All stored data exact (no truncation horizon)."""
        return self.prec is None

    # -- construction --------------------------------------------------------

    @staticmethod
    def zero_at(base, prec) -> "TruncSeries":
        return _ts(base, 0, prec, (), 1)

    @staticmethod
    def constant(base, c) -> "TruncSeries":
        return TruncSeries(base, 0, None, [c])

    @staticmethod
    def monomial(base, c, deg: int) -> "TruncSeries":
        return TruncSeries(base, deg, None, [c])

    def with_precision(self, prec) -> "TruncSeries":
        new = _pmin(self.prec, prec)
        if new == self.prec:
            return self
        return _make(self.base, self.low, new, list(self.num), self.den)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TruncSeries):
            return other
        if isinstance(other, (int, Fraction)) or type(other) in (Cyclotomic, LaurentPoly):
            num, den = self.base.integral((self.base.lift(other),))
            return _make(self.base, 0, None, list(num), den)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prec = _pmin(self.prec, other.prec)
        a, b = self.num, other.num
        if not a:
            return other.with_precision(prec)
        if not b:
            return self.with_precision(prec)
        den, db = self.den, other.den
        if den != db:
            # align both numerators at the lcm of the denominators
            g = gcd(den, db)
            if db != g:
                a = [x * (db // g) for x in a]
            if den != g:
                b = [x * (den // g) for x in b]
            den = den // g * db
        low = min(self.low, other.low)
        i, j = self.low - low, other.low - low
        out = [self.base.integral_zero] * max(i + len(a), j + len(b))
        out[i:i + len(a)] = a
        out[j:j + len(b)] = map(_add, out[j:j + len(b)], b)
        return _make(self.base, low, prec, out, den)

    __radd__ = __add__

    def __neg__(self):
        return _ts(self.base, self.low, self.prec,
                   tuple([-x for x in self.num]), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            # precision of a product: each factor contributes its valuation
            # (or its precision, when zero-at-precision) to the other's
            # horizon
            v1 = self.low if self.num else self.prec
            v2 = other.low if other.num else other.prec
            prec = _pmin(_padd(self.prec, v2), _padd(other.prec, v1))
            return _convolve(self.base, self.low + other.low, prec,
                             self.num, other.num, self.den * other.den)
        base, num = self.base, self.num
        if isinstance(other, (int, Fraction)):
            # a scalar keeps the horizon, even when it is zero
            if not other or not num:
                return _ts(base, 0, self.prec, (), 1)
            p = other.numerator
            return _make(base, self.low, self.prec,
                         [x * p for x in num] if p != 1 else list(num),
                         self.den * other.denominator)
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return _convolve(base, self.low, self.prec, num, c.num,
                         self.den * c.den)

    __rmul__ = __mul__

    def congruent(self, other, prec=None) -> bool:
        """Equality up to the common precision (optionally further capped)."""
        other = self._coerce(other)
        p = _pmin(_pmin(self.prec, other.prec), prec)
        diff = self - other
        if not diff.num:
            return True
        return p is not None and diff.low >= p

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.congruent(other)

    __hash__ = None

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        return ts_show(self)


_ts_new = object.__new__
_set_base = TruncSeries.base.__set__
_set_low = TruncSeries.low.__set__
_set_prec = TruncSeries.prec.__set__
_set_num = TruncSeries.num.__set__
_set_den = TruncSeries.den.__set__
_set_ts_coeffs = TruncSeries._coeffs.__set__


def _ts(base, low, prec, num, den):
    """The TruncSeries with these fields, unchecked: they must already be in
    the canonical form (see TruncSeries)."""
    s = _ts_new(TruncSeries)
    _set_base(s, base)
    _set_low(s, low)
    _set_prec(s, prec)
    _set_num(s, num)
    _set_den(s, den)
    _set_ts_coeffs(s, None)
    return s


def _make(base, low, prec, num, den):
    """The canonical series t^low (num[0] + num[1] t + ...) / den for a list
    num of integral base elements, which is consumed: it is cut at the
    horizon, trimmed at both ends, and its content is divided out of den."""
    if prec is not None and len(num) > prec - low:
        del num[max(0, prec - low):]
    while num and not num[-1]:
        num.pop()
    if not num:
        return _ts(base, 0, prec, (), 1)
    lead = 0
    while not num[lead]:
        lead += 1
    if lead:
        del num[:lead]
        low += lead
    if den != 1:
        g = base.content(num, den)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    return _ts(base, low, prec, tuple(num), den)


def _convolve(base, low, prec, a, b, den):
    """The canonical series t^low a(t) b(t) / den for numerator sequences a
    and b: the one product kernel, which forms no coefficient at or past the
    horizon prec."""
    n = len(a) + len(b) - 1
    if prec is not None and prec - low < n:
        n = prec - low
    if not a or not b or n <= 0:
        return _ts(base, 0, prec, (), 1)
    out = [base.integral_zero] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i], i):
                if y:
                    out[j] = out[j] + x * y
    return _make(base, low, prec, out, den)


def _pmin(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _padd(p, v):
    if p is None or v is None:
        return None
    return p + v


def series_split(s: TruncSeries):
    """Split into (degrees <= 0, degrees >= 1).  The nonpositive half is exact
    whenever the precision horizon lies beyond t^0."""
    cut = max(0, 1 - s.low)
    neg_prec = None if (s.prec is None or s.prec >= 1) else s.prec
    nonpos = _make(s.base, s.low, neg_prec, list(s.num[:cut]), s.den)
    positive = _make(s.base, max(s.low, 1), s.prec, list(s.num[cut:]), s.den)
    return nonpos, positive


def ts_show(s: TruncSeries) -> str:
    prec = "inf" if s.prec is None else str(s.prec)
    coeffs = ",".join(s.base.show(c) for c in s.coeffs)
    return "(%d, %s, [%s])" % (s.low, prec, coeffs)


# ---------------------------------------------------------------------------
# domains
#
# Every domain says what counts as zero (``nonzero``) and how far an element
# is known in t (``t_order``).  Only an exact zero may be skipped by a matrix
# kernel: a series that is zero only up to its precision horizon, O(t^p),
# must take part so that the horizon carries into the result.
#
# Every domain divides by a nonzero int: ``over(x, n)`` is x / n, in the
# domain's canonical form (an int over Q when integral), which is how
# linalg.exp_nilpotent divides its i-th term N^i M / (i-1)! by i, as it
# applies exp(N) to M term by term.  An exact domain also gives
# ``canon(x)``, x in that canonical form, for entries formed by field
# arithmetic (linalg.rref, linalg.span_coords); it passes values of a ring
# above it through.
#
# A domain that can carry series coefficients also gives their integral
# form: ``integral(coeffs)`` is (num, den) with coeffs[i] = num[i] / den,
# ``content(num, den)`` is the largest int dividing den and every num[i],
# and ``integral_zero`` is the zero numerator.

class _ExactDomain:
    """A domain without precision horizons: an element is zero exactly when
    it is falsy, so Python truth testing is the zero test."""

    nonzero = staticmethod(bool)

    @staticmethod
    def t_order(x):
        """(valuation, horizon): an exact nonzero element has order 0 in t
        and no horizon."""
        return (0 if x else None), None

    @staticmethod
    def canon(x):
        return x


class DomainQ(_ExactDomain):
    """The rationals, as int | Fraction: every value this domain makes is
    an int when it is integral."""

    name = "Q"
    integral_zero = 0
    integral = staticmethod(rat_integral)
    over = staticmethod(rat_over)
    canon = staticmethod(rat_canon)

    @staticmethod
    def content(num, den):
        return gcd(den, *num)

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return int(n)

    def lift(self, x):
        if type(x) is int:
            return x
        if isinstance(x, (int, Fraction)):
            return rat_canon(x)
        if isinstance(x, Cyclotomic):
            return x.as_rational()
        raise TypeError("cannot lift %r into Q" % (x,))

    def inv(self, x):
        return rat_over(x.denominator, x.numerator)

    show = staticmethod(rat_show)
    parse = staticmethod(rat_parse)

    def __eq__(self, other):
        return isinstance(other, DomainQ)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class DomainCyclotomic(_ExactDomain):
    """Q(zeta_m) on the power basis."""

    def __init__(self, order: int):
        self.order = order
        self.name = "Q(z%d)" % order
        self._zero = Cyclotomic.from_rational(0, order)
        self._one = Cyclotomic.from_rational(1, order)
        self.integral_zero = self._zero

    @staticmethod
    def integral(coeffs):
        """Numerators over the least common denominator, as rat_integral."""
        den = lcm(*[c.den for c in coeffs])
        if den == 1:
            return tuple(coeffs), 1
        return tuple([_cyc(c.order, tuple([a * (den // c.den) for a in c.num]),
                           1) for c in coeffs]), den

    @staticmethod
    def over(x, n):
        return _cyc_over(x.order, x.num, x.den * n)

    @staticmethod
    def content(num, den):
        return gcd(den, *[a for x in num for a in x.num])

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return Cyclotomic.from_rational(n, self.order)

    def lift(self, x):
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.from_rational(x, self.order)
        if isinstance(x, Cyclotomic):
            if x.order == self.order:
                return x
            return x.embed(self.order)
        raise TypeError("cannot lift %r into %s" % (x, self.name))

    def inv(self, x):
        return x.inv()

    show = staticmethod(cyc_show)

    def parse(self, s):
        v = cyc_parse(s)
        if v.order != self.order:
            v = v.embed(self.order)
        return v

    def __eq__(self, other):
        return isinstance(other, DomainCyclotomic) and other.order == self.order

    def __hash__(self):
        return hash(("cyc", self.order))

    def __repr__(self):
        return "DomainCyclotomic(%d)" % self.order


class DomainLaurent(_ExactDomain):
    """Laurent polynomials in nvars variables over a ground domain.

    The integral form of series coefficients is the ground's integral form
    of all their coefficients at once: Laurent polynomials whose
    coefficients are ints over Q and cyclotomic numbers with den 1 over
    Q(zeta_m).
    """

    def __init__(self, nvars: int, ground):
        self.nvars = nvars
        self.ground = ground
        self.name = "%s[x1..x%d^+-1]" % (ground.name, nvars)
        self.integral_zero = _lp(nvars, {})

    def integral(self, coeffs):
        nums, den = self.ground.integral(
            [c for p in coeffs for c in p.terms.values()])
        nums = iter(nums)
        return tuple([_lp(p.nvars, {e: next(nums) for e in p.terms})
                      for p in coeffs]), den

    def over(self, x, n):
        over = self.ground.over
        return _lp(x.nvars, {e: over(c, n) for e, c in x.terms.items()})

    def content(self, num, den):
        return self.ground.content(
            [c for p in num for c in p.terms.values()], den)

    def zero(self):
        return LaurentPoly(self.nvars, {})

    def one(self):
        return LaurentPoly.constant(self.nvars, self.ground.one())

    def from_int(self, n):
        return LaurentPoly.constant(self.nvars, self.ground.from_int(n))

    def lift(self, x):
        if isinstance(x, LaurentPoly):
            if x.nvars != self.nvars:
                raise TypeError("variable count mismatch")
            return LaurentPoly(self.nvars,
                               {k: self.ground.lift(c) for k, c in x.terms.items()})
        c = self.ground.lift(x)
        return _lp(self.nvars, {(0,) * self.nvars: c} if c else {})

    def inv(self, x):
        if len(x.terms) != 1:
            raise ZeroDivisionError("only monomials are invertible: %r" % x)
        (expo, c), = x.terms.items()
        return LaurentPoly(self.nvars,
                           {tuple(-e for e in expo): self.ground.inv(c)})

    show = staticmethod(lp_show)

    def parse(self, s):
        s = s.strip()
        if s == "0":
            return self.zero()
        terms = {}
        for bit in s.split(" + "):
            parts = bit.split("*")
            c = self.ground.parse(parts[0])
            expo = [0] * self.nvars
            for p in parts[1:]:
                var, e = p.split("^")
                expo[int(var[1:]) - 1] = int(e)
            terms[tuple(expo)] = c
        return LaurentPoly(self.nvars, terms)

    def __eq__(self, other):
        return (isinstance(other, DomainLaurent)
                and other.nvars == self.nvars and other.ground == self.ground)

    def __hash__(self):
        return hash(("laurent", self.nvars, self.ground))

    def __repr__(self):
        return "DomainLaurent(%d, %r)" % (self.nvars, self.ground)


class DomainSeries:
    """Truncated Laurent series in t over a base domain."""

    def __init__(self, base):
        self.base = base
        self.name = "%s((t))" % base.name

    def zero(self):
        return TruncSeries.zero_at(self.base, None)

    def one(self):
        return TruncSeries.constant(self.base, self.base.one())

    def from_int(self, n):
        return TruncSeries.constant(self.base, self.base.from_int(n))

    def t(self, deg=1):
        return TruncSeries.monomial(self.base, self.base.one(), deg)

    @staticmethod
    def over(x, n):
        """x / n, keeping the horizon of x."""
        if n < 0:
            x, n = -x, -n
        return _make(x.base, x.low, x.prec, list(x.num), x.den * n)

    @staticmethod
    def nonzero(x):
        """False only for an exact zero: no coefficients and no horizon."""
        return bool(x.num) or x.prec is not None

    @staticmethod
    def t_order(x):
        """(valuation or None, horizon or None) of a series."""
        return (x.low if x.num else None), x.prec

    def lift(self, x):
        if isinstance(x, TruncSeries):
            if x.base == self.base:
                return x
            return TruncSeries(self.base, x.low, x.prec,
                               [self.base.lift(c) for c in x.coeffs])
        return TruncSeries.constant(self.base, self.base.lift(x))

    def inv(self, x):
        raise ZeroDivisionError("series inversion is not exposed")

    show = staticmethod(ts_show)

    def parse(self, s):
        s = s.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError("bad series literal: %r" % s)
        body = s[1:-1]
        low_s, rest = body.split(",", 1)
        prec_s, coeff_s = rest.split(",", 1)
        coeff_s = coeff_s.strip()
        if not (coeff_s.startswith("[") and coeff_s.endswith("]")):
            raise ValueError("bad series literal: %r" % s)
        inner = coeff_s[1:-1]
        coeffs = [self.base.parse(c) for c in _split_top(inner)] if inner else []
        prec = None if prec_s.strip() == "inf" else int(prec_s)
        return TruncSeries(self.base, int(low_s), prec, coeffs)

    def __eq__(self, other):
        return isinstance(other, DomainSeries) and other.base == self.base

    def __hash__(self):
        return hash(("series", self.base))

    def __repr__(self):
        return "DomainSeries(%r)" % (self.base,)


def _split_top(s):
    """Split a comma-joined list whose items may contain bracketed commas."""
    out, depth, cur = [], 0, []
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


QQ = DomainQ()
