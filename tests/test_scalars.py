import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from multiloop.scalars import (QQ, Cyclotomic, DomainCyclotomic, DomainLaurent,
                               DomainSeries, LaurentPoly, TruncSeries,
                               cyclotomic_polynomial, euler_phi, series_split)

# hand-checked cyclotomic polynomials, low degree first
PHI_TABLE = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_polynomial_oracle():
    for m, want in PHI_TABLE.items():
        got = tuple(cyclotomic_polynomial(m))
        assert got == want, (m, got)


def test_euler_phi_oracle():
    want = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 9: 6, 12: 4, 30: 8}
    for m, v in want.items():
        assert euler_phi(m) == v


def _embed_numeric(x: Cyclotomic) -> complex:
    z = cmath.exp(2j * math.pi / x.order)
    return sum(float(c) * z ** k for k, c in enumerate(x.coeffs))


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
       st.integers(-5, 5))
@settings(max_examples=60, deadline=None)
def test_cyclotomic_numeric_oracle(a0, a1, b0, b1):
    m = 12
    x = Cyclotomic(m, [Fraction(a0), Fraction(a1), Fraction(0), Fraction(0)])
    y = Cyclotomic(m, [Fraction(b0), Fraction(0), Fraction(b1), Fraction(0)])
    for got, want in [
        (x + y, _embed_numeric(x) + _embed_numeric(y)),
        (x * y, _embed_numeric(x) * _embed_numeric(y)),
        (x - y, _embed_numeric(x) - _embed_numeric(y)),
    ]:
        assert abs(_embed_numeric(got) - want) < 1e-9


def test_cyclotomic_inverse():
    dom = DomainCyclotomic(5)
    z = dom.root()
    x = z * 2 + dom.one() * 3 - z * z
    assert x * x.inv() == dom.one()
    with pytest.raises(ZeroDivisionError):
        dom.zero().inv()


def test_cyclotomic_root_relation():
    # zeta_4^2 = -1, zeta_6 satisfies z^2 = z - 1
    z4 = Cyclotomic.root(4)
    assert z4 * z4 == Cyclotomic.from_rational(-1, 4)
    z6 = Cyclotomic.root(6)
    assert z6 * z6 == z6 - Cyclotomic.from_rational(1, 6)


def test_cyclotomic_embed():
    z3 = Cyclotomic.root(3)
    z6 = Cyclotomic.root(6)
    assert z3.embed(6) == z6 * z6


cyc12 = st.builds(
    lambda cs: Cyclotomic(12, [Fraction(c) for c in cs]),
    st.lists(st.integers(-9, 9), min_size=4, max_size=4))


@given(cyc12, cyc12, cyc12)
@settings(max_examples=50, deadline=None)
def test_cyclotomic_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


lp2 = st.builds(
    lambda items: LaurentPoly(2, {k: Fraction(v) for k, v in items if v}),
    st.lists(st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                       st.integers(-5, 5)), max_size=4))


def _ref_reduce(raw, m):
    """Schoolbook remainder of a rational polynomial modulo Phi_m."""
    mod = cyclotomic_polynomial(m)
    phi = len(mod) - 1
    raw = [Fraction(c) for c in raw] + [Fraction(0)] * phi
    for top in range(len(raw) - 1, phi - 1, -1):
        c = raw[top]
        for i, a in enumerate(mod):
            raw[top - phi + i] -= c * a
    return raw[:phi]


def _ref_mul(x, y):
    raw = [Fraction(0)] * (len(x.coeffs) + len(y.coeffs))
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            raw[i + j] += a * b
    return Cyclotomic(x.order, _ref_reduce(raw, x.order))


def _same(got, want):
    """Equal to a value made by the checking constructor, under == and
    hash, and stored the way that constructor stores it."""
    assert got == want and hash(got) == hash(want)
    assert type(got.coeffs) is tuple
    assert len(got.coeffs) == euler_phi(got.order)
    assert all(type(c) is Fraction for c in got.coeffs)


def test_cyclotomic_arithmetic_matches_checked_constructor():
    rng = random.Random(12)

    def draw(m, zero_share=0.3):
        return Cyclotomic(m, [0 if rng.random() < zero_share else
                              Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                              for _ in range(euler_phi(m))])

    for m in range(1, 13):
        phi = euler_phi(m)
        for _ in range(8):
            x, y = draw(m), draw(m)
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            _same(x + y, Cyclotomic(m, [a + b for a, b in
                                        zip(x.coeffs, y.coeffs)]))
            _same(x - y, Cyclotomic(m, [a - b for a, b in
                                        zip(x.coeffs, y.coeffs)]))
            _same(-x, Cyclotomic(m, [-a for a in x.coeffs]))
            _same(x * y, _ref_mul(x, y))
            _same(x * q, Cyclotomic(m, [a * q for a in x.coeffs]))
            _same(3 * x, Cyclotomic(m, [3 * a for a in x.coeffs]))
            _same(x + q, Cyclotomic(m, [x.coeffs[0] + q] + list(x.coeffs[1:])))
            for r in (q, -4):
                _same(Cyclotomic.from_rational(r, m),
                      Cyclotomic(m, [r] + [0] * (phi - 1)))
            if x:
                inv = x.inv()
                _same(inv, Cyclotomic(m, inv.coeffs))
                _same(_ref_mul(x, inv), Cyclotomic(m, [1] + [0] * (phi - 1)))
        for k in range(m + 1):
            _same(Cyclotomic.root(m, k),
                  Cyclotomic(m, _ref_reduce([0] * k + [1], m)))
        for count in (phi - 1, phi + 1):
            with pytest.raises(ValueError):
                Cyclotomic(m, [1] * count)


@given(lp2, lp2, lp2)
@settings(max_examples=50, deadline=None)
def test_laurent_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x


def test_laurent_monomial_inverse():
    dom = DomainLaurent(2, QQ)
    mono = LaurentPoly(2, {(1, -2): Fraction(3)})
    assert mono * dom.inv(mono) == dom.one()
    with pytest.raises(ZeroDivisionError):
        dom.inv(dom.one() + dom.variable(0))


def test_series_precision_law():
    # prec(a*b) = min(p_a + val_b, p_b + val_a)
    a = TruncSeries(QQ, -1, 4, [Fraction(1), Fraction(2)])
    b = TruncSeries(QQ, 2, 7, [Fraction(3)])
    assert (a * b).prec == min(4 + 2, 7 + (-1))
    exact = TruncSeries(QQ, 0, None, [Fraction(5)])
    assert (a * exact).prec == 4
    assert (exact * exact).prec is None


def test_series_addition_precision():
    a = TruncSeries(QQ, 0, 3, [Fraction(1), Fraction(1), Fraction(1)])
    b = TruncSeries(QQ, 0, 5, [Fraction(1)] * 5)
    s = a + b
    assert s.prec == 3
    assert s.coeff(0) == 2 and s.coeff(2) == 2


def test_series_congruent():
    a = TruncSeries(QQ, 0, None, [Fraction(1), Fraction(2), Fraction(3)])
    b = TruncSeries(QQ, 0, 2, [Fraction(1), Fraction(2), Fraction(99)])
    assert a.congruent(b)          # agree below the horizon t^2
    assert not a.congruent(b, prec=None) or b.prec == 2
    c = TruncSeries(QQ, 0, 2, [Fraction(1), Fraction(5)])
    assert not a.congruent(c)


def test_series_split():
    s = TruncSeries(QQ, -2, 5, [Fraction(1), Fraction(0), Fraction(2),
                                Fraction(3), Fraction(0), Fraction(0),
                                Fraction(4)])
    nonpos, pos = series_split(s)
    assert nonpos.prec is None                 # exact: horizon is past t^0
    assert [nonpos.low + i for i, c in enumerate(nonpos.num) if c] == [-2, 0]
    assert pos.low >= 1 and pos.prec == 5
    assert (nonpos + pos).congruent(s)


def test_series_split_low_precision():
    s = TruncSeries(QQ, -1, 0, [Fraction(7)])
    nonpos, pos = series_split(s)
    assert nonpos.prec == 0                    # horizon below t^1: stays fuzzy
    assert not pos.num                         # zero at its precision


@given(st.integers(-4, 2), st.lists(st.integers(-9, 9), min_size=1,
                                    max_size=5),
       st.one_of(st.none(), st.integers(0, 6)))
@settings(max_examples=60, deadline=None)
def test_series_show_parse_roundtrip(low, cs, prec):
    dom = DomainSeries(QQ)
    s = TruncSeries(QQ, low, prec, [Fraction(c) for c in cs])
    back = dom.parse(dom.show(s))
    assert back.low == s.low and back.prec == s.prec and back.coeffs == s.coeffs


def test_domain_show_parse_roundtrips():
    dq = QQ
    for x in [Fraction(0), Fraction(-7, 3), Fraction(22)]:
        assert dq.parse(dq.show(x)) == x
    dc = DomainCyclotomic(8)
    for x in [dc.zero(), dc.root() * 3 - dc.one(), dc.root(3)]:
        assert dc.parse(dc.show(x)) == x
    dl = DomainLaurent(2, QQ)
    for x in [dl.zero(), dl.one(), dl.variable(0) * dl.inv(dl.variable(1)) * 5
              + dl.one() * Fraction(1, 2)]:
        assert dl.parse(dl.show(x)) == x


def test_series_cross_coercion():
    dom = DomainSeries(DomainLaurent(1, QQ))
    x = dom.base.variable(0)
    s = dom.t(2) * x + dom.one()
    assert s.coeff(2) == x
    assert s.coeff(0) == dom.base.one()


def test_domain_series_inv_refuses():
    dom = DomainSeries(QQ)
    with pytest.raises(ZeroDivisionError):
        dom.inv(dom.one() + dom.t())


def test_series_eq_is_congruence_and_series_are_unhashable():
    # == is congruence below the common horizon, so it is not transitive
    one = Fraction(1)
    a = TruncSeries(QQ, 0, 2, [one])
    b = TruncSeries(QQ, 0, 3, [one, 0, Fraction(5)])
    c = TruncSeries(QQ, 0, None, [one, 0, Fraction(7)])
    assert a == b and a == c and b != c
    with pytest.raises(TypeError):
        hash(a)


# A test-local reference for series arithmetic: a series is ({(t-degree,
# x-exponent): Fraction}, prec), the x-exponent being 0 over Q.  Products
# and sums follow the same horizon rules as TruncSeries.

LQ = DomainLaurent(1, QQ)


def _sr_cut(terms, prec):
    return ({k: c for k, c in terms.items()
             if c and (prec is None or k[0] < prec)}, prec)


def _sr_val(ref):
    terms, prec = ref
    return min(k[0] for k in terms) if terms else prec


def _sr_add(x, y):
    terms = dict(x[0])
    for k, c in y[0].items():
        terms[k] = terms.get(k, 0) + c
    return _sr_cut(terms, _sr_pmin(x[1], y[1]))


def _sr_neg(x):
    return {k: -c for k, c in x[0].items()}, x[1]


def _sr_mul(x, y):
    (tx, px), (ty, py) = x, y
    p1 = None if px is None or _sr_val(y) is None else px + _sr_val(y)
    p2 = None if py is None or _sr_val(x) is None else py + _sr_val(x)
    terms = {}
    for (d1, e1), c1 in tx.items():
        for (d2, e2), c2 in ty.items():
            k = (d1 + d2, e1 + e2)
            terms[k] = terms.get(k, 0) + c1 * c2
    return _sr_cut(terms, _sr_pmin(p1, p2))


def _sr_scale(x, q):
    return _sr_cut({k: c * q for k, c in x[0].items()}, x[1])


def _sr_pmin(a, b):
    return b if a is None else a if b is None else min(a, b)


def _sr_of(s):
    terms = {}
    for i, c in enumerate(s.coeffs):
        for e, v in (c.terms.items() if isinstance(c, LaurentPoly)
                     else [((0,), c)]):
            terms[(s.low + i, e[0])] = v
    return _sr_cut(terms, s.prec)


def _series_of(base, ref):
    """The series of a reference value, by the checking constructor."""
    terms, prec = ref
    if not terms:
        return TruncSeries(base, 0, prec, [])
    low = min(d for d, _ in terms)
    high = max(d for d, _ in terms)
    coeffs = []
    for d in range(low, high + 1):
        if base is QQ:
            coeffs.append(terms.get((d, 0), Fraction(0)))
        else:
            coeffs.append(LaurentPoly(1, {(e,): c for (dd, e), c
                                          in terms.items() if dd == d}))
    return TruncSeries(base, low, prec, coeffs)


def _assert_canonical(s):
    num, den = s.num, s.den
    assert type(den) is int and den > 0
    if not num:
        assert s.low == 0 and den == 1
        return
    assert num[0] and num[-1]
    assert s.prec is None or s.low + len(num) <= s.prec
    values = [c for n in num for c in (n.terms.values()
                                       if isinstance(n, LaurentPoly) else [n])]
    # over Q(zeta_m) each numerator is a Cyclotomic with int numerators
    assert all(c.den == 1 for c in values if isinstance(c, Cyclotomic))
    ints = [a for c in values
            for a in (c.num if isinstance(c, Cyclotomic) else [c])]
    assert all(type(c) is int for c in ints)
    assert math.gcd(den, *ints) == 1


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _series(draw, base):
    low = draw(st.integers(-3, 2))
    prec = draw(st.one_of(st.none(), st.integers(low - 1, low + 5)))
    size = draw(st.integers(0, 4))
    if base is QQ:
        coeffs = draw(st.lists(rationals, min_size=size, max_size=size))
    else:
        coeffs = [LaurentPoly(1, {(e,): c for e, c in items})
                  for items in draw(st.lists(
                      st.lists(st.tuples(st.integers(-2, 2), rationals),
                               max_size=2),
                      min_size=size, max_size=size))]
    return TruncSeries(base, low, prec, coeffs)


@st.composite
def _operands(draw):
    base = draw(st.sampled_from([QQ, LQ]))
    x = draw(_series(base))
    y = draw(st.one_of(_series(base), st.integers(-3, 3), rationals))
    return x, y


@given(_operands())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_series_arithmetic_matches_fraction_reference(operands):
    x, y = operands
    base = x.base
    rx = _sr_of(x)
    if isinstance(y, TruncSeries):
        ry = _sr_of(y)
        want = {"+": _sr_add(rx, ry), "-": _sr_add(rx, _sr_neg(ry)),
                "*": _sr_mul(rx, ry)}
    else:
        ry = ({(0, 0): Fraction(y)} if y else {}, None)
        want = {"+": _sr_add(rx, ry), "-": _sr_add(rx, _sr_neg(ry)),
                "*": _sr_scale(rx, Fraction(y))}
    got = {"+": x + y, "-": x - y, "*": x * y}
    assert (y + x).num == got["+"].num and (y * x).num == got["*"].num
    for op, s in got.items():
        _assert_canonical(s)
        assert _sr_of(s) == want[op], op
        # equal series have equal stored forms
        same = _series_of(base, want[op])
        assert (s.low, s.prec, s.num, s.den) == \
            (same.low, same.prec, same.num, same.den), op


CYC3 = DomainCyclotomic(3)


@st.composite
def _base_coeff(draw, base):
    if base is QQ:
        return draw(rationals)
    if base is CYC3:
        return Cyclotomic(3, draw(st.lists(rationals, min_size=2,
                                           max_size=2)))
    return LaurentPoly(1, {(draw(st.integers(-2, 2)),):
                           draw(_base_coeff(base.ground))})


@st.composite
def _scaled_operands(draw):
    base = draw(st.sampled_from([QQ, LQ, CYC3, DomainLaurent(1, CYC3)]))
    low = draw(st.integers(-3, 2))
    prec = draw(st.one_of(st.none(), st.integers(low - 1, low + 5)))
    coeffs = draw(st.lists(_base_coeff(base), max_size=4))
    q = draw(st.one_of(st.integers(-3, 3), rationals))
    return TruncSeries(base, low, prec, coeffs), q


@given(_scaled_operands())
@example((TruncSeries(QQ, -2, 3, [Fraction(1, 2), 3]), 0))
@example((TruncSeries.zero_at(LQ, 4), Fraction(2, 3)))
@example((TruncSeries(CYC3, -1, 2, [Cyclotomic(3, [1, 2])]), Fraction(-3, 4)))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_series_times_rational_matches_checking_constructor(operands):
    # the scalar fast path against TruncSeries(...) on scaled coefficients:
    # equal fields, the horizon kept (also by a zero scalar or operand)
    x, q = operands
    want = TruncSeries(x.base, x.low, x.prec, [c * q for c in x.coeffs])
    for got in (x * q, q * x):
        assert (got.low, got.prec, got.num, got.den) == \
            (want.low, want.prec, want.num, want.den)
        assert got.prec == x.prec
        _assert_canonical(got)


# ---------------------------------------------------------------------------
# Cyclotomic against a Fraction-coefficient oracle

def _ref_mul_coeffs(xs, ys, m):
    raw = [Fraction(0)] * (len(xs) + len(ys))
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            raw[i + j] += a * b
    return _ref_reduce(raw, m)


def _ref_embed(xs, m, big):
    """sum x_i zeta_big^(i big/m), reduced modulo Phi_big."""
    raw = [Fraction(0)] * big
    for i, a in enumerate(xs):
        raw[i * (big // m)] += a
    return _ref_reduce(raw, big)


def _ref_inv(xs, m):
    """The y with x y = 1, by Gauss-Jordan on the matrix of multiplication
    by x (column j is x z^j)."""
    phi = len(xs)
    cols = [_ref_mul_coeffs(xs, [Fraction(int(i == j)) for i in range(phi)], m)
            for j in range(phi)]
    A = [[cols[j][i] for j in range(phi)] + [Fraction(int(i == 0))]
         for i in range(phi)]
    for c in range(phi):
        p = next(r for r in range(c, phi) if A[r][c])
        A[c], A[p] = A[p], A[c]
        A[c] = [v / A[c][c] for v in A[c]]
        for r in range(phi):
            if r != c and A[r][c]:
                f = A[r][c]
                A[r] = [v - f * w for v, w in zip(A[r], A[c])]
    return [row[phi] for row in A]


def _check_cyc(got, m, coeffs):
    """got is the oracle's value, field by field: int numerators over the
    least common denominator, and the Fraction view."""
    den = math.lcm(*(c.denominator for c in coeffs))
    assert got.order == m
    assert type(got.den) is int and all(type(a) is int for a in got.num)
    assert (got.num, got.den) == \
        (tuple(int(c * den) for c in coeffs), den)
    assert got.coeffs == tuple(coeffs)


_cyc_coeff = st.one_of(st.just(Fraction(0)),
                       st.builds(Fraction, st.integers(-9, 9),
                                 st.integers(1, 6)))


@st.composite
def _cyc_operands(draw):
    m = draw(st.integers(1, 12))
    phi = euler_phi(m)
    xs, ys = (draw(st.lists(_cyc_coeff, min_size=phi, max_size=phi))
              for _ in range(2))
    if draw(st.booleans()):
        xs[1:] = [Fraction(0)] * (phi - 1)          # a rational number
    q = draw(st.one_of(st.integers(-5, 5), _cyc_coeff))
    return m, xs, ys, q, m * draw(st.integers(1, 3))


@given(_cyc_operands())
@example((1, [Fraction(1, 2)], [Fraction(0)], 2, 2))
@example((12, [Fraction(1, 2), 0, Fraction(-1, 2), 0],
          [Fraction(2), 0, 0, Fraction(1, 3)], Fraction(2, 3), 24))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_cyclotomic_matches_fraction_oracle(operands):
    m, xs, ys, q, big = operands
    x, y = Cyclotomic(m, xs), Cyclotomic(m, ys)
    _check_cyc(x, m, xs)
    _check_cyc(x + y, m, [a + b for a, b in zip(xs, ys)])
    _check_cyc(x - y, m, [a - b for a, b in zip(xs, ys)])
    _check_cyc(-x, m, [-a for a in xs])
    _check_cyc(x * y, m, _ref_mul_coeffs(xs, ys, m))
    for got in (x * q, q * x):
        _check_cyc(got, m, [a * q for a in xs])
    for got in (x + q, q + x):
        _check_cyc(got, m, [xs[0] + q] + xs[1:])
    _check_cyc(x - q, m, [xs[0] - q] + xs[1:])
    _check_cyc(q - x, m, [q - xs[0]] + [-a for a in xs[1:]])
    _check_cyc(x.embed(big), big, _ref_embed(xs, m, big))
    if any(xs):
        _check_cyc(x.inv(), m, _ref_inv(xs, m))
    else:
        with pytest.raises(ZeroDivisionError):
            x.inv()
    assert (x == y) == (xs == ys)
    if xs == ys:
        assert hash(x) == hash(y)
    rational = not any(xs[1:])
    assert (x == xs[0]) == rational and x.is_rational() == rational
    if rational:
        assert hash(x) == hash(xs[0])
        assert {xs[0]: "found"}.get(x) == "found"
        assert x.as_rational() == xs[0]
        assert type(x.as_rational()) is (int if xs[0].denominator == 1
                                         else Fraction)


def test_rational_values_hash_as_their_rational():
    # == and hash agree: a dict keyed by the rational finds the number
    one = Cyclotomic.from_rational(1, 2)
    assert one == 1 and hash(one) == hash(1)
    assert {1: "one"}.get(one) == "one"
    q = Cyclotomic.from_rational(Fraction(-3, 4), 5)
    assert q == Fraction(-3, 4) and {Fraction(-3, 4): "q"}.get(q) == "q"
    for c in (3, Fraction(2, 5), Cyclotomic.from_rational(7, 3)):
        p = LaurentPoly.constant(2, c)
        assert p == c and hash(p) == hash(c)
        assert {c: "c"}.get(p) == "c"
    assert {7: "seven"}.get(LaurentPoly.constant(1, Cyclotomic.from_rational(
        7, 3))) == "seven"
    zero = LaurentPoly(1, {})
    assert zero == 0 and hash(zero) == hash(0)
    # a non-constant polynomial still hashes by its terms
    x = LaurentPoly.variable(1, 0, 1)
    assert hash(x + 1) == hash(1 + x) and x + 1 != 1
