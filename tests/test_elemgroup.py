import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multiloop import linalg
from multiloop.chevalley import ChevalleyError, character
from multiloop.elemgroup import (ElementError, ElementMatrix,
                                 PrecisionExhausted,
                                 RankOneComponent, RootElementWord,
                                 commutator_table, depth_bound,
                                 depth_conjugation_check, extract_q_maps,
                                 _split_param, factor_loop_series,
                                 generator_residual, residual_word,
                                 root_element, word_residual,
                                 unipotent_factor, word_inverse, word_matrix,
                                 word_parse, word_show)
from multiloop.cli import parse_word_file
from multiloop.grading import GradingError
from multiloop.grading import from_chevalley, relative_roots
from multiloop.scalars import (QQ, DomainCyclotomic, DomainLaurent,
                               DomainSeries, LaurentPoly, TruncSeries,
                               series_split)

from conftest import (FIXTURES, algebra, basis_vector, build_sl3_flip,
                      exp_ad, identity, is_identity, mat_eq, mat_mul_dense,
                      place, sparse, variable)


def series(low, coeffs, prec=None):
    return TruncSeries(QQ, low, prec, [Fraction(c) for c in coeffs])


def test_zero_param_is_identity(rg_a2):
    g = rg_a2.algebra
    alpha = rg_a2.roots[0]
    m = word_matrix(rg_a2, QQ, [(alpha, [QQ.zero()] * g.dim)])
    assert is_identity(QQ, m.matrix)


def test_inverse_letter(rg_a2):
    alpha = rg_a2.roots[0]
    v = place(rg_a2.algebra, QQ, alpha, Fraction(5, 3))
    x = word_matrix(rg_a2, QQ, [(alpha, v), (alpha, [-a for a in v])])
    assert is_identity(QQ, x.matrix)


def test_non_root_rejected(rg_a2):
    with pytest.raises(ElementError):
        root_element(rg_a2, QQ, (9, 9), [QQ.zero()] * rg_a2.algebra.dim)


def test_inhomogeneous_rejected(rg_a2):
    v = [QQ.zero()] * rg_a2.algebra.dim
    v[0] = QQ.one()
    v[-1] = QQ.one()   # a Cartan coordinate: not on the root piece
    with pytest.raises(ElementError):
        root_element(rg_a2, QQ, rg_a2.algebra.entries[0].qdeg, v)


def _random_positive_word(rg, R, rng, lift):
    letters = []
    for gamma in rg.data.positive:
        vals = [lift(rng.randint(-5, 5))
                for _ in rg.algebra.piece(qdeg=gamma)]
        letters.append((gamma, place(rg.algebra, R, gamma, vals)))
    return letters


def test_unipotent_roundtrip_a2(rg_a2):
    rng = random.Random(3)
    for _ in range(20):
        letters = _random_positive_word(rg_a2, QQ, rng, Fraction)
        u = word_matrix(rg_a2, QQ, RootElementWord(letters))
        factors = unipotent_factor(rg_a2, QQ, u, rg_a2.data.positive)
        rebuilt = word_matrix(rg_a2, QQ, RootElementWord(factors))
        assert mat_eq(u.matrix, rebuilt.matrix)


def test_unipotent_roundtrip_bc1(rg_bc1):
    R = rg_bc1.algebra.dom
    rng = random.Random(4)
    for _ in range(20):
        letters = _random_positive_word(rg_bc1, R, rng, R.from_int)
        u = word_matrix(rg_bc1, R, RootElementWord(letters))
        factors = unipotent_factor(rg_bc1, R, u, rg_bc1.data.positive)
        rebuilt = word_matrix(rg_bc1, R, RootElementWord(factors))
        assert mat_eq(u.matrix, rebuilt.matrix)


def test_element_path_forms_no_dense_matrix(monkeypatch, rg_a2, rg_bc1):
    # words, unipotent factorization, commutator tables and the series
    # engine work on sparse rows alone
    rg_w, R_w, word, _ = parse_word_file(
        (FIXTURES / "word_three.txt").read_text())

    def no_dense(*args):
        raise AssertionError("a dense matrix was formed")
    monkeypatch.setattr(linalg, "dense", no_dense)
    letters = _random_positive_word(rg_a2, QQ, random.Random(21), Fraction)
    u = word_matrix(rg_a2, QQ, RootElementWord(letters))
    assert unipotent_factor(rg_a2, QQ, u, rg_a2.data.positive)
    a, b = rg_a2.data.simple
    assert commutator_table(rg_a2, QQ, a, b, place(rg_a2.algebra, QQ, a, 2),
                            place(rg_a2.algebra, QQ, b, -3))
    R = rg_bc1.algebra.dom
    a = rg_bc1.data.simple[0]
    assert commutator_table(
        rg_bc1, R, a, a, place(rg_bc1.algebra, R, a, [R.one(), R.zero()]),
        place(rg_bc1.algebra, R, a, [R.zero(), R.one()]))
    g1, g2, cert = factor_loop_series(rg_w, R_w, word, 8)
    assert cert.residual_identity


def test_unipotent_factor_identity(rg_a2):
    dim = rg_a2.algebra.dim
    ident = ElementMatrix(sparse(QQ, identity(QQ, dim)), dim, QQ)
    assert unipotent_factor(rg_a2, QQ, ident, rg_a2.data.positive) == []


def test_unipotent_factor_simple_product(rg_a2):
    # X_b(1) X_a(1) re-sorts to X_a(1) X_b(1) X_{a+b}(c) with c = +-1
    simple = rg_a2.data.simple
    a, b = simple[0], simple[1]
    u = word_matrix(rg_a2, QQ, RootElementWord([
        (b, place(rg_a2.algebra, QQ, b, Fraction(1))),
        (a, place(rg_a2.algebra, QQ, a, Fraction(1)))]))
    factors = unipotent_factor(rg_a2, QQ, u, rg_a2.data.positive)
    by_root = {gamma: v for gamma, v in factors}
    ab = tuple(x + y for x, y in zip(a, b))
    assert set(by_root) == {a, b, ab}
    c = [x for x in by_root[ab] if x][0]
    assert abs(c) == 1


def test_non_unipotent_rejected(rg_a2):
    dim = rg_a2.algebra.dim
    m = identity(QQ, dim)
    m[-1][-1] = Fraction(2)
    with pytest.raises(ElementError):
        unipotent_factor(rg_a2, QQ,
                         ElementMatrix(sparse(QQ, m), dim, QQ),
                         rg_a2.data.positive)


def test_perturbed_root_block_is_not_unipotent(rg_a2):
    # one entry of the alpha-shift block moved off the image of ad on the
    # alpha piece: the first solve cannot be certified
    g = rg_a2.algebra
    alpha = rg_a2.data.simple[0]
    u = word_matrix(rg_a2, QQ, RootElementWord(
        [(gamma, place(g, QQ, gamma, Fraction(i + 2)))
         for i, gamma in enumerate(rg_a2.data.positive)]))
    assert unipotent_factor(rg_a2, QQ, u, rg_a2.data.positive)
    k, j = next((k, j) for j, ej in enumerate(g.entries)
                for k, ek in enumerate(g.entries)
                if ek.qdeg == tuple(a + b for a, b in zip(ej.qdeg, alpha)))
    row = u.rows.setdefault(k, {})
    row[j] = row.get(j, 0) + 1
    with pytest.raises(ElementError) as info:
        unipotent_factor(rg_a2, QQ, u, rg_a2.data.positive)
    message = str(info.value)
    assert message.startswith("element is not unipotent over psi")
    assert str(alpha) in message


def test_component_outside_psi_is_refused(rg_a2):
    # u has a component at the highest root, which psi leaves out: every
    # block solve succeeds, and only the closing identity check refuses u,
    # the one certificate of commutator tables and q-map corrections
    g = rg_a2.algebra
    positive = rg_a2.data.positive
    top = max(positive, key=rg_a2.data.height)
    u = word_matrix(rg_a2, QQ, RootElementWord(
        [(gamma, place(g, QQ, gamma, Fraction(i + 2)))
         for i, gamma in enumerate(positive)]))
    psi = [gamma for gamma in positive if gamma != top]
    with pytest.raises(ElementError, match="residual at block"):
        unipotent_factor(rg_a2, QQ, u, psi)


def test_q_maps_empty_for_reduced(rg_a2):
    alpha = rg_a2.roots[0]
    v = place(rg_a2.algebra, QQ, alpha, Fraction(2))
    w = place(rg_a2.algebra, QQ, alpha, Fraction(-7, 2))
    assert extract_q_maps(rg_a2, QQ, alpha, v, w) == []


def test_q_maps_bc1(rg_bc1):
    R = rg_bc1.algebra.dom
    alpha = (1,)
    idxs = rg_bc1.algebra.piece(qdeg=alpha)
    assert len(idxs) == 2
    v = place(rg_bc1.algebra, R, alpha, [R.from_int(1), R.from_int(2)])
    w = place(rg_bc1.algebra, R, alpha, [R.from_int(3), R.from_int(-1)])
    corr = extract_q_maps(rg_bc1, R, alpha, v, w)
    assert [gamma for gamma, _ in corr] == [(2,)]
    # q correction vanishes when one argument is zero
    zero = [R.zero()] * rg_bc1.algebra.dim
    assert extract_q_maps(rg_bc1, R, alpha, v, zero) == []


def test_unipotent_factor_over_series_gives_ring_zeros(rg_bc1):
    # a coordinate nothing contributes to, on a two-dimensional piece,
    # comes back as the series ring's zero, not the base field's
    g = rg_bc1.algebra
    R = DomainSeries(g.dom)
    alpha = (1,)
    v = place(g, R, alpha, [R.zero(), R.t(-1) + R.from_int(2)])
    u = word_matrix(rg_bc1, R, RootElementWord([(alpha, v)]))
    factors = unipotent_factor(rg_bc1, R, u, rg_bc1.data.positive)
    assert factors == [(alpha, v)]
    assert all(type(x) is TruncSeries for _, w in factors for x in w)


def test_commutator_a2(rg_a2):
    simple = rg_a2.data.simple
    a, b = simple[0], simple[1]
    u = place(rg_a2.algebra, QQ, a, Fraction(2))
    v = place(rg_a2.algebra, QQ, b, Fraction(3))
    factors = commutator_table(rg_a2, QQ, a, b, u, v)
    assert len(factors) == 1
    gamma, w = factors[0]
    assert gamma == tuple(x + y for x, y in zip(a, b))
    c = [x for x in w if x][0]
    assert abs(c) == 6   # +- N u v with N = +-1


def test_commutator_homogeneity_a2(rg_a2):
    simple = rg_a2.data.simple
    a, b = simple[0], simple[1]
    u = place(rg_a2.algebra, QQ, a, Fraction(2))
    v = place(rg_a2.algebra, QQ, b, Fraction(3))
    base = dict(commutator_table(rg_a2, QQ, a, b, u, v))
    for c in (Fraction(2), Fraction(3), Fraction(-1)):
        got = dict(commutator_table(rg_a2, QQ, a, b,
                                    [c * x for x in u], [c * x for x in v]))
        assert set(got) == set(base)
        for gamma in base:
            i, j = 1, 1      # gamma = a + b in the open cone
            scale = c ** (i + j)
            assert got[gamma] == [scale * x for x in base[gamma]]


def test_commutator_orthogonal_roots(rg_a3):
    data = rg_a3.data
    # two orthogonal simple roots of A3 commute outright
    simples = data.simple
    pair = None
    for a in simples:
        for b in simples:
            s = tuple(x + y for x, y in zip(a, b))
            if a != b and s not in rg_a3.system.root_set:
                pair = (a, b)
    assert pair is not None
    a, b = pair
    u = place(rg_a3.algebra, QQ, a, Fraction(5))
    v = place(rg_a3.algebra, QQ, b, Fraction(7))
    assert commutator_table(rg_a3, QQ, a, b, u, v) == []


def test_commutator_opposite_rejected(rg_a2):
    a = rg_a2.roots[0]
    na = tuple(-x for x in a)
    u = place(rg_a2.algebra, QQ, a, Fraction(1))
    v = place(rg_a2.algebra, QQ, na, Fraction(1))
    with pytest.raises(ElementError):
        commutator_table(rg_a2, QQ, a, na, u, v)


def test_commutator_bc1_proportional(rg_bc1):
    R = rg_bc1.algebra.dom
    alpha = (1,)
    u = place(rg_bc1.algebra, R, alpha, [R.from_int(1), R.from_int(0)])
    v = place(rg_bc1.algebra, R, alpha, [R.from_int(0), R.from_int(1)])
    factors = commutator_table(rg_bc1, R, alpha, alpha, u, v)
    for gamma, _ in factors:
        assert gamma == (2,)


def torus_conjugate(rg, R, s, letter):
    """Conjugation of X_alpha(v) by the grading torus point s (one unit per
    q-lattice coordinate) replaces v by alpha(s) v; the identity is
    checked on every column."""
    alpha, v = letter
    alpha = tuple(alpha)
    g = rg.algebra
    s = list(s)
    sinv = [R.inv(x) for x in s]
    new_v = [character(R, alpha, s, sinv) * x for x in v]
    # s X_alpha(v) s^-1 scales entry (i, j) by s^(qdeg_i) s^(-qdeg_j)
    diag = [character(R, e.qdeg, s, sinv) for e in g.entries]
    diag_inv = [R.inv(c) for c in diag]
    conj = {i: {j: diag[i] * x * diag_inv[j] for j, x in row.items()}
            for i, row in word_matrix(rg, R, [letter]).rows.items()}
    res = linalg.exp_nilpotent(
        R, root_element(rg, R, alpha, [-x for x in new_v]), conj)
    assert linalg.identity_residual(R, res, None, range(g.dim))[1] is None
    return (alpha, new_v)


def test_torus_conjugate(rg_a2):
    alpha = rg_a2.data.simple[0]
    v = place(rg_a2.algebra, QQ, alpha, Fraction(1))
    s = [Fraction(2), Fraction(3)]
    beta, w = torus_conjugate(rg_a2, QQ, s, (alpha, v))
    assert beta == alpha
    weight = Fraction(1)
    for a, x in zip(alpha, s):
        weight *= x ** a
    assert w == [weight * x for x in v]


def _degrees(x):
    """The degrees of the nonzero stored coefficients of a series."""
    return [x.low + i for i, c in enumerate(x.num) if c]


def test_factor_single_letter_split(rg_a2):
    # X(t^-1 + t^2) = X(t^2) X(t^-1) when the root piece is one-dimensional
    R = DomainSeries(QQ)
    alpha = rg_a2.data.simple[0]
    v = place(rg_a2.algebra, R, alpha, series(-1, [1, 0, 0, 1]))
    g1, g2, cert = factor_loop_series(
        rg_a2, R, RootElementWord([(alpha, v)]), 8)
    assert cert.residual_identity and not cert.dropped
    assert len(g1) == 1 and len(g2) == 1
    (a1, v1), = g1.letters
    (a2_, v2), = g2.letters
    assert a1 == alpha and a2_ == alpha
    assert _degrees([x for x in v1 if x][0]) == [2]
    assert _degrees([x for x in v2 if x][0]) == [-1]


def test_factor_residual_verifies(rg_a2):
    R = DomainSeries(QQ)
    rng = random.Random(9)
    roots = rg_a2.roots
    for _ in range(5):
        letters = []
        for _ in range(rng.randint(1, 4)):
            alpha = roots[rng.randrange(len(roots))]
            s = series(rng.randint(-2, 0),
                       [rng.randint(-3, 3) for _ in range(4)])
            letters.append((alpha, place(rg_a2.algebra, R, alpha, s)))
        word = RootElementWord(letters)
        g1, g2, cert = factor_loop_series(rg_a2, R, word, 8)
        assert cert.precision >= 8 and cert.residual_identity
        for _, v in g1:
            for x in v:
                if x:
                    assert x.valuation() >= 0
        for _, v in g2:
            for x in v:
                assert x.is_polynomial()
        total = RootElementWord(list(g1.letters) + list(g2.letters))
        res = ElementMatrix(linalg.mat_mul(
            R, word_matrix(rg_a2, R, word_inverse(total)).rows,
            word_matrix(rg_a2, R, word).rows), rg_a2.algebra.dim, R)
        ident = identity(R, rg_a2.algebra.dim)
        for i in range(rg_a2.algebra.dim):
            for j in range(rg_a2.algebra.dim):
                d = res.matrix[i][j] - ident[i][j]
                if d:
                    assert d.valuation() is None or d.low >= 8


def test_factor_nonnegative_word_stays_in_g1(rg_a2):
    R = DomainSeries(QQ)
    alpha = rg_a2.data.simple[0]
    v = place(rg_a2.algebra, R, alpha, series(0, [1, 2]))
    g1, g2, cert = factor_loop_series(
        rg_a2, R, RootElementWord([(alpha, v)]), 8)
    assert len(g2) == 0
    # per-letter splitting may emit the constant and positive parts separately
    assert 1 <= len(g1) <= 2
    assert all(a == alpha for a, _ in g1)


def test_factor_rank_one_refused(a1):
    rg = relative_roots(from_chevalley(a1))
    R = DomainSeries(QQ)
    alpha = rg.roots[0]
    v = place(rg.algebra, R, alpha, series(-1, [1]))
    with pytest.raises(RankOneComponent):
        factor_loop_series(rg, R, RootElementWord([(alpha, v)]), 8)


def test_factor_precision_exhausted(rg_a2):
    R = DomainSeries(QQ)
    alpha = rg_a2.data.simple[0]
    v = place(rg_a2.algebra, R, alpha, series(-1, [1, 1], prec=3))
    with pytest.raises(PrecisionExhausted):
        factor_loop_series(rg_a2, R, RootElementWord([(alpha, v)]), 8)


def test_depth_bound_value(rg_a2):
    assert depth_bound(rg_a2, 2, 1) == 3 * (2 + 6)
    assert depth_bound(rg_a2, 1, 0) == 3


def test_depth_conjugation(rg_a2):
    R = DomainSeries(QQ)
    rng = random.Random(17)
    alpha = rg_a2.data.simple[0]
    u = place(rg_a2.algebra, R, alpha, series(0, [2]))
    samples = []
    for _ in range(5):
        beta = rg_a2.roots[rng.randrange(len(rg_a2.roots))]
        w = place(rg_a2.algebra, R, beta,
                  series(0, [rng.randint(-3, 3)]))
        samples.append((beta, w))
    M, n = 2, 1
    N = depth_bound(rg_a2, M, n)
    assert depth_conjugation_check(rg_a2, R, alpha, n, u, N, M, samples)
    # too shallow: degree-0 contamination shows up below t^M
    assert not depth_conjugation_check(rg_a2, R, alpha, 0, u, 0, 1,
                                       [(alpha2, place(rg_a2.algebra, R,
                                                       alpha2, series(0, [1])))
                                        for alpha2 in [rg_a2.data.simple[1]]])


def test_word_show_parse_roundtrip(rg_a2):
    R = DomainSeries(QQ)
    alpha = rg_a2.data.simple[0]
    beta = rg_a2.data.simple[1]
    word = RootElementWord([
        (alpha, place(rg_a2.algebra, R, alpha, series(-2, [1, 0, 3]))),
        (beta, place(rg_a2.algebra, R, beta, series(1, [5], prec=4))),
    ])
    text = word_show(rg_a2, R, word)
    back = word_parse(rg_a2, R, text)
    assert back.ring_tag == word.ring_tag
    assert len(back) == len(word)
    for (a, v), (b, w) in zip(word, back):
        assert a == b
        for x, y in zip(v, w):
            assert (not x and not y) or (x.low == y.low and x.prec == y.prec
                                         and x.coeffs == y.coeffs)


def test_factor_laurent_ground(rg_a2):
    base = DomainLaurent(1, QQ)
    R = DomainSeries(base)
    x = variable(base, 0)
    alpha = rg_a2.data.simple[0]
    s = TruncSeries(base, -1, None, [x, base.one()])
    v = place(rg_a2.algebra, R, alpha, s)
    g1, g2, cert = factor_loop_series(
        rg_a2, R, RootElementWord([(alpha, v)]), 8)
    assert cert.residual_identity
    for _, v2 in g2:
        for y in v2:
            assert y.is_polynomial()


def _complete(x, rng):
    """An exact series agreeing with x below its horizon, with a random
    tail from the horizon on."""
    if x.prec is None:
        return x
    low = x.low if x.coeffs else x.prec
    known = list(x.coeffs)
    known += [x.base.zero()] * (x.prec - low - len(known))
    tail = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
    return TruncSeries(x.base, low, None, known + tail)


def _complete_word(word, rng):
    return RootElementWord([(alpha, [_complete(x, rng) for x in v])
                            for alpha, v in word])


def _finite_precision_words(rg, R, rng, count):
    """A2 words with finite-precision letters: random words of one to three
    letters, and X_a(s) X_b(u) X_a(-s) with the last s either the same
    series or its known part taken as exact."""
    roots = rg.roots

    def random_root():
        return roots[rng.randrange(len(roots))]

    def param(alpha):
        low = rng.randint(-2, 0)
        coeffs = [rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(1, 3))]
        prec = rng.choice([None, None, 4, 6, 8, 9, 10, 12])
        return place(rg.algebra, R, alpha, series(low, coeffs, prec))

    for n in range(count):
        if n % 3 == 0:
            yield RootElementWord([(alpha, param(alpha)) for alpha in
                                   (random_root()
                                    for _ in range(rng.randint(1, 3)))])
            continue
        a, b = random_root(), random_root()
        s = param(a)
        back = [-x for x in s]
        if n % 3 == 2:
            back = [TruncSeries(x.base, x.low, None, x.coeffs) for x in back]
        yield RootElementWord([(a, s), (b, param(b)), (a, back)])


def test_certificate_sound_under_exact_completions(rg_a2):
    """Soundness oracle: whatever exact tails complete the finite-precision
    series of the word and of g1, g2, the residual agrees with the identity
    to at least the certified (or exhausted-at) precision."""
    R = DomainSeries(QQ)
    rng = random.Random(2024)
    N = 8
    certified = exhausted = 0
    for word in _finite_precision_words(rg_a2, R, rng, 40):
        try:
            g1, g2, _ = factor_loop_series(rg_a2, R, word, N)
            claimed = N
            certified += 1
        except PrecisionExhausted as e:
            claimed = e.achieved
            g1, g2, _ = factor_loop_series(rg_a2, R, word, claimed)
            exhausted += 1
        for _ in range(3):
            res = word_matrix(rg_a2, R, residual_word(
                _complete_word(word, rng), _complete_word(g1, rng),
                _complete_word(g2, rng)))
            achieved, where = linalg.identity_residual(
                R, res.rows, None, range(rg_a2.algebra.dim))
            assert achieved is None or claimed <= achieved, \
                (word_show(rg_a2, R, word), claimed, achieved, where)
    assert certified >= 10 and exhausted >= 10


def test_zero_at_precision_entries_take_part():
    # O(t^3) * 1 is O(t^3), not an exact zero: the horizon reaches the
    # product, and the residual is known only modulo t^3
    R = DomainSeries(QQ)
    o3 = TruncSeries.zero_at(QQ, 3)
    one, zero = R.one(), R.zero()
    assert not R.nonzero(zero) and R.nonzero(o3)
    prod = mat_mul_dense(R, [[one, o3], [zero, one]], identity(R, 2))
    assert prod[0][1].prec == 3
    assert linalg.identity_residual(R, sparse(R, prod), None,
                                    range(2)) == (3, None)
    rows = linalg.mat_mul(R, {1: {0: o3}, 0: {1: zero}},
                          sparse(R, identity(R, 2)))
    assert list(rows) == [1] and rows[1][0].prec == 3


def test_identity_residual_names_first_offending_entry():
    R = DomainSeries(QQ)
    one, zero = R.one(), R.zero()
    m = sparse(R, [[one, series(5, [1], prec=9)],
                          [series(2, [1]), one]])
    assert linalg.identity_residual(R, m, 4, range(2)) == (2, (1, 0))
    assert linalg.identity_residual(R, m, None, range(2)) == (2, (0, 1))
    assert linalg.identity_residual(
        QQ, sparse(QQ, identity(QQ, 3)), None, range(3)) == \
        (None, None)


def test_root_element_sparse_matches_dense_exp(rg_a2):
    # X_alpha(v) applied sparsely equals the dense sum of ad_v^i / i!
    g = rg_a2.algebra
    rng = random.Random(12)
    for alpha in rg_a2.roots:
        v = place(g, QQ, alpha, Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        ad = [[QQ.zero()] * g.dim for _ in range(g.dim)]
        for i, x in enumerate(v):
            for j in range(g.dim):
                for k, c in g.table.get((i, j), []):
                    ad[k][j] += x * c
        dense = identity(QQ, g.dim)
        term = identity(QQ, g.dim)
        for i in range(1, g.dim + 1):
            term = [[Fraction(x, i) for x in row] for row in
                    mat_mul_dense(QQ, ad, term)]
            dense = [[a + b for a, b in zip(ra, rb)]
                     for ra, rb in zip(dense, term)]
        assert word_matrix(rg_a2, QQ, [(alpha, v)]).matrix == dense


def test_factor_zero_at_precision_letter_exhausts(rg_a2):
    # X(O(t^12)) is known only modulo t^12: certifying t^20 would overclaim
    R = DomainSeries(QQ)
    alpha = rg_a2.roots[0]
    word = RootElementWord([(alpha, place(rg_a2.algebra, R, alpha,
                                          TruncSeries.zero_at(QQ, 12)))])
    with pytest.raises(PrecisionExhausted) as e:
        factor_loop_series(rg_a2, R, word, 20)
    assert e.value.achieved == 12
    g1, g2, cert = factor_loop_series(rg_a2, R, word, 12)
    assert cert.precision == 12


# ---------------------------------------------------------------------------
# the exp kernel against the earlier dense recursion

def _oracle_left_apply(dom, N, M):
    """exp(N) M for sparse rows N and a dense M by the earlier kernel:
    M + T_1 + T_2 + ..., T_i = (N / i) T_(i-1), each term a product of the
    rows of N / i with the full dense rows of T_(i-1)."""
    nonzero = dom.nonzero
    out = [list(row) for row in M]
    term, step, i = M, N, 1
    while True:
        rows = {}
        for k, Nk in step.items():
            acc = None
            for p, a in Nk.items():
                Tp = term[p] if isinstance(term, list) else term.get(p)
                if not nonzero(a) or Tp is None:
                    continue
                acc = acc or [None] * len(Tp)
                for j, b in enumerate(Tp):
                    if nonzero(b):
                        acc[j] = a * b if acc[j] is None else acc[j] + a * b
            if acc and any(nonzero(x) for x in acc if x is not None):
                rows[k] = [dom.zero() if x is None else x for x in acc]
        term = rows
        if not term:
            return out
        if i >= len(M):
            raise ValueError("matrix is not nilpotent")
        for k, row in term.items():
            for j, x in enumerate(row):
                if nonzero(x):
                    out[k][j] = out[k][j] + x
        i += 1
        step = {k: {j: a * Fraction(1, i) for j, a in row.items()}
                for k, row in N.items()}


def _oracle_word_matrix(rg, R, letters):
    M = identity(R, rg.algebra.dim)
    for alpha, v in reversed(letters):
        M = _oracle_left_apply(R, root_element(rg, R, alpha, v), M)
    return M


def _fields(x):
    if isinstance(x, TruncSeries):
        return (x.low, x.prec, x.num, x.den)
    return (type(x), x)


def _assert_same_entries(got, want):
    assert [[_fields(x) for x in row] for row in got] == \
        [[_fields(x) for x in row] for row in want]


_GRADINGS = {}


def _grading(key):
    """The relative grading of a split algebra, key (type, rank), or of the
    sl3 flip, key "flip"."""
    if key not in _GRADINGS:
        _GRADINGS[key] = relative_roots(
            build_sl3_flip() if key == "flip" else from_chevalley(algebra(*key)))
    return _GRADINGS[key]


@st.composite
def _series_letter(draw, rg, R):
    alpha = draw(st.sampled_from(rg.roots))
    low = draw(st.integers(-3, 2))
    prec = draw(st.one_of(st.none(), st.integers(low + 1, low + 6)))
    if draw(st.integers(0, 5)) == 0:
        s = TruncSeries.zero_at(R.base, draw(st.integers(1, 8)))
    else:
        coeffs = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3))
        if R.base is QQ:
            coeffs = [Fraction(c, draw(st.integers(1, 3))) for c in coeffs]
        else:
            coeffs = [LaurentPoly(1, {(draw(st.integers(-1, 1)),): c})
                      for c in coeffs]
        s = TruncSeries(R.base, low, prec, coeffs)
    return alpha, place(rg.algebra, R, alpha, s)


@st.composite
def _series_words(draw):
    rg = _grading(draw(st.sampled_from([("A", 2), ("B", 2), ("G", 2)])))
    R = DomainSeries(draw(st.sampled_from([QQ, DomainLaurent(1, QQ)])))
    letters = draw(st.lists(_series_letter(rg, R), min_size=1, max_size=3))
    if draw(st.booleans()):
        # a cancelling triple X_a(s) X_b(u) X_a(-s)
        (a, s), (b, u) = draw(_series_letter(rg, R)), letters[0]
        letters = [(a, s), (b, u), (a, [-x for x in s])] + letters[1:]
    return rg, R, letters


@given(_series_words())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_word_matrix_matches_dense_kernel_over_series(case):
    # same low, precision horizon, numerators and denominator in every entry
    rg, R, letters = case
    _assert_same_entries(word_matrix(rg, R, letters).matrix,
                         _oracle_word_matrix(rg, R, letters))


@given(st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_word_matrix_matches_dense_kernel_on_sl3_flip(data):
    # exact words on the BC1 grading, whose root pieces are 2-dimensional
    rg = _grading("flip")
    R = rg.algebra.dom
    letters = []
    for _ in range(data.draw(st.integers(1, 4))):
        alpha = data.draw(st.sampled_from(rg.roots))
        vals = [R.from_int(data.draw(st.integers(-3, 3)))
                for _ in rg.algebra.piece(qdeg=alpha)]
        letters.append((alpha, place(rg.algebra, R, alpha, vals)))
    _assert_same_entries(word_matrix(rg, R, letters).matrix,
                         _oracle_word_matrix(rg, R, letters))


def test_exp_kernel_refuses_non_nilpotent(a2):
    one = Fraction(1)
    for N in ({0: {1: one}, 1: {0: one}}, {0: {0: one}},
              {0: {1: one}, 1: {2: one}, 2: {0: one}}):
        I = identity(QQ, 3)
        with pytest.raises(ValueError):
            _oracle_left_apply(QQ, N, I)
        with pytest.raises(ValueError, match="not nilpotent"):
            linalg.exp_nilpotent(QQ, N, sparse(QQ, I))
    h = basis_vector(a2, QQ, len(a2.roots))
    with pytest.raises(ChevalleyError, match="^ad_v is not nilpotent$"):
        exp_ad(QQ, a2, h)


def test_exp_kernel_sums_terms_up_to_the_first_vanishing_one():
    # N fixes e3, so N is not nilpotent; on the column e0 it is the chain
    # e0 -> e1 -> e2 -> 0, and N^3 e0 = 0 with k = 4 indices touched
    one = Fraction(1)
    N = {1: {0: one}, 2: {1: one}, 3: {3: one}}
    assert linalg.exp_nilpotent(QQ, N, {0: {7: one}}) == \
        {0: {7: 1}, 1: {7: 1}, 2: {7: Fraction(1, 2)}}
    assert linalg.exp_nilpotent(QQ, N, {}) == {}
    for M in ({3: {7: one}}, {0: {7: one}, 3: {5: one}}):
        with pytest.raises(ValueError, match="not nilpotent"):
            linalg.exp_nilpotent(QQ, N, M)


def _column_fields(rows, columns):
    """The fields of every stored entry of rows in the given columns."""
    out = {}
    for i, row in rows.items():
        kept = {j: _fields(x) for j, x in row.items() if j in columns}
        if kept:
            out[i] = kept
    return out


def _assert_columns_match_full_product(rg, R, letters, columns):
    full = word_matrix(rg, R, letters).rows
    block = word_matrix(rg, R, letters, columns).rows
    assert _column_fields(block, set(columns)) == \
        _column_fields(full, set(columns))
    assert all(j in columns for row in block.values() for j in row)


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G", 2), "flip"])
def test_word_matrix_columns_match_full_product_exact(key):
    # Q for the split gradings, Q(zeta_2) for the sl3 flip, whose root
    # pieces are 2-dimensional; integral and rational parameters
    rg = _grading(key)
    R = rg.algebra.dom
    rng = random.Random(17)
    for n in range(8):
        letters = _exact_word(rg, rng, rng.randint(1, 4))
        if n % 2:
            letters = [(alpha, [x * Fraction(1, rng.randint(2, 3))
                                for x in v]) for alpha, v in letters]
        for columns in (rg.algebra.generating_columns,
                        sorted(rng.sample(range(rg.algebra.dim), 3))):
            _assert_columns_match_full_product(rg, R, letters, columns)


@given(_series_words(), st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_word_matrix_columns_match_full_product_over_series(case, data):
    # parameters with horizons O(t^p), zero-at-precision entries among them
    rg, R, letters = case
    dim = rg.algebra.dim
    columns = data.draw(st.sampled_from([
        rg.algebra.generating_columns, (0,), tuple(range(0, dim, 2))]))
    _assert_columns_match_full_product(rg, R, letters, columns)


# -- letters touch only their nonzero coordinates ----------------------------

def _dense_word_inverse(word):
    """word_inverse as it was, negating every entry."""
    return RootElementWord([(alpha, [-x for x in v])
                            for alpha, v in reversed(word.letters)],
                           word.ring_tag)


def _dense_split_param(v):
    """_split_param as it was, splitting every entry."""
    halves = [series_split(x) for x in v]
    return [a for a, _ in halves], [b for _, b in halves]


@st.composite
def _sparse_params(draw):
    """A series parameter vector of length 8 mixing exact zeros,
    zero-at-precision entries and series with and without a horizon."""
    base = draw(st.sampled_from([QQ, DomainLaurent(1, QQ)]))
    out = []
    for _ in range(8):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            out.append(TruncSeries.zero_at(base, None))
        elif kind == 1:
            out.append(TruncSeries.zero_at(base, draw(st.integers(-2, 4))))
        else:
            low = draw(st.integers(-3, 2))
            prec = None if kind == 2 else draw(st.integers(low + 1, low + 5))
            coeffs = draw(st.lists(st.integers(-4, 4), min_size=1,
                                   max_size=3))
            out.append(TruncSeries(base, low, prec,
                                   [Fraction(c, 2) for c in coeffs]))
    return out


@given(st.lists(_sparse_params(), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_sparse_letter_paths_match_dense_versions(params):
    def fields(v):
        return [_fields(x) for x in v]

    word = RootElementWord([((1, 0), v) for v in params])
    got, want = word_inverse(word), _dense_word_inverse(word)
    assert got.ring_tag == want.ring_tag
    assert [(a, fields(v)) for a, v in got] == \
        [(a, fields(v)) for a, v in want]
    for v in params:
        got, want = _split_param(v), _dense_split_param(v)
        assert [fields(h) for h in got] == [fields(h) for h in want]
    zero, one = QQ.zero(), Fraction(1)
    exact = RootElementWord([((1, 0), [zero, one, Fraction(0), -one])])
    assert [(a, [(type(x), x) for x in v]) for a, v in word_inverse(exact)] \
        == [((1, 0), [(int, 0), (Fraction, -1), (Fraction, 0), (Fraction, 1)])]


# -- certificates on the generating columns ----------------------------------


def _exact_word(rg, rng, length):
    R = rg.algebra.dom
    letters = []
    for _ in range(length):
        alpha = rg.roots[rng.randrange(len(rg.roots))]
        vals = [R.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
                for _ in rg.algebra.piece(qdeg=alpha)]
        letters.append((alpha, place(rg.algebra, R, alpha, vals)))
    return letters


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G", 2), "flip"])
def test_generator_certificate_agrees_on_exact_words(key):
    # w^-1 w' is the identity exactly when w' = w; perturbing one letter of
    # w' must show on the generating columns as on all of them
    rg = _grading(key)
    R = rg.algebra.dom
    rng = random.Random(5)
    kinds = set()
    for n in range(24):
        word = _exact_word(rg, rng, rng.randint(1, 4))
        other = list(word)
        if n % 2:
            k = rng.randrange(len(other))
            alpha, v = other[k]
            other[k] = (alpha, [x * 2 for x in v])
        letters = word_inverse(RootElementWord(word)).letters + other
        full = word_residual(rg, R, letters)
        block = word_residual(rg, R, letters,
                              columns=rg.algebra.generating_columns)
        assert (full[0] is None) == (block[0] is None) == \
            (generator_residual(rg, R, letters)[0] is None)
        kinds.add(full[0] is None)
    assert kinds == {True, False}


def _truncated_residual_words(rg, R, rng, count):
    """Residual words of factorizations of finite-precision words, and the
    finite-precision words themselves."""
    for word in _finite_precision_words(rg, R, rng, count):
        yield list(word)
        try:
            g1, g2, _ = factor_loop_series(rg, R, word, 8)
        except PrecisionExhausted as e:
            g1, g2, _ = factor_loop_series(rg, R, word, e.achieved)
        yield residual_word(word, g1, g2).letters


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G", 2)])
def test_generator_bound_dominates_all_column_bound(key):
    # the columns are evaluated exactly as in the full product, so the bound
    # on a subset of them is never lower
    rg = _grading(key)
    R = DomainSeries(QQ)
    above = 0
    for letters in _truncated_residual_words(rg, R, random.Random(31), 24):
        full, _ = word_residual(rg, R, letters, 8)
        block, _ = word_residual(rg, R, letters, 8,
                                 rg.algebra.generating_columns)
        if full is not None:
            assert block is None or block >= full
            above += block is None or block > full
        else:
            assert block is None
    assert above > 0


@pytest.mark.parametrize("key", [("B", 2), ("G", 2)])
def test_generator_certificate_sound_under_exact_completions(key):
    # words the generating columns certify at t^8 while the bound on all
    # columns stays below t^8: every exact completion of the letters of the
    # word, g1 and g2 gives a residual congruent to the identity mod t^8
    rg = _grading(key)
    R = DomainSeries(QQ)
    rng = random.Random(7)
    flips = 0
    for word in _finite_precision_words(rg, R, rng, 150):
        try:
            g1, g2, _ = factor_loop_series(rg, R, word, 8)
        except PrecisionExhausted:
            continue
        achieved, _ = word_residual(rg, R, residual_word(word, g1, g2), 8)
        if achieved is None or achieved >= 8:
            continue
        flips += 1
        for _ in range(5):
            achieved, where = word_residual(rg, R, residual_word(
                _complete_word(word, rng), _complete_word(g1, rng),
                _complete_word(g2, rng)))
            assert achieved is None or achieved >= 8, \
                (word_show(rg, R, word), achieved, where)
    assert flips >= 3


def test_non_generating_columns_do_not_certify(rg_a2):
    # X_theta(1) for the highest root theta = alpha1 + alpha2 fixes e_alpha1
    # and e_alpha2, which generate only n+: on those columns it looks like
    # the identity, and the closure refuses them as a certificate
    g = rg_a2.algebra
    columns = g.piece(qdeg=(0, 1)) + g.piece(qdeg=(1, 0))
    with pytest.raises(GradingError):
        g.certify_generating(columns)
    letters = [((1, 1), place(g, QQ, (1, 1), Fraction(1)))]
    assert word_residual(rg_a2, QQ, letters, columns=columns) == (None, None)
    assert word_residual(rg_a2, QQ, letters)[1] is not None
    assert generator_residual(rg_a2, QQ, letters)[1] is not None


def test_generator_bound_below_zero_is_replaced_by_all_columns(rg_a2):
    # X_a(t^-3 - t^-2 + O(t^-1)) is known on the generating columns modulo
    # t^-3 only; below 0 the lemma says nothing, so the bound is the one on
    # every column, which is lower
    alpha = (2, -1)
    letters = [(alpha, place(rg_a2.algebra, DomainSeries(QQ), alpha,
                             series(-3, [1, -1], prec=-1)))]
    R = DomainSeries(QQ)
    block = word_residual(rg_a2, R, letters, 8,
                          rg_a2.algebra.generating_columns)
    full = word_residual(rg_a2, R, letters, 8)
    assert block[0] == -3 and full[0] == -6
    assert generator_residual(rg_a2, R, letters, 8) == full


_SPLIT = {}


def _split_rg(name):
    if name not in _SPLIT:
        _SPLIT[name] = relative_roots(from_chevalley(algebra(name[0],
                                                             int(name[1]))))
    return _SPLIT[name]


def _leaves(obj):
    """The scalars in nested lists, tuples and dict values."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _leaves(x)
    else:
        yield obj


def _rational(x):
    return type(x) is int or type(x) is Fraction


def _canonical(x):
    """int, or a Fraction that is not integral."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


@given(st.sampled_from(["A2", "B2"]),
       st.lists(st.integers(-9, 9).filter(bool), min_size=20, max_size=20),
       st.lists(_rationals, min_size=12, max_size=12))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_rationals_out_of_the_kernels_are_int_or_fraction(name, ints, qs):
    """Over Q a value is an int or a Fraction, never a float, and an int
    when it is integral wherever the library divides: inv, rref, solve and
    span_coords on rational data; exp_nilpotent, word_matrix and
    unipotent_factor on the integral parameters of the Kostant Z-form.
    (With rational parameters a product of Fractions may be an integral
    Fraction, which still equals and hashes as its int.)"""
    rg = _split_rg(name)
    g = rg.algebra
    ints = iter(ints)
    for q in qs:
        if q:
            assert _canonical(QQ.inv(q))
    A = [dict(enumerate(row)) for row in
         [qs[0:4], qs[4:8], [a + b for a, b in zip(qs[0:4], qs[4:8])]]]
    assert all(_canonical(x) for x in _leaves(linalg.rref(QQ, A)))
    x = linalg.solve(QQ, A, [1, 2, 3], 4)
    assert x is None or all(_canonical(c) for c in x)
    # independent vectors v_j = 2 e_j + q_j e_(j+1) and a combination of them
    vs = [{j: 2, j + 1: qs[j]} for j in range(3)]
    w = {}
    for c, v in zip(qs[8:11], vs):
        for t, y in v.items():
            w[t] = w.get(t, 0) + c * y
    coords = linalg.span_coords(QQ, vs, 4)(w)
    assert coords == qs[8:11] and all(_canonical(c) for c in coords)
    # integral parameters: the Kostant Z-form keeps every entry an int
    letters = [(gamma, place(g, QQ, gamma, next(ints)))
               for gamma in rg.data.positive]
    for alpha, v in letters:
        N = root_element(rg, QQ, alpha, v)
        E = linalg.exp_nilpotent(QQ, N, sparse(
            QQ, identity(QQ, g.dim)))
        assert all(type(y) is int for y in _leaves(E))
    u = word_matrix(rg, QQ, RootElementWord(letters))
    assert all(type(y) is int for y in _leaves(u.rows))
    factors = unipotent_factor(rg, QQ, u, rg.data.positive)
    assert all(type(y) is int for _, v in factors for y in v)
    # rational parameters: rationals throughout, never a float
    letters = [(gamma, place(g, QQ, gamma, q))
               for gamma, q in zip(rg.data.positive, qs)]
    u = word_matrix(rg, QQ, RootElementWord(letters))
    assert all(_rational(y) for y in _leaves(u.rows))
    factors = unipotent_factor(rg, QQ, u, rg.data.positive)
    assert all(_canonical(y) for _, v in factors for y in v)
