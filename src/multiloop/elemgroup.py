"""Relative root elements, unipotent factorization, commutator extraction,
and the series factorization engine E(A((t))) = E(A[[t]]) E(A[t,1/t]).

Sparse rows {i: {j: x}}, with no exact zero stored, are the one form of a
group element here.  A letter X_alpha(v) = exp(ad_v) is given by the rows
of ad_v (root_element, chevalley.ad_rows over the graded table), which
sends the piece of q-degree beta to beta + alpha, and acts on the sparse
rows of a matrix M term by term, as M + ad_v M + ad_v (ad_v M) / 2 + ...
(linalg.exp_nilpotent), so the work is on M's columns alone; a letter
touches only the nonzero coordinates of v.  A word is evaluated on the
sparse rows of the identity, or of some of its columns, which store its
ones alone (R.zero() is an exact zero), by left-applying its letters, last
first; an ElementMatrix holds the result, and its dense .matrix is only a
view for a caller that asks for it.

Coefficients come from a ring of the scalar tower.  Only exact zeros are
skipped: entries zero only up to a horizon, O(t^p), are never skipped, so
their horizons reach every product and residual.  Every comparison with
the identity goes through linalg.identity_residual, and a certificate
records the precision it achieves, which never exceeds what the inputs
carry.  Residual words are certified on the generating columns of the
algebra (generator_residual): an automorphism that fixes them modulo t^a,
a >= 0, fixes every column modulo t^a.  Unipotent factorization reads each
parameter off a block of the matrix with one linalg.span_coords solver per
root, which certifies it, straight from the sparse rows, and ends by
certifying that what is left is the identity on every column, which proves
u = prod X(v_i): the one certificate of commutator tables and of the q-map
corrections (extract_q_maps, which the series engine shares); for a root
with no multiples it proves X_a(v) X_a(w) = X_a(v+w).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul

from . import linalg
from .chevalley import ad_rows
from .grading import GradedLieAlgebra, RelativeGrading
from .rootsys import proportionality
from .scalars import DomainSeries, TruncSeries, series_split


class ElementError(ValueError):
    pass


class PrecisionExhausted(ElementError):
    """A residual is certified only below the requested precision; achieved
    is the precision that was certified."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class RankOneComponent(ElementError):
    pass


class WordSyntaxError(ValueError):
    pass


@dataclass
class RootElementWord:
    letters: list                 # (root tuple, param vector over the ring)
    ring_tag: str = "series"

    def __iter__(self):
        return iter(self.letters)

    def __len__(self):
        return len(self.letters)


class ElementMatrix:
    """The sparse rows of a dim x dim matrix over ring; .matrix is a dense
    view, built on first use."""

    def __init__(self, rows, dim, ring):
        self.rows, self.dim, self.ring = rows, dim, ring

    @cached_property
    def matrix(self):
        return linalg.dense(self.ring, self.rows, self.dim)


def _param_is_zero(v):
    return not any(v)


def _homogeneous_support(g: GradedLieAlgebra, R, alpha, v):
    """The entries of v that R.nonzero accepts, as {i: v_i}; each must lie
    on the alpha piece."""
    allowed = g.qdeg_pieces.get(alpha, ())
    x = {}
    for i, a in enumerate(v):
        if R.nonzero(a):
            if i not in allowed:
                raise ElementError(
                    "parameter is not homogeneous of degree %s (index %d)" %
                    (alpha, i))
            x[i] = a
    return x


def root_element(rg: RelativeGrading, R, alpha, v):
    """The sparse rows of ad_v, for a parameter v supported on the alpha
    root piece: X_alpha(v) = exp(ad_v) acts on sparse rows M as
    linalg.exp_nilpotent(R, ad_v, M)."""
    g = rg.algebra
    alpha = tuple(alpha)
    if rg.data is None or alpha not in rg.data.root_set:
        raise ElementError("%s is not a relative root" % (alpha,))
    x = _homogeneous_support(g, R, alpha, v)
    return ad_rows(g.cells_by_first, x)


def word_matrix(rg: RelativeGrading, R, word, columns=None) -> ElementMatrix:
    """The product of a word's letters: the sparse identity with the
    letters left-applied, last first.  With columns given, only those
    columns of the identity are carried, and the result holds the
    product's entries in those columns alone."""
    dim = rg.algebra.dim
    if columns is None:
        columns = range(dim)
    one = R.one()
    rows = {s: {s: one} for s in columns}
    for alpha, v in reversed(list(word)):
        rows = linalg.exp_nilpotent(R, root_element(rg, R, alpha, v), rows)
    return ElementMatrix(rows, dim, R)


def word_inverse(word: RootElementWord) -> RootElementWord:
    letters = [(alpha, [-x if x else x for x in v])
               for alpha, v in reversed(word.letters)]
    return RootElementWord(letters, word.ring_tag)


def word_residual(rg: RelativeGrading, R, letters, N=None, columns=None):
    """linalg.identity_residual of the product of letters on the given
    columns of the identity (all of them when None)."""
    if columns is None:
        columns = range(rg.algebra.dim)
    res = word_matrix(rg, R, letters, columns)
    return linalg.identity_residual(R, res.rows, N, columns)


def generator_residual(rg: RelativeGrading, R, letters, N=None):
    """(achieved, where) for the product of letters, certified on the
    generating columns S of rg.algebra.

    The product phi is an automorphism, so phi(x) - x in t^a g[[t]] for
    every x in S, with a >= 0, gives the same for every basis vector
    (GradedLieAlgebra.generating_columns), for every completion of
    truncated letters: an achieved a >= 0 on S holds on every column, and
    so does an exact identity.  Below 0 the lemma does not apply, and
    every column is evaluated."""
    achieved, where = word_residual(rg, R, letters, N,
                                    rg.algebra.generating_columns)
    if achieved is not None and achieved < 0:
        return word_residual(rg, R, letters, N)
    return achieved, where


# ---------------------------------------------------------------------------
# unipotent factorization

def _positivity_functional(alpha, beta):
    """A rational functional positive on both roots (they must not be
    opposite-proportional), built from their dot products."""
    aa, bb, ab = (sum(map(mul, x, y)) for x, y in
                  ((alpha, alpha), (beta, beta), (alpha, beta)))
    if ab >= 0:
        w = [Fraction(a) / aa + Fraction(b) / bb
             for a, b in zip(alpha, beta)]
    else:
        disc = aa * bb - ab * ab
        if disc <= 0:
            raise ElementError(
                "roots %s, %s are opposite-proportional" % (alpha, beta))
        delta = Fraction(disc, 2 * abs(ab))
        w = [bb * Fraction(a) + (-ab + delta) * Fraction(b)
             for a, b in zip(alpha, beta)]
    # w is used through the inner product with the root coordinates
    return lambda x: sum(Fraction(c) * wc for c, wc in zip(x, w))


def _shift_pairs(g, gamma):
    """Basis index pairs (k, j) with qdeg_k = qdeg_j + gamma."""
    pairs = []
    for j, ej in enumerate(g.entries):
        target_q = tuple(a + b for a, b in zip(ej.qdeg, gamma))
        pairs += [(k, j) for k in sorted(g.qdeg_pieces.get(target_q, ()))]
    return pairs


def _peel_data(rg, gamma):
    """The gamma piece, the gamma-shift block pairs (k, j), and a solver
    (linalg.span_coords) taking the entries of ad_v at those pairs, as
    {pair position: entry}, to the coordinates of v on the piece, or to
    None when no v has those entries."""
    cache = rg._peel_cache
    if gamma in cache:
        return cache[gamma]
    g = rg.algebra
    dom = g.dom
    idxs = g.piece(qdeg=gamma)
    if not idxs:
        raise ElementError("empty piece at %s" % (gamma,))
    pairs = _shift_pairs(g, gamma)
    cols = []
    for p in idxs:
        ad = ad_rows(g.cells_by_first, {p: dom.one()})
        cols.append({r: ad[k][j] for r, (k, j) in enumerate(pairs)
                     if j in ad.get(k, ())})
    cache[gamma] = (idxs, pairs, linalg.span_coords(dom, cols, len(pairs)))
    return cache[gamma]


def unipotent_factor(rg: RelativeGrading, R, u: ElementMatrix, psi,
                     keyfunc=None):
    """Factor a unipotent element as an ordered product over the closed set
    psi, peeling minimal components first.  Returns [(gamma, v_gamma)].

    The gamma-shift block of what is left must be the block of ad_v for a
    v on the gamma piece; every entry R.nonzero accepts takes part in that
    certificate, and what is left at the end is certified against the
    identity on every column, which proves u = prod X_gamma(v_gamma).
    Raises ElementError otherwise."""
    g = rg.algebra
    if keyfunc is None:
        keyfunc = lambda gamma: (rg.data.height(gamma), gamma)
    order = sorted((tuple(x) for x in psi), key=keyfunc)
    cur = u.rows
    out = []
    for gamma in order:
        idxs, pairs, solve = _peel_data(rg, gamma)
        rhs = {r: cur[k][j] for r, (k, j) in enumerate(pairs)
               if j in cur.get(k, ())}
        coords = solve(rhs)
        if coords is None:
            raise ElementError("element is not unipotent over psi: residual "
                               "in the block of root %s" % (gamma,))
        v = [R.zero()] * g.dim
        for p, c in zip(idxs, coords):
            v[p] = R.lift(c)
        if _param_is_zero(v):
            continue
        out.append((gamma, v))
        cur = linalg.exp_nilpotent(
            R, root_element(rg, R, gamma, [-x for x in v]), cur)
    _, where = linalg.identity_residual(R, cur, None, range(g.dim))
    if where is not None:
        raise ElementError("element is not unipotent over psi: residual at "
                           "block (%d,%d)" % where)
    return out


def extract_q_maps(rg: RelativeGrading, R, alpha, v, w):
    """Corrections in X_a(v) X_a(w) = X_a(v+w) prod_{i>1} X_{ia}(q_i).
    With no multiples of a, unipotent_factor's final certificate is the
    proof that X_a(v) X_a(w) = X_a(v+w)."""
    alpha = tuple(alpha)
    # X_a(v+w)^-1 X_a(v) X_a(w)
    rem_word = [(alpha, [-(a + b) for a, b in zip(v, w)]), (alpha, v),
                (alpha, w)]
    f = _positivity_functional(alpha, alpha)
    return unipotent_factor(rg, R, word_matrix(rg, R, rem_word),
                            rg.data.multiples(alpha),
                            keyfunc=lambda gam: (f(gam), gam))


def commutator_table(rg: RelativeGrading, R, alpha, beta, u, v):
    """[X_a(u), X_b(v)] as an ordered product over the open cone
    {i a + j b : i, j >= 1}."""
    alpha, beta = tuple(alpha), tuple(beta)
    # raises ElementError on opposite-proportional roots
    f = _positivity_functional(alpha, beta)
    comm_word = [(alpha, u), (beta, v), (alpha, [-x for x in u]),
                 (beta, [-x for x in v])]
    comm = word_matrix(rg, R, comm_word)
    if alpha == beta or proportionality(alpha, beta) is not None:
        psi = sorted(set(rg.data.multiples(alpha))
                     | set(rg.data.multiples(beta)))
    else:
        # alpha, beta are not proportional: each i, j gives its own root
        psi = sorted(gam for gam in (
            tuple(i * a + j * b for a, b in zip(alpha, beta))
            for i in range(1, 6) for j in range(1, 6))
            if gam in rg.data.root_set)
    return unipotent_factor(rg, R, comm, psi,
                            keyfunc=lambda gam: (f(gam), gam))


# ---------------------------------------------------------------------------
# the series factorization engine

@dataclass
class FactorizationCertificate:
    precision: int
    residual_identity: bool
    dropped: list = field(default_factory=list)   # (root, tail valuation)

    def serialize(self):
        lines = ["certificate precision=%d residual=%s" %
                 (self.precision, "identity" if self.residual_identity
                  else "nonzero")]
        for root, val in self.dropped:
            lines.append("dropped root=(%s) valuation>=%s" %
                         (",".join(map(str, root)), val))
        return "\n".join(lines)


def assert_factorable(rg: RelativeGrading):
    if rg.anisotropic:
        raise RankOneComponent("anisotropic grading: no relative roots")
    for comp in rg.data.components:
        if comp["rank"] < 2:
            raise RankOneComponent(
                "irreducible component of rank %d at %s: the factorization "
                "method needs rank >= 2" % (comp["rank"], comp["roots"][0]))


def _split_param(v):
    """Coordinatewise series split; returns (laurent part, positive part).
    An exact zero is its own two halves."""
    nonpos, positive = [], []
    for x in v:
        a, b = series_split(x) if DomainSeries.nonzero(x) else (x, x)
        nonpos.append(a)
        positive.append(b)
    return nonpos, positive


def _expand_letter(rg, R, alpha, v, out):
    """Rewrite X_alpha(v) as a product of letters whose parameters are
    either positive-valuation series or exact Laurent polynomials."""
    nonpos, positive = _split_param(v)
    if _param_is_zero(nonpos):
        if not _param_is_zero(positive):
            out.append((alpha, positive))
        return
    if _param_is_zero(positive):
        out.append((alpha, nonpos))
        return
    out.append((alpha, positive))
    out.append((alpha, nonpos))
    if rg.data.multiples(alpha):
        # X(v) = X(pos) X(nonpos) C^{-1} with C supported on multiples
        for gam, q in extract_q_maps(rg, R, alpha, positive, nonpos):
            _expand_letter(rg, R, gam, [-x for x in q], out)


def _poly_truncate(v):
    """Split v into (known polynomial part, tail valuation or None)."""
    poly, tail_val = [], None
    for x in v:
        if x.prec is None:
            poly.append(x)
        else:
            kept = [c for c in x.coeffs]
            poly.append(TruncSeries(x.base, x.low, None, kept))
            if tail_val is None or x.prec < tail_val:
                tail_val = x.prec
    return poly, tail_val


def factor_loop_series(rg: RelativeGrading, R, word: RootElementWord,
                       N: int):
    """Factor a word over A((t)) at precision N as g1 (series parameters of
    valuation >= 0) times g2 (Laurent polynomial parameters)."""
    assert_factorable(rg)
    expanded = []
    for alpha, v in word:
        _expand_letter(rg, R, tuple(alpha), [R.lift(x) for x in v], expanded)
    g1, g2, dropped = [], [], []
    for alpha, v in expanded:
        vals = [x.low for x in v if x.num]
        minval = min(vals) if vals else 0
        exact = all(x.prec is None for x in v)
        if not g2:
            if minval >= 0:
                g1.append((alpha, v))
            else:
                # negative parts are exact Laurent polynomials by the split
                g2.append((alpha, v))
            continue
        if exact:
            g2.append((alpha, v))
            continue
        poly, tail_val = _poly_truncate(v)
        if not _param_is_zero(poly):
            g2.append((alpha, poly))
        if tail_val is not None:
            dropped.append((alpha, tail_val))
    g1w = RootElementWord(g1, "series")
    g2w = RootElementWord(g2, "laurent")
    cert = _verify_factorization(rg, R, word, g1w, g2w, N, dropped)
    return g1w, g2w, cert


def residual_word(word, g1w, g2w) -> RootElementWord:
    """inverse(g1 g2) followed by word: one chain whose product is the
    identity exactly when word = g1 g2."""
    combined = RootElementWord(list(g1w.letters) + list(g2w.letters))
    return RootElementWord(word_inverse(combined).letters + list(word))


def _verify_factorization(rg, R, word, g1w, g2w, N, dropped):
    achieved, _ = generator_residual(rg, R, residual_word(word, g1w, g2w), N)
    if achieved is not None and achieved < N:
        raise PrecisionExhausted(
            "factorization certified only modulo t^%d < t^%d; rerun with "
            "larger precision" % (achieved, N), achieved)
    return FactorizationCertificate(N, True, dropped)


def depth_bound(rg: RelativeGrading, M: int, n_exp) -> int:
    """Sufficient depth N >= 3 (M + |Phi| * |n|) for the conjugation check."""
    weight = sum(abs(x) for x in ([n_exp] if isinstance(n_exp, int) else n_exp))
    return 3 * (M + len(rg.roots) * weight)


def depth_conjugation_check(rg: RelativeGrading, R, alpha, n_exp, u, N, M,
                            samples) -> bool:
    """Conjugates of depth-N generators by X_alpha(t^n u) must be congruent
    to the identity modulo t^M."""
    alpha = tuple(alpha)
    tpow = R.t(n_exp)
    param = [x * tpow for x in u]
    for beta, w in samples:
        deep = [c * R.t(N) for c in w]
        achieved, _ = generator_residual(
            rg, R, [(alpha, param), (tuple(beta), deep),
                    (alpha, [-x for x in param])], M)
        if achieved is not None and achieved < M:
            return False
    return True


# ---------------------------------------------------------------------------
# serialization of words

def word_show(rg, R, word: RootElementWord) -> str:
    lines = ["word ring=%s letters=%d" % (word.ring_tag, len(word))]
    g = rg.algebra
    for alpha, v in word:
        idxs = g.piece(qdeg=tuple(alpha))
        vals = ";".join(R.show(v[i]) for i in idxs)
        lines.append("X (%s) [%s]" % (",".join(map(str, alpha)), vals))
    return "\n".join(lines)


def word_parse(rg, R, text: str) -> RootElementWord:
    """A "word ring=<tag> letters=<k>" line, then one "X (root) [p; ...]"
    line per letter, k of them when the header gives k; malformed text
    raises WordSyntaxError naming its line."""
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    if not lines or lines[0][1].split()[0] != "word":
        no = lines[0][0] if lines else text.count("\n") + 1
        raise WordSyntaxError("line %d: expected a 'word' block" % no)
    tag = next((part[5:] for part in reversed(lines[0][1].split())
                if part.startswith("ring=")), "series")
    g = rg.algebra
    letters = []
    for no, ln in lines[1:]:
        try:
            root, rest = ln.split(")", 1)
            head, _, coords = root.partition("(")
            rest = rest.strip()
            if head.strip() != "X" or rest[:1] != "[" or rest[-1:] != "]":
                raise ValueError
            alpha = tuple(int(x) for x in coords.split(","))
            vals = [R.parse(p) for p in rest[1:-1].split(";")] \
                if rest != "[]" else []
        except (ValueError, ArithmeticError, IndexError):
            raise WordSyntaxError("line %d: bad letter %r" % (no, ln)) \
                from None
        if alpha not in rg.roots:
            raise WordSyntaxError("line %d: %s is not a relative root"
                                  % (no, alpha))
        idxs = g.piece(qdeg=alpha)
        if len(vals) != len(idxs):
            raise WordSyntaxError("line %d: root %s takes %d parameters"
                                  % (no, alpha, len(idxs)))
        v = [R.zero()] * g.dim
        for i, val in zip(idxs, vals):
            v[i] = val
        letters.append((alpha, v))
    count = next((part[8:] for part in reversed(lines[0][1].split())
                  if part.startswith("letters=")), str(len(letters)))
    if count != str(len(letters)):
        raise WordSyntaxError("line %d: the header gives letters=%s but the "
                              "word has %d" % (lines[0][0], count, len(letters)))
    return RootElementWord(letters, tag)
