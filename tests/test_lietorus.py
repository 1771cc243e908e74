from fractions import Fraction

import pytest

from multiloop import linalg
from multiloop.chevalley import torus_automorphism
from multiloop.grading import (GradedBasisVector, GradedLieAlgebra,
                               MultiloopSpec, build_multiloop,
                               q_grading_from_cartan)
from multiloop.grading import relative_roots
from multiloop.lietorus import (check_LT1, check_LT3, check_LT4, check_LT5,
                                classify_system, lie_torus_check,
                                pairing_from_strings)
from multiloop.scalars import QQ

from conftest import FIXTURES, algebra, load_spec


def test_sl2_loop_passes(g_sl2loop):
    rep = lie_torus_check(g_sl2loop)
    assert rep.overall
    assert rep.delta_label == "A1"
    assert rep.nullity == 1


def test_sl3_loop_passes():
    alg = algebra("A", 2)
    ident = torus_automorphism(alg, QQ, [Fraction(1), Fraction(1)])
    g = build_multiloop(MultiloopSpec(alg, [ident], 1))
    h1 = [g.dom.zero()] * alg.dim
    h1[len(alg.roots)] = g.dom.one()
    h2 = [g.dom.zero()] * alg.dim
    h2[len(alg.roots) + 1] = g.dom.one()
    g = q_grading_from_cartan(g, [h1, h2])
    rep = lie_torus_check(g)
    assert rep.overall
    assert rep.delta_label == "A2"


def test_flip_passes_with_bc1(g_flip):
    rep = lie_torus_check(g_flip)
    assert rep.overall
    assert rep.delta_label == "BC1"
    assert rep.nullity == 1


def test_quaternion_fails_lt2(g_quat):
    rep = lie_torus_check(g_quat)
    assert not rep.overall
    assert not rep.verdicts["LT2"]
    assert rep.counterexamples["LT2"] == "anisotropic"
    assert "anisotropic" in rep.notes


def test_lt1_fails_on_too_small_delta(g_flip):
    ok, witness = check_LT1(g_flip, {(1,), (-1,)})
    assert not ok
    assert witness[0] == "piece" and witness[1] in {(2,), (-2,)}


def test_lt3_fails_on_sublattice():
    # identity automorphism declared with period 2: support generates 2Z != Z
    alg = algebra("A", 1)
    ident = torus_automorphism(alg, QQ, [Fraction(1)])
    g = build_multiloop(MultiloopSpec(alg, [ident], 2))
    ok, witness = check_LT3(g)
    assert not ok


def test_lt5_fails_on_abelian():
    entries = [
        GradedBasisVector((1,), (), [Fraction(1), Fraction(0), Fraction(0)]),
        GradedBasisVector((-1,), (), [Fraction(0), Fraction(1), Fraction(0)]),
        GradedBasisVector((0,), (), [Fraction(0), Fraction(0), Fraction(1)]),
    ]
    g = GradedLieAlgebra(QQ, 0, 1, entries, {})
    ok, witness = check_LT5(g)
    assert not ok


def test_lt4_witnesses_reverify(g_flip):
    rep = lie_torus_check(g_flip)
    dom = g_flip.dom
    support = {e.qdeg for e in g_flip.entries if e.qdeg != (0,) * g_flip.qrank}
    assert rep.witnesses
    for alpha, lam, ei, f_shown in rep.witnesses:
        e = [dom.one() if t == ei else dom.zero() for t in range(g_flip.dim)]
        f = [dom.parse(s) for s in f_shown]
        h = g_flip.bracket(e, f)
        he = g_flip.bracket(h, e)
        assert he == [x * 2 for x in e]
        hf = g_flip.bracket(h, f)
        assert hf == [x * (-2) for x in f]
        # eigenvalue identity on every basis vector
        for k, ent in enumerate(g_flip.entries):
            expect = 0 if ent.qdeg == (0,) else \
                pairing_from_strings(ent.qdeg, alpha, support)
            x = [dom.one() if t == k else dom.zero()
                 for t in range(g_flip.dim)]
            hx = g_flip.bracket(h, x)
            assert hx == [xi * expect for xi in x]


def test_pairing_from_strings_oracle():
    a2 = {(2, -1), (-1, 2), (1, 1), (-2, 1), (1, -2), (-1, -1)}
    assert pairing_from_strings((2, -1), (2, -1), a2) == 2
    assert pairing_from_strings((-1, 2), (2, -1), a2) == -1
    assert pairing_from_strings((1, 1), (2, -1), a2) == 1
    bc1 = {(1,), (-1,), (2,), (-2,)}
    assert pairing_from_strings((2,), (1,), bc1) == 4
    assert pairing_from_strings((1,), (2,), bc1) == 1
    assert pairing_from_strings((-1,), (1,), bc1) == -2


def test_classify_system():
    assert classify_system({(1,), (-1,)}) == "A1"
    assert classify_system({(1,), (-1,), (2,), (-2,)}) == "BC1"
    assert classify_system({(2, -1), (-1, 2), (1, 1),
                            (-2, 1), (1, -2), (-1, -1)}) == "A2"
    assert classify_system(set()) == "empty"


def test_explicit_delta_passes(g_sl2loop):
    rep = lie_torus_check(g_sl2loop, delta=[(2,), (-2,)])
    assert rep.overall


def test_lt4_counterexample_on_fat_piece():
    # two independent vectors at the same nonzero degree break LT4
    entries = [
        GradedBasisVector((1,), (), [Fraction(1), 0, 0, 0]),
        GradedBasisVector((1,), (), [Fraction(0), 1, 0, 0]),
        GradedBasisVector((-1,), (), [Fraction(0), 0, 1, 0]),
        GradedBasisVector((0,), (), [Fraction(0), 0, 0, 1]),
    ]
    g = GradedLieAlgebra(QQ, 0, 1, entries, {})
    ok, witness, _ = check_LT4(g, {(1,), (-1,)})
    assert not ok
    assert witness[0] in ("piece-dimension", "no-opposite-piece")


# -- LT5 against a brute-force closure --------------------------------------


def _lt5_oracle(g):
    """The generated subalgebra by brute force: bracket every generator with
    every unreduced vector of the last round and recompute the rank of the
    whole span with a full rref, until the rank stops rising.  Returns
    (verdict, counterexample, rounds)."""
    zero = (0,) * g.qrank
    dom = g.dom

    def rank(vs):
        return len(linalg.rref(dom, vs)[1]) if vs else 0

    gens = [[dom.one() if t == i else dom.zero() for t in range(g.dim)]
            for i, e in enumerate(g.entries) if e.qdeg != zero]
    span, frontier, rounds = list(gens), list(gens), 0
    while True:
        rounds += 1
        new = []
        for v in frontier:
            for u in gens:
                w = g.bracket(u, v)
                if any(w):
                    new.append(w)
        before = rank(span)
        span += new
        if rank(span) == before:
            break
        frontier = new
    r = rank(span)
    if r == g.dim:
        return True, None, rounds
    return False, ("generated-dimension", r, g.dim), rounds


SPECS = {path.name: path.read_text() for path in sorted(FIXTURES.glob("*.ml"))}
SPECS["flip_m4"] = ("multiloop type=A rank=2 n=1 m=4\n"
                    "sigma diagram 1 0\ncartan h 1 1\n")
SPECS["torus_A2_m2"] = ("multiloop type=A rank=2 n=1 m=2\n"
                        "sigma torus -1 1\ncartan full\n")


@pytest.mark.parametrize("name", sorted(SPECS))
def test_lt5_matches_brute_force_closure(name):
    g = load_spec(SPECS[name])
    verdict, witness, _ = _lt5_oracle(g)
    assert check_LT5(g) == (verdict, witness)


def _hand_built(q_labels, brackets, check=True):
    """A GradedLieAlgebra over Q with trivial lattice grading, the given
    q-degrees and the brackets {(i, j): [(k, c)]}, antisymmetrized."""
    n = len(q_labels)
    entries = [GradedBasisVector((q,), (), tuple(Fraction(int(t == i))
                                                 for t in range(n)))
               for i, q in enumerate(q_labels)]
    table = {}
    for (i, j), terms in brackets.items():
        table[(i, j)] = [(k, Fraction(c)) for k, c in terms]
        table[(j, i)] = [(k, Fraction(-c)) for k, c in terms]
    return GradedLieAlgebra(QQ, 0, 1, entries, table, check=check)


def test_lt5_proper_subalgebra_of_gl2():
    # gl2 = sl2 + centre: e, f generate h in the first round, the centre
    # z is never reached
    e, f, h, z = range(4)
    g = _hand_built([2, -2, 0, 0], {(e, f): [(h, 1)], (h, e): [(e, 2)],
                                    (h, f): [(f, -2)]})
    verdict, witness, rounds = _lt5_oracle(g)
    assert rounds >= 2
    assert check_LT5(g) == (verdict, witness) == \
        (False, ("generated-dimension", 3, 4))


def test_lt5_closure_over_several_rounds():
    # the filiform algebra [x, y] = z1, [x, z1] = z2, [x, z2] = z3 plus a
    # central c.  The q labels only pick x and y as generators; they are not
    # a grading of the table (so it is built unchecked), which makes the
    # closure take one round per z.
    x, y, z1, z2, z3, c = range(6)
    g = _hand_built([1, -1, 0, 0, 0, 0],
                    {(x, y): [(z1, 1)], (x, z1): [(z2, 1)],
                     (x, z2): [(z3, 1)]}, check=False)
    verdict, witness, rounds = _lt5_oracle(g)
    assert rounds >= 4
    assert check_LT5(g) == (verdict, witness) == \
        (False, ("generated-dimension", 5, 6))


# -- LT4 against the dense check ---------------------------------------------


def _lt4_oracle(g, delta_set):
    """The dense LT4 check: every bracket on dense coordinate vectors through
    GradedLieAlgebra.bracket.  Returns (verdict, counterexample, witnesses)."""
    zero = (0,) * g.qrank
    dom = g.dom
    support = set(e.qdeg for e in g.entries if e.qdeg != zero)
    witnesses = []
    for alpha in sorted(support):
        if alpha not in delta_set:
            continue
        neg = tuple(-x for x in alpha)
        for lam in sorted(set(e.lam for e in g.entries if e.qdeg == alpha)):
            idxs = g.piece(qdeg=alpha, lam=lam)
            if len(idxs) > 1:
                return False, ("piece-dimension", alpha, lam, len(idxs)), []
            neg_lam = g.reduce_lam(tuple(-x for x in lam))
            fidx = g.piece(qdeg=neg, lam=neg_lam)
            if len(fidx) != 1:
                return False, ("no-opposite-piece", alpha, lam), []
            ei, fi = idxs[0], fidx[0]
            e = [dom.one() if t == ei else dom.zero() for t in range(g.dim)]
            f = [dom.one() if t == fi else dom.zero() for t in range(g.dim)]
            h = g.bracket(e, f)
            he = g.bracket(h, e)
            mu = he[ei]
            if any(x for t, x in enumerate(he) if t != ei) or not mu:
                return False, ("no-sl2-scaling", alpha, lam), []
            c = dom.inv(mu) * 2
            f = [x * c for x in f]
            h = g.bracket(e, f)
            for k, ent in enumerate(g.entries):
                beta = ent.qdeg
                expect = 0 if beta == zero else \
                    pairing_from_strings(beta, alpha, support)
                x = [dom.one() if t == k else dom.zero() for t in range(g.dim)]
                hx = g.bracket(h, x)
                want = [dom.from_int(expect) * xi for xi in x]
                if any(a != b for a, b in zip(hx, want)):
                    return False, ("identity-fails", alpha, lam, beta), []
            witnesses.append((alpha, lam, ei, tuple(dom.show(x) for x in f)))
    return True, None, witnesses


@pytest.mark.parametrize("name", sorted(SPECS))
def test_lt4_matches_dense_oracle(name):
    g = load_spec(SPECS[name])
    delta_set = set(relative_roots(g).roots)
    assert check_LT4(g, delta_set) == _lt4_oracle(g, delta_set)


def test_lt4_no_sl2_scaling():
    # the Heisenberg algebra [x, y] = z, z central: [[y, x], y] = 0
    x, y, z = range(3)
    g = _hand_built([1, -1, 0], {(x, y): [(z, 1)]})
    want = (False, ("no-sl2-scaling", (-1,), ()), [])
    assert check_LT4(g, {(1,), (-1,)}) == _lt4_oracle(g, {(1,), (-1,)}) \
        == want


def test_lt4_identity_fails():
    # sl2 plus a central vector v at q-degree 3: h kills v, where LT4
    # expects <3, alpha^vee> = -6 for alpha = -1
    e, f, h, v = range(4)
    g = _hand_built([1, -1, 0, 3], {(e, f): [(h, 1)], (h, e): [(e, 2)],
                                    (h, f): [(f, -2)]})
    want = (False, ("identity-fails", (-1,), (), (3,)), [])
    assert check_LT4(g, {(1,), (-1,)}) == _lt4_oracle(g, {(1,), (-1,)}) \
        == want
    # without v the same table passes, with the oracle's witnesses
    sl2 = _hand_built([1, -1, 0], {(e, f): [(h, 1)], (h, e): [(e, 2)],
                                   (h, f): [(f, -2)]})
    got = check_LT4(sl2, {(1,), (-1,)})
    assert got == _lt4_oracle(sl2, {(1,), (-1,)}) and got[0]
    assert len(got[2]) == 2


# -- twisted E6, kept out of the fixture glob for its cost --------------------

E6_FLIP = ("multiloop type=E rank=6 n=1 m=2\n"
           "sigma diagram 4 3 2 1 0 5\n"
           "cartan h 1 0 0 0 1 0\ncartan h 0 1 0 1 0 0\n"
           "cartan h 0 0 1 0 0 0\ncartan h 0 0 0 0 0 1\n")


def test_twisted_e6_is_a_lie_torus():
    g = load_spec(E6_FLIP)
    assert g.dim == 78 and g.dims_by_lam() == {(0,): 52, (1,): 26}
    rep = lie_torus_check(g)
    assert rep.verdicts == {"LT%d" % k: True for k in range(1, 6)}
    assert rep.overall and rep.nullity == 1
    # one witness per root piece: 48 roots at degree 0, 24 short at degree 1
    assert len(rep.witnesses) == 72
