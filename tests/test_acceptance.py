"""Acceptance gate: ten criteria, one printed pass/fail line each."""

import json
import random
import time
from fractions import Fraction

from multiloop.chevalley import build_chevalley_by_type
from multiloop.cli import main as cli_main
from multiloop.cocycle import (DiagonalSetup, cyclic_group, diagonal_argument,
                               galois_action, h1_enumerate, inf_res_sequence,
                               quotient_coefficients, restrict_to_quotient,
                               symmetric_group_3, trivial_action,
                               trivial_cocycle, trivial_group)
from multiloop.elemgroup import (RootElementWord, commutator_table,
                                 depth_bound, depth_conjugation_check,
                                 factor_loop_series, unipotent_factor,
                                 word_matrix)
from multiloop.grading import from_chevalley, relative_roots
from multiloop.lietorus import lie_torus_check
from multiloop.scalars import (QQ, DomainLaurent, DomainSeries, LaurentPoly,
                               TruncSeries)

from conftest import (algebra, build_quaternion, build_sl2_loop,
                      build_sl3_flip, dense_bracket, exp_ad, identity, mat_eq,
                      place, sparse)


def _verdict(num, name, ok):
    print("CRITERION %2d (%s): %s" % (num, name, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (num, name)


def test_criterion_01_chevalley_integrity():
    t0 = time.monotonic()
    for t, r in [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        build_chevalley_by_type(t, r)   # constructor runs exhaustive Jacobi
    elapsed = time.monotonic() - t0
    _verdict(1, "chevalley-integrity", elapsed < 60)


def test_criterion_02_automorphism_property():
    rng = random.Random(2024)
    algebras = [algebra("A", 1), algebra("A", 2), algebra("B", 2)]
    count = 0
    ok = True
    while count < 200:
        alg = algebras[rng.randrange(len(algebras))]
        v = [QQ.zero()] * alg.dim
        # random element of a nilpotent (positive) subalgebra
        for a in alg.positive:
            if rng.random() < 0.5:
                v[alg.root_index[a]] = Fraction(rng.randint(-3, 3),
                                                rng.randint(1, 2))
        sigma = exp_ad(QQ, alg, v, check=False)
        try:
            sigma.verify()          # exhaustive over basis pairs, exact
        except Exception:
            ok = False
            break
        count += 1
    _verdict(2, "exp-ad-automorphism", ok and count == 200)


def test_criterion_03_multiloop_grading():
    ok = True
    for g, total in [(build_sl2_loop(), 3), (build_quaternion(), 3),
                     (build_sl3_flip(), 8)]:
        if sum(g.dims_by_lam().values()) != total:
            ok = False
        for (i, j), terms in g.table.items():
            ei, ej = g.entries[i], g.entries[j]
            lam = g.reduce_lam(tuple(a + b for a, b in zip(ei.lam, ej.lam)))
            q = tuple(a + b for a, b in zip(ei.qdeg, ej.qdeg))
            for k, c in terms:
                if c and (g.entries[k].lam != lam or g.entries[k].qdeg != q):
                    ok = False
    _verdict(3, "multiloop-grading", ok)


def _reverify_witnesses(g, rep):
    dom = g.dom
    for alpha, lam, ei, f_shown in rep.witnesses:
        e = [dom.one() if t == ei else dom.zero() for t in range(g.dim)]
        f = [dom.parse(s) for s in f_shown]
        h = dense_bracket(g, g.dom, e, f)
        if dense_bracket(g, g.dom, h, e) != [x * 2 for x in e]:
            return False
        if dense_bracket(g, g.dom, h, f) != [x * (-2) for x in f]:
            return False
    return True


def test_criterion_04_lie_torus_verdicts():
    ok = True
    from multiloop.chevalley import torus_automorphism
    from multiloop.grading import (MultiloopSpec, build_multiloop,
                                   q_grading_from_cartan)
    # untwisted loop sl3
    a2 = algebra("A", 2)
    ident = torus_automorphism(a2, QQ, [Fraction(1), Fraction(1)])
    g = build_multiloop(MultiloopSpec(a2, [ident], 1))
    h1 = [g.dom.zero()] * a2.dim
    h1[len(a2.roots)] = g.dom.one()
    h2 = [g.dom.zero()] * a2.dim
    h2[len(a2.roots) + 1] = g.dom.one()
    sl3_loop = q_grading_from_cartan(g, [h1, h2])

    for g2, want_pass, want_label in [
        (build_sl2_loop(), True, "A1"),
        (sl3_loop, True, "A2"),
        (build_sl3_flip(), True, "BC1"),
        (build_quaternion(), False, None),
    ]:
        rep = lie_torus_check(g2)
        if rep.overall != want_pass:
            ok = False
        if want_label is not None and rep.delta_label != want_label:
            ok = False
        if want_pass and not _reverify_witnesses(g2, rep):
            ok = False
        if not want_pass:
            if rep.verdicts.get("LT2") or \
                    rep.counterexamples.get("LT2") != "anisotropic":
                ok = False
    _verdict(4, "lie-torus-verdicts", ok)


def test_criterion_05_unipotent_roundtrip():
    t0 = time.monotonic()
    rng = random.Random(55)
    ok = True
    fixtures = [relative_roots(build_sl2_loop()),
                relative_roots(build_sl3_flip()),
                relative_roots(build_quaternion())]
    for rg in fixtures:
        R = rg.algebra.dom
        if rg.anisotropic:
            # no root pieces: the empty tuple factors to the empty word
            from multiloop.elemgroup import ElementMatrix
            dim = rg.algebra.dim
            for _ in range(100):
                ident = ElementMatrix(
                    sparse(R, identity(R, dim)), dim, R)
                if unipotent_factor(rg, R, ident, []) != []:
                    ok = False
            continue
        for _ in range(100):
            letters = []
            for gamma in rg.data.positive:
                vals = [R.from_int(rng.randint(-5, 5))
                        for _ in rg.algebra.piece(qdeg=gamma)]
                letters.append((gamma, place(rg.algebra, R, gamma, vals)))
            rng.shuffle(letters)
            u = word_matrix(rg, R, RootElementWord(letters))
            factors = unipotent_factor(rg, R, u, rg.data.positive)
            rebuilt = word_matrix(rg, R, RootElementWord(factors))
            if not mat_eq(u.matrix, rebuilt.matrix):
                ok = False
    elapsed = time.monotonic() - t0
    _verdict(5, "unipotent-roundtrip", ok and elapsed < 120)


def _cone_degree(alpha, beta, gamma):
    for i in range(1, 6):
        for j in range(1, 6):
            if all(i * a + j * b == c
                   for a, b, c in zip(alpha, beta, gamma)):
                return i + j
    return None


def test_criterion_06_commutator_formula():
    ok = True
    # adjoint A2
    rg = relative_roots(from_chevalley(algebra("A", 2)))
    a, b = rg.data.simple
    u = place(rg.algebra, QQ, a, Fraction(2))
    v = place(rg.algebra, QQ, b, Fraction(-3))
    base = commutator_table(rg, QQ, a, b, u, v)
    cases = [(rg, QQ, a, b, u, v, base)]
    # BC1 twisted grading, alpha = beta = the short relative root
    rgb = relative_roots(build_sl3_flip())
    Rb = rgb.algebra.dom
    alpha = (1,)
    ub = place(rgb.algebra, Rb, alpha, [Rb.from_int(1), Rb.from_int(2)])
    vb = place(rgb.algebra, Rb, alpha, [Rb.from_int(-1), Rb.from_int(3)])
    baseb = commutator_table(rgb, Rb, alpha, alpha, ub, vb)
    cases.append((rgb, Rb, alpha, alpha, ub, vb, baseb))
    for rg_, R, al, be, u_, v_, base_ in cases:
        if not base_:
            ok = False
        for gamma, _ in base_:
            if _cone_degree(al, be, gamma) is None:
                ok = False
        for c in (2, 3, -1):
            cf = R.from_int(c) if R is not QQ else Fraction(c)
            got = dict(commutator_table(
                rg_, R, al, be, [cf * x for x in u_], [cf * x for x in v_]))
            if set(got) != {gamma for gamma, _ in base_}:
                ok = False
                continue
            for gamma, w in base_:
                deg = _cone_degree(al, be, gamma)
                scale = cf ** deg
                if got[gamma] != [scale * x for x in w]:
                    ok = False
    _verdict(6, "commutator-formula", ok)


def _random_word_q(rg, R, rng, max_letters=4):
    letters = []
    for _ in range(rng.randint(1, max_letters)):
        alpha = rg.roots[rng.randrange(len(rg.roots))]
        s = TruncSeries(QQ, rng.randint(-3, 0), None,
                        [Fraction(rng.randint(-4, 4)) for _ in range(4)])
        letters.append((alpha, place(rg.algebra, R, alpha, s)))
    return RootElementWord(letters)


def _random_word_laurent(rg, R, base, rng, max_letters=4):
    letters = []
    for _ in range(rng.randint(1, max_letters)):
        alpha = rg.roots[rng.randrange(len(rg.roots))]
        coeffs = []
        for _ in range(3):
            terms = {(rng.randint(-2, 2),): Fraction(rng.randint(-3, 3))
                     for _ in range(rng.randint(0, 2))}
            coeffs.append(LaurentPoly(1, {k: v for k, v in terms.items()
                                          if v}))
        s = TruncSeries(base, rng.randint(-2, 0), None, coeffs)
        letters.append((alpha, place(rg.algebra, R, alpha, s)))
    return RootElementWord(letters)


def test_criterion_07_factorization_engine():
    t0 = time.monotonic()
    rng = random.Random(77)
    rg = relative_roots(from_chevalley(algebra("A", 2)))
    ok = True
    R = DomainSeries(QQ)
    for _ in range(100):
        word = _random_word_q(rg, R, rng)
        g1, g2, cert = factor_loop_series(rg, R, word, 8)
        if not (cert.precision >= 8 and cert.residual_identity):
            ok = False
        for _, v in g1:
            for x in v:
                if x and x.valuation() < 0:
                    ok = False
        for _, v in g2:
            for x in v:
                if not x.is_polynomial():
                    ok = False
    base = DomainLaurent(1, QQ)
    RL = DomainSeries(base)
    for _ in range(25):
        word = _random_word_laurent(rg, RL, base, rng)
        g1, g2, cert = factor_loop_series(rg, RL, word, 8)
        if not (cert.precision >= 8 and cert.residual_identity):
            ok = False
        for _, v in g1:
            for x in v:
                if x and x.valuation() < 0:
                    ok = False
        for _, v in g2:
            for x in v:
                if not x.is_polynomial():
                    ok = False
    elapsed = time.monotonic() - t0
    _verdict(7, "factorization-engine", ok and elapsed < 600)


def test_criterion_08_depth_bound():
    rng = random.Random(88)
    rg = relative_roots(from_chevalley(algebra("A", 2)))
    R = DomainSeries(QQ)
    ok = True
    total = 0
    for M in (1, 2):
        for n in (0, 1, 2):
            N = depth_bound(rg, M, n)
            if N != 3 * (M + len(rg.roots) * abs(n)):
                ok = False
            alpha = rg.roots[rng.randrange(len(rg.roots))]
            u = place(rg.algebra, R, alpha,
                      TruncSeries(QQ, 0, None, [Fraction(rng.randint(1, 3))]))
            samples = []
            for _ in range(9):
                beta = rg.roots[rng.randrange(len(rg.roots))]
                w = place(rg.algebra, R, beta,
                          TruncSeries(QQ, 0, None,
                                      [Fraction(rng.randint(-3, 3))]))
                samples.append((beta, w))
            total += len(samples)
            if not depth_conjugation_check(rg, R, alpha, n, u, N, M, samples):
                ok = False
    _verdict(8, "depth-bound", ok and total >= 50)


def _cocycle_configs():
    yield DiagonalSetup(1, 2, trivial_group(), {}), \
        lambda s: trivial_action(s.cover, cyclic_group(2)), False
    yield DiagonalSetup(1, 2, trivial_group(), {}), \
        lambda s: trivial_action(s.cover, cyclic_group(4)), False
    yield DiagonalSetup(1, 3, trivial_group(), {}), \
        lambda s: trivial_action(s.cover, cyclic_group(3)), False
    yield DiagonalSetup(2, 2, trivial_group(), {}), \
        lambda s: trivial_action(s.cover, cyclic_group(2)), False
    yield DiagonalSetup(1, 2, cyclic_group(2), {0: 1, 1: 1}), \
        lambda s: trivial_action(s.cover, cyclic_group(2)), False
    yield DiagonalSetup(1, 2, trivial_group(), {}), \
        lambda s: trivial_action(s.cover, symmetric_group_3()), False

    def inverting(s):
        A = cyclic_group(3)
        gact = {0: {a: a for a in A.elements},
                1: {a: (-a) % 3 for a in A.elements}}
        return galois_action(s.cover, A, gact)
    yield DiagonalSetup(1, 3, cyclic_group(2), {0: 1, 1: 2}), inverting, True


def test_criterion_09_cocycle_level():
    t0 = time.monotonic()
    ok = True
    configs = list(_cocycle_configs())
    if len(configs) < 6 or not any(gal for _, _, gal in configs):
        ok = False
    for setup, make, _galois in configs:
        coeff = make(setup)
        if len(coeff.cover.elements) > 48 or len(coeff.A.elements) > 8:
            ok = False
        report = inf_res_sequence(setup, coeff)
        if not report["exact"]:
            ok = False
        eta1 = trivial_cocycle(coeff)
        _, all_c = h1_enumerate(coeff)
        coeff_q = quotient_coefficients(setup, coeff)
        key1 = restrict_to_quotient(setup, coeff_q, eta1).key
        eligible = 0
        for z in all_c:
            if restrict_to_quotient(setup, coeff_q, z).key != key1:
                continue
            eligible += 1
            d = diagonal_argument(setup, coeff, eta1, z)
            if not (1 <= d <= setup.m):
                ok = False
        if eligible == 0:
            ok = False
    elapsed = time.monotonic() - t0
    _verdict(9, "cocycle-level", ok and elapsed < 600)


def test_criterion_10_determinism(capsys):
    args = ["--format", "machine", "--seed", "31", "depth", "A", "2",
            "--target-precision", "1", "--loop-degree", "1",
            "--samples", "10"]
    outs = []
    for _ in range(2):
        code = cli_main(list(args))
        captured = capsys.readouterr()
        outs.append((code, captured.out.encode()))
    args2 = ["--format", "machine", "--seed", "31", "cocycle", "diagonal",
             "--n", "1", "--coeff", "Z3"]
    for _ in range(2):
        code = cli_main(list(args2))
        captured = capsys.readouterr()
        outs.append((code, captured.out.encode()))
    ok = outs[0] == outs[1] and outs[2] == outs[3]
    ok = ok and outs[0][0] == 0 and outs[2][0] == 0
    ok = ok and json.loads(outs[0][1])
    _verdict(10, "determinism", bool(ok))
