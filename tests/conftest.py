from fractions import Fraction

import pytest

from multiloop.chevalley import (build_chevalley_by_type, chevalley_involution,
                                 diagram_automorphism, torus_automorphism)
from multiloop.grading import (MultiloopSpec, build_multiloop,
                               q_grading_from_cartan, from_chevalley,
                               relative_roots)
from multiloop.scalars import QQ

_CACHE = {}


def algebra(type_label, rank):
    key = (type_label, rank)
    if key not in _CACHE:
        _CACHE[key] = build_chevalley_by_type(type_label, rank)
    return _CACHE[key]


@pytest.fixture(scope="session")
def a1():
    return algebra("A", 1)


@pytest.fixture(scope="session")
def a2():
    return algebra("A", 2)


@pytest.fixture(scope="session")
def b2():
    return algebra("B", 2)


@pytest.fixture(scope="session")
def g2alg():
    return algebra("G", 2)


@pytest.fixture(scope="session")
def a3():
    return algebra("A", 3)


def build_sl2_loop():
    alg = algebra("A", 1)
    ident = torus_automorphism(alg, QQ, [Fraction(1)])
    g = build_multiloop(MultiloopSpec(alg, [ident], 1))
    h = [g.dom.zero()] * alg.dim
    h[alg.dim - 1] = g.dom.one()
    return q_grading_from_cartan(g, [h])


def build_quaternion():
    alg = algebra("A", 1)
    s1 = torus_automorphism(alg, QQ, [Fraction(-1)])
    s2 = chevalley_involution(alg)
    g = build_multiloop(MultiloopSpec(alg, [s1, s2], 2))
    return q_grading_from_cartan(g, [])


def build_sl3_flip():
    alg = algebra("A", 2)
    flip = diagram_automorphism(alg, [1, 0])
    g = build_multiloop(MultiloopSpec(alg, [flip], 2))
    h = [g.dom.zero()] * alg.dim
    h[len(alg.roots)] = g.dom.one()
    h[len(alg.roots) + 1] = g.dom.one()
    return q_grading_from_cartan(g, [h])


@pytest.fixture(scope="session")
def g_sl2loop():
    return build_sl2_loop()


@pytest.fixture(scope="session")
def g_quat():
    return build_quaternion()


@pytest.fixture(scope="session")
def g_flip():
    return build_sl3_flip()


@pytest.fixture(scope="session")
def rg_a2(a2):
    return relative_roots(from_chevalley(a2))


@pytest.fixture(scope="session")
def rg_a3(a3):
    return relative_roots(from_chevalley(a3))


@pytest.fixture(scope="session")
def rg_bc1(g_flip):
    return relative_roots(g_flip)


@pytest.fixture(scope="session")
def rg_sl2loop(g_sl2loop):
    return relative_roots(g_sl2loop)


def place(g, R, alpha, values):
    """Parameter vector supported on the alpha piece, in basis order."""
    idxs = g.piece(qdeg=alpha)
    if not isinstance(values, (list, tuple)):
        values = [values] + [R.zero()] * (len(idxs) - 1)
    v = [R.zero()] * g.dim
    for i, x in zip(idxs, values):
        v[i] = R.lift(x)
    return v
