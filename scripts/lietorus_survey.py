"""Run the Lie torus axiom checker over the bundled multiloop fixtures."""

from fractions import Fraction

from multiloop.chevalley import (build_chevalley_by_type, chevalley_involution,
                                 diagram_automorphism, torus_automorphism)
from multiloop.grading import (MultiloopSpec, build_multiloop,
                               q_grading_from_cartan)
from multiloop.lietorus import lie_torus_check
from multiloop.scalars import QQ


def untwisted_sl2():
    alg = build_chevalley_by_type("A", 1)
    ident = torus_automorphism(alg, QQ, [Fraction(1)])
    g = build_multiloop(MultiloopSpec(alg, [ident], 1))
    h = [g.dom.zero()] * alg.dim
    h[alg.dim - 1] = g.dom.one()
    return q_grading_from_cartan(g, [h])


def quaternion_sl2():
    alg = build_chevalley_by_type("A", 1)
    s1 = torus_automorphism(alg, QQ, [Fraction(-1)])
    s2 = chevalley_involution(alg)
    g = build_multiloop(MultiloopSpec(alg, [s1, s2], 2))
    return q_grading_from_cartan(g, [])


def flipped_sl3():
    alg = build_chevalley_by_type("A", 2)
    flip = diagram_automorphism(alg, [1, 0])
    g = build_multiloop(MultiloopSpec(alg, [flip], 2))
    h = [g.dom.zero()] * alg.dim
    h[len(alg.roots)] = g.dom.one()
    h[len(alg.roots) + 1] = g.dom.one()
    return q_grading_from_cartan(g, [h])


def main():
    for name, build in [("untwisted sl2", untwisted_sl2),
                        ("quaternion sl2", quaternion_sl2),
                        ("flipped sl3", flipped_sl3)]:
        print("==", name, "==")
        print(lie_torus_check(build()).serialize())
        print()


if __name__ == "__main__":
    main()
