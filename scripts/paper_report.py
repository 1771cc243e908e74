"""Print the paper's three checkable claims, one section each: the Lie torus
verdicts of the bundled multiloop fixtures (`fixtures/*.ml`), the
factorization E(A((t))) = E(A[[t]]) E(A[t,1/t]) of the bundled words
(`fixtures/word_*.txt`) with its certificate, and the finite-level diagonal
argument over small cover groups.  It takes no options; tier-1 pins its
stdout by one SHA-256."""

from pathlib import Path

from multiloop.cli import parse_word_file
from multiloop.cocycle import (DiagonalSetup, trivial_group, cyclic_group,
                               symmetric_group_3, trivial_action,
                               galois_action, h1_enumerate, inf_res_sequence,
                               diagonal_argument, trivial_cocycle,
                               quotient_coefficients, restrict_to_quotient)
from multiloop.elemgroup import factor_loop_series, word_show
from multiloop.grading import graded_from_spec, parse_spec_file
from multiloop.lietorus import lie_torus_check

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PRECISION = 8


def lie_tori():
    for path in sorted(FIXTURES.glob("*.ml")):
        g = graded_from_spec(*parse_spec_file(path.read_text(), 2))
        print("==", path.name, "==")
        print(lie_torus_check(g).serialize())
        print()


def factorizations():
    for path in sorted(FIXTURES.glob("word_*.txt")):
        rg, R, word, meta = parse_word_file(path.read_text())
        g1, g2, cert = factor_loop_series(rg, R, word, PRECISION)
        print("== %s: %s%d over %s ==" % ((path.name,) + meta))
        for label, w in (("input", word), ("g1", g1), ("g2", g2)):
            print(label + ":", word_show(rg, R, w))
        print(cert.serialize())
        print()


def configs():
    yield "n=1 m=2 A=Z2", DiagonalSetup(1, 2, trivial_group(), {}), \
        lambda s: trivial_action(s.cover, cyclic_group(2))
    yield "n=1 m=3 A=Z3", DiagonalSetup(1, 3, trivial_group(), {}), \
        lambda s: trivial_action(s.cover, cyclic_group(3))
    yield "n=2 m=2 A=Z2", DiagonalSetup(2, 2, trivial_group(), {}), \
        lambda s: trivial_action(s.cover, cyclic_group(2))
    yield "n=1 m=2 A=S3", DiagonalSetup(1, 2, trivial_group(), {}), \
        lambda s: trivial_action(s.cover, symmetric_group_3())

    def inverting(s):
        A = cyclic_group(3)
        gact = {0: {a: a for a in A.elements},
                1: {a: (-a) % 3 for a in A.elements}}
        return galois_action(s.cover, A, gact)
    yield "n=1 m=3 Gal=Z2 A=Z3 inv", \
        DiagonalSetup(1, 3, cyclic_group(2), {0: 1, 1: 2}), inverting


def diagonal():
    """Class counts, inflation-restriction exactness and the diagonal powers
    d of every cocycle that agrees with the trivial one on the quotient."""
    for name, setup, make in configs():
        coeff = make(setup)
        reps, all_c = h1_enumerate(coeff)
        eta1 = trivial_cocycle(coeff)
        coeff_q = quotient_coefficients(setup, coeff)
        key1 = restrict_to_quotient(setup, coeff_q, eta1).key
        ds = {diagonal_argument(setup, coeff, eta1, z) for z in all_c
              if restrict_to_quotient(setup, coeff_q, z).key == key1}
        print("%-28s classes=%d cocycles=%d exact=%s diag-d=%s" %
              (name, len(reps), len(all_c),
               inf_res_sequence(setup, coeff)["exact"], sorted(ds)))


def main():
    for title, section in (("Lie tori", lie_tori),
                           ("E(A((t))) = E(A[[t]]) E(A[t,1/t])",
                            factorizations),
                           ("diagonal argument", diagonal)):
        print("== %s ==" % title)
        section()


if __name__ == "__main__":
    main()
