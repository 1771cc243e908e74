"""Sweep small cover-group configurations: class counts, inflation and
restriction exactness, and the diagonal power argument."""

from multiloop.cocycle import (DiagonalSetup, trivial_group, cyclic_group,
                               symmetric_group_3, trivial_action,
                               galois_action, h1_enumerate, inf_res_sequence,
                               diagonal_argument, trivial_cocycle,
                               quotient_coefficients, restrict_to_quotient)


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


def main():
    for name, setup, make in configs():
        coeff = make(setup)
        reps, all_c = h1_enumerate(coeff)
        rep = inf_res_sequence(setup, coeff)
        eta1 = trivial_cocycle(coeff)
        coeff_q = quotient_coefficients(setup, coeff)
        key1 = restrict_to_quotient(setup, coeff_q, eta1).key
        ds = []
        for z in all_c:
            if restrict_to_quotient(setup, coeff_q, z).key != key1:
                continue
            d, _ = diagonal_argument(setup, coeff, eta1, z)
            ds.append(d)
        print("%-28s classes=%d cocycles=%d exact=%s diag-d=%s" %
              (name, len(reps), len(all_c), rep["exact"], sorted(set(ds))))


if __name__ == "__main__":
    main()
