import itertools
import random
import runpy
from pathlib import Path

import pytest

from multiloop import cocycle
from multiloop.cocycle import (BudgetExceeded, Cocycle, CocycleError,
                               CoefficientGroup, DiagonalSetup, FiniteGroup,
                               check_budget, cover_group, cyclic_group,
                               diagonal_argument, direct_product,
                               galois_action, h1_enumerate, inf_res_sequence,
                               inflate, is_cocycle, m_acts_trivially,
                               quotient_coefficients, restrict_to_quotient,
                               symmetric_group_3, trivial_action,
                               trivial_cocycle, trivial_group, trivial_on_m,
                               twist_cocycle, twisted_coefficients)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def cohomologous(z1, z2):
    """A witness a with z2 = a^{-1} z1 (g . a), or None: the brute-force
    search of twists that Cocycle.key and trivial_on_m are checked against.
    Both cocycles list the same cover elements and take values in the same
    A."""
    for a in z1.coeff.A.elements:
        if twist_cocycle(z1, a).pos == z2.pos:
            return a
    return None


def apply(coeff, g, a):
    """g . a on labels."""
    A = coeff.A
    return A.elements[coeff.perm[coeff.cover.index[g]][A.index[a]]]


def power_positions(setup, d):
    """Each cover position of a DiagonalSetup with its M coordinate
    multiplied by d: the power map p_d on positions."""
    m, k = setup.m, len(setup.gamma0)
    return [x + (x // k % m * d % m - x // k % m) * k
            for x in range(len(setup.cover))]


def power_pullback(setup, coeff, z, d):
    """z o p_d, where p_d multiplies the M coordinate by d.

    p_d is an endomorphism of the cover, the units of Gamma0 commuting with
    multiplication by d, and p_d(g) = m g for some m in M.  M acts
    trivially (this is checked), so p_d(g) . a = g . a, and the pullback of
    a cocycle z is a cocycle: z(p_d(gh)) = z(p_d g) (g . z(p_d h))."""
    assert m_acts_trivially(setup, coeff)
    return Cocycle(coeff, pos=[z.pos[x] for x in power_positions(setup, d)])


def test_group_constructors():
    assert len(cyclic_group(6).elements) == 6
    assert len(trivial_group().elements) == 1
    s3 = symmetric_group_3()
    assert len(s3.elements) == 6
    prod = direct_product(cyclic_group(2), cyclic_group(3))
    assert len(prod.elements) == 6


def test_group_axioms_verified():
    # a magma that is not associative must be rejected
    elems = [0, 1, 2]

    def bad_mul(a, b):
        return (a - b) % 3

    with pytest.raises(CocycleError):
        FiniteGroup(elems, bad_mul, "bad")


def test_cover_group_order():
    cov = cover_group(2, 3, trivial_group(), {})
    assert len(cov.elements) == 9
    cov = cover_group(1, 2, cyclic_group(2), {0: 1, 1: 1})
    assert len(cov.elements) == 4


@pytest.fixture
def covers(monkeypatch):
    """An empty cover cache for the test; the process's is put back."""
    monkeypatch.setattr(cocycle, "_COVERS", {})
    return cocycle._COVERS


def test_cover_group_bad_units(covers):
    # checked on every call, also after a good cover of the same n, m and
    # gamma0 is cached, and a failing input is never stored; a key outside
    # gamma0 once built the direct product silently
    for m, units, message in [
            (4, {0: 1, 1: 2}, "action unit 2 is not invertible mod 4"),
            (5, {1: 2}, "unit action is not a homomorphism"),
            (5, {0: 4, 1: 4}, "unit action is not a homomorphism"),
            (3, {5: 2}, "action unit key 5 is no element of Z/2")]:
        covers.clear()
        good = cover_group(1, m, cyclic_group(2), {})
        for _ in range(2):
            with pytest.raises(CocycleError, match="^%s$" % message):
                cover_group(1, m, cyclic_group(2), units)
        assert list(covers.values()) == [good]


def test_cover_group_is_built_once_per_key(covers, monkeypatch):
    # two fresh copies of Z/2, and the units m - 1 and -1 and an explicit
    # 1 at the identity, all give one key; the (n + 1)-cover and the
    # n-cover quotient of a DiagonalSetup are looked up the same way
    z2, z2_again = cyclic_group(2), cyclic_group(2)
    s3, s3_again = symmetric_group_3(), symmetric_group_3()
    proved = []
    verify = FiniteGroup._verify_associativity

    def counting(self):
        proved.append(self.name)
        return verify(self)
    monkeypatch.setattr(FiniteGroup, "_verify_associativity", counting)
    first = cover_group(1, 3, z2, {1: 2})
    assert cover_group(1, 3, z2_again, {1: -1}) is first
    assert cover_group(1, 3, z2, {0: 1, 1: 2}) is first
    assert cover_group(1, 3, z2_again, {0: 4, 1: 5}) is first
    setup = DiagonalSetup(0, 3, z2_again, {1: -1})
    assert setup.cover is first
    assert setup.quotient is cover_group(0, 3, z2, {1: 2})
    assert DiagonalSetup(0, 3, z2, {1: 2}).quotient is setup.quotient
    assert cover_group(2, 2, s3, {}) is cover_group(2, 2, s3, {})
    setup = DiagonalSetup(1, 2, s3_again, {})
    assert setup.cover is cover_group(2, 2, s3, {})
    assert setup.quotient is cover_group(1, 2, s3, {})
    assert DiagonalSetup(1, 2, s3, {}).quotient is setup.quotient
    assert proved == ["(Z/3)^1:Z/2", "(Z/3)^0:Z/2", "(Z/2)^2:S3",
                      "(Z/2)^1:S3"]
    assert len(covers) == 4


def test_cover_group_keys_differ_by_value(covers):
    # identity at position 1: the same labels and name as Z/2, another table
    z2_swapped = FiniteGroup([0, 1], name="Z/2", rows=[[1, 0], [0, 1]])
    built = [cover_group(1, 3, cyclic_group(2), {}),
             cover_group(2, 3, cyclic_group(2), {}),
             cover_group(1, 5, cyclic_group(2), {}),
             cover_group(1, 3, z2_swapped, {}),
             cover_group(1, 3, cyclic_group(2, "C2"), {}),
             cover_group(1, 3, cyclic_group(2), {1: 2})]
    assert len({id(g) for g in built}) == len(built) == len(covers)
    assert [g.name for g in built] == [
        "(Z/3)^1:Z/2", "(Z/3)^2:Z/2", "(Z/5)^1:Z/2", "(Z/3)^1:Z/2",
        "(Z/3)^1:C2", "(Z/3)^1:Z/2"]
    assert built[3].e == 1 and built[0].e == 0
    assert built[5].mul(((0,), 1), ((1,), 0)) == ((2,), 1)
    assert built[0].mul(((0,), 1), ((1,), 0)) == ((1,), 1)


def test_coefficient_action_verified():
    cov = cover_group(1, 2, trivial_group(), {})
    A = cyclic_group(3)
    # a non-automorphism action must be rejected
    act = {g: {a: 0 for a in A.elements} for g in cov.elements}
    with pytest.raises(CocycleError):
        CoefficientGroup(A, cov, act)


def test_homomorphisms_are_cocycles():
    cov = cover_group(1, 4, trivial_group(), {})
    A = cyclic_group(4)
    coeff = trivial_action(cov, A)
    z = Cocycle(coeff, {g: g[0][0] % 4 for g in cov.elements})
    ok, _ = is_cocycle(z)
    assert ok


def test_non_cocycle_detected():
    cov = cover_group(1, 2, trivial_group(), {})
    A = cyclic_group(4)
    coeff = trivial_action(cov, A)
    vals = {g: 0 for g in cov.elements}
    vals[((1,), trivial_group().identity)] = 1   # 1 + 1 != 0 in Z4
    ok, witness = is_cocycle(Cocycle(coeff, vals))
    assert not ok and witness is not None


def test_h1_counts_trivial_action():
    # trivial action, abelian A: H^1 = Hom(G, A)
    cov = cover_group(1, 2, trivial_group(), {})
    coeff = trivial_action(cov, cyclic_group(2))
    reps, all_c = h1_enumerate(coeff)
    assert len(reps) == 2 and len(all_c) == 2
    coeff = trivial_action(cov, cyclic_group(3))
    reps, all_c = h1_enumerate(coeff)
    assert len(reps) == 1 and len(all_c) == 1
    cov = cover_group(2, 2, trivial_group(), {})
    coeff = trivial_action(cov, cyclic_group(2))
    reps, _ = h1_enumerate(coeff)
    assert len(reps) == 4


def test_h1_nonabelian_coefficients():
    cov = cover_group(1, 2, trivial_group(), {})
    s3 = symmetric_group_3()
    coeff = trivial_action(cov, s3)
    reps, all_c = h1_enumerate(coeff)
    # homomorphisms Z2 -> S3: identity plus three transpositions;
    # the transpositions are all conjugate
    assert len(all_c) == 4
    assert len(reps) == 2


def test_cohomologous_twist():
    cov = cover_group(1, 2, trivial_group(), {})
    s3 = symmetric_group_3()
    coeff = trivial_action(cov, s3)
    _, all_c = h1_enumerate(coeff)
    z = next(c for c in all_c
             if any(v != s3.identity for v in c.values.values()))
    for a in s3.elements:
        t = twist_cocycle(z, a)
        ok, _ = is_cocycle(t)
        assert ok
        assert cohomologous(z, t) is not None


def test_budget_exceeded():
    cov = cover_group(1, 2, trivial_group(), {})
    coeff = trivial_action(cov, cyclic_group(3))
    with pytest.raises(BudgetExceeded):
        h1_enumerate(coeff, budget_gamma=1)
    with pytest.raises(BudgetExceeded):
        h1_enumerate(coeff, budget_coeff=2)


def test_diagonal_setup_projection():
    setup = DiagonalSetup(1, 2, trivial_group(), {})
    assert len(setup.cover.elements) == 4
    assert setup.quotient is cover_group(1, 2, trivial_group(), {})
    assert [setup.cover.elements[x] for x in setup.sub] == \
        [(t + (0,), g) for t, g in setup.quotient.elements]
    assert [setup.quotient.elements[q] for q in setup.proj] == \
        [(t[:-1], g) for t, g in setup.cover.elements]
    assert len(setup.m_pos) == 2


def test_inf_res_exact():
    for setup, A in [
        (DiagonalSetup(1, 2, trivial_group(), {}), cyclic_group(2)),
        (DiagonalSetup(1, 3, trivial_group(), {}), cyclic_group(3)),
        (DiagonalSetup(1, 2, trivial_group(), {}), symmetric_group_3()),
    ]:
        coeff = trivial_action(setup.cover, A)
        report = inf_res_sequence(setup, coeff)
        assert report["exact"], report
        assert report["inflation_image"] == report["kernel_of_restriction"]


def test_power_pullback_composes():
    setup = DiagonalSetup(1, 3, trivial_group(), {})
    coeff = trivial_action(setup.cover, cyclic_group(3))
    _, all_c = h1_enumerate(coeff)
    for z in all_c:
        z2 = power_pullback(setup, coeff, z, 2)
        z6 = power_pullback(setup, coeff, z2, 3)
        z_direct = power_pullback(setup, coeff, z, 6)
        assert z6.values == z_direct.values
        z1 = power_pullback(setup, coeff, z, 1)
        assert z1.values == z.values


def _agrees_on_quotient(setup, coeff, eta1):
    """Whether a cocycle's restriction to the diagonal copy is in eta1's
    class there."""
    coeff_q = quotient_coefficients(setup, coeff)
    key = restrict_to_quotient(setup, coeff_q, eta1).key
    return lambda z: restrict_to_quotient(setup, coeff_q, z).key == key


def _diagonal_eligible(setup, coeff, eta1):
    """Cocycles whose restriction to the diagonal copy matches eta1's."""
    _, all_c = h1_enumerate(coeff)
    return list(filter(_agrees_on_quotient(setup, coeff, eta1), all_c))


def test_diagonal_argument_spec_examples():
    # untwisted Z2: the nontrivial class needs d = 2, trivial one d = 1
    setup = DiagonalSetup(1, 2, trivial_group(), {})
    coeff = trivial_action(setup.cover, cyclic_group(2))
    eta1 = trivial_cocycle(coeff)
    ds = set()
    for z in _diagonal_eligible(setup, coeff, eta1):
        ds.add(diagonal_argument(setup, coeff, eta1, z))
    assert ds == {1, 2}

    setup = DiagonalSetup(1, 3, trivial_group(), {})
    coeff = trivial_action(setup.cover, cyclic_group(3))
    eta1 = trivial_cocycle(coeff)
    ds = set()
    for z in _diagonal_eligible(setup, coeff, eta1):
        ds.add(diagonal_argument(setup, coeff, eta1, z))
    assert ds == {1, 3}


def test_diagonal_argument_preconditions():
    setup = DiagonalSetup(1, 2, cyclic_group(2), {0: 1, 1: 1})
    A = cyclic_group(3)
    gact = {0: {a: a for a in A.elements},
            1: {a: (-a) % 3 for a in A.elements}}
    coeff = galois_action(setup.cover, A, gact)
    assert m_acts_trivially(setup, coeff)
    eta1 = trivial_cocycle(coeff)
    _, all_c = h1_enumerate(coeff)
    agrees = _agrees_on_quotient(setup, coeff, eta1)
    agreeing = 0
    for z in all_c:
        if not agrees(z):
            with pytest.raises(CocycleError):
                diagonal_argument(setup, coeff, eta1, z)
        else:
            assert 1 <= diagonal_argument(setup, coeff, eta1, z) <= 2
            agreeing += 1
    assert agreeing >= 1


def test_diagonal_argument_nontrivial_eta1():
    setup = DiagonalSetup(1, 2, trivial_group(), {})
    coeff = trivial_action(setup.cover, symmetric_group_3())
    coeff_q = quotient_coefficients(setup, coeff)
    _, q_cocycles = h1_enumerate(coeff_q)
    eta1 = next(inflate(setup, coeff, z) for z in q_cocycles
                if any(v != coeff.A.identity for v in z.values.values()))
    ok, _ = is_cocycle(eta1)
    assert ok
    _, all_c = h1_enumerate(coeff)
    agrees = _agrees_on_quotient(setup, coeff, eta1)
    ran = 0
    for z in all_c:
        if not agrees(z):
            continue
        assert 1 <= diagonal_argument(setup, coeff, eta1, z) <= setup.m
        ran += 1
    assert ran >= 2


def _power_search(setup, coeff, eta1, eta2):
    """d by pulling the twisted difference xi back along p_d for
    d = 1, ..., m in turn, until xi_d is 1 on M: the search that
    diagonal_argument replaces by the order of xi(m1)."""
    A = coeff.A
    tw = twisted_coefficients(coeff, eta1)
    xi = Cocycle(tw, pos=[A.rows[b][A.inv_index[a]]
                          for a, b in zip(eta1.pos, eta2.pos)])
    for d in range(1, setup.m + 1):
        if trivial_on_m(setup, power_pullback(setup, tw, xi, d)):
            return d
    raise AssertionError("no power d <= m trivializes xi on M")


def _inflated_pairs(configs):
    """(setup, coeff, eta1, eta2) for every eta1 inflated from a quotient
    cocycle and every eta2 that agrees with it on the M = 0 copy."""
    for setup, coeff in configs:
        _, q_cocycles = h1_enumerate(quotient_coefficients(setup, coeff))
        _, cocycles = h1_enumerate(coeff)
        for z_q in q_cocycles:
            eta1 = inflate(setup, coeff, z_q)
            for eta2 in filter(_agrees_on_quotient(setup, coeff, eta1),
                               cocycles):
                yield setup, coeff, eta1, eta2


def test_diagonal_argument_matches_power_search():
    # every (eta1, eta2) pair over the configurations of the paper report's
    # diagonal section, and m = 1, where M is trivial and d = 1
    sweep = runpy.run_path(str(SCRIPTS / "paper_report.py"))["configs"]
    pairs = list(_inflated_pairs((s, make(s)) for _, s, make in sweep()))
    setup = DiagonalSetup(1, 1, cyclic_group(2), {})
    A = cyclic_group(3)
    coeff = galois_action(setup.cover, A, {
        0: {a: a for a in A.elements}, 1: {a: -a % 3 for a in A.elements}})
    pairs.extend(_inflated_pairs([(setup, coeff)]))
    assert len(pairs) == 124 + 9
    ds = []
    for p in pairs:
        d = diagonal_argument(*p)
        assert d == _power_search(*p)
        ds.append(d)
    assert set(ds[:124]) == {1, 2, 3} and set(ds[124:]) == {1}


# ---------------------------------------------------------------------------
# Integer Cayley tables against the label-keyed algorithms they replaced,
# kept here as test-local oracles.

def _oracle_associativity(elements, mult_fn, name):
    table = {(a, b): mult_fn(a, b) for a in elements for b in elements}
    for a in elements:
        for b in elements:
            ab = table[(a, b)]
            for c in elements:
                if table[(ab, c)] != table[(a, table[(b, c)])]:
                    return "%s: associativity fails at %s,%s,%s" % (
                        name, a, b, c)
    return None


def _oracle_is_cocycle(coeff, values):
    G, A = coeff.cover, coeff.A
    for g in G.elements:
        for h in G.elements:
            if values[G.mul(g, h)] != A.mul(values[g],
                                            apply(coeff, g, values[h])):
                return False, (g, h)
    return True, None


def _oracle_generators(G):
    gens = []
    span = {G.identity}
    for g in G.elements:
        if g in span:
            continue
        gens.append(g)
        span, frontier = {G.identity}, {G.identity}
        while frontier:
            frontier = {G.mul(a, s) for a in frontier for s in gens} - span
            span |= frontier
        if len(span) == len(G.elements):
            break
    return gens


def _oracle_propagate(coeff, gens, assignment):
    G, A = coeff.cover, coeff.A
    vals = {G.identity: A.identity}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s, x in zip(gens, assignment):
                gs = G.mul(g, s)
                v = A.mul(vals[g], apply(coeff, g, x))
                if gs not in vals:
                    vals[gs] = v
                    nxt.append(gs)
                elif vals[gs] != v:
                    return None
        frontier = nxt
    return vals


def _oracle_h1(coeff):
    """Cocycles by label propagation; each one's class key is the least
    label tuple over all of its twists."""
    G, A = coeff.cover, coeff.A
    gens = _oracle_generators(G)
    cocycles = []
    for assignment in itertools.product(A.elements, repeat=len(gens)):
        vals = _oracle_propagate(coeff, gens, assignment)
        if vals is not None and len(vals) == len(G.elements) and \
                _oracle_is_cocycle(coeff, vals)[0]:
            cocycles.append(vals)
    classes = {}
    for vals in cocycles:
        key = min(tuple(A.mul(A.mul(A.inv(a), vals[g]), apply(coeff, g, a))
                        for g in G.elements) for a in A.elements)
        classes.setdefault(key, []).append(vals)
    return [classes[k][0] for k in sorted(classes)], cocycles


def _inverting(cover, gamma0, A):
    inv = {a: A.inv(a) for a in A.elements}
    ident = {a: a for a in A.elements}
    return galois_action(cover, A, {g: ident if g == gamma0.identity else inv
                                    for g in gamma0.elements})


def _conjugating(cover, s3):
    """S3 acted on by conjugation through a nontrivial cocycle."""
    coeff = trivial_action(cover, s3)
    eta = next(z for z in h1_enumerate(coeff)[0]
               if set(z.values.values()) != {s3.identity})
    return twisted_coefficients(coeff, eta)


def _oracle_configs():
    """(name, setup, coefficients): each cover is the cover of a
    DiagonalSetup, whose M is its last translation coordinate."""
    z2, s3 = cyclic_group(2), symmetric_group_3()
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    for name, args, make in [
            ("Z2 on S3", (0, 2, trivial_group(), {}),
             lambda c: trivial_action(c, s3)),
            ("Z4^2 on V4", (1, 4, trivial_group(), {}),
             lambda c: trivial_action(c, v4)),
            ("Z3:Z2 inverts Z3", (0, 3, z2, {1: 2}),
             lambda c: _inverting(c, z2, cyclic_group(3))),
            ("Z4^2:Z2 inverts Z4", (1, 4, z2, {1: 3}),
             lambda c: _inverting(c, z2, cyclic_group(4))),
            ("Z2^2:Z2 inverts V4", (1, 2, z2, {1: 1}),
             lambda c: _inverting(c, z2, v4)),
            ("order 48 on S3", (1, 4, cyclic_group(3), {}),
             lambda c: trivial_action(c, s3)),
            ("Z2^3:S3 on Z2", (2, 2, s3, {}),
             lambda c: trivial_action(c, z2)),
            ("Z4 on S3 by conjugation", (0, 4, trivial_group(), {}),
             lambda c: _conjugating(c, s3))]:
        setup = DiagonalSetup(*args)
        yield name, setup, make(setup.cover)


_CONFIGS = list(_oracle_configs())
ORACLE_CONFIGS = [pytest.param(name, coeff, id=name)
                  for name, _, coeff in _CONFIGS]
ORACLE_SETUPS = {name: setup for name, setup, _ in _CONFIGS}


@pytest.mark.parametrize("name, coeff", ORACLE_CONFIGS)
def test_h1_enumerate_matches_label_oracle(name, coeff):
    reps, cocycles = h1_enumerate(coeff)
    want_reps, want_cocycles = _oracle_h1(coeff)
    assert [z.values for z in cocycles] == want_cocycles
    assert [z.values for z in reps] == want_reps
    if name == "order 48 on S3":
        assert len(coeff.cover) == 48 and len(reps) > 1


def _span(G, gens):
    span = new = {G.e}
    while new:
        new = {G.rows[a][s] for a in new for s in gens} - span
        span |= new
    return span


@pytest.mark.parametrize("G", [pytest.param(coeff.cover, id=name)
                               for name, _, coeff in _CONFIGS]
                         + [pytest.param(trivial_group(), id="trivial")])
def test_cayley_levels_schedule_each_edge_once(G):
    # the proof obligation of h1_enumerate: each edge (g, s), s in S, in
    # exactly one level, and each edge read when its start is known
    S = G.generators
    assert [G.elements[s] for s in S] == _oracle_generators(G)
    levels = G.cayley_levels
    assert len(levels) == len(S)
    scheduled = [(g, S[j]) for level in levels for g, j, _, _ in level]
    assert len(scheduled) == len(G) * len(S)
    assert sorted(scheduled) == sorted(itertools.product(range(len(G)), S))
    known = {G.e}
    for k, level in enumerate(levels):
        for g, j, gs, first in level:
            assert j <= k and gs == G.rows[g][S[j]] and g in known
            assert first == (gs not in known)
            known.add(gs)
        assert known == _span(G, S[:k + 1])
    assert len(known) == len(G)


@pytest.mark.parametrize("name, coeff", ORACLE_CONFIGS)
def test_propagate_runs_once_per_candidate(name, coeff, monkeypatch):
    # one _propagate call for each value x of s_k after each prefix that
    # propagates over the span of s_0, ..., s_(k-1): what the benchmark's
    # cocycle.propagate span and useful_ratio count
    calls = []
    propagate = cocycle._propagate

    def counting(coeff, edges, assignment, parent):
        calls.append(assignment)
        return propagate(coeff, edges, assignment, parent)
    monkeypatch.setattr(cocycle, "_propagate", counting)
    _, cocycles = h1_enumerate(coeff)
    G, A = coeff.cover, coeff.A
    gens = [G.elements[s] for s in G.generators]
    want = [tuple(map(A.index.__getitem__, prefix)) + (x,)
            for k in range(len(gens))
            for prefix in itertools.product(A.elements, repeat=k)
            if _oracle_propagate(coeff, gens[:k], prefix) is not None
            for x in range(len(A))]
    assert sorted(calls) == sorted(want)
    assert len(calls) >= len(cocycles) > 0


@pytest.mark.parametrize("name, coeff", ORACLE_CONFIGS)
def test_is_cocycle_witness_matches_label_oracle(name, coeff):
    rng = random.Random(name)
    G, A = coeff.cover, coeff.A
    _, cocycles = h1_enumerate(coeff)
    broken = 0
    for z in rng.sample(cocycles, min(4, len(cocycles))):
        for _ in range(3):
            vals = dict(z.values)
            g = rng.choice(G.elements)
            vals[g] = rng.choice([a for a in A.elements if a != vals[g]])
            got = is_cocycle(Cocycle(coeff, vals))
            assert got == _oracle_is_cocycle(coeff, vals)
            broken += not got[0]
    assert broken > 0


@pytest.mark.parametrize("name, coeff", [
    p for p in ORACLE_CONFIGS
    if len(p.values[1].A) ** len(p.values[1].cover) <= 4096])
def test_cocycles_match_brute_force_z1(name, coeff):
    # every map G -> A that is_cocycle accepts: an oracle independent of
    # the propagation by which h1_enumerate proves its cocycles
    G, A = coeff.cover, coeff.A
    want = [pos for pos in itertools.product(range(len(A)), repeat=len(G))
            if is_cocycle(Cocycle(coeff, pos=list(pos)))[0]]
    _, cocycles = h1_enumerate(coeff)
    assert sorted(tuple(z.pos) for z in cocycles) == want


@pytest.mark.parametrize("name, coeff", ORACLE_CONFIGS)
def test_enumerated_cocycles_pass_is_cocycle(name, coeff):
    _, cocycles = h1_enumerate(coeff)
    assert cocycles
    for z in cocycles:
        assert is_cocycle(z) == (True, None)


@pytest.mark.parametrize("name, coeff", [
    p for p in ORACLE_CONFIGS if len(h1_enumerate(p.values[1])[1]) <= 40])
def test_class_key_decides_cohomology(name, coeff):
    reps, cocycles = h1_enumerate(coeff)
    keys = [z.key for z in cocycles]
    # the keys the enumeration sets are those computed afresh
    assert keys == [Cocycle(coeff, pos=z.pos).key for z in cocycles]
    for (z1, k1), (z2, k2) in itertools.product(zip(cocycles, keys),
                                                repeat=2):
        assert (k1 == k2) == (cohomologous(z1, z2) is not None)
    assert sorted(set(keys)) == [z.key for z in reps]


def _restricted_to_m(setup, z):
    """z as a cocycle on the subgroup M, with the induced action; M is
    built from the cover's rows at the positions of M."""
    cover = z.coeff.cover
    back = {x: j for j, x in enumerate(setup.m_pos)}
    M = FiniteGroup([cover.elements[x] for x in setup.m_pos], name="M",
                    rows=[[back[cover.rows[x][y]] for y in setup.m_pos]
                          for x in setup.m_pos])
    m_coeff = CoefficientGroup(z.coeff.A, M,
                               perm=[z.coeff.perm[x] for x in setup.m_pos])
    return Cocycle(m_coeff, pos=[z.pos[x] for x in setup.m_pos])


def _restricts_to_coboundary(setup, z):
    rz = _restricted_to_m(setup, z)
    return cohomologous(rz, trivial_cocycle(rz.coeff)) is not None


@pytest.mark.parametrize("name, coeff", [
    p for p in ORACLE_CONFIGS
    if m_acts_trivially(ORACLE_SETUPS[p.values[0]], p.values[1])])
def test_trivial_on_m_matches_brute_force(name, coeff):
    # every enumerated cocycle, and its difference from eta1 as the
    # diagonal argument twists it, eta1 being inflated from the quotient
    setup = ORACLE_SETUPS[name]
    reps_q, _ = h1_enumerate(quotient_coefficients(setup, coeff))
    eta1 = inflate(setup, coeff, reps_q[-1])
    tw = twisted_coefficients(coeff, eta1)
    A = coeff.A
    _, cocycles = h1_enumerate(coeff)
    trivial = 0
    for z in cocycles:
        xi = Cocycle(tw, pos=[A.rows[b][A.inv_index[a]]
                              for a, b in zip(eta1.pos, z.pos)])
        assert is_cocycle(xi)[0]
        for w in (z, xi):
            assert trivial_on_m(setup, w) == _restricts_to_coboundary(setup, w)
            trivial += trivial_on_m(setup, w)
    assert 0 < trivial < 2 * len(cocycles)


@pytest.mark.parametrize("name, coeff", [
    p for p in ORACLE_CONFIGS
    if m_acts_trivially(ORACLE_SETUPS[p.values[0]], p.values[1])])
def test_power_pullbacks_are_cocycles(name, coeff):
    # power_pullback does not check its result: p_d is an endomorphism
    # that leaves the action unchanged; every pullback of every cocycle,
    # and of its eta1-twisted difference, is checked here on all pairs
    setup = ORACLE_SETUPS[name]
    reps_q, _ = h1_enumerate(quotient_coefficients(setup, coeff))
    tw = twisted_coefficients(coeff, inflate(setup, coeff, reps_q[-1]))
    _, cocycles = h1_enumerate(coeff)
    _, twisted = h1_enumerate(tw)
    for z in cocycles + twisted:
        for d in range(1, setup.m + 1):
            assert is_cocycle(power_pullback(setup, z.coeff, z, d)) == \
                (True, None)


def test_trivial_on_m_refuses_a_nontrivial_action_on_m():
    # M acts on S3 by conjugation: some coboundary is not 1 on M, so "z is 1
    # on M" would not decide the class there
    name = "Z4 on S3 by conjugation"
    setup, coeff = next((s, c) for n, s, c in _CONFIGS if n == name)
    assert not m_acts_trivially(setup, coeff)
    one = trivial_cocycle(coeff)
    e = coeff.A.e
    assert any(any(twist_cocycle(one, a).pos[x] != e for x in setup.m_pos)
               for a in coeff.A.elements)
    with pytest.raises(CocycleError, match="^M must act trivially"):
        trivial_on_m(setup, one)
    with pytest.raises(CocycleError, match="^M must act trivially"):
        inf_res_sequence(setup, coeff)
    with pytest.raises(CocycleError, match="^M must act trivially"):
        diagonal_argument(setup, coeff, one, one)


def test_cocycle_sweep_output(capsys):
    # the last section of the paper report
    runpy.run_path(str(SCRIPTS / "paper_report.py"))["diagonal"]()
    assert capsys.readouterr().out.splitlines() == [
        "n=1 m=2 A=Z2                 classes=4 cocycles=4 exact=True "
        "diag-d=[1, 2]",
        "n=1 m=3 A=Z3                 classes=9 cocycles=9 exact=True "
        "diag-d=[1, 3]",
        "n=2 m=2 A=Z2                 classes=8 cocycles=8 exact=True "
        "diag-d=[1, 2]",
        "n=1 m=2 A=S3                 classes=4 cocycles=10 exact=True "
        "diag-d=[1, 2]",
        "n=1 m=3 Gal=Z2 A=Z3 inv      classes=9 cocycles=27 exact=True "
        "diag-d=[1, 3]"]


def _oracle_identified_pair(inflated):
    """The first pair of cohomologous inflations, in combinations order."""
    return next((i, j) for i, j in itertools.combinations(
        range(len(inflated)), 2)
        if cohomologous(inflated[i], inflated[j]) is not None)


@pytest.mark.parametrize("order", ["0 1 1' 0'", "1 0 0' 1'", "0 1 1'",
                                   "1 1' 0", "0 1 1", "1' 0 0'"])
def test_inflation_injectivity_names_the_first_pair(monkeypatch, order):
    # quotient representatives repeated (i': class i twisted by an a that
    # moves the transposition, equal in class but not in values); the error
    # names the pair that pairwise comparison in combinations order finds
    # first
    setup = DiagonalSetup(1, 2, trivial_group(), {})
    coeff = trivial_action(setup.cover, symmetric_group_3())
    coeff_q = quotient_coefficients(setup, coeff)
    reps_q, _ = h1_enumerate(coeff_q)
    assert len(reps_q) == 2
    swap = next(a for a in coeff.A.elements
                if twist_cocycle(reps_q[1], a).pos != reps_q[1].pos)
    twisted = [twist_cocycle(z, swap) for z in reps_q]
    fake = [twisted[int(w[0])] if w.endswith("'") else reps_q[int(w)]
            for w in order.split()]
    enumerate_ = cocycle.h1_enumerate

    def patched(c, *budgets):
        reps, all_c = enumerate_(c, *budgets)
        return (fake, all_c) if c.cover is setup.quotient else (reps, all_c)

    monkeypatch.setattr(cocycle, "h1_enumerate", patched)
    inflated = [inflate(setup, coeff, z) for z in fake]
    i, j = _oracle_identified_pair(inflated)
    with pytest.raises(CocycleError, match=r"^inflation identifies distinct "
                                           r"classes %d, %d$" % (i, j)):
        inf_res_sequence(setup, coeff)


def test_cayley_table_matches_product():
    units = {0: 1, 1: 2}

    def mul(x, y):
        (t1, g1), (t2, g2) = x, y
        return (tuple((a + units[g1] * b) % 3 for a, b in zip(t1, t2)),
                (g1 + g2) % 2)

    G = cover_group(2, 3, cyclic_group(2), units)
    assert len(G.elements) == 18
    for a in G.elements:
        for b in G.elements:
            assert G.mul(a, b) == mul(a, b)
        assert G.mul(a, G.inv(a)) == G.identity == G.mul(G.inv(a), a)


def _loop5(a, b):
    """A loop of order 5 (identity 0, Latin square) that is not a group."""
    return [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]][a][b]


def _magma3(a, b):
    """Identity 0, every element its own inverse, (1 1) 2 != 1 (1 2)."""
    return [[0, 1, 2], [1, 0, 1], [2, 1, 0]][a][b]


@pytest.mark.parametrize("mult_fn", [_loop5, _magma3])
def test_associativity_failure_matches_label_oracle(mult_fn):
    elements = range(5) if mult_fn is _loop5 else range(3)
    want = _oracle_associativity(list(elements), mult_fn, "bad")
    assert want is not None
    with pytest.raises(CocycleError) as err:
        FiniteGroup(elements, mult_fn, "bad")
    assert str(err.value) == want
    FiniteGroup(elements, mult_fn, "bad", verify=False)


def test_light_test_checks_every_generator():
    # loop5 x Z2: the first generator, (0, 1), is the identity of the loop
    # times a generator of Z2, and passes Light's test; only the later
    # ones, from the loop, fail it
    elements = [(a, b) for a in range(5) for b in range(2)]

    def mul(x, y):
        return _loop5(x[0], y[0]), (x[1] + y[1]) % 2

    magma = FiniteGroup(elements, mul, "bad", verify=False)
    assert magma.elements[magma.generators[0]] == (0, 1)
    assert len(magma.generators) > 1
    with pytest.raises(CocycleError) as err:
        FiniteGroup(elements, mul, "bad")
    assert str(err.value) == _oracle_associativity(elements, mul, "bad")


def test_associativity_failure_names_first_triple():
    with pytest.raises(CocycleError, match=r"^bad: associativity fails at "
                                           r"1,1,2$"):
        FiniteGroup(range(3), _magma3, "bad")


def test_magma_without_identity():
    with pytest.raises(CocycleError, match=r"^bad has no identity$"):
        FiniteGroup([0, 1], lambda a, b: 0, "bad")


def test_element_without_inverse():
    # multiplication mod 2: 1 is the identity and 0 has no inverse
    with pytest.raises(CocycleError, match=r"^M: no inverse for 0$"):
        FiniteGroup([0, 1], lambda a, b: a * b, "M")


def test_element_with_only_a_one_sided_inverse():
    rows = [[0, 1, 2, 3], [1, 1, 0, 2], [2, 3, 0, 1], [3, 1, 1, 2]]
    with pytest.raises(CocycleError) as err:
        FiniteGroup("eabc", name="M", verify=False, rows=rows)
    assert str(err.value) == "M: no inverse for a"


def test_magma_not_closed():
    with pytest.raises(CocycleError,
                       match=r"^Z/3\+ is not closed under product$"):
        FiniteGroup(range(3), lambda a, b: a + b, "Z/3+")


def test_identity_must_act_trivially():
    A = cyclic_group(3)
    negate = {a: (-a) % 3 for a in A.elements}
    cov = cyclic_group(2)
    with pytest.raises(CocycleError,
                       match=r"^identity does not act trivially$"):
        CoefficientGroup(A, cov, {g: negate for g in cov.elements})


def test_action_must_be_a_homomorphism():
    # each element acts by an automorphism of Z3, but 1 acts by negation
    # and 2 = -1 trivially, so 1 . (2 . a) != (1 + 2) . a
    A = cyclic_group(3)
    ident = {a: a for a in A.elements}
    negate = {a: (-a) % 3 for a in A.elements}
    cov = cyclic_group(3)
    with pytest.raises(CocycleError, match=r"^action is not a homomorphism "
                                           r"at 1,2$"):
        CoefficientGroup(A, cov, {0: ident, 1: negate, 2: ident})


def test_action_must_be_by_automorphisms():
    A = cyclic_group(3)
    cov = cyclic_group(2)
    double = {a: (2 * a) % 3 for a in A.elements}
    ident = {a: a for a in A.elements}
    CoefficientGroup(A, cov, {0: ident, 1: double})
    with pytest.raises(CocycleError, match=r"^action of 1 is not an "
                                           r"automorphism$"):
        CoefficientGroup(A, cov, {0: ident, 1: {0: 0, 1: 1, 2: 1}})


# ---------------------------------------------------------------------------
# Covers built by position arithmetic against the label-tuple product they
# replaced, kept here as a test-local oracle.

def _oracle_cover(n, m, gamma0, units):
    """Labels and product of (Z/m)^n : gamma0 as the label closure had
    them."""
    given = dict(units)
    units = {g: given.get(g, 1) % m if m > 1 else 0 for g in gamma0.elements}
    elems = [(t, g) for t in itertools.product(range(m), repeat=n)
             for g in gamma0.elements]

    def mul(x, y):
        t1, g1 = x
        t2, g2 = y
        u = units[g1]
        t = tuple([(a + u * b) % m for a, b in zip(t1, t2)])
        return (t, gamma0.mul(g1, g2))

    return elems, mul


def _sign_units(m):
    """S3 acting through its sign: odd permutations by -1 mod m."""
    s3 = symmetric_group_3()
    odd = {p for p in s3.elements
           if sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2}
    return s3, {p: m - 1 if p in odd else 1 for p in s3.elements}


def _cover_grid():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    for n, m in [(0, 3), (1, 1), (2, 1), (1, 2), (2, 3), (3, 2), (2, 4),
                 (1, 5)]:
        yield n, m, trivial_group(), {}
        yield n, m, z2, {}
        yield n, m, z2, {1: m - 1}
        yield n, m, z3, {}
        yield (n, m) + _sign_units(m)
    # Z3 acting on Z/7 by the cube root of unity 2
    yield 1, 7, z3, {1: 2, 2: 4}
    yield 2, 7, z3, {1: 2, 2: 4}


COVER_GRID = [pytest.param(n, m, g, u, id="n%d-m%d-%s-%s" % (
    n, m, g.name, "".join(str(u[k]) for k in sorted(u, key=str))))
    for n, m, g, u in _cover_grid()]


@pytest.mark.parametrize("n, m, gamma0, units", COVER_GRID)
def test_cover_rows_match_label_oracle(n, m, gamma0, units):
    elems, mul = _oracle_cover(n, m, gamma0, units)
    G = cover_group(n, m, gamma0, units)
    assert G.elements == elems
    assert G.name == "(Z/%d)^%d:%s" % (m, n, gamma0.name)
    index = {x: i for i, x in enumerate(elems)}
    assert G.rows == [[index[mul(a, b)] for b in elems] for a in elems]
    assert G.identity == ((0,) * n, gamma0.identity)


@pytest.mark.parametrize("n, m, gamma0, units", [
    p for p in COVER_GRID if len(p.values[2]) * p.values[1] ** (
        p.values[0] + 1) <= 256])
def test_diagonal_quotient_is_the_smaller_cover(n, m, gamma0, units):
    setup = DiagonalSetup(n, m, gamma0, units)
    small = cover_group(n, m, gamma0, units)
    assert setup.quotient is small
    cover = setup.cover
    assert [cover.elements[x] for x in setup.sub] == \
        [(t + (0,), k) for t, k in small.elements]
    assert [small.elements[q] for q in setup.proj] == \
        [(t[:-1], k) for t, k in cover.elements]
    # sub is a homomorphism onto the M = 0 copy of the (n + 1)-cover
    assert [[cover.rows[x][y] for y in setup.sub] for x in setup.sub] == \
        [[setup.sub[q] for q in row] for row in small.rows]
    for d in range(1, m + 1):
        assert [cover.elements[x] for x in power_positions(setup, d)] == \
            [(t[:-1] + (t[-1] * d % m,), k) for t, k in cover.elements]


@pytest.mark.parametrize("n, m, gamma0, units", [
    p for p in COVER_GRID if len(p.values[2]) * p.values[1] ** p.values[0]
    >= 3])
def test_light_test_matches_label_oracle_on_corruptions(n, m, gamma0, units):
    # one entry (x, y) of a group table set to z, keeping the identity and
    # the inverses (x, y != e, y != x^-1, z != e): the result is no group,
    # as its rows are not Latin, so Light's test must find a failure, and
    # the scan that names it must name the oracle's first triple.  One
    # corruption touches non-generator positions only, one the last row.
    # No corruption can fail first at the last a: for every a outside
    # {e, x}, (a, a^-1 x, y) fails, so the first failing a is among the
    # first three positions.
    G = cover_group(n, m, gamma0, units)
    rng = random.Random("%d %d %s" % (n, m, gamma0.name))
    e, size, gens = G.e, len(G), set(G.generators)
    pairs = [(x, y) for x in range(size) for y in range(size)
             if e not in (x, y) and y != G.inv_index[x]]

    def corruption(x, y, avoid=()):
        return x, y, rng.choice([z for z in range(size)
                                 if z not in (e, G.rows[x][y], *avoid)])
    chosen = [corruption(x, y)
              for x, y in rng.sample(pairs, min(3, len(pairs)))]
    chosen.append(corruption(*pairs[-1]))
    assert chosen[-1][0] == size - 1
    outside = [(x, y) for x, y in pairs if not {x, y} & gens]
    if size - len(gens) > 3:
        chosen.append(corruption(*rng.choice(outside), avoid=gens))
    for x, y, z in chosen:
        rows = [list(r) for r in G.rows]
        rows[x][y] = z
        bad = FiniteGroup(G.elements, name="bad", verify=False, rows=rows)
        assert bad.e == e
        if (x, y) in outside and z not in gens:
            assert bad.generators == G.generators
        want = _oracle_associativity(
            G.elements, lambda a, b: G.elements[rows[G.index[a]][G.index[b]]],
            "bad")
        assert want is not None
        with pytest.raises(CocycleError) as err:
            FiniteGroup(G.elements, name="bad", rows=rows)
        assert str(err.value) == want


def test_wrong_unit_in_one_row_is_rejected():
    # (Z/3) : Z2 with Z2 inverting; the row of ((1,), 1) is rebuilt with the
    # unit 1, so that one row no longer belongs to a group table
    G = cover_group(1, 3, cyclic_group(2), {1: 2})
    FiniteGroup(G.elements, name="ok", rows=[list(r) for r in G.rows])
    x = G.index[((1,), 1)]
    rows = [list(r) for r in G.rows]
    rows[x] = [G.index[(((1 + b) % 3,), (1 + g) % 2)]
               for (b,), g in G.elements]
    with pytest.raises(CocycleError, match="^bad: "):
        FiniteGroup(G.elements, name="bad", rows=rows)


@pytest.mark.parametrize("k", [200, 257])
def test_associativity_check_on_both_sides_of_256(k):
    # Z/k with 1 * 1 = 3: identity and inverses survive, and (1 1) 2 = 5
    # differs from 1 (1 2) = 4, on groups of either side of 256 elements,
    # where a position no longer fits a byte
    rows = [[(a + b) % k for b in range(k)] for a in range(k)]
    FiniteGroup(range(k), name="Z", rows=[list(r) for r in rows])
    rows[1][1] = 3
    with pytest.raises(CocycleError,
                       match=r"^bad: associativity fails at 1,1,2$"):
        FiniteGroup(range(k), name="bad", rows=rows)


@pytest.mark.parametrize("rows", [[[0, 1], [1]], [[0, 1], [1, 2]],
                                  [[0, 1], [1, -1]]],
                         ids=["short-row", "past-the-end", "negative"])
def test_given_rows_must_be_a_closed_table(rows):
    with pytest.raises(CocycleError, match=r"^T is not closed under product$"):
        FiniteGroup([0, 1], name="T", rows=rows)


def test_check_budget_group_before_coefficients():
    check_budget(96, 24)
    with pytest.raises(BudgetExceeded, match=r"^cover group order 97 "
                                             r"exceeds budget 96$"):
        check_budget(97, 25)
    with pytest.raises(BudgetExceeded, match=r"^coefficient group order 25 "
                                             r"exceeds budget 24$"):
        check_budget(96, 25)
