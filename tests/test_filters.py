"""Finite filters and structure checkers against brute-force oracles.

The oracles work on explicit collections of sets wherever feasible.  A
literal enumeration over all collections of nonempty subsets verifies
that the filters on a small finite set are exactly the principal ones,
which licenses least-member representations in the larger oracles; the
axiom logic itself is then recomputed from scratch, quantifying over the
whole closure instead of generators.
"""

import itertools

import numpy as np
import pytest

from ocm.filters import (
    ConvergenceTable,
    FiniteFilter,
    UcsTable,
    check_convergence_structure,
    check_initial_compat,
    check_uniform_continuity,
    check_uniform_convergence,
    close_to_ucs,
    discrete_convergence,
    discrete_ucs,
    indiscrete_convergence,
    indiscrete_ucs,
    induced_convergence,
    initial_convergence,
    initial_ucs,
    is_cauchy,
    principal,
    product_ucs,
    rel_compose,
    rel_inverse,
    subspace_ucs,
)

ABC = frozenset(("a", "b", "c"))
AB = frozenset(("a", "b"))


def nonempty_subsets(ground):
    elems = sorted(ground)
    return [
        frozenset(c)
        for r in range(1, len(elems) + 1)
        for c in itertools.combinations(elems, r)
    ]


def literal_filters(ground):
    """Every collection of nonempty subsets satisfying the filter axioms,
    found by checking each candidate collection directly."""
    subs = nonempty_subsets(ground)
    found = []
    for bits in itertools.product((0, 1), repeat=len(subs)):
        coll = frozenset(s for s, b in zip(subs, bits) if b)
        if not coll:
            continue
        superset_closed = all(t in coll for s in coll for t in subs if t >= s)
        meet_closed = all((s & t) and (s & t) in coll for s in coll for t in coll)
        if superset_closed and meet_closed:
            found.append(coll)
    return found


def test_every_finite_filter_is_principal():
    for size in (1, 2, 3):
        ground = frozenset(range(size))
        filters = literal_filters(ground)
        principals = {frozenset(FiniteFilter(ground, a).members()) for a in nonempty_subsets(ground)}
        assert set(filters) == principals
        assert len(filters) == 2**size - 1


# ---------------------------------------------------------------------------
# filters

def test_principal_filter_members():
    f = principal(ABC, "a")
    members = f.members()
    assert len(members) == 4  # {a}, {a,b}, {a,c}, {a,b,c}
    assert all("a" in s for s in members)


def test_filter_intersection_pairwise_union_base():
    # oracle: the meet of [A] and [B] as collections is the upward closure
    # of {A u B}; check against the literal intersection of member lists
    f, g = principal(ABC, "a"), principal(ABC, "b")
    literal = set(f.members()) & set(g.members())
    assert set(FiniteFilter(ABC, f.least | g.least).members()) == literal


# ---------------------------------------------------------------------------
# relation algebra

def _pairs(ground):
    return frozenset(itertools.product(ground, ground))


def _oracle_compose(u, v):
    out = set()
    for (x, z1) in v:
        for (z2, y) in u:
            if z1 == z2:
                out.add((x, y))
    return frozenset(out)


def test_relation_laws_exhaustive_two_points():
    universe = list(itertools.product(AB, AB))
    rels = [frozenset(c) for r in range(len(universe) + 1) for c in itertools.combinations(universe, r)]
    for u, v in itertools.product(rels, repeat=2):
        assert rel_compose(u, v) == _oracle_compose(u, v)
        assert rel_inverse(rel_compose(u, v)) == rel_compose(rel_inverse(v), rel_inverse(u))
    for u, v, w in itertools.product(rels, repeat=3):
        assert rel_compose(rel_compose(u, v), w) == rel_compose(u, rel_compose(v, w))


def test_relation_laws_sampled_three_points():
    rng = np.random.default_rng(17)
    universe = list(itertools.product(ABC, ABC))
    def rand_rel():
        bits = rng.random(len(universe)) < 0.3
        return frozenset(p for p, b in zip(universe, bits) if b)
    for _ in range(500):
        u, v, w = rand_rel(), rand_rel(), rand_rel()
        assert rel_inverse(rel_compose(u, v)) == rel_compose(rel_inverse(v), rel_inverse(u))
        assert rel_compose(rel_compose(u, v), w) == rel_compose(u, rel_compose(v, w))


# ---------------------------------------------------------------------------
# convergence structure checker vs literal oracle

def all_antichains(ground):
    subs = nonempty_subsets(ground)
    out = []
    for bits in itertools.product((0, 1), repeat=len(subs)):
        fam = [s for s, b in zip(subs, bits) if b]
        if all(not (s < t or t < s) for s, t in itertools.combinations(fam, 2)):
            out.append(tuple(fam))
    return out


def oracle_convergence(table: ConvergenceTable):
    """Violated axioms and the Hausdorff flag, computed on explicit
    collections over the literal filter universe.  The checker is held to
    it on every table all_antichains gives over 1, 2 and 3 points in
    test_acceptance.py's test_c6_convergence_space_checkers."""
    universe = literal_filters(table.ground)
    listed = {
        x: [frozenset(f.members()) for f in table.minimal[x]] for x in table.ground
    }
    clo = {
        x: {F for F in universe if any(F >= L for L in listed[x])} for x in table.ground
    }
    violated = set()
    for x in table.ground:
        point = frozenset(s for s in nonempty_subsets(table.ground) if x in s)
        if point not in clo[x]:
            violated.add(1)
    for x in table.ground:
        for f, g in itertools.product(clo[x], repeat=2):
            if (f & g) not in clo[x]:
                violated.add(2)
    for x in table.ground:
        for f in clo[x]:
            for g in universe:
                if g >= f and g not in clo[x]:
                    violated.add(3)
    hausdorff = True
    for x, y in itertools.combinations(sorted(table.ground), 2):
        if clo[x] & clo[y]:
            hausdorff = False
    return violated, hausdorff


def _cs_table(ground, assignment):
    return ConvergenceTable(
        ground, {x: tuple(FiniteFilter(ground, s) for s in fam) for x, fam in assignment.items()}
    )


def test_convergence_table_rejects_keys_outside_its_ground():
    good = [FiniteFilter(AB, frozenset("a"))], [FiniteFilter(AB, frozenset("b"))]
    with pytest.raises(ValueError, match="outside the ground"):
        ConvergenceTable(AB, {"a": good[0], "b": good[1], "z": []})
    # even an entry whose filter lives on another ground is no longer dropped unchecked
    xyz = frozenset("xyz")
    with pytest.raises(ValueError, match="outside the ground"):
        ConvergenceTable(AB, {"a": good[0], "b": good[1], "z": [FiniteFilter(xyz, frozenset("z"))]})
    assert check_convergence_structure(ConvergenceTable(AB, {"a": good[0], "b": good[1]})).ok


def test_convergence_checker_examples():
    res = check_convergence_structure(discrete_convergence(AB))
    assert res.ok and res.hausdorff
    res = check_convergence_structure(indiscrete_convergence(AB))
    assert res.ok and not res.hausdorff
    # lambda(a) missing the point filter [a]
    broken = _cs_table(AB, {"a": [frozenset(["b"])], "b": [frozenset(["b"])]})
    res = check_convergence_structure(broken)
    assert not res.ok and res.failed_axiom == 1 and res.witness == "a"


# ---------------------------------------------------------------------------
# uniform convergence structure checker vs closure-level oracle

def oracle_ucs(table: UcsTable):
    """Violated axioms computed over the whole closure of principal
    filters below the listed generators (representation licensed by
    test_every_finite_filter_is_principal)."""
    leasts = [g.least for g in table.minimal]
    closure = set()
    for L in leasts:
        elems = sorted(L)
        for r in range(1, len(elems) + 1):
            for c in itertools.combinations(elems, r):
                closure.add(frozenset(c))
    def member(b):
        return any(b <= L for L in leasts)
    violated = set()
    for x in table.ground:
        if not member(frozenset([(x, x)])):
            violated.add(1)
    for b1, b2 in itertools.product(closure, repeat=2):
        if not member(b1 | b2):
            violated.add(2)
    for b in closure:
        if not member(_oracle_inverse(b)):
            violated.add(4)
    for b1, b2 in itertools.product(closure, repeat=2):
        comp = _oracle_compose(b1, b2)
        if comp and not member(comp):
            violated.add(5)
    return violated


def _oracle_inverse(rel):
    return frozenset((y, x) for x, y in rel)


def _random_ucs_table(rng, ground, pool_size=3, close=False):
    pairs = sorted(itertools.product(sorted(ground), sorted(ground)))
    pool = [pairs[i] for i in rng.choice(len(pairs), size=min(pool_size, len(pairs)), replace=False)]
    rels = []
    for _ in range(int(rng.integers(1, 4))):
        bits = rng.random(len(pool)) < 0.6
        r = frozenset(p for p, b in zip(pool, bits) if b)
        if r:
            rels.append(r)
    diag = frozenset((x, x) for x in ground)
    if not rels:
        rels = [diag]
    if close:
        return close_to_ucs(ground, rels)
    if rng.random() < 0.5:
        rels.append(diag)
    pg = frozenset(itertools.product(ground, ground))
    return UcsTable(ground, tuple(FiniteFilter(pg, r) for r in rels))


def test_ucs_checker_examples():
    assert check_uniform_convergence(discrete_ucs(AB)).ok
    assert check_uniform_convergence(indiscrete_ucs(AB)).ok
    pg = _pairs(AB)
    # missing [a] x [a]
    t = UcsTable(AB, (FiniteFilter(pg, frozenset([("b", "b")])),))
    res = check_uniform_convergence(t)
    assert not res.ok and res.failed_axiom == 1
    # contains U but not its inverse
    t = UcsTable(AB, (FiniteFilter(pg, frozenset([("a", "a"), ("b", "b"), ("a", "b")])),))
    res = check_uniform_convergence(t)
    assert not res.ok and res.failed_axiom == 4
    # symmetric and reflexive, but a ~ b ~ c does not give a ~ c
    near = frozenset([(x, x) for x in ABC] + [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")])
    gen = FiniteFilter(_pairs(ABC), near)
    res = check_uniform_convergence(UcsTable(ABC, (gen,)))
    assert not res.ok and res.failed_axiom == 5 and res.witness == (near, near)


def test_ucs_checker_matches_oracle_on_random_tables():
    # the closure-level oracle is quadratic in the closure size, so the
    # comparison sticks to tables whose generators stay small; large
    # closed tables are covered by test_closed_tables_always_valid
    rng = np.random.default_rng(23)
    seen_fail = seen_pass = 0
    for _ in range(300):
        ground = AB if rng.random() < 0.5 else ABC
        close = bool(rng.random() < 0.4) and ground is AB
        table = _random_ucs_table(rng, ground, close=close)
        if max(len(g.least) for g in table.minimal) > 5:
            continue
        res = check_uniform_convergence(table)
        violated = oracle_ucs(table)
        assert res.ok == (not violated)
        if violated:
            assert res.failed_axiom == min(violated)
            seen_fail += 1
        else:
            seen_pass += 1
    assert seen_fail > 20 and seen_pass > 20


def test_closed_tables_always_valid():
    rng = np.random.default_rng(29)
    for _ in range(50):
        table = _random_ucs_table(rng, ABC, close=True)
        assert check_uniform_convergence(table).ok


def reference_convergence(t: ConvergenceTable):
    """The pairwise-meet checker the one-generator test replaced, kept as
    the reference: (ok, failed_axiom, witness, hausdorff)."""
    points = sorted(t.ground, key=repr)
    hausdorff = not any(gx.least & gy.least for x, y in itertools.combinations(points, 2)
                        for gx in t.minimal[x] for gy in t.minimal[y])
    for x in points:
        if not any(x in g.least for g in t.minimal[x]):
            return False, 1, x, hausdorff
    for x in points:
        gens = t.minimal[x]
        for g1, g2 in itertools.product(gens, repeat=2):
            if not any(g1.least | g2.least <= g.least for g in gens):
                return False, 2, (x, g1.least, g2.least), hausdorff
    return True, None, None, hausdorff


def reference_ucs(t: UcsTable):
    """The pairwise meet, inverse and composition loops the one-generator
    test replaced: (ok, failed_axiom, witness, hausdorff)."""
    gens = t.minimal
    def member(rel):
        return any(rel <= g.least for g in gens)
    for x in sorted(t.ground, key=repr):
        if not member(frozenset([(x, x)])):
            return False, 1, x, None
    for g1, g2 in itertools.product(gens, repeat=2):
        if not member(g1.least | g2.least):
            return False, 2, (g1.least, g2.least), None
    for g1 in gens:
        if not member(_oracle_inverse(g1.least)):
            return False, 4, g1.least, None
    for g1, g2 in itertools.product(gens, repeat=2):
        comp = _oracle_compose(g1.least, g2.least)
        if comp and not member(comp):
            return False, 5, (g1.least, g2.least), None
    return True, None, None, None


def _verdict(res):
    return res.ok, res.failed_axiom, res.witness, res.hausdorff


def test_checkers_match_the_pairwise_reference():
    rng = np.random.default_rng(41)
    failed = set()
    # every assignment of one antichain per point of a 3-point ground
    chains = all_antichains(ABC)
    for combo in itertools.product(chains, repeat=3):
        table = _cs_table(ABC, dict(zip(sorted(ABC), combo)))
        got = _verdict(check_convergence_structure(table))
        assert got == reference_convergence(table), combo
        failed.add(got[1])
    assert failed == {None, 1, 2}
    # seeded convergence tables on 1-4 points, 0-4 filters per point,
    # repeated and nested filters included
    for _ in range(3000):
        ground = frozenset("abcd"[: int(rng.integers(1, 5))])
        subs = nonempty_subsets(ground)
        assignment = {x: [subs[int(i)] for i in rng.integers(0, len(subs), int(rng.integers(0, 5)))]
                      for x in ground}
        table = _cs_table(ground, assignment)
        got = _verdict(check_convergence_structure(table))
        assert got == reference_convergence(table), assignment
        failed.add(got[1])
    # seeded uniform tables on 1-3 points with 1-3 generators, half of
    # them made reflexive so that axioms (2), (4) and (5) are reached
    for _ in range(3000):
        ground = frozenset("abc"[: int(rng.integers(1, 4))])
        pairs = sorted(_pairs(ground))
        diag = frozenset((x, x) for x in ground)
        rels = []
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(1, len(pairs) + 1))
            rel = frozenset(pairs[int(i)] for i in rng.choice(len(pairs), size, replace=False))
            rels.append(rel | diag if rng.random() < 0.5 else rel)
        table = UcsTable(ground, tuple(FiniteFilter(_pairs(ground), r) for r in rels))
        got = _verdict(check_uniform_convergence(table))
        assert got == reference_ucs(table), rels
        failed.add(got[1])
    assert failed == {None, 1, 2, 4, 5}


def set_partitions(elems):
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def test_closure_is_the_least_equivalence_over_the_seeds():
    rng = np.random.default_rng(37)
    for size in (1, 2, 3, 4):
        ground = frozenset("pqrs"[:size])
        pairs = sorted(_pairs(ground))
        equivalences = [
            frozenset(p for block in part for p in itertools.product(block, block))
            for part in set_partitions(sorted(ground))
        ]
        assert len(equivalences) == (1, 2, 5, 15)[size - 1]
        for _ in range(200):
            density = rng.random() * 0.4
            seeds = [
                frozenset(p for p, b in zip(pairs, rng.random(len(pairs)) < density) if b)
                for _ in range(int(rng.integers(0, 4)))
            ]
            table = close_to_ucs(ground, seeds)
            assert len(table.minimal) == 1
            containing = [e for e in equivalences if all(s <= e for s in seeds)]
            assert table.minimal[0].least == frozenset.intersection(*containing)
            assert table.minimal[0].ground == frozenset(pairs)
    with pytest.raises(ValueError, match="least member not within the ground set"):
        close_to_ucs(ABC, [frozenset([("a", "z")])])
    with pytest.raises(ValueError, match="relation ground set larger than cap 4"):
        close_to_ucs(frozenset(range(5)), [])
    with pytest.raises(ValueError, match="a filter has no empty member"):
        close_to_ucs(frozenset(), [])


# ---------------------------------------------------------------------------
# table construction

def test_tables_keep_the_surviving_given_filters_in_the_given_order():
    # ac and ab are incomparable and given in an order that is not
    # (size, repr) order; a second ac and the finer {a} do not survive
    ac = FiniteFilter(ABC, frozenset("ac"))
    ab = FiniteFilter(ABC, frozenset("ab"))
    ac_again = FiniteFilter(ABC, frozenset("ac"))
    a_only = FiniteFilter(ABC, frozenset("a"))
    conv = ConvergenceTable(ABC, {"a": (ac, a_only, ab, ac_again)})
    assert len(conv.minimal["a"]) == 2
    assert all(kept is given for kept, given in zip(conv.minimal["a"], (ac, ab)))
    assert conv.minimal["b"] == () and conv.minimal["c"] == ()

    pg = frozenset(itertools.product(AB, AB))
    diag = frozenset((x, x) for x in AB)
    ba = FiniteFilter(pg, diag | {("b", "a")})
    ab_rel = FiniteFilter(pg, diag | {("a", "b")})
    ba_again = FiniteFilter(pg, diag | {("b", "a")})
    ucs = UcsTable(AB, (ba, FiniteFilter(pg, diag), ab_rel, ba_again))
    assert len(ucs.minimal) == 2
    assert all(kept is given for kept, given in zip(ucs.minimal, (ba, ab_rel)))


def test_tables_read_one_shot_iterables_as_lists_and_tuples():
    # a family given as a generator is read once, so validation and
    # reduction must see the same materialised filters
    fam = {"a": [frozenset("a"), frozenset("ab"), frozenset("a")], "b": [frozenset("b")]}
    conv = [
        ConvergenceTable(AB, {x: kind(FiniteFilter(AB, s) for s in sets) for x, sets in fam.items()})
        for kind in (iter, list, tuple)
    ]
    assert conv[0].minimal == conv[1].minimal == conv[2].minimal
    assert [f.least for f in conv[0].minimal["a"]] == [frozenset("ab")]
    assert check_convergence_structure(conv[0]) == check_convergence_structure(conv[2])

    pg = _pairs(AB)
    rels = [frozenset((x, x) for x in AB), pg]
    ucs = [UcsTable(AB, kind(FiniteFilter(pg, r) for r in rels)) for kind in (iter, list, tuple)]
    assert ucs[0].minimal == ucs[1].minimal == ucs[2].minimal
    assert [f.least for f in ucs[0].minimal] == [pg]
    assert check_uniform_convergence(ucs[0]).ok


def test_initial_convergence_along_no_maps_is_indiscrete():
    t = initial_convergence(ABC, [], [])
    assert all([f.least for f in t.minimal[x]] == [ABC] for x in ABC)


# ---------------------------------------------------------------------------
# induced and initial structures

def test_induced_of_discrete_is_discrete():
    induced = induced_convergence(discrete_ucs(AB))
    assert check_convergence_structure(induced).ok
    expected = discrete_convergence(AB)
    for x in AB:
        assert {f.least for f in induced.minimal[x]} == {f.least for f in expected.minimal[x]}


def test_induced_of_indiscrete_converges_everywhere():
    induced = induced_convergence(indiscrete_ucs(AB))
    for x in AB:
        for a in nonempty_subsets(AB):
            assert any(a <= g.least for g in induced.minimal[x])


def test_induced_singleton():
    single = frozenset(("a",))
    induced = induced_convergence(discrete_ucs(single))
    assert {f.least for f in induced.minimal["a"]} == {frozenset(["a"])}


def test_initial_identity_map_preserves_structure():
    t = close_to_ucs(ABC, [frozenset([("a", "b")])])
    same = initial_ucs(ABC, [{x: x for x in ABC}], [t])
    assert {f.least for f in same.minimal} == {f.least for f in t.minimal}


def test_product_of_discrete_is_discrete():
    t = product_ucs(discrete_ucs(AB), discrete_ucs(frozenset(("c", "d"))))
    ground = t.ground
    assert len(ground) == 4
    diag = frozenset((p, p) for p in ground)
    assert {f.least for f in t.minimal} == {diag}


def test_subspace_of_discrete():
    t = subspace_ucs(discrete_ucs(AB), frozenset(("a",)))
    assert {f.least for f in t.minimal} == {frozenset([("a", "a")])}


def test_initial_compat_basic_instances():
    t = close_to_ucs(ABC, [frozenset([("a", "b"), ("b", "c")])])
    assert check_initial_compat(ABC, [{x: x for x in ABC}], [t])
    t2 = discrete_ucs(AB)
    prod_ground = frozenset(itertools.product(AB, AB))
    proj1 = {p: p[0] for p in prod_ground}
    proj2 = {p: p[1] for p in prod_ground}
    assert check_initial_compat(prod_ground, [proj1, proj2], [t2, t2])
    sub = frozenset(("a",))
    assert check_initial_compat(sub, [{"a": "a"}], [t2])


def test_initial_structures_need_one_map_per_table():
    # the maps and tables used to be paired through zip, so an unmatched
    # map or table was dropped: [id, swap] with [t] ignored swap, and
    # check_initial_compat(AB, [id], [t, indiscrete]) returned True
    ident, swap = {"a": "a", "b": "b"}, {"a": "b", "b": "a"}
    t = close_to_ucs(AB, [])
    conv = induced_convergence(t)
    for maps, tables in (([ident, swap], [t]), ([ident], [t, t]), ([ident], [])):
        want = f"got {len(maps)} maps and {len(tables)} tables"
        with pytest.raises(ValueError, match=want):
            initial_ucs(AB, maps, tables)
        with pytest.raises(ValueError, match=want):
            initial_convergence(AB, maps, [conv] * len(tables))
    with pytest.raises(ValueError, match="got 1 maps and 2 tables"):
        check_initial_compat(AB, [ident], [t, indiscrete_ucs(AB)])
    # matched lengths still build, including none at all
    assert check_initial_compat(AB, [ident, swap], [t, t])
    assert [f.least for f in initial_ucs(AB, [], []).minimal] == [
        frozenset(itertools.product(AB, AB))]


def test_initial_compat_random_instances():
    rng = np.random.default_rng(31)
    grounds = [frozenset(("p", "q")), ABC, frozenset(("p", "q", "r", "s"))]
    count = 0
    while count < 200:
        ground = grounds[int(rng.integers(0, len(grounds)))]
        n_factors = int(rng.integers(1, 3))
        maps, tables = [], []
        for _ in range(n_factors):
            factor = AB if rng.random() < 0.5 else ABC
            elems = sorted(factor)
            maps.append({x: elems[int(rng.integers(0, len(elems)))] for x in ground})
            tables.append(_random_ucs_table(rng, factor, close=True))
        assert check_initial_compat(ground, maps, tables)
        count += 1


def test_induced_of_valid_ucs_is_valid_convergence():
    rng = np.random.default_rng(37)
    for _ in range(50):
        table = _random_ucs_table(rng, ABC, close=True)
        res = check_convergence_structure(induced_convergence(table))
        assert res.ok


# ---------------------------------------------------------------------------
# Cauchy filters and uniform continuity

def test_point_filters_always_cauchy():
    for t in (discrete_ucs(AB), indiscrete_ucs(AB), close_to_ucs(ABC, [frozenset([("a", "c")])])):
        for x in t.ground:
            assert is_cauchy(principal(t.ground, x), t)


def test_indiscrete_everything_cauchy():
    t = indiscrete_ucs(ABC)
    for a in nonempty_subsets(ABC):
        assert is_cauchy(FiniteFilter(ABC, a), t)


def test_discrete_coarse_filter_not_cauchy():
    t = discrete_ucs(AB)
    assert not is_cauchy(FiniteFilter(AB, AB), t)


def test_uniform_continuity_examples():
    ident = {x: x for x in AB}
    assert check_uniform_continuity(ident, discrete_ucs(AB), discrete_ucs(AB))[0]
    swap = {"a": "b", "b": "a"}
    assert check_uniform_continuity(swap, discrete_ucs(AB), indiscrete_ucs(AB))[0]
    ok, witness = check_uniform_continuity(swap, indiscrete_ucs(AB), discrete_ucs(AB))
    assert not ok and witness is not None
