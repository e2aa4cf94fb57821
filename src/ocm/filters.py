"""Finite filters, convergence structures and uniform convergence structures.

Everything here lives on small finite ground sets, where every filter is
principal: the upward closure of its least member.  Structures are
stored by their minimal (coarsest) filters; upward closure under
refinement is then automatic from the representation, and the checkers
report that axiom as holding by construction.  A table holds the
maximal-least antichain of the filters it is given, in the given order,
reduced once when the table is built; the constructions below hand
their generators over unreduced.

The checkers rest on the meet of [A] and [B] being [A u B]: no member
of an antichain holds the union of two distinct members.  So a
convergence structure lists exactly one filter per point, and that
filter holds the point; a uniform convergence structure lists exactly
one relation, which is an equivalence.

Caps keep exhaustive work feasible: plain ground sets up to
``MAX_GROUND`` points, ground sets carrying relation filters (uniform
convergence structures) up to ``MAX_RELATION_GROUND`` points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

__all__ = [
    "MAX_GROUND",
    "MAX_RELATION_GROUND",
    "FiniteFilter",
    "UndefinedComposition",
    "ConvergenceTable",
    "UcsTable",
    "StructureCheck",
    "filter_from_base",
    "principal",
    "filter_image",
    "filter_product",
    "filter_intersection",
    "refines",
    "rel_inverse",
    "rel_compose",
    "rel_image",
    "relation_inverse",
    "relation_compose",
    "relation_apply",
    "relation_apply_point",
    "discrete_convergence",
    "indiscrete_convergence",
    "discrete_ucs",
    "indiscrete_ucs",
    "check_convergence_structure",
    "check_uniform_convergence",
    "induced_convergence",
    "initial_ucs",
    "initial_convergence",
    "product_ucs",
    "subspace_ucs",
    "check_initial_compat",
    "is_cauchy",
    "check_uniform_continuity",
    "close_to_ucs",
]

MAX_GROUND = 6
MAX_RELATION_GROUND = 4


class UndefinedComposition(ValueError):
    """Relation algebra result would contain the empty set."""


@dataclass(frozen=True)
class FiniteFilter:
    """A filter on a finite set: all supersets of its least member."""

    ground: frozenset
    least: frozenset

    def __post_init__(self):
        if not self.least:
            raise ValueError("a filter has no empty member")
        if not self.least <= self.ground:
            raise ValueError("least member not within the ground set")
        if len(self.ground) > MAX_GROUND**2:
            raise ValueError(f"ground set too large (cap {MAX_GROUND**2})")

    @property
    def base(self) -> tuple[frozenset, ...]:
        """Canonical minimal base."""
        return (self.least,)

    def members(self) -> list[frozenset]:
        rest = sorted(self.ground - self.least, key=repr)
        out = []
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                out.append(self.least | frozenset(extra))
        return out


def filter_from_base(ground, base) -> FiniteFilter:
    """The filter generated by a family of sets (closing under
    intersections and supersets); empty sets or an empty total
    intersection are rejected."""
    ground = frozenset(ground)
    sets = [frozenset(b) for b in base]
    if not sets:
        raise ValueError("empty base")
    if any(not b for b in sets):
        raise ValueError("empty set in base")
    least = sets[0]
    for b in sets[1:]:
        least &= b
    if not least:
        raise ValueError("base has empty intersection; no filter generated")
    return FiniteFilter(ground=ground, least=least)


def principal(ground, x) -> FiniteFilter:
    return FiniteFilter(ground=frozenset(ground), least=frozenset([x]))


def filter_image(f: FiniteFilter, mapping: dict, ground_out) -> FiniteFilter:
    return FiniteFilter(
        ground=frozenset(ground_out), least=frozenset(mapping[a] for a in f.least)
    )


def filter_product(f: FiniteFilter, g: FiniteFilter) -> FiniteFilter:
    ground = frozenset(itertools.product(f.ground, g.ground))
    least = frozenset(itertools.product(f.least, g.least))
    return FiniteFilter(ground=ground, least=least)


def filter_intersection(f: FiniteFilter, g: FiniteFilter) -> FiniteFilter:
    """Meet of two filters as collections of sets: [A] meet [B] = [A u B]."""
    if f.ground != g.ground:
        raise ValueError("filters on different ground sets")
    return FiniteFilter(ground=f.ground, least=f.least | g.least)


def refines(f: FiniteFilter, g: FiniteFilter) -> bool:
    """True iff f contains every member of g (f is finer than g)."""
    return f.ground == g.ground and f.least <= g.least


# ---------------------------------------------------------------------------
# relation algebra (relations are sets of ordered pairs)

def rel_inverse(r) -> frozenset:
    return frozenset((b, a) for a, b in r)


def _rows(r) -> dict:
    """x -> {y : (x, y) in r}, for each x that r relates."""
    rows = {}
    for x, y in r:
        rows.setdefault(x, set()).add(y)
    return rows


def rel_compose(u, v) -> frozenset:
    """u after v: pairs (x, y) with (x, z) in v and (z, y) in u for some z."""
    rows = _rows(u)
    return frozenset((x, y) for x, z in v for y in rows.get(z, ()))


def rel_image(r, a) -> frozenset:
    return frozenset(y for x, y in r if x in a)


def relation_inverse(u: FiniteFilter) -> FiniteFilter:
    return FiniteFilter(ground=rel_inverse(u.ground) | u.ground, least=rel_inverse(u.least))


def relation_compose(u: FiniteFilter, v: FiniteFilter) -> FiniteFilter:
    least = rel_compose(u.least, v.least)
    if not least:
        raise UndefinedComposition("composition of leasts is empty")
    return FiniteFilter(ground=u.ground | v.ground, least=least)


def relation_apply(u: FiniteFilter, f: FiniteFilter) -> FiniteFilter:
    """The filter generated by relation images U[F]."""
    least = rel_image(u.least, f.least)
    if not least:
        raise UndefinedComposition("relation image of least is empty")
    ground = frozenset(y for _, y in u.ground) | f.ground
    return FiniteFilter(ground=ground, least=least)


def relation_apply_point(u: FiniteFilter, x) -> FiniteFilter:
    ground = frozenset(a for a, _ in u.ground) | frozenset(b for _, b in u.ground)
    return relation_apply(u, principal(ground, x))


# ---------------------------------------------------------------------------
# structure tables

def _antichain_max(filters: tuple) -> tuple[FiniteFilter, ...]:
    """The maximal-least antichain of the given filters, in the given
    order: the first filter given for each least, unless that least lies
    strictly inside another's."""
    if len(filters) < 2:
        return filters
    first = {}
    for f in filters:
        first.setdefault(f.least, f)
    if len(first) < 2:
        return tuple(first.values())
    out = []
    for least, f in first.items():
        for other in first:
            if least < other:
                break
        else:
            out.append(f)
    return tuple(out)


@dataclass
class ConvergenceTable:
    """Candidate convergence structure: per point, the minimal filters of
    lambda(x); the structure is their upward closure under refinement."""

    ground: frozenset
    minimal: dict

    def __post_init__(self):
        self.ground = ground = frozenset(self.ground)
        if len(ground) > MAX_GROUND:
            raise ValueError(f"ground set larger than cap {MAX_GROUND}")
        if self.minimal.keys() - ground:
            raise ValueError("table keyed by a point outside the ground set")
        minimal = {}
        for x in ground:
            filters = tuple(self.minimal.get(x, ()))
            for f in filters:
                if f.ground != ground:
                    raise ValueError("listed filter on wrong ground set")
            minimal[x] = _antichain_max(filters)
        self.minimal = minimal

    def converges(self, f: FiniteFilter, x) -> bool:
        return any(f.least <= g.least for g in self.minimal[x])


@dataclass
class UcsTable:
    """Candidate uniform convergence structure: minimal filters on X x X."""

    ground: frozenset
    minimal: tuple

    def __post_init__(self):
        self.ground = frozenset(self.ground)
        if len(self.ground) > MAX_RELATION_GROUND:
            raise ValueError(f"relation ground set larger than cap {MAX_RELATION_GROUND}")
        pair_ground = frozenset(itertools.product(self.ground, self.ground))
        filters = tuple(self.minimal)
        for f in filters:
            if f.ground != pair_ground:
                raise ValueError("listed filter must live on X x X")
        self.minimal = _antichain_max(filters)


def discrete_convergence(ground) -> ConvergenceTable:
    ground = frozenset(ground)
    return ConvergenceTable(ground, {x: (principal(ground, x),) for x in ground})


def indiscrete_convergence(ground) -> ConvergenceTable:
    ground = frozenset(ground)
    full = FiniteFilter(ground, ground)
    return ConvergenceTable(ground, {x: (full,) for x in ground})


def discrete_ucs(ground) -> UcsTable:
    ground = frozenset(ground)
    pg = frozenset(itertools.product(ground, ground))
    diag = frozenset((x, x) for x in ground)
    return UcsTable(ground, (FiniteFilter(pg, diag),))


def indiscrete_ucs(ground) -> UcsTable:
    ground = frozenset(ground)
    pg = frozenset(itertools.product(ground, ground))
    return UcsTable(ground, (FiniteFilter(pg, pg),))


@dataclass
class StructureCheck:
    ok: bool
    failed_axiom: int | None = None
    witness: object = None
    hausdorff: bool | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)


def check_convergence_structure(t: ConvergenceTable) -> StructureCheck:
    """Axioms: (1) the point filter converges to its point, (2) closure
    under meets of convergent filters, (3) upward closure, which holds by
    the minimal-filter representation.  The Hausdorff flag is reported
    separately and does not affect the verdict.

    Axiom (2) is a length test.  The meet of [A] and [B] is [A u B], and
    a listed filter holding g1 u g2, for two distinct listed filters g1
    and g2 of an antichain, would strictly contain g1.  So the axiom fails
    at the first point, in repr order, listing more than one filter; its
    first two are the first failing pair in product order.
    """
    notes = ("axiom (3) upward closure holds by representation",)
    points = sorted(t.ground, key=repr)
    hausdorff = _hausdorff(t, points)
    for x in points:
        for g in t.minimal[x]:
            if x in g.least:
                break
        else:
            return StructureCheck(False, 1, x, hausdorff, notes)
    for x in points:
        gens = t.minimal[x]
        if len(gens) > 1:
            return StructureCheck(False, 2, (x, gens[0].least, gens[1].least), hausdorff, notes)
    return StructureCheck(True, None, None, hausdorff, notes)


def _hausdorff(t: ConvergenceTable, points: list) -> bool:
    for x, y in itertools.combinations(points, 2):
        for gx in t.minimal[x]:
            for gy in t.minimal[y]:
                if not gx.least.isdisjoint(gy.least):
                    return False
    return True


def check_uniform_convergence(t: UcsTable) -> StructureCheck:
    """Axioms on the family of relation filters: (1) point squares belong,
    (2) closure under meets, (3) upward closure by representation,
    (4) closure under inverse, (5) closure under composition whenever the
    composition exists.

    As in check_convergence_structure, no listed relation holds the union
    of two distinct listed relations, so axiom (2) fails exactly when more
    than one is listed, the first two its witness.  Axioms (4) and (5)
    then test the one generator g: g inverse lies in g, and g o g lies in
    g, as g[y] within g[x] for each y in g[x].  After axiom (1) g is
    reflexive, so g o g holds g and is never empty.
    """
    notes = ("axiom (3) upward closure holds by representation",)
    gens = t.minimal
    for x in sorted(t.ground, key=repr):
        if not any((x, x) in g.least for g in gens):
            return StructureCheck(False, 1, x, None, notes)
    if len(gens) > 1:
        return StructureCheck(False, 2, (gens[0].least, gens[1].least), None, notes)
    for g in gens:
        if not rel_inverse(g.least) <= g.least:
            return StructureCheck(False, 4, g.least, None, notes)
        rows = _rows(g.least)
        if not all(rows[y] <= row for row in rows.values() for y in row):
            return StructureCheck(False, 5, (g.least, g.least), None, notes)
    return StructureCheck(True, None, None, None, notes)


def induced_convergence(t: UcsTable) -> ConvergenceTable:
    """A filter converges to x iff the square [x] x F belongs to the
    uniform structure; minimal filters come from the x-slices of the
    listed relations."""
    rows = [_rows(g.least) for g in t.minimal]
    minimal = {x: [FiniteFilter(t.ground, frozenset(r[x])) for r in rows if x in r]
               for x in t.ground}
    return ConvergenceTable(t.ground, minimal)


def initial_ucs(ground, maps, tables) -> UcsTable:
    """Initial structure along maps f_i into uniform convergence spaces:
    a relation filter belongs iff all its images do.  Minimal filters are
    the maximal relation preimages over one generator choice per factor."""
    ground = frozenset(ground)
    pg = frozenset(itertools.product(ground, ground))
    choices = itertools.product(*(t.minimal for t in tables))
    gens = []
    for choice in choices:
        r = pg
        for fmap, gen in zip(maps, choice):
            r = [(a, b) for (a, b) in r if (fmap[a], fmap[b]) in gen.least]
        if r:
            gens.append(FiniteFilter(pg, frozenset(r)))
    if not tables:
        # the one empty choice above already gave pg unless pg is empty;
        # then this raises on the empty least, as close_to_ucs does
        gens = [FiniteFilter(pg, pg)]
    return UcsTable(ground, gens)


def initial_convergence(ground, maps, tables) -> ConvergenceTable:
    """Initial convergence structure along maps into convergence spaces."""
    ground = frozenset(ground)
    minimal = {}
    for x in ground:
        choices = itertools.product(*(t.minimal[fmap[x]] for fmap, t in zip(maps, tables)))
        minimal[x] = []
        for choice in choices:
            a = ground
            for fmap, gen in zip(maps, choice):
                a = [p for p in a if fmap[p] in gen.least]
            if a:
                minimal[x].append(FiniteFilter(ground, frozenset(a)))
    return ConvergenceTable(ground, minimal)


def product_ucs(t1: UcsTable, t2: UcsTable) -> UcsTable:
    ground = frozenset(itertools.product(t1.ground, t2.ground))
    proj1 = {p: p[0] for p in ground}
    proj2 = {p: p[1] for p in ground}
    return initial_ucs(ground, [proj1, proj2], [t1, t2])


def subspace_ucs(t: UcsTable, subset) -> UcsTable:
    subset = frozenset(subset)
    if not subset <= t.ground:
        raise ValueError("subspace must be a subset of the ground set")
    incl = {x: x for x in subset}
    return initial_ucs(subset, [incl], [t])


def _leasts(t: ConvergenceTable) -> dict:
    return {x: {f.least for f in t.minimal[x]} for x in t.ground}


def check_initial_compat(ground, maps, tables) -> bool:
    """Instance check: inducing the convergence structure of the initial
    uniform structure agrees with taking the initial convergence
    structure of the induced ones."""
    lhs = induced_convergence(initial_ucs(ground, maps, tables))
    rhs = initial_convergence(ground, maps, [induced_convergence(t) for t in tables])
    return _leasts(lhs) == _leasts(rhs)


def is_cauchy(f: FiniteFilter, t: UcsTable) -> bool:
    """F is Cauchy iff F x F belongs to the uniform structure."""
    square = frozenset(itertools.product(f.least, f.least))
    return any(square <= g.least for g in t.minimal)


def check_uniform_continuity(fmap: dict, t_from: UcsTable, t_to: UcsTable):
    """Returns (ok, witness): ok iff the double image of every minimal
    filter belongs to the target structure; quantifying over minimal
    filters suffices because both families are upward closed."""
    for g in t_from.minimal:
        img = frozenset((fmap[a], fmap[b]) for (a, b) in g.least)
        if not any(img <= h.least for h in t_to.minimal):
            return False, g
    return True, None


def close_to_ucs(ground, seed_relations) -> UcsTable:
    """Close seed relations into a valid uniform convergence structure:
    the least one containing the diagonal and every seed.

    Its single minimal filter is the equivalence relation generated by
    the diagonal and the seeds.  This is exact because on a finite set
    the meet of [A] and [B] is [A u B], so saturating under meets,
    inverse and composition leaves one maximal generator, which is then
    reflexive, symmetric and transitive, and nothing beyond that
    equivalence can be generated.
    """
    ground = frozenset(ground)
    block = {x: frozenset([x]) for x in ground}
    for r in seed_relations:
        for a, b in r:
            merged = block.get(a, frozenset([a])) | block.get(b, frozenset([b]))
            for x in merged:
                block[x] = merged
    least = frozenset(p for s in set(block.values()) for p in itertools.product(s, s))
    pg = frozenset(itertools.product(ground, ground))
    return UcsTable(ground, (FiniteFilter(pg, least),))
