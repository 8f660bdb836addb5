"""Finite groupoid-enriched categories.

A `GpdCategory` has a finite groupoid of 1-cells and invertible 2-cells
between every ordered pair of objects, with strictly associative and
unital horizontal composition satisfying the interchange law.  This is a
strict model of a 2-truncated higher category: the mapping data between x
and y has components (iso classes of 1-cells) and automorphism groups of
2-cells, and nothing above that.

Contractibility of such mapping data is exact, not an approximation: one
component whose representative has a trivial automorphism group.  That is
what separates `initial` from `h_initial` here, and the whole point of the
module is to compute on instances where the two disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import limits
from .adjoint import GaftResult, comma_under, gaft_decide
from .fincat import (
    CategoryError,
    FinCategory,
    FinFunctor,
    FunctorProfile,
    Morphism,
    UnknownObject,
    build_category,
    check_functor_laws,
    components,
    functor_profile,
    minimal_sets,
)


class GpdLawViolation(CategoryError):
    """A named groupoid-enrichment law fails; the message says which."""


class InvariantViolation(CategoryError):
    """A construction-level guarantee failed to hold."""


@dataclass(frozen=True)
class TwoCell:
    id: str
    src: str
    dst: str


@dataclass(frozen=True)
class Gpd:
    """A finite groupoid: 1-cells as objects, invertible 2-cells as arrows.

    `identity` and `inverse` are derived during validation.
    """

    cells: tuple[str, ...]
    arrows: tuple[TwoCell, ...]
    vcompose: dict[tuple[str, str], str]
    identity: dict[str, str]
    inverse: dict[str, str]

    def arrows_between(self, f: str, g: str) -> tuple[str, ...]:
        return tuple(a.id for a in self.arrows if a.src == f and a.dst == g)


def _build_gpd(cells, arrows, vcompose) -> Gpd:
    cells = tuple(cells)
    arrows = tuple(TwoCell(*a) if not isinstance(a, TwoCell) else a for a in arrows)
    vcompose = dict(vcompose)
    cellset = set(cells)
    amap = {a.id: a for a in arrows}
    if len(amap) != len(arrows):
        raise GpdLawViolation("duplicate 2-cell identifiers in a hom groupoid")
    for a in arrows:
        if a.src not in cellset or a.dst not in cellset:
            raise GpdLawViolation(f"2-cell {a.id!r} has endpoints outside the hom")
    for (b, a), c in vcompose.items():
        if a not in amap or b not in amap or c not in amap:
            raise GpdLawViolation(f"compose2 entry ({b}, {a}) references unknown 2-cells")
        if amap[a].dst != amap[b].src:
            raise GpdLawViolation(f"compose2 entry ({b}, {a}) is not composable")
        if amap[c].src != amap[a].src or amap[c].dst != amap[b].dst:
            raise GpdLawViolation(f"compose2 entry ({b}, {a}) has a result with wrong endpoints")
    for a in arrows:
        for b in arrows:
            if a.dst == b.src and (b.id, a.id) not in vcompose:
                raise GpdLawViolation(f"compose2 is missing the pair ({b.id}, {a.id})")
    for a in arrows:
        for b in arrows:
            if a.dst != b.src:
                continue
            ba = vcompose[(b.id, a.id)]
            for c in arrows:
                if b.dst != c.src:
                    continue
                if vcompose[(c.id, ba)] != vcompose[(vcompose[(c.id, b.id)], a.id)]:
                    raise GpdLawViolation("vertical composition is not associative")
    identity = {}
    for f in cells:
        endos = [a for a in arrows if a.src == f and a.dst == f]
        units = [
            e
            for e in endos
            if all(vcompose[(e.id, a.id)] == a.id for a in arrows if a.dst == f)
            and all(vcompose[(b.id, e.id)] == b.id for b in arrows if b.src == f)
        ]
        if len(units) != 1:
            raise GpdLawViolation(f"1-cell {f!r} has {len(units)} identity 2-cells")
        identity[f] = units[0].id
    inverse = {}
    for a in arrows:
        invs = [
            b.id
            for b in arrows
            if b.src == a.dst
            and b.dst == a.src
            and vcompose[(b.id, a.id)] == identity[a.src]
            and vcompose[(a.id, b.id)] == identity[a.dst]
        ]
        if not invs:
            raise GpdLawViolation(f"2-cell {a.id!r} is not invertible")
        inverse[a.id] = invs[0]
    return Gpd(cells, arrows, vcompose, identity, inverse)


_EMPTY_GPD = Gpd((), (), {}, {}, {})


@dataclass(frozen=True)
class GpdCategory:
    objects: tuple[str, ...]
    homs: dict[tuple[str, str], Gpd]
    identities: dict[str, str]
    hcompose_cells: dict[tuple[str, str], str]
    hcompose_arrows: dict[tuple[str, str], str]

    def __post_init__(self):
        cell_loc, arrow_loc, arrow_obj = {}, {}, {}
        cells_global, arrows_global = [], []
        for (x, y), g in self.homs.items():
            for c in g.cells:
                cell_loc[c] = (x, y)
                cells_global.append(c)
            for a in g.arrows:
                arrow_loc[a.id] = (x, y)
                arrow_obj[a.id] = a
                arrows_global.append(a.id)
        object.__setattr__(self, "_cell_loc", cell_loc)
        object.__setattr__(self, "_arrow_loc", arrow_loc)
        object.__setattr__(self, "_arrow", arrow_obj)
        object.__setattr__(self, "_cells_global", tuple(cells_global))
        object.__setattr__(self, "_arrows_global", tuple(arrows_global))

    def hom(self, x: str, y: str) -> Gpd:
        return self.homs.get((x, y), _EMPTY_GPD)

    def cell_loc(self, c: str) -> tuple[str, str]:
        return self._cell_loc[c]

    def arrow(self, a: str) -> TwoCell:
        return self._arrow[a]

    def id2(self, cell: str) -> str:
        x, y = self._cell_loc[cell]
        return self.homs[(x, y)].identity[cell]

    def vcomp(self, b: str, a: str) -> str:
        loc = self._arrow_loc[a]
        return self.homs[loc].vcompose[(b, a)]

    def hcomp(self, g: str, f: str) -> str:
        return self.hcompose_cells[(g, f)]

    def hcomp2(self, beta: str, alpha: str) -> str:
        return self.hcompose_arrows[(beta, alpha)]


def check_gcat(G: GpdCategory) -> None:
    if len(set(G.objects)) != len(G.objects):
        raise GpdLawViolation("duplicate object identifiers")
    objset = set(G.objects)
    for (x, y) in G.homs:
        if x not in objset or y not in objset:
            raise GpdLawViolation(f"hom key ({x!r}, {y!r}) names unknown objects")
    if len(set(G._cells_global)) != len(G._cells_global):
        raise GpdLawViolation("1-cell identifiers are not globally unique")
    if len(set(G._arrows_global)) != len(G._arrows_global):
        raise GpdLawViolation("2-cell identifiers are not globally unique")
    for x in G.objects:
        e = G.identities.get(x)
        if e is None or G._cell_loc.get(e) != (x, x):
            raise GpdLawViolation(f"object {x!r} lacks an identity 1-cell in hom({x!r}, {x!r})")
    # horizontal composition of 1-cells: totality, endpoints, units, associativity
    for (g, f), gf in G.hcompose_cells.items():
        if f not in G._cell_loc or g not in G._cell_loc or gf not in G._cell_loc:
            raise GpdLawViolation(f"hcompose entry ({g}, {f}) references unknown 1-cells")
        (x, y), (y2, z) = G._cell_loc[f], G._cell_loc[g]
        if y != y2:
            raise GpdLawViolation(f"hcompose entry ({g}, {f}) is not composable")
        if G._cell_loc[gf] != (x, z):
            raise GpdLawViolation(f"hcompose entry ({g}, {f}) lands in the wrong hom")
    for f in G._cells_global:
        x, y = G._cell_loc[f]
        for g in G._cells_global:
            if G._cell_loc[g][0] != y:
                continue
            if (g, f) not in G.hcompose_cells:
                raise GpdLawViolation(f"hcompose is missing the pair ({g}, {f})")
    for f in G._cells_global:
        x, y = G._cell_loc[f]
        if G.hcomp(G.identities[y], f) != f or G.hcomp(f, G.identities[x]) != f:
            raise GpdLawViolation(f"horizontal unit law fails at 1-cell {f!r}")
    for f in G._cells_global:
        for g in G._cells_global:
            if G._cell_loc[g][0] != G._cell_loc[f][1]:
                continue
            gf = G.hcomp(g, f)
            for h in G._cells_global:
                if G._cell_loc[h][0] != G._cell_loc[g][1]:
                    continue
                if G.hcomp(h, gf) != G.hcomp(G.hcomp(h, g), f):
                    raise GpdLawViolation("horizontal composition of 1-cells is not associative")
    # horizontal composition of 2-cells: totality, endpoints, functoriality
    for (b, a), c in G.hcompose_arrows.items():
        if a not in G._arrow_loc or b not in G._arrow_loc or c not in G._arrow_loc:
            raise GpdLawViolation(f"hcompose entry ({b}, {a}) references unknown 2-cells")
        (x, y), (y2, z) = G._arrow_loc[a], G._arrow_loc[b]
        if y != y2:
            raise GpdLawViolation(f"2-cell hcompose entry ({b}, {a}) is not composable")
        aa, bb, cc = G.arrow(a), G.arrow(b), G.arrow(c)
        if G._arrow_loc[c] != (x, z):
            raise GpdLawViolation(f"2-cell hcompose entry ({b}, {a}) lands in the wrong hom")
        if cc.src != G.hcomp(bb.src, aa.src) or cc.dst != G.hcomp(bb.dst, aa.dst):
            raise GpdLawViolation(f"2-cell hcompose entry ({b}, {a}) has wrong endpoints")
    for a in G._arrows_global:
        (x, y) = G._arrow_loc[a]
        for b in G._arrows_global:
            if G._arrow_loc[b][0] != y:
                continue
            if (b, a) not in G.hcompose_arrows:
                raise GpdLawViolation(f"2-cell hcompose is missing the pair ({b}, {a})")
    for f in G._cells_global:
        for g in G._cells_global:
            if G._cell_loc[g][0] != G._cell_loc[f][1]:
                continue
            if G.hcomp2(G.id2(g), G.id2(f)) != G.id2(G.hcomp(g, f)):
                raise GpdLawViolation(f"identity 2-cells are not preserved over ({g}, {f})")
    for a in G._arrows_global:
        for b in G._arrows_global:
            if G._arrow_loc[b][0] != G._arrow_loc[a][1]:
                continue
            ba = G.hcomp2(b, a)
            for c in G._arrows_global:
                if G._arrow_loc[c][0] != G._arrow_loc[b][1]:
                    continue
                if G.hcomp2(c, ba) != G.hcomp2(G.hcomp2(c, b), a):
                    raise GpdLawViolation("horizontal composition of 2-cells is not associative")
    # unit 2-cells of identity 1-cells act trivially
    for a in G._arrows_global:
        x, y = G._arrow_loc[a]
        if G.hcomp2(G.id2(G.identities[y]), a) != a:
            raise GpdLawViolation(f"left horizontal unit fails at 2-cell {a!r}")
        if G.hcomp2(a, G.id2(G.identities[x])) != a:
            raise GpdLawViolation(f"right horizontal unit fails at 2-cell {a!r}")
    # interchange
    for (x, y), gxy in G.homs.items():
        for (y2, z), gyz in G.homs.items():
            if y2 != y:
                continue
            for a in gxy.arrows:
                for a2 in gxy.arrows:
                    if a.dst != a2.src:
                        continue
                    for b in gyz.arrows:
                        for b2 in gyz.arrows:
                            if b.dst != b2.src:
                                continue
                            lhs = G.hcomp2(G.vcomp(b2.id, b.id), G.vcomp(a2.id, a.id))
                            rhs = G.vcomp(G.hcomp2(b2.id, a2.id), G.hcomp2(b.id, a.id))
                            if lhs != rhs:
                                raise GpdLawViolation("interchange law fails")


def validate_gcat(raw: dict) -> GpdCategory:
    """Validate the JSON form of a groupoid-enriched category.

    Hom keys are "x|y"; each hom carries "cells", "twocells" and the
    vertical table "compose2"; horizontal composition sits in "hcompose"
    with per-level tables "cells" and "twocells".
    """
    objects = list(raw["objects"])
    for x in objects:
        if "|" in x:
            raise GpdLawViolation(f"object id {x!r} may not contain '|'")
    homs = {}
    for key, data in raw.get("homs", {}).items():
        parts = key.split("|")
        if len(parts) != 2:
            raise GpdLawViolation(f"hom key {key!r} is not of the form 'x|y'")
        x, y = parts
        homs[(x, y)] = _build_gpd(
            data.get("cells", []),
            [(t["id"], t["src"], t["dst"]) for t in data.get("twocells", [])],
            {(b, a): c for b, a, c in data.get("compose2", [])},
        )
    hc = raw.get("hcompose", {})
    G = GpdCategory(
        objects=tuple(objects),
        homs=homs,
        identities=dict(raw.get("identities", {})),
        hcompose_cells={(g, f): gf for g, f, gf in hc.get("cells", [])},
        hcompose_arrows={(b, a): c for b, a, c in hc.get("twocells", [])},
    )
    check_gcat(G)
    return G


def gcat_to_dict(G: GpdCategory) -> dict:
    return {
        "objects": list(G.objects),
        "homs": {
            f"{x}|{y}": {
                "cells": list(g.cells),
                "twocells": [{"id": a.id, "src": a.src, "dst": a.dst} for a in g.arrows],
                "compose2": [[b, a, c] for (b, a), c in g.vcompose.items()],
            }
            for (x, y), g in G.homs.items()
        },
        "identities": dict(G.identities),
        "hcompose": {
            "cells": [[g, f, gf] for (g, f), gf in G.hcompose_cells.items()],
            "twocells": [[b, a, c] for (b, a), c in G.hcompose_arrows.items()],
        },
    }


def embed(C: FinCategory) -> GpdCategory:
    """A finite category as an enriched one with discrete hom groupoids.

    Identity 2-cells are named id2_<morphism>.  When each hom's morphisms
    are declared contiguously (true of every fixture in this project), the
    homotopy category of the result reproduces C on the nose.
    """
    id2 = lambda m: f"id2_{m}"
    parts: dict[tuple[str, str], list[str]] = {}
    for m in C.morphisms:
        parts.setdefault((m.src, m.dst), []).append(m.id)
    homs = {
        loc: _build_gpd(
            cells,
            [(id2(m), m, m) for m in cells],
            {(id2(m), id2(m)): id2(m) for m in cells},
        )
        for loc, cells in parts.items()
    }
    G = GpdCategory(
        objects=C.objects,
        homs=homs,
        identities=dict(C.identity),
        hcompose_cells=dict(C.compose_table),
        hcompose_arrows={(id2(g), id2(f)): id2(gf) for (g, f), gf in C.compose_table.items()},
    )
    check_gcat(G)
    return G


def is_discrete(G: GpdCategory) -> bool:
    return all(len(g.arrows) == len(g.cells) for g in G.homs.values())


# -- enriched functors ---------------------------------------------------


@dataclass(frozen=True)
class GpdFunctor:
    source: GpdCategory
    target: GpdCategory
    obj_map: dict[str, str]
    cell_map: dict[str, str]
    arrow_map: dict[str, str]


def check_gfunctor(F: GpdFunctor) -> None:
    S, T = F.source, F.target
    for x in S.objects:
        if F.obj_map.get(x) not in T.objects:
            raise GpdLawViolation(f"object {x!r} has no valid image")
    for c in S._cells_global:
        x, y = S.cell_loc(c)
        img = F.cell_map.get(c)
        if img is None or T._cell_loc.get(img) != (F.obj_map[x], F.obj_map[y]):
            raise GpdLawViolation(f"1-cell {c!r} has no valid image")
    for a in S._arrows_global:
        x, y = S._arrow_loc[a]
        img = F.arrow_map.get(a)
        if img is None or T._arrow_loc.get(img) != (F.obj_map[x], F.obj_map[y]):
            raise GpdLawViolation(f"2-cell {a!r} has no valid image")
        cell = S.arrow(a)
        tc = T.arrow(img)
        if tc.src != F.cell_map[cell.src] or tc.dst != F.cell_map[cell.dst]:
            raise GpdLawViolation(f"2-cell {a!r} image has wrong endpoints")
    for x in S.objects:
        if F.cell_map[S.identities[x]] != T.identities[F.obj_map[x]]:
            raise GpdLawViolation(f"identity 1-cell of {x!r} is not preserved")
    for c in S._cells_global:
        if F.arrow_map[S.id2(c)] != T.id2(F.cell_map[c]):
            raise GpdLawViolation(f"identity 2-cell of {c!r} is not preserved")
    for (g, f), gf in S.hcompose_cells.items():
        if T.hcomp(F.cell_map[g], F.cell_map[f]) != F.cell_map[gf]:
            raise GpdLawViolation(f"horizontal composite ({g}, {f}) is not preserved")
    for (b, a), c in S.hcompose_arrows.items():
        if T.hcomp2(F.arrow_map[b], F.arrow_map[a]) != F.arrow_map[c]:
            raise GpdLawViolation(f"2-cell horizontal composite ({b}, {a}) is not preserved")
    for g in S.homs.values():
        for (b, a), c in g.vcompose.items():
            if T.vcomp(F.arrow_map[b], F.arrow_map[a]) != F.arrow_map[c]:
                raise GpdLawViolation(f"vertical composite ({b}, {a}) is not preserved")


def validate_gfunctor(raw: dict, S: GpdCategory | None = None, T: GpdCategory | None = None) -> GpdFunctor:
    if S is None:
        S = validate_gcat(raw["source"])
    if T is None:
        T = validate_gcat(raw["target"])
    F = GpdFunctor(S, T, dict(raw["obj_map"]), dict(raw["cell_map"]), dict(raw["arrow_map"]))
    check_gfunctor(F)
    return F


def embed_functor(F: FinFunctor) -> GpdFunctor:
    id2 = lambda m: f"id2_{m}"
    G = GpdFunctor(
        embed(F.source),
        embed(F.target),
        dict(F.obj_map),
        dict(F.mor_map),
        {id2(m): id2(fm) for m, fm in F.mor_map.items()},
    )
    check_gfunctor(G)
    return G


def identity_gfunctor(G: GpdCategory) -> GpdFunctor:
    return GpdFunctor(
        G,
        G,
        {x: x for x in G.objects},
        {c: c for c in G._cells_global},
        {a: a for a in G._arrows_global},
    )


def compose_gfunctors(G: GpdFunctor, F: GpdFunctor) -> GpdFunctor:
    if G.source != F.target:
        raise GpdLawViolation("enriched functors are not composable")
    return GpdFunctor(
        F.source,
        G.target,
        {x: G.obj_map[y] for x, y in F.obj_map.items()},
        {c: G.cell_map[d] for c, d in F.cell_map.items()},
        {a: G.arrow_map[b] for a, b in F.arrow_map.items()},
    )


# -- mapping invariants and classification --------------------------------


@dataclass(frozen=True)
class MappingInvariants:
    """Connectivity data of the mapping groupoid between two objects."""

    components: int
    automorphism_orders: tuple[int, ...]

    @property
    def contractible(self) -> bool:
        return self.components == 1 and self.automorphism_orders[0] == 1

    @property
    def nonempty_connected(self) -> bool:
        return self.components == 1


@dataclass(frozen=True)
class ObjectClassification:
    initial: bool
    h_initial: bool
    weakly_initial_singleton: bool


def _components(g: Gpd) -> list[list[str]]:
    return components(g.cells, ((a.src, a.dst) for a in g.arrows))


def mapping_invariants(G: GpdCategory, x: str, y: str) -> MappingInvariants:
    if x not in G.objects or y not in G.objects:
        raise UnknownObject(f"({x!r}, {y!r}) are not objects")
    g = G.hom(x, y)
    comps = _components(g)
    orders = tuple(len(g.arrows_between(comp[0], comp[0])) for comp in comps)
    return MappingInvariants(len(comps), orders)


def classify_object(G: GpdCategory, x: str) -> ObjectClassification:
    """Initial, h-initial, and weakly-initial-singleton flags for x.

    The implications initial => h_initial => weakly_initial_singleton hold
    by construction of the three quantifiers.
    """
    invs = [mapping_invariants(G, x, y) for y in G.objects]
    return ObjectClassification(
        initial=all(i.contractible for i in invs),
        h_initial=all(i.nonempty_connected for i in invs),
        weakly_initial_singleton=all(i.components >= 1 for i in invs),
    )


# -- homotopy category -----------------------------------------------------


@dataclass(frozen=True)
class HomotopyResult:
    category: FinCategory
    cell_class: dict[str, str]  # 1-cell -> representative morphism id


def homotopy_category(G: GpdCategory) -> HomotopyResult:
    """Quotient each hom groupoid to its components.

    Morphism ids are the first 1-cell of each component in declared order;
    the induced composition is checked to be independent of representatives.
    """
    cell_class: dict[str, str] = {}
    reps: list[str] = []
    members: dict[str, list[str]] = {}
    for (x, y), g in G.homs.items():
        for comp in _components(g):
            rep = comp[0]
            for c in comp:
                cell_class[c] = rep
            members[rep] = comp
    order = {c: i for i, c in enumerate(G._cells_global)}
    reps = sorted(members, key=lambda r: order[r])
    morphisms = [Morphism(r, *G.cell_loc(r)) for r in reps]
    identity = {x: cell_class[G.identities[x]] for x in G.objects}
    compose = {}
    for g in reps:
        for f in reps:
            if G.cell_loc(f)[1] != G.cell_loc(g)[0]:
                continue
            value = cell_class[G.hcomp(g, f)]
            for g2 in members[g]:
                for f2 in members[f]:
                    if cell_class[G.hcomp(g2, f2)] != value:
                        raise InvariantViolation(
                            "composition does not descend to hom components"
                        )
            compose[(g, f)] = value
    C = build_category(G.objects, [(m.id, m.src, m.dst) for m in morphisms], identity, compose)
    return HomotopyResult(C, cell_class)


def homotopy_functor(G: GpdFunctor) -> FinFunctor:
    """The induced functor between homotopy categories."""
    hs = homotopy_category(G.source)
    ht = homotopy_category(G.target)
    mor_map = {}
    for cell, rep in hs.cell_class.items():
        img = ht.cell_class[G.cell_map[cell]]
        if mor_map.setdefault(rep, img) != img:
            raise InvariantViolation("cell map does not descend to components")
    F = FinFunctor(hs.category, ht.category, dict(G.obj_map), mor_map)
    check_functor_laws(F)
    return F


# -- enriched comma categories ---------------------------------------------


@dataclass(frozen=True)
class EnrichedComma:
    base: GpdCategory
    anchor: str
    pairs: dict[str, tuple[str, str]]  # comma object -> (object, 1-cell)
    cell_info: dict[str, tuple[str, str]]  # comma 1-cell -> (phi, alpha)
    arrow_info: dict[str, str]  # comma 2-cell -> underlying 2-cell


def enriched_comma_under(G: GpdFunctor, c: str) -> EnrichedComma:
    """The enriched comma under an anchor object.

    Objects are 1-cells u: c -> G d.  A 1-cell (d, u) -> (d', u') is a pair
    of a 1-cell phi: d -> d' and a 2-cell alpha: G(phi) o u => u'.  A
    2-cell between such pairs is a 2-cell m: phi => phi' whose whiskering
    pastes the two alphas together on the nose (strict enrichment).
    """
    D, Ccal = G.source, G.target
    if c not in Ccal.objects:
        raise UnknownObject(f"{c!r} is not an object of the target")
    obj_id = lambda d, u: f"({d},{u})"
    objects, pairs = [], {}
    for d in D.objects:
        for u in Ccal.hom(c, G.obj_map[d]).cells:
            o = obj_id(d, u)
            objects.append(o)
            pairs[o] = (d, u)

    cell_id = lambda phi, alpha, o: f"({phi},{alpha})@{o}"
    cell_info: dict[str, tuple[str, str]] = {}
    cell_endpoints: dict[str, tuple[str, str]] = {}
    hom_cells: dict[tuple[str, str], list[str]] = {}
    for o in objects:
        d, u = pairs[o]
        for o2 in objects:
            d2, u2 = pairs[o2]
            target_hom = Ccal.hom(c, G.obj_map[d2])
            for phi in D.hom(d, d2).cells:
                comp = Ccal.hcomp(G.cell_map[phi], u)
                for alpha in target_hom.arrows:
                    if alpha.src != comp or alpha.dst != u2:
                        continue
                    cid = cell_id(phi, alpha.id, o)
                    cell_info[cid] = (phi, alpha.id)
                    cell_endpoints[cid] = (o, o2)
                    hom_cells.setdefault((o, o2), []).append(cid)

    arrow_id = lambda m, cid: f"({m})@{cid}"
    arrow_info: dict[str, str] = {}
    hom_arrows: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
    for cid, (phi, alpha) in cell_info.items():
        o, o2 = cell_endpoints[cid]
        d, u = pairs[o]
        d2, _ = pairs[o2]
        hom_d = D.hom(d, d2)
        for m in hom_d.arrows:
            if m.src != phi:
                continue
            # the target is forced: alpha == alpha' . (G(m) * 1_u), so
            # alpha' = alpha . (G(m) * 1_u)^{-1}, using invertibility
            w = Ccal.hcomp2(G.arrow_map[m.id], Ccal.id2(u))
            loc_w = Ccal._arrow_loc[w]
            winv = Ccal.homs[loc_w].inverse[w]
            alpha2 = Ccal.vcomp(alpha, winv)
            tgt = cell_id(m.dst, alpha2, o)
            if tgt not in cell_info:
                raise InvariantViolation("comma 2-cell target is not a comma 1-cell")
            aid = arrow_id(m.id, cid)
            arrow_info[aid] = m.id
            hom_arrows.setdefault((o, o2), []).append((aid, cid, tgt))

    homs = {}
    for loc, cs in hom_cells.items():
        arrows = hom_arrows.get(loc, [])
        vcomp = {}
        by_src: dict[str, list[tuple[str, str, str]]] = {}
        for aid, s, t in arrows:
            by_src.setdefault(s, []).append((aid, s, t))
        for aid, s, t in arrows:
            for bid, s2, t2 in by_src.get(t, ()):
                comp_m = D.vcomp(arrow_info[bid], arrow_info[aid])
                vcomp[(bid, aid)] = arrow_id(comp_m, s)
        homs[loc] = _build_gpd(cs, [(aid, s, t) for aid, s, t in arrows], vcomp)

    identities = {}
    for o in objects:
        d, u = pairs[o]
        identities[o] = cell_id(D.identities[d], Ccal.id2(u), o)

    hcomp_cells = {}
    for (o, o2), cs in hom_cells.items():
        for (o2b, o3), cs2 in hom_cells.items():
            if o2b != o2:
                continue
            for f in cs:
                phi, alpha = cell_info[f]
                for g in cs2:
                    psi, beta = cell_info[g]
                    comp_phi = D.hcomp(psi, phi)
                    d, u = pairs[o]
                    w = Ccal.hcomp2(Ccal.id2(G.cell_map[psi]), alpha)
                    comp_alpha = Ccal.vcomp(beta, w)
                    hcomp_cells[(g, f)] = cell_id(comp_phi, comp_alpha, o)

    hcomp_arrows = {}
    for (o, o2), arrows in hom_arrows.items():
        for (o2b, o3), arrows2 in hom_arrows.items():
            if o2b != o2:
                continue
            for aid, s, t in arrows:
                for bid, s2, t2 in arrows2:
                    comp_m = D.hcomp2(arrow_info[bid], arrow_info[aid])
                    src_cell = hcomp_cells[(s2, s)]
                    hcomp_arrows[(bid, aid)] = arrow_id(comp_m, src_cell)

    base = GpdCategory(tuple(objects), homs, identities, hcomp_cells, hcomp_arrows)
    check_gcat(base)
    return EnrichedComma(base, c, pairs, cell_info, arrow_info)


# -- decision procedures -----------------------------------------------------


@dataclass(frozen=True)
class HInitialReport:
    holds: bool
    witnesses: dict[str, str | None]  # anchor -> h-initial comma object


@dataclass(frozen=True)
class GaftFinResult:
    exists: bool
    table: dict[str, dict]
    witness: str | None


@dataclass(frozen=True)
class ReflectionReport:
    applies: bool
    reflects: bool | None
    witness: str | None


@dataclass(frozen=True)
class CompareReport:
    h_result: GaftResult
    full_result: GaftFinResult
    limits_flag: bool | None
    consistent: bool | None


@dataclass(frozen=True)
class InvarianceReport:
    enriched_has_set: bool
    ordinary_has_set: bool
    transfer_down_ok: bool
    transfer_up_ok: bool
    enriched_set: tuple[str, ...]
    ordinary_set: tuple[str, ...]


def h_initial_condition(G: GpdFunctor) -> HInitialReport:
    """The first h-initial object of each enriched comma, read from the
    `"h_initial"` column of `gaft_fin_decide`'s table."""
    witnesses = {c: row["h_initial"] for c, row in gaft_fin_decide(G).table.items()}
    return HInitialReport(all(w is not None for w in witnesses.values()), witnesses)


def gaft_fin_decide(G: GpdFunctor) -> GaftFinResult:
    """Adjoint existence at the enriched level, per anchor.

    Existence needs an object of each enriched comma whose mapping data is
    contractible everywhere.  The table also records the h-initial search
    and flags anchors where the two disagree; on such anchors the comma
    necessarily lacks finite limits, since with them h-initial objects
    would already be initial.
    """
    table: dict[str, dict] = {}
    witness = None
    for c in G.target.objects:
        comma = enriched_comma_under(G, c)
        initial = h_init = None
        for o in comma.base.objects:
            cls = classify_object(comma.base, o)
            if cls.initial and initial is None:
                initial = o
            if cls.h_initial and h_init is None:
                h_init = o
        table[c] = {
            "initial": initial,
            "h_initial": h_init,
            "diverges": (initial is None) != (h_init is None),
        }
        if initial is None and witness is None:
            witness = c
    return GaftFinResult(witness is None, table, witness)


def comparison_functor(G: GpdFunctor, c: str) -> tuple[FinFunctor, FunctorProfile]:
    """The functor from the homotopy category of the enriched comma to the
    ordinary comma of the homotopy functor.

    Surjectivity on objects, fullness and conservativity hold by
    construction and are asserted; whether parallel pairs can be equalized
    is exactly what the profile is for.
    """
    ec = enriched_comma_under(G, c)
    h_ec = homotopy_category(ec.base)
    hG = homotopy_functor(G)
    oc = comma_under(hG, c)
    hs = homotopy_category(G.source)
    ht = homotopy_category(G.target)

    oc_by_pair = {pair: o for o, pair in oc.pairs.items()}
    obj_map = {}
    for o in h_ec.category.objects:
        d, u = ec.pairs[o]
        obj_map[o] = oc_by_pair[(d, ht.cell_class[u])]
    mor_map = {}
    for rep in h_ec.category.morphism_ids():
        phi, _alpha = ec.cell_info[rep]
        src_o, dst_o = h_ec.category.src(rep), h_ec.category.dst(rep)
        mor_map[rep] = f"({hs.cell_class[phi]}):{obj_map[src_o]}>{obj_map[dst_o]}"
    F = FinFunctor(h_ec.category, oc.base, obj_map, mor_map)
    check_functor_laws(F)
    profile = functor_profile(F)
    if not (profile.surjective_on_objects and profile.full and profile.conservative):
        raise InvariantViolation("comparison functor lost a construction-level property")
    return F, profile


def initial_reflection_check(F: FinFunctor) -> ReflectionReport:
    """Check initial-object reflection under the four-part hypothesis.

    Applies only when F is surjective on objects, full, conservative, and
    its source equalizes parallel pairs; when it does not apply, no
    reflection claim is made.
    """
    profile = functor_profile(F)
    applies = (
        profile.surjective_on_objects
        and profile.full
        and profile.conservative
        and profile.equalizing_pairs
    )
    if not applies:
        return ReflectionReport(False, None, None)
    src_init = set(limits.initial_objects(F.source))
    tgt_init = set(limits.initial_objects(F.target))
    for x in F.source.objects:
        if (x in src_init) != (F.obj_map[x] in tgt_init):
            return ReflectionReport(True, False, x)
    return ReflectionReport(True, True, None)


def homotopy_adjoint_compare(
    G: GpdFunctor, preserves_finite_limits: bool | None = None
) -> CompareReport:
    """Compare adjoint existence for G and for its homotopy functor.

    The finite-limit-preservation hypothesis is not computed at the
    enriched level; it enters as a caller-supplied flag.  Instances with
    discrete homs are auto-flagged through the limits module.  When the
    flag is absent, consistency is reported as not applicable (None).
    """
    hG = homotopy_functor(G)
    h_result = gaft_decide(hG)
    full_result = gaft_fin_decide(G)
    flag = preserves_finite_limits
    if flag is None and is_discrete(G.source) and is_discrete(G.target):
        if limits.has_finite_limits(hG.source).ok:
            flag = limits.preserves_limits(hG, "all-finite").ok
        else:
            flag = False
    consistent = None
    if flag:
        consistent = not (h_result.exists and not full_result.exists)
    return CompareReport(h_result, full_result, flag, consistent)


# -- weakly initial sets of 1-cell objects ----------------------------------


def _object_reaches(G: GpdCategory, x: str, y: str) -> bool:
    return bool(G.hom(x, y).cells)


def is_weakly_initial_objects(G: GpdCategory, members) -> bool:
    members = list(members)
    return all(any(_object_reaches(G, x, y) for x in members) for y in G.objects)


def weakly_initial_object_sets(G: GpdCategory) -> list[tuple[str, ...]]:
    """Inclusion-minimal sets of objects reaching everything by a 1-cell."""
    return minimal_sets(G.objects, lambda members: is_weakly_initial_objects(G, members))


def solution_set_invariance(G: GpdFunctor, c: str) -> InvarianceReport:
    """Weakly initial sets transfer between the enriched comma and the
    ordinary comma of the homotopy functor, in both directions.

    Down: images of a weakly initial set of comma objects.  Up: canonical
    representatives of a weakly initial set of the ordinary comma.  Both
    transferred sets are re-verified against the definition on the other
    side.
    """
    ec = enriched_comma_under(G, c)
    hG = homotopy_functor(G)
    ht = homotopy_category(G.target)
    oc = comma_under(hG, c)

    e_sets = weakly_initial_object_sets(ec.base)
    o_sets = limits.weakly_initial_sets(oc.base)
    enriched_has = bool(e_sets)
    ordinary_has = bool(o_sets)

    oc_by_pair = {pair: o for o, pair in oc.pairs.items()}
    down_ok = False
    e_first: tuple[str, ...] = ()
    if enriched_has:
        e_first = e_sets[0]
        image = tuple(oc_by_pair[(ec.pairs[o][0], ht.cell_class[ec.pairs[o][1]])] for o in e_first)
        down_ok = limits.is_weakly_initial(oc.base, image)

    up_ok = False
    o_first: tuple[str, ...] = ()
    if ordinary_has:
        o_first = o_sets[0]
        lifted = tuple(f"({oc.pairs[o][0]},{oc.pairs[o][1]})" for o in o_first)
        up_ok = is_weakly_initial_objects(ec.base, lifted)

    return InvarianceReport(enriched_has, ordinary_has, down_ok, up_ok, e_first, o_first)
