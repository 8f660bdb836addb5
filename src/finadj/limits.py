"""Universal-property search on finite categories.

Everything here is decided by exhaustive enumeration of cones.  That is
deliberate: these routines double as the trusted oracle for the
adjoint-functor machinery, so they trade speed for being direct unfoldings
of the definitions.  A colimit in C is a limit in `opposite(C)`, and a weak
limit only asks that a mediator exist, so the one cone search also serves
colimits and weak colimits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .fincat import (
    CategoryError,
    FinCategory,
    FinFunctor,
    compose_functors,
    identity_functor,
    kept,
    minimal_transversals,
    search,
    small_category,
)


class LimitAbsentInSource(CategoryError):
    pass


@dataclass(frozen=True)
class Cone:
    """A commuting cone: legs go from the apex to each diagram value."""

    diagram: FinFunctor
    apex: str
    legs: dict[str, str]


@dataclass(frozen=True)
class FiniteLimitsReport:
    ok: bool
    missing: tuple | None


@dataclass(frozen=True)
class PreservationReport:
    ok: bool
    counterexample: dict | None


# -- canonical diagram shapes ---------------------------------------------

_EMPTY_SHAPE = small_category([], [], [])
_DISC2_SHAPE = small_category(["j0", "j1"], [], [])
_PARALLEL_SHAPE = small_category(["j0", "j1"], [("ja", "j0", "j1"), ("jb", "j0", "j1")], [])
_COSPAN_SHAPE = small_category(["j0", "j1", "jc"], [("jl", "j0", "jc"), ("jr", "j1", "jc")], [])


def _diagram(shape: FinCategory, C: FinCategory, obj_map: dict, gens: dict) -> FinFunctor:
    mor_map = {shape.id_of(j): C.id_of(obj_map[j]) for j in shape.objects}
    mor_map.update(gens)
    return FinFunctor(shape, C, obj_map, mor_map)


def empty_diagram(C: FinCategory) -> FinFunctor:
    return FinFunctor(_EMPTY_SHAPE, C, {}, {})


def pair_diagram(C: FinCategory, x: str, y: str) -> FinFunctor:
    return _diagram(_DISC2_SHAPE, C, {"j0": x, "j1": y}, {})


def parallel_diagram(C: FinCategory, f: str, g: str) -> FinFunctor:
    obj_map = {"j0": C.src(f), "j1": C.dst(f)}
    return _diagram(_PARALLEL_SHAPE, C, obj_map, {"ja": f, "jb": g})


def cospan_diagram(C: FinCategory, f: str, g: str) -> FinFunctor:
    obj_map = {"j0": C.src(f), "j1": C.src(g), "jc": C.dst(f)}
    return _diagram(_COSPAN_SHAPE, C, obj_map, {"jl": f, "jr": g})


# -- cones and limits ------------------------------------------------------


def cones(C: FinCategory, diagram: FinFunctor) -> list[Cone]:
    """All cones, by apex and then by legs in object order.  A leg that an
    earlier leg reaches by an arrow of J is computed, not enumerated.  The
    diagram is a functor into C, so a leg to its source and the image of an
    arrow compose: the domains and tests read C's tables directly."""
    J, hom_from, table, mor_map = diagram.source, C.hom_from, C.compose_table, diagram.mor_map
    arrows = [m for m in J.morphisms if m.id not in J._identity_ids]
    domains: dict = {None: C.objects}  # the apex, then one leg per object of J
    for j in J.objects:
        into = next((m for m in arrows if m.dst == j and m.src in domains), None)
        if into:
            domains[j] = lambda a, s=into.src, f=mor_map[into.id]: (table[f, a[s]],)
        else:
            domains[j] = lambda a, x=diagram.obj_map[j]: hom_from(a[None]).get(x, ())
    constraints = [((m.src, m.dst), lambda s, t, f=mor_map[m.id]: table[f, s] == t) for m in arrows]
    return [Cone(diagram, a.pop(None), a) for a in search(domains, constraints)]


def _mediators(C: FinCategory, frm: Cone, to: Cone) -> list[str]:
    """The m: frm.apex -> to.apex with leg o m == frm's leg at each j; each
    leg of `to` starts at to.apex, so its composite with m is defined."""
    table, legs = C.compose_table, to.legs.items()
    return [
        m for m in C.hom_from(frm.apex).get(to.apex, ()) if all(table[leg, m] == frm.legs[j] for j, leg in legs)
    ]


def is_limit_cone(
    C: FinCategory, cone: Cone, all_cones: list[Cone] | None = None, *, weak: bool = False
) -> bool:
    """Whether every cone factors through this one: exactly once, or, when
    `weak`, at least once (the weak universal property)."""
    if all_cones is None:
        all_cones = cones(C, cone.diagram)
    for other in all_cones:
        n = len(_mediators(C, other, cone))
        if n == 0 or (n > 1 and not weak):
            return False
    return True


def limit(C: FinCategory, diagram: FinFunctor, *, weak: bool = False) -> list[Cone]:
    """All limit cones of the diagram (terminal objects among all cones),
    or all weak limit cones when `weak`.  Colimits are limits in
    `opposite(C)`: a coproduct of x and y is a limit of
    `pair_diagram(opposite(C), x, y)`, and a pushout of the span (f, g) a
    limit of `cospan_diagram(opposite(C), f, g)`."""
    cs = cones(C, diagram)
    return [c for c in cs if is_limit_cone(C, c, cs, weak=weak)]


def is_initial(C: FinCategory, x: str) -> bool:
    """Whether x has exactly one morphism to every object: the one
    initiality criterion.  Reads only `C.objects` and `C.hom`, so any value
    with those two will do, and stops at the first hom set that is not a
    singleton."""
    return all(len(C.hom(x, y)) == 1 for y in C.objects)


def initial_objects(C: FinCategory) -> list[str]:
    """The objects that pass `is_initial`, in object order, as a new list.
    They are found on the first call and `kept` by C, as its opposite is:
    the suites ask each category several times."""
    return list(kept(C, "_initial_objects", lambda: tuple(x for x in C.objects if is_initial(C, x))))


def terminal_objects(C: FinCategory) -> list[str]:
    return [x for x in C.objects if all(len(C.hom(y, x)) == 1 for y in C.objects)]


def identity_limit_cones(C: FinCategory) -> list[Cone]:
    return limit(C, identity_functor(C))


def equalizer_cones(C: FinCategory, f: str, g: str) -> list[Cone]:
    return limit(C, parallel_diagram(C, f, g))


def has_finite_limits(C: FinCategory) -> FiniteLimitsReport:
    """Check the generating triple: terminal object, binary products,
    equalizers.  The witness names the first missing limit."""
    for kind in ("terminal", "products", "equalizers"):
        for name, data, ls in limit_cones(C, kind):
            if not ls:
                return FiniteLimitsReport(False, (name, *data))
    return FiniteLimitsReport(True, None)


# the diagram of each instance, from C and the instance's data
_DIAGRAMS = {
    "terminal": empty_diagram,
    "product": pair_diagram,
    "equalizer": parallel_diagram,
    "pullback": cospan_diagram,
}


def _instances(C: FinCategory, kind: str) -> list[tuple[str, tuple]]:
    """(name, data) per instance of `kind`, in `limit_instances` order."""
    if kind == "terminal":
        return [("terminal", ())]
    if kind == "products":
        return [("product", p) for p in itertools.combinations_with_replacement(C.objects, 2)]
    if kind == "equalizers":
        return [("equalizer", p) for x in C.objects for y in C.objects for p in itertools.combinations(C.hom(x, y), 2)]
    if kind == "pullbacks":
        return [
            ("pullback", (f.id, g.id))
            for f, g in itertools.combinations_with_replacement(C.morphisms, 2)
            if f.dst == g.dst
        ]
    raise ValueError(f"unknown limit kind {kind!r}")


def limit_instances(C: FinCategory, kind: str):
    """(name, data, diagram) per instance of `kind`.  A product or pullback
    pair comes once, first member first: its mirror has the same limit cones
    with legs swapped, so `preserves_limits` and `brown`'s checks agree on
    both, and it comes after the pair, so no first failure (witness) moves."""
    for name, data in _instances(C, kind):
        yield name, data, _DIAGRAMS[name](C, *data)


KINDS = ("terminal", "products", "equalizers", "pullbacks")


def image_cones(G: FinFunctor, name: str, data: tuple, ls) -> Iterator[Cone]:
    """G's images of the cones (apex, legs) in `ls` over the instance `name`
    of `data` in G's source, each a cone over G after that instance's diagram."""
    diagram = compose_functors(G, _DIAGRAMS[name](G.source, *data))
    for apex, legs in ls:
        yield Cone(diagram, G.obj_map[apex], {j: G.mor_map[leg] for j, leg in legs.items()})


def limit_cones(C: FinCategory, kind: str) -> Iterator[tuple[str, tuple, tuple[tuple[str, dict], ...]]]:
    """(name, data, limit cones) for each instance of `kind`, in
    `limit_instances` order, each cone as its (apex, legs); C's colimits are
    the table of `opposite(C)`.  The table is `kept` by C, so readers of
    C's limits, interleaved or not, read the cones one computation found.
    It is filled one instance at a time, only as far as a reader reads: a
    reader that stops at an instance without cones computes none past it.
    It holds plain data only, the instances' names and data and each cone's
    apex and legs, and no diagram, cone or paused generator, all of which
    refer back to C, so a category and its table are freed by reference
    counting alone.  A reader that needs the diagram, for images under a
    functor, reads `image_cones`."""
    instances, found = kept(C, f"_limit_cones_{kind}", lambda: (_instances(C, kind), []))
    for i, (name, data) in enumerate(instances):
        if i == len(found):
            found.append(tuple((c.apex, c.legs) for c in limit(C, _DIAGRAMS[name](C, *data))))
        yield name, data, found[i]


def preserves_limits(G: FinFunctor, kind: str = "all-finite") -> PreservationReport:
    """Whether G sends every limit cone of the given kind to a limit cone.

    Raises LimitAbsentInSource when the source lacks one of the limits
    being checked.
    """
    kinds = KINDS if kind == "all-finite" else (kind,)
    C = G.source
    for k in kinds:
        for name, data, ls in limit_cones(C, k):
            if not ls:
                raise LimitAbsentInSource(f"source has no {name} for {data}")
            for img in image_cones(G, name, data, ls):
                if not is_limit_cone(G.target, img):
                    return PreservationReport(
                        False, {"kind": name, "data": data, "apex": img.apex}
                    )
    return PreservationReport(True, None)


# -- weakly initial sets ---------------------------------------------------


def is_weakly_initial(C: FinCategory, members) -> bool:
    members = list(members)
    return all(any(C.hom(x, y) for x in members) for y in C.objects)


def weakly_initial_sets(C: FinCategory) -> list[tuple[str, ...]]:
    """All inclusion-minimal weakly initial sets, in canonical order: the
    minimal transversals of {x : hom(x, y) nonempty}, one edge per y.  In
    closed form: hom(x, y) nonempty is a preorder, and a set is weakly
    initial iff it meets each minimal class (only a class's members lie
    below it, and every y lies above some class, all of whose members reach
    y), so the minimal sets pick one object per minimal class."""
    return minimal_transversals(C.objects, ([x for x in C.objects if C.hom(x, y)] for y in C.objects))
