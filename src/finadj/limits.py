"""Universal-property search on finite categories.

Everything here is decided by exhaustive enumeration of cones or cocones.
That is deliberate: these routines double as the trusted oracle for the
adjoint-functor machinery, so they trade speed for being direct unfoldings
of the definitions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fincat import (
    CategoryError,
    FinCategory,
    FinFunctor,
    identity_functor,
    minimal_sets,
    validate_category,
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
class Cocone:
    """A cocone with positional legs out of the listed source objects."""

    apex: str
    legs: tuple[str, ...]


@dataclass(frozen=True)
class FiniteLimitsReport:
    ok: bool
    missing: tuple | None


@dataclass(frozen=True)
class PreservationReport:
    ok: bool
    counterexample: dict | None


# -- canonical diagram shapes ---------------------------------------------

_EMPTY_SHAPE = validate_category({"objects": [], "morphisms": [], "identities": {}, "compose": []})

_DISC2_SHAPE = validate_category(
    {
        "objects": ["j0", "j1"],
        "morphisms": [{"id": "1j0", "src": "j0", "dst": "j0"}, {"id": "1j1", "src": "j1", "dst": "j1"}],
        "identities": {"j0": "1j0", "j1": "1j1"},
        "compose": [],
    }
)

_PARALLEL_SHAPE = validate_category(
    {
        "objects": ["j0", "j1"],
        "morphisms": [
            {"id": "1j0", "src": "j0", "dst": "j0"},
            {"id": "1j1", "src": "j1", "dst": "j1"},
            {"id": "ja", "src": "j0", "dst": "j1"},
            {"id": "jb", "src": "j0", "dst": "j1"},
        ],
        "identities": {"j0": "1j0", "j1": "1j1"},
        "compose": [],
    }
)

_COSPAN_SHAPE = validate_category(
    {
        "objects": ["j0", "j1", "jc"],
        "morphisms": [
            {"id": "1j0", "src": "j0", "dst": "j0"},
            {"id": "1j1", "src": "j1", "dst": "j1"},
            {"id": "1jc", "src": "jc", "dst": "jc"},
            {"id": "jl", "src": "j0", "dst": "jc"},
            {"id": "jr", "src": "j1", "dst": "jc"},
        ],
        "identities": {"j0": "1j0", "j1": "1j1", "jc": "1jc"},
        "compose": [],
    }
)


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
    J = diagram.source
    out = []
    jobs = list(J.objects)
    arrows = [m for m in J.morphisms if not J.is_identity(m.id)]
    for apex in C.objects:
        choices = [C.hom(apex, diagram.obj_map[j]) for j in jobs]
        for combo in itertools.product(*choices):
            legs = dict(zip(jobs, combo))
            if all(
                C.compose(diagram.mor_map[m.id], legs[m.src]) == legs[m.dst]
                for m in arrows
            ):
                out.append(Cone(diagram, apex, legs))
    return out


def _mediators(C: FinCategory, frm: Cone, to: Cone) -> list[str]:
    return [
        m
        for m in C.hom(frm.apex, to.apex)
        if all(C.compose(to.legs[j], m) == frm.legs[j] for j in to.legs)
    ]


def is_limit_cone(C: FinCategory, cone: Cone, all_cones: list[Cone] | None = None) -> bool:
    if all_cones is None:
        all_cones = cones(C, cone.diagram)
    return all(len(_mediators(C, other, cone)) == 1 for other in all_cones)


def limit(C: FinCategory, diagram: FinFunctor) -> list[Cone]:
    """All limit cones of the diagram (terminal objects among all cones)."""
    cs = cones(C, diagram)
    return [c for c in cs if is_limit_cone(C, c, cs)]


def initial_objects(C: FinCategory) -> list[str]:
    """Objects with exactly one morphism to every object."""
    return [x for x in C.objects if all(len(C.hom(x, y)) == 1 for y in C.objects)]


def terminal_objects(C: FinCategory) -> list[str]:
    return [x for x in C.objects if all(len(C.hom(y, x)) == 1 for y in C.objects)]


def identity_limit_cones(C: FinCategory) -> list[Cone]:
    return limit(C, identity_functor(C))


def limit_of_identity(C: FinCategory) -> Cone | None:
    """A limit cone over the identity diagram, if one exists.

    The apex set of all such cones coincides with `initial_objects`; the
    first cone in canonical order is returned.
    """
    ls = identity_limit_cones(C)
    return ls[0] if ls else None


def product_cones(C: FinCategory, x: str, y: str) -> list[Cone]:
    return limit(C, pair_diagram(C, x, y))


def equalizer_cones(C: FinCategory, f: str, g: str) -> list[Cone]:
    return limit(C, parallel_diagram(C, f, g))


def has_finite_limits(C: FinCategory) -> FiniteLimitsReport:
    """Check the generating triple: terminal object, binary products,
    equalizers.  The witness names the first missing limit."""
    if not terminal_objects(C):
        return FiniteLimitsReport(False, ("terminal",))
    for i, x in enumerate(C.objects):
        for y in C.objects[i:]:
            if not product_cones(C, x, y):
                return FiniteLimitsReport(False, ("product", x, y))
    for x in C.objects:
        for y in C.objects:
            ms = C.hom(x, y)
            for f, g in itertools.combinations(ms, 2):
                if not equalizer_cones(C, f, g):
                    return FiniteLimitsReport(False, ("equalizer", f, g))
    return FiniteLimitsReport(True, None)


def _image_cone(G: FinFunctor, cone: Cone) -> Cone:
    from .fincat import compose_functors

    return Cone(
        compose_functors(G, cone.diagram),
        G.obj_map[cone.apex],
        {j: G.mor_map[leg] for j, leg in cone.legs.items()},
    )


def _limit_instances(C: FinCategory, kind: str):
    if kind == "terminal":
        yield ("terminal", (), empty_diagram(C))
    elif kind == "products":
        for i, x in enumerate(C.objects):
            for y in C.objects[i:]:
                yield ("product", (x, y), pair_diagram(C, x, y))
    elif kind == "equalizers":
        for x in C.objects:
            for y in C.objects:
                for f, g in itertools.combinations(C.hom(x, y), 2):
                    yield ("equalizer", (f, g), parallel_diagram(C, f, g))
    elif kind == "pullbacks":
        for f in C.morphisms:
            for g in C.morphisms:
                if f.dst == g.dst:
                    yield ("pullback", (f.id, g.id), cospan_diagram(C, f.id, g.id))
    else:
        raise ValueError(f"unknown limit kind {kind!r}")


KINDS = ("terminal", "products", "equalizers", "pullbacks")


def preserves_limits(G: FinFunctor, kind: str = "all-finite") -> PreservationReport:
    """Whether G sends every limit cone of the given kind to a limit cone.

    Raises LimitAbsentInSource when the source lacks one of the limits
    being checked.
    """
    kinds = KINDS if kind == "all-finite" else (kind,)
    C = G.source
    for k in kinds:
        for name, data, diagram in _limit_instances(C, k):
            ls = limit(C, diagram)
            if not ls:
                raise LimitAbsentInSource(f"source has no {name} for {data}")
            for cone in ls:
                img = _image_cone(G, cone)
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
    """All inclusion-minimal weakly initial sets, in canonical order."""
    return minimal_sets(C.objects, lambda members: is_weakly_initial(C, members))


# -- cocones, weak pushouts, coproducts ------------------------------------


def span_cocones(C: FinCategory, f: str, g: str) -> list[Cocone]:
    """All commuting cocones under the span given by f and g (common source)."""
    if C.src(f) != C.src(g):
        raise CategoryError(f"{f!r} and {g!r} do not form a span")
    out = []
    for w in C.objects:
        for p in C.hom(C.dst(f), w):
            for q in C.hom(C.dst(g), w):
                if C.compose(p, f) == C.compose(q, g):
                    out.append(Cocone(w, (p, q)))
    return out


def _cocone_mediators(C: FinCategory, frm: Cocone, to: Cocone, srcs) -> list[str]:
    return [
        m
        for m in C.hom(frm.apex, to.apex)
        if all(C.compose(m, frm.legs[i]) == to.legs[i] for i in range(len(srcs)))
    ]


def weak_pushout(C: FinCategory, f: str, g: str) -> list[Cocone]:
    """Cocones through which every cocone under the span factors.

    Only existence of the factorization is required, matching the weak
    universal property."""
    cs = span_cocones(C, f, g)
    legs = (C.dst(f), C.dst(g))
    return [
        c for c in cs if all(_cocone_mediators(C, c, other, legs) for other in cs)
    ]


def pushouts(C: FinCategory, f: str, g: str) -> list[Cocone]:
    """Genuine pushout cocones (unique factorization)."""
    cs = span_cocones(C, f, g)
    legs = (C.dst(f), C.dst(g))
    return [
        c
        for c in cs
        if all(len(_cocone_mediators(C, c, other, legs)) == 1 for other in cs)
    ]


def pair_cocones(C: FinCategory, x: str, y: str) -> list[Cocone]:
    return [
        Cocone(w, (i1, i2))
        for w in C.objects
        for i1 in C.hom(x, w)
        for i2 in C.hom(y, w)
    ]


def coproduct_cocones(C: FinCategory, x: str, y: str) -> list[Cocone]:
    cs = pair_cocones(C, x, y)
    return [
        c
        for c in cs
        if all(len(_cocone_mediators(C, c, other, (x, y))) == 1 for other in cs)
    ]
