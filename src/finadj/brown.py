"""Desk-scale representability checks.

`check_B1` and `check_B2` test the necessity conditions a representable
contravariant set-valued functor must satisfy: coproducts go to products
bijectively and pushouts to weak pullbacks surjectively.  Representability
itself is decided by searching over objects and universal elements, never
asserted from the two conditions, so verdicts always name which side was
actually computed.  On finite input sufficiency is a theorem all the same:
a finite category with an initial object and binary coproducts is a
preorder (see `check_B1p_B2p`), and there B1 alone forces F to be
represented by the join of its support.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterator, Mapping

from . import limits
from .fincat import (
    CategoryError,
    FinCategory,
    FinFunctor,
    UnknownObject,
    check_shape,
    functor_space,
    minimal_transversals,
    opposite,
    opposite_functor,
    search,
)

MAX_SET_SIZE = 2  # `exhaustive_representability_check`'s default bound on value sets


class CoproductAbsent(CategoryError):
    pass


class PushoutAbsent(CategoryError):
    pass


class ColimitAbsent(CategoryError):
    pass


@dataclass(frozen=True)
class SetFunctor:
    """A contravariant functor to finite sets, as explicit tables.

    `on_morphisms[f]` for f: x -> y is the restriction F(y) -> F(x).
    """

    base: FinCategory
    on_objects: dict[str, tuple[str, ...]]
    on_morphisms: dict[str, dict[str, str]]

    def at(self, x: str) -> tuple[str, ...]:
        return self.on_objects[x]

    def restrict(self, f: str, elt: str) -> str:
        return self.on_morphisms[f][elt]

    def to_dict(self) -> dict:
        return {
            "on_objects": {x: list(v) for x, v in self.on_objects.items()},
            "on_morphisms": {f: dict(t) for f, t in self.on_morphisms.items()},
        }


def validate_set_functor(C: FinCategory, raw: Mapping) -> SetFunctor:
    check_shape(raw, {"on_objects": {str: [str]}, "on_morphisms": {str: {str: str}}})
    on_objects = {x: tuple(v) for x, v in raw["on_objects"].items()}
    on_morphisms = {f: dict(t) for f, t in raw["on_morphisms"].items()}
    stray = [x for x in on_objects if not C.has_object(x)] + [f for f in on_morphisms if not C.has_morphism(f)]
    if stray:
        raise CategoryError(f"{sorted(stray)} are assigned values but are not in the category")
    for x, v in on_objects.items():
        if len(set(v)) != len(v):
            raise CategoryError(f"F({x!r}) lists an element more than once")
    for x in C.objects:
        if x not in on_objects:
            raise UnknownObject(f"object {x!r} has no value set")
    for m in C.morphisms:
        t = on_morphisms.get(m.id)
        if t is None:
            raise CategoryError(f"morphism {m.id!r} has no restriction table")
        if set(t) != set(on_objects[m.dst]):
            raise CategoryError(f"restriction along {m.id!r} is not total on F({m.dst!r})")
        if not set(t.values()) <= set(on_objects[m.src]):
            raise CategoryError(f"restriction along {m.id!r} leaves F({m.src!r})")
    for x in C.objects:
        e = C.id_of(x)
        if any(on_morphisms[e][a] != a for a in on_objects[x]):
            raise CategoryError(f"identity of {x!r} does not restrict to the identity")
    for (g, f), gf in C.compose_table.items():
        for a in on_objects[C.dst(g)]:
            if on_morphisms[gf][a] != on_morphisms[f][on_morphisms[g][a]]:
                raise CategoryError(f"contravariant functoriality fails on ({g}, {f})")
    return SetFunctor(C, on_objects, on_morphisms)


def hom_functor(C: FinCategory, a: str) -> SetFunctor:
    """The representable functor of morphisms into a."""
    if not C.has_object(a):
        raise UnknownObject(f"{a!r} is not an object")
    on_objects = {x: C.hom(x, a) for x in C.objects}
    table = C.compose_table  # h: m.dst -> a, so each h o m is defined
    on_morphisms = {m.id: {h: table[h, m.id] for h in on_objects[m.dst]} for m in C.morphisms}
    return SetFunctor(C, on_objects, on_morphisms)


@dataclass(frozen=True)
class ConditionReport:
    ok: bool
    witness: dict | None


def check_B1(C: FinCategory, F: SetFunctor) -> ConditionReport:
    """Finite coproducts (the empty one and all binary ones) must go to
    products bijectively; the empty case pins F at initial objects to a
    single element.  A binary coproduct is a product in the opposite."""
    initials = limits.initial_objects(C)
    if not initials:
        raise CoproductAbsent("no initial object (empty coproduct)")
    for i in initials:
        if len(F.at(i)) != 1:
            return ConditionReport(
                False, {"family": [], "reason": f"F({i}) has {len(F.at(i))} elements"}
            )
    for _, (x, y), cocones in limits.limit_cones(opposite(C), "products"):
        if not cocones:
            raise CoproductAbsent(f"no coproduct of ({x!r}, {y!r})")
        for apex, legs in cocones:
            r1, r2 = F.on_morphisms[legs["j0"]], F.on_morphisms[legs["j1"]]
            seen = {}
            for a in F.at(apex):
                pair = (r1[a], r2[a])
                if pair in seen:
                    return ConditionReport(
                        False,
                        {"family": [x, y], "reason": "canonical map is not injective"},
                    )
                seen[pair] = a
            if len(seen) != len(F.at(x)) * len(F.at(y)):
                return ConditionReport(
                    False,
                    {"family": [x, y], "reason": "canonical map is not surjective"},
                )
    return ConditionReport(True, None)


def check_B2(C: FinCategory, F: SetFunctor) -> ConditionReport:
    """Every pushout square must map to a weak pullback: the canonical map
    to the fiber product of sets must be surjective.  A pushout is a
    pullback in the opposite."""
    for _, (f, g), pos in limits.limit_cones(opposite(C), "pullbacks"):
        if not pos:
            raise PushoutAbsent(f"no pushout of the span ({f!r}, {g!r})")
        rf, rg = F.on_morphisms[f], F.on_morphisms[g]
        for apex, legs in pos:
            p, q = legs["j0"], legs["j1"]
            rp, rq = F.on_morphisms[p], F.on_morphisms[q]
            hit = {(rp[a], rq[a]) for a in F.at(apex)}
            for b in F.at(C.dst(f)):
                for c2 in F.at(C.dst(g)):
                    if rf[b] != rg[c2]:
                        continue
                    if (b, c2) not in hit:
                        return ConditionReport(
                            False,
                            {
                                "square": {"span": [f, g], "apex": apex, "legs": [p, q]},
                                "missing": [b, c2],
                            },
                        )
    return ConditionReport(True, None)


@dataclass(frozen=True)
class RepresentabilityResult:
    found: bool
    representing: str | None
    element: str | None
    components: dict[str, dict[str, str]] | None
    obstructions: dict[str, str]


def representability_search(C: FinCategory, F: SetFunctor) -> RepresentabilityResult:
    """Search all objects and universal elements for a natural bijection.

    A transformation out of a represented functor is determined by the
    image of the identity, so candidates are exactly the elements of F(x);
    each candidate is checked for componentwise bijectivity.
    """
    obstructions = {}
    for x in C.objects:
        reason = None
        for a in F.at(x):
            components = {}
            ok = True
            for y in C.objects:
                comp = {g: F.restrict(g, a) for g in C.hom(y, x)}
                values = list(comp.values())
                if len(set(values)) != len(values) or set(values) != set(F.at(y)):
                    ok = False
                    reason = f"element {a!r} is not universal at {y!r}"
                    break
                components[y] = comp
            if ok:
                return RepresentabilityResult(True, x, a, components, obstructions)
        if reason is None:
            reason = "F(x) has no candidate elements" if not F.at(x) else "no universal element"
        obstructions[x] = reason
    return RepresentabilityResult(False, None, None, None, obstructions)


def weak_generators(C: FinCategory) -> list[tuple[str, ...]]:
    """All minimal sets of objects that jointly detect isomorphisms: the
    minimal transversals of {g : postcomposition with f is no bijection at
    g}, one edge per non-isomorphism f: a -> b.  No edge is empty, so the
    list never is: a bijection at b gives s with f s = id_b, and then
    f (s f) = f id_a with a bijection at a gives s f = id_a, so f is iso."""
    non_isos = [m.id for m in C.morphisms if not C.is_iso(m.id)]

    def detects(g: str, f: str) -> bool:
        table = [C.compose(f, h) for h in C.hom(g, C.src(f))]
        return len(set(table)) != len(table) or set(table) != set(C.hom(g, C.dst(f)))

    return minimal_transversals(C.objects, ([g for g in C.objects if detects(g, f)] for f in non_isos))


@dataclass(frozen=True)
class BrownPropertyReport:
    """Outcome of the experimental exhaustive representability check."""

    functors_checked: int
    passing_both: int
    representable: int
    counterexamples: tuple[dict, ...]

    @property
    def holds(self) -> bool:
        return not self.counterexamples


def set_functors(C: FinCategory, max_set_size: int) -> Iterator[SetFunctor]:
    """Every contravariant functor from C to sets of at most k =
    `max_set_size` elements, F(x) = (x#0, x#1, ...), in `functor_space`
    order.  The sets 0..k give only what `functor_space` reads, a map being
    the tuple of its values: as a `FinCategory` they hold (k^k)^2 composites."""
    sets = SimpleNamespace(
        objects=range(max_set_size + 1),
        id_of=lambda n: tuple(range(n)),
        hom=lambda n, m: list(itertools.product(range(m), repeat=n)),
        compose=lambda g, f: tuple(g[i] for i in f),
    )
    for a in search(*functor_space(opposite(C), sets)):
        at = {x: tuple(f"{x}#{i}" for i in range(a[("o", x)])) for x in C.objects}
        restrict = {m.id: dict(zip(at[m.dst], [at[m.src][i] for i in a[("m", m.id)]])) for m in C.morphisms}
        yield SetFunctor(C, at, restrict)


def exhaustive_representability_check(C: FinCategory, max_set_size: int = MAX_SET_SIZE) -> BrownPropertyReport:
    """Experimentally test whether both conditions force representability.

    Enumerates every contravariant set-valued functor with value sets of at
    most `max_set_size` elements and compares the two conditions against
    the representability search.  Nothing is claimed beyond the enumerated
    range.  Where both conditions can be checked, C is a finite preorder
    with an initial object and binary coproducts, and there B1 alone forces
    representability, so `passing_both == representable` is a theorem.
    """
    checked = passing = representable = 0
    counterexamples = []
    for F in set_functors(C, max_set_size):
        checked += 1
        try:
            both = check_B1(C, F).ok and check_B2(C, F).ok
        except (CoproductAbsent, PushoutAbsent) as exc:
            raise ColimitAbsent(str(exc)) from exc
        if not both:
            continue
        passing += 1
        if representability_search(C, F).found:
            representable += 1
        elif len(counterexamples) < 5:
            counterexamples.append({"on_objects": {x: list(v) for x, v in F.on_objects.items()}})
    return BrownPropertyReport(checked, passing, representable, tuple(counterexamples))


def check_B1p_B2p(F: FinFunctor) -> ConditionReport:
    """Images of coproduct cocones must be coproduct cocones, and images of
    pushout squares must be weak pushouts, in the target.  Both are read as
    limits in the opposite categories, the weak pushouts with `weak`.

    On finite input the pushout stage cannot change the verdict.  It runs
    only on sources with an initial object and binary coproducts, which
    are preorders when finite (hom(x+...+x, w) = hom(x, w)^k must stay
    bounded), and there a pushout is a coproduct whose image already
    passed.  `weak=True` stays because it is Heller's definition of B2'."""
    C, D = F.source, F.target
    initials = limits.initial_objects(C)
    if not initials:
        raise ColimitAbsent("source has no initial object (empty coproduct)")
    for i in initials:
        if F.obj_map[i] not in limits.initial_objects(D):
            return ConditionReport(
                False, {"colimit": "empty coproduct", "image": F.obj_map[i]}
            )
    Fop = opposite_functor(F)
    for kind, colimit, weak in (("products", "coproduct", False), ("pullbacks", "pushout", True)):
        for name, data, ls in limits.limit_cones(Fop.source, kind):
            if not ls:
                raise ColimitAbsent(f"source has no {colimit} of ({data[0]!r}, {data[1]!r})")
            for img in limits.image_cones(Fop, name, data, ls):
                if not limits.is_limit_cone(Fop.target, img, weak=weak):
                    return ConditionReport(
                        False, {"colimit": [colimit, *data], "image_apex": img.apex}
                    )
    return ConditionReport(True, None)
