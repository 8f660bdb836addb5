"""Desk-scale representability checks.

`check_B1` and `check_B2` test the necessity conditions a representable
contravariant set-valued functor must satisfy: coproducts go to products
bijectively and pushouts to weak pullbacks surjectively.  Representability
itself is decided by searching over objects and universal elements, never
asserted from the two conditions: the sufficiency direction has infinitary
hypotheses with no finite content, so verdicts always name which side was
actually computed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from . import limits
from .fincat import CategoryError, FinCategory, FinFunctor, UnknownObject, check_shape, minimal_sets


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
    on_morphisms = {
        m.id: {h: C.compose(h, m.id) for h in C.hom(m.dst, a)} for m in C.morphisms
    }
    return SetFunctor(C, on_objects, on_morphisms)


@dataclass(frozen=True)
class ConditionReport:
    ok: bool
    witness: dict | None


def check_B1(C: FinCategory, F: SetFunctor) -> ConditionReport:
    """Finite coproducts (the empty one and all binary ones) must go to
    products bijectively; the empty case pins F at initial objects to a
    single element."""
    initials = limits.initial_objects(C)
    if not initials:
        raise CoproductAbsent("no initial object (empty coproduct)")
    for i in initials:
        if len(F.at(i)) != 1:
            return ConditionReport(
                False, {"family": [], "reason": f"F({i}) has {len(F.at(i))} elements"}
            )
    for i, x in enumerate(C.objects):
        for y in C.objects[i:]:
            cocones = limits.coproduct_cocones(C, x, y)
            if not cocones:
                raise CoproductAbsent(f"no coproduct of ({x!r}, {y!r})")
            for cc in cocones:
                i1, i2 = cc.legs
                seen = {}
                for a in F.at(cc.apex):
                    pair = (F.restrict(i1, a), F.restrict(i2, a))
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
    to the fiber product of sets must be surjective."""
    for f in C.morphisms:
        for g in C.morphisms:
            if f.src != g.src:
                continue
            pos = limits.pushouts(C, f.id, g.id)
            if not pos:
                raise PushoutAbsent(f"no pushout of the span ({f.id!r}, {g.id!r})")
            for cc in pos:
                p, q = cc.legs
                hit = {
                    (F.restrict(p, a), F.restrict(q, a)) for a in F.at(cc.apex)
                }
                for b in F.at(f.dst):
                    for c2 in F.at(g.dst):
                        if F.restrict(f.id, b) != F.restrict(g.id, c2):
                            continue
                        if (b, c2) not in hit:
                            return ConditionReport(
                                False,
                                {
                                    "square": {
                                        "span": [f.id, g.id],
                                        "apex": cc.apex,
                                        "legs": [p, q],
                                    },
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
    """All minimal sets of objects that jointly detect isomorphisms.

    A set works when every non-isomorphism is sent to a non-bijection by
    postcomposition from at least one member.
    """
    non_isos = [m.id for m in C.morphisms if not C.is_iso(m.id)]

    def detects(g: str, f: str) -> bool:
        table = [C.compose(f, h) for h in C.hom(g, C.src(f))]
        return len(set(table)) != len(table) or set(table) != set(C.hom(g, C.dst(f)))

    detect = {
        (g, f): detects(g, f) for g in C.objects for f in non_isos
    }
    return minimal_sets(
        C.objects,
        lambda members: all(any(detect[(g, f)] for g in members) for f in non_isos),
    )


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


def exhaustive_representability_check(C: FinCategory, max_set_size: int = 2) -> BrownPropertyReport:
    """Experimentally test whether both conditions force representability.

    Enumerates every contravariant set-valued functor with value sets of at
    most `max_set_size` elements and compares the two conditions against
    the representability search.  Nothing is claimed beyond the enumerated
    range; the sufficiency direction has no finite-level theorem behind it.
    """
    elements = lambda x, k: tuple(f"{x}#{i}" for i in range(k))
    nonid = C.nonidentity()
    checked = passing = representable = 0
    counterexamples = []
    for sizes in itertools.product(range(max_set_size + 1), repeat=len(C.objects)):
        on_objects = {x: elements(x, k) for x, k in zip(C.objects, sizes)}
        table_choices = []
        for m in nonid:
            dom = on_objects[C.dst(m)]
            cod = on_objects[C.src(m)]
            if dom and not cod:
                table_choices.append([])
                continue
            table_choices.append(
                [dict(zip(dom, combo)) for combo in itertools.product(cod, repeat=len(dom))]
            )
        if any(not ch for ch in table_choices):
            continue
        for combo in itertools.product(*table_choices):
            on_morphisms = {m: dict(t) for m, t in zip(nonid, combo)}
            for x in C.objects:
                on_morphisms[C.id_of(x)] = {a: a for a in on_objects[x]}
            try:
                F = validate_set_functor(
                    C, {"on_objects": on_objects, "on_morphisms": on_morphisms}
                )
            except CategoryError:
                continue
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
                counterexamples.append({"on_objects": {x: list(v) for x, v in on_objects.items()}})
    return BrownPropertyReport(checked, passing, representable, tuple(counterexamples))


def check_B1p_B2p(F: FinFunctor) -> ConditionReport:
    """Images of coproduct cocones must be coproduct cocones, and images of
    pushout squares must be weak pushouts, in the target."""
    C, D = F.source, F.target
    initials = limits.initial_objects(C)
    if not initials:
        raise ColimitAbsent("source has no initial object (empty coproduct)")
    for i in initials:
        if F.obj_map[i] not in limits.initial_objects(D):
            return ConditionReport(
                False, {"colimit": "empty coproduct", "image": F.obj_map[i]}
            )
    for i, x in enumerate(C.objects):
        for y in C.objects[i:]:
            cocones = limits.coproduct_cocones(C, x, y)
            if not cocones:
                raise ColimitAbsent(f"source has no coproduct of ({x!r}, {y!r})")
            targets = limits.coproduct_cocones(D, F.obj_map[x], F.obj_map[y])
            for cc in cocones:
                img = limits.Cocone(
                    F.obj_map[cc.apex], tuple(F.mor_map[l] for l in cc.legs)
                )
                if img not in targets:
                    return ConditionReport(
                        False, {"colimit": ["coproduct", x, y], "image_apex": img.apex}
                    )
    for f in C.morphisms:
        for g in C.morphisms:
            if f.src != g.src:
                continue
            pos = limits.pushouts(C, f.id, g.id)
            if not pos:
                raise ColimitAbsent(f"source has no pushout of ({f.id!r}, {g.id!r})")
            weak = limits.weak_pushout(D, F.mor_map[f.id], F.mor_map[g.id])
            for cc in pos:
                img = limits.Cocone(
                    F.obj_map[cc.apex], tuple(F.mor_map[l] for l in cc.legs)
                )
                if img not in weak:
                    return ConditionReport(
                        False,
                        {"colimit": ["pushout", f.id, g.id], "image_apex": img.apex},
                    )
    return ConditionReport(True, None)
