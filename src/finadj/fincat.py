"""Finite categories and functors with total composition tables.

A category is stored with every composite materialized, so the three
categorical laws and every notion derived from them reduce to finite loops.
Input with a partial table (generators plus some declared composites) is
completed through the congruence closure in `presentation`.

Object and morphism identifiers are arbitrary strings.  All canonical
choices made anywhere in the engine break ties by declared order, so equal
inputs always produce byte-equal outputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

DEFAULT_CLOSURE_BOUND = 10_000


class CategoryError(Exception):
    """Base class for structural defects in category or functor data."""


class MissingComposite(CategoryError):
    """A compose entry is absent, malformed, or references unknown data."""


class AssociativityViolation(CategoryError):
    pass


class IdentityViolation(CategoryError):
    pass


class ClosureBoundExceeded(CategoryError):
    """Closure generated more distinct morphisms than the configured cap."""


class UnknownObject(CategoryError):
    pass


class NotFunctorial(CategoryError):
    pass


class ShapeError(CategoryError):
    """Decoded JSON lacks the documented shape; the message names the path."""


def check_shape(value, schema, path: str = "$") -> None:
    """Check decoded JSON against a schema before anything indexes into it.

    A schema is a type (`str`, `int`, `dict`), `[s]` for a list of values
    matching s, a tuple `(s1, ..., sn)` for a list of exactly n values
    matching s1..sn in turn (tuples pass for lists, as internal callers
    build them), `{str: s}` for an object whose values match s,
    or `{"key": s, ...}` for an object with those keys, where a key written
    with a trailing "?" may be absent.  Raises ShapeError naming the first
    offending path, such as `$.morphisms[2]`.
    """
    if isinstance(schema, type):
        if not isinstance(value, schema):
            raise ShapeError(f"{path}: expected {schema.__name__}, got {type(value).__name__}")
    elif isinstance(schema, (list, tuple)):
        if not isinstance(value, (list, tuple)):
            raise ShapeError(f"{path}: expected a list, got {type(value).__name__}")
        if isinstance(schema, tuple) and len(value) != len(schema):
            raise ShapeError(f"{path}: expected {len(schema)} entries, got {len(value)}")
        for i, v in enumerate(value):
            check_shape(v, schema[0] if isinstance(schema, list) else schema[i], f"{path}[{i}]")
    elif not isinstance(value, dict):
        raise ShapeError(f"{path}: expected an object, got {type(value).__name__}")
    elif str in schema:
        for k, v in value.items():
            check_shape(v, schema[str], f"{path}.{k}")
    else:
        for key, s in schema.items():
            name = key.rstrip("?")
            if name in value:
                check_shape(value[name], s, f"{path}.{name}")
            elif not key.endswith("?"):
                raise ShapeError(f"{path}: missing key {name!r}")


_CATEGORY_SHAPE = {
    "objects?": [str],
    "morphisms?": [{"id": str, "src": str, "dst": str}],
    "identities?": {str: str},
    "compose?": [(str, str, str)],
}
_FUNCTOR_SHAPE = {"source?": dict, "target?": dict, "obj_map": {str: str}, "mor_map?": {str: str}}


@dataclass(frozen=True)
class Morphism:
    id: str
    src: str
    dst: str


@dataclass(frozen=True)
class FinCategory:
    """A finite category: ordered objects, ordered morphisms, total table.

    `compose_table[(g, f)]` is g after f, defined exactly when
    dst(f) == src(g).  Instances are treated as immutable after
    construction.
    """

    objects: tuple[str, ...]
    morphisms: tuple[Morphism, ...]
    identity: dict[str, str]
    compose_table: dict[tuple[str, str], str]

    def __post_init__(self):
        mor = {m.id: m for m in self.morphisms}
        hom: dict[tuple[str, str], list[str]] = {}
        for m in self.morphisms:
            hom.setdefault((m.src, m.dst), []).append(m.id)
        object.__setattr__(self, "_mor", mor)
        object.__setattr__(self, "_hom", {k: tuple(v) for k, v in hom.items()})
        object.__setattr__(self, "_identity_ids", frozenset(self.identity.values()))
        object.__setattr__(self, "_obj_index", {x: i for i, x in enumerate(self.objects)})
        inverse = {}
        for m in self.morphisms:
            unit_src, unit_dst = self.identity.get(m.src), self.identity.get(m.dst)
            if unit_src is None or unit_dst is None:
                continue
            for n in self._hom.get((m.dst, m.src), ()):
                if (
                    self.compose_table.get((n, m.id)) == unit_src
                    and self.compose_table.get((m.id, n)) == unit_dst
                ):
                    inverse[m.id] = n
                    break
        object.__setattr__(self, "_inverse", inverse)

    # -- basic accessors -------------------------------------------------

    def src(self, m: str) -> str:
        return self._mor[m].src

    def dst(self, m: str) -> str:
        return self._mor[m].dst

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._hom.get((x, y), ())

    def compose(self, g: str, f: str) -> str:
        try:
            return self.compose_table[(g, f)]
        except KeyError:
            raise MissingComposite(f"compose({g}, {f}) is not defined") from None

    def id_of(self, x: str) -> str:
        return self.identity[x]

    def is_identity(self, m: str) -> bool:
        return m in self._identity_ids

    def is_iso(self, m: str) -> bool:
        return m in self._inverse

    def inverse(self, m: str) -> str:
        return self._inverse[m]

    def has_object(self, x: str) -> bool:
        return x in self._obj_index

    def has_morphism(self, m: str) -> bool:
        return m in self._mor

    def nonidentity(self) -> tuple[str, ...]:
        return tuple(m.id for m in self.morphisms if m.id not in self._identity_ids)

    def morphism_ids(self) -> tuple[str, ...]:
        return tuple(m.id for m in self.morphisms)

    def composable_pairs(self) -> Iterator[tuple[str, str]]:
        """All (g, f) with dst(f) == src(g), in declared order."""
        for f in self.morphisms:
            for g in self.morphisms:
                if f.dst == g.src:
                    yield (g.id, f.id)

    def to_dict(self) -> dict:
        return {
            "objects": list(self.objects),
            "morphisms": [{"id": m.id, "src": m.src, "dst": m.dst} for m in self.morphisms],
            "identities": dict(self.identity),
            "compose": [[g, f, gf] for (g, f), gf in self.compose_table.items()],
        }


def check_laws(C: FinCategory) -> None:
    """Re-assert the category laws on an already built value.

    Raises the matching error on the first violated law.  Used after every
    internal construction so nothing depends on a constructor being right.
    """
    for x in C.objects:
        e = C.identity.get(x)
        if e is None or not C.has_morphism(e):
            raise IdentityViolation(f"object {x!r} has no identity morphism")
        if C.src(e) != x or C.dst(e) != x:
            raise IdentityViolation(f"identity {e!r} of {x!r} is not an endomorphism of it")
    stray = C.identity.keys() - C._obj_index.keys()
    if stray:
        raise UnknownObject(f"identities are declared for unknown objects {sorted(stray)}")
    for m in C.morphisms:
        if not C.has_object(m.src) or not C.has_object(m.dst):
            raise UnknownObject(f"morphism {m.id!r} has unknown endpoints")
    for (g, f), gf in C.compose_table.items():
        if not (C.has_morphism(g) and C.has_morphism(f) and C.has_morphism(gf)):
            raise MissingComposite(f"compose entry ({g}, {f}) -> {gf} references unknown morphisms")
        if C.dst(f) != C.src(g):
            raise MissingComposite(f"compose entry ({g}, {f}) is not composable")
        if C.src(gf) != C.src(f) or C.dst(gf) != C.dst(g):
            raise MissingComposite(
                f"compose({g}, {f}) = {gf} has endpoints "
                f"{C.src(gf)!r}->{C.dst(gf)!r}, expected {C.src(f)!r}->{C.dst(g)!r}"
            )
    for g, f in C.composable_pairs():
        if (g, f) not in C.compose_table:
            raise MissingComposite(f"no compose entry for composable pair ({g}, {f})")
    for m in C.morphisms:
        if C.compose(m.id, C.identity[m.src]) != m.id:
            raise IdentityViolation(f"{m.id} o id_{C.src(m.id)} != {m.id}")
        if C.compose(C.identity[m.dst], m.id) != m.id:
            raise IdentityViolation(f"id_{C.dst(m.id)} o {m.id} != {m.id}")
    for f in C.morphisms:
        for g in C.morphisms:
            if g.src != f.dst:
                continue
            gf = C.compose(g.id, f.id)
            for h in C.morphisms:
                if h.src != g.dst:
                    continue
                if C.compose(h.id, gf) != C.compose(C.compose(h.id, g.id), f.id):
                    raise AssociativityViolation(
                        f"h o (g o f) != (h o g) o f for (h, g, f) = ({h.id}, {g.id}, {f.id})"
                    )


def build_category(
    objects: Iterable[str],
    morphisms: Iterable[tuple[str, str, str]],
    identity: Mapping[str, str],
    compose: Mapping[tuple[str, str], str],
    check: bool = True,
) -> FinCategory:
    """Assemble a FinCategory from parts already known to be total."""
    C = FinCategory(
        objects=tuple(objects),
        morphisms=tuple(Morphism(*m) for m in morphisms),
        identity=dict(identity),
        compose_table=dict(compose),
    )
    if check:
        check_laws(C)
    return C


def validate_category(
    raw: Mapping,
    closure_bound: int = DEFAULT_CLOSURE_BOUND,
    require_total: bool = False,
) -> FinCategory:
    """Validate raw category data and return a law-abiding FinCategory.

    `raw` carries the keys "objects", "morphisms", "identities", "compose".
    If the compose table only covers some composable pairs, the remaining
    composites are synthesized by congruence closure over the declared
    generators, subject to `closure_bound`.  With `require_total` a partial
    table is an error instead.
    """
    check_shape(raw, _CATEGORY_SHAPE)
    objects = list(raw.get("objects", []))
    if len(set(objects)) != len(objects):
        raise UnknownObject("duplicate object identifiers")
    raw_mors = [(m["id"], m["src"], m["dst"]) for m in raw.get("morphisms", [])]
    ids = [m[0] for m in raw_mors]
    if len(set(ids)) != len(ids):
        raise MissingComposite("duplicate morphism identifiers")
    known = set(ids)
    obj_set = set(objects)
    for mid, src, dst in raw_mors:
        if src not in obj_set or dst not in obj_set:
            raise UnknownObject(f"morphism {mid!r} has endpoints outside the object list")
    identity = dict(raw.get("identities", {}))
    for x in objects:
        if x not in identity:
            raise IdentityViolation(f"object {x!r} has no declared identity")
        if identity[x] not in known:
            raise IdentityViolation(f"identity of {x!r} is not a declared morphism")
    endpoints = {mid: (src, dst) for mid, src, dst in raw_mors}
    for x, e in identity.items():
        if x not in obj_set:
            raise UnknownObject(f"identity {e!r} is declared for unknown object {x!r}")
        if endpoints[e] != (x, x):
            raise IdentityViolation(f"identity {e!r} of {x!r} is not an endomorphism of it")

    table: dict[tuple[str, str], str] = {}
    for entry in raw.get("compose", []):
        g, f, gf = entry
        if g not in known or f not in known or gf not in known:
            raise MissingComposite(f"compose entry ({g}, {f}) -> {gf} references unknown morphisms")
        if endpoints[f][1] != endpoints[g][0]:
            raise MissingComposite(f"compose entry ({g}, {f}) is not composable")
        if table.get((g, f), gf) != gf:
            raise MissingComposite(f"conflicting compose entries for ({g}, {f})")
        table[(g, f)] = gf

    # identity composites are always forced, so fill them before deciding
    # whether the declared table is total
    identity_ids = set(identity.values())
    forced = dict(table)
    for mid, (src, dst) in endpoints.items():
        forced.setdefault((identity[dst], mid), mid)
        forced.setdefault((mid, identity[src]), mid)
    total = all(
        (g, f) in forced
        for g in ids
        for f in ids
        if endpoints[f][1] == endpoints[g][0]
    )
    if not total and require_total:
        raise MissingComposite("composition table is partial and closure was disabled")

    if total:
        for (g, f), gf in table.items():
            if g in identity_ids and gf != f:
                raise IdentityViolation(f"id o {f} declared as {gf}")
            if f in identity_ids and gf != g:
                raise IdentityViolation(f"{g} o id declared as {gf}")
        C = FinCategory(
            objects=tuple(objects),
            morphisms=tuple(Morphism(*m) for m in raw_mors),
            identity=identity,
            compose_table=forced,
        )
        check_laws(C)
        return C

    from .presentation import close_presentation

    generators = [(mid, src, dst) for mid, src, dst in raw_mors if mid not in identity_ids]

    def as_path(mid: str) -> tuple[str, ...]:
        return () if mid in identity_ids else (mid,)

    relations = []
    for (g, f), gf in table.items():
        relations.append((endpoints[f][0], as_path(f) + as_path(g), as_path(gf)))
    C = close_presentation(
        objects=objects,
        generators=generators,
        relations=relations,
        identity_names={x: identity[x] for x in objects},
        bound=closure_bound,
    )
    check_laws(C)
    return C


def hom_set(C: FinCategory, x: str, y: str) -> tuple[str, ...]:
    """Morphism ids from x to y, in declared order."""
    if not C.has_object(x):
        raise UnknownObject(f"{x!r} is not an object")
    if not C.has_object(y):
        raise UnknownObject(f"{y!r} is not an object")
    return C.hom(x, y)


def opposite(C: FinCategory) -> FinCategory:
    """Reverse every morphism.  An involution: opposite(opposite(C)) == C."""
    return FinCategory(
        objects=C.objects,
        morphisms=tuple(Morphism(m.id, m.dst, m.src) for m in C.morphisms),
        identity=dict(C.identity),
        compose_table={(f, g): h for (g, f), h in C.compose_table.items()},
    )


# -- functors ------------------------------------------------------------


@dataclass(frozen=True)
class FinFunctor:
    source: FinCategory
    target: FinCategory
    obj_map: dict[str, str]
    mor_map: dict[str, str]

    def obj(self, x: str) -> str:
        return self.obj_map[x]

    def mor(self, m: str) -> str:
        return self.mor_map[m]

    def to_dict(self) -> dict:
        return {
            "source": self.source.to_dict(),
            "target": self.target.to_dict(),
            "obj_map": dict(self.obj_map),
            "mor_map": dict(self.mor_map),
        }


@dataclass(frozen=True)
class FunctorProfile:
    """Exhaustively quantified structural flags of a functor.

    `full` and `faithful` are the hom-wise notions: surjectivity and
    injectivity of every map hom(x, y) -> hom(Fx, Fy).  `equalizing_pairs`
    is a property of the source: every parallel pair f, g admits some u
    with f o u == g o u.
    """

    surjective_on_objects: bool
    full: bool
    faithful: bool
    conservative: bool
    equalizing_pairs: bool


def check_functor_laws(F: FinFunctor) -> None:
    C, D = F.source, F.target
    stray = (F.obj_map.keys() - C._obj_index.keys()) | (F.mor_map.keys() - C._mor.keys())
    if stray:
        raise NotFunctorial(f"{sorted(stray)} are assigned images but are not in the source")
    for x in C.objects:
        if F.obj_map.get(x) is None or not D.has_object(F.obj_map[x]):
            raise NotFunctorial(f"object {x!r} has no valid image")
    for m in C.morphisms:
        fm = F.mor_map.get(m.id)
        if fm is None or not D.has_morphism(fm):
            raise NotFunctorial(f"morphism {m.id!r} has no valid image")
        if D.src(fm) != F.obj_map[m.src] or D.dst(fm) != F.obj_map[m.dst]:
            raise NotFunctorial(f"image of {m.id!r} has wrong endpoints")
    for x in C.objects:
        if F.mor_map[C.id_of(x)] != D.id_of(F.obj_map[x]):
            raise NotFunctorial(f"identity of {x!r} is not sent to an identity")
    for (g, f), gf in C.compose_table.items():
        if D.compose(F.mor_map[g], F.mor_map[f]) != F.mor_map[gf]:
            raise NotFunctorial(f"composite {g} o {f} is not preserved")


def validate_functor(raw: Mapping, C: FinCategory | None = None, D: FinCategory | None = None) -> FinFunctor:
    """Validate functor data, extending a generator-level morphism map.

    Identities are filled in from the object map and missing composites are
    saturated from the declared entries; any conflict or unreachable
    morphism raises NotFunctorial naming the offender.
    """
    check_shape(raw, _FUNCTOR_SHAPE)
    if C is None:
        C = validate_category(raw["source"])
    if D is None:
        D = validate_category(raw["target"])
    obj_map = dict(raw["obj_map"])
    for x in C.objects:
        if x not in obj_map:
            raise NotFunctorial(f"object {x!r} has no image")
        if not D.has_object(obj_map[x]):
            raise NotFunctorial(f"image of object {x!r} is unknown")
    mor_map = dict(raw.get("mor_map", {}))
    for m, fm in mor_map.items():
        if not C.has_morphism(m) or not D.has_morphism(fm):
            raise NotFunctorial(f"morphism map entry {m!r} -> {fm!r} references unknown morphisms")
    for x in C.objects:
        e = C.id_of(x)
        want = D.id_of(obj_map[x])
        if mor_map.setdefault(e, want) != want:
            raise NotFunctorial(f"identity of {x!r} must map to {want!r}")
    changed = True
    while changed:
        changed = False
        for (g, f), gf in C.compose_table.items():
            if g in mor_map and f in mor_map:
                img = D.compose_table.get((mor_map[g], mor_map[f]))
                if img is None:
                    raise NotFunctorial(f"images of ({g}, {f}) are not composable")
                if gf not in mor_map:
                    mor_map[gf] = img
                    changed = True
                elif mor_map[gf] != img:
                    raise NotFunctorial(f"composite {g} o {f} = {gf} is not preserved")
    missing = [m.id for m in C.morphisms if m.id not in mor_map]
    if missing:
        raise NotFunctorial(f"no assignment reaches morphisms {missing}")
    F = FinFunctor(C, D, obj_map, mor_map)
    check_functor_laws(F)
    return F


def identity_functor(C: FinCategory) -> FinFunctor:
    return FinFunctor(C, C, {x: x for x in C.objects}, {m.id: m.id for m in C.morphisms})


def compose_functors(G: FinFunctor, F: FinFunctor) -> FinFunctor:
    if G.source is not F.target and G.source != F.target:
        raise NotFunctorial("functors are not composable")
    return FinFunctor(
        F.source,
        G.target,
        {x: G.obj_map[y] for x, y in F.obj_map.items()},
        {m: G.mor_map[n] for m, n in F.mor_map.items()},
    )


def opposite_functor(F: FinFunctor) -> FinFunctor:
    """The same assignments read between the opposite categories."""
    return FinFunctor(opposite(F.source), opposite(F.target), dict(F.obj_map), dict(F.mor_map))


def functor_profile(F: FinFunctor) -> FunctorProfile:
    C, D = F.source, F.target
    surjective = all(any(F.obj_map[x] == d for x in C.objects) for d in D.objects)
    full = True
    faithful = True
    for x in C.objects:
        for y in C.objects:
            fx, fy = F.obj_map[x], F.obj_map[y]
            images = [F.mor_map[m] for m in C.hom(x, y)]
            if set(D.hom(fx, fy)) - set(images):
                full = False
            if len(set(images)) != len(images):
                faithful = False
    conservative = all(
        C.is_iso(m.id) for m in C.morphisms if D.is_iso(F.mor_map[m.id])
    )
    equalizing = True
    for d in C.objects:
        for d2 in C.objects:
            pairs = C.hom(d, d2)
            for f, g in itertools.combinations(pairs, 2):
                if not any(
                    C.compose(f, u) == C.compose(g, u)
                    for w in C.objects
                    for u in C.hom(w, d)
                ):
                    equalizing = False
    return FunctorProfile(surjective, full, faithful, conservative, equalizing)


# -- generic searches used across the engine ------------------------------


def minimal_sets(items: Sequence[str], holds: Callable[[tuple[str, ...]], bool]) -> list[tuple[str, ...]]:
    """All inclusion-minimal subsets satisfying `holds`, by size, then in
    lexicographic order of positions in `items`.

    `holds` must be upward-closed: every superset of a satisfying set
    satisfies it.  Then a set is minimal exactly when no subset one element
    smaller satisfies it, so only those are tested.
    """
    out = []
    for size in range(len(items) + 1):
        for members in itertools.combinations(items, size):
            if holds(members) and not any(
                holds(members[:k] + members[k + 1 :]) for k in range(size)
            ):
                out.append(members)
    return out


def components(nodes: Sequence[str], edges: Iterable[tuple[str, str]]) -> list[list[str]]:
    """Connected components of an undirected graph, by union-find.

    Each component lists its nodes in the order of `nodes`, and components
    come in the order of their first node.
    """
    index = {x: i for i, x in enumerate(nodes)}
    parent = list(range(len(index)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        ra, rb = find(index[a]), find(index[b])
        if ra != rb:
            # the least index stays the root, so roots order the components
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[str]] = {}
    for x in nodes:
        groups.setdefault(find(index[x]), []).append(x)
    return list(groups.values())


def natural_transformations(F: FinFunctor, G: FinFunctor) -> Iterator[dict[str, str]]:
    """All natural transformations F => G as per-object component maps."""
    C, D = F.source, F.target
    choices = [D.hom(F.obj_map[x], G.obj_map[x]) for x in C.objects]
    for combo in itertools.product(*choices):
        eta = dict(zip(C.objects, combo))
        if all(
            D.compose(G.mor_map[m.id], eta[m.src]) == D.compose(eta[m.dst], F.mor_map[m.id])
            for m in C.morphisms
        ):
            yield eta


def naturally_isomorphic(F: FinFunctor, G: FinFunctor) -> bool:
    D = F.target
    return any(
        all(D.is_iso(c) for c in eta.values()) for eta in natural_transformations(F, G)
    )


def isomorphic(C: FinCategory, D: FinCategory) -> bool:
    """Whether two finite categories are isomorphic (strictly, not merely
    equivalent), by backtracking over object and hom bijections."""
    if len(C.objects) != len(D.objects) or len(C.morphisms) != len(D.morphisms):
        return False
    return _iso_objects(C, D, {}, list(C.objects))


def _iso_objects(C, D, omap, remaining):
    if not remaining:
        return _iso_morphisms(C, D, omap)
    x = remaining[0]
    used = set(omap.values())
    for y in D.objects:
        if y in used:
            continue
        omap[x] = y
        ok = all(
            len(C.hom(a, b)) == len(D.hom(omap[a], omap[b]))
            for a in omap
            for b in omap
        )
        if ok and _iso_objects(C, D, omap, remaining[1:]):
            return True
        del omap[x]
    return False


def _iso_morphisms(C, D, omap):
    homs = [(x, y, C.hom(x, y)) for x in C.objects for y in C.objects if C.hom(x, y)]
    return _iso_hom_assign(C, D, omap, homs, 0, {})


def _iso_hom_assign(C, D, omap, homs, i, mmap):
    if i == len(homs):
        for (g, f), gf in C.compose_table.items():
            if D.compose(mmap[g], mmap[f]) != mmap[gf]:
                return False
        return True
    x, y, ms = homs[i]
    targets = D.hom(omap[x], omap[y])
    for perm in itertools.permutations(targets):
        trial = dict(zip(ms, perm))
        if any(C.is_identity(m) != D.is_identity(v) for m, v in trial.items()):
            continue
        mmap.update(trial)
        if _iso_hom_assign(C, D, omap, homs, i + 1, mmap):
            return True
        for m in ms:
            del mmap[m]
    return False

