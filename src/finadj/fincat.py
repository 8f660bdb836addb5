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

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

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
            s = schema[0] if isinstance(schema, list) else schema[i]
            if not _leaf_holds(v, s):
                check_shape(v, s, f"{path}[{i}]")
    elif not isinstance(value, dict):
        raise ShapeError(f"{path}: expected an object, got {type(value).__name__}")
    elif str in schema:
        s = schema[str]
        for k, v in value.items():
            if not _leaf_holds(v, s):
                check_shape(v, s, f"{path}.{k}")
    else:
        for key, s in schema.items():
            name = key.rstrip("?")
            if name in value:
                if not _leaf_holds(value[name], s):
                    check_shape(value[name], s, f"{path}.{name}")
            elif not key.endswith("?"):
                raise ShapeError(f"{path}: missing key {name!r}")


def _leaf_holds(value, schema) -> bool:
    """Whether `schema` is a type and `value` has it: `check_shape` then
    has nothing to report, so it skips the call and the path it formats."""
    return isinstance(schema, type) and isinstance(value, schema)


_CATEGORY_SHAPE = {
    "objects": [str],
    "morphisms": [{"id": str, "src": str, "dst": str}],
    "identities": {str: str},
    "compose?": [(str, str, str)],
}
_FUNCTOR_SHAPE = {"obj_map": {str: str}, "mor_map?": {str: str}}
# a functor file carries its categories
_FUNCTOR_FILE_SHAPE = {"source": _CATEGORY_SHAPE, "target": _CATEGORY_SHAPE, **_FUNCTOR_SHAPE}
# the hom row of an object with no morphism out of it
_NO_ROW: Mapping[str, tuple[str, ...]] = MappingProxyType({})


@dataclass(frozen=True)
class Morphism:
    id: str
    src: str
    dst: str


@dataclass(frozen=True)
class FinCategory:
    """A finite category: ordered objects, ordered morphisms, total table.

    `compose_table[(g, f)]` is g after f, defined exactly when
    dst(f) == src(g): a reader that has checked the ends may index it
    directly.  Instances are treated as immutable after construction.  The
    hom index is built with the value, in one pass over the morphisms, and
    keyed by source, then by target: `hom_from(x)` is the row of x, a
    mapping from each y with a morphism x -> y to hom(x, y), a tuple in
    declared order, so an empty hom set has no entry.  `hom` reads a row,
    and the loops of the adjoint decision and of its certificate check
    fetch each object's row once and read hom sets from it, with no (x, y)
    key built.  The inverse table behind `is_iso` and `inverse` is
    computed on first use.
    """

    objects: tuple[str, ...]
    morphisms: tuple[Morphism, ...]
    identity: dict[str, str]
    compose_table: dict[tuple[str, str], str]

    def __post_init__(self):
        mor = {m.id: m for m in self.morphisms}
        # a hom set is a 1-tuple until a second morphism joins it, then a
        # list (noted in `grown`) until every morphism is placed
        rows: dict[str, dict] = {}
        grown = []
        for m in self.morphisms:
            row = rows.get(m.src)
            if row is None:
                rows[m.src] = {m.dst: (m.id,)}
            elif m.dst not in row:
                row[m.dst] = (m.id,)
            else:
                ms = row[m.dst]
                if ms.__class__ is list:
                    ms.append(m.id)
                else:
                    row[m.dst] = [*ms, m.id]
                    grown.append((row, m.dst))
        for row, y in grown:
            row[y] = tuple(row[y])
        object.__setattr__(self, "_mor", mor)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_identity_ids", frozenset(self.identity.values()))
        object.__setattr__(self, "_obj_index", {x: i for i, x in enumerate(self.objects)})

    @functools.cached_property
    def _inverse(self) -> dict[str, str]:
        """Each invertible morphism's inverse, found on the first `is_iso` or
        `inverse` call: most categories, commas among them, never ask."""
        inverse, identity, table = {}, self.identity, self.compose_table
        for m in self.morphisms:
            unit_src, unit_dst = identity.get(m.src), identity.get(m.dst)
            if unit_src is None or unit_dst is None:
                continue
            for n in self.hom(m.dst, m.src):
                if table.get((n, m.id)) == unit_src and table.get((m.id, n)) == unit_dst:
                    inverse[m.id] = n
                    break
        return inverse

    # -- basic accessors -------------------------------------------------

    def src(self, m: str) -> str:
        return self._mor[m].src

    def dst(self, m: str) -> str:
        return self._mor[m].dst

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._rows.get(x, _NO_ROW).get(y, ())

    def hom_from(self, x: str) -> Mapping[str, tuple[str, ...]]:
        """The row of x: each y with a morphism x -> y, mapped to hom(x, y)
        in declared order.  It is the index itself, so it is read, never
        changed; an object with no morphism out of it has an empty row."""
        return self._rows.get(x, _NO_ROW)

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

    def to_dict(self) -> dict:
        return {
            "objects": list(self.objects),
            "morphisms": [{"id": m.id, "src": m.src, "dst": m.dst} for m in self.morphisms],
            "identities": dict(self.identity),
            "compose": [[g, f, gf] for (g, f), gf in self.compose_table.items()],
        }


def check_laws(C: FinCategory) -> None:
    """Re-assert the category laws on an already built value.

    Checks, in this order: every object has a declared identity, which is
    a morphism and an endomorphism of it; no identity is declared for an
    unknown object; every morphism has known ends; every compose entry
    names known, composable morphisms and has the right ends; every
    composable pair has an entry; the unit laws; and associativity over
    the composable triples.  Raises the matching error on the first
    violated law.  `validate_category` checks no law of its own: it runs
    the first half, up to the composable pairs, on the declared table, and
    the second on the table once total.  Used after every internal
    construction, so nothing depends on a constructor being right.
    `category_over` does not call it: its construction guarantees most of
    these laws, and it checks the rest itself (see there).
    """
    _check_entries(C)
    _check_total(C)


def _check_entries(C: FinCategory) -> None:
    """The first half of `check_laws`: identities, ends, compose entries."""
    mor, table, identity, objects = C._mor, C.compose_table, C.identity, C._obj_index
    for x in C.objects:
        if x not in identity:
            raise IdentityViolation(f"object {x!r} has no declared identity")
        e = mor.get(identity[x])
        if e is None:
            raise IdentityViolation(f"object {x!r} has no identity morphism")
        if e.src != x or e.dst != x:
            raise IdentityViolation(f"identity {e.id!r} of {x!r} is not an endomorphism of it")
    stray = identity.keys() - objects.keys()
    if stray:
        raise UnknownObject(f"identities are declared for unknown objects {sorted(stray)}")
    for m in C.morphisms:
        if m.src not in objects or m.dst not in objects:
            raise UnknownObject(f"morphism {m.id!r} has unknown endpoints")
    for (g, f), gf in table.items():
        mg, mf, mgf = mor.get(g), mor.get(f), mor.get(gf)
        if mg is None or mf is None or mgf is None:
            raise MissingComposite(f"compose entry ({g}, {f}) -> {gf} references unknown morphisms")
        if mf.dst != mg.src:
            raise MissingComposite(f"compose entry ({g}, {f}) is not composable")
        if mgf.src != mf.src or mgf.dst != mg.dst:
            raise MissingComposite(
                f"compose({g}, {f}) = {gf} has endpoints "
                f"{mgf.src!r}->{mgf.dst!r}, expected {mf.src!r}->{mg.dst!r}"
            )


def _by_source(C: FinCategory) -> dict[str, list[Morphism]]:
    """The morphisms of C by source, in declared order: only composable
    pairs and triples are visited through it."""
    out: dict[str, list[Morphism]] = {}
    for m in C.morphisms:
        out.setdefault(m.src, []).append(m)
    return out


def _missing_composite(C: FinCategory, out: dict[str, list[Morphism]]) -> tuple[str, str] | None:
    """The first composable pair (g, f), by f then g, with no compose entry,
    or None; `out` is `_by_source(C)`."""
    table = C.compose_table
    pairs = ((g.id, f.id) for f in C.morphisms for g in out.get(f.dst, ()))
    return next((p for p in pairs if p not in table), None)


def _check_total(C: FinCategory) -> None:
    """The second half of `check_laws`, on a C that passed the first: every
    composable pair has an entry (`_missing_composite`), then the unit laws
    and associativity (`_check_units_and_associativity`).  Only the first
    of these raises MissingComposite."""
    out = _by_source(C)
    missing = _missing_composite(C, out)
    if missing is not None:
        raise MissingComposite("no compose entry for composable pair (%s, %s)" % missing)
    _check_units_and_associativity(C, out)


def _check_units_and_associativity(C: FinCategory, out: dict[str, list[Morphism]]) -> None:
    """The unit laws, then associativity, on a C with an entry for every
    composable pair, so every index below is safe; `out` is `_by_source(C)`."""
    table, identity = C.compose_table, C.identity
    for m in C.morphisms:
        if table[(m.id, identity[m.src])] != m.id:
            raise IdentityViolation(f"{m.id} o id_{m.src} != {m.id}")
        if table[(identity[m.dst], m.id)] != m.id:
            raise IdentityViolation(f"id_{m.dst} o {m.id} != {m.id}")
    for f in C.morphisms:
        for g in out.get(f.dst, ()):
            gf = table[(g.id, f.id)]
            for h in out.get(g.dst, ()):
                if table[(h.id, gf)] != table[(table[(h.id, g.id)], f.id)]:
                    raise AssociativityViolation(
                        f"h o (g o f) != (h o g) o f for (h, g, f) = ({h.id}, {g.id}, {f.id})"
                    )


def build_category(
    objects: Iterable[str],
    morphisms: Iterable[tuple[str, str, str]],
    identity: Mapping[str, str],
    compose: Mapping[tuple[str, str], str],
) -> FinCategory:
    """Assemble a FinCategory from parts already known to be total, with no
    check: a caller that cannot vouch for the laws runs `check_laws`."""
    return FinCategory(
        objects=tuple(objects),
        morphisms=tuple(Morphism(*m) for m in morphisms),
        identity=dict(identity),
        compose_table=dict(compose),
    )


def escape(name: str, chars: str) -> str:
    """`name` with a backslash put before each \\ and each of `chars`, so
    that a name built from escaped parts and unescaped separators among
    `chars` splits back into its parts."""
    name = name.replace("\\", "\\\\")
    for ch in chars:
        name = name.replace(ch, "\\" + ch)
    return name


def category_over(D: FinCategory, over: Mapping[str, str], arrows: Iterable[tuple[str, str, str]]) -> FinFunctor:
    """A category of lifts of morphisms of D, with its projection to D.

    Objects are the keys o of `over`, each lying over the object over[o] of
    D.  Morphisms are the lifts (phi, o, o2) of morphisms phi of D, named
    "(phi):o>o2" with each \\, > and : in o and o2 escaped by a backslash,
    so no two lifts share a name; they compose as their images compose in
    D.  The identity of o is the lift of the identity of over[o].  Comma
    categories and inflations are built this way.

    Each rejection is a CategoryError, checked in this order, in
    O(objects + lifts) beyond building the table: a lift whose phi is not a
    morphism of D from over[o] to over[o2] (NotFunctorial naming the lift);
    composable lifts whose composite in D has no lift (MissingComposite);
    an object without the lift of its identity, then a lift that breaks a
    unit law (IdentityViolation, as `check_laws` words an identity that is
    no morphism and the unit laws); an object over no object of D
    (NotFunctorial, as `check_functor_laws` words it);
    and a repeated lift (NotFunctorial), which would make the projection P
    unfaithful.  Only a D that breaks its own laws passes the first check
    and fails the unit laws or the object check.

    The other laws of `check_laws` and `check_functor_laws` hold by
    construction, for any D, so neither is called.  Once no lift repeats,
    a name is one lift.  The entry for a composable pair (n, m)
    is the lift of D.compose(Pn, Pm) from the source of m to the target of
    n, so its ends are right, and P sends it to the composite of Pn and Pm.
    The table has one entry for each composable pair and no other key.
    Every lift has its ends among the objects, and P sends the identity of
    o to the identity of over[o] and each lift to a morphism of D with the
    right ends.  Associativity follows from D's, with no composable triple
    visited: for composable lifts f, g, h the composites h o (g o f) and
    (h o g) o f are parallel; P sends them to Ph o (Pg o Pf) and
    (Ph o Pg) o Pf, which are equal when D is associative; and a faithful
    P sends no two parallel lifts to one morphism.
    """
    end = {o: escape(o, ">:") for o in over}
    Dmor, table = D._mor, D.compose_table
    lifts, name, out = [], {}, {}  # each name is formatted once and shared
    for phi, o, o2 in arrows:
        # an end outside `over` only names a lift that is rejected here
        m = f"({phi}):{end.get(o, o)}>{end.get(o2, o2)}"
        below = Dmor.get(phi)
        if below is None or below.src != over.get(o) or below.dst != over.get(o2):
            raise NotFunctorial(
                f"lift {m} does not lie over its ends: {phi!r} is not a morphism "
                f"from {over.get(o)!r} to {over.get(o2)!r}"
            )
        lifts.append((m, phi, o, o2))
        name[(phi, o, o2)] = m
        out.setdefault(o, []).append((m, phi, o2))
    compose = {}
    for m, phi, o, o2 in lifts:
        for n, psi, o3 in out.get(o2, ()):
            gf = name.get((table.get((psi, phi)), o, o3))
            if gf is None:
                D.compose(psi, phi)  # D's own MissingComposite, if D has no composite
                raise MissingComposite(f"no lift of {psi} o {phi} from {o!r} to {o3!r}")
            compose[(n, m)] = gf
    identity = {}
    for o, x in over.items():
        identity[o] = name.get((D.identity.get(x), o, o))
        if identity[o] is None:
            raise IdentityViolation(f"object {o!r} has no identity morphism")
    for m, _, o, o2 in lifts:
        if compose[(m, identity[o])] != m:
            raise IdentityViolation(f"{m} o id_{o} != {m}")
        if compose[(identity[o2], m)] != m:
            raise IdentityViolation(f"id_{o2} o {m} != {m}")
    for o, x in over.items():
        if not D.has_object(x):
            raise NotFunctorial(f"object {o!r} has no valid image")
    if len(name) != len(lifts):
        seen = set()
        for m, _, _, _ in lifts:
            if m in seen:
                raise NotFunctorial(f"the projection is not faithful: lift {m} occurs twice")
            seen.add(m)
    base = FinCategory(tuple(over), tuple([Morphism(m, o, o2) for m, _, o, o2 in lifts]), identity, compose)
    return FinFunctor(base, D, dict(over), {m: phi for m, phi, _, _ in lifts})


def validate_category(raw: Mapping, closure_bound: int = DEFAULT_CLOSURE_BOUND) -> FinCategory:
    """Validate raw category data and return a law-abiding FinCategory.

    `raw` carries the keys "objects", "morphisms", "identities", "compose".
    Checked here, in this order, is only what a built FinCategory cannot
    show: the shape, repeated object ids, repeated morphism ids, and two
    compose entries for one pair.  The laws are `check_laws`'s, each run
    once: its first half on the declared table (identities, ends, compose
    entries).  The identity composites, always forced, are then filled in.
    If that makes the table total, the second half (every composable pair,
    unit laws, associativity) runs on it.  If not, the remaining composites
    are synthesized by congruence closure over the declared generators,
    subject to `closure_bound`; entries that force two declared morphisms
    equal are refused, and `check_laws` runs on the closed category.
    """
    check_shape(raw, _CATEGORY_SHAPE)
    return _category_from(raw, closure_bound)


def _category_from(raw: Mapping, closure_bound: int) -> FinCategory:
    """`validate_category` past its shape check, on data whose shape is
    checked: alone or as part of a functor file."""
    objects = list(raw["objects"])
    if len(set(objects)) != len(objects):
        raise UnknownObject("duplicate object identifiers")
    raw_mors = [(m["id"], m["src"], m["dst"]) for m in raw["morphisms"]]
    ids = [m[0] for m in raw_mors]
    if len(set(ids)) != len(ids):
        raise MissingComposite("duplicate morphism identifiers")
    table: dict[tuple[str, str], str] = {}
    for g, f, gf in raw.get("compose", []):
        if table.setdefault((g, f), gf) != gf:
            raise MissingComposite(f"conflicting compose entries for ({g}, {f})")
    C = build_category(objects, raw_mors, raw["identities"], table)
    _check_entries(C)
    # identity composites are always forced: fill them into C's table, which
    # nothing has read yet, before deciding whether the declared one is total
    identity, forced = C.identity, C.compose_table
    for m in C.morphisms:
        forced.setdefault((identity[m.dst], m.id), m.id)
        forced.setdefault((m.id, identity[m.src]), m.id)
    out = _by_source(C)
    if _missing_composite(C, out) is None:  # `_check_total` on C, its one gap scan done here
        _check_units_and_associativity(C, out)
        return C

    from .presentation import close_presentation

    identity_ids = C._identity_ids

    def as_path(mid: str) -> tuple[str, ...]:
        return () if mid in identity_ids else (mid,)

    closed = close_presentation(
        objects=objects,
        generators=[m for m in raw_mors if m[0] not in identity_ids],
        relations=[(C.src(f), as_path(f) + as_path(g), as_path(gf)) for (g, f), gf in table.items()],
        identity_names={x: identity[x] for x in objects},
        bound=closure_bound,
    )
    lost = [mid for mid in ids if not closed.has_morphism(mid)]
    if lost:
        raise MissingComposite(f"compose entries make declared morphisms {lost} equal to others")
    check_laws(closed)
    return closed


def small_category(objects, arrows, compose) -> FinCategory:
    """A category from its nonidentity arrows (id, src, dst) and the
    compose entries (g, f, g o f) among them that are not forced; the
    rest is closed as `validate_category` closes it.  The identity of x is
    named id_<x>, and the identities come first, in object order."""
    morphisms = [{"id": f"id_{x}", "src": x, "dst": x} for x in objects]
    morphisms += [{"id": a, "src": s, "dst": d} for a, s, d in arrows]
    return validate_category(
        {
            "objects": list(objects),
            "morphisms": morphisms,
            "identities": {x: f"id_{x}" for x in objects},
            "compose": [[g, f, gf] for g, f, gf in compose],
        }
    )


def kept(owner, key: str, build):
    """`build()`, run on the first call for `key` and kept in owner's
    instance dictionary, as `functools.cached_property` keeps `_inverse`.
    The value must hold no reference back to owner: then owner and all it
    keeps are freed by reference counting alone, with no cycle left for the
    collector.  A value kept this way lives exactly as long as its owner."""
    values = vars(owner)
    if key not in values:
        values[key] = build()
    return values[key]


def opposite(C: FinCategory) -> FinCategory:
    """Reverse every morphism.  An involution: opposite(opposite(C)) == C,
    though not the same value: the opposite is built on first use and
    `kept` by C."""
    return kept(C, "_opposite", lambda: build_category(
        C.objects,
        ((m.id, m.dst, m.src) for m in C.morphisms),
        C.identity,
        {(f, g): h for (g, f), h in C.compose_table.items()},
    ))


# -- functors ------------------------------------------------------------


@dataclass(frozen=True)
class FinFunctor:
    source: FinCategory
    target: FinCategory
    obj_map: dict[str, str]
    mor_map: dict[str, str]

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
    """Raise NotFunctorial at the first broken functor law of F between
    two categories: an image of something not in the source, an object or
    morphism without a valid image, an image with the wrong ends, an
    identity not sent to an identity, then a composite not preserved.
    Once every image has the right ends, each composite of images is
    defined, so the composite loop reads D's table directly."""
    C, D = F.source, F.target
    obj_map, mor_map = F.obj_map, F.mor_map
    stray = (obj_map.keys() - C._obj_index.keys()) | (mor_map.keys() - C._mor.keys())
    if stray:
        raise NotFunctorial(f"{sorted(stray)} are assigned images but are not in the source")
    for x in C.objects:
        if obj_map.get(x) is None or not D.has_object(obj_map[x]):
            raise NotFunctorial(f"object {x!r} has no valid image")
    for m in C.morphisms:
        fm = D._mor.get(mor_map.get(m.id))
        if fm is None:
            raise NotFunctorial(f"morphism {m.id!r} has no valid image")
        if fm.src != obj_map[m.src] or fm.dst != obj_map[m.dst]:
            raise NotFunctorial(f"image of {m.id!r} has wrong endpoints")
    for x in C.objects:
        if mor_map[C.id_of(x)] != D.id_of(obj_map[x]):
            raise NotFunctorial(f"identity of {x!r} is not sent to an identity")
    table = D.compose_table
    for (g, f), gf in C.compose_table.items():
        if table[(mor_map[g], mor_map[f])] != mor_map[gf]:
            raise NotFunctorial(f"composite {g} o {f} is not preserved")


def validate_functor(raw: Mapping, C: FinCategory, D: FinCategory) -> FinFunctor:
    """Validate a functor from C to D, extending a generator-level morphism map.

    Identities are filled in from the object map and missing composites are
    saturated from the declared entries; any conflict or unreachable
    morphism raises NotFunctorial naming the offender.
    """
    check_shape(raw, _FUNCTOR_SHAPE)
    return _functor_from(raw, C, D)


def validate_functor_file(raw: Mapping, closure_bound: int = DEFAULT_CLOSURE_BOUND) -> FinFunctor:
    """Validate a functor file: its "source" and "target" categories, then
    the functor between them.  The whole file's shape is checked once,
    first, so a shape error names its path in the file, such as
    `$.source.morphisms[0]`; the rest is `validate_category` on each
    category and `validate_functor` on the maps."""
    check_shape(raw, _FUNCTOR_FILE_SHAPE)
    C = _category_from(raw["source"], closure_bound)
    D = _category_from(raw["target"], closure_bound)
    return _functor_from(raw, C, D)


def _functor_from(raw: Mapping, C: FinCategory, D: FinCategory) -> FinFunctor:
    """`validate_functor` past its shape check."""
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
    """The five flags of F, each read from the hom rows (`hom_from`) and
    the tables directly, with the rows of x and of F x fetched once per x.
    A pair (x, y) with no morphism has no entry in the row of x, and F is
    full there exactly when the row of F x has no entry F y either.  A
    parallel pair f, g: d -> d2 is equalized by some u into d, among the
    morphisms of C by target, as both composites f o u and g o u are then
    defined."""
    C, D = F.source, F.target
    obj_map, mor_map = F.obj_map, F.mor_map
    surjective = {obj_map[x] for x in C.objects} >= set(D.objects)
    full = faithful = True
    for x in C.objects:
        row, image_row = C.hom_from(x), D.hom_from(obj_map[x])
        full = full and all(y in row for y in C.objects if obj_map[y] in image_row)
        for y, ms in row.items():
            images = {mor_map[m] for m in ms}
            full = full and images.issuperset(image_row.get(obj_map[y], ()))
            faithful = faithful and len(images) == len(ms)
    Cinv, Dinv = C._inverse, D._inverse
    conservative = all(m.id in Cinv for m in C.morphisms if mor_map[m.id] in Dinv)
    into: dict[str, list[str]] = {}
    for m in C.morphisms:
        into.setdefault(m.dst, []).append(m.id)
    table = C.compose_table
    equalizing = all(
        any(table[(f, u)] == table[(g, u)] for u in into.get(d, ()))
        for d in C.objects
        for pairs in C.hom_from(d).values()
        for f, g in itertools.combinations(pairs, 2)
    )
    return FunctorProfile(surjective, full, faithful, conservative, equalizing)


# -- generic searches used across the engine ------------------------------


def search(domains: Mapping, constraints: Iterable = (), distinct: Iterable = ()) -> Iterator[dict]:
    """Every assignment to the keys of `domains` that meets each constraint,
    by backtracking, in lexicographic order: keys in insertion order, values
    in domain order.  A domain is a sequence, or a function from the
    partial assignment of the earlier keys to one.  A constraint
    `(vars, ok)` holds when `ok(*values of vars)` is true, and is checked as
    soon as the last of its variables is bound.  Each group in `distinct`
    takes pairwise different values.

    The comma decision (`gaft_decide`, `is_initial`,
    `construct_left_adjoint`) never calls this search, so the brute-force
    oracle that runs on it stays independent of the decision it checks.
    """
    keys = list(domains)
    pos = {k: i for i, k in enumerate(keys)}
    checks = [[] for _ in keys]
    for vs, ok in constraints:
        checks[max(map(pos.__getitem__, vs))].append((vs, ok))
    apart = [[] for _ in keys]  # the earlier keys each one must differ from
    for group in distinct:
        group = sorted(group, key=pos.__getitem__)
        for i, k in enumerate(group):
            apart[pos[k]] += group[:i]
    n, a, stack = len(keys), {}, []  # stack: the candidates left at each bound level
    i = 0
    while i >= 0:
        if i == n:
            yield dict(a)
            i -= 1
            continue
        if len(stack) == i:
            dom = domains[keys[i]]
            stack.append(iter(dom(a) if callable(dom) else dom))
        k, tests, others = keys[i], checks[i], apart[i]
        for v in stack[i]:
            if others and v in [a[o] for o in others]:
                continue
            a[k] = v
            if not tests or all(ok(*[a[x] for x in vs]) for vs, ok in tests):
                i += 1
                break
        else:
            a.pop(k, None)
            stack.pop()
            i -= 1


def functor_space(C: FinCategory, D: FinCategory, objects: Mapping | None = None) -> tuple[dict, list]:
    """Domains and constraints whose `search` solutions are the functors
    C -> D.  For each object x of C in order, the variables are ("o", x)
    over `objects[x]` (all of D's objects by default), then ("m", id_x)
    forced to the identity of x's image, then ("m", m) over the hom
    between the images of its ends for each nonidentity m whose later end
    is x, in declared order.  So each morphism is bound right after its
    ends, and a compose constraint is checked as soon as its three
    morphisms are bound, before the objects after them.  Only compose
    entries with no identity factor are constraints; the forced identities
    meet the others.  D needs only `objects`, `id_of`, `hom` and `compose`."""
    pos = C._obj_index
    after: list[list[Morphism]] = [[] for _ in C.objects]  # nonidentities by their later end
    for m in C.morphisms:
        if not C.is_identity(m.id):
            after[max(pos[m.src], pos[m.dst])].append(m)
    domains: dict = {}
    for x, ms in zip(C.objects, after):
        domains[("o", x)] = D.objects if objects is None else objects[x]
        domains[("m", C.id_of(x))] = lambda a, x=x: (D.id_of(a[("o", x)]),)
        for m in ms:
            domains[("m", m.id)] = lambda a, s=m.src, t=m.dst: D.hom(a[("o", s)], a[("o", t)])
    constraints = [
        ((("m", g), ("m", f), ("m", gf)), lambda g, f, gf: D.compose(g, f) == gf)
        for (g, f), gf in C.compose_table.items()
        if not (C.is_identity(g) or C.is_identity(f))
    ]
    return domains, constraints


def minimal_transversals(items: Sequence, edges: Iterable[Iterable]) -> list[tuple]:
    """The inclusion-minimal sets of `items` meeting every edge, by size,
    then by positions in `items`.  Berge's method: over the edges, smallest
    first, keep the minimal transversals so far; a set missing the next
    edge grows by each of its members, and stays minimal unless it contains
    a kept set meeting the edge (grown sets s+v, s'+v' never nest properly,
    s and s' being minimal and missing the edge)."""
    pos = {x: i for i, x in enumerate(items)}
    found = {frozenset()}
    for edge in sorted({frozenset(pos[x] for x in e) for e in edges}, key=len):
        hit = {s for s in found if s & edge}
        grown = {s | {i} for s in found - hit for i in edge}
        found = hit | {g for g in grown if not any(s <= g for s in hit)}
    return [tuple(items[i] for i in s) for s in sorted(map(sorted, found), key=lambda s: (len(s), s))]


def find(parent: list[int], a: int) -> int:
    """The root of a's class in the union-find forest `parent`, halving the
    path; each caller keeps its own union step."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def components(nodes: Sequence[str], edges: Iterable[tuple[str, str]]) -> list[list[str]]:
    """Connected components of an undirected graph, by union-find.

    Each component lists its nodes in the order of `nodes`, and components
    come in the order of their first node.
    """
    index = {x: i for i, x in enumerate(nodes)}
    parent = list(range(len(index)))
    for a, b in edges:
        ra, rb = find(parent, index[a]), find(parent, index[b])
        if ra != rb:
            # the least index stays the root, so roots order the components
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[str]] = {}
    for x in nodes:
        groups.setdefault(find(parent, index[x]), []).append(x)
    return list(groups.values())


def isomorphic(C: FinCategory, D: FinCategory) -> bool:
    """Whether two finite categories are isomorphic (strictly, not merely
    equivalent): whether some functor is injective on objects and on
    morphisms, hence bijective, as the counts agree.  Requiring equal hom
    sizes only prunes object maps early."""
    if len(C.objects) != len(D.objects) or len(C.morphisms) != len(D.morphisms):
        return False
    domains, constraints = functor_space(C, D)
    constraints += [
        ((("o", x), ("o", y)), lambda u, v, n=len(C.hom(x, y)): len(D.hom(u, v)) == n)
        for x in C.objects
        for y in C.objects
    ]
    # one group per kind: an object may share its id with a morphism
    kinds = ([("o", x) for x in C.objects], [("m", m.id) for m in C.morphisms])
    return any(True for _ in search(domains, constraints, kinds))
