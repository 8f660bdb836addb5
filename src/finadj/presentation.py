"""Closure of finitely presented categories.

A presentation lists objects, generating morphisms, and equations between
parallel generator paths.  The closure materializes the quotient of the free
category on the generators by the congruence those equations generate, and
aborts once the number of distinct morphisms passes a configurable bound
(free categories on graphs with directed cycles are infinite).

The algorithm is a worklist variant of coset enumeration.  Morphisms are
equivalence classes of paths, kept in a union-find structure together with a
deterministic right-multiplication table (class, generator) -> class.  Every
equation is enforced at every class whose target matches the equation's
source object; right contexts are covered by the determinism of the table,
left contexts by that enforcement loop.  Merges propagate through the table
until nothing changes, at which point the table is a total, associative
composition law and the classes are exactly the congruence classes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .fincat import (
    ClosureBoundExceeded,
    FinCategory,
    MissingComposite,
    UnknownObject,
    build_category,
    find,
)

Path = tuple[str, ...]
Relation = tuple[str, Path, Path]  # (source object, lhs path, rhs path)


class _Closure:
    def __init__(self, bound: int):
        self.bound = bound
        self.parent: list[int] = []
        self.src: list[str] = []
        self.dst: list[str] = []
        self.witness: list[Path] = []
        self.step: list[dict[str, int]] = []
        self.live = 0

    def new_class(self, src: str, dst: str, witness: Path) -> int:
        idx = len(self.parent)
        self.parent.append(idx)
        self.src.append(src)
        self.dst.append(dst)
        self.witness.append(witness)
        self.step.append({})
        self.live += 1
        if self.live > self.bound:
            raise ClosureBoundExceeded(
                f"closure generated more than {self.bound} distinct morphisms"
            )
        return idx

    def multiply(self, cls: int, gen: str, gen_dst: dict[str, str]) -> int:
        cls = find(self.parent, cls)
        nxt = self.step[cls].get(gen)
        if nxt is not None:
            return find(self.parent, nxt)
        idx = self.new_class(self.src[cls], gen_dst[gen], self.witness[cls] + (gen,))
        self.step[cls][gen] = idx
        return idx

    def fold(self, cls: int, path: Path, gen_dst: dict[str, str]) -> int:
        for gen in path:
            cls = self.multiply(cls, gen, gen_dst)
        return find(self.parent, cls)

    def merge(self, a: int, b: int) -> None:
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            x, y = find(self.parent, x), find(self.parent, y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            if self.src[x] != self.src[y] or self.dst[x] != self.dst[y]:
                raise MissingComposite("presentation equates non-parallel morphisms")
            self.parent[y] = x
            self.live -= 1
            for gen, tgt in self.step[y].items():
                cur = self.step[x].get(gen)
                if cur is None:
                    self.step[x][gen] = tgt
                else:
                    queue.append((cur, tgt))
            self.step[y] = {}

    def roots(self) -> list[int]:
        return [i for i in range(len(self.parent)) if find(self.parent, i) == i]


def close_presentation(
    objects: Sequence[str],
    generators: Iterable[tuple[str, str, str]],
    relations: Iterable[Relation],
    identity_names: dict[str, str],
    bound: int,
) -> FinCategory:
    """Close a presentation into a finite category with a total table.

    `generators` are (id, src, dst) triples; identities are implicit and
    named through `identity_names`, primed on collision.  Each relation
    equates two parallel generator paths read in diagrammatic order, the
    empty path standing for an identity.
    """
    objects = list(objects)
    gens = list(generators)
    gen_dst = {g: d for g, _, d in gens}
    gen_src = {g: s for g, s, _ in gens}
    obj_set = set(objects)
    for g, s, d in gens:
        if s not in obj_set or d not in obj_set:
            raise UnknownObject(f"generator {g!r} has unknown endpoints")

    st = _Closure(bound)
    id_cls = {x: st.new_class(x, x, ()) for x in objects}
    for g, s, _ in gens:
        st.multiply(id_cls[s], g, gen_dst)

    # generators and relations by source object, in declared order: a
    # class meets those at its target, which no merge changes
    gens_from: dict[str, list[str]] = {}
    for g, s, _ in gens:
        gens_from.setdefault(s, []).append(g)
    rels_from: dict[str, list[tuple[Path, Path]]] = {}
    for src, lhs, rhs in relations:
        for path in (lhs, rhs):
            at = src
            for g in path:
                if gen_src.get(g) != at:
                    raise UnknownObject(f"relation path {path} is not composable at {g!r}")
                at = gen_dst[g]
        rels_from.setdefault(src, []).append((tuple(lhs), tuple(rhs)))

    changed = True
    while changed:
        changed = False
        # complete the multiplication table on the current classes
        for root in st.roots():
            for g in gens_from.get(st.dst[root], ()):
                if g not in st.step[find(st.parent, root)]:
                    st.multiply(root, g, gen_dst)
                    changed = True
        # enforce every relation in every left context
        for root in st.roots():
            root = find(st.parent, root)
            for lhs, rhs in rels_from.get(st.dst[root], ()):
                a = st.fold(root, lhs, gen_dst)
                b = st.fold(root, rhs, gen_dst)
                if a != b:
                    st.merge(a, b)
                    changed = True

    # name the classes deterministically: identities, then generator
    # classes by first declared generator, then composites by witness
    roots = st.roots()
    names: dict[int, str] = {}
    taken: set[str] = set()

    def claim(name: str) -> str:
        while name in taken:
            name += "'"
        taken.add(name)
        return name

    ordered: list[int] = []
    for x in objects:
        r = find(st.parent, id_cls[x])
        if r not in names:
            names[r] = claim(identity_names[x])
            ordered.append(r)
    for g, s, _ in gens:
        r = st.fold(id_cls[s], (g,), gen_dst)
        if r not in names:
            names[r] = claim(g)
            ordered.append(r)
    for r in roots:
        if r not in names:  # a composite: only identity classes have an empty witness
            names[r] = claim("∘".join(reversed(st.witness[r])))
            ordered.append(r)

    identity = {x: names[find(st.parent, id_cls[x])] for x in objects}
    morphisms = [(names[r], st.src[r], st.dst[r]) for r in ordered]
    compose, ordered_from = {}, {}  # the classes by source: only composable pairs are visited
    for b in ordered:
        ordered_from.setdefault(st.src[b], []).append(b)
    for a in ordered:
        for b in ordered_from.get(st.dst[a], ()):
            c = st.fold(a, st.witness[b], gen_dst)
            # entry is (g, f) -> g o f with f first in diagrammatic order
            compose[(names[find(st.parent, b)], names[a])] = names[c]
    return build_category(objects, morphisms, identity, compose)
