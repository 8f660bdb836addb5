"""Fixture categories, functors, and enriched instances.

Conventions shared by every fixture, and relied on by the round-trip
sweeps: identity morphisms are named id_<object> and declared first in
object order, and each hom's morphisms appear contiguously.
"""

from __future__ import annotations

import itertools

from .brown import SetFunctor, validate_set_functor
from .enriched import (
    GpdCategory,
    GpdFunctor,
    check_gfunctor,
    embed,
    embed_functor,
    identity_gfunctor,
    validate_gcat,
)
from .fincat import FinCategory, FinFunctor, search, small_category, validate_functor


def poset_category(objects, pairs) -> FinCategory:
    """A poset as a category; `pairs` are the strict relations x < y,
    which must already be transitively closed."""
    rel = set(pairs)
    arrows = [(f"{x}<{y}", x, y) for x, y in pairs]
    compose = []
    for x, y in pairs:
        for y2, z in pairs:
            if y2 != y:
                continue
            if (x, z) not in rel:
                raise ValueError(f"relation is not transitive at ({x}, {z})")
            compose.append((f"{y}<{z}", f"{x}<{y}", f"{x}<{z}"))
    return small_category(objects, arrows, compose)


def functor(C: FinCategory, D: FinCategory, obj_map, mor_map=None) -> FinFunctor:
    return validate_functor({"obj_map": obj_map, "mor_map": mor_map or {}}, C, D)


def monotone_functor(P: FinCategory, Q: FinCategory, obj_map) -> FinFunctor:
    """A monotone map between posets, with the forced morphism images."""
    mor_map = {}
    for m in P.morphisms:
        target = Q.hom(obj_map[m.src], obj_map[m.dst])
        if len(target) != 1:
            raise ValueError(f"map is not monotone at {m.id!r}")
        mor_map[m.id] = target[0]
    return FinFunctor(P, Q, dict(obj_map), mor_map)


# -- named categories --------------------------------------------------------


def empty_cat() -> FinCategory:
    return small_category([], [], [])


def one() -> FinCategory:
    """The terminal category."""
    return small_category(["*"], [], [])


def disc2() -> FinCategory:
    return small_category(["x", "y"], [], [])


def two() -> FinCategory:
    return poset_category(["0", "1"], [("0", "1")])


def chain3() -> FinCategory:
    return poset_category(["0", "1", "2"], [("0", "1"), ("0", "2"), ("1", "2")])


def diamond() -> FinCategory:
    """The lattice bot < a, b < top."""
    return poset_category(
        ["bot", "a", "b", "top"],
        [("bot", "a"), ("bot", "b"), ("bot", "top"), ("a", "top"), ("b", "top")],
    )


def vee() -> FinCategory:
    """Two incomparable elements under a common top."""
    return poset_category(["x", "y", "z"], [("x", "z"), ("y", "z")])


def wedge() -> FinCategory:
    return poset_category(["z", "x", "y"], [("z", "x"), ("z", "y")])


def pp() -> FinCategory:
    """The parallel pair: two objects, two parallel arrows."""
    return small_category(["a", "b"], [("f", "a", "b"), ("g", "a", "b")], [])


def ppe() -> FinCategory:
    """The parallel pair with an equalizing fork in front."""
    return small_category(
        ["e0", "a", "b"],
        [("u", "e0", "a"), ("f", "a", "b"), ("g", "a", "b"), ("w", "e0", "b")],
        [("f", "u", "w"), ("g", "u", "w")],
    )


def iso2() -> FinCategory:
    """Two isomorphic objects (the contractible groupoid on two objects)."""
    return small_category(
        ["a", "b"],
        [("u", "a", "b"), ("v", "b", "a")],
        [("v", "u", "id_a"), ("u", "v", "id_b")],
    )


def z2() -> FinCategory:
    """The group of order two as a one-object category."""
    return small_category(["*"], [("s", "*", "*")], [("s", "s", "id_*")])


def idem() -> FinCategory:
    """One object with a nontrivial idempotent."""
    return small_category(["*"], [("p", "*", "*")], [("p", "p", "p")])


def free_boundary() -> FinCategory:
    """The free category on the triangle boundary: two distinct 0 -> 2."""
    return small_category(
        ["0", "1", "2"],
        [("a", "0", "1"), ("b", "1", "2"), ("e", "0", "2"), ("ba", "0", "2")],
        [("b", "a", "ba")],
    )


def categories() -> dict[str, FinCategory]:
    return {
        "empty": empty_cat(),
        "one": one(),
        "disc2": disc2(),
        "two": two(),
        "chain3": chain3(),
        "diamond": diamond(),
        "vee": vee(),
        "wedge": wedge(),
        "pp": pp(),
        "ppe": ppe(),
        "iso2": iso2(),
        "z2": z2(),
        "idem": idem(),
        "free_boundary": free_boundary(),
    }


# -- poset corpus -------------------------------------------------------------


def posets_up_to(n: int = 4) -> list[FinCategory]:
    """All posets with at most n elements, one per isomorphism class.

    Every poset has a natural labelling, one where x_i < x_j implies i < j,
    so the search only chooses the relations i < j: antisymmetry holds by
    construction and transitivity is only checked on i < j < l.  A class is
    kept by its canonical form, the least sorted relation over all k!
    relabellings; those relabellings are its whole class, so a relation
    among them is not relabelled again.
    """
    out = []
    for k in range(n + 1):
        pairs = list(itertools.combinations(range(k), 2))
        perms = list(itertools.permutations(range(k)))
        constraints = [
            (((i, j), (j, l), (i, l)), lambda p, q, r: r or not (p and q))
            for i, j, l in itertools.combinations(range(k), 3)
        ]
        forms, seen = set(), set()
        for chosen in search({p: (False, True) for p in pairs}, constraints):
            rel = tuple(p for p, b in chosen.items() if b)  # sorted, as `pairs` is
            if rel not in seen:
                relabelled = {tuple(sorted((p[i], p[j]) for i, j in rel)) for p in perms}
                seen |= relabelled
                forms.add(min(relabelled))
        for canon in sorted(forms, key=lambda c: (len(c), c)):
            objs = [f"p{i}" for i in range(k)]
            out.append(poset_category(objs, [(f"p{i}", f"p{j}") for i, j in canon]))
    return out


def monotone_maps(P: FinCategory, Q: FinCategory):
    """Every monotone map P -> Q as a functor, exhaustively."""
    arrows = [(m.src, m.dst) for m in P.morphisms if not P.is_identity(m.id)]
    constraints = [(ends, lambda x, y: bool(Q.hom(x, y))) for ends in arrows]
    for obj_map in search({x: Q.objects for x in P.objects}, constraints):
        yield monotone_functor(P, Q, obj_map)


def poset_maps(n: int) -> list[tuple[str, FinFunctor]]:
    """Every monotone map between posets of at most n elements, the k-th
    from the i-th poset to the j-th labelled poset{i}->poset{j}#{k}."""
    posets = list(enumerate(posets_up_to(n)))
    return [
        (f"poset{i}->poset{j}#{k}", G) for i, P in posets for j, Q in posets for k, G in enumerate(monotone_maps(P, Q))
    ]


# -- curated functor instances for the oracle ---------------------------------


def curated_oracle_functors() -> list[tuple[str, FinFunctor]]:
    """Hand-picked non-poset instances: groups, parallel pairs, idempotents,
    free categories.  A mix of adjoint-existing and adjoint-free cases."""
    cats = categories()
    c1, cd2, ctwo, cc3 = cats["one"], cats["disc2"], cats["two"], cats["chain3"]
    cpp, cppe, ciso, cz2 = cats["pp"], cats["ppe"], cats["iso2"], cats["z2"]
    cid, cfb = cats["idem"], cats["free_boundary"]
    star = lambda C: {x: "*" for x in C.objects}
    every = lambda C, m: {f: m for f in C.nonidentity()}
    out = [
        ("iso2_to_one", functor(ciso, c1, star(ciso), every(ciso, "id_*"))),
        ("one_to_iso2_a", functor(c1, ciso, {"*": "a"})),
        ("z2_to_one", functor(cz2, c1, star(cz2), {"s": "id_*"})),
        ("one_to_z2", functor(c1, cz2, {"*": "*"})),
        ("pp_to_one", functor(cpp, c1, star(cpp), every(cpp, "id_*"))),
        ("one_to_pp_a", functor(c1, cpp, {"*": "a"})),
        ("one_to_pp_b", functor(c1, cpp, {"*": "b"})),
        ("ppe_to_one", functor(cppe, c1, star(cppe), every(cppe, "id_*"))),
        ("one_to_ppe_e0", functor(c1, cppe, {"*": "e0"})),
        ("one_to_ppe_b", functor(c1, cppe, {"*": "b"})),
        (
            "fb_to_chain3",
            functor(
                cfb,
                cc3,
                {"0": "0", "1": "1", "2": "2"},
                {"a": "0<1", "b": "1<2", "e": "0<2", "ba": "0<2"},
            ),
        ),
        (
            "chain3_to_fb",
            functor(
                cc3,
                cfb,
                {"0": "0", "1": "1", "2": "2"},
                {"0<1": "a", "1<2": "b", "0<2": "ba"},
            ),
        ),
        ("idem_to_one", functor(cid, c1, star(cid), {"p": "id_*"})),
        ("one_to_idem", functor(c1, cid, {"*": "*"})),
        ("id_iso2", functor(ciso, ciso, {"a": "a", "b": "b"}, {"u": "u", "v": "v"})),
        ("id_z2", functor(cz2, cz2, {"*": "*"}, {"s": "s"})),
        ("id_pp", functor(cpp, cpp, {"a": "a", "b": "b"}, {"f": "f", "g": "g"})),
        (
            "id_fb",
            functor(
                cfb,
                cfb,
                {"0": "0", "1": "1", "2": "2"},
                {"a": "a", "b": "b", "e": "e", "ba": "ba"},
            ),
        ),
        ("iso2_to_z2", functor(ciso, cz2, star(ciso), {"u": "s", "v": "s"})),
        ("z2_to_iso2", functor(cz2, ciso, {"*": "a"}, {"s": "id_a"})),
        ("pp_to_two", functor(cpp, ctwo, {"a": "0", "b": "1"}, every(cpp, "0<1"))),
        ("two_to_pp", functor(ctwo, cpp, {"0": "a", "1": "b"}, {"0<1": "f"})),
        (
            "pp_to_ppe",
            functor(cpp, cppe, {"a": "a", "b": "b"}, {"f": "f", "g": "g"}),
        ),
        ("iso2_swap", functor(ciso, ciso, {"a": "b", "b": "a"}, {"u": "v", "v": "u"})),
        ("z2_collapse", functor(cz2, cz2, {"*": "*"}, {"s": "id_*"})),
        ("one_to_disc2_x", functor(c1, cd2, {"*": "x"})),
    ]
    return out


# -- enriched fixtures ---------------------------------------------------------


def pz2() -> GpdCategory:
    """Two objects with a single arrow between them carrying a Z/2 worth of
    automorphisms: the mapping data from x to y is connected but not
    contractible."""
    return validate_gcat(
        {
            "objects": ["x", "y"],
            "homs": {
                "x|x": {
                    "cells": ["id_x"],
                    "twocells": [{"id": "1id_x", "src": "id_x", "dst": "id_x"}],
                    "compose2": [["1id_x", "1id_x", "1id_x"]],
                },
                "y|y": {
                    "cells": ["id_y"],
                    "twocells": [{"id": "1id_y", "src": "id_y", "dst": "id_y"}],
                    "compose2": [["1id_y", "1id_y", "1id_y"]],
                },
                "x|y": {
                    "cells": ["f"],
                    "twocells": [
                        {"id": "1f", "src": "f", "dst": "f"},
                        {"id": "s", "src": "f", "dst": "f"},
                    ],
                    "compose2": [
                        ["1f", "1f", "1f"],
                        ["1f", "s", "s"],
                        ["s", "1f", "s"],
                        ["s", "s", "1f"],
                    ],
                },
            },
            "identities": {"x": "id_x", "y": "id_y"},
            "hcompose": {
                "cells": [
                    ["id_x", "id_x", "id_x"],
                    ["id_y", "id_y", "id_y"],
                    ["f", "id_x", "f"],
                    ["id_y", "f", "f"],
                ],
                "twocells": [
                    ["1id_x", "1id_x", "1id_x"],
                    ["1id_y", "1id_y", "1id_y"],
                    ["1f", "1id_x", "1f"],
                    ["s", "1id_x", "s"],
                    ["1id_y", "1f", "1f"],
                    ["1id_y", "s", "s"],
                ],
            },
        }
    )


def disc_gpd() -> GpdCategory:
    """Two objects with two fully disconnected parallel 1-cells."""
    return validate_gcat(
        {
            "objects": ["x", "y"],
            "homs": {
                "x|x": {
                    "cells": ["id_x"],
                    "twocells": [{"id": "1id_x", "src": "id_x", "dst": "id_x"}],
                    "compose2": [["1id_x", "1id_x", "1id_x"]],
                },
                "y|y": {
                    "cells": ["id_y"],
                    "twocells": [{"id": "1id_y", "src": "id_y", "dst": "id_y"}],
                    "compose2": [["1id_y", "1id_y", "1id_y"]],
                },
                "x|y": {
                    "cells": ["f1", "f2"],
                    "twocells": [
                        {"id": "1f1", "src": "f1", "dst": "f1"},
                        {"id": "1f2", "src": "f2", "dst": "f2"},
                    ],
                    "compose2": [["1f1", "1f1", "1f1"], ["1f2", "1f2", "1f2"]],
                },
            },
            "identities": {"x": "id_x", "y": "id_y"},
            "hcompose": {
                "cells": [
                    ["id_x", "id_x", "id_x"],
                    ["id_y", "id_y", "id_y"],
                    ["f1", "id_x", "f1"],
                    ["f2", "id_x", "f2"],
                    ["id_y", "f1", "f1"],
                    ["id_y", "f2", "f2"],
                ],
                "twocells": [
                    ["1id_x", "1id_x", "1id_x"],
                    ["1id_y", "1id_y", "1id_y"],
                    ["1f1", "1id_x", "1f1"],
                    ["1f2", "1id_x", "1f2"],
                    ["1id_y", "1f1", "1f1"],
                    ["1id_y", "1f2", "1f2"],
                ],
            },
        }
    )


def point_into(T: GpdCategory, x: str) -> GpdFunctor:
    """The functor from the point to T that picks x."""
    e = T.identities[x]
    F = GpdFunctor(embed(one()), T, {"*": x}, {"id_*": e}, {"id2_id_*": T.id2(e)})
    check_gfunctor(F)
    return F


def pz2_pick_y() -> GpdFunctor:
    """The fixture functor: the point into pz2 at y.  Its homotopy functor
    has a left adjoint, the enriched functor does not."""
    return point_into(pz2(), "y")


def pz2_to_point() -> GpdFunctor:
    P = pz2()
    T = embed(one())
    F = GpdFunctor(
        P,
        T,
        {"x": "*", "y": "*"},
        {"id_x": "id_*", "id_y": "id_*", "f": "id_*"},
        {"1id_x": "id2_id_*", "1id_y": "id2_id_*", "1f": "id2_id_*", "s": "id2_id_*"},
    )
    check_gfunctor(F)
    return F


def enriched_functors(cats: dict[str, FinCategory]) -> list[tuple[str, GpdFunctor]]:
    """The enriched corpus; its embedded functors are built on `cats`, which
    is `categories()`, so a caller that reads both builds one corpus."""
    return [
        ("embed_id_chain3", embed_functor(functor(cats["chain3"], cats["chain3"], {x: x for x in "012"}, {m: m for m in ("0<1", "0<2", "1<2")}))),
        ("embed_chain3_to_two", embed_functor(monotone_functor(cats["chain3"], cats["two"], {"0": "0", "1": "1", "2": "1"}))),
        ("embed_one_to_disc2", embed_functor(functor(cats["one"], cats["disc2"], {"*": "x"}))),
        ("embed_two_to_chain3", embed_functor(monotone_functor(cats["two"], cats["chain3"], {"0": "0", "1": "2"}))),
        ("embed_one_to_chain3_top", embed_functor(functor(cats["one"], cats["chain3"], {"*": "2"}))),
        ("pz2_pick_y", pz2_pick_y()),
        ("pz2_pick_x", point_into(pz2(), "x")),
        ("pz2_identity", identity_gfunctor(pz2())),
        ("pz2_to_point", pz2_to_point()),
        ("disc_gpd_pick_x", point_into(disc_gpd(), "x")),
        ("disc_gpd_pick_y", point_into(disc_gpd(), "y")),
    ]


# -- set-functor fixtures -------------------------------------------------------


def b1_failing_on_two() -> SetFunctor:
    """Two elements over the initial object: breaks the empty-coproduct case."""
    C = two()
    return validate_set_functor(
        C,
        {
            "on_objects": {"0": ["a", "b"], "1": ["c"]},
            "on_morphisms": {
                "id_0": {"a": "a", "b": "b"},
                "id_1": {"c": "c"},
                "0<1": {"c": "a"},
            },
        },
    )


def b2_failing_on_two() -> SetFunctor:
    """Collapses both elements over 1 to the point over 0, so the pushout
    square of the unique span misses the off-diagonal of the pullback."""
    C = two()
    return validate_set_functor(
        C,
        {
            "on_objects": {"0": ["*"], "1": ["a", "b"]},
            "on_morphisms": {
                "id_0": {"*": "*"},
                "id_1": {"a": "a", "b": "b"},
                "0<1": {"a": "*", "b": "*"},
            },
        },
    )
