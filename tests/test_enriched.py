import copy
import re

import pytest

from finadj import corpus
from finadj.adjoint import gaft_decide
from finadj.enriched import (
    GpdFunctor,
    GpdLawViolation,
    check_gfunctor,
    classify_object,
    comparison_functor,
    compose_gfunctors,
    embed,
    embed_functor,
    enriched_comma_under,
    gaft_fin_decide,
    gcat_to_dict,
    h_initial_condition,
    homotopy_adjoint_compare,
    homotopy_category,
    homotopy_functor,
    identity_gfunctor,
    initial_reflection_check,
    is_discrete,
    mapping_invariants,
    solution_set_invariance,
    validate_gcat,
    weakly_initial_object_sets,
)
from finadj.fincat import identity_functor, isomorphic
from finadj.limits import equalizer_cones, has_finite_limits
from finadj.sweeps import inflate

CATS = corpus.categories()


def test_pz2_validates_and_roundtrips_through_json():
    P = corpus.pz2()
    assert validate_gcat(gcat_to_dict(P)) == P


def test_embed_is_discrete_and_valid():
    E = embed(CATS["chain3"])
    assert is_discrete(E)
    assert not is_discrete(corpus.pz2())


def _zz_raw():
    """Three objects in a chain, each hom a 2-element automorphism group."""
    gpd1 = lambda c: {
        "cells": [c],
        "twocells": [{"id": f"1{c}", "src": c, "dst": c}],
        "compose2": [[f"1{c}", f"1{c}", f"1{c}"]],
    }
    z2hom = lambda c, t: {
        "cells": [c],
        "twocells": [
            {"id": f"1{c}", "src": c, "dst": c},
            {"id": t, "src": c, "dst": c},
        ],
        "compose2": [
            [f"1{c}", f"1{c}", f"1{c}"],
            [f"1{c}", t, t],
            [t, f"1{c}", t],
            [t, t, f"1{c}"],
        ],
    }
    return {
        "objects": ["x", "y", "z"],
        "homs": {
            "x|x": gpd1("ix"),
            "y|y": gpd1("iy"),
            "z|z": gpd1("iz"),
            "x|y": z2hom("f", "s"),
            "y|z": z2hom("g", "t"),
            "x|z": z2hom("gf", "w"),
        },
        "identities": {"x": "ix", "y": "iy", "z": "iz"},
        "hcompose": {
            "cells": [
                ["ix", "ix", "ix"],
                ["iy", "iy", "iy"],
                ["iz", "iz", "iz"],
                ["f", "ix", "f"],
                ["iy", "f", "f"],
                ["g", "iy", "g"],
                ["iz", "g", "g"],
                ["gf", "ix", "gf"],
                ["iz", "gf", "gf"],
                ["g", "f", "gf"],
            ],
            "twocells": [
                ["1ix", "1ix", "1ix"],
                ["1iy", "1iy", "1iy"],
                ["1iz", "1iz", "1iz"],
                ["1f", "1ix", "1f"],
                ["s", "1ix", "s"],
                ["1iy", "1f", "1f"],
                ["1iy", "s", "s"],
                ["1g", "1iy", "1g"],
                ["t", "1iy", "t"],
                ["1iz", "1g", "1g"],
                ["1iz", "t", "t"],
                ["1gf", "1ix", "1gf"],
                ["w", "1ix", "w"],
                ["1iz", "1gf", "1gf"],
                ["1iz", "w", "w"],
                ["1g", "1f", "1gf"],
                ["1g", "s", "w"],
                ["t", "1f", "w"],
                ["t", "s", "1gf"],
            ],
        },
    }


def test_zz_fixture_is_valid():
    validate_gcat(_zz_raw())


def test_interchange_violation_is_detected():
    raw = _zz_raw()
    tc = raw["hcompose"]["twocells"]
    tc[tc.index(["1g", "s", "w"])] = ["1g", "s", "1gf"]
    with pytest.raises(GpdLawViolation, match="interchange"):
        validate_gcat(raw)


def test_vertical_law_violations_are_detected():
    raw = _zz_raw()
    c2 = raw["homs"]["x|y"]["compose2"]
    c2[c2.index(["s", "s", "1f"])] = ["s", "s", "s"]
    with pytest.raises(GpdLawViolation, match=r"^hom x\|y: 2-cell 's' is not invertible"):
        validate_gcat(raw)


def _vee_raw():
    """x -> y -> z with g . f = h, and a second 1-cell k: x -> z joined to
    h by the invertible 2-cell u: h => k with inverse v."""
    unit = lambda c: {"cells": [c], "twocells": [{"id": f"1{c}", "src": c, "dst": c}], "compose2": [[f"1{c}"] * 3]}
    xz = ["1h", "1k", "u", "v"]
    return {
        "objects": ["x", "y", "z"],
        "homs": {
            "x|x": unit("ix"),
            "y|y": unit("iy"),
            "z|z": unit("iz"),
            "x|y": unit("f"),
            "y|z": unit("g"),
            "x|z": {
                "cells": ["h", "k"],
                "twocells": [
                    {"id": "1h", "src": "h", "dst": "h"},
                    {"id": "1k", "src": "k", "dst": "k"},
                    {"id": "u", "src": "h", "dst": "k"},
                    {"id": "v", "src": "k", "dst": "h"},
                ],
                "compose2": [
                    ["1h", "1h", "1h"],
                    ["1k", "1k", "1k"],
                    ["u", "1h", "u"],
                    ["1k", "u", "u"],
                    ["v", "1k", "v"],
                    ["1h", "v", "v"],
                    ["v", "u", "1h"],
                    ["u", "v", "1k"],
                ],
            },
        },
        "identities": {"x": "ix", "y": "iy", "z": "iz"},
        "hcompose": {
            "cells": [["ix", "ix", "ix"], ["iy", "iy", "iy"], ["iz", "iz", "iz"]]
            + [["f", "ix", "f"], ["iy", "f", "f"], ["g", "iy", "g"], ["iz", "g", "g"]]
            + [[c, "ix", c] for c in "hk"]
            + [["iz", c, c] for c in "hk"]
            + [["g", "f", "h"]],
            "twocells": [["1ix", "1ix", "1ix"], ["1iy", "1iy", "1iy"], ["1iz", "1iz", "1iz"]]
            + [["1f", "1ix", "1f"], ["1iy", "1f", "1f"], ["1g", "1iy", "1g"], ["1iz", "1g", "1g"]]
            + [[a, "1ix", a] for a in xz]
            + [["1iz", a, a] for a in xz]
            + [["1g", "1f", "1h"]],
        },
    }


def _edit(table, old, new):
    """Replace the entry `old` of a list table by `new`, or delete it when
    `new` is None."""
    i = table.index(old)
    if new is None:
        del table[i]
    else:
        table[i] = new


# One violation per layer that check_gcat reports, each caught first there.
LAYER_VIOLATIONS = {
    "input": (_zz_raw, lambda raw: raw.update(objects=5)),
    "1-cells": (_zz_raw, lambda raw: _edit(raw["hcompose"]["cells"], ["g", "f", "gf"], None)),
    "2-cells": (_zz_raw, lambda raw: _edit(raw["hcompose"]["twocells"], ["t", "s", "1gf"], None)),
    "source": (_vee_raw, lambda raw: _edit(raw["hcompose"]["twocells"], ["1g", "1f", "1h"], ["1g", "1f", "1k"])),
    "target": (_vee_raw, lambda raw: _edit(raw["hcompose"]["twocells"], ["1g", "1f", "1h"], ["1g", "1f", "u"])),
    "identity 2-cells": (_zz_raw, lambda raw: _edit(raw["hcompose"]["twocells"], ["1g", "1f", "1gf"], ["1g", "1f", "w"])),
}


@pytest.mark.parametrize("layer", sorted(LAYER_VIOLATIONS))
def test_each_violation_names_its_layer(layer):
    fixture, edit = LAYER_VIOLATIONS[layer]
    raw = fixture()
    validate_gcat(raw)
    edit(raw)
    with pytest.raises(GpdLawViolation, match=f"^{re.escape(layer)}: "):
        validate_gcat(raw)


def test_homotopy_category_of_embedding_is_identity():
    for name in ("one", "two", "chain3", "diamond", "pp", "iso2", "z2", "free_boundary"):
        C = CATS[name]
        assert homotopy_category(embed(C)).category == C, name


def test_homotopy_category_of_pz2_is_the_arrow():
    h = homotopy_category(corpus.pz2())
    assert isomorphic(h.category, CATS["two"])


def test_hom_component_counts_match_quotient_hom_sizes():
    for _, G in [("pz2", corpus.pz2()), ("disc_gpd", corpus.disc_gpd())]:
        h = homotopy_category(G)
        for x in G.objects:
            for y in G.objects:
                inv = mapping_invariants(G, x, y)
                assert inv.components == len(h.category.hom(x, y))


def test_mapping_invariants_examples():
    P = corpus.pz2()
    assert mapping_invariants(P, "x", "y") == mapping_invariants(P, "x", "y")
    inv = mapping_invariants(P, "x", "y")
    assert inv.components == 1 and inv.automorphism_orders == (2,)
    assert not inv.contractible and inv.nonempty_connected
    assert mapping_invariants(P, "y", "x").components == 0
    e = embed(CATS["chain3"])
    assert mapping_invariants(e, "0", "2") == type(inv)(1, (1,))


def test_classify_object_examples():
    P = corpus.pz2()
    cls = classify_object(P, "x")
    assert (cls.initial, cls.h_initial, cls.weakly_initial_singleton) == (False, True, True)
    e3 = embed(CATS["chain3"])
    cls = classify_object(e3, "0")
    assert cls.initial and cls.h_initial and cls.weakly_initial_singleton
    ed = embed(CATS["disc2"])
    cls = classify_object(ed, "x")
    assert not (cls.initial or cls.h_initial or cls.weakly_initial_singleton)


def test_classification_implications_hold_everywhere():
    instances = [corpus.pz2(), corpus.disc_gpd()] + [embed(C) for C in CATS.values()]
    for G in instances:
        for x in G.objects:
            cls = classify_object(G, x)
            if cls.initial:
                assert cls.h_initial
            if cls.h_initial:
                assert cls.weakly_initial_singleton


def test_enriched_comma_of_the_pz2_point():
    G = corpus.pz2_pick_y()
    ec = enriched_comma_under(G, "x")
    assert list(ec.pairs.values()) == [("*", "f")]
    o = ec.base.objects[0]
    endo = ec.base.hom(o, o)
    assert len(endo.objects) == 2
    # only identity 2-cells: nothing connects the two endo 1-cells
    assert all(a.src == a.dst for a in endo.morphisms)
    assert len(endo.morphisms) == 2
    h = homotopy_category(ec.base)
    assert len(h.category.hom(o, o)) == 2


def test_enriched_comma_of_embedded_identity_is_discrete():
    G = embed_functor(identity_functor(CATS["chain3"]))
    ec = enriched_comma_under(G, "0")
    assert is_discrete(ec.base)
    assert isomorphic(homotopy_category(ec.base).category, CATS["chain3"])


def test_h_initial_condition_examples():
    assert h_initial_condition(embed_functor(identity_functor(CATS["chain3"]))).holds
    rep = h_initial_condition(corpus.pz2_pick_y())
    assert not rep.holds and rep.witnesses["x"] is None
    pick_top = embed_functor(corpus.functor(CATS["one"], CATS["chain3"], {"*": "2"}))
    assert h_initial_condition(pick_top).holds


def test_gaft_fin_on_the_fixture():
    res = gaft_fin_decide(corpus.pz2_pick_y())
    assert not res.exists and res.witness == "x"
    assert res.table["x"] == {"initial": None, "h_initial": None, "diverges": False}
    assert res.table["y"]["initial"] is not None


def test_gaft_fin_identity_on_embeddings():
    for name in ("chain3", "iso2", "z2"):
        G = identity_gfunctor(embed(CATS[name]))
        assert gaft_fin_decide(G).exists, name


def test_gaft_fin_agrees_with_plain_gaft_on_embeddings():
    for name, G in corpus.enriched_functors():
        if not name.startswith("embed"):
            continue
        assert gaft_fin_decide(G).exists == gaft_decide(homotopy_functor(G)).exists, name


def test_comparison_functor_profile_on_pz2():
    F, profile = comparison_functor(corpus.pz2_pick_y(), "x")
    assert profile.surjective_on_objects and profile.full and profile.conservative
    assert not profile.equalizing_pairs
    src = F.source
    o = src.objects[0]
    assert len(src.hom(o, o)) == 2
    assert len(F.target.hom(F.obj_map[o], F.obj_map[o])) == 1


def test_comparison_functor_is_isomorphism_on_embeddings():
    G = embed_functor(corpus.monotone_functor(CATS["chain3"], CATS["two"], {"0": "0", "1": "1", "2": "1"}))
    for c in G.target.objects:
        F, profile = comparison_functor(G, c)
        assert profile.full and profile.faithful and profile.surjective_on_objects
        assert isomorphic(F.source, F.target)


def test_initial_reflection_examples():
    rep = initial_reflection_check(identity_functor(CATS["chain3"]))
    assert rep.applies and rep.reflects
    F, _ = comparison_functor(corpus.pz2_pick_y(), "x")
    rep = initial_reflection_check(F)
    assert not rep.applies and rep.reflects is None


def test_initial_reflection_on_inflations():
    F = inflate(CATS["ppe"], [2, 1, 2])
    rep = initial_reflection_check(F)
    assert rep.applies and rep.reflects


def test_homotopy_adjoint_compare_fixture():
    rep = homotopy_adjoint_compare(corpus.pz2_pick_y())
    assert rep.h_result.exists and not rep.full_result.exists
    assert rep.limits_flag is None and rep.consistent is None


def test_homotopy_adjoint_compare_identity():
    rep = homotopy_adjoint_compare(identity_gfunctor(embed(CATS["chain3"])))
    assert rep.h_result.exists and rep.full_result.exists
    assert rep.limits_flag is True and rep.consistent is True


def test_homotopy_adjoint_compare_respects_supplied_flag():
    rep = homotopy_adjoint_compare(corpus.pz2_pick_y(), preserves_finite_limits=False)
    assert rep.consistent is None
    assert rep.limits_flag is False


def test_pz2_comma_quotient_lacks_equalizers():
    # the finite-limit escape hatch: the homotopy category of the enriched
    # comma at x is the two-element group, which has neither a terminal
    # object nor an equalizer of its parallel pair
    ec = enriched_comma_under(corpus.pz2_pick_y(), "x")
    h = homotopy_category(ec.base).category
    assert not has_finite_limits(h).ok
    o = h.objects[0]
    nonid = h.nonidentity()[0]
    assert equalizer_cones(h, h.id_of(o), nonid) == []


def test_solution_set_invariance_with_witness_transfer():
    for name, G in corpus.enriched_functors():
        for c in G.target.objects:
            rep = solution_set_invariance(G, c)
            assert rep.enriched_has_set == rep.ordinary_has_set, (name, c)
            assert rep.transfer_down_ok and rep.transfer_up_ok, (name, c)


def test_weakly_initial_object_sets_on_pz2():
    assert weakly_initial_object_sets(corpus.pz2()) == [("x",)]


def test_homotopy_functoriality_on_composable_embeddings():
    F1 = embed_functor(corpus.monotone_functor(CATS["two"], CATS["chain3"], {"0": "0", "1": "2"}))
    F2 = embed_functor(corpus.monotone_functor(CATS["chain3"], CATS["two"], {"0": "0", "1": "1", "2": "1"}))
    lhs = homotopy_functor(compose_gfunctors(F2, F1))
    h1, h2 = homotopy_functor(F1), homotopy_functor(F2)
    assert lhs.obj_map == {x: h2.obj_map[y] for x, y in h1.obj_map.items()}
    assert lhs.mor_map == {m: h2.mor_map[n] for m, n in h1.mor_map.items()}


def _table_mutants(doc, path, ids):
    """(label, copy of doc) for each single-entry change of the table at
    `path`: the entry deleted, or one of its ids replaced by another of
    `ids`.  A list table holds [key, key, value] triples, where every
    position is replaced in turn; a dict table has its values replaced."""
    table = doc
    for key in path:
        table = table[key]
    for k in list(range(len(table))) if isinstance(table, list) else list(table):
        entry = table[k]
        slots = range(len(entry)) if isinstance(table, list) else [None]
        where = "/".join(path) + " " + (",".join(entry) if isinstance(table, list) else k)
        changes = [(None, None)] + [
            (j, new) for j in slots for new in ids if new != (entry if j is None else entry[j])
        ]
        for j, new in changes:
            mutant = copy.deepcopy(doc)
            t = mutant
            for key in path:
                t = t[key]
            if new is None:
                del t[k]
            elif j is None:
                t[k] = new
            else:
                t[k] = entry[:j] + [new] + entry[j + 1 :]
            yield f"{where} [{j}] -> {new or 'deleted'}", mutant


def _cell_ids(raw):
    """The 1-cell and the 2-cell ids of an enriched category's JSON form."""
    homs = raw["homs"].values()
    return [c for h in homs for c in h["cells"]], [t["id"] for h in homs for t in h["twocells"]]


# The only single-entry mutant of the instances below that is still valid:
# the identity of pz2 with its Z/2 2-cell sent to the identity 2-cell.
# Pinned against the hand-written law checks that the fincat-based ones
# replaced; both accept exactly this set.
ACCEPTED_MUTANTS = {"pz2_identity arrow_map s [None] -> 1f"}


def test_single_entry_mutants_are_rejected_unless_pinned():
    gcats = [("pz2", gcat_to_dict(corpus.pz2())), ("zz", _zz_raw()), ("disc_gpd", gcat_to_dict(corpus.disc_gpd()))]
    gcats += [(f"embed_{n}", gcat_to_dict(embed(CATS[n]))) for n in ("chain3", "iso2", "z2", "pp")]
    accepted = set()
    count = 0
    for name, raw in gcats:
        cells, twocells = _cell_ids(raw)
        tables = [(("homs", k, "compose2"), twocells) for k in raw["homs"]] + [
            (("hcompose", "cells"), cells),
            (("hcompose", "twocells"), twocells),
            (("identities",), cells),
        ]
        for path, ids in tables:
            for label, mutant in _table_mutants(raw, path, ids):
                count += 1
                try:
                    validate_gcat(mutant)
                except GpdLawViolation:
                    continue
                accepted.add(f"{name} {label}")
    for name, F in corpus.enriched_functors():
        maps = {"obj_map": F.obj_map, "cell_map": F.cell_map, "arrow_map": F.arrow_map}
        ids = dict(zip(maps, (F.target.objects, *_cell_ids(gcat_to_dict(F.target)))))
        for table in maps:
            for label, mutant in _table_mutants(maps, (table,), ids[table]):
                count += 1
                try:
                    check_gfunctor(GpdFunctor(F.source, F.target, **mutant))
                except GpdLawViolation:
                    continue
                accepted.add(f"{name} {label}")
    assert count == 2464
    assert accepted == ACCEPTED_MUTANTS
