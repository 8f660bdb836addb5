import copy
import gc
import hashlib
import json
import re
import weakref
from collections import Counter

import pytest

from finadj import corpus, enriched, sweeps
from finadj.adjoint import gaft_decide
from finadj.enriched import (
    GpdFunctor,
    GpdLawViolation,
    ObjectClassification,
    check_gcat,
    check_gfunctor,
    classify_object,
    comparison_functor,
    embed,
    embed_functor,
    enriched_comma_under,
    gaft_fin_decide,
    gcat_to_dict,
    homotopy_adjoint_compare,
    homotopy_category,
    homotopy_functor,
    identity_gfunctor,
    initial_reflection_check,
    is_discrete,
    mapping_invariants,
    small_gcat,
    solution_set_invariance,
    validate_gcat,
    validate_gfunctor,
)
from finadj.fincat import identity_functor, isomorphic, small_category
from finadj.limits import equalizer_cones, has_finite_limits, weakly_initial_sets
from finadj.sweeps import inflate

CATS = corpus.categories()


def test_pz2_validates_and_roundtrips_through_json():
    P = corpus.pz2()
    assert validate_gcat(gcat_to_dict(P)) == P


# sha256 of json.dumps(gcat_to_dict(...)) of the enriched fixtures, taken
# while each was written out as a full JSON table
FIXTURE_DIGESTS = {
    "pz2": "979d4cb1c8c14b31d7562cd68f1ef67d74de23df4bca766458030b092dedacff",
    "disc_gpd": "c2d2e62e7930d04e6bef8355f92958141f9d8647373fc7ad94f1f5f7184fcb86",
}


def test_enriched_fixtures_are_pinned():
    for name, digest in FIXTURE_DIGESTS.items():
        G = getattr(corpus, name)()
        assert hashlib.sha256(json.dumps(gcat_to_dict(G)).encode()).hexdigest() == digest, name


@pytest.mark.parametrize(
    "path, entry, table",
    [
        (("homs", "x|y", "compose2"), ["s", "s", "s"], "hom x|y compose2"),
        (("hcompose", "cells"), ["f", "id_x", "id_y"], "hcompose cells"),
        (("hcompose", "twocells"), ["s", "1id_x", "1f"], "hcompose twocells"),
    ],
)
def test_conflicting_entries_are_refused(path, entry, table):
    raw = gcat_to_dict(corpus.pz2())
    entries = raw
    for key in path:
        entries = entries[key]
    entries.insert(0, entry)
    pair = f"({entry[0]}, {entry[1]})"
    with pytest.raises(GpdLawViolation, match=f"^{re.escape(f'{table}: conflicting compose entries for {pair}')}$"):
        validate_gcat(raw)
    entries[0] = list(entries[1])  # an identical repeat
    assert validate_gcat(raw) == corpus.pz2()


def test_small_gcat_of_each_corpus_category_has_it_as_homotopy_category():
    for name, C in CATS.items():
        cells = [(m.id, m.src, m.dst) for m in C.morphisms if not C.is_identity(m.id)]
        composites = [(g, f, gf) for (g, f), gf in C.compose_table.items() if not (C.is_identity(g) or C.is_identity(f))]
        G = small_gcat(C.objects, cells, hcompose_cells=composites)
        check_gcat(G)
        assert is_discrete(G) and G.homotopy.category == C, name


def test_small_gcat_with_z3_two_cells_on_an_identity():
    # one object and one 1-cell: by Eckmann-Hilton the horizontal
    # composition of 2-cells is the vertical one
    z3 = [("r", "r", "r2"), ("r", "r2", "1id_x"), ("r2", "r", "1id_x"), ("r2", "r2", "r")]
    G = small_gcat(["x"], [], [("r", "id_x", "id_x"), ("r2", "id_x", "id_x")], z3, (), z3)
    inv = mapping_invariants(G, "x", "x")
    assert inv.components == 1 and inv.automorphism_orders == (3,)


def test_embed_is_discrete_and_valid():
    E = embed(CATS["chain3"])
    assert is_discrete(E)
    assert not is_discrete(corpus.pz2())


def _zz_raw():
    """Three objects in a chain, each hom a 2-element automorphism group."""
    return gcat_to_dict(
        small_gcat(
            ["x", "y", "z"],
            [("f", "x", "y"), ("g", "y", "z"), ("gf", "x", "z")],
            [("s", "f", "f"), ("t", "g", "g"), ("w", "gf", "gf")],
            [("s", "s", "1f"), ("t", "t", "1g"), ("w", "w", "1gf")],
            [("g", "f", "gf")],
            [("1g", "s", "w"), ("t", "1f", "w"), ("t", "s", "1gf")],
        )
    )


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
    return gcat_to_dict(
        small_gcat(
            ["x", "y", "z"],
            [("f", "x", "y"), ("g", "y", "z"), ("h", "x", "z"), ("k", "x", "z")],
            [("u", "h", "k"), ("v", "k", "h")],
            [("v", "u", "1h"), ("u", "v", "1k")],
            [("g", "f", "h")],
        )
    )


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


def test_gfunctor_without_its_categories_needs_source_and_target():
    F = corpus.pz2_pick_y()
    maps = {"obj_map": F.obj_map, "cell_map": F.cell_map, "arrow_map": F.arrow_map}
    with pytest.raises(GpdLawViolation, match=r"^input: \$: missing key 'source'$"):
        validate_gfunctor(maps)
    with pytest.raises(GpdLawViolation, match=r"^input: \$: missing key 'target'$"):
        validate_gfunctor({"source": gcat_to_dict(F.source), **maps})
    with pytest.raises(GpdLawViolation, match=r"^input: \$\.source\.objects: expected a list, got int$"):
        validate_gfunctor({"source": {"objects": 5}, "target": gcat_to_dict(F.target), **maps})
    assert validate_gfunctor({"source": gcat_to_dict(F.source), "target": gcat_to_dict(F.target), **maps}) == F


def test_homotopy_category_of_embedding_is_identity():
    tally = sweeps.check_homotopy_of_embedding(CATS)
    assert tally.checks == 8 and not tally.failures


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
    def h_initial(G):
        return {c: row["h_initial"] for c, row in gaft_fin_decide(G).table.items()}

    assert None not in h_initial(embed_functor(identity_functor(CATS["chain3"]))).values()
    assert h_initial(corpus.pz2_pick_y())["x"] is None
    pick_top = embed_functor(corpus.functor(CATS["one"], CATS["chain3"], {"*": "2"}))
    assert None not in h_initial(pick_top).values()


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
    for name, G in corpus.enriched_functors(corpus.categories()):
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


# (enriched_set, ordinary_set) per anchor, taken from the release before the
# ordinary comma was built through fincat.category_over
INVARIANCE_SETS = {
    "embed_id_chain3": {"0": (("(0,id_0)",), ("(0,id_0)",)), "1": (("(1,id_1)",), ("(1,id_1)",)), "2": (("(2,id_2)",), ("(2,id_2)",))},
    "embed_chain3_to_two": {"0": (("(0,id_0)",), ("(0,id_0)",)), "1": (("(1,id_1)",), ("(1,id_1)",))},
    "embed_one_to_disc2": {"x": (("(*,id_x)",), ("(*,id_x)",)), "y": ((), ())},
    "embed_two_to_chain3": {"0": (("(0,id_0)",), ("(0,id_0)",)), "1": (("(1,1<2)",), ("(1,1<2)",)), "2": (("(1,id_2)",), ("(1,id_2)",))},
    "embed_one_to_chain3_top": {"0": (("(*,0<2)",), ("(*,0<2)",)), "1": (("(*,1<2)",), ("(*,1<2)",)), "2": (("(*,id_2)",), ("(*,id_2)",))},
    "pz2_pick_y": {"x": (("(*,f)",), ("(*,f)",)), "y": (("(*,id_y)",), ("(*,id_y)",))},
    "pz2_pick_x": {"x": (("(*,id_x)",), ("(*,id_x)",)), "y": ((), ())},
    "pz2_identity": {"x": (("(x,id_x)",), ("(x,id_x)",)), "y": (("(y,id_y)",), ("(y,id_y)",))},
    "pz2_to_point": {"*": (("(x,id_*)",), ("(x,id_*)",))},
    "disc_gpd_pick_x": {"x": (("(*,id_x)",), ("(*,id_x)",)), "y": ((), ())},
    "disc_gpd_pick_y": {"x": (("(*,f1)", "(*,f2)"), ("(*,f1)", "(*,f2)")), "y": (("(*,id_y)",), ("(*,id_y)",))},
}


def test_solution_set_invariance_witnesses_are_pinned():
    found = {}
    for name, G in corpus.enriched_functors(corpus.categories()):
        reps = {c: solution_set_invariance(G, c) for c in G.target.objects}
        found[name] = {c: (r.enriched_set, r.ordinary_set) for c, r in reps.items()}
    assert found == INVARIANCE_SETS


def test_weakly_initial_object_sets_on_pz2():
    # objects reaching everything by a 1-cell: weak initiality in the 1-cell layer
    assert weakly_initial_sets(corpus.pz2().cell_layer) == [("x",)]


def test_homotopy_functoriality_on_composable_embeddings():
    tally = sweeps.check_homotopy_functoriality(CATS)
    assert tally.checks == 1 and not tally.failures


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
    for name, F in corpus.enriched_functors(corpus.categories()):
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


def test_reflection_sweep_builds_and_checks_each_draw_once(monkeypatch):
    cats = sweeps.sweep_corpus_categories()
    draws = {name.split("#")[0] for name, *_ in sweeps.generate_reflection_functors(0, cats)}
    calls = Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(sweeps, "inflate", counted(sweeps.inflate))
    monkeypatch.setattr(enriched, "initial_reflection_check", counted(enriched.initial_reflection_check))
    tally = sweeps.check_initial_reflection(0, cats, corpus.pz2_pick_y())
    assert tally.details == {"reflection_generated": 200, "reflection_qualifying": 200}
    assert tally.checks == 201 and not tally.failures
    # 124 distinct draws of 200; one more check for the pz2 comparison functor
    assert len(draws) == 124
    assert calls == {"inflate": 124, "initial_reflection_check": 125}


def test_reflection_sweep_holds_one_functor_at_a_time(monkeypatch):
    # each draw's functor is freed by reference counting once it is checked
    refs, check = [], enriched.initial_reflection_check

    def checked_alone(F):
        assert all(r() is None for r in refs)
        refs.append(weakref.ref(F))
        return check(F)

    monkeypatch.setattr(enriched, "initial_reflection_check", checked_alone)
    gc.disable()
    try:
        tally = sweeps.check_initial_reflection(0, sweeps.sweep_corpus_categories(), corpus.pz2_pick_y())
    finally:
        gc.enable()
    assert tally.checks == 201 and not tally.failures and len(refs) == 125


def test_enriched_comma_cells_are_named_injectively(tmp_path):
    """Out of the comma object (d, id_c), the 1-cells over p,id2_a and p
    would both be named (p,id2_a,id2_b)@(d,id_c) without escaping."""
    from finadj.cli import run

    D = small_category(["d", "e1", "e2"], [("p,id2_a", "d", "e1"), ("p", "d", "e2")], [])
    C = small_category(["c", "g1", "g2"], [("b", "c", "g1"), ("a,id2_b", "c", "g2")], [])
    G = corpus.functor(D, C, {"d": "c", "e1": "g1", "e2": "g2"}, {"p,id2_a": "b", "p": "a,id2_b"})
    assert gaft_decide(G).exists
    gf = embed_functor(G)
    cells = enriched_comma_under(gf, "c").cell_info
    assert cells["(p\\,id2_a,id2_b)@(d,id_c)"] == ("p,id2_a", "id2_b")
    assert cells["(p,id2_a,id2_b)@(d,id_c)"] == ("p", "id2_a,id2_b")
    assert gaft_fin_decide(gf).exists
    path = tmp_path / "gf.json"
    doc = {"source": gcat_to_dict(gf.source), "target": gcat_to_dict(gf.target),
           "obj_map": gf.obj_map, "cell_map": gf.cell_map, "arrow_map": gf.arrow_map}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["gaft-fin", "--gfunctor", str(path), "--out", str(tmp_path / "out.json")]) == 0
    assert json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))["verdict"] == "exists"


# sha256 of [gcat_to_dict(base), pairs, cell_info] for the enriched comma at
# every anchor of the functors below, one JSON document per comma; taken
# before the comma's 1-cell and 2-cell names were escaped, which leaves
# every name here unchanged
ENRICHED_COMMA_DIGEST = "07d5284b68b33b2e21cfa382fa253752c11b32271eab8b11ee715d85041b0115"


def test_enriched_commas_are_pinned():
    functors = [G for _, G in corpus.enriched_functors(corpus.categories())]
    functors += [embed_functor(G) for _, G in corpus.curated_oracle_functors()]
    digest = hashlib.sha256()
    for G in functors:
        for c in G.target.objects:
            ec = enriched_comma_under(G, c)
            digest.update(json.dumps([gcat_to_dict(ec.base), ec.pairs, ec.cell_info]).encode() + b"\n")
    assert len(functors) == 37
    assert digest.hexdigest() == ENRICHED_COMMA_DIGEST


def _gaft_fin_instances():
    """The enriched functors, the embedded curated oracle functors and three
    embedded inflations of the diamond, past the oracle's bounds."""
    functors = [G for _, G in corpus.enriched_functors(corpus.categories())]
    functors += [embed_functor(G) for _, G in corpus.curated_oracle_functors()]
    functors += [embed_functor(inflate(corpus.diamond(), c)) for c in ([1, 1, 1, 1], [2, 1, 2, 1], [3, 2, 3, 2])]
    assert len(functors) == 40
    return functors


# sha256 of [exists, witness, table] of gaft_fin_decide on each of
# `_gaft_fin_instances()`, one JSON document per instance; taken while the
# decision still built every enriched comma in full
GAFT_FIN_DIGEST = "e0bfe62dd7f8c3135d56ea8c1b63891fe989d7aa024ed764229477afdf336181"


def test_gaft_fin_verdicts_are_pinned():
    digest = hashlib.sha256()
    for G in _gaft_fin_instances():
        res = gaft_fin_decide(G)
        digest.update(json.dumps([res.exists, res.witness, res.table]).encode() + b"\n")
    assert digest.hexdigest() == GAFT_FIN_DIGEST


def test_the_comma_view_reads_the_full_commas_groupoids():
    for G in _gaft_fin_instances():
        for c in G.target.objects:
            view, base = enriched._comma_view(G, c), enriched_comma_under(G, c).base
            assert tuple(view.objects) == base.objects
            for o in base.objects:
                for o2 in base.objects:
                    assert view.hom(o, o2).to_dict() == base.hom(o, o2).to_dict(), (c, o, o2)


def test_the_enriched_decision_builds_no_comma(monkeypatch):
    functors = [G for _, G in corpus.enriched_functors(corpus.categories())]  # embedding builds and checks these first
    assert len(functors) == 11
    calls = []  # every build or check of an enriched category during the decisions
    for name in ("enriched_comma_under", "check_gcat", "GpdCategory"):
        shared = getattr(enriched, name)

        def recording(*args, name=name, shared=shared, **kwargs):
            calls.append(name)
            return shared(*args, **kwargs)

        monkeypatch.setattr(enriched, name, recording)
    for G in functors:
        gaft_fin_decide(G)
    assert calls == []


def test_the_enriched_decision_reads_an_object_only_while_it_can_change_the_table(monkeypatch):
    functors = _gaft_fin_instances()
    built, comma_map = [], enriched._comma_map
    monkeypatch.setattr(enriched, "_comma_map", lambda *args: built.append(args[2:]) or comma_map(*args))
    for G in functors:
        gaft_fin_decide(G)
    # 209 while every object read each hom up to its first initial object's
    assert len(built) == 170


def test_classify_object_is_its_three_quantifiers():
    for G in _gaft_fin_instances():
        for c in G.target.objects:
            view = enriched._comma_view(G, c)
            for x in view.objects:
                invs = [mapping_invariants(view, x, y) for y in view.objects]
                assert classify_object(view, x) == ObjectClassification(
                    all(i.contractible for i in invs),
                    all(i.nonempty_connected for i in invs),
                    all(i.components >= 1 for i in invs),
                )


def test_the_enriched_sweep_builds_and_checks_one_comma_per_anchor(monkeypatch):
    built, checked = [], []
    comma_under, check = enriched.enriched_comma_under, enriched.check_gcat

    def recording_comma(G, c):
        ec = comma_under(G, c)
        built.append(ec.base)
        return ec

    monkeypatch.setattr(enriched, "enriched_comma_under", recording_comma)
    monkeypatch.setattr(enriched, "check_gcat", lambda G: checked.append(G) or check(G))
    report = sweeps.enriched_sweep()
    assert report["failures"] == 0 and report["checks"] == 78
    # solution-set invariance and the comparison functor read one comma each
    # at the 24 anchors of the 11 enriched functors, not one each
    assert len(built) == 24
    assert all(any(base is G for G in checked) for base in built)


def test_functors_with_kept_commas_are_freed_by_reference_counting():
    # the homotopy functor and the commas an anchor's invariants keep name
    # objects and cells only, so G and all it keeps go with G's last reference
    gc.disable()
    try:
        G = corpus.pz2_pick_y()
        for c in G.target.objects:
            solution_set_invariance(G, c)
            comparison_functor(G, c)
        kept = [G, G.homotopy, *(x for c in G.target.objects for x in enriched.commas_under(G, c))]
        refs = [weakref.ref(x) for x in kept]
        del G, kept
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
