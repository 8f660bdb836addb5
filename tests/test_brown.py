import hashlib
import itertools
import json
import random
from collections import Counter

import pytest

from finadj import brown, corpus, limits, sweeps
from finadj.brown import (
    ColimitAbsent,
    CoproductAbsent,
    PushoutAbsent,
    SetFunctor,
    check_B1,
    check_B1p_B2p,
    check_B2,
    hom_functor,
    representability_search,
    validate_set_functor,
    weak_generators,
)
from finadj.fincat import CategoryError, FinCategory, identity_functor, opposite, validate_category
from finadj.limits import cospan_diagram, initial_objects, limit, pair_diagram

CATS = corpus.categories()


def constant_singleton(C: FinCategory) -> SetFunctor:
    return validate_set_functor(
        C,
        {
            "on_objects": {x: ["*"] for x in C.objects},
            "on_morphisms": {m.id: {"*": "*"} for m in C.morphisms},
        },
    )


def test_representables_satisfy_B1_and_B2_on_the_diamond():
    D = CATS["diamond"]
    for a in D.objects:
        F = hom_functor(D, a)
        assert check_B1(D, F).ok, a
        assert check_B2(D, F).ok, a


def test_B1_fails_at_the_empty_coproduct():
    rep = check_B1(CATS["two"], corpus.b1_failing_on_two())
    assert not rep.ok
    assert rep.witness["family"] == []


def test_B1_checks_need_coproducts():
    with pytest.raises(CoproductAbsent):
        check_B1(CATS["wedge"], constant_singleton(CATS["wedge"]))
    with pytest.raises(CoproductAbsent):
        check_B1(CATS["disc2"], constant_singleton(CATS["disc2"]))


def test_B2_failing_fixture_reports_the_documented_square():
    rep = check_B2(CATS["two"], corpus.b2_failing_on_two())
    assert not rep.ok
    assert rep.witness["square"] == {
        "span": ["0<1", "0<1"],
        "apex": "1",
        "legs": ["id_1", "id_1"],
    }
    assert rep.witness["missing"] == ["a", "b"]


def test_B2_checks_need_pushouts():
    with pytest.raises(PushoutAbsent):
        check_B2(CATS["pp"], constant_singleton(CATS["pp"]))


# -- independent recomputation of the two conditions -------------------------


def _b1_direct(C, F):
    """Unfold the definition with no shared bijection code: build the
    product of value sets and compare image multisets."""
    for i in initial_objects(C):
        if len(F.at(i)) != 1:
            return False
    Cop = opposite(C)
    for x in C.objects:
        for y in C.objects:
            for cc in limit(Cop, pair_diagram(Cop, x, y)):
                i1, i2 = cc.legs["j0"], cc.legs["j1"]
                image = sorted(
                    (F.restrict(i1, a), F.restrict(i2, a)) for a in F.at(cc.apex)
                )
                full = sorted(itertools.product(F.at(x), F.at(y)))
                if image != full:
                    return False
    return True


def _b2_direct(C, F):
    Cop = opposite(C)
    for f in C.morphisms:
        for g in C.morphisms:
            if f.src != g.src:
                continue
            for cc in limit(Cop, cospan_diagram(Cop, f.id, g.id)):
                p, q = cc.legs["j0"], cc.legs["j1"]
                image = {(F.restrict(p, a), F.restrict(q, a)) for a in F.at(cc.apex)}
                fiber = {
                    (b, c)
                    for b in F.at(f.dst)
                    for c in F.at(g.dst)
                    if F.restrict(f.id, b) == F.restrict(g.id, c)
                }
                if not fiber <= image:
                    return False
    return True


def _product_functor(C, F, G):
    pair = lambda a, b: f"{a}&{b}"
    on_objects = {
        x: tuple(pair(a, b) for a in F.at(x) for b in G.at(x)) for x in C.objects
    }
    on_morphisms = {
        m.id: {
            pair(a, b): pair(F.restrict(m.id, a), G.restrict(m.id, b))
            for a in F.at(m.dst)
            for b in G.at(m.dst)
        }
        for m in C.morphisms
    }
    return validate_set_functor(C, {"on_objects": on_objects, "on_morphisms": on_morphisms})


def _sum_functor(C, F, G):
    tag = lambda t, a: f"{t}.{a}"
    on_objects = {
        x: tuple(tag("l", a) for a in F.at(x)) + tuple(tag("r", b) for b in G.at(x))
        for x in C.objects
    }

    def table(m):
        out = {}
        for a in F.at(m.dst):
            out[tag("l", a)] = tag("l", F.restrict(m.id, a))
        for b in G.at(m.dst):
            out[tag("r", b)] = tag("r", G.restrict(m.id, b))
        return out

    on_morphisms = {m.id: table(m) for m in C.morphisms}
    return validate_set_functor(C, {"on_objects": on_objects, "on_morphisms": on_morphisms})


def test_checks_agree_with_direct_unfolding_on_random_functor_algebra():
    rng = random.Random(12)
    for name in ("two", "chain3", "diamond"):
        C = CATS[name]
        atoms = [hom_functor(C, a) for a in C.objects] + [constant_singleton(C)]
        for _ in range(12):
            F = atoms[rng.randrange(len(atoms))]
            G = atoms[rng.randrange(len(atoms))]
            combined = _product_functor(C, F, G) if rng.random() < 0.5 else _sum_functor(C, F, G)
            assert check_B1(C, combined).ok == _b1_direct(C, combined)
            assert check_B2(C, combined).ok == _b2_direct(C, combined)


def test_sums_of_representables_fail_B1_at_the_empty_coproduct():
    C = CATS["chain3"]
    F = _sum_functor(C, hom_functor(C, "1"), hom_functor(C, "2"))
    rep = check_B1(C, F)
    assert not rep.ok and rep.witness["family"] == []


def test_representability_search_examples():
    C = CATS["chain3"]
    res = representability_search(C, hom_functor(C, "1"))
    assert res.found and res.representing == "1"
    res = representability_search(C, constant_singleton(C))
    assert res.found and res.representing == "2"
    res = representability_search(CATS["two"], corpus.b2_failing_on_two())
    assert not res.found
    assert set(res.obstructions) == {"0", "1"}


def test_representability_components_are_the_yoneda_transformation():
    C = CATS["diamond"]
    res = representability_search(C, hom_functor(C, "a"))
    assert res.found and res.element == "id_a"
    for y in C.objects:
        for g in C.hom(y, "a"):
            assert res.components[y][g] == g


def test_weak_generators_examples():
    assert weak_generators(CATS["chain3"]) == [("1", "2")]
    assert weak_generators(CATS["one"]) == [()]
    assert weak_generators(CATS["disc2"]) == [()]
    objs = [str(i) for i in range(30)]
    assert weak_generators(corpus.poset_category(objs, list(itertools.combinations(objs, 2)))) == [tuple(objs[1:])]


def _postcomposition_is_bijection(C, g, f):
    image = [C.compose(f, h) for h in C.hom(g, C.src(f))]
    return len(set(image)) == len(image) and set(image) == set(C.hom(g, C.dst(f)))


def test_weak_generators_detect_all_non_isos():
    for name, C in CATS.items():
        non_isos = [f for f in C.morphisms if not C.is_iso(f.id)]
        for f in non_isos:  # no edge is empty: f is detected at its source or target
            assert not all(_postcomposition_is_bijection(C, g, f.id) for g in (f.src, f.dst)), (name, f.id)
        sets = weak_generators(C)
        assert sets, name
        for gens in sets:
            for f in non_isos:
                assert any(not _postcomposition_is_bijection(C, g, f.id) for g in gens), (name, f.id)


def test_B1p_B2p_examples():
    assert check_B1p_B2p(identity_functor(CATS["diamond"])).ok
    two_to_one = corpus.monotone_functor(CATS["two"], CATS["one"], {"0": "*", "1": "*"})
    assert check_B1p_B2p(two_to_one).ok
    pick1 = corpus.functor(CATS["one"], CATS["two"], {"*": "1"})
    rep = check_B1p_B2p(pick1)
    assert not rep.ok and rep.witness["colimit"] == "empty coproduct"


def test_B1p_B2p_needs_source_colimits():
    with pytest.raises(ColimitAbsent):
        check_B1p_B2p(identity_functor(CATS["wedge"]))


def test_B1p_needs_coproduct_images_to_be_coproducts_not_weak_ones():
    # I is initial; T receives a: A -> T and b: B -> T, and the idempotent e
    # on T fixes both, so (T; a, b) is a weak coproduct of A and B that
    # factors through itself by id_T and by e
    arrows = [("iA", "I", "A"), ("iB", "I", "B"), ("iT", "I", "T")]
    arrows += [("a", "A", "T"), ("b", "B", "T"), ("e", "T", "T")]
    compose = [["a", "iA", "iT"], ["b", "iB", "iT"], ["e", "iT", "iT"]]
    compose += [["e", "e", "e"], ["e", "a", "a"], ["e", "b", "b"]]
    D = validate_category(
        {
            "objects": ["I", "A", "B", "T"],
            "morphisms": [{"id": f"id_{x}", "src": x, "dst": x} for x in "IABT"]
            + [{"id": m, "src": s, "dst": d} for m, s, d in arrows],
            "identities": {x: f"id_{x}" for x in "IABT"},
            "compose": compose,
        }
    )
    F = corpus.functor(
        CATS["diamond"],
        D,
        {"bot": "I", "a": "A", "b": "B", "top": "T"},
        {"bot<a": "iA", "bot<b": "iB", "a<top": "a", "b<top": "b"},
    )
    rep = check_B1p_B2p(F)
    assert rep.witness == {"colimit": ["coproduct", "a", "b"], "image_apex": "T"}


# sha256 of the sorted-key JSON of one [name, ok, witness] row per
# instance, with ["name", "absent", message] where ColimitAbsent is raised;
# recorded when coproducts and pushouts still had their own cocone search
B1P_B2P_DIGEST = "abf52f92528e4fe4d2cce9e92885da4ec624c4084ccb6a6ced62d9b5c20f6663"


def _b1p_b2p_instances():
    """The curated oracle functors, then every monotone map from a poset of
    at most 4 elements into one of at most 2."""
    yield from corpus.curated_oracle_functors()
    posets = corpus.posets_up_to(4)
    small = [Q for Q in posets if len(Q.objects) <= 2]
    for i, P in enumerate(posets):
        for j, Q in enumerate(small):
            for k, F in enumerate(corpus.monotone_maps(P, Q)):
                yield f"poset{i}->poset{j}#{k}", F


def test_B1p_B2p_results_are_pinned():
    rows = []
    for name, F in _b1p_b2p_instances():
        try:
            rep = check_B1p_B2p(F)
            rows.append([name, rep.ok, rep.witness])
        except ColimitAbsent as exc:
            rows.append([name, "absent", str(exc)])
    assert len(rows) == 312
    assert Counter(str(r[1]) for r in rows) == {"absent": 251, "False": 37, "True": 24}
    assert [r for r in rows if r[1] is False and r[2]["colimit"] != "empty coproduct"] == [
        ["poset22->poset3#1", False, {"colimit": ["coproduct", "p1", "p3"], "image_apex": "p1"}]
    ]
    text = json.dumps(rows, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == B1P_B2P_DIGEST


def test_B1p_B2p_implies_hom_functors_satisfy_B1_B2():
    # when the image functor preserves the colimits, every represented
    # functor through it inherits both conditions
    instances = [
        identity_functor(CATS["diamond"]),
        corpus.monotone_functor(CATS["two"], CATS["one"], {"0": "*", "1": "*"}),
        corpus.monotone_functor(CATS["diamond"], CATS["two"], {"bot": "0", "a": "1", "b": "1", "top": "1"}),
    ]
    for F in instances:
        if not check_B1p_B2p(F).ok:
            continue
        C, D = F.source, F.target
        for d in D.objects:
            Yd = validate_set_functor(
                C,
                {
                    "on_objects": {c: list(D.hom(F.obj_map[c], d)) for c in C.objects},
                    "on_morphisms": {
                        m.id: {
                            g: D.compose(g, F.mor_map[m.id])
                            for g in D.hom(F.obj_map[m.dst], d)
                        }
                        for m in C.morphisms
                    },
                },
            )
            assert check_B1(C, Yd).ok, (F.obj_map, d)
            assert check_B2(C, Yd).ok, (F.obj_map, d)


def test_exhaustive_checker_is_experimental_and_bounded():
    # no claim is made beyond the enumerated range; on these two posets
    # every small functor passing both conditions happens to be
    # representable, and the report says exactly that
    from finadj.brown import exhaustive_representability_check

    rep = exhaustive_representability_check(CATS["two"], 2)
    assert rep.functors_checked > 0
    assert rep.passing_both == rep.representable
    assert rep.holds
    rep = exhaustive_representability_check(CATS["chain3"], 1)
    assert rep.holds


# sha256 of one row [name, k, report] per exhaustive check below, the report
# [functors_checked, passing_both, representable, counterexamples] or
# ["absent", message] for a ColimitAbsent; taken from the release that
# enumerated restriction tables by hand and kept those that validated
EXHAUSTIVE_DIGEST = "7697a6b785c9e905bec7790d54ba1bdfe39826437d8515f7c1d7a85a84b374ad"


def test_exhaustive_reports_are_pinned():
    cats = sweeps.sweep_corpus_categories()
    rows = []
    for name, C, sizes in [(n, C, (0, 1, 2)) for n, C in cats] + [(f"{n}^op", opposite(C), (0, 1)) for n, C in cats]:
        for k in sizes:
            fresh = FinCategory(C.objects, C.morphisms, dict(C.identity), dict(C.compose_table))
            try:
                rep = brown.exhaustive_representability_check(fresh, k)
                rows.append([name, k, [rep.functors_checked, rep.passing_both, rep.representable, list(rep.counterexamples)]])
            except ColimitAbsent as exc:
                rows.append([name, k, ["absent", str(exc)]])
    assert (len(rows), sum(row[2][0] != "absent" for row in rows)) == (195, 61)
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == EXHAUSTIVE_DIGEST


def test_enumerated_set_functors_are_functors():
    # functoriality holds by construction, so nothing filters the enumeration
    count = 0
    for _, C in sweeps.sweep_corpus_categories():
        if initial_objects(C):
            for F in brown.set_functors(C, 2):
                assert validate_set_functor(C, F.to_dict()) == F
                count += 1
    assert count == 1967


def test_set_functor_validation_catches_broken_tables():
    C = CATS["two"]
    with pytest.raises(Exception):
        validate_set_functor(
            C,
            {
                "on_objects": {"0": ["a"], "1": ["b"]},
                "on_morphisms": {"id_0": {"a": "a"}, "id_1": {"b": "b"}, "0<1": {"b": "zzz"}},
            },
        )


def test_set_functor_validation_refuses_entries_nothing_reads():
    raw = corpus.b2_failing_on_two().to_dict()
    raw["on_objects"]["q"] = []
    raw["on_morphisms"]["r"] = {}
    with pytest.raises(CategoryError, match=r"\['q', 'r'\] are assigned values but are not in the category"):
        validate_set_functor(CATS["two"], raw)
    raw = {"on_objects": {"*": ["a", "a"]}, "on_morphisms": {"id_*": {"a": "a"}}}
    with pytest.raises(CategoryError, match=r"F\('\*'\) lists an element more than once"):
        validate_set_functor(CATS["one"], raw)


# -- the colimit table each category keeps ----------------------------------


def _outcome(check, C, F):
    """The check's report, or the type and message of what it raised."""
    try:
        return check(C, F)
    except CategoryError as exc:
        return type(exc), str(exc)


def test_conditions_read_a_filled_table_as_a_fresh_one():
    enumerated = [F for name in ("two", "chain3") for F in brown.set_functors(CATS[name], 2)]
    cases = [(F.base, F) for F in enumerated]
    cases += [(C, hom_functor(C, a)) for _, C in sweeps.sweep_corpus_categories() for a in C.objects]
    two = corpus.two()
    cases += [(two, corpus.b1_failing_on_two()), (two, corpus.b2_failing_on_two())]
    # in a shuffled order, each check on a shared value reads what earlier
    # checks left in its tables: a part, all of one, or up to a missing colimit
    random.Random(0).shuffle(cases)
    for C, F in cases:
        fresh = FinCategory(C.objects, C.morphisms, dict(C.identity), dict(C.compose_table))
        for check in (check_B1, check_B2):
            assert _outcome(check, C, F) == _outcome(check, fresh, F)
    assert len(enumerated) == 58 and len(cases) == 174


def test_brown_necessity_computes_each_colimit_once(monkeypatch):
    # a limit is charged to the category value whose opposite it is taken in
    made_from, calls = {}, []
    opposite_, limit_ = brown.opposite, limits.limit

    def recording_opposite(C):
        Cop = opposite_(C)
        made_from[id(Cop)] = (C, Cop)  # both stay alive, so no id is reused
        return Cop

    def recording_limit(Cop, diagram, **kw):
        C = made_from[id(Cop)][0]
        calls.append((id(C), tuple(diagram.obj_map.items()), tuple(diagram.mor_map.items())))
        return limit_(Cop, diagram, **kw)

    monkeypatch.setattr(brown, "opposite", recording_opposite)
    monkeypatch.setattr(limits, "limit", recording_limit)
    tally = sweeps.check_brown_necessity(sweeps.sweep_corpus_categories())
    assert not tally.failures and tally.details["yoneda_objects"] > 0
    assert calls and max(Counter(calls).values()) == 1
