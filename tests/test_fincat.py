import hashlib
import itertools
import json
import re
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from finadj import corpus, sweeps
from finadj.cli import run
from finadj.fincat import (
    AssociativityViolation,
    ClosureBoundExceeded,
    IdentityViolation,
    MissingComposite,
    NotFunctorial,
    CategoryError,
    FinCategory,
    FinFunctor,
    Morphism,
    UnknownObject,
    build_category,
    category_over,
    check_functor_laws,
    check_laws,
    components,
    compose_functors,
    functor_profile,
    functor_space,
    identity_functor,
    isomorphic,
    minimal_transversals,
    opposite,
    opposite_functor,
    search,
    small_category,
    validate_category,
    validate_functor,
)
from finadj.presentation import close_presentation

CATS = corpus.categories()


def test_terminal_category_is_valid_with_one_morphism():
    C = corpus.one()
    assert len(C.morphisms) == 1
    assert C.identity["*"] == "id_*"
    check_laws(C)


def test_chain3_has_six_morphisms():
    C = corpus.chain3()
    assert len(C.morphisms) == 6
    check_laws(C)


def test_hom_rows_list_each_hom_set_in_declared_order():
    # every corpus category, its opposite, and the inflation of each distinct reflection draw
    cats = sweeps.sweep_corpus_categories()
    draws = {key: build for _, key, build in sweeps.generate_reflection_functors(0, cats)}
    values = [C for _, C in cats] + [opposite(C) for _, C in cats] + [build().source for build in draws.values()]
    assert len(values) == 2 * len(cats) + 124
    for C in values:
        for x in C.objects:
            row = C.hom_from(x)
            expected = {y: tuple(m.id for m in C.morphisms if (m.src, m.dst) == (x, y)) for y in C.objects}
            assert row == {y: ms for y, ms in expected.items() if ms}
            assert all(C.hom(x, y) == ms for y, ms in expected.items())
    assert corpus.one().hom_from("nowhere") == {} and corpus.one().hom("nowhere", "*") == ()


def test_associativity_violation_is_detected():
    raw = {
        "objects": ["*"],
        "morphisms": [
            {"id": "id_*", "src": "*", "dst": "*"},
            {"id": "p", "src": "*", "dst": "*"},
            {"id": "q", "src": "*", "dst": "*"},
        ],
        "identities": {"*": "id_*"},
        "compose": [
            ["p", "p", "q"],
            ["p", "q", "p"],
            ["q", "p", "q"],
            ["q", "q", "q"],
        ],
    }
    with pytest.raises(AssociativityViolation):
        validate_category(raw)


def test_identity_violation_is_detected():
    raw = corpus.two().to_dict()
    raw["compose"].append(["id_1", "0<1", "id_1"])
    with pytest.raises((IdentityViolation, MissingComposite)):
        validate_category(raw)


def test_generator_closure_completes_partial_tables():
    # free category on the triangle boundary graph: a second 0 -> 2 arrow
    # appears as the formal composite
    raw = {
        "objects": ["0", "1", "2"],
        "morphisms": [
            {"id": "id_0", "src": "0", "dst": "0"},
            {"id": "id_1", "src": "1", "dst": "1"},
            {"id": "id_2", "src": "2", "dst": "2"},
            {"id": "a", "src": "0", "dst": "1"},
            {"id": "b", "src": "1", "dst": "2"},
            {"id": "e", "src": "0", "dst": "2"},
        ],
        "identities": {"0": "id_0", "1": "id_1", "2": "id_2"},
        "compose": [],
    }
    C = validate_category(raw)
    assert len(C.hom("0", "2")) == 2
    assert len(C.morphisms) == 7


def test_closure_bound_is_enforced():
    raw = {
        "objects": ["*"],
        "morphisms": [
            {"id": "id_*", "src": "*", "dst": "*"},
            {"id": "t", "src": "*", "dst": "*"},
        ],
        "identities": {"*": "id_*"},
        "compose": [],
    }
    with pytest.raises(ClosureBoundExceeded):
        validate_category(raw, closure_bound=50)


def test_closure_respects_declared_relations():
    # a loop forced to square to the identity closes to the 2-element group
    raw = {
        "objects": ["*"],
        "morphisms": [
            {"id": "id_*", "src": "*", "dst": "*"},
            {"id": "s", "src": "*", "dst": "*"},
        ],
        "identities": {"*": "id_*"},
        "compose": [["s", "s", "id_*"]],
    }
    C = validate_category(raw)
    assert C == corpus.z2()


def test_closure_of_two_loops_is_the_cyclic_group_of_order_four():
    # t o t = s with s o s = id: merging classes carries their steps over
    C = small_category(["*"], [("s", "*", "*"), ("t", "*", "*")], [("s", "s", "id_*"), ("t", "t", "s")])
    assert C.morphism_ids() == ("id_*", "s", "t", "t∘s")
    assert all(C.is_iso(m) for m in C.morphism_ids())


def test_closure_of_a_retraction_has_an_idempotent():
    C = small_category(["0", "1"], [("a", "0", "1"), ("b", "1", "0")], [("b", "a", "id_0")])
    assert len(C.morphisms) == 5
    e = C.compose("a", "b")
    assert not C.is_identity(e) and C.compose(e, e) == e


def test_closure_refuses_to_equate_non_parallel_morphisms():
    arrows = [("a", "0", "1"), ("b", "1", "2"), ("c", "0", "1")]
    with pytest.raises(MissingComposite, match=r"^compose\(b, a\) = c has endpoints '0'->'1', expected '0'->'2'$"):
        small_category(["0", "1", "2"], arrows, [("b", "a", "c")])
    # validation refuses such an entry first; the closure still refuses the relation itself
    identities = {x: f"id_{x}" for x in "012"}
    with pytest.raises(MissingComposite, match="^presentation equates non-parallel morphisms$"):
        close_presentation(["0", "1", "2"], arrows, [("0", ("a", "b"), ("c",))], identities, 100)


def test_partial_table_that_makes_declared_morphisms_equal_is_refused():
    # the closure would merge t into id_*, leaving the declared t out
    raw = {
        "objects": ["*"],
        "morphisms": [{"id": m, "src": "*", "dst": "*"} for m in ("id_*", "s", "t")],
        "identities": {"*": "id_*"},
        "compose": [["s", "s", "id_*"], ["t", "t", "id_*"], ["t", "s", "s"]],
    }
    with pytest.raises(MissingComposite, match=r"declared morphisms \['t'\]"):
        validate_category(raw)
    # made total, the same entries break associativity
    raw["compose"].append(["s", "t", "s"])
    with pytest.raises(AssociativityViolation):
        validate_category(raw)


# two tables with a 0 -> 1 -> 2 path (f, g) and one 0 -> 2 arrow: chain3 is
# total, the triangle lists generators only, so validation closes it
TABLES = {
    "chain3": (corpus.chain3().to_dict(), "0<1", "1<2"),
    "triangle": (
        {
            "objects": ["0", "1", "2"],
            "morphisms": [{"id": f"id_{x}", "src": x, "dst": x} for x in "012"]
            + [{"id": "a", "src": "0", "dst": "1"}, {"id": "b", "src": "1", "dst": "2"}, {"id": "e", "src": "0", "dst": "2"}],
            "identities": {x: f"id_{x}" for x in "012"},
            "compose": [],
        },
        "a",
        "b",
    ),
}


def _built(raw):
    """`raw` as a FinCategory with no check, one entry per compose pair."""
    mors = [(m["id"], m["src"], m["dst"]) for m in raw["morphisms"]]
    return build_category(raw["objects"], mors, raw["identities"], {(g, f): gf for g, f, gf in raw["compose"]})


def _set_entry(raw, g, f, gf):
    raw["compose"] = [e for e in raw["compose"] if e[:2] != [g, f]] + [[g, f, gf]]


# each defect edits a table with the path f, g, and names the error and message
DEFECTS = {
    "unknown identity": (
        lambda raw, f, g: raw["identities"].update({"0": "nope"}),
        IdentityViolation,
        lambda f, g: "object '0' has no identity morphism",
    ),
    "identity not an endomorphism": (
        lambda raw, f, g: raw["identities"].update({"0": f}),
        IdentityViolation,
        lambda f, g: f"identity '{f}' of '0' is not an endomorphism of it",
    ),
    "morphism with an unknown end": (
        lambda raw, f, g: raw["morphisms"].append({"id": "z", "src": "0", "dst": "9"}),
        UnknownObject,
        lambda f, g: "morphism 'z' has unknown endpoints",
    ),
    "unknown compose entry": (
        lambda raw, f, g: _set_entry(raw, g, f, "nope"),
        MissingComposite,
        lambda f, g: f"compose entry ({g}, {f}) -> nope references unknown morphisms",
    ),
    "compose entry not composable": (
        lambda raw, f, g: _set_entry(raw, f, f, f),
        MissingComposite,
        lambda f, g: f"compose entry ({f}, {f}) is not composable",
    ),
    "compose entry with wrong ends": (
        lambda raw, f, g: _set_entry(raw, g, f, f),
        MissingComposite,
        lambda f, g: f"compose({g}, {f}) = {f} has endpoints '0'->'1', expected '0'->'2'",
    ),
}


@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_validation_finds_each_defect_where_check_laws_does(table, defect):
    # a total table and a generators-only one meet the same check: check_laws's
    raw, f, g = TABLES[table]
    raw = json.loads(json.dumps(raw))
    edit, error, message = DEFECTS[defect]
    edit(raw, f, g)
    with pytest.raises(error, match=f"^{re.escape(message(f, g))}$"):
        check_laws(_built(raw))
    with pytest.raises(error, match=f"^{re.escape(message(f, g))}$"):
        validate_category(raw)


@st.composite
def total_tables(draw):
    """The table of a corpus category, every composable pair listed, with up
    to two edits that keep it so: a compose entry or an identity set to any
    morphism or to an unknown one, an identity dropped, or one declared for
    an object "9" that is not there."""
    raw = CATS[draw(st.sampled_from(sorted(CATS)))].to_dict()
    ids = [m["id"] for m in raw["morphisms"]] + ["nope"]
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["entry", "identity", "drop identity", "stray identity"]))
        if edit == "entry" and raw["compose"]:
            draw(st.sampled_from(raw["compose"]))[2] = draw(st.sampled_from(ids))
        elif edit == "identity" and raw["identities"]:
            raw["identities"][draw(st.sampled_from(sorted(raw["identities"])))] = draw(st.sampled_from(ids))
        elif edit == "drop identity" and raw["identities"]:
            raw["identities"].pop(draw(st.sampled_from(sorted(raw["identities"]))))
        elif edit == "stray identity":
            raw["identities"]["9"] = draw(st.sampled_from(ids))
    return raw


def _verdict(make):
    try:
        return json.dumps(make().to_dict())
    except CategoryError as e:
        return type(e), str(e)


@settings(max_examples=300, deadline=None)
@given(total_tables())
def test_validating_a_total_table_is_check_laws(raw):
    def checked():
        C = _built(raw)
        check_laws(C)
        return C

    assert _verdict(lambda: validate_category(raw)) == _verdict(checked)


def test_opposite_is_built_once_per_value():
    for name, C in sweeps.sweep_corpus_categories():
        assert opposite(C) is opposite(C), name
        assert opposite(opposite(C)) == C and opposite(opposite(C)) is not C, name


def test_opposite_reverses_and_is_involutive():
    C = corpus.chain3()
    op = opposite(C)
    assert op.src("0<1") == "1" and op.dst("0<1") == "0"
    assert opposite(op) == C


def test_opposite_swaps_initial_and_terminal_corpus_wide():
    tally = sweeps.check_opposite_duality(sweeps.sweep_corpus_categories())
    assert tally.checks == 39 and not tally.failures


def test_identity_functor_is_valid():
    C = corpus.chain3()
    F = validate_functor(
        {"obj_map": {x: x for x in C.objects}, "mor_map": {m: m for m in C.morphism_ids()}},
        C,
        C,
    )
    assert F.obj_map == {x: x for x in C.objects}


def test_monotone_map_is_a_functor():
    F = corpus.monotone_functor(
        CATS["chain3"], CATS["two"], {"0": "0", "1": "1", "2": "1"}
    )
    assert F.mor_map["1<2"] == "id_1"


def test_functor_saturation_fills_composites_from_generators():
    C = corpus.chain3()
    F = validate_functor(
        {"obj_map": {"0": "0", "1": "1", "2": "2"}, "mor_map": {"0<1": "0<1", "1<2": "1<2"}},
        C,
        C,
    )
    assert F.mor_map["0<2"] == "0<2"


def test_composite_to_non_composite_is_not_functorial():
    C = corpus.free_boundary()
    with pytest.raises(NotFunctorial):
        validate_functor(
            {
                "obj_map": {"0": "0", "1": "1", "2": "2"},
                "mor_map": {"a": "a", "b": "b", "e": "e", "ba": "e"},
            },
            C,
            C,
        )


def test_functor_without_its_categories_needs_source_and_target(tmp_path):
    one = corpus.one().to_dict()
    cases = [
        ({"obj_map": {}}, "$: missing key 'source'"),
        ({"source": one, "obj_map": {}}, "$: missing key 'target'"),
        # the path names the category inside the functor file
        ({"source": one, "target": {"objects": []}, "obj_map": {}}, "$.target: missing key 'morphisms'"),
    ]
    for raw, message in cases:
        path, out = tmp_path / "functor.json", tmp_path / "out.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert run(["validate", "--functor", str(path), "--out", str(out)]) == 0
        cert = json.loads(out.read_text(encoding="utf-8"))
        assert cert["verdict"] == "invalid"
        assert cert["witness"] == {"error": "ShapeError", "message": message}
    # given its categories, a functor needs only its maps
    F = validate_functor({"obj_map": {"*": "*"}}, CATS["one"], CATS["one"])
    assert F.mor_map == {"id_*": "id_*"}


def test_profile_of_identity_is_all_true():
    p = functor_profile(identity_functor(CATS["chain3"]))
    assert p.surjective_on_objects and p.full and p.faithful
    assert p.conservative and p.equalizing_pairs


def test_profile_of_collapse_to_point():
    # hom-wise flags: the empty hom (x, y) cannot surject onto the point's
    # endomorphisms, and each singleton hom injects
    F = corpus.functor(CATS["disc2"], CATS["one"], {"x": "*", "y": "*"})
    p = functor_profile(F)
    assert p.surjective_on_objects
    assert not p.full
    assert p.faithful
    assert p.conservative
    assert p.equalizing_pairs


def test_equalizing_pairs_flag():
    assert functor_profile(identity_functor(CATS["ppe"])).equalizing_pairs
    assert not functor_profile(identity_functor(CATS["pp"])).equalizing_pairs
    assert not functor_profile(identity_functor(CATS["z2"])).equalizing_pairs
    assert functor_profile(identity_functor(CATS["idem"])).equalizing_pairs


def _relabeled(C, prefix):
    ren_obj = {x: f"{prefix}{x}" for x in C.objects}
    ren_mor = {m.id: f"{prefix}{m.id}" for m in C.morphisms}
    raw = {
        "objects": [ren_obj[x] for x in C.objects],
        "morphisms": [
            {"id": ren_mor[m.id], "src": ren_obj[m.src], "dst": ren_obj[m.dst]}
            for m in C.morphisms
        ],
        "identities": {ren_obj[x]: ren_mor[e] for x, e in C.identity.items()},
        "compose": [
            [ren_mor[g], ren_mor[f], ren_mor[gf]]
            for (g, f), gf in C.compose_table.items()
        ],
    }
    D = validate_category(raw)
    iso = FinFunctor(C, D, ren_obj, ren_mor)
    inv = FinFunctor(D, C, {v: k for k, v in ren_obj.items()}, {v: k for k, v in ren_mor.items()})
    return D, iso, inv


@pytest.mark.parametrize("name", ["chain3", "pp", "iso2", "free_boundary"])
def test_profile_stable_under_composition_with_isomorphisms(name):
    C = CATS[name]
    F = identity_functor(C)
    _, iso, inv = _relabeled(C, "r_")
    composed = compose_functors(iso, compose_functors(F, inv))
    assert functor_profile(composed) == functor_profile(F)


def test_isomorphic_detects_relabelings_and_rejects_others():
    C = CATS["chain3"]
    D, _, _ = _relabeled(C, "q_")
    assert isomorphic(C, D)
    assert not isomorphic(C, CATS["free_boundary"])
    assert not isomorphic(CATS["pp"], CATS["iso2"])


def test_isomorphic_keeps_object_and_morphism_ids_apart():
    # the object f has the identity morphism f
    C = validate_category(
        {
            "objects": ["f", "g"],
            "morphisms": [
                {"id": "f", "src": "f", "dst": "f"},
                {"id": "g", "src": "g", "dst": "g"},
                {"id": "u", "src": "f", "dst": "g"},
            ],
            "identities": {"f": "f", "g": "g"},
        }
    )
    D, _, _ = _relabeled(C, "q_")
    assert isomorphic(C, C)
    assert isomorphic(C, D) and isomorphic(D, C)


def test_opposite_functor_preserves_assignments():
    F = corpus.monotone_functor(CATS["chain3"], CATS["two"], {"0": "0", "1": "1", "2": "1"})
    op = opposite_functor(F)
    assert op.obj_map == F.obj_map
    assert op.source == opposite(F.source)


@given(st.sampled_from(sorted(CATS)))
def test_hom_sets_partition_morphisms(name):
    C = CATS[name]
    total = sum(len(C.hom(x, y)) for x in C.objects for y in C.objects)
    assert total == len(C.morphisms)


@given(st.sampled_from(sorted(CATS)))
def test_laws_reassert_on_corpus(name):
    check_laws(CATS[name])


@given(st.sampled_from(sorted(CATS)), st.sampled_from(sorted(CATS)))
def test_all_pair_isomorphism_checks_are_reflexive_only(a, b):
    same = isomorphic(CATS[a], CATS[b])
    assert same == (a == b)


# -- the shared searches, against references that follow the definitions ----


def _names(draw, n):
    """n distinct node names whose sorted order is not their given order."""
    return draw(st.permutations([f"v{i}" for i in range(n)]))


@st.composite
def hypergraphs(draw):
    """Items, and edges over them: possibly none, empty or repeated."""
    items = _names(draw, draw(st.integers(0, 6)))
    edges = draw(st.lists(st.sets(st.sampled_from(items)) if items else st.just(set()), max_size=5))
    return items, edges + (draw(st.lists(st.sampled_from(edges), max_size=2)) if edges else [])


def _minimal_transversals_reference(items, edges):
    """The 2^n subset sweep: the subsets meeting every edge, less those
    with a proper subset that does."""
    subsets = [s for k in range(len(items) + 1) for s in itertools.combinations(items, k)]
    meeting = [s for s in subsets if all(set(s) & set(e) for e in edges)]
    return [s for s in meeting if not any(set(t) < set(s) for t in meeting)]


@given(hypergraphs())
@example((["v1", "v0"], []))  # no edge: the empty set alone
@example((["v1", "v0"], [{"v0"}, set()]))  # an empty edge: no transversal
@example((["v1", "v0", "v2"], [{"v0", "v2"}, {"v1"}, {"v0", "v2"}]))
def test_minimal_transversals_match_definition(case):
    items, edges = case
    assert minimal_transversals(items, edges) == _minimal_transversals_reference(items, edges)


@st.composite
def graphs(draw):
    nodes = _names(draw, draw(st.integers(0, 8)))
    if not nodes:
        return nodes, []
    node = st.sampled_from(nodes)
    return nodes, draw(st.lists(st.tuples(node, node), max_size=12))


def _components_reference(nodes, edges):
    """Breadth-first search from each unvisited node in the given order."""
    adjacent = {x: [] for x in nodes}
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen, out = set(), []
    for x in nodes:
        if x in seen:
            continue
        seen.add(x)
        found, queue = [], deque([x])
        while queue:
            y = queue.popleft()
            found.append(y)
            for z in adjacent[y]:
                if z not in seen:
                    seen.add(z)
                    queue.append(z)
        out.append(sorted(found, key=nodes.index))
    return out


@given(graphs())
def test_components_matches_breadth_first_search(graph):
    nodes, edges = graph
    assert components(nodes, edges) == _components_reference(nodes, edges)


@st.composite
def search_problems(draw):
    """Variables with static or dependent domains over small integers,
    random constraints over random subsets of them, and distinct groups."""
    keys = _names(draw, draw(st.integers(0, 5)))
    value = st.integers(0, 3)
    bases, domains = [], {}
    for k in keys:
        base = draw(st.lists(value, max_size=4))
        bases.append(base)
        if draw(st.booleans()):
            # keep a value depending on it and the sum of the earlier ones
            kept = draw(st.sets(st.tuples(value, st.integers(0, 2))))
            domains[k] = lambda a, base=base, kept=kept: [v for v in base if (v, sum(a.values()) % 3) in kept]
        else:
            domains[k] = base
    constraints = []
    for _ in range(draw(st.integers(0, 4)) if keys else 0):
        vs = tuple(draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3)))
        weights = draw(st.lists(st.integers(0, 3), min_size=len(vs), max_size=len(vs)))
        shift, modulus = draw(st.integers(0, 2)), draw(st.integers(2, 3))
        ok = lambda *vals, w=weights, c=shift, m=modulus: (sum(x * y for x, y in zip(w, vals)) + c) % m != 0
        constraints.append((vs, ok))
    distinct = draw(st.lists(st.sets(st.sampled_from(keys), min_size=2), max_size=2)) if len(keys) > 1 else []
    return keys, bases, domains, constraints, [sorted(g) for g in distinct]


def _search_reference(keys, bases, domains, constraints, distinct):
    """Product of the static bases, kept when every value lies in its
    domain, every constraint holds and every group is pairwise distinct."""
    out = []
    for combo in itertools.product(*bases):
        a = dict(zip(keys, combo))
        if not all(
            not callable(domains[k]) or a[k] in domains[k](dict(zip(keys[:i], combo[:i])))
            for i, k in enumerate(keys)
        ):
            continue
        if not all(ok(*[a[v] for v in vs]) for vs, ok in constraints):
            continue
        if all(len({a[k] for k in g}) == len(g) for g in distinct):
            out.append(a)
    return out


@settings(max_examples=300, deadline=None)
@given(search_problems())
def test_search_matches_product_and_filter(problem):
    keys, bases, domains, constraints, distinct = problem
    found = list(search(domains, constraints, distinct))
    assert found == _search_reference(keys, bases, domains, constraints, distinct)
    assert all(list(a) == keys for a in found)


def test_search_with_one_distinct_group_gives_the_permutations():
    for n in range(5):
        keys = [f"x{i}" for i in range(n)]
        found = [tuple(a.values()) for a in search({k: range(n) for k in keys}, distinct=[keys])]
        assert found == list(itertools.permutations(range(n)))


@pytest.mark.parametrize("name", sorted(CATS))
def test_functor_space_binds_each_morphism_right_after_its_ends(name):
    C = CATS[name]
    keys = list(functor_space(C, C)[0])
    pos = {k: i for i, k in enumerate(keys)}
    for m in C.morphisms:
        ends = max(pos[("o", m.src)], pos[("o", m.dst)])
        assert pos[("m", m.id)] > ends
        # only morphism variables lie between the later end and m
        assert all(kind == "m" for kind, _ in keys[ends + 1 : pos[("m", m.id)]]), m.id


SMALL = ["one", "disc2", "two", "z2", "idem", "iso2", "vee"]


@pytest.mark.parametrize("source", SMALL)
def test_functor_space_solutions_are_the_functors(source):
    C = CATS[source]
    for D in (CATS[name] for name in SMALL):
        domains, constraints = functor_space(C, D)
        found = [
            (tuple(a[("o", x)] for x in C.objects), tuple(a[("m", m.id)] for m in C.morphisms))
            for a in search(domains, constraints)
        ]
        reference = []
        for objs in itertools.product(D.objects, repeat=len(C.objects)):
            image = dict(zip(C.objects, objs))
            homs = [D.hom(image[m.src], image[m.dst]) for m in C.morphisms]
            for mors in itertools.product(*homs):
                F = FinFunctor(C, D, image, dict(zip(C.morphism_ids(), mors)))
                try:
                    check_functor_laws(F)
                except CategoryError:
                    continue
                reference.append((objs, mors))
        assert sorted(found) == sorted(reference) and len(set(found)) == len(found)


def _chain3_lifts(*dropped):
    C = CATS["chain3"]
    over = {"a": "0", "b": "1", "c": "2"}
    arrows = [(m, o, o2) for o in over for o2 in over for m in C.hom(over[o], over[o2])]
    return C, over, [a for a in arrows if a not in dropped]


def test_category_over_all_lifts_is_a_copy_with_a_faithful_projection():
    C, over, arrows = _chain3_lifts()
    P = category_over(C, over, arrows)
    assert isomorphic(P.source, C)
    assert P.obj_map == over
    assert P.source.hom("a", "c") == ("(0<2):a>c",) and P.mor_map["(0<2):a>c"] == "0<2"
    assert P.source.compose("(1<2):b>c", "(0<1):a>b") == "(0<2):a>c"


def test_category_over_rejects_lifts_not_closed_under_composition():
    with pytest.raises(MissingComposite, match=re.escape("no lift of 1<2 o 0<1 from 'a' to 'c'")):
        category_over(*_chain3_lifts(("0<2", "a", "c")))


def test_category_over_rejects_a_missing_identity_lift():
    with pytest.raises(IdentityViolation, match="object 'c' has no identity morphism"):
        category_over(*_chain3_lifts(("id_2", "c", "c")))


def _lawless(C, compose=(), identity=(), morphisms=()):
    """C with compose entries and identities overwritten and morphisms
    added, and no law checked."""
    return FinCategory(
        C.objects,
        C.morphisms + tuple(Morphism(*m) for m in morphisms),
        {**C.identity, **dict(identity)},
        {**C.compose_table, **dict(compose)},
    )


# not a category: id_9 is the identity of "9", which is no object
WITH_9 = {"identity": [("9", "id_9")], "morphisms": [("id_9", "9", "9")], "compose": [(("id_9", "id_9"), "id_9")]}


@pytest.mark.parametrize(
    "broken, dropped, error, message",
    [
        ([(("f", "id_a"), "g")], [("id_b", "b", "b")], IdentityViolation, "object 'b' has no identity morphism"),
        ([(("f", "id_a"), "g")], [], IdentityViolation, "(f):a>b o id_a != (f):a>b"),
        ([(("id_b", "f"), "g")], [], IdentityViolation, "id_b o (f):a>b != (f):a>b"),
        ([], [], NotFunctorial, "object 'z' has no valid image"),
    ],
    ids=["identities", "right unit law", "left unit law", "object images"],
)
def test_category_over_checks_identities_then_unit_laws_then_object_images(broken, dropped, error, message):
    # D breaks its laws: "z" lies over "9", and in the first three cases D
    # composes f with an identity to g.  Every lift lies over its ends and
    # every composite has a lift, so only these checks can see the flaws.
    D = _lawless(CATS["pp"], **WITH_9 | {"compose": WITH_9["compose"] + broken})
    over = {"a": "a", "b": "b", "z": "9"}
    arrows = [(m, o, o2) for o in over for o2 in over for m in D.hom(over[o], over[o2])]
    with pytest.raises(error, match=re.escape(message)):
        category_over(D, over, [a for a in arrows if a not in dropped])


@pytest.mark.parametrize(
    "stray",
    [("0<1", "a", "c"), ("1<2", "a", "c"), ("nope", "a", "b"), ("0<1", "a", "zz"), ("id_0", "zz", "zz")],
)
def test_category_over_rejects_lifts_that_do_not_lie_over_their_ends(stray):
    C, over, arrows = _chain3_lifts()
    phi, o, o2 = stray
    with pytest.raises(CategoryError, match=re.escape(f"lift ({phi}):{o}>{o2} does not lie over its ends")):
        category_over(C, over, arrows + [stray])


def test_category_over_rejects_a_repeated_lift_as_unfaithful():
    C, over, arrows = _chain3_lifts()
    with pytest.raises(NotFunctorial, match=re.escape("not faithful: lift (0<1):a>b occurs twice")):
        category_over(C, over, arrows + [("0<1", "a", "b")])


def test_category_over_names_lifts_injectively():
    # unescaped, (id_*, p, q>r) and (id_*, p>q, r) would both be (id_*):p>q>r
    C = CATS["idem"]
    over = {o: "*" for o in ("p", "q>r", "p>q", "r")}
    arrows = [(m, o, o2) for o in over for o2 in over for m in C.morphism_ids()]
    P = category_over(C, over, arrows)
    assert len(P.source.morphisms) == 32
    assert P.source.hom("p", "q>r") == ("(id_*):p>q\\>r", "(p):p>q\\>r")
    assert P.source.hom("p>q", "r") == ("(id_*):p\\>q>r", "(p):p\\>q>r")
    with pytest.raises(NotFunctorial, match=re.escape("not faithful: lift (p):p>q\\>r occurs twice")):
        category_over(C, over, arrows + [("p", "p", "q>r")])
    # the idempotent category again, its identity renamed: unescaped,
    # (e, p):q, r) and (e):p, q, r) would both be (e):p):q>r
    D = validate_category(
        {"objects": ["*"], "morphisms": [{"id": i, "src": "*", "dst": "*"} for i in ("e):p", "e")],
         "identities": {"*": "e):p"}, "compose": [["e", "e", "e"]]}
    )
    over = {o: "*" for o in ("q", "p):q", "r")}
    arrows = [(m, o, o2) for o in over for o2 in over for m in D.morphism_ids()]
    assert len(category_over(D, over, arrows).source.morphisms) == 18


def test_category_over_checks_that_its_projection_is_a_functor():
    # not a category: an identity on "9", which is not among the objects.
    # Every lift lies over its ends, so only the object check of the
    # projection sees that "a" lies over no object.
    D = _lawless(CATS["one"], **WITH_9)
    with pytest.raises(NotFunctorial, match="object 'a' has no valid image"):
        category_over(D, {"a": "9"}, [("id_9", "a", "a")])


def test_category_over_rejects_objects_over_nothing():
    C, over, arrows = _chain3_lifts()
    with pytest.raises(CategoryError):
        category_over(C, {**over, "d": "9"}, arrows)


def _closed(D, over, arrows):
    """`arrows` with every identity lift and every composite of lifts that
    D defines added."""
    lifts = set(arrows) | {(D.id_of(x), o, o) for o, x in over.items() if D.has_object(x)}
    while True:
        new = {
            (D.compose(psi, phi), o, o3)
            for phi, o, o2 in lifts
            for psi, p, o3 in lifts
            if p == o2 and (psi, phi) in D.compose_table
        } - lifts
        if not new:
            return lifts
        lifts |= new


@st.composite
def _lift_problems(draw):
    """A category D (named, or the opposite of one), objects over D's objects
    and a list of lifts: any subset of the lifts, or more often its closure,
    then perhaps with a stray lift, a repeated lift, one lift dropped or an
    object over "9", which is no object of D.  Some draws name objects
    with the characters that lift names escape.  Some draws break D's laws
    first: one compose entry with an identity factor is overwritten, or an
    identity is declared for "9", as a morphism of D or as a new id_9 on
    "9"; then the object over "9" comes with the lift of that identity."""
    D = CATS[draw(st.sampled_from(sorted(CATS)))]
    if draw(st.booleans()):
        D = opposite(D)
    flaw = draw(st.sampled_from(["none", "none", "unit", "identity"]))
    units = [(g, f) for g, f in D.compose_table if D.is_identity(g) or D.is_identity(f)]
    if flaw == "unit" and units and len(D.morphisms) > 1:
        g, f = draw(st.sampled_from(units))
        right = D.compose(g, f)
        wrong = [m for m in D.hom(D.src(f), D.dst(g)) if m != right]  # parallel, so the lookup finds a lift
        wrong = wrong or [m for m in D.morphism_ids() if m != right]
        D = _lawless(D, compose=[((g, f), draw(st.sampled_from(wrong)))])
    elif flaw == "identity":
        unit = "id_9" if draw(st.booleans()) or not D.morphisms else draw(st.sampled_from(D.morphism_ids()))
        D = _lawless(D, **WITH_9) if unit == "id_9" else _lawless(D, identity=[("9", unit)])
    objects = draw(st.lists(st.sampled_from(D.objects), min_size=1, max_size=4)) if D.objects else []
    names = draw(st.sampled_from([("o0", "o1", "o2", "o3"), ("p", "q>r", "p>q", "r"), ("a:b", "a", "b\\", ":b\\>")]))
    over = dict(zip(names, objects))
    every = [(m, o, o2) for o in over for o2 in over for m in D.hom(over[o], over[o2])]
    arrows = draw(st.lists(st.sampled_from(every), unique=True)) if every else []
    if draw(st.integers(0, 2)):
        arrows = [a for a in every if a in _closed(D, over, arrows)]
    change = draw(st.sampled_from(["none", "none", "stray", "repeat", "drop", "foreign"]))
    if change == "stray":
        ends = st.sampled_from(list(over) + ["zz"])
        arrows.append(draw(st.tuples(st.sampled_from(D.morphism_ids() + ("nope",)), ends, ends)))
    elif change == "repeat" and arrows:
        arrows.append(draw(st.sampled_from(arrows)))
    elif change == "drop" and arrows:
        arrows.pop(draw(st.integers(0, len(arrows) - 1)))
    elif change == "foreign":
        over["zz"] = "9"
        if "9" in D.identity:
            arrows.append((D.identity["9"], "zz", "zz"))
    return D, over, draw(st.permutations(arrows))


def _category_over_reference(D, over, arrows):
    """`category_over` by the definitions: the same table, then the full
    category laws, the functor laws and faithfulness hom set by hom set."""
    def name(phi, o, o2):
        escape = lambda o: o.replace("\\", "\\\\").replace(">", "\\>").replace(":", "\\:")
        return f"({phi}):{escape(o)}>{escape(o2)}"

    lifts = set(arrows)
    compose = {
        (name(psi, o2, o3), name(phi, o, o2)): name(D.compose_table.get((psi, phi)), o, o3)
        for phi, o, o2 in arrows
        for psi, p, o3 in arrows
        if p == o2 and (D.compose_table.get((psi, phi)), o, o3) in lifts
    }
    identity = {o: name(D.identity[x], o, o) for o, x in over.items() if (D.identity.get(x), o, o) in lifts}
    base = FinCategory(tuple(over), tuple(Morphism(name(*a), a[1], a[2]) for a in arrows), identity, compose)
    check_laws(base)
    P = FinFunctor(base, D, dict(over), {name(*a): a[0] for a in arrows})
    check_functor_laws(P)
    if not functor_profile(P).faithful:
        raise NotFunctorial("the projection is not faithful")
    return P


@settings(max_examples=400, deadline=None)
@given(_lift_problems())
def test_category_over_matches_the_full_law_check(problem):
    D, over, arrows = problem
    try:
        expected = _category_over_reference(D, over, arrows)
    except CategoryError:
        with pytest.raises(CategoryError):
            category_over(D, over, arrows)
        return
    P = category_over(D, over, arrows)
    assert P == expected
    check_laws(P.source)


def _profiled_functors():
    """(name, functor, whether its to_dict bytes are pinned too): the
    inflations of the reflection draws of seeds 0 and 7, every monotone map
    between posets of at most three elements, and the curated functors."""
    cats = sweeps.sweep_corpus_categories()
    for seed in (0, 7):
        for name, _, build in sweeps.generate_reflection_functors(seed, cats):
            yield f"{seed}:{name}", build(), True
    for name, F in corpus.poset_maps(3) + corpus.curated_oracle_functors():
        yield name, F, False


# sha256 of [name, profile flags, to_dict or None] per `_profiled_functors()`
# entry, one JSON document each; taken before `category_over` and
# `functor_profile` read their tables directly
PROFILE_DIGEST = "40c908c205fa1015636f83a2b19ef65f1eeb01803394511033a1e3b8231a285b"


def test_profiles_and_inflations_are_pinned():
    digest, count = hashlib.sha256(), 0
    for name, F, pin_bytes in _profiled_functors():
        p = functor_profile(F)
        flags = [p.surjective_on_objects, p.full, p.faithful, p.conservative, p.equalizing_pairs]
        digest.update(json.dumps([name, flags, F.to_dict() if pin_bytes else None]).encode() + b"\n")
        count += 1
    assert count == 400 + 485 + 26
    assert digest.hexdigest() == PROFILE_DIGEST
