import gc
import itertools
import math
import weakref
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from finadj import adjoint, corpus, enriched, limits, sweeps
from finadj.fincat import identity_functor, opposite
from finadj.limits import (
    KINDS,
    LimitAbsentInSource,
    cones,
    cospan_diagram,
    empty_diagram,
    equalizer_cones,
    has_finite_limits,
    identity_limit_cones,
    initial_objects,
    is_weakly_initial,
    limit,
    limit_cones,
    limit_instances,
    pair_diagram,
    preserves_limits,
    weakly_initial_sets,
)

CATS = corpus.categories()


def test_initial_objects_examples():
    assert initial_objects(CATS["chain3"]) == ["0"]
    assert initial_objects(CATS["disc2"]) == []
    assert initial_objects(CATS["free_boundary"]) == []
    assert initial_objects(CATS["empty"]) == []


def test_initial_objects_are_mutually_inverse():
    C = CATS["iso2"]
    inits = initial_objects(C)
    assert inits == ["a", "b"]
    u = C.hom("a", "b")[0]
    v = C.hom("b", "a")[0]
    assert C.compose(v, u) == C.id_of("a")
    assert C.compose(u, v) == C.id_of("b")


def test_product_in_diamond_is_the_meet():
    D = CATS["diamond"]
    cones = limit(D, pair_diagram(D, "a", "b"))
    assert [c.apex for c in cones] == ["bot"]


def test_empty_diagram_limit_is_terminal_object():
    assert limit(CATS["disc2"], empty_diagram(CATS["disc2"])) == []
    cones = limit(CATS["chain3"], empty_diagram(CATS["chain3"]))
    assert [c.apex for c in cones] == ["2"]


def test_parallel_pair_in_free_boundary_has_no_equalizer():
    C = CATS["free_boundary"]
    assert equalizer_cones(C, "e", "ba") == []


def test_limit_of_identity_examples():
    assert [c.apex for c in identity_limit_cones(CATS["chain3"])] == ["0"]
    assert identity_limit_cones(CATS["disc2"]) == []


def test_has_finite_limits_reports():
    assert has_finite_limits(CATS["diamond"]).ok
    r = has_finite_limits(CATS["disc2"])
    assert not r.ok and r.missing == ("terminal",)
    r = has_finite_limits(CATS["vee"])
    assert not r.ok and r.missing == ("product", "x", "y")
    r = has_finite_limits(CATS["pp"])
    assert not r.ok


def test_preserves_limits_examples():
    D = CATS["diamond"]
    assert preserves_limits(identity_functor(D)).ok
    two_to_one = corpus.monotone_functor(CATS["two"], CATS["one"], {"0": "*", "1": "*"})
    assert preserves_limits(two_to_one).ok
    pick0 = corpus.functor(CATS["one"], CATS["two"], {"*": "0"})
    r = preserves_limits(pick0, "terminal")
    assert not r.ok and r.counterexample["kind"] == "terminal"


def test_preserves_limits_requires_source_limits():
    F = identity_functor(CATS["pp"])
    with pytest.raises(LimitAbsentInSource):
        preserves_limits(F, "equalizers")


def test_limit_cones_are_computed_once_per_value(monkeypatch):
    calls, limit_ = Counter(), limits.limit

    def counted_limit(C, diagram, **kw):
        calls[tuple(diagram.obj_map.values())] += 1
        return limit_(C, diagram, **kw)

    monkeypatch.setattr(limits, "limit", counted_limit)
    C = corpus.diamond()
    instances = list(limit_instances(C, "products"))
    first = list(limit_cones(C, "products"))
    assert first == [(name, data, tuple((c.apex, c.legs) for c in limit_(C, d))) for name, data, d in instances]
    assert list(limit_cones(C, "products")) == first
    assert calls == Counter({data: 1 for _, data, _ in instances})
    # a reader that stops at pp's product of a and b, which has no cones, computes none past it
    calls.clear()
    P = corpus.pp()
    assert next(data for _, data, ls in limit_cones(P, "products") if not ls) == ("a", "b")
    assert calls == {("a", "a"): 1, ("a", "b"): 1}
    for _ in range(2):  # an unknown kind leaves no table behind
        with pytest.raises(ValueError):
            list(limit_cones(C, "coequalizers"))


def test_categories_with_limit_tables_are_freed_by_reference_counting():
    # no table refers back to its category, so no cycle waits for the collector
    gc.disable()
    try:
        C = corpus.diamond()
        Cop = opposite(C)
        for kind in KINDS:
            list(limit_cones(C, kind))
            list(limit_cones(Cop, kind))
        P = corpus.pp()
        next(ls for _, _, ls in limit_cones(P, "products") if not ls)
        refs = [weakref.ref(x) for x in (C, Cop, P)]
        del C, Cop, P
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def test_compare_computes_each_limit_of_its_source_once(monkeypatch):
    # has_finite_limits and preserves_limits read one table of the source
    calls, limit_ = [], limits.limit

    def recording_limit(C, diagram, **kw):
        # the call holds C, so no id is reused
        calls.append((C, tuple(diagram.obj_map.items()), tuple(diagram.mor_map.items())))
        return limit_(C, diagram, **kw)

    monkeypatch.setattr(limits, "limit", recording_limit)
    enriched.homotopy_adjoint_compare(enriched.embed_functor(identity_functor(corpus.diamond())))
    counts = Counter((id(C), obj, mor) for C, obj, mor in calls)
    assert len(calls) == 28 and max(counts.values()) == 1


def test_weakly_initial_sets_examples():
    assert weakly_initial_sets(CATS["chain3"]) == [("0",)]
    assert weakly_initial_sets(CATS["disc2"]) == [("x", "y")]
    assert weakly_initial_sets(CATS["diamond"]) == [("bot",)]
    assert weakly_initial_sets(CATS["empty"]) == [()]
    objs = [str(i) for i in range(30)]
    assert weakly_initial_sets(corpus.poset_category(objs, list(itertools.combinations(objs, 2)))) == [("0",)]


def test_weakly_initial_sets_have_their_closed_form():
    # one object from each minimal class of the preorder "hom(x, y) is nonempty"
    cats = [C for _, C in sweeps.sweep_corpus_categories()]
    cats += [opposite(C) for C in cats]
    cats += [view for _, G in corpus.poset_maps(3) for _, _, view in adjoint._hom_views(G)]
    for C in cats:
        objs = list(C.objects)
        least = [x for x in objs if all(C.hom(x, y) for y in objs if C.hom(y, x))]
        classes = {tuple(y for y in least if C.hom(x, y) and C.hom(y, x)) for x in least}
        sets = weakly_initial_sets(C)
        assert {frozenset(s) for s in sets} == {frozenset(p) for p in itertools.product(*classes)}
        assert len(sets) == math.prod(map(len, classes))
        assert {len(s) for s in sets} == {len(classes)}


def test_minimal_weakly_initial_set_contains_initial_object():
    for name, C in CATS.items():
        inits = initial_objects(C)
        if not inits:
            continue
        sets = weakly_initial_sets(C)
        assert all(len(s) == 1 for s in sets), name
        assert any(s == (inits[0],) for s in sets), name


def _pushouts(C, f, g, weak=False):
    """(Weak) pushouts of the span (f, g) as (apex, (leg of dst f, leg of
    dst g)): limits of the cospan in the opposite category."""
    Cop = opposite(C)
    cones = limit(Cop, cospan_diagram(Cop, f, g), weak=weak)
    return [(c.apex, (c.legs["j0"], c.legs["j1"])) for c in cones]


def test_weak_pushout_in_two_is_the_join():
    C = CATS["two"]
    assert _pushouts(C, "0<1", "0<1", weak=True) == [("1", ("id_1", "id_1"))]


def test_span_without_completion_has_no_weak_pushout():
    C = CATS["wedge"]
    assert _pushouts(C, "z<x", "z<y", weak=True) == []


def test_poset_weak_pushouts_equal_pushouts():
    tally = sweeps.check_poset_weak_pushouts(sweeps.sweep_corpus_categories())
    assert tally.checks == 25 and not tally.failures


def test_group_spans_have_multiple_pushout_cocones():
    # every morphism of a group is epi, so factorizations are unique and
    # both commuting cocones under (s, s) are genuine pushouts
    C = CATS["z2"]
    weak = _pushouts(C, "s", "s", weak=True)
    strong = _pushouts(C, "s", "s")
    assert len(weak) == 2 and weak == strong


def test_coproducts_in_diamond():
    Dop = opposite(CATS["diamond"])
    ccs = limit(Dop, pair_diagram(Dop, "a", "b"))
    assert [c.apex for c in ccs] == ["top"]


@given(st.sampled_from(sorted(CATS)), st.data())
def test_weak_initiality_is_monotone_under_supersets(name, data):
    C = CATS[name]
    sets = weakly_initial_sets(C)
    assert sets  # the whole object set is weakly initial, so a minimal set exists
    if not C.objects:
        return
    base = list(sets[0])
    extra = data.draw(st.lists(st.sampled_from(list(C.objects)), max_size=3))
    assert is_weakly_initial(C, base + extra)


@given(st.sampled_from(sorted(CATS)))
def test_minimal_sets_are_minimal(name):
    C = CATS[name]
    for s in weakly_initial_sets(C):
        for k in range(len(s)):
            assert not is_weakly_initial(C, s[:k] + s[k + 1 :])


def _cones_reference(C, diagram):
    """Every apex and every choice of legs, kept when each arrow commutes."""
    J = diagram.source
    out = []
    for apex in C.objects:
        for combo in itertools.product(*(C.hom(apex, diagram.obj_map[j]) for j in J.objects)):
            legs = dict(zip(J.objects, combo))
            if all(C.compose(diagram.mor_map[m.id], legs[m.src]) == legs[m.dst] for m in J.morphisms):
                out.append((apex, legs))
    return out


@pytest.mark.parametrize("name", sorted(CATS))
def test_cones_match_product_and_filter(name):
    for C in (CATS[name], opposite(CATS[name])):
        diagrams = [(kind, diagram) for kind in KINDS for _, _, diagram in limit_instances(C, kind)]
        for kind, diagram in diagrams + [("identity", identity_functor(C))]:
            found = [(c.apex, c.legs) for c in cones(C, diagram)]
            assert found == _cones_reference(C, diagram), (name, kind)
            assert all(list(legs) == list(diagram.source.objects) for _, legs in found)
