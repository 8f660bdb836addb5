import gc
import random
import weakref

import pytest

from finadj import corpus, sweeps
from finadj.fincat import ClosureBoundExceeded, FinCategory, identity_functor, isomorphic as cat_isomorphic
from finadj.adjoint import comma_over
from finadj.simplicial import (
    Degenerate,
    NotANerve,
    SimplicialError,
    TruncSSet,
    boundary_simplex,
    face,
    initial_by_lifting,
    inner_horn_check,
    isomorphic,
    join_point,
    nerve,
    normalize_ops,
    sset_from_dict,
    standard_simplex,
    tau1,
    validate_sset,
    vertex_slice,
    _key,
    _values,
)

CATS = corpus.categories()


def test_normalize_ops_canonical_form():
    assert normalize_ops([0, 0]) == (1, 0)
    assert normalize_ops([1, 0]) == (1, 0)
    assert normalize_ops([0, 1]) == (2, 0)
    assert normalize_ops([2, 1, 0]) == (2, 1, 0)


def test_nerve_of_terminal_is_a_point():
    K = nerve(CATS["one"])
    assert [len(K.ids(n)) for n in range(4)] == [1, 0, 0, 0]


def test_nerve_of_chain3_counts():
    K = nerve(CATS["chain3"])
    assert [len(K.ids(n)) for n in range(4)] == [3, 3, 1, 0]


def test_nerve_handles_identity_composites():
    # in the two-element group the composite of the loop with itself is an
    # identity: the middle face of the 2-chain must be a degeneracy marker
    K = nerve(CATS["z2"])
    assert K.ids(2) == ("s|s",)
    assert K.faces["s|s"][1] == Degenerate("*", (0,))
    validate_sset(K)


def test_inner_horns_have_unique_fillers_matching_the_table():
    for name, C in CATS.items():
        K = nerve(C)
        assert inner_horn_check(K), name
        two_values = {s: K.faces[s] for s in K.ids(2)}
        for f in C.nonidentity():
            for g in C.nonidentity():
                if C.dst(f) != C.src(g):
                    continue
                fillers = [
                    s for s, (d0, d1, d2) in two_values.items() if d2 == f and d0 == g
                ]
                assert fillers == [f + "|" + g], (name, f, g)


def _chain4_nerve():
    chain4 = corpus.poset_category(
        ["0", "1", "2", "3"],
        [(str(i), str(j)) for i in range(4) for j in range(i + 1, 4)],
    )
    return nerve(chain4)


def _edited(K, n, drop=(), copies=()):
    """K with the n-simplices in `drop` removed and each (new_id, old_id) in
    `copies` added as a second n-simplex with the faces of old_id."""
    ids = tuple(s for s in K.ids(n) if s not in drop) + tuple(new for new, _ in copies)
    faces = {s: fs for s, fs in K.faces.items() if s not in drop}
    faces.update({new: K.faces[old] for new, old in copies})
    out = TruncSSet({**K.simplices, n: ids}, faces)
    validate_sset(out)
    return out


@pytest.mark.parametrize(
    "case",
    ["3-simplex dropped", "3-simplex duplicated", "2-simplex duplicated"],
)
def test_inner_horn_check_rejects_missing_and_repeated_fillers(case):
    chain4 = _chain4_nerve()
    (top,) = chain4.ids(3)
    K = {
        # the Lambda^3_1 and Lambda^3_2 horns of 0<1<2<3 have no filler
        "3-simplex dropped": lambda: _edited(chain4, 3, drop=(top,)),
        # ... or two of them
        "3-simplex duplicated": lambda: _edited(chain4, 3, copies=(("t'", top),)),
        # the Lambda^2_1 horn of 0<1<2 has two fillers
        "2-simplex duplicated": lambda: _edited(nerve(CATS["chain3"]), 2, copies=(("t'", "0<1|1<2"),)),
    }[case]()
    assert not inner_horn_check(K)


def test_join_point_of_simplices():
    assert isomorphic(join_point(standard_simplex(0)).sset, standard_simplex(1))
    assert isomorphic(join_point(standard_simplex(1)).sset, standard_simplex(2))
    assert isomorphic(join_point(standard_simplex(2)).sset, standard_simplex(3))


def test_join_point_of_nerve_two_is_nerve_chain3():
    j = join_point(nerve(CATS["two"]))
    assert not j.truncation_loss
    assert isomorphic(j.sset, nerve(CATS["chain3"]))


def test_join_point_flags_truncation_loss():
    K = _chain4_nerve()
    assert len(K.ids(3)) == 1
    assert join_point(K).truncation_loss


def test_join_restricts_to_the_identity_inclusion():
    K = nerve(CATS["chain3"])
    j = join_point(K).sset
    for n in range(4):
        for s in K.ids(n):
            assert s in j.ids(n)
            if n:
                assert j.faces[s] == K.faces[s]
    # a cone leg exists over every simplex that fits under the truncation
    for n in range(3):
        for s in K.ids(n):
            assert f"*>{s}" in j.ids(n + 1)


def test_simplicial_identity_violations_are_caught():
    with pytest.raises(SimplicialError):
        sset_from_dict(
            {
                "simplices": {"0": ["a", "b", "c"], "1": ["e", "f", "g"], "2": ["t"]},
                "faces": {
                    "e": ["b", "a"],
                    "f": ["c", "b"],
                    "g": ["c", "a"],
                    "t": ["f", "g", "f"],
                },
            }
        )


def test_faces_of_vertices_and_unlisted_simplices_are_refused():
    raw = boundary_simplex(2).to_dict()
    raw["faces"].update({"0": [], "q": ["0", "1"]})
    with pytest.raises(SimplicialError, match=r"\['0', 'q'\] are assigned faces but are not simplices"):
        sset_from_dict(raw)


def test_tau1_of_boundary_has_two_diagonals():
    C = tau1(boundary_simplex(2))
    assert len(C.hom("0", "2")) == 2


def test_tau1_of_filled_triangle_is_chain3():
    assert cat_isomorphic(tau1(standard_simplex(2)), CATS["chain3"])


def test_tau1_closure_bound_on_free_loops():
    circle = TruncSSet({0: ("v",), 1: ("e",), 2: (), 3: ()}, {"e": ("v", "v")})
    validate_sset(circle)
    with pytest.raises(ClosureBoundExceeded):
        tau1(circle, closure_bound=64)


def test_vertex_slice_of_chain3_at_top():
    K = nerve(CATS["chain3"])
    sl = vertex_slice(K, "2")
    trunc = TruncSSet(
        {0: K.ids(0), 1: K.ids(1), 2: K.ids(2), 3: ()},
        {s: f for s, f in K.faces.items() if K.dim(s) <= 2},
    )
    assert isomorphic(sl, trunc)


def test_vertex_slice_of_discrete_is_a_point():
    sl = vertex_slice(nerve(CATS["disc2"]), "x")
    assert [len(sl.ids(n)) for n in range(4)] == [1, 0, 0, 0]


def test_under_slice_uses_first_vertex():
    K = nerve(CATS["chain3"])
    sl = vertex_slice(K, "0", under=True)
    trunc = TruncSSet(
        {0: K.ids(0), 1: K.ids(1), 2: K.ids(2), 3: ()},
        {s: f for s, f in K.faces.items() if K.dim(s) <= 2},
    )
    assert isomorphic(sl, trunc)


@pytest.mark.parametrize("name", ["chain3", "diamond", "pp", "ppe", "iso2", "z2", "free_boundary", "two"])
def test_slice_fundamental_category_is_the_comma_slice(name):
    C = CATS[name]
    for c in C.objects:
        sliced = tau1(vertex_slice(nerve(C), c))
        direct = comma_over(identity_functor(C), c).base
        assert cat_isomorphic(sliced, direct), (name, c)


@pytest.mark.parametrize("name", ["chain3", "pp", "iso2", "z2", "free_boundary"])
def test_under_slice_fundamental_category_is_the_under_comma(name):
    from finadj.adjoint import comma_under

    C = CATS[name]
    for c in C.objects:
        sliced = tau1(vertex_slice(nerve(C), c, under=True))
        direct = comma_under(identity_functor(C), c).base
        assert cat_isomorphic(sliced, direct), (name, c)


def test_initial_by_lifting_examples():
    K = nerve(CATS["chain3"])
    assert initial_by_lifting(K, "0")
    assert not initial_by_lifting(K, "1")
    assert not initial_by_lifting(K, "1", nmax=1)


def test_initial_by_lifting_needs_dimension_two():
    # the free triangle boundary: 0 reaches everything, but the doubled
    # diagonal only fails at the 2-dimensional boundary
    K = nerve(CATS["free_boundary"])
    assert initial_by_lifting(K, "0", nmax=1)
    assert not initial_by_lifting(K, "0", nmax=2)


def test_initial_by_lifting_rejects_non_nerves():
    K = boundary_simplex(2)
    for _ in range(2):  # the cached horn verdict raises on every call
        with pytest.raises(NotANerve):
            initial_by_lifting(K, "0")


def test_lifting_tables_shared_across_queries_match_fresh_nerves():
    rng = random.Random(0)
    for name, C in sweeps.sweep_corpus_categories():
        K = nerve(C)
        queries = [(x, n) for x in C.objects for n in (1, 2, 3)]
        rng.shuffle(queries)
        for x, n in queries:
            # an equal category keeps a fresh nerve, with fresh tables
            fresh = nerve(FinCategory(C.objects, C.morphisms, C.identity, C.compose_table))
            assert initial_by_lifting(K, x, n) == initial_by_lifting(fresh, x, n), (name, x, n)


@pytest.mark.parametrize("n", range(4))
def test_values_are_the_composable_strings(n):
    for name, C in sweeps.sweep_corpus_categories():
        arrows = [m.id for m in C.morphisms]
        ending = {x: 1 for x in C.objects}  # strings of k morphisms ending at each object
        for _ in range(n):
            ending = {x: sum(ending[C.src(f)] for f in arrows if C.dst(f) == x) for x in C.objects}
        values = _values(nerve(C), n)
        assert len(values) == len(set(values)) == sum(ending.values()), (name, n)


def test_face_table_agrees_with_face():
    # the table derives the faces of degenerate values from the simplicial
    # identities; cones add degenerate faces to nondegenerate simplices
    for _, C in sweeps.sweep_corpus_categories():
        for K in (nerve(C), join_point(nerve(C)).sset):
            number, faces, _ = K._face_table
            for n in (1, 2, 3):
                for t, J in _values(K, n):
                    v = Degenerate(t, J) if J else t
                    assert faces[number[t, J]] == tuple(number[_key(face(K, v, i))] for i in range(n + 1))


def test_face_pushes_through_degeneracies():
    # d_0 s_1 s_0 = s_0 d_0 s_0 = s_0; d_1 and d_2 cancel s_1; d_3 pushes
    # all the way to the source vertex of the loop
    K = nerve(CATS["z2"])
    v = Degenerate("s", (1, 0))  # a doubly degenerate 3-value over the loop
    faces = [face(K, v, i) for i in range(4)]
    assert faces == [
        Degenerate("s", (0,)),
        Degenerate("s", (0,)),
        Degenerate("s", (0,)),
        Degenerate("*", (1, 0)),
    ]


def test_sset_dict_roundtrip():
    K = nerve(CATS["free_boundary"])
    assert sset_from_dict(K.to_dict()) == K


def test_categories_with_kept_nerves_are_freed_by_reference_counting():
    # the nerve names objects and morphisms only, so C, its nerve and the
    # nerve's lifting tables go with C's last reference
    gc.disable()
    try:
        C = corpus.diamond()
        N = nerve(C)
        assert nerve(C) is N and [x for x in C.objects if initial_by_lifting(N, x)] == ["bot"]
        refs = [weakref.ref(x) for x in (C, N)]
        del C, N
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
