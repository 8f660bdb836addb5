import hashlib
import json
import re
import sys

import pytest

from finadj import adjoint, corpus, fincat, limits, sweeps
from finadj.adjoint import (
    AdjunctionCertificate,
    OracleBoundExceeded,
    VerificationResult,
    WitnessNotInitial,
    brute_force_left_adjoint,
    comma_over,
    comma_under,
    construct_left_adjoint,
    gaft_decide,
    solution_set_condition,
    verify_adjunction,
)
from finadj.fincat import UnknownObject, identity_functor, isomorphic, opposite_functor
from finadj.limits import initial_objects, limit, weakly_initial_sets

CATS = corpus.categories()


def chain3_to_two():
    return corpus.monotone_functor(CATS["chain3"], CATS["two"], {"0": "0", "1": "1", "2": "1"})


def test_comma_under_empty_when_unreachable():
    G = corpus.functor(CATS["one"], CATS["disc2"], {"*": "x"})
    comma = comma_under(G, "y")
    assert comma.base.objects == ()


def test_comma_under_chain3_to_two_at_one():
    comma = comma_under(chain3_to_two(), "1")
    assert set(comma.pairs.values()) == {("1", "id_1"), ("2", "id_1")}
    nonid = comma.base.nonidentity()
    assert len(nonid) == 1
    assert initial_objects(comma.base) == ["(1,id_1)"]


def test_comma_under_identity_is_the_under_slice():
    C = CATS["chain3"]
    comma = comma_under(identity_functor(C), "0")
    assert isomorphic(comma.base, C)
    assert initial_objects(comma.base) == ["(0,id_0)"]


def test_comma_under_unknown_anchor():
    with pytest.raises(UnknownObject):
        comma_under(identity_functor(CATS["two"]), "zz")


def test_comma_over_identity_is_the_slice():
    C = CATS["chain3"]
    assert isomorphic(comma_over(identity_functor(C), "2").base, C)


def test_comma_over_empty_when_unreachable():
    F = corpus.functor(CATS["one"], CATS["chain3"], {"*": "1"})
    assert comma_over(F, "0").base.objects == ()


# sha256 of [base.to_dict(), pairs] for every comma below, taken from the
# release whose commas were built by hand instead of by category_over
COMMA_DIGEST = "5c1b1cb037ec43b90439f6ae4456110180fe86e1ac4ffd427380b8dcb9acea9a"


def _pinned_functors():
    functors = [G for _, G in corpus.curated_oracle_functors()]
    functors += [G for _, G in corpus.poset_maps(3)]
    functors += [identity_functor(C) for C in CATS.values()]
    return functors


def test_commas_are_pinned():
    functors = _pinned_functors()
    digest = hashlib.sha256()
    for G in functors:
        for build in (comma_under, comma_over):
            for x in G.target.objects:
                comma = build(G, x)
                digest.update(json.dumps([comma.base.to_dict(), comma.pairs]).encode())
    assert len(functors) == 525
    assert digest.hexdigest() == COMMA_DIGEST


def _inflated_functors():
    """The collapse of every named category with 1-3 copies of each object:
    equivalences, whose comma under c has an initial object per copy of c."""
    return [
        sweeps.inflate(C, [copies(j) for j in range(len(C.objects))])
        for C in CATS.values()
        for copies in (lambda j: 1 + j % 3, lambda j: 3 - j % 3, lambda j: 2)
    ]


def test_gaft_decide_agrees_with_the_built_commas():
    """The decision reads the comma's objects and hom sets only; on every
    pinned functor and inflation it picks what the full comma's first
    initial object gives, and fails at the first anchor whose full comma
    has none."""
    failures = several = 0
    for G in _pinned_functors() + _inflated_functors():
        witnesses, none_at = {}, None
        for c in G.target.objects:
            comma = comma_under(G, c)
            init = initial_objects(comma.base)
            if not init:
                none_at = c
                break
            several += len(init) > 1
            witnesses[c] = comma.pairs[init[0]]
        res = gaft_decide(G)
        if none_at is not None:
            assert (res.exists, res.witness) == (False, none_at)
            failures += 1
        else:
            F, unit = res.certificate.left, res.certificate.unit
            assert {c: (F.obj_map[c], unit[c]) for c in G.target.objects} == witnesses
    assert 0 < failures < 525
    assert several == 81  # commas where the first initial object must win over later ones


def test_hom_view_lists_the_built_comma_hom_sets():
    """The view's hom(i, j), computed on demand, is the built comma's hom
    set between the matching objects, projected, in the same order."""
    for G in _pinned_functors():
        for c, objects, view in adjoint._hom_views(G):
            comma = comma_under(G, c)
            names = list(comma.base.objects)
            assert [comma.pairs[o] for o in names] == objects
            assert view.objects == range(len(names))
            for i in view.objects:
                for j in view.objects:
                    built = [comma.projection.mor_map[m] for m in comma.base.hom(names[i], names[j])]
                    assert view.hom(i, j) == built


def test_gaft_decide_stops_at_the_first_initial_object(monkeypatch):
    """bot.1 is initial under bot as bot.0 is, and b.1, b.2 under b as b.0
    is; the decision asks about the first object of each comma only."""
    real, asked = limits.is_initial, []  # (view, object, verdict) per question

    def is_initial(C, x):
        asked.append((C, x, real(C, x)))
        return asked[-1][2]

    monkeypatch.setattr(limits, "is_initial", is_initial)
    res = gaft_decide(sweeps.inflate(CATS["diamond"], [2, 1, 3, 1]))
    assert res.certificate.left.obj_map == {"bot": "bot.0", "a": "a.0", "b": "b.0", "top": "top.0"}
    assert [(x, verdict) for _, x, verdict in asked] == [(0, True)] * 4
    assert len({id(view) for view, _, _ in asked}) == 4  # one question per anchor's comma


# sha256 of gaft_decide(G).to_json_dict() for every G below, one JSON
# document per line: inputs past the oracle's bounds that no golden digest
# reaches, so a change to the comma path shows every certificate byte.
DECIDE_DIGEST = "cab0be0721c7e1a1886d05feaa1a10b16767964723ed6d47c8c91fe4d01e292e"


def _chain(n):
    objs = [str(i) for i in range(n)]
    return corpus.poset_category(objs, [(objs[i], objs[j]) for i in range(n) for j in range(i + 1, n)])


def test_gaft_certificates_past_the_oracle_are_pinned():
    functors = [
        sweeps.inflate(C, [copies(j) for j in range(len(C.objects))])
        for C in CATS.values()
        for copies in (lambda j: 1, lambda j: 2, lambda j: 1 + j % 2)
    ]
    for m, n in ((5, 3), (6, 6), (7, 8), (8, 5)):
        # onto and top to top, top below top (no left adjoint), all but top to the bottom
        for values in (
            [i * (n - 1) // (m - 1) for i in range(m)],
            [min(i, n - 2) for i in range(m)],
            [0] * (m - 1) + [n - 1],
        ):
            functors.append(corpus.monotone_functor(_chain(m), _chain(n), {str(i): str(v) for i, v in enumerate(values)}))
    digest = hashlib.sha256()
    verdicts = []
    for G in functors:
        body = gaft_decide(G).to_json_dict()
        verdicts.append(body["verdict"])
        digest.update(json.dumps(body).encode() + b"\n")
    assert (len(functors), verdicts.count("exists")) == (54, 50)
    assert digest.hexdigest() == DECIDE_DIGEST


def test_comma_duality_on_curated_corpus():
    tally = sweeps.check_comma_duality()
    assert tally.checks > 0 and not tally.failures


def test_solution_set_condition_reports_minimal_sets():
    rep = solution_set_condition(chain3_to_two())
    assert rep.sets["1"] == ("(1,id_1)",)
    g2 = corpus.functor(CATS["one"], CATS["disc2"], {"*": "x"})
    rep2 = solution_set_condition(g2)
    assert rep2.sets["y"] == ()


def test_solution_set_witnesses_reassert_as_weakly_initial():
    from finadj.limits import is_weakly_initial

    for name, G in corpus.curated_oracle_functors():
        rep = solution_set_condition(G)
        for c, members in rep.sets.items():
            comma = comma_under(G, c)
            assert is_weakly_initial(comma.base, members), (name, c)


def test_gaft_decide_constructs_the_expected_adjoint():
    res = gaft_decide(chain3_to_two())
    assert res.exists
    cert = res.certificate
    assert cert.left.obj_map == {"0": "0", "1": "1"}
    assert cert.unit == {"0": "id_0", "1": "id_1"}
    assert verify_adjunction(cert).ok


def test_gaft_decide_reports_failing_anchor():
    res = gaft_decide(corpus.functor(CATS["one"], CATS["disc2"], {"*": "x"}))
    assert not res.exists and res.witness == "y"
    assert res.to_json_dict() == {
        "verdict": "none",
        "left_adjoint": None,
        "unit": None,
        "witness_failure": {"anchor": "y"},
    }


def test_gaft_identity_yields_identity_adjoint():
    C = CATS["chain3"]
    res = gaft_decide(identity_functor(C))
    assert res.exists
    assert res.certificate.left.obj_map == {x: x for x in C.objects}
    assert all(res.certificate.unit[x] == C.id_of(x) for x in C.objects)


def test_construct_left_adjoint_rejects_non_initial_witness():
    G = chain3_to_two()
    # an object of the comma that is not initial; a unit outside
    # hom(1, G 2); an unknown object of the source
    for at_1 in (("2", "id_1"), ("2", "id_0"), ("9", "id_1")):
        with pytest.raises(WitnessNotInitial):
            construct_left_adjoint(G, {"0": ("0", "id_0"), "1": at_1})


def test_gaft_decide_builds_no_comma(monkeypatch):
    built = []
    shared = fincat.category_over

    def recording(*args, **kwargs):
        built.append(args)
        return shared(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "finadj" and getattr(module, "category_over", None) is shared:
            monkeypatch.setattr(module, "category_over", recording)
    curated = corpus.curated_oracle_functors()
    decided = sum(gaft_decide(G).exists for _, G in curated)
    for _, G in curated:
        solution_set_condition(G)
    assert not built
    assert decided == 8


def test_verify_adjunction_flags_mutated_unit():
    res = gaft_decide(identity_functor(CATS["chain3"]))
    assert res.exists
    cert = res.certificate
    assert cert.unit["0"] == "id_0"
    mutated = AdjunctionCertificate(cert.left, cert.right, {**cert.unit, "0": "0<1"})
    assert verify_adjunction(mutated) == VerificationResult(False, "unit component at '0' has wrong endpoints")


def _certificate(G, obj_map, mor_map, unit):
    """A certificate whose left adjoint is taken as given, functor or not."""
    return AdjunctionCertificate(fincat.FinFunctor(G.target, G.source, obj_map, mor_map), G, unit)


def _violations():
    """A certificate and its first violation for each kind of violation
    that `test_verify_adjunction_flags_mutated_unit` does not pin, on small
    corpus categories; where two pairs (c, d) fail, the first in the order
    c, then d is named."""
    two, pp, vee = CATS["two"], CATS["pp"], CATS["vee"]
    G = identity_functor(CATS["chain3"])
    ids = {x: f"id_{x}" for x in "012"}
    cases = [
        (_certificate(G, G.obj_map, G.mor_map, {"0": "id_0", "2": "id_2"}), "unit component missing at '1'"),
        (_certificate(G, {"0": "0", "1": "1"}, G.mor_map, ids), "left adjoint is not a functor: F('2') is not an object of its target"),
    ]
    # a functor sending f to g: its ends are right, naturality at f is not
    G = identity_functor(pp)
    swapped = {"id_a": "id_a", "id_b": "id_b", "f": "g", "g": "g"}
    cases.append((_certificate(G, G.obj_map, swapped, {"a": "id_a", "b": "id_b"}), "unit naturality fails at 'f'"))
    # G sends f and g to 0<1
    G = corpus.functor(pp, two, {"a": "0", "b": "1"}, {"f": "0<1", "g": "0<1"})
    F = corpus.functor(two, pp, {"0": "a", "1": "b"}, {"0<1": "f"})
    cases.append((AdjunctionCertificate(F, G, {"0": "id_0", "1": "id_1"}), "hom map at ('0', 'b') is not injective"))
    # hom(F 0, y) and hom(F 1, x) are empty, hom(0, G y) and hom(1, G x) are not
    G = corpus.monotone_functor(vee, two, {"x": "1", "y": "0", "z": "1"})
    F = corpus.monotone_functor(two, vee, {"0": "x", "1": "z"})
    cases.append((AdjunctionCertificate(F, G, {"0": "0<1", "1": "id_1"}), "hom map at ('0', 'y') is not surjective"))
    # the failing pair's hom sizes (|hom(F c, d)|, |hom(c, G d)|): (1, 2),
    # where the unit p of idem hits p but not id_*
    one, idem = CATS["one"], CATS["idem"]
    F = corpus.functor(idem, one, {"*": "*"}, {"p": "id_*"})
    cert = AdjunctionCertificate(F, corpus.functor(one, idem, {"*": "*"}), {"*": "p"})
    cases.append((cert, "hom map at ('*', '*') is not surjective"))
    # (2, 1): f and g both go to id_*
    F = corpus.functor(one, pp, {"*": "a"})
    cert = AdjunctionCertificate(F, corpus.functor(pp, one, {"a": "*", "b": "*"}, {"f": "id_*", "g": "id_*"}), {"*": "id_*"})
    cases.append((cert, "hom map at ('*', 'b') is not injective"))
    # (1, 0): no functor G has it, as G(g) o u_c lies in hom(c, G d); so G
    # sends 0<1 to id_x, from G 0 = x but not to G 1 = y
    disc2 = CATS["disc2"]
    G = fincat.FinFunctor(two, disc2, {"0": "x", "1": "y"}, {"id_0": "id_x", "id_1": "id_y", "0<1": "id_x"})
    F = corpus.functor(disc2, two, {"x": "0", "y": "1"})
    cases.append((AdjunctionCertificate(F, G, {"x": "id_x", "y": "id_y"}), "hom map at ('x', '1') is not surjective"))
    # (0, 1): hom(1, 0) is empty, hom(*, *) is not
    F = corpus.functor(one, two, {"*": "1"})
    cert = AdjunctionCertificate(F, corpus.functor(two, one, {"0": "*", "1": "*"}, {"0<1": "id_*"}), {"*": "id_*"})
    cases.append((cert, "hom map at ('*', '0') is not surjective"))
    kinds = ("unit-missing", "not-a-functor", "naturality", "not-injective", "not-surjective")
    kinds += ("hom-sizes-1-2", "hom-sizes-2-1", "hom-sizes-1-0", "hom-sizes-0-1")
    return [pytest.param(cert, violation, id=kind) for kind, (cert, violation) in zip(kinds, cases, strict=True)]


@pytest.mark.parametrize("cert, violation", _violations())
def test_verify_adjunction_names_the_first_violation(cert, violation):
    assert verify_adjunction(cert) == VerificationResult(False, violation)


def test_violations_cover_the_hom_sizes_of_a_failing_pair():
    # a singleton hom(F c, d) is compared with hom(c, G d) without a set:
    # each case's named pair (c, d) has the hom sizes its id states
    sizes = {}
    for case in _violations():
        (cert, violation), kind = case.values, case.id
        if kind.startswith("hom-sizes-"):
            c, d = re.fullmatch(r"hom map at \('(.*)', '(.*)'\) is not \w+", violation).groups()
            F, G = cert.left, cert.right
            sizes[kind] = (len(F.target.hom(F.obj_map[c], d)), len(F.source.hom(c, G.obj_map[d])))
    assert sizes == {"hom-sizes-1-2": (1, 2), "hom-sizes-2-1": (2, 1), "hom-sizes-1-0": (1, 0), "hom-sizes-0-1": (0, 1)}


def test_verify_adjunction_refuses_a_left_adjoint_that_is_not_a_functor():
    G = sweeps.inflate(corpus.two(), [2, 1])
    cert = gaft_decide(G).certificate
    F = cert.left
    assert (F.obj_map["0"], F.mor_map["0<1"]) == ("0.0", "(0<1):0.0>1.0")
    # (0<1):0.1>1.0 lies over 0<1, so naturality and every hom bijection hold,
    # but it starts at 0.1, not at F(0)
    moved = {**F.mor_map, "0<1": "(0<1):0.1>1.0"}
    missing = {m: g for m, g in F.mor_map.items() if m != "0<1"}
    violation = "left adjoint is not a functor: F('0<1') is not a morphism from F('0') to F('1')"
    for mor_map in (moved, missing):
        assert verify_adjunction(_certificate(G, F.obj_map, mor_map, cert.unit)) == VerificationResult(False, violation)


# sha256 of the oracle's exact answers: compact JSON (separators "," and
# ":") of one row [label, [[obj_map items, mor_map items, unit items], ...]]
# per instance, the pairs in the oracle's order; a pruned oracle must keep it
ORACLE_PAIRS_DIGEST = "1af9806b9903bdd8c451db03a6856ec9d1393e8aa0d15e5178ca8feaf818904b"


def test_oracle_pairs_are_pinned():
    instances = corpus.curated_oracle_functors() + corpus.poset_maps(3)
    rows = [
        [label, [[list(F.obj_map.items()), list(F.mor_map.items()), list(u.items())] for F, u in brute_force_left_adjoint(G, 4, 16).pairs]]
        for label, G in instances
    ]
    assert (len(rows), sum(len(pairs) for _, pairs in rows)) == (511, 78)
    assert hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest() == ORACLE_PAIRS_DIGEST


def test_oracle_returns_no_pair_without_searching_when_an_object_has_no_unit(monkeypatch):
    from finadj import adjoint

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle searched")

    monkeypatch.setattr(adjoint, "search", refuse)
    # hom(y, G *) = hom(y, x) is empty, so no unit exists at y
    res = brute_force_left_adjoint(corpus.functor(CATS["one"], CATS["disc2"], {"*": "x"}))
    assert res.exists is False and res.pairs == []


def _codiscrete_z2(objects):
    """The codiscrete groupoid on `objects` with two morphisms (o1, o2, k),
    k in Z/2, between any two objects, composing by adding k mod 2."""
    name = lambda o1, o2, k: f"{o1}{o2}{k}"
    C = fincat.build_category(
        objects,
        [(name(o1, o2, k), o1, o2) for o1 in objects for o2 in objects for k in (0, 1)],
        {o: name(o, o, 0) for o in objects},
        {
            (name(o2, o3, k2), name(o1, o2, k1)): name(o1, o3, (k1 + k2) % 2)
            for o1 in objects for o2 in objects for o3 in objects for k1 in (0, 1) for k2 in (0, 1)
        },
    )
    fincat.check_laws(C)
    return C


def test_oracle_pairs_come_in_objects_first_lexicographic_order():
    D, C = _codiscrete_z2(["a", "b"]), _codiscrete_z2(["x", "p", "y"])
    image = {"a": "x", "b": "p"}
    G = fincat.FinFunctor(D, C, image, {m.id: f"{image[m.src]}{image[m.dst]}{m.id[2]}" for m in D.morphisms})
    fincat.check_functor_laws(G)
    pairs = brute_force_left_adjoint(G).pairs
    rank_d = {d: i for i, d in enumerate(D.objects)}
    rank_g = {g.id: i for i, g in enumerate(D.morphisms)}
    rank_u = {u.id: i for i, u in enumerate(C.morphisms)}
    keys = [
        (
            [rank_d[F.obj_map[c]] for c in C.objects],
            [rank_g[F.mor_map[m]] for m in C.nonidentity()],
            [rank_u[unit[c]] for c in C.objects],
        )
        for F, unit in pairs
    ]
    assert len(pairs) == 64
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert all(list(F.mor_map) == [C.id_of(c) for c in C.objects] + list(C.nonidentity()) for F, _ in pairs)


def _comma_name_clash():
    """A discrete source a, a,b over a target with b,c: x -> y and c: x -> z:
    the comma under x has the objects (a, b,c) and (a,b, c)."""
    D = corpus.poset_category(["a", "a,b"], [])
    C = fincat.validate_category({
        "objects": ["x", "y", "z"],
        "morphisms": [{"id": f"id_{o}", "src": o, "dst": o} for o in "xyz"]
        + [{"id": "b,c", "src": "x", "dst": "y"}, {"id": "c", "src": "x", "dst": "z"}],
        "identities": {o: f"id_{o}" for o in "xyz"},
        "compose": [],
    })
    return corpus.functor(D, C, {"a": "y", "a,b": "z"}, {"id_a": "id_y", "id_a,b": "id_z"})


def test_comma_objects_are_named_injectively(tmp_path):
    from finadj.cli import run

    G = _comma_name_clash()
    comma = comma_under(G, "x")
    assert comma.pairs == {"(a,b,c)": ("a", "b,c"), "(a\\,b,c)": ("a,b", "c")}
    assert comma_over(opposite_functor(G), "x").pairs == comma.pairs
    assert gaft_decide(G).to_json_dict()["verdict"] == "none"
    assert brute_force_left_adjoint(G).exists is False
    path = tmp_path / "g.json"
    path.write_text(json.dumps(G.to_dict()), encoding="utf-8")
    assert run(["gaft", "--functor", str(path), "--out", str(tmp_path / "out.json")]) == 0
    assert json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))["verdict"] == "none"


def test_brute_force_identity_adjoints_are_naturally_isomorphic():
    C = CATS["chain3"]
    res = brute_force_left_adjoint(identity_functor(C))
    # chain3 is a skeletal poset, so an adjoint naturally isomorphic to the
    # identity is the identity, and its unit the identity transformation
    ident = identity_functor(C)
    assert [(F.obj_map, F.mor_map, unit) for F, unit in res.pairs] == [
        (ident.obj_map, ident.mor_map, {x: C.id_of(x) for x in C.objects})
    ]


def test_brute_force_finds_nothing_for_disc2_pick():
    res = brute_force_left_adjoint(corpus.functor(CATS["one"], CATS["disc2"], {"*": "x"}))
    assert not res.exists and res.pairs == []


def test_brute_force_bounds_are_refusals():
    def chain(n):
        return corpus.poset_category(
            [str(i) for i in range(n)],
            [(str(i), str(j)) for i in range(n) for j in range(i + 1, n)],
        )

    # five source objects exceed the object bound
    G = corpus.functor(CATS["one"], chain(5), {"*": "0"})
    with pytest.raises(OracleBoundExceeded):
        brute_force_left_adjoint(G)
    # a six-chain has 21 morphisms, past the target-morphism bound
    chain6 = chain(6)
    G2 = corpus.functor(chain6, CATS["one"], {x: "*" for x in chain6.objects},
                        {m: "id_*" for m in chain6.nonidentity()})
    with pytest.raises(OracleBoundExceeded):
        brute_force_left_adjoint(G2)


def test_right_adjoints_are_decided_through_opposites():
    # a right adjoint of F is a left adjoint of the opposite functor, so
    # whenever gaft produces F -| G, F^op must have one, since G^op is one
    for name, G in corpus.curated_oracle_functors():
        res = gaft_decide(G)
        if res.exists:
            dual = gaft_decide(opposite_functor(res.certificate.left))
            assert dual.exists, name
            assert verify_adjunction(dual.certificate).ok, name
    # the collapse two -> one has the top-picking right adjoint
    H = corpus.monotone_functor(CATS["two"], CATS["one"], {"0": "*", "1": "*"})
    dual = gaft_decide(opposite_functor(H))
    assert dual.exists and dual.certificate.left.obj_map == {"*": "1"}


def test_bijections_respect_composition_in_both_variables():
    G = chain3_to_two()
    cert = gaft_decide(G).certificate
    C, D = cert.left.source, cert.left.target
    # the hom bijection g -> G(g) o u_c, read from the certificate
    transpose = lambda c, g: C.compose(G.mor_map[g], cert.unit[c])
    for c in C.objects:
        for d in D.objects:
            for d2 in D.objects:
                for g in D.hom(cert.left.obj_map[c], d):
                    for h in D.hom(d, d2):
                        assert transpose(c, D.compose(h, g)) == C.compose(G.mor_map[h], transpose(c, g))


def test_coinitial_functor_restriction_preserves_limits():
    # every comma of the bottom inclusion has an initial object, so limits
    # over the big shape agree with limits of the restricted diagram
    bottom = corpus.poset_category(["0"], [])
    F = corpus.functor(bottom, CATS["chain3"], {"0": "0"})
    assert all(initial_objects(comma_over(F, d).base) for d in F.target.objects)
    target = CATS["diamond"]
    from finadj.fincat import compose_functors

    for p in corpus.monotone_maps(CATS["chain3"], target):
        big = {c.apex for c in limit(target, p)}
        small = {c.apex for c in limit(target, compose_functors(p, F))}
        assert big == small


def test_the_comma_decision_never_runs_the_shared_search(monkeypatch):
    curated = corpus.curated_oracle_functors()

    def refuse(*args, **kwargs):
        raise AssertionError("fincat.search was called")

    shared = fincat.search
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "finadj" and getattr(module, "search", None) is shared:
            monkeypatch.setattr(module, "search", refuse)
    for _, G in curated:
        gaft_decide(G)
    with pytest.raises(AssertionError, match="fincat.search"):
        brute_force_left_adjoint(curated[0][1])


def test_the_comma_decision_never_rechecks_a_comma(monkeypatch):
    curated = corpus.curated_oracle_functors()  # validate_functor checks these as they are built
    checked = []  # every value that check_laws or check_functor_laws saw during the decisions
    for law in ("check_laws", "check_functor_laws"):
        shared = getattr(fincat, law)

        def recording(x, shared=shared):
            checked.append(x)
            return shared(x)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "finadj" and getattr(module, law, None) is shared:
                monkeypatch.setattr(module, law, recording)
    for _, G in curated:
        gaft_decide(G)
    # neither a comma nor the adjoint is checked: verify_adjunction is the one check of a certificate
    assert checked == []


def test_every_decided_left_adjoint_passes_the_functor_laws():
    # gaft_decide leaves F's functor laws to verify_adjunction; the full check is the reference
    decided = 0
    for _, G in corpus.curated_oracle_functors() + corpus.poset_maps(3):
        res = gaft_decide(G)
        if res.exists:
            fincat.check_functor_laws(res.certificate.left)
            decided += 1
    assert decided  # 70 of them: the check is not vacuous


def test_empty_target_category_is_handled():
    G = identity_functor(CATS["empty"])
    res = gaft_decide(G)
    assert res.exists
    assert res.certificate.unit == {}
    assert weakly_initial_sets(CATS["empty"]) == [()]
