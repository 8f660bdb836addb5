"""Named invariant sweeps over the fixture corpus.

Each invariant is one function returning a `Tally`: its number of checks,
its failures in order, and the counts it reports.  A suite runs its
invariants in a fixed order and concatenates their tallies into a
deterministic JSON-ready report: counts, failures, and the first
counterexample if any.  Nothing time-dependent goes into a report, so
repeated runs are byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import adjoint, brown, corpus, enriched, limits, simplicial
from .fincat import (
    FinCategory,
    FinFunctor,
    build_category,
    functor_profile,
    opposite,
)

SUITES = ("posets4", "fixtures", "enriched", "oracle")


@dataclass
class Tally:
    """What one invariant checked."""

    checks: int = 0
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def check(self, ok: bool, failure: dict) -> None:
        """Count one check, recording `failure` unless it held."""
        self.checks += 1
        if not ok:
            self.failures.append(failure)


def _report(suite: str, tallies: list[Tally], **details) -> dict:
    failures = [f for t in tallies for f in t.failures]
    return {
        "suite": suite,
        "checks": sum(t.checks for t in tallies),
        "failures": len(failures),
        "first_counterexample": failures[0] if failures else None,
        "details": {k: v for t in tallies for k, v in t.details.items()} | details,
    }


def sweep_corpus_categories() -> list[tuple[str, FinCategory]]:
    named = list(corpus.categories().items())
    posets = [(f"poset{i}", P) for i, P in enumerate(corpus.posets_up_to(4))]
    return named + posets


# -- oracle ------------------------------------------------------------------


def check_gaft_oracle_agreement(oracle_bounds: tuple[int, int] = (4, 16)) -> Tally:
    """Agreement of the comma-based decision with the brute-force oracle
    over every monotone map between posets of at most four elements, plus
    the curated non-poset instances.  Certificates are re-verified."""
    t = Tally()
    posets = corpus.posets_up_to(4)
    instances = []
    for i, P in enumerate(posets):
        for j, Q in enumerate(posets):
            for k, G in enumerate(corpus.monotone_maps(P, Q)):
                instances.append((f"poset{i}->poset{j}#{k}", G))
    curated = corpus.curated_oracle_functors()
    t.details = {"poset_instances": len(instances), "curated_instances": len(curated)}
    for name, G in instances + curated:
        g = adjoint.gaft_decide(G)
        b = adjoint.brute_force_left_adjoint(G, *oracle_bounds)
        if g.exists != b.exists:
            t.check(False, {"instance": name, "reason": "existence disagreement"})
        else:
            verified = not g.exists or adjoint.verify_adjunction(g.certificate).ok
            t.check(verified, {"instance": name, "reason": "certificate fails verification"})
    return t


def oracle_sweep(oracle_bounds: tuple[int, int] = (4, 16)) -> dict:
    return _report("oracle", [check_gaft_oracle_agreement(oracle_bounds)])


# -- posets4 -----------------------------------------------------------------


def check_identity_limit(cats) -> Tally:
    """The apexes of identity-diagram limits are the initial objects."""
    t = Tally()
    for name, C in cats:
        apexes = sorted({c.apex for c in limits.identity_limit_cones(C)})
        single = limits.limit_of_identity(C)
        ok = apexes == sorted(limits.initial_objects(C)) and (
            (single is None) == (not apexes)
        )
        t.check(ok, {"category": name, "invariant": "identity_limit"})
    return t


def check_tau1_nerve_roundtrip(cats) -> Tally:
    t = Tally()
    for name, C in cats:
        ok = simplicial.tau1(simplicial.nerve(C)) == C
        t.check(ok, {"category": name, "invariant": "tau1_nerve_roundtrip"})
    return t


def check_initial_by_lifting(cats) -> Tally:
    """Initial objects are exactly the vertices with boundary lifting."""
    t = Tally()
    for name, C in cats:
        N = simplicial.nerve(C)
        lifted = {x for x in C.objects if simplicial.initial_by_lifting(N, x)}
        ok = set(limits.initial_objects(C)) == lifted
        t.check(ok, {"category": name, "invariant": "initial_by_lifting"})
    return t


def check_finite_limits_imply_initial(cats) -> Tally:
    t = Tally()
    for name, C in cats:
        ok = not limits.has_finite_limits(C).ok or bool(limits.initial_objects(C))
        t.check(ok, {"category": name, "invariant": "finite_limits_imply_initial"})
    return t


def check_opposite_duality(cats) -> Tally:
    t = Tally()
    for name, C in cats:
        ok = limits.initial_objects(opposite(C)) == limits.terminal_objects(C)
        t.check(ok, {"category": name, "invariant": "opposite_duality"})
    return t


def check_poset_weak_pushouts(cats) -> Tally:
    t = Tally()
    for name, C in cats:
        if not name.startswith("poset"):
            continue
        ok = all(
            limits.weak_pushout(C, f.id, g.id) == limits.pushouts(C, f.id, g.id)
            for f in C.morphisms
            for g in C.morphisms
            if f.src == g.src
        )
        t.check(ok, {"category": name, "invariant": "poset_weak_pushouts_are_pushouts"})
    return t


def check_comma_duality() -> Tally:
    t = Tally()
    for name, G in corpus.curated_oracle_functors():
        for d in G.target.objects:
            ok = adjoint.comma_duality_holds(G, d)
            t.check(ok, {"functor": name, "anchor": d, "invariant": "comma_duality"})
    return t


def posets4_sweep() -> dict:
    """Identity-limit, duality, round-trip, lifting, and finite-completeness
    invariants over the whole category corpus."""
    cats = sweep_corpus_categories()
    tallies = [
        check_identity_limit(cats),
        check_tau1_nerve_roundtrip(cats),
        check_initial_by_lifting(cats),
        check_finite_limits_imply_initial(cats),
        check_opposite_duality(cats),
        check_poset_weak_pushouts(cats),
        check_comma_duality(),
    ]
    return _report("posets4", tallies, categories=len(cats))


# -- generated functors satisfying the reflection hypotheses -----------------


def inflate(C: FinCategory, copies: list[int]) -> FinFunctor:
    """Duplicate each object the given number of times and collapse back.

    The collapse functor is surjective on objects, hom-wise bijective
    (hence full and faithful), and conservative; its source equalizes
    parallel pairs whenever C does.  This supplies arbitrarily many
    functors meeting the initial-reflection hypotheses.
    """
    names = {
        x: [f"{x}.{k}" for k in range(m)] for x, m in zip(C.objects, copies)
    }
    objects = [n for x in C.objects for n in names[x]]
    mid = lambda f, a, b: f"{f}@{a}>{b}"
    morphisms, identity, obj_map, mor_map = [], {}, {}, {}
    for x in C.objects:
        for n in names[x]:
            obj_map[n] = x
    for a in objects:
        for b in objects:
            for f in C.hom(obj_map[a], obj_map[b]):
                m = mid(f, a, b)
                morphisms.append((m, a, b))
                mor_map[m] = f
                if a == b and f == C.id_of(obj_map[a]):
                    identity[a] = m
    compose = {}
    for m, a, b in morphisms:
        for m2, b2, c in morphisms:
            if b2 != b:
                continue
            compose[(m2, m)] = mid(C.compose(mor_map[m2], mor_map[m]), a, c)
    D = build_category(objects, morphisms, identity, compose)
    return FinFunctor(D, C, obj_map, mor_map)


def reflection_pool() -> list[tuple[str, FinCategory]]:
    cats = corpus.categories()
    pool = [(n, cats[n]) for n in ("one", "disc2", "two", "chain3", "diamond", "vee", "wedge", "ppe", "idem", "iso2")]
    pool += [(f"poset{i}", P) for i, P in enumerate(corpus.posets_up_to(3))]
    return pool


def generate_reflection_functors(seed: int = 0, count: int = 200):
    """Seeded stream of functors whose profiles meet all four hypotheses."""
    rng = random.Random(seed)
    pool = reflection_pool()
    out = []
    while len(out) < count:
        name, C = pool[rng.randrange(len(pool))]
        copies = [rng.randint(1, 3) for _ in C.objects]
        F = inflate(C, copies)
        out.append((f"{name}x{''.join(map(str, copies))}#{len(out)}", F))
    return out


# -- fixtures ----------------------------------------------------------------


def check_pz2_divergence() -> Tally:
    """The two-object fixture where homotopy and enriched verdicts diverge."""
    t = Tally()
    P = corpus.pz2()
    G = corpus.pz2_pick_y()
    mi = enriched.mapping_invariants(P, "x", "y")
    ok = mi.components == 1 and mi.automorphism_orders == (2,)
    t.check(ok, {"fixture": "pz2", "fact": "mapping_invariants"})
    cls = enriched.classify_object(P, "x")
    t.check(cls.h_initial and not cls.initial, {"fixture": "pz2", "fact": "classification"})
    cmp_report = enriched.homotopy_adjoint_compare(G)
    ok = cmp_report.h_result.exists and not cmp_report.full_result.exists
    t.check(ok, {"fixture": "pz2", "fact": "adjoint_divergence"})
    _, profile = enriched.comparison_functor(G, "x")
    ok = (
        profile.surjective_on_objects
        and profile.full
        and profile.conservative
        and not profile.equalizing_pairs
    )
    t.check(ok, {"fixture": "pz2", "fact": "comparison_profile"})
    comma = enriched.enriched_comma_under(G, "x").base
    o = comma.objects[0]
    comma_h = enriched.homotopy_category(comma).category
    flr = limits.has_finite_limits(comma_h)
    pair = [m for m in comma_h.nonidentity()]
    eq_missing = (
        len(comma_h.objects) == 1
        and not limits.equalizer_cones(comma_h, comma_h.id_of(comma_h.objects[0]), pair[0])
    )
    ok = not flr.ok and eq_missing and len(comma.hom(o, o).objects) == 2
    t.check(ok, {"fixture": "pz2", "fact": "comma_incompleteness"})
    return t


def check_initial_reflection(seed: int = 0) -> Tally:
    """Initial objects are reflected by 200 generated functors meeting the
    four hypotheses, and no claim is made for the pz2 comparison functor,
    which misses one of them."""
    t = Tally()
    generated = generate_reflection_functors(seed=seed, count=200)
    qualifying = 0
    for name, F in generated:
        prof = functor_profile(F)
        if not (
            prof.surjective_on_objects
            and prof.full
            and prof.conservative
            and prof.equalizing_pairs
        ):
            continue
        qualifying += 1
        rep = enriched.initial_reflection_check(F)
        t.check(rep.applies and rep.reflects is True, {"functor": name, "invariant": "initial_reflection"})
    t.details = {"reflection_generated": len(generated), "reflection_qualifying": qualifying}
    if qualifying < 200:
        t.failures.append({"invariant": "reflection_sample_size", "qualifying": qualifying})
    cmpF, _ = enriched.comparison_functor(corpus.pz2_pick_y(), "x")
    rep = enriched.initial_reflection_check(cmpF)
    t.check(not rep.applies and rep.reflects is not False, {"fixture": "pz2", "invariant": "reflection_does_not_apply"})
    return t


def check_brown_necessity(cats) -> Tally:
    """Representables satisfy B1 and B2 and are found by the search, on
    every corpus category with an initial object and the needed colimits;
    the designated failing fixtures fail."""
    t = Tally()
    yoneda = 0
    for name, C in cats:
        if not limits.initial_objects(C):
            continue
        # each check counts before it runs: a missing coproduct or pushout
        # abandons the category, and the check it interrupted still counts
        try:
            for a in C.objects:
                F = brown.hom_functor(C, a)
                t.checks += 1
                if not brown.check_B1(C, F).ok:
                    t.failures.append({"category": name, "object": a, "invariant": "B1"})
                t.checks += 1
                if not brown.check_B2(C, F).ok:
                    t.failures.append({"category": name, "object": a, "invariant": "B2"})
                t.checks += 1
                res = brown.representability_search(C, F)
                iso_to_a = res.found and (
                    res.representing == a
                    or any(C.is_iso(m) for m in C.hom(res.representing, a))
                )
                if not iso_to_a:
                    t.failures.append({"category": name, "object": a, "invariant": "yoneda"})
                yoneda += 1
        except (brown.CoproductAbsent, brown.PushoutAbsent):
            continue
    t.details = {"yoneda_objects": yoneda}

    b2f = brown.check_B2(corpus.two(), corpus.b2_failing_on_two())
    expected_square = {"span": ["0<1", "0<1"], "apex": "1", "legs": ["id_1", "id_1"]}
    ok = not b2f.ok and b2f.witness["square"] == expected_square
    t.check(ok, {"fixture": "b2_failing", "invariant": "documented_square"})
    ok = not brown.check_B1(corpus.two(), corpus.b1_failing_on_two()).ok
    t.check(ok, {"fixture": "b1_failing", "invariant": "B1_fails"})
    ok = not brown.representability_search(corpus.two(), corpus.b2_failing_on_two()).found
    t.check(ok, {"fixture": "b2_failing", "invariant": "not_representable"})
    return t


def fixtures_sweep(seed: int = 0) -> dict:
    """The divergence fixture, the reflection sweep, and the
    representability necessity checks."""
    tallies = [
        check_pz2_divergence(),
        check_initial_reflection(seed),
        check_brown_necessity(sweep_corpus_categories()),
    ]
    return _report("fixtures", tallies)


# -- enriched ----------------------------------------------------------------


def check_solution_set_invariance(efs) -> Tally:
    t = Tally()
    for name, G in efs:
        for c in G.target.objects:
            r = enriched.solution_set_invariance(G, c)
            ok = (
                r.enriched_has_set == r.ordinary_has_set
                and r.transfer_down_ok
                and r.transfer_up_ok
            )
            t.check(ok, {"functor": name, "anchor": c, "invariant": "solution_set_invariance"})
    return t


def check_embedding_agreement(efs) -> Tally:
    """On embedded plain functors the enriched and plain verdicts agree."""
    t = Tally()
    for name, G in efs:
        full = enriched.gaft_fin_decide(G)
        h = adjoint.gaft_decide(enriched.homotopy_functor(G))
        ok = not name.startswith("embed") or full.exists == h.exists
        t.check(ok, {"functor": name, "invariant": "embedding_agreement"})
    return t


def check_homotopy_of_embedding(cats) -> Tally:
    t = Tally()
    for name in ("one", "two", "chain3", "diamond", "iso2", "z2", "pp", "free_boundary"):
        C = cats[name]
        ok = enriched.homotopy_category(enriched.embed(C)).category == C
        t.check(ok, {"category": name, "invariant": "homotopy_of_embedding"})
    return t


def check_homotopy_functoriality(cats) -> Tally:
    """The homotopy construction is functorial on composable corpus pairs."""
    t = Tally()
    pairs = [
        ("embed", corpus.monotone_functor(cats["two"], cats["chain3"], {"0": "0", "1": "2"}),
         corpus.monotone_functor(cats["chain3"], cats["two"], {"0": "0", "1": "1", "2": "1"})),
    ]
    for name, F1, F2 in pairs:
        G1, G2 = enriched.embed_functor(F1), enriched.embed_functor(F2)
        lhs = enriched.homotopy_functor(enriched.compose_gfunctors(G2, G1))
        rhs_src = enriched.homotopy_functor(G1)
        rhs_tgt = enriched.homotopy_functor(G2)
        composed = {
            "obj": {x: rhs_tgt.obj_map[y] for x, y in rhs_src.obj_map.items()},
            "mor": {m: rhs_tgt.mor_map[n] for m, n in rhs_src.mor_map.items()},
        }
        ok = lhs.obj_map == composed["obj"] and lhs.mor_map == composed["mor"]
        t.check(ok, {"pair": name, "invariant": "homotopy_functoriality"})
    return t


def check_classification_chain(cats) -> Tally:
    """initial implies h-initial implies weakly initial singleton."""
    t = Tally()
    gcat_instances = [("pz2", corpus.pz2()), ("disc_gpd", corpus.disc_gpd())] + [
        (f"embed_{n}", enriched.embed(cats[n])) for n in ("chain3", "iso2", "z2")
    ]
    for name, GC in gcat_instances:
        for x in GC.objects:
            cls = enriched.classify_object(GC, x)
            ok = not (cls.initial and not cls.h_initial) and not (
                cls.h_initial and not cls.weakly_initial_singleton
            )
            t.check(ok, {"gcat": name, "object": x, "invariant": "classification_chain"})
    return t


def check_comparison_construction(efs) -> Tally:
    t = Tally()
    for name, G in efs:
        for c in G.target.objects:
            try:
                enriched.comparison_functor(G, c)
                ok = True
            except enriched.InvariantViolation:
                ok = False
            t.check(ok, {"functor": name, "anchor": c, "invariant": "comparison_construction"})
    return t


def enriched_sweep() -> dict:
    """Solution-set invariance, embedding agreement, homotopy functoriality,
    and classification implications over the enriched corpus."""
    efs = corpus.enriched_functors()
    cats = corpus.categories()
    tallies = [
        check_solution_set_invariance(efs),
        check_embedding_agreement(efs),
        check_homotopy_of_embedding(cats),
        check_homotopy_functoriality(cats),
        check_classification_chain(cats),
        check_comparison_construction(efs),
    ]
    return _report("enriched", tallies, enriched_functors=len(efs))


def run_suite(suite: str, seed: int = 0, oracle_bounds: tuple[int, int] = (4, 16)) -> dict:
    if suite == "posets4":
        return posets4_sweep()
    if suite == "fixtures":
        return fixtures_sweep(seed=seed)
    if suite == "enriched":
        return enriched_sweep()
    if suite == "oracle":
        return oracle_sweep(oracle_bounds)
    raise ValueError(f"unknown suite {suite!r}")
