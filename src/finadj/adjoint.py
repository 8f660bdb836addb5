"""Comma categories and adjoint-functor decision procedures.

The decision procedure mirrors the universal-arrow characterization: a
functor G admits a left adjoint exactly when each comma category under an
anchor object has an initial object, and one per anchor is all it needs.
Initiality in a comma is decided by `limits.is_initial` on the comma's
objects and hom sets, so there is a single criterion and a single oracle
for it.  The decision and the solution-set report both read a comma
through `_hom_views`: its objects, and each hom set computed only when
asked, so the decision stops at each comma's first initial object without
listing the comma's other morphisms.  The composition table, which
neither reads, is built only by `comma_under`.  The adjoint assembled from
the initial objects is re-checked by `verify_adjunction`, whose hom
bijections are exactly their initiality, and which is its one check: F's
functor laws follow from it, so no `check_functor_laws` runs on F.

The loops on the decision's path (`_comma_objects`, the view's `hom`,
`construct_left_adjoint`'s image filter and `verify_adjunction`) look up
their categories' tables once, before the loop, and read them directly:
`compose_table`, and the hom index by rows, `FinCategory.hom_from(x)`,
which maps each target y to hom(x, y).  Each loop fetches an object's row
once and then reads one hom set per target from it, so no hom read builds
or hashes an (x, y) key.  Every composite is read after the ends that
make it defined are checked, and a `FinCategory` defines `compose_table`
on exactly the composable pairs, so no read misses while G is a functor
(`verify_adjunction` names a G that is not).  The rows are read
rather than a bound `hom` method because the call, not the lookup, is
most of the cost of a hom read: against method calls throughout, reading
an index measured +19.5% instances/s on decide-large (seed 0, 2 vCPUs),
and a bound `hom` 3-11%; reading rows rather than a flat index keyed by
(x, y) measured a further +26% (median of 10 pairs).  `FinCategory`
states the index's contract.

`brute_force_left_adjoint` is the second opinion: it enumerates every
candidate functor and unit within configured bounds, and accepts a
candidate through `verify_adjunction`, the check the decision's
certificate passes.  The enumeration shares no code with the decision,
but the acceptance test is shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterator

from . import limits
from .fincat import (
    CategoryError,
    FinCategory,
    FinFunctor,
    UnknownObject,
    category_over,
    escape,
    functor_space,
    isomorphic,
    opposite,
    opposite_functor,
    search,
)


class WitnessNotInitial(CategoryError):
    pass


class OracleBoundExceeded(CategoryError):
    pass


ORACLE_BOUNDS = (4, 16)  # the oracle's default max_source_objects, max_target_morphisms


@dataclass(frozen=True)
class Comma:
    """A comma category together with its projection.

    `pairs` maps each comma object id back to its (object, morphism) pair;
    the projection maps each comma morphism to the underlying morphism.
    """

    base: FinCategory
    projection: FinFunctor
    pairs: dict[str, tuple[str, str]]


@dataclass(frozen=True)
class AdjunctionCertificate:
    """A left adjoint F of G and its unit: each u_c: c -> G F c is initial
    in the comma under c, which is all an adjunction needs.  The hom
    bijections follow from the unit, and `verify_adjunction` checks them."""

    left: FinFunctor
    right: FinFunctor
    unit: dict[str, str]

    def to_json_dict(self) -> dict:
        return {
            "verdict": "exists",
            "left_adjoint": {
                "obj_map": dict(self.left.obj_map),
                "mor_map": dict(self.left.mor_map),
            },
            "unit": dict(self.unit),
            "witness_failure": None,
        }


@dataclass(frozen=True)
class GaftResult:
    exists: bool
    certificate: AdjunctionCertificate | None
    witness: str | None  # anchor whose comma has no initial object

    def to_json_dict(self) -> dict:
        if self.exists:
            return self.certificate.to_json_dict()
        return {
            "verdict": "none",
            "left_adjoint": None,
            "unit": None,
            "witness_failure": {"anchor": self.witness},
        }


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    violation: str | None


@dataclass(frozen=True)
class SolutionSetReport:
    sets: dict[str, tuple[str, ...]]  # anchor -> minimal weakly initial set


def _comma_objects(G: FinFunctor, c: str) -> list[tuple[str, str]]:
    """The objects (d, u: c -> G d) of the comma under c, in the order
    `comma_under` names them: by d in declared order, then by u."""
    D, C = G.source, G.target
    if not C.has_object(c):
        raise UnknownObject(f"{c!r} is not an object of the target")
    row, Gobj = C.hom_from(c), G.obj_map
    return [(d, u) for d in D.objects for u in row.get(Gobj[d], ())]


def _hom_views(G: FinFunctor) -> Iterator[tuple[str, list[tuple[str, str]], SimpleNamespace]]:
    """For each anchor c, in the target's object order: c, the objects
    (d, u) of the comma under c, and the comma as a value with `objects`
    (their indices) and `hom`, all that initiality and weak initiality
    read.  `hom(i, j)` is computed when asked, each time: the morphisms phi
    of D.hom(d_i, d_j), in declared order, with G(phi) o u_i == u_j, as
    `comma_under` lists their lifts.  No comma morphism is listed before a
    reader asks for its hom set, and no comma before the reader asks for
    the next anchor.  The row of each object of D is fetched once, for all
    anchors.  Each composite G(phi) o u is defined, as u: c -> G d_i and
    phi: d_i -> d_j."""
    D, table, Gmor = G.source, G.target.compose_table, G.mor_map
    rows = {d: D.hom_from(d) for d in D.objects}
    for c in G.target.objects:
        objects = _comma_objects(G, c)

        def hom(i: int, j: int, objects=objects) -> list[str]:
            (d, u), (d2, u2) = objects[i], objects[j]
            return [phi for phi in rows[d].get(d2, ()) if table[(Gmor[phi], u)] == u2]

        yield c, objects, SimpleNamespace(objects=range(len(objects)), hom=hom)


def _pair_name(x: str, y: str) -> str:
    """The comma object (x, y) named "(x,y)", with each \\ and , in x
    escaped, so the first unescaped comma ends x and no two pairs share a
    name."""
    return f"({escape(x, ',')},{y})"


def comma_under(G: FinFunctor, c: str) -> Comma:
    """The comma category of morphisms out of c into values of G.

    Objects are pairs (d, u: c -> G d), named by `_pair_name`; a morphism
    (d, u) -> (d', u') is a morphism phi: d -> d' of the source of G with
    G(phi) o u == u'.
    """
    D, table, Gmor = G.source, G.target.compose_table, G.mor_map
    pairs = {_pair_name(d, u): (d, u) for d, u in _comma_objects(G, c)}
    name = {pair: o for o, pair in pairs.items()}
    out: dict[str, list] = {}  # the morphisms of D by source, in declared order
    for phi in D.morphisms:
        out.setdefault(phi.src, []).append(phi)
    # u: c -> G d and G(phi): G d -> G d', so each composite is defined
    arrows = [
        (phi.id, o, name[(phi.dst, table[Gmor[phi.id], u])])
        for o, (d, u) in pairs.items()
        for phi in out.get(d, ())
    ]
    P = category_over(D, {o: d for o, (d, _) in pairs.items()}, arrows)
    return Comma(P.source, P, pairs)


def comma_over(F: FinFunctor, d: str) -> Comma:
    """The comma category of morphisms from values of F into d.

    Objects are pairs (c, v: F c -> d), named by `_pair_name`; a morphism
    (c, v) -> (c', v') is a morphism phi: c -> c' with v' o F(phi) == v.
    Dual to `comma_under` through opposite categories, which the tests
    assert.
    """
    C, D = F.source, F.target
    if not D.has_object(d):
        raise UnknownObject(f"{d!r} is not an object of the target")
    pairs = {_pair_name(c, v): (c, v) for c in C.objects for v in D.hom(F.obj_map[c], d)}
    # F(phi): F c -> F c2 and v2: F c2 -> d, so each composite is defined
    rows, table, Fmor = {c: C.hom_from(c) for c in C.objects}, D.compose_table, F.mor_map
    arrows = [
        (phi, o, o2)
        for o, (c, v) in pairs.items()
        for o2, (c2, v2) in pairs.items()
        for phi in rows[c].get(c2, ())
        if table[v2, Fmor[phi]] == v
    ]
    P = category_over(C, {o: c for o, (c, _) in pairs.items()}, arrows)
    return Comma(P.source, P, pairs)


def solution_set_condition(G: FinFunctor) -> SolutionSetReport:
    """Minimal weakly initial sets of every comma under G.

    Finite instances always satisfy the condition (the full object set of a
    comma is weakly initial, and the empty comma has the empty set), so the
    value of this report is the explicit witnesses: the first minimal set
    of each comma, named as `comma_under` names its objects.
    """
    sets = {}
    for c, objects, view in _hom_views(G):
        first = limits.weakly_initial_sets(view)[0]
        sets[c] = tuple(_pair_name(*objects[i]) for i in first)
    return SolutionSetReport(sets)


def construct_left_adjoint(G: FinFunctor, witnesses: dict[str, tuple[str, str]]) -> AdjunctionCertificate:
    """Assemble the left adjoint from one initial comma object per anchor.

    Each witness (d_c, u_c) must be initial in the comma under c; the
    functor's action on a morphism is the unique comma morphism that
    initiality provides.  No comma is built: (d_c, u_c) is initial exactly
    when g -> G(g) o u_c is a bijection hom(d_c, d) -> hom(c, G d) for
    every d, which `verify_adjunction` checks with every other certificate
    invariant before returning.  That check also makes F a functor (see
    there), so F's functor laws are not checked apart.  Once each u_c is
    checked to go from c to G d_c, every composite the image filter reads
    is defined if G is a functor, and a read that misses names G as none.
    """
    D, C = G.source, G.target
    for c, (d, u) in witnesses.items():
        if not (D.has_object(d) and u in C.hom(c, G.obj_map[d])):
            raise WitnessNotInitial(f"witness {(d, u)} is not an object of the comma at {c!r}")
    try:
        obj_map = {c: witnesses[c][0] for c in C.objects}
    except KeyError as exc:
        raise WitnessNotInitial(f"no witness at anchor {exc.args[0]!r}") from None
    unit = {c: witnesses[c][1] for c in C.objects}
    mor_map = {}
    table, Gmor = C.compose_table, G.mor_map
    rows = {c: D.hom_from(d) for c, d in obj_map.items()}  # the row of d_c in D
    try:
        for m in C.morphisms:
            uc = unit[m.src]
            target_u = table[(unit[m.dst], m.id)]  # object (d_{c'}, u_{c'} o f) of the comma at c
            arrows = [phi for phi in rows[m.src].get(obj_map[m.dst], ()) if table[(Gmor[phi], uc)] == target_u]
            if len(arrows) != 1:
                raise WitnessNotInitial(
                    f"initiality failed to give a unique image for {m.id!r} ({len(arrows)} candidates)"
                )
            mor_map[m.id] = arrows[0]
    except KeyError as exc:  # G is not scanned: a miss is named as `verify_adjunction` names it
        raise WitnessNotInitial(f"right adjoint is not a functor: no entry {exc.args[0]!r}") from None
    cert = AdjunctionCertificate(FinFunctor(C, D, obj_map, mor_map), G, unit)
    result = verify_adjunction(cert)
    if not result.ok:
        raise WitnessNotInitial(f"constructed certificate fails verification: {result.violation}")
    return cert


def verify_adjunction(cert: AdjunctionCertificate) -> VerificationResult:
    """Exhaustively check the unit, the ends of the left adjoint F, unit
    naturality and every hom bijection g -> G(g) o u_c from hom(F c, d) to
    hom(c, G d), and name the first violation, in this order: per object
    c, an image F c that is not an object of D, then a missing unit
    component, then one not from c to G F c; per morphism m, an image F m
    that is not a morphism from F(src m) to F(dst m), then naturality at m;
    per pair (c, d), injectivity, then surjectivity.

    F's identities and composites need no check of their own: once its
    ends are right, naturality and injectivity force them.  F(id_c) and
    id_{F c} both map to u_c under the map at (c, F c); for m: c -> c'
    and n: c' -> c'', F(n o m) and F(n) o F(m) both map to u_c'' o n o m
    under the map at (c, F c''), as G(F n o F m) o u_c = G(F n) o u_c' o m.
    So a certificate that passes has a functor for F.

    The tables are read directly: each composite is read after the ends
    that define it are checked, so a read misses only where G is not a
    functor, which is then named; the handler costs nothing while no read
    misses, and G is not scanned.  The row of F c in D (`hom_from`) is
    fetched once per c and serves both the ends of F and the bijections,
    which also fetch the row of c in C once per c.  A pair (c, d) whose two
    hom sets are both empty is skipped, as its map is trivially a
    bijection; a singleton hom(F c, d) is injective, and its map is
    surjective exactly when hom(c, G d) is the singleton of its one image."""
    F, G, unit = cert.left, cert.right, cert.unit
    C, D = F.source, F.target
    Fobj, Fmor, Gobj, Gmor = F.obj_map, F.mor_map, G.obj_map, G.mor_map
    Cmor, Dobjects = C._mor, D._obj_index
    not_functor = "left adjoint is not a functor"
    try:
        for c in C.objects:
            if Fobj.get(c) not in Dobjects:
                return VerificationResult(False, f"{not_functor}: F({c!r}) is not an object of its target")
            u = Cmor.get(unit.get(c))
            if u is None:
                return VerificationResult(False, f"unit component missing at {c!r}")
            if u.src != c or u.dst != Gobj[Fobj[c]]:
                return VerificationResult(False, f"unit component at {c!r} has wrong endpoints")
        table, hom_from = C.compose_table, D.hom_from
        rows = {c: hom_from(Fobj[c]) for c in C.objects}  # the row of F c in D
        for m in C.morphisms:
            fm = Fmor.get(m.id)
            if fm not in rows[m.src].get(Fobj[m.dst], ()):
                ends = f"from F({m.src!r}) to F({m.dst!r})"
                return VerificationResult(False, f"{not_functor}: F({m.id!r}) is not a morphism {ends}")
            if table[(Gmor[fm], unit[m.src])] != table[(unit[m.dst], m.id)]:
                return VerificationResult(False, f"unit naturality fails at {m.id!r}")
        for c in C.objects:
            u, row, unit_row = unit[c], rows[c], C.hom_from(c)
            for d in D.objects:
                homs, target = row.get(d, ()), unit_row.get(Gobj[d], ())
                if not (homs or target):
                    continue
                if len(homs) == 1:
                    if len(target) != 1 or table[(Gmor[homs[0]], u)] != target[0]:
                        return VerificationResult(False, f"hom map at ({c!r}, {d!r}) is not surjective")
                    continue
                values = {table[(Gmor[g], u)] for g in homs}
                if len(values) != len(homs):
                    return VerificationResult(False, f"hom map at ({c!r}, {d!r}) is not injective")
                # a hom set lists no morphism twice, so this is values == set(target)
                if len(values) != len(target) or not values.issuperset(target):
                    return VerificationResult(False, f"hom map at ({c!r}, {d!r}) is not surjective")
    except KeyError as exc:  # a composite or image that a functor G would define
        return VerificationResult(False, f"right adjoint is not a functor: no entry {exc.args[0]!r}")
    return VerificationResult(True, None)


def gaft_decide(G: FinFunctor) -> GaftResult:
    """Decide left-adjoint existence through initial comma objects.

    Each comma under an anchor is asked, object by object in comma order,
    whether `limits.is_initial` holds, and the first object that passes is
    the anchor's witness: no object after it is asked about, and only the
    hom sets `is_initial` reads are computed.  No composition table is
    built, since initiality never reads one (`comma_under` builds the full
    comma).  On success the adjoint is constructed from these witnesses
    and the certificate is verified before being returned.  On failure the
    first anchor whose comma has no initial object is reported.
    """
    witnesses = {}
    for c, objects, view in _hom_views(G):
        x = next((x for x in view.objects if limits.is_initial(view, x)), None)
        if x is None:
            return GaftResult(False, None, c)
        witnesses[c] = objects[x]
    return GaftResult(True, construct_left_adjoint(G, witnesses), None)


@dataclass(frozen=True)
class BruteForceResult:
    exists: bool
    pairs: list[tuple[FinFunctor, dict[str, str]]]


def brute_force_left_adjoint(
    G: FinFunctor,
    max_source_objects: int = ORACLE_BOUNDS[0],
    max_target_morphisms: int = ORACLE_BOUNDS[1],
) -> BruteForceResult:
    """Independent oracle: enumerate every functor and unit candidate.

    Candidate functors go from the target of G back to its source, as a
    `search` over object images, morphism images and unit components.  The
    domains prune only what admits no unit: c goes only to a d with
    hom(c, G d) nonempty, so when some c has no such d no unit exists and
    the oracle returns no pair without searching.  Each morphism is bound
    right after its ends (`functor_space`), and unit naturality at each
    nonidentity morphism is checked once its two components are bound.
    `verify_adjunction` checks every complete candidate once.  Beyond the
    configured bounds the oracle refuses to run rather than sample.

    `pairs` lists the adjoints in lexicographic order of their images:
    object images in the order of G's target objects, then nonidentity
    morphism images in declared order, then unit components, each value
    ranked by its position in its domain.  Each `mor_map` lists the
    identities in object order, then the other morphisms in declared
    order.
    """
    D, C = G.source, G.target
    if len(C.objects) > max_source_objects:
        raise OracleBoundExceeded(
            f"{len(C.objects)} source objects exceed the bound {max_source_objects}"
        )
    if len(D.morphisms) > max_target_morphisms:
        raise OracleBoundExceeded(
            f"{len(D.morphisms)} target morphisms exceed the bound {max_target_morphisms}"
        )
    feasible = {c: [d for d in D.objects if C.hom(c, G.obj_map[d])] for c in C.objects}
    if not all(feasible.values()):
        return BruteForceResult(False, [])
    domains, constraints = functor_space(C, D, feasible)
    for c in C.objects:
        domains[("u", c)] = lambda a, c=c: C.hom(c, G.obj_map[a[("o", c)]])
    nonidentity = C.nonidentity()
    for m in nonidentity:
        ends = (("m", m), ("u", C.src(m)), ("u", C.dst(m)))
        constraints.append((ends, lambda fm, us, ut, m=m: C.compose(G.mor_map[fm], us) == C.compose(ut, m)))
    mor_keys = [C.id_of(c) for c in C.objects] + list(nonidentity)
    found = []
    for a in search(domains, constraints):
        F = FinFunctor(C, D, {c: a[("o", c)] for c in C.objects}, {m: a[("m", m)] for m in mor_keys})
        unit = {c: a[("u", c)] for c in C.objects}
        if verify_adjunction(AdjunctionCertificate(F, G, unit)).ok:
            found.append((F, unit))
    if len(found) > 1:
        # each domain lists its values in declared order, so a value ranks by its declared position
        rank_d = {d: i for i, d in enumerate(D.objects)}
        rank_g = {g.id: i for i, g in enumerate(D.morphisms)}
        rank_u = {u.id: i for i, u in enumerate(C.morphisms)}
        found.sort(key=lambda pair: (
            [rank_d[d] for d in pair[0].obj_map.values()],
            [rank_g[pair[0].mor_map[m]] for m in nonidentity],
            [rank_u[u] for u in pair[1].values()],
        ))
    return BruteForceResult(bool(found), found)


def comma_duality_holds(F: FinFunctor, d: str) -> bool:
    """The over-comma is isomorphic to the opposite of the under-comma of
    the opposite functor.  Any isomorphism counts, not only the canonical
    pairing of their objects."""
    over = comma_over(F, d)
    dual = comma_under(opposite_functor(F), d)
    return isomorphic(over.base, opposite(dual.base))
