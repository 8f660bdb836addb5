"""Simplicial sets truncated at dimension 3.

Only nondegenerate simplices are stored.  Faces that happen to be
degenerate are kept as formal markers: `Degenerate(of=t, ops=J)` stands for
s_{J[0]} s_{J[1]} ... applied to the nondegenerate simplex t, with J kept
strictly decreasing (the canonical form of a degeneracy operator).  The
simplicial operator algebra below pushes face maps through those markers,
which is all of the bookkeeping the truncation needs.

Dimension 3 suffices for everything here: the fundamental category only
consumes 2-simplices, and the boundary-lifting tests for initiality stop at
n = 3 because nerves have discrete mapping data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

from .fincat import CategoryError, FinCategory, check_shape
from .presentation import close_presentation


class SimplicialError(CategoryError):
    pass


class NotANerve(SimplicialError):
    pass


@dataclass(frozen=True)
class Degenerate:
    of: str
    ops: tuple[int, ...]


FaceValue = Union[str, Degenerate]


def normalize_ops(ops) -> tuple[int, ...]:
    """Rewrite a degeneracy word to its strictly decreasing canonical form
    using s_i s_j = s_{j+1} s_i for i <= j."""
    ops = list(ops)
    changed = True
    while changed:
        changed = False
        for t in range(len(ops) - 1):
            i, j = ops[t], ops[t + 1]
            if i <= j:
                ops[t], ops[t + 1] = j + 1, i
                changed = True
    return tuple(ops)


@dataclass(frozen=True)
class TruncSSet:
    """Nondegenerate simplices per dimension 0..3 plus their face tuples."""

    simplices: dict[int, tuple[str, ...]]
    faces: dict[str, tuple[FaceValue, ...]]

    def __post_init__(self):
        dims = {}
        for n, ids in self.simplices.items():
            for s in ids:
                dims[s] = n
        object.__setattr__(self, "_dim", dims)

    def dim(self, s: str) -> int:
        return self._dim[s]

    def ids(self, n: int) -> tuple[str, ...]:
        return self.simplices.get(n, ())

    def has(self, s: str) -> bool:
        return s in self._dim

    def to_dict(self) -> dict:
        def enc(v):
            if isinstance(v, Degenerate):
                return {"degenerate_of": v.of, "ops": list(v.ops)}
            return v

        return {
            "simplices": {str(n): list(self.ids(n)) for n in range(4)},
            "faces": {s: [enc(v) for v in fs] for s, fs in self.faces.items()},
        }


def sset_from_dict(raw: dict) -> TruncSSet:
    check_shape(raw, {"simplices?": {str: [str]}, "faces?": {str: list}})

    def dec(v, path):
        if isinstance(v, str):
            return v
        check_shape(v, {"degenerate_of": str, "ops?": [int]}, path)
        return Degenerate(v["degenerate_of"], tuple(v.get("ops", [])))

    try:
        simplices = {int(n): tuple(ids) for n, ids in raw.get("simplices", {}).items()}
    except ValueError:
        raise SimplicialError("simplices must be keyed by their dimension") from None
    faces = {
        s: tuple(dec(v, f"$.faces.{s}[{i}]") for i, v in enumerate(fs))
        for s, fs in raw.get("faces", {}).items()
    }
    K = TruncSSet(simplices, faces)
    validate_sset(K)
    return K


def value_dim(K: TruncSSet, v: FaceValue) -> int:
    if isinstance(v, Degenerate):
        return K.dim(v.of) + len(v.ops)
    return K.dim(v)


def _apply_degs(ops, w: FaceValue) -> FaceValue:
    ops = list(ops)
    if isinstance(w, Degenerate):
        ops = ops + list(w.ops)
        w = w.of
    ops = normalize_ops(ops)
    return Degenerate(w, ops) if ops else w


def face(K: TruncSSet, v: FaceValue, i: int) -> FaceValue:
    """d_i of a face value of dimension >= 1, pushing through degeneracies
    with d_i s_j = s_{j-1} d_i (i < j), = id (i in {j, j+1}), = s_j d_{i-1}."""
    if isinstance(v, str):
        return K.faces[v][i]
    out: list[int] = []
    rest = list(v.ops)
    while rest:
        j = rest.pop(0)
        if i < j:
            out.append(j - 1)
        elif i in (j, j + 1):
            return _apply_degs(out + rest, v.of)
        else:
            out.append(j)
            i -= 1
    base = v.of
    if K.dim(base) == 0:
        raise SimplicialError("face index does not match degeneracy structure")
    return _apply_degs(out, K.faces[base][i])


def value_vertices(K: TruncSSet, v: FaceValue) -> tuple[str, ...]:
    n = value_dim(K, v)
    if n == 0:
        return (v,)
    last = v
    for _ in range(n):
        last = face(K, last, 0)
    return value_vertices(K, face(K, v, n)) + (last,)


def validate_sset(K: TruncSSet) -> None:
    """Assert well-formedness and the simplicial identities on all data."""
    seen = set()
    for n, ids in K.simplices.items():
        if n not in (0, 1, 2, 3):
            raise SimplicialError(f"dimension {n} is outside the truncation")
        for s in ids:
            if s in seen:
                raise SimplicialError(f"duplicate simplex id {s!r}")
            seen.add(s)
    for n in range(1, 4):
        for s in K.ids(n):
            fs = K.faces.get(s)
            if fs is None or len(fs) != n + 1:
                raise SimplicialError(f"{s!r} must list {n + 1} faces")
            for v in fs:
                if isinstance(v, Degenerate):
                    if not K.has(v.of):
                        raise SimplicialError(f"face of {s!r} references unknown {v.of!r}")
                    if normalize_ops(v.ops) != v.ops:
                        raise SimplicialError(f"face of {s!r} has non-canonical degeneracy ops")
                    if value_dim(K, v) != n - 1:
                        raise SimplicialError(f"face of {s!r} has wrong dimension")
                elif not (K.has(v) and K.dim(v) == n - 1):
                    raise SimplicialError(f"face {v!r} of {s!r} is not a stored {n - 1}-simplex")
    for n in range(2, 4):
        for s in K.ids(n):
            for j in range(n + 1):
                for i in range(j):
                    if face(K, K.faces[s][j], i) != face(K, K.faces[s][i], j - 1):
                        raise SimplicialError(
                            f"simplicial identity d_{i} d_{j} fails on {s!r}"
                        )


# -- standard simplices ----------------------------------------------------


def standard_simplex(n: int) -> TruncSSet:
    if not 0 <= n <= 3:
        raise SimplicialError("standard simplices are available up to dimension 3")
    return _from_vertex_tuples([tuple(range(n + 1))])


def boundary_simplex(n: int) -> TruncSSet:
    if not 1 <= n <= 3:
        raise SimplicialError("boundaries are available for dimensions 1..3")
    tops = [tuple(v for k, v in enumerate(range(n + 1)) if k != i) for i in range(n + 1)]
    return _from_vertex_tuples(tops)


def _from_vertex_tuples(tops) -> TruncSSet:
    by_dim: dict[int, list[tuple[int, ...]]] = {0: [], 1: [], 2: [], 3: []}
    seen = set()

    def add(vs: tuple[int, ...]):
        if vs in seen:
            return
        seen.add(vs)
        by_dim[len(vs) - 1].append(vs)
        for i in range(len(vs)):
            if len(vs) > 1:
                add(vs[:i] + vs[i + 1 :])

    for t in tops:
        add(t)
    name = lambda vs: "".join(str(v) for v in vs)
    simplices = {n: tuple(name(vs) for vs in sorted(by_dim[n])) for n in range(4)}
    faces = {}
    for n in range(1, 4):
        for vs in sorted(by_dim[n]):
            faces[name(vs)] = tuple(name(vs[:i] + vs[i + 1 :]) for i in range(n + 1))
    K = TruncSSet(simplices, faces)
    validate_sset(K)
    return K


# -- nerve -------------------------------------------------------------------


def _chain_value(C: FinCategory, entries: tuple[str, ...], at: str) -> FaceValue:
    """The simplex named by a composable chain, with identity entries
    stripped into degeneracy markers."""
    for i, m in enumerate(entries):
        if C.is_identity(m):
            inner = _chain_value(C, entries[:i] + entries[i + 1 :], at)
            return _apply_degs((i,), inner)
    if not entries:
        return at
    return "|".join(entries) if len(entries) > 1 else entries[0]


def nerve(C: FinCategory) -> TruncSSet:
    """Composable chains of nonidentity morphisms, truncated at length 3."""
    nonid = [m for m in C.morphisms if not C.is_identity(m.id)]
    chains = {1: [(m.id,) for m in nonid]}
    for n in (2, 3):
        chains[n] = [
            ch + (m.id,)
            for ch in chains[n - 1]
            for m in nonid
            if m.src == C.dst(ch[-1])
        ]
    simplices = {
        0: tuple(C.objects),
        1: tuple(ch[0] for ch in chains[1]),
        2: tuple("|".join(ch) for ch in chains[2]),
        3: tuple("|".join(ch) for ch in chains[3]),
    }
    faces: dict[str, tuple[FaceValue, ...]] = {}
    for m in nonid:
        faces[m.id] = (m.dst, m.src)
    for n in (2, 3):
        for ch in chains[n]:
            fs = []
            for i in range(n + 1):
                if i == 0:
                    sub = ch[1:]
                elif i == n:
                    sub = ch[:-1]
                else:
                    sub = ch[: i - 1] + (C.compose(ch[i], ch[i - 1]),) + ch[i + 1 :]
                fs.append(_chain_value(C, sub, C.src(ch[0])))
            faces["|".join(ch)] = tuple(fs)
    K = TruncSSet(simplices, faces)
    validate_sset(K)
    return K


# -- join with a point -------------------------------------------------------


@dataclass(frozen=True)
class JoinResult:
    sset: TruncSSet
    truncation_loss: bool


def join_point(K: TruncSSet) -> JoinResult:
    """The cone: a new initial vertex joined to K, truncated at 3.

    Cones over 3-simplices would live in dimension 4; they are dropped and
    flagged through `truncation_loss`.
    """
    apex = "*"
    existing = set(K._dim)
    while apex in existing:
        apex += "'"
    cone_id = lambda s: f"*>{s}"

    def cone_value(v: FaceValue) -> FaceValue:
        if isinstance(v, Degenerate):
            return Degenerate(cone_id(v.of), tuple(j + 1 for j in v.ops))
        return cone_id(v)

    simplices = {0: (apex,) + K.ids(0)}
    for n in (1, 2, 3):
        simplices[n] = K.ids(n) + tuple(cone_id(s) for s in K.ids(n - 1))
    faces = dict(K.faces)
    for v in K.ids(0):
        faces[cone_id(v)] = (v, apex)
    for n in (1, 2):
        for s in K.ids(n):
            fs = [s]
            for i in range(1, n + 2):
                fs.append(cone_value(face(K, s, i - 1)))
            faces[cone_id(s)] = tuple(fs)
    out = TruncSSet(simplices, faces)
    validate_sset(out)
    return JoinResult(out, bool(K.ids(3)))


# -- fundamental category ----------------------------------------------------


def _edge_path(K: TruncSSet, v: FaceValue) -> tuple[str, ...]:
    if isinstance(v, Degenerate):
        return ()
    return (v,)


def tau1(K: TruncSSet, closure_bound: int = 10_000) -> FinCategory:
    """The fundamental category: free on vertices and edges, modulo the
    relation d_1 s = d_0 s after d_2 s for every 2-simplex s.

    Identity morphisms are named id_<vertex>.  A class containing an edge
    keeps the first such edge id, so on a nerve the round trip reproduces
    the category it came from.
    """
    generators = [(e, face(K, e, 1), face(K, e, 0)) for e in K.ids(1)]
    relations = []
    for s in K.ids(2):
        d0, d1, d2 = (K.faces[s][i] for i in range(3))
        src = value_vertices(K, s)[0]
        relations.append((src, _edge_path(K, d2) + _edge_path(K, d0), _edge_path(K, d1)))
    return close_presentation(
        objects=list(K.ids(0)),
        generators=generators,
        relations=relations,
        identity_names={v: f"id_{v}" for v in K.ids(0)},
        bound=closure_bound,
    )


# -- slices -------------------------------------------------------------------


def vertex_slice(K: TruncSSet, x: str, under: bool = False) -> TruncSSet:
    """The slice at a vertex, truncated at dimension 2.

    Slice n-simplices are the (n+1)-simplices of K (degenerate ones
    included) whose last vertex is x; with `under` the first vertex is used
    instead.  The inherent drop by one dimension means slice data above
    dimension 2 would need 4-simplices of K.
    """
    if not (K.has(x) and K.dim(x) == 0):
        raise SimplicialError(f"{x!r} is not a vertex")
    pick = -1 if not under else 0

    def anchored(v: FaceValue) -> bool:
        return value_vertices(K, v)[pick] == x

    def core_id(v: FaceValue) -> str:
        if isinstance(v, Degenerate):
            return f"s{v.ops[0]}({v.of})"
        return v

    reps: dict[int, list[FaceValue]] = {}
    for n in (0, 1, 2):
        vals: list[FaceValue] = [s for s in K.ids(n + 1) if anchored(s)]
        j = n if not under else 0
        vals += [Degenerate(s, (j,)) for s in K.ids(n) if anchored(s)]
        reps[n] = vals

    def to_slice_value(v: FaceValue) -> FaceValue:
        ops: list[int] = []
        while isinstance(v, Degenerate):
            k = value_dim(K, v) - 1
            if under:
                low = [j for j in v.ops if j >= 1]
            else:
                low = [j for j in v.ops if j <= k - 1]
            if not low:
                break
            j = max(low)
            t = v.ops.index(j)
            rest = tuple(a - 1 for a in v.ops[:t]) + v.ops[t + 1 :]
            ops.append(j - 1 if under else j)
            v = Degenerate(v.of, rest) if rest else v.of
        return _apply_degs(normalize_ops(ops), core_id(v)) if ops else core_id(v)

    simplices = {n: tuple(core_id(v) for v in reps[n]) for n in (0, 1, 2)}
    simplices[3] = ()
    faces = {}
    for n in (1, 2):
        for v in reps[n]:
            fs = []
            for i in range(n + 1):
                fs.append(to_slice_value(face(K, v, i if not under else i + 1)))
            faces[core_id(v)] = tuple(fs)
    out = TruncSSet(simplices, faces)
    validate_sset(out)
    return out


# -- boundary lifting ---------------------------------------------------------


def _edge_values(K: TruncSSet) -> dict[tuple[str, str], list[FaceValue]]:
    out: dict[tuple[str, str], list[FaceValue]] = {}
    for e in K.ids(1):
        out.setdefault((face(K, e, 1), face(K, e, 0)), []).append(e)
    for v in K.ids(0):
        out.setdefault((v, v), []).append(Degenerate(v, (0,)))
    return out


def _two_values(K: TruncSSet) -> list[FaceValue]:
    vals: list[FaceValue] = list(K.ids(2))
    for e in K.ids(1):
        vals += [Degenerate(e, (0,)), Degenerate(e, (1,))]
    vals += [Degenerate(v, (1, 0)) for v in K.ids(0)]
    return vals


def _three_values(K: TruncSSet) -> list[FaceValue]:
    vals: list[FaceValue] = list(K.ids(3))
    for s in K.ids(2):
        vals += [Degenerate(s, (j,)) for j in (0, 1, 2)]
    for e in K.ids(1):
        vals += [Degenerate(e, ops) for ops in ((1, 0), (2, 0), (2, 1))]
    vals += [Degenerate(v, (2, 1, 0)) for v in K.ids(0)]
    return vals


def inner_horn_check(K: TruncSSet) -> bool:
    """Unique fillers for the inner horns of dimensions 2 and 3.

    Nerves of categories pass; uniqueness comes from the composition table.
    """
    two = _two_values(K)
    two_faces = {v: tuple(face(K, v, i) for i in range(3)) for v in two}
    by_d2_d0: dict[tuple, int] = {}
    for v in two:
        d0, d1, d2 = two_faces[v]
        k = (d2, d0)
        by_d2_d0[k] = by_d2_d0.get(k, 0) + 1
    edges = _edge_values(K)
    for (a, b), e01s in edges.items():
        for (b2, c), e12s in edges.items():
            if b2 != b:
                continue
            for e01 in e01s:
                for e12 in e12s:
                    if by_d2_d0.get((e01, e12), 0) != 1:
                        return False
    three = _three_values(K)
    count_023: dict[tuple, int] = {}
    count_013: dict[tuple, int] = {}
    for v in three:
        d0, d1, d2, d3 = (face(K, v, i) for i in range(4))
        count_023[(d0, d2, d3)] = count_023.get((d0, d2, d3), 0) + 1
        count_013[(d0, d1, d3)] = count_013.get((d0, d1, d3), 0) + 1
    tf = list(two_faces.items())
    by_d2 = {}
    for v, (d0, d1, d2) in tf:
        by_d2.setdefault(d2, []).append((v, (d0, d1, d2)))
    for s3, (e12, e02, e01) in tf:
        # Lambda^3_1 horns containing s3 as face 3
        for s2, (e13, e03, _) in by_d2.get(e01, ()):
            for s0, (e23, e13b, e12b) in by_d2.get(e12, ()):
                if e13b != e13:
                    continue
                if count_023.get((s0, s2, s3), 0) != 1:
                    return False
        # Lambda^3_2 horns containing s3 as face 3
        for s1, (e23, e03, e02b) in by_d2.get(e02, ()):
            for s0, (e23b, e13, e12b) in by_d2.get(e12, ()):
                if e23b != e23:
                    continue
                if count_013.get((s0, s1, s3), 0) != 1:
                    return False
    return True


def initial_by_lifting(K: TruncSSet, x: str, nmax: int = 3) -> bool:
    """Whether every boundary sphere anchored at x extends to a filler.

    Enumerates all maps from the n-sphere boundary into K with vertex 0 at
    x, for 1 <= n <= nmax, and looks the filler up among all (possibly
    degenerate) simplex values.  K must look like a nerve, as certified by
    the inner-horn check.
    """
    if not (K.has(x) and K.dim(x) == 0):
        raise SimplicialError(f"{x!r} is not a vertex")
    if not 1 <= nmax <= 3:
        raise SimplicialError("nmax must be between 1 and 3")
    if not inner_horn_check(K):
        raise NotANerve("inner horns do not have unique fillers")
    edges = _edge_values(K)
    if any((x, v) not in edges for v in K.ids(0)):
        return False
    if nmax == 1:
        return True
    two = _two_values(K)
    two_faces = {v: tuple(face(K, v, i) for i in range(3)) for v in two}
    have_two = set(two_faces.values())
    for v1 in K.ids(0):
        for v2 in K.ids(0):
            for e01 in edges.get((x, v1), ()):
                for e02 in edges.get((x, v2), ()):
                    for e12 in edges.get((v1, v2), ()):
                        if (e12, e02, e01) not in have_two:
                            return False
    if nmax == 2:
        return True
    have_three = {tuple(face(K, v, i) for i in range(4)) for v in _three_values(K)}
    by_d2 = {}
    by_d2_d1 = {}
    for v, (d0, d1, d2) in two_faces.items():
        by_d2.setdefault(d2, []).append((v, (d0, d1, d2)))
        by_d2_d1.setdefault((d2, d1), []).append((v, (d0, d1, d2)))
    anchored = [
        (v, fs) for v, fs in two_faces.items() if value_vertices(K, v)[0] == x
    ]
    for s3, (e12, e02, e01) in anchored:
        for s2, (e13, e03, _) in by_d2.get(e01, ()):
            for s1, (e23, e03b, e02b) in by_d2_d1.get((e02, e03), ()):
                for s0, (e23b, e13b, e12b) in by_d2_d1.get((e12, e13), ()):
                    if e23b != e23:
                        continue
                    if (s0, s1, s2, s3) not in have_three:
                        return False
    return True


# -- isomorphism --------------------------------------------------------------


def isomorphic(K: TruncSSet, L: TruncSSet) -> bool:
    """Isomorphism of truncated simplicial sets by backtracking search."""
    if any(len(K.ids(n)) != len(L.ids(n)) for n in range(4)):
        return False
    kverts, lverts = K.ids(0), L.ids(0)
    for perm in itertools.permutations(lverts):
        mapping = dict(zip(kverts, perm))
        if _match_dim(K, L, mapping, 1):
            return True
    return False


def _translate(mapping, v: FaceValue) -> FaceValue:
    if isinstance(v, Degenerate):
        return Degenerate(mapping[v.of], v.ops)
    return mapping[v]


def _match_dim(K, L, mapping, n):
    if n == 4:
        return True
    lfaces = {s: L.faces[s] for s in L.ids(n)}
    ks = list(K.ids(n))
    return _assign(K, L, mapping, ks, 0, lfaces, set(), n)


def _assign(K, L, mapping, ks, i, lfaces, used, n):
    if i == len(ks):
        return _match_dim(K, L, dict(mapping), n + 1)
    s = ks[i]
    want = tuple(_translate(mapping, v) for v in K.faces[s])
    for t in L.ids(n):
        if t in used or lfaces[t] != want:
            continue
        mapping[s] = t
        used.add(t)
        if _assign(K, L, mapping, ks, i + 1, lfaces, used, n):
            return True
        used.discard(t)
        del mapping[s]
    return False
