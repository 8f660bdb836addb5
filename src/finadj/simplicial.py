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

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Union

from .fincat import DEFAULT_CLOSURE_BOUND, CategoryError, FinCategory, check_shape, kept, search
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

    # The lifting tables below depend on K alone, and a value is never
    # changed after construction, so each is computed once per value and
    # shared by every query on it: one face table, and the groupings
    # `_by_faces` reads from it on demand.

    @cached_property
    def _is_nerve(self) -> bool:
        return inner_horn_check(self)

    @cached_property
    def _face_table(self) -> tuple[dict, list[tuple[int, ...]], list[int]]:
        """Every value of dimension 0..3, degenerate ones included, numbered
        in order of dimension: the number of each value's key (see `_key`),
        the face numbers of each number, and where each dimension's numbers
        start.  A vertex has one face, -1, the empty simplex that all
        vertices share.  Keys are plain tuples, so no `Degenerate` is built
        or hashed."""
        number, keys, faces, start, lifts = {}, [], [], [], {}

        def s(j, w):  # the number of s_j applied to the value numbered w
            if (j, w) not in lifts:
                of, ops = keys[w]
                lifts[j, w] = number[of, normalize_ops((j, *ops))]
            return lifts[j, w]

        for n in range(4):
            start.append(len(faces))
            for key in _values(self, n):
                number[key] = len(faces)
                keys.append(key)
                of, ops = key
                if n == 0:
                    faces.append((-1,))
                elif not ops:
                    faces.append(tuple([number[_key(f)] for f in self.faces[of]]))
                else:  # v = s_j u: d_i s_j is s_{j-1} d_i, id or s_j d_{i-1}, as in `face`
                    j, u = ops[0], number[of, ops[1:]]
                    fu = faces[u]
                    faces.append(tuple([
                        s(j - 1, fu[i]) if i < j else u if i <= j + 1 else s(j, fu[i - 1]) for i in range(n + 1)
                    ]))
        return number, faces, start + [len(faces)]

    @cached_property
    def _groups(self) -> dict:
        return {}

    def _by_faces(self, n: int, J: tuple[int, ...]) -> dict[tuple[int, ...], list[int]]:
        """The numbers of the n-values grouped by their faces at positions J."""
        if (n, J) not in self._groups:
            _, faces, start = self._face_table
            rows = faces[start[n]:start[n + 1]]
            keys = zip(*[[fv[j] for fv in rows] for j in J]) if J else [()] * len(rows)
            groups: dict[tuple[int, ...], list[int]] = {}
            for v, key in zip(range(start[n], start[n + 1]), keys):
                groups.setdefault(key, []).append(v)
            self._groups[n, J] = groups
        return self._groups[n, J]

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
    stray = [s for s in K.faces if not K.has(s) or K.dim(s) == 0]
    if stray:
        raise SimplicialError(f"{sorted(stray)} are assigned faces but are not simplices of dimension 1 to 3")
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
    """Composable chains of nonidentity morphisms, truncated at length 3.
    Built on first use and `kept` by C, as `opposite(C)` is: it names
    morphisms only, so it holds no reference back to C, and the lifting
    tables it computes on first use live as long as C."""
    return kept(C, "_nerve", lambda: _nerve(C))


def _nerve(C: FinCategory) -> TruncSSet:
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


def tau1(K: TruncSSet, closure_bound: int = DEFAULT_CLOSURE_BOUND) -> FinCategory:
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


def _key(v: FaceValue) -> tuple[str, tuple[int, ...]]:
    """The value v as (t, J): the simplex t under the degeneracy word J,
    empty when v is the simplex t itself."""
    return (v, ()) if isinstance(v, str) else (v.of, v.ops)


def _values(K: TruncSSet, n: int) -> list[tuple[str, tuple[int, ...]]]:
    """The n-values of K, each by its `_key`: each k-simplex under each
    strictly decreasing degeneracy word of length n - k."""
    vals = [(s, ()) for s in K.ids(n)]
    for k in range(n):
        for ops in combinations(range(n - 1, -1, -1), n - k):
            vals += [(s, ops) for s in K.ids(k)]
    return vals


def _filler_counts(K: TruncSSet, n: int, J, x: str | None = None):
    """For every map into K from the faces J of Δⁿ, with vertex 0 sent to x
    if x is given, the number of n-values of K that extend it.

    A map is one (n-1)-value per face j in J, and faces agree where they
    meet: d_i of face j is d_{j-1} of face i for i < j.  The faces are
    chosen from the highest j down, each among the (n-1)-values grouped by
    their faces at the positions that the faces already chosen fix, so no
    map is built only to be refused.  With x, the highest face must be some
    j >= 1: it holds vertex 0, so it starts at x.
    """
    J = tuple(sorted(J, reverse=True))
    number, faces, _ = K._face_table
    if x is None:
        maps, placed = [()], 0
    else:
        maps, placed = [(w,) for w in _starting_at(K, n - 1, number[x, ()])], 1
    for t in range(placed, len(J)):
        table = K._by_faces(n - 1, tuple(j - 1 for j in J[:t]))
        maps = [m + (w,) for m in maps for w in table.get(tuple([faces[f][J[t]] for f in m]), ())]
    fillers = K._by_faces(n, J)
    return (len(fillers.get(m, ())) for m in maps)


def _starting_at(K: TruncSSet, n: int, x: int) -> list[int]:
    """The numbers of the n-values whose vertex 0 is the vertex numbered x:
    vertex 0 of an n-value is vertex 0 of its face n."""
    if n == 0:
        return [x]
    table = K._by_faces(n, (n,))
    return [v for w in _starting_at(K, n - 1, x) for v in table.get((w,), ())]


def inner_horn_check(K: TruncSSet) -> bool:
    """Unique fillers for the inner horns of dimensions 2 and 3: every map
    from Λ²₁, Λ³₁ or Λ³₂ into K extends to exactly one simplex value.

    Nerves of categories pass; uniqueness comes from the composition table.
    """
    horns = [(2, (0, 2)), (3, (0, 2, 3)), (3, (0, 1, 3))]
    return all(count == 1 for n, J in horns for count in _filler_counts(K, n, J))


def initial_by_lifting(K: TruncSSet, x: str, nmax: int = 3) -> bool:
    """Whether every boundary sphere anchored at x extends to a filler.

    Every map from ∂Δⁿ into K with vertex 0 at x, for 1 <= n <= nmax, must
    extend to some (possibly degenerate) n-value.  K must look like a nerve,
    as certified by the inner-horn check.  The tables of K are built on the
    first query and reused by later ones.
    """
    if not (K.has(x) and K.dim(x) == 0):
        raise SimplicialError(f"{x!r} is not a vertex")
    if not 1 <= nmax <= 3:
        raise SimplicialError("nmax must be between 1 and 3")
    if not K._is_nerve:
        raise NotANerve("inner horns do not have unique fillers")
    return all(all(_filler_counts(K, n, range(n + 1), x)) for n in range(1, nmax + 1))


# -- isomorphism --------------------------------------------------------------


def isomorphic(K: TruncSSet, L: TruncSSet) -> bool:
    """Isomorphism of truncated simplicial sets: a bijection in each
    dimension that commutes with the faces, found by `search`."""
    if any(len(K.ids(n)) != len(L.ids(n)) for n in range(4)):
        return False

    def image(a, v: FaceValue) -> FaceValue:
        return Degenerate(a[v.of], v.ops) if isinstance(v, Degenerate) else a[v]

    with_faces, domains = {}, {v: L.ids(0) for v in K.ids(0)}
    for n in range(1, 4):
        for t in L.ids(n):
            with_faces.setdefault(L.faces[t], []).append(t)
        for s in K.ids(n):
            domains[s] = lambda a, s=s: with_faces.get(tuple(image(a, v) for v in K.faces[s]), ())
    return any(True for _ in search(domains, distinct=[K.ids(n) for n in range(4)]))
