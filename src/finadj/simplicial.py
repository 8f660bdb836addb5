"""Simplicial sets truncated at dimension 3.

Only nondegenerate simplices are stored.  Faces that happen to be
degenerate are kept as formal markers: `Degenerate(of=t, ops=J)` stands for
s_{J[0]} s_{J[1]} ... applied to the nondegenerate simplex t, with J kept
strictly decreasing (the canonical form of a degeneracy operator).  Each
simplicial set's face table is its one simplicial algebra: it alone
composes degeneracy words and derives the faces of degenerate values from
the identities d_i s_j.  `face` and validation read it, and slices, `tau1`
and the lifting checks read its keys and numbers.  That is all of the
bookkeeping the truncation needs.

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
    def _face_table(self) -> tuple[dict, list, list[tuple[int, ...]], list[int]]:
        """Every value of dimension 0..3, degenerate ones included, numbered
        in order of dimension: the number of each value's key (see `_key`),
        the key of each number, the face numbers of each number, and where
        each dimension's numbers start.  A vertex has one face, -1, the
        empty simplex that all vertices share.  Keys are plain tuples, so
        no `Degenerate` is built or hashed.  This is the only code that
        composes degeneracy words or applies d_i to a degenerate value:
        s_j enters a canonical word in one step, and the faces of s_j u
        come from the faces of u."""
        number, keys, faces, start = {}, [], [], []

        def s(j, w):  # the number of s_j applied to the value numbered w: s_j s_a = s_{a+1} s_j for a >= j
            of, ops = keys[w]
            return number[of, (*[a + 1 for a in ops if a >= j], j, *[a for a in ops if a < j])]

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
                else:  # v = s_j u: d_i s_j is s_{j-1} d_i (i < j), id (i in {j, j+1}) or s_j d_{i-1}
                    j, u = ops[0], number[of, ops[1:]]
                    fu = faces[u]
                    faces.append(tuple([
                        s(j - 1, fu[i]) if i < j else u if i <= j + 1 else s(j, fu[i - 1]) for i in range(n + 1)
                    ]))
        return number, keys, faces, start + [len(faces)]

    @cached_property
    def _groups(self) -> dict:
        return {}

    def _by_faces(self, n: int, J: tuple[int, ...]) -> dict[tuple[int, ...], list[int]]:
        """The numbers of the n-values grouped by their faces at positions J."""
        if (n, J) not in self._groups:
            _, _, faces, start = self._face_table
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


def face(K: TruncSSet, v: FaceValue, i: int) -> FaceValue:
    """d_i of a face value of dimension >= 1: a stored simplex's face as
    stored, and a degenerate value's face as `TruncSSet._face_table`
    derives it."""
    if isinstance(v, str):
        return K.faces[v][i]
    number, keys, faces, _ = K._face_table
    of, ops = keys[faces[number[v.of, v.ops]][i]]
    return Degenerate(of, ops) if ops else of


def validate_sset(K: TruncSSet) -> None:
    """Check the shape of K, then the simplicial identities
    d_i d_j = d_{j-1} d_i on the face table's numbers.  The shape checks
    make the table number every face: a marker's word is nonempty,
    strictly decreasing, and starts below its face's dimension."""
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
                    k = K._dim.get(v.of)
                    if k is None:
                        raise SimplicialError(f"face of {s!r} references unknown {v.of!r}")
                    # the words of the degenerate (n-1)-values on a k-simplex, as `_values` lists them
                    if k >= n - 1 or v.ops not in combinations(range(n - 2, -1, -1), n - 1 - k):
                        raise SimplicialError(
                            f"face of {s!r} is no degenerate {n - 1}-value: {list(v.ops)} on {v.of!r}"
                        )
                elif K._dim.get(v) != n - 1:
                    raise SimplicialError(f"face {v!r} of {s!r} is not a stored {n - 1}-simplex")
    number, _, faces, _ = K._face_table
    for n in range(2, 4):
        for s in K.ids(n):
            fs = faces[number[s, ()]]
            for j in range(1, n + 1):
                dj = faces[fs[j]]
                for i in range(j):
                    if dj[i] != faces[fs[i]][j - 1]:
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


def _chain_value(C: FinCategory, names: dict, entries: tuple[str, ...]) -> FaceValue:
    """The value named by a composable chain: the simplex that `names`
    gives its nonidentity entries (an all-identity chain names the source
    of its first entry), under the word made of its identity entries'
    positions in decreasing order."""
    ops = tuple(i for i in range(len(entries) - 1, -1, -1) if C.is_identity(entries[i]))
    if not ops:
        return names[entries]
    core = tuple(m for m in entries if not C.is_identity(m))
    return Degenerate(names[core] if core else C.src(entries[0]), ops)


def _fresh(name: str, taken) -> str:
    """name, primed with ' until it is not in taken."""
    while name in taken:
        name += "'"
    return name


def nerve(C: FinCategory) -> TruncSSet:
    """Composable chains of nonidentity morphisms, truncated at length 3.
    Built on first use and `kept` by C, as `opposite(C)` is: it names
    morphisms only, so it holds no reference back to C, and the lifting
    tables it computes on first use live as long as C."""
    return kept(C, "_nerve", lambda: _nerve(C))


def _nerve(C: FinCategory) -> TruncSSet:
    """The chains of 1 to 3 nonidentity morphisms: each chain is extended
    by the nonidentity morphisms out of its last target, in declared order.
    A chain of 2 or 3 entries is named by its entries joined with `|`,
    primed with ' until it names no object, no nonidentity morphism and no
    earlier chain, and its faces are `_chain_value`s under those names."""
    nonid = [m for m in C.morphisms if not C.is_identity(m.id)]
    out: dict[str, list[str]] = {x: [] for x in C.objects}
    for m in nonid:
        out[m.src].append(m.id)
    chains = [(m.id,) for m in nonid]
    names = {ch: ch[0] for ch in chains}
    taken = {*C.objects, *names.values()}
    simplices = {0: tuple(C.objects), 1: tuple(names.values())}
    faces: dict[str, tuple[FaceValue, ...]] = {m.id: (m.dst, m.src) for m in nonid}
    for n in (2, 3):
        chains = [ch + (m,) for ch in chains for m in out[C.dst(ch[-1])]]
        for ch in chains:
            names[ch] = _fresh("|".join(ch), taken)
            taken.add(names[ch])
        simplices[n] = tuple(names[ch] for ch in chains)
        for ch in chains:
            inner = [ch[: i - 1] + (C.compose(ch[i], ch[i - 1]),) + ch[i + 1 :] for i in range(1, n)]
            faces[names[ch]] = tuple(_chain_value(C, names, sub) for sub in [ch[1:], *inner, ch[:-1]])
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

    The apex is `*`, primed with ' until it is no simplex of K.  The cone
    over a simplex s is named `*>s`, under the first of the prefixes `*`,
    `*'`, ... for which no cone name is a simplex of K.  A marker's word
    shifts by one under the cone, where the apex is vertex 0.  Cones over
    3-simplices would live in dimension 4; they are dropped and flagged
    through `truncation_loss`.
    """
    apex, prefix = _fresh("*", K._dim), "*"
    while any(K.has(f"{prefix}>{s}") for n in range(3) for s in K.ids(n)):
        prefix += "'"
    cone_id = lambda s: f"{prefix}>{s}"

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
            faces[cone_id(s)] = (s, *map(cone_value, K.faces[s]))
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
    relation d_1 s = d_0 s after d_2 s for every 2-simplex s, which starts
    at vertex 0 of s as the face table gives it.

    Identity morphisms are named id_<vertex>.  A class containing an edge
    keeps the first such edge id, so on a nerve the round trip reproduces
    the category it came from.
    """
    number, keys, faces, _ = K._face_table
    generators = [(e, face(K, e, 1), face(K, e, 0)) for e in K.ids(1)]
    relations = []
    for s in K.ids(2):
        d0, d1, d2 = K.faces[s]
        src, _ = keys[faces[faces[number[s, ()]][2]][1]]
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
    """The slice at a vertex, truncated at dimension 2, read from the face
    table's numbers.

    Slice n-values are the (n+1)-values of K whose last vertex is x, found
    by following face 0 n+1 times; with `under`, whose first vertex is x,
    found by following the last face.  A value (t, J) is nondegenerate in
    the slice exactly when J is () or (n,) (() or (0,) with `under`).  It
    is named t, or s<dim t>(t) (s0(t) with `under`) primed with ' until it
    is no other name of the slice.  A face keeps the rest of its word on
    that name: J without its top index when that name absorbed it (with
    `under`, J's nonzero indices, each less one).  The drop by one
    dimension means slice data above dimension 2 would need 4-simplices of
    K.
    """
    if not (K.has(x) and K.dim(x) == 0):
        raise SimplicialError(f"{x!r} is not a vertex")
    number, keys, faces, _ = K._face_table
    end = -1 if under else 0  # the face that keeps the anchor

    def anchored(w: int, n: int) -> bool:  # the n-value numbered w
        for _ in range(n):
            w = faces[w][end]
        return keys[w][0] == x

    reps = {}
    for n in (0, 1, 2):
        word = (0,) if under else (n,)
        values = [number[t, ()] for t in K.ids(n + 1)] + [number[t, word] for t in K.ids(n)]
        reps[n] = [w for w in values if anchored(w, n + 1)]
    slice_keys = [keys[w] for n in (0, 1, 2) for w in reps[n]]
    taken, cores = {t for t, J in slice_keys if not J}, {}  # cores: the name of each degenerate core, by its simplex
    for t, J in slice_keys:
        if J:
            cores[t] = _fresh(f"s{J[0]}({t})", taken)
            taken.add(cores[t])

    def slice_value(f: int, c: int) -> FaceValue:  # the K-value numbered f, whose name absorbs index c
        t, J = keys[f]
        core = cores[t] if c in J else t
        ops = tuple(j - 1 if under else j for j in J if j != c)
        return Degenerate(core, ops) if ops else core

    simplices = {n: tuple(cores[t] if J else t for t, J in (keys[w] for w in reps[n])) for n in (0, 1, 2)}
    simplices[3] = ()
    slice_faces = {}
    for n in (1, 2):
        for name, w in zip(simplices[n], reps[n]):
            fs = faces[w][1:] if under else faces[w][:-1]
            slice_faces[name] = tuple(slice_value(f, 0 if under else n - 1) for f in fs)
    out = TruncSSet(simplices, slice_faces)
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
    number, _, faces, _ = K._face_table
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
