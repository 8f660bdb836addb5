"""The three benchmark workloads: their inputs and the references they are checked against.

Each workload's `setup(seed, fixture_dir)` imports finadj, generates the
inputs from the seed, writes any fixture files, and returns a list of
`Instance`s.  `Instance.call()` submits one input to finadj's public API and
returns its raw output; `Instance.check(output)` returns None when the output
matches a reference that does not come from the code path under test, and an
error message otherwise.  The harness times `call` only.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Instance:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]


# -- oracle-sweep --------------------------------------------------------------


def poset_left_adjoint(G) -> "dict[str, str] | None":
    """Closed-form left adjoint of a monotone map G: P -> Q between posets.

    F(q) is the least p with q <= G(p); the adjoint exists iff every such set
    has a least element.  Uses only the hom sets, not the comma path.
    """
    P, Q = G.source, G.target
    F = {}
    for q in Q.objects:
        above = [p for p in P.objects if Q.hom(q, G.obj_map[p])]
        least = [p for p in above if all(P.hom(p, r) for r in above)]
        if not least:
            return None
        F[q] = least[0]
    return F


def _oracle_instance(adjoint, label: str, G, is_poset: bool) -> Instance:
    def call():
        g = adjoint.gaft_decide(G)
        b = adjoint.brute_force_left_adjoint(G, 4, 16)
        v = adjoint.verify_adjunction(g.certificate) if g.exists else None
        return g, b, v

    def check(out):
        g, b, v = out
        if g.exists != b.exists:
            return "gaft_decide and the brute-force oracle disagree"
        if g.exists and not v.ok:
            return f"certificate fails verify_adjunction: {v.violation}"
        if is_poset:
            ref = poset_left_adjoint(G)
            if (ref is not None) != g.exists:
                return "verdict differs from the closed-form poset reference"
            if ref is not None and (g.certificate.left.obj_map != ref or len(b.pairs) != 1):
                return "left adjoint differs from the closed-form poset reference"
        return None

    return Instance(label, call, check)


# share of each poset pair's monotone maps drawn into the oracle-sweep pool
ORACLE_SHARE = 0.15


def oracle_sweep(seed: int, fixture_dir: str) -> list[Instance]:
    """A seeded draw from every monotone map between posets of at most 4
    elements, stratified by poset pair (15% of each pair's maps, at least
    one where there are any), plus all curated non-poset functors."""
    from finadj import adjoint, corpus

    rng = random.Random(seed)
    posets = corpus.posets_up_to(4)
    items = []
    for i, P in enumerate(posets):
        for j, Q in enumerate(posets):
            maps = list(corpus.monotone_maps(P, Q))
            drawn = max(1, round(len(maps) * ORACLE_SHARE)) if maps else 0
            for k in sorted(rng.sample(range(len(maps)), drawn)):
                items.append(_oracle_instance(adjoint, f"poset{i}->poset{j}#{k}", maps[k], True))
    items += [_oracle_instance(adjoint, name, G, False) for name, G in corpus.curated_oracle_functors()]
    rng.shuffle(items)
    return items


# -- decide-large --------------------------------------------------------------

# Half the pool inflates a named corpus category, half maps a chain into a
# chain.  Both halves are stratified so that a seed changes the draw inside
# each stratum, not the mix: categories and chain-length pairs are taken in
# turn, and the r-th inflation of a category uses the copy counts
# (r + j) % 4 + 1 over its objects j, in a seeded order.
DECIDE_POOL = 1200
CHAIN_PAIRS = [(m, n) for m in range(5, 9) for n in range(3, 9)]


def _chain(corpus, n: int):
    objs = [str(i) for i in range(n)]
    return corpus.poset_category(objs, [(objs[i], objs[j]) for i in range(n) for j in range(i + 1, n)])


def _decide_instance(adjoint, label: str, G, check_more) -> Instance:
    def call():
        g = adjoint.gaft_decide(G)
        return g, adjoint.verify_adjunction(g.certificate) if g.exists else None

    def check(out):
        g, v = out
        if g.exists and not v.ok:
            return f"certificate fails verify_adjunction: {v.violation}"
        return check_more(g)

    return Instance(label, call, check)


def _inflate_instance(adjoint, sweeps, name: str, C, copies: list[int]) -> Instance:
    G = sweeps.inflate(C, copies)

    def check_more(g):
        # the collapse is an equivalence, so a left adjoint exists and its
        # unit is invertible
        if not g.exists:
            return "no left adjoint found for an equivalence"
        if not all(C.is_iso(u) for u in g.certificate.unit.values()):
            return "unit of the adjoint to an equivalence is not invertible"
        return None

    return _decide_instance(adjoint, f"inflate({name},{copies})", G, check_more)


def _chain_instance(adjoint, corpus, P, Q, values: list[int]) -> Instance:
    G = corpus.monotone_functor(P, Q, {str(i): str(v) for i, v in enumerate(values)})
    n = len(Q.objects)

    def check_more(g):
        # between chains a left adjoint exists iff top goes to top, and then
        # F(q) is the least i with q <= values[i]
        if g.exists != (values[-1] == n - 1):
            return "verdict differs from the top-to-top reference"
        if g.exists:
            ref = {str(q): str(min(i for i, v in enumerate(values) if q <= v)) for q in range(n)}
            if g.certificate.left.obj_map != ref:
                return "left adjoint differs from the closed-form chain reference"
        return None

    return _decide_instance(adjoint, f"chain{len(values)}->chain{n}{values}", G, check_more)


def decide_large(seed: int, fixture_dir: str) -> list[Instance]:
    """Functors past the oracle's bounds: inflated corpus categories (1-4
    copies per object) and uniformly drawn monotone maps between chains of
    5-8 and 3-8 elements."""
    from finadj import adjoint, corpus, sweeps

    rng = random.Random(seed)
    cats = [(name, C) for name, C in corpus.categories().items() if C.objects]
    chains = {n: _chain(corpus, n) for n in range(3, 9)}
    items = []
    for k in range(DECIDE_POOL // 2):
        name, C = cats[k % len(cats)]
        r = k // len(cats)
        copies = [(r + j) % 4 + 1 for j in range(len(C.objects))]
        rng.shuffle(copies)
        items.append(_inflate_instance(adjoint, sweeps, name, C, copies))
        m, n = CHAIN_PAIRS[k % len(CHAIN_PAIRS)]
        # uniform over monotone maps: a sorted m-subset of range(m + n - 1)
        cut = sorted(rng.sample(range(m + n - 1), m))
        items.append(_chain_instance(adjoint, corpus, chains[m], chains[n], [c - i for i, c in enumerate(cut)]))
    rng.shuffle(items)
    return items


# -- cli-mix -------------------------------------------------------------------


def _cli_fixtures(fixture_dir: str) -> dict[str, str]:
    """The fixture files of tests/test_cli.py, plus the generator-only table
    and the closure-bound case its docs describe."""
    from finadj import corpus
    from finadj.enriched import gcat_to_dict
    from finadj.simplicial import boundary_simplex

    broken = corpus.chain3().to_dict()
    broken["identities"].pop("0")
    # generators only: the free category on the triangle boundary graph
    triangle = {
        "objects": ["0", "1", "2"],
        "morphisms": [{"id": f"id_{x}", "src": x, "dst": x} for x in "012"]
        + [{"id": a, "src": s, "dst": d} for a, s, d in (("a", "0", "1"), ("b", "1", "2"), ("e", "0", "2"))],
        "identities": {x: f"id_{x}" for x in "012"},
        "compose": [],
    }
    gf = corpus.pz2_pick_y()
    payloads = {
        "chain3": corpus.chain3().to_dict(),
        "triangle": triangle,
        "broken": broken,
        "pp": corpus.pp().to_dict(),
        "g": corpus.monotone_functor(corpus.chain3(), corpus.two(), {"0": "0", "1": "1", "2": "1"}).to_dict(),
        "no_adjoint": corpus.functor(corpus.one(), corpus.disc2(), {"*": "x"}).to_dict(),
        "pz2": gcat_to_dict(corpus.pz2()),
        "gf": {
            "source": gcat_to_dict(gf.source),
            "target": gcat_to_dict(gf.target),
            "obj_map": gf.obj_map,
            "cell_map": gf.cell_map,
            "arrow_map": gf.arrow_map,
        },
        "boundary2": boundary_simplex(2).to_dict(),
        "circle": {"simplices": {"0": ["v"], "1": ["e"], "2": [], "3": []}, "faces": {"e": ["v", "v"]}},
        "setf": corpus.b2_failing_on_two().to_dict(),
        "two": corpus.two().to_dict(),
    }
    paths = {}
    for name, payload in payloads.items():
        paths[name] = os.path.join(fixture_dir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return paths


def _cli_cases(p: dict[str, str]) -> list[tuple[list[str], int, Callable[[dict], bool]]]:
    """(argv, expected exit code, expected verdict) for every verb, with the
    values documented in tests/test_cli.py and tests/test_brown.py."""
    def diagonals(c):
        return sum(1 for m in c["witness"]["category"]["morphisms"] if (m["src"], m["dst"]) == ("0", "2")) == 2

    return [
        (["validate", "--category", p["chain3"]], 0, lambda c: c["verdict"] == "valid"),
        (["validate", "--category", p["triangle"]], 0, lambda c: c["verdict"] == "valid"),
        (
            ["validate", "--category", p["broken"]],
            0,
            lambda c: c["verdict"] == "invalid" and c["witness"]["error"] == "IdentityViolation",
        ),
        (
            ["initial", "--category", p["chain3"]],
            0,
            lambda c: c["verdict"] == ["0"] and c["witness"]["terminal_objects"] == ["2"],
        ),
        (
            ["limits", "--category", p["pp"]],
            0,
            lambda c: c["verdict"] is False and c["witness"]["completeness"] == "finite",
        ),
        (
            ["adjoint", "--functor", p["g"]],
            0,
            lambda c: c["verdict"] == "exists" and len(c["witness"]["pairs"]) == 1,
        ),
        (
            ["gaft", "--functor", p["g"]],
            0,
            lambda c: c["verdict"] == "exists" and c["witness"]["left_adjoint"]["obj_map"] == {"0": "0", "1": "1"},
        ),
        (
            ["gaft", "--functor", p["no_adjoint"]],
            0,
            lambda c: c["verdict"] == "none" and c["witness"]["witness_failure"] == {"anchor": "y"},
        ),
        (["gaft-fin", "--gfunctor", p["gf"]], 0, lambda c: c["verdict"] == "none"),
        (
            ["compare", "--gfunctor", p["gf"]],
            0,
            lambda c: c["verdict"] == {"h_adjoint": "exists", "full_adjoint": "none", "consistent": "not-applicable"},
        ),
        (["tau1", "--sset", p["boundary2"]], 0, diagonals),
        (["tau1", "--sset", p["circle"], "--closure-bound", "32"], 3, None),
        (
            ["nerve", "--category", p["chain3"]],
            0,
            lambda c: len(c["witness"]["sset"]["simplices"]["2"]) == 1,
        ),
        (
            ["classify", "--gcat", p["pz2"], "--object", "x"],
            0,
            lambda c: c["verdict"] == {"initial": False, "h_initial": True, "weakly_initial_singleton": True},
        ),
        (
            ["brown", "--category", p["two"], "--setfunctor", p["setf"], "--check", "b2"],
            0,
            lambda c: c["verdict"] is False,
        ),
        (
            ["brown", "--category", p["two"], "--setfunctor", p["setf"]],
            0,
            lambda c: c["verdict"] == "not-representable",
        ),
        (
            ["brown", "--check", "generators", "--category", p["chain3"]],
            0,
            lambda c: c["verdict"] == [["1", "2"]],
        ),
        (
            ["brown", "--check", "exhaustive", "--category", p["two"]],
            0,
            lambda c: c["verdict"] is True and c["witness"]["passing_both"] == c["witness"]["representable"],
        ),
        (["corpus", "posets4"], 0, lambda c: c["verdict"] == "pass" and c["witness"]["failures"] == 0),
        (["corpus", "fixtures"], 0, lambda c: c["verdict"] == "pass" and c["witness"]["failures"] == 0),
        (["corpus", "enriched"], 0, lambda c: c["verdict"] == "pass" and c["witness"]["failures"] == 0),
    ]


def _cli_instance(cli, argv: list[str], code: int, verdict_ok, first_bytes: dict) -> Instance:
    key = tuple(argv)

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
        return rc, out.getvalue().encode("utf-8")

    def check(result):
        rc, data = result
        if rc != code:
            return f"exit code {rc}, expected {code}"
        # every iteration must print the bytes the first one printed
        if first_bytes.setdefault(key, data) != data:
            return "certificate bytes changed between iterations"
        if verdict_ok is None:
            return None if not data else "a bound error printed a certificate"
        return None if verdict_ok(json.loads(data)) else "verdict differs from the documented one"

    return Instance(" ".join(argv[:1] + [os.path.basename(a) for a in argv[1:]]), call, check)


def cli_mix(seed: int, fixture_dir: str) -> list[Instance]:
    """One round of every CLI verb from the tests, in-process through
    `finadj.cli.run`; the seed orders the round."""
    from finadj import cli

    first_bytes: dict = {}
    items = [_cli_instance(cli, *case, first_bytes) for case in _cli_cases(_cli_fixtures(fixture_dir))]
    random.Random(seed).shuffle(items)
    return items


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, str], list[Instance]]
    warmup: int  # untimed instances run before the timed loop
    trace_rate: int  # instances per requested second in a traced pass


WORKLOADS = {
    "oracle-sweep": Workload(oracle_sweep, warmup=400, trace_rate=100),
    "decide-large": Workload(decide_large, warmup=150, trace_rate=40),
    "cli-mix": Workload(cli_mix, warmup=21, trace_rate=15),
}
