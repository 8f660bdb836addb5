import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from finadj import corpus
from finadj.cli import run
from finadj.enriched import gcat_to_dict
from finadj.simplicial import boundary_simplex


def _payloads() -> dict:
    """The fixture files, by file name."""
    G = corpus.monotone_functor(corpus.chain3(), corpus.two(), {"0": "0", "1": "1", "2": "1"})
    gf = corpus.pz2_pick_y()
    return {
        "chain3.json": corpus.chain3().to_dict(),
        "pp.json": corpus.pp().to_dict(),
        "g.json": G.to_dict(),
        "no_adjoint.json": corpus.functor(corpus.one(), corpus.disc2(), {"*": "x"}).to_dict(),
        "pz2.json": gcat_to_dict(corpus.pz2()),
        "gf.json": {
            "source": gcat_to_dict(gf.source),
            "target": gcat_to_dict(gf.target),
            "obj_map": gf.obj_map,
            "cell_map": gf.cell_map,
            "arrow_map": gf.arrow_map,
        },
        "boundary2.json": boundary_simplex(2).to_dict(),
        "setf.json": corpus.b2_failing_on_two().to_dict(),
        "two.json": corpus.two().to_dict(),
    }


def _write(folder: Path, name: str, payload) -> str:
    p = folder / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


@pytest.fixture
def files(tmp_path):
    paths = {name: _write(tmp_path, name, payload) for name, payload in _payloads().items()}

    def write(name, payload):
        paths[name] = _write(tmp_path, name, payload)
        return paths[name]

    return tmp_path, paths, write


def _run_to(tmp_path, argv):
    out = tmp_path / "out.json"
    code = run(argv + ["--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8")) if out.exists() else None


def test_gaft_emits_adjoint_certificate(files):
    tmp_path, paths, _ = files
    code, cert = _run_to(tmp_path, ["gaft", "--functor", paths["g.json"]])
    assert code == 0
    assert cert["verdict"] == "exists"
    body = cert["witness"]
    assert list(body)[:4] == ["verdict", "left_adjoint", "unit", "witness_failure"]
    assert body["left_adjoint"]["obj_map"] == {"0": "0", "1": "1"}
    assert cert["provenance"]["operation"] == "gaft_decide"
    assert len(cert["provenance"]["inputs"]["functor"]["sha256"]) == 64


def test_gaft_negative_verdict_still_exits_zero(files):
    tmp_path, paths, _ = files
    code, cert = _run_to(tmp_path, ["gaft", "--functor", paths["no_adjoint.json"]])
    assert code == 0
    assert cert["verdict"] == "none"
    assert cert["witness"]["witness_failure"] == {"anchor": "y"}


def test_classify_verb_matches_fixture(files):
    tmp_path, paths, _ = files
    code, cert = _run_to(tmp_path, ["classify", "--gcat", paths["pz2.json"], "--object", "x"])
    assert code == 0
    assert cert["verdict"] == {
        "initial": False,
        "h_initial": True,
        "weakly_initial_singleton": True,
    }


def test_tau1_verb_counts_the_two_diagonals(files):
    tmp_path, paths, _ = files
    code, cert = _run_to(tmp_path, ["tau1", "--sset", paths["boundary2.json"]])
    assert code == 0
    mors = cert["witness"]["category"]["morphisms"]
    assert sum(1 for m in mors if m["src"] == "0" and m["dst"] == "2") == 2


def test_nerve_and_validate_verbs(files):
    tmp_path, paths, _ = files
    code, cert = _run_to(tmp_path, ["nerve", "--category", paths["chain3.json"]])
    assert code == 0
    assert len(cert["witness"]["sset"]["simplices"]["2"]) == 1
    code, cert = _run_to(tmp_path, ["validate", "--category", paths["chain3.json"]])
    assert code == 0 and cert["verdict"] == "valid"


def test_validate_reports_invalid_without_failing(files):
    tmp_path, paths, write = files
    broken = corpus.chain3().to_dict()
    broken["identities"].pop("0")
    write("broken.json", broken)
    code, cert = _run_to(tmp_path, ["validate", "--category", paths["broken.json"]])
    assert code == 0
    assert cert["verdict"] == "invalid"
    assert cert["witness"]["error"] == "IdentityViolation"


def test_parse_errors_exit_two(files, capsys):
    tmp_path, paths, write = files
    p = tmp_path / "junk.json"
    p.write_text("{not json", encoding="utf-8")
    assert run(["gaft", "--functor", str(p)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err
    missing = write("missing_key.json", {"objects": []})
    assert run(["initial", "--category", missing]) == 2


def test_bound_errors_exit_three(files):
    tmp_path, paths, write = files
    circle = write(
        "circle.json",
        {"simplices": {"0": ["v"], "1": ["e"], "2": [], "3": []}, "faces": {"e": ["v", "v"]}},
    )
    assert run(["tau1", "--sset", circle, "--closure-bound", "32"]) == 3


def test_adjoint_verb_runs_the_oracle(files):
    tmp_path, paths, _ = files
    code, cert = _run_to(tmp_path, ["adjoint", "--functor", paths["g.json"]])
    assert code == 0
    assert cert["verdict"] == "exists"
    assert len(cert["witness"]["pairs"]) == 1


def test_limits_and_initial_verbs(files):
    tmp_path, paths, _ = files
    code, cert = _run_to(tmp_path, ["limits", "--category", paths["pp.json"]])
    assert code == 0 and cert["verdict"] is False
    assert cert["witness"]["completeness"] == "finite"
    code, cert = _run_to(tmp_path, ["initial", "--category", paths["chain3.json"]])
    assert cert["verdict"] == ["0"]
    assert cert["witness"]["terminal_objects"] == ["2"]


def test_brown_verbs(files):
    tmp_path, paths, _ = files
    code, cert = _run_to(
        tmp_path,
        ["brown", "--category", paths["two.json"], "--setfunctor", paths["setf.json"], "--check", "b2"],
    )
    assert code == 0 and cert["verdict"] is False
    code, cert = _run_to(
        tmp_path,
        ["brown", "--category", paths["two.json"], "--setfunctor", paths["setf.json"]],
    )
    assert cert["verdict"] == "not-representable"
    code, cert = _run_to(
        tmp_path, ["brown", "--check", "generators", "--category", paths["chain3.json"]]
    )
    assert cert["verdict"] == [["1", "2"]]


def test_gaft_fin_and_compare_verbs(files):
    tmp_path, paths, _ = files
    code, cert = _run_to(tmp_path, ["gaft-fin", "--gfunctor", paths["gf.json"]])
    assert code == 0 and cert["verdict"] == "none"
    code, cert = _run_to(tmp_path, ["compare", "--gfunctor", paths["gf.json"]])
    assert cert["verdict"]["h_adjoint"] == "exists"
    assert cert["verdict"]["full_adjoint"] == "none"
    assert cert["verdict"]["consistent"] == "not-applicable"


def test_certificates_are_byte_identical_across_runs(files):
    tmp_path, paths, _ = files
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gaft", "--functor", paths["g.json"], "--out", str(a)]) == 0
    assert run(["gaft", "--functor", paths["g.json"], "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_corpus_verb_summarizes_a_suite(files):
    tmp_path, _, _ = files
    code, cert = _run_to(tmp_path, ["corpus", "enriched"])
    assert code == 0
    assert cert["verdict"] == "pass"
    assert cert["witness"]["failures"] == 0
    assert cert["witness"]["first_counterexample"] is None


# The verbs that read each fixture file; "{}" stands for the file itself.
READERS = {
    "chain3.json": [["validate", "--category", "{}"], ["initial", "--category", "{}"]],
    "pp.json": [["validate", "--category", "{}"], ["limits", "--category", "{}"]],
    "two.json": [["validate", "--category", "{}"], ["initial", "--category", "{}"]],
    "g.json": [["validate", "--functor", "{}"], ["gaft", "--functor", "{}"]],
    "no_adjoint.json": [["validate", "--functor", "{}"], ["gaft", "--functor", "{}"]],
    "pz2.json": [["validate", "--gcat", "{}"], ["classify", "--gcat", "{}", "--object", "x"]],
    "gf.json": [["validate", "--gfunctor", "{}"], ["gaft-fin", "--gfunctor", "{}"]],
    "boundary2.json": [["validate", "--sset", "{}"], ["tau1", "--sset", "{}"]],
    "setf.json": [
        ["validate", "--category", "two.json", "--setfunctor", "{}"],
        ["brown", "--category", "two.json", "--setfunctor", "{}", "--check", "b2"],
    ],
}


def _reader_argvs(name: str, paths: dict) -> list[list[str]]:
    """READERS[name] with fixture file names replaced by their paths."""
    return [[paths[name] if a == "{}" else paths.get(a, a) for a in argv] for argv in READERS[name]]


def _mutations(doc, path=()):
    """(path, operation) for every single-node change of a decoded JSON
    document: drop a key, truncate a list, or replace a value by an int or
    a list."""
    yield path, "int"
    yield path, "list"
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield path + (k,), "drop"
            yield from _mutations(v, path + (k,))
    elif isinstance(doc, list):
        if doc:
            yield path, "truncate"
        for i, v in enumerate(doc):
            yield from _mutations(v, path + (i,))


def _mutate(doc, path, op):
    if not path:
        return 2 if op == "int" else [doc]
    doc = copy.deepcopy(doc)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    k = path[-1]
    if op == "drop":
        del parent[k]
    elif op == "truncate":
        parent[k] = parent[k][:-1]
    else:
        parent[k] = 2 if op == "int" else [parent[k]]
    return doc


FUZZ_CASES = [(name, path, op) for name in READERS for path, op in _mutations(_payloads()[name])]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(FUZZ_CASES))
def test_malformed_fixture_files_never_raise(case):
    name, path, op = case
    payloads = _payloads()
    payloads[name] = _mutate(payloads[name], path, op)
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        paths = {n: _write(folder, n, p) for n, p in payloads.items()}
        for argv in _reader_argvs(name, paths):
            with contextlib.redirect_stderr(io.StringIO()):
                code = run(argv + ["--out", str(folder / "out.json")])
            assert code in (0, 2, 3), (argv, path, op)


# Hand-written malformed files: (fixture, edit, error class from validate).
MALFORMED = {
    "morphism without src": ("chain3.json", lambda d: d["morphisms"][3].pop("src"), "ShapeError"),
    "compose entry of length 2": ("chain3.json", lambda d: d["compose"][0].pop(), "ShapeError"),
    "objects is a number": ("chain3.json", lambda d: d.update(objects=5), "ShapeError"),
    "identity of an undeclared object": ("chain3.json", lambda d: d["identities"].update(q="nope"), "UnknownObject"),
    "list inside a compose entry": ("chain3.json", lambda d: d["compose"][0].__setitem__(0, ["0<1"]), "ShapeError"),
    "obj_map key outside the source": ("g.json", lambda d: d["obj_map"].update(q="0"), "NotFunctorial"),
    "twocell without src": ("pz2.json", lambda d: d["homs"]["x|y"]["twocells"][0].pop("src"), "GpdLawViolation"),
    "compose2 entry of length 2": ("pz2.json", lambda d: d["homs"]["x|y"]["compose2"][0].pop(), "GpdLawViolation"),
    "hcompose entry of length 2": ("pz2.json", lambda d: d["hcompose"]["cells"][0].pop(), "GpdLawViolation"),
    "gcat objects is a number": ("pz2.json", lambda d: d.update(objects=5), "GpdLawViolation"),
    "1-cell identity of an undeclared object": ("pz2.json", lambda d: d["identities"].update(q="nope"), "GpdLawViolation"),
    "gfunctor obj_map key outside the source": ("gf.json", lambda d: d["obj_map"].update(q="x"), "GpdLawViolation"),
    "simplex dimension is not a number": ("boundary2.json", lambda d: d["simplices"].update(x=[]), "SimplicialError"),
    "restriction table is a list": ("setf.json", lambda d: d["on_morphisms"].update(id_0=["*"]), "ShapeError"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_files_are_invalid_and_exit_two(files, case):
    tmp_path, paths, write = files
    name, edit, error = MALFORMED[case]
    doc = _payloads()[name]
    edit(doc)
    write(name, doc)
    validate, other = _reader_argvs(name, paths)
    code, cert = _run_to(tmp_path, validate)
    assert code == 0 and cert["verdict"] == "invalid"
    assert cert["witness"]["error"] == error, cert["witness"]
    assert run(other) == 2
