import argparse
import ast
import contextlib
import copy
import functools
import hashlib
import importlib.util
import inspect
import io
import json
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from finadj import cli, corpus, sweeps
from finadj.cli import run
from finadj.enriched import gcat_to_dict
from finadj.fincat import NotFunctorial, identity_functor, small_category, validate_functor
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


def test_nerve_verb_primes_a_chain_named_like_a_morphism(files):
    # b∘a is named `a|b`, the name the 2-chain (a, b) would take
    tmp_path, _, write = files
    C = small_category(["0", "1", "2"], [("a", "0", "1"), ("b", "1", "2"), ("a|b", "0", "2")], [("b", "a", "a|b")])
    code, cert = _run_to(tmp_path, ["nerve", "--category", write("named_like_a_chain.json", C.to_dict())])
    assert code == 0 and cert["witness"]["sset"]["simplices"]["2"] == ["a|b'"]
    sset = write("named_like_a_chain_sset.json", cert["witness"]["sset"])
    code, cert = _run_to(tmp_path, ["tau1", "--sset", sset])
    category = cert["witness"]["category"]
    assert code == 0 and category["objects"] == ["0", "1", "2"]
    assert [m["id"] for m in category["morphisms"]] == [m.id for m in C.morphisms]


def test_validate_reports_invalid_without_failing(files):
    tmp_path, paths, write = files
    broken = corpus.chain3().to_dict()
    broken["identities"].pop("0")
    write("broken.json", broken)
    code, cert = _run_to(tmp_path, ["validate", "--category", paths["broken.json"]])
    assert code == 0
    assert cert["verdict"] == "invalid"
    assert cert["witness"]["error"] == "IdentityViolation"


def test_validate_refuses_a_table_that_makes_declared_morphisms_equal(files):
    tmp_path, _, write = files
    # partial, so closed: s o s = id and t o s = s force t = id
    path = write(
        "merging.json",
        {
            "objects": ["*"],
            "morphisms": [{"id": m, "src": "*", "dst": "*"} for m in ("id_*", "s", "t")],
            "identities": {"*": "id_*"},
            "compose": [["s", "s", "id_*"], ["t", "t", "id_*"], ["t", "s", "s"]],
        },
    )
    code, cert = _run_to(tmp_path, ["validate", "--category", path])
    assert code == 0 and cert["verdict"] == "invalid"
    assert cert["witness"]["error"] == "MissingComposite" and "['t']" in cert["witness"]["message"]
    assert run(["nerve", "--category", path]) == 2


def test_parse_errors_exit_two(files, capsys):
    tmp_path, paths, write = files
    p = tmp_path / "junk.json"
    p.write_text("{not json", encoding="utf-8")
    assert run(["gaft", "--functor", str(p)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err
    missing = write("missing_key.json", {"objects": []})
    assert run(["initial", "--category", missing]) == 2


def test_negative_set_size_is_a_usage_error(files, capsys):
    _, paths, _ = files
    argv = ["brown", "--check", "exhaustive", "--category", paths["two.json"], "--max-set-size", "-1"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--max-set-size" in captured.err


@pytest.mark.parametrize(
    "verb, flag, value",
    [
        ("validate --category chain3.json", "--closure-bound", "-1"),
        ("tau1 --sset boundary2.json", "--closure-bound", "-5"),
        ("gaft --functor g.json", "--closure-bound", "ten"),
        ("adjoint --functor g.json", "--oracle-bounds", "-1,-1"),
        ("adjoint --functor g.json", "--oracle-bounds", "4,-1"),
        ("corpus posets4", "--oracle-bounds", "4"),
        ("brown --check exhaustive --category two.json", "--max-set-size", "-3"),
    ],
)
def test_bounds_must_be_non_negative_integers(files, capsys, verb, flag, value):
    _, paths, _ = files
    argv = [paths.get(word, word) for word in verb.split()] + [f"{flag}={value}"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"argument {flag}: expected " in captured.err


def test_unwritable_out_path_exits_two(files, capsys):
    tmp_path, paths, _ = files
    target = tmp_path / "no_such_dir" / "x.json"
    assert run(["nerve", "--category", paths["chain3.json"], "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not target.exists()
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1


def test_bound_errors_exit_three(files):
    tmp_path, paths, write = files
    circle = write(
        "circle.json",
        {"simplices": {"0": ["v"], "1": ["e"], "2": [], "3": []}, "faces": {"e": ["v", "v"]}},
    )
    assert run(["tau1", "--sset", circle, "--closure-bound", "32"]) == 3


# --out, the bounds and --seed: each verb takes those its runner reads
SHARED = {"--out": "o.json", "--closure-bound": "5", "--oracle-bounds": "1,2", "--seed": "3"}


def _args_read(fn) -> set[str]:
    """The attributes of `args` that `fn` reads, itself or through the cli
    functions it passes `args` to."""
    read = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
            read.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and "args" in [
            a.id for a in node.args if isinstance(a, ast.Name)
        ]:
            callee = getattr(cli, node.func.id, None)
            if inspect.isfunction(callee) and callee.__module__ == cli.__name__:
                read |= _args_read(callee)
    return read


def test_each_verb_takes_exactly_the_shared_options_it_reads(capsys):
    verbs = next(a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)).choices
    slots = sum(bool(set(a.option_strings) & set(SHARED)) for p in verbs.values() for a in p._actions)
    assert slots == 23
    for verb, parser in verbs.items():
        argv = [verb]
        for a in parser._actions:
            if a.required:
                value = a.choices[0] if a.choices else "x.json"
                argv += [a.option_strings[0], value] if a.option_strings else [value]
        reads = _args_read(cli._RUNNERS[verb]) | _args_read(cli.run)
        default = cli._PARSER.parse_args(argv)
        for flag, value in SHARED.items():
            dest = flag[2:].replace("-", "_")
            if dest in reads:
                args = cli._PARSER.parse_args(argv + [flag, value])
                assert getattr(args, dest) != getattr(default, dest), (verb, flag)
            else:
                with pytest.raises(SystemExit) as exc:
                    cli._PARSER.parse_args(argv + [flag, value])
                assert exc.value.code == 2, (verb, flag)
                assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# the shared options each corpus suite reads
SUITE_READS = {"posets4": [], "fixtures": ["--seed"], "enriched": [], "oracle": ["--oracle-bounds"]}


@pytest.mark.parametrize(
    "suite,flag",
    [(suite, flag) for suite, reads in SUITE_READS.items() for flag in ("--seed", "--oracle-bounds") if flag not in reads],
)
def test_corpus_refuses_an_option_its_suite_does_not_read(suite, flag, monkeypatch):
    def must_not_run(**options):
        raise AssertionError(f"{suite} ran")

    monkeypatch.setitem(sweeps.SUITES, suite, functools.wraps(sweeps.SUITES[suite])(must_not_run))
    assert _captured(["corpus", suite, flag, SHARED[flag]]) == (2, "", f"error: corpus {suite} does not read {flag}\n")


def test_corpus_passes_each_suite_the_options_it_reads(files, monkeypatch):
    assert list(SUITE_READS) == list(sweeps.SUITES)
    tmp_path, _, _ = files
    seeds, draw = [], sweeps.generate_reflection_functors
    monkeypatch.setattr(sweeps, "generate_reflection_functors", lambda seed, cats: seeds.append(seed) or draw(seed, cats))
    code, cert = _run_to(tmp_path, ["corpus", "fixtures", "--seed", "7"])
    assert code == 0 and cert["verdict"] == "pass" and seeds == [7]
    # zero bounds refuse the oracle's first instance, so they reached the oracle
    assert run(["corpus", "oracle", "--oracle-bounds", "0,0"]) == 3


def test_corpus_certificates_record_the_options_given(files):
    tmp_path, _, _ = files
    code, seeded = _run_to(tmp_path, ["corpus", "fixtures", "--seed", "7"])
    assert code == 0 and seeded["provenance"].pop("options") == {"seed": 7}
    code, default = _run_to(tmp_path, ["corpus", "fixtures"])
    assert code == 0 and seeded == default


# the inputs each brown check reads, and a value for every brown input
BROWN_READS = {
    "represent": ["--category", "--setfunctor"],
    "b1": ["--category", "--setfunctor"],
    "b2": ["--category", "--setfunctor"],
    "b1p-b2p": ["--functor"],
    "generators": ["--category"],
    "exhaustive": ["--category", "--max-set-size"],
}
BROWN_INPUTS = {"--category": "two.json", "--setfunctor": "setf.json", "--functor": "g.json", "--max-set-size": "3"}


def _brown_argv(check, flags, paths):
    argv = ["brown", "--check", check]
    for flag in flags:
        argv += [flag, paths.get(BROWN_INPUTS[flag], BROWN_INPUTS[flag])]
    return argv


@pytest.mark.parametrize(
    "check,flag",
    [(check, flag) for check, reads in BROWN_READS.items() for flag in BROWN_INPUTS if flag not in reads],
)
def test_brown_refuses_an_input_its_check_does_not_read(files, monkeypatch, check, flag):
    _, paths, _ = files
    argv = _brown_argv(check, BROWN_READS[check] + [flag], paths)
    monkeypatch.setattr(cli, "_load_json", lambda path: pytest.fail(f"{path} was read"))
    assert _captured(argv) == (2, "", f"error: brown --check {check} does not read {flag}\n")


@pytest.mark.parametrize(
    "check,flag",
    [(check, flag) for check, reads in BROWN_READS.items() for flag in reads if flag != "--max-set-size"],
)
def test_brown_names_a_missing_input(files, monkeypatch, check, flag):
    _, paths, _ = files
    argv = _brown_argv(check, [f for f in BROWN_READS[check] if f != flag], paths)
    monkeypatch.setattr(cli, "_load_json", lambda path: pytest.fail(f"{path} was read"))
    assert _captured(argv) == (2, "", f"error: brown --check {check} needs {flag}\n")


def test_brown_exhaustive_reads_the_set_size_given(files):
    tmp_path, paths, _ = files
    code, cert = _run_to(tmp_path, _brown_argv("exhaustive", BROWN_READS["exhaustive"], paths))
    assert code == 0 and cert["verdict"] is True
    assert cert["witness"]["scope"] == "value sets of at most 3 elements; experimental"


def test_brown_b1p_b2p_verdicts(files):
    tmp_path, _, write = files

    def argv(name, F):
        return ["brown", "--check", "b1p-b2p", "--functor", write(f"{name}.json", F.to_dict())]

    code, cert = _run_to(tmp_path, argv("diamond", identity_functor(corpus.diamond())))
    assert code == 0 and cert["verdict"] is True
    code, cert = _run_to(tmp_path, argv("pick1", corpus.functor(corpus.one(), corpus.two(), {"*": "1"})))
    assert code == 0 and cert["verdict"] is False
    assert cert["witness"] == {"witness": {"colimit": "empty coproduct", "image": "1"}}
    assert _captured(argv("wedge", identity_functor(corpus.wedge()))) == (2, "", "error: ColimitAbsent: source has no coproduct of ('x', 'y')\n")


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


def _cli_mix_argvs(folder: Path, monkeypatch) -> list[list[str]]:
    """Every argv of the benchmark's cli-mix workload, on its fixture files."""
    spec = importlib.util.spec_from_file_location(
        "cli_mix_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return [argv for argv, _, _ in workloads._cli_cases(workloads._cli_fixtures(str(folder)))]


def _captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_one_parser_per_process_repeats_every_verb_byte_for_byte(tmp_path, monkeypatch):
    argvs = _cli_mix_argvs(tmp_path, monkeypatch)
    first = [_captured(argv) for argv in argvs]
    code, out, err = _captured(["gaft"])
    assert code == 2 and out == "" and "usage: finadj gaft" in err
    assert [_captured(argv) for argv in argvs] == first


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


# A one-loop sset with a 3-simplex whose faces apply s_2 to 1-values.
ONE_LOOP_WITH_WORDS_PAST_THEIR_DIMENSION = {
    "simplices": {"0": ["a"], "1": ["e"], "3": ["w"]},
    "faces": {
        "e": ["a", "a"],
        "w": [
            {"degenerate_of": "e", "ops": [2]},
            {"degenerate_of": "e", "ops": [2]},
            {"degenerate_of": "a", "ops": [2, 0]},
            {"degenerate_of": "e", "ops": [0]},
        ],
    },
}

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
    "value set with a repeated element": ("setf.json", lambda d: d["on_objects"]["1"].append("a"), "CategoryError"),
    "value set of an object outside the category": ("setf.json", lambda d: d["on_objects"].update(q=[]), "CategoryError"),
    "restriction table of a morphism outside the category": ("setf.json", lambda d: d["on_morphisms"].update(q={}), "CategoryError"),
    "faces of a simplex the file does not list": ("boundary2.json", lambda d: d["faces"].update(q=["0", "1"]), "SimplicialError"),
    "faces of a vertex": ("boundary2.json", lambda d: d["faces"].update({"0": []}), "SimplicialError"),
    "degeneracy word past its face's dimension": (
        "boundary2.json", lambda d: d.update(ONE_LOOP_WITH_WORDS_PAST_THEIR_DIMENSION), "SimplicialError"
    ),
    "degeneracy marker with an empty word": (
        "boundary2.json",
        lambda d: (d["simplices"].update({"2": ["t"]}), d["faces"].update(t=["12", {"degenerate_of": "02"}, "01"])),
        "SimplicialError",
    ),
    "category without morphisms": ("chain3.json", lambda d: d.pop("morphisms"), "ShapeError"),
    "functor without source": ("g.json", lambda d: d.pop("source"), "ShapeError"),
    "gfunctor without target": ("gf.json", lambda d: d.pop("target"), "GpdLawViolation"),
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


# Broken maps of the curated functor chain3 -> free_boundary (0<1 -> a, 1<2 -> b, 0<2 -> ba): each edit
# breaks one functor law, and every reader refuses it as NotFunctorial
BROKEN_FUNCTOR_MAPS = {
    "object without an image": lambda d: d["obj_map"].pop("1"),
    "image outside the target": lambda d: d["obj_map"].update({"1": "q"}),
    "mor_map key outside the source": lambda d: d["mor_map"].update(q="a"),
    "mor_map value outside the target": lambda d: d["mor_map"].update({"0<1": "q"}),
    "identity sent to a non-identity": lambda d: d["mor_map"].update(id_0="a"),
    "images that do not compose": lambda d: d["mor_map"].update({"0<1": "b"}),
    "composite not preserved": lambda d: d["mor_map"].update({"0<2": "e"}),
    "morphism no assignment reaches": lambda d: d["mor_map"].pop("1<2"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_FUNCTOR_MAPS))
def test_broken_functor_maps_are_refused_as_not_functorial(files, case):
    tmp_path, _, write = files
    F = dict(corpus.curated_oracle_functors())["chain3_to_fb"]
    doc = F.to_dict()
    BROKEN_FUNCTOR_MAPS[case](doc)
    with pytest.raises(NotFunctorial):
        validate_functor({"obj_map": doc["obj_map"], "mor_map": doc["mor_map"]}, F.source, F.target)
    path = write("broken.json", doc)
    code, cert = _run_to(tmp_path, ["validate", "--functor", path])
    assert code == 0 and cert["verdict"] == "invalid"
    assert cert["witness"]["error"] == "NotFunctorial", cert["witness"]
    assert run(["gaft", "--functor", path]) == 2


def test_a_value_set_with_a_repeated_element_is_refused_by_every_reader(files):
    # a list with a repeated element is no set: b1 would count the element twice, represent once
    tmp_path, _, write = files
    one = write("one.json", corpus.one().to_dict())
    setf = write("repeated.json", {"on_objects": {"*": ["a", "a"]}, "on_morphisms": {"id_*": {"a": "a"}}})
    code, cert = _run_to(tmp_path, ["validate", "--category", one, "--setfunctor", setf])
    assert code == 0 and cert["verdict"] == "invalid"
    assert cert["witness"]["error"] == "CategoryError", cert["witness"]
    checks = [["--check", check] for check, reads in BROWN_READS.items() if "--setfunctor" in reads]
    for check in [[], *checks]:
        assert run(["brown", "--category", one, "--setfunctor", setf, *check]) == 2, check


# sha256 of the exit code, stdout and stderr of every cli-mix argv in order,
# with the fixture folder in stdout replaced by a fixed token
CLI_MIX_DIGEST = "c9a0559431106b40a1bb7878e23ec511fd1fd77cb6dc404df124a53be2e72428"


def test_cli_mix_outputs_are_pinned(tmp_path, monkeypatch):
    argvs = _cli_mix_argvs(tmp_path, monkeypatch)
    rows = []
    for argv in argvs:
        code, out, err = _captured(argv)
        rows.append([code, out.replace(str(tmp_path), "<fixtures>"), err])
    assert len(rows) == 21
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == CLI_MIX_DIGEST
