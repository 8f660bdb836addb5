"""Command-line front end.

Every verb reads JSON input files, runs one operation (or one named
sweep), and emits a certificate: verdict, structured witness, and
provenance with the input hashes and engine version.  Certificates are
byte-identical across runs on identical inputs; the process exit code is
reserved for operational failure, never for the verdict itself.

Exit codes: 0 verdict computed, 2 usage or input errors, 3 configured
bounds exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import sys

from . import __version__, adjoint, brown, enriched, limits, simplicial, sweeps
from .fincat import (
    DEFAULT_CLOSURE_BOUND,
    CategoryError,
    ClosureBoundExceeded,
    validate_category,
    validate_functor_file,
)


class UsageError(Exception):
    """An input file that cannot be read or parsed, or a missing option."""


def _load_json(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(data.decode("utf-8")), hashlib.sha256(data).hexdigest()
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"parse error in {path}, line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


class _Inputs:
    """Tracks loaded files so provenance can list their hashes."""

    def __init__(self):
        self.hashes: dict[str, dict] = {}

    def load(self, label: str, path: str) -> dict:
        raw, digest = _load_json(path)
        self.hashes[label] = {"path": path, "sha256": digest}
        return raw


def _certificate(operation: str, verdict, witness, inputs: _Inputs) -> dict:
    return {
        "verdict": verdict,
        "witness": witness,
        "provenance": {
            "operation": operation,
            "inputs": inputs.hashes,
            "engine_version": __version__,
        },
    }


def _category_arg(args, inputs: _Inputs):
    raw = inputs.load("category", args.category)
    return validate_category(raw, closure_bound=args.closure_bound)


def _functor_arg(args, inputs: _Inputs):
    return validate_functor_file(inputs.load("functor", args.functor), args.closure_bound)


def _gfunctor_arg(args, inputs: _Inputs):
    return enriched.validate_gfunctor(inputs.load("gfunctor", args.gfunctor))


# the input kinds `validate` reads, one file each
_VALIDATE_KINDS = ("category", "functor", "gcat", "gfunctor", "sset", "setfunctor")


def _run_validate(args, inputs: _Inputs) -> dict:
    chosen = {kind for kind in _VALIDATE_KINDS if getattr(args, kind)}
    if chosen == {"setfunctor", "category"}:
        kind = "setfunctor"
    elif len(chosen) == 1:
        kind = chosen.pop()
        if kind == "setfunctor":
            raise UsageError("validating a set functor also needs --category")
    else:
        raise UsageError("validate needs exactly one input kind")
    try:
        if kind == "category":
            _category_arg(args, inputs)
        elif kind == "functor":
            _functor_arg(args, inputs)
        elif kind == "gcat":
            enriched.validate_gcat(inputs.load("gcat", args.gcat))
        elif kind == "gfunctor":
            _gfunctor_arg(args, inputs)
        elif kind == "sset":
            simplicial.sset_from_dict(inputs.load("sset", args.sset))
        else:
            C = _category_arg(args, inputs)
            brown.validate_set_functor(C, inputs.load("setfunctor", args.setfunctor))
    except CategoryError as exc:
        return _certificate(
            "validate", "invalid", {"error": type(exc).__name__, "message": str(exc)}, inputs
        )
    return _certificate("validate", "valid", {"kind": kind}, inputs)


def _run_initial(args, inputs: _Inputs) -> dict:
    C = _category_arg(args, inputs)
    init = limits.initial_objects(C)
    return _certificate(
        "initial",
        init,
        {"initial_objects": init, "terminal_objects": limits.terminal_objects(C)},
        inputs,
    )


def _run_limits(args, inputs: _Inputs) -> dict:
    C = _category_arg(args, inputs)
    report = limits.has_finite_limits(C)
    witness = {
        "missing": list(report.missing) if report.missing else None,
        "weakly_initial_sets": [list(s) for s in limits.weakly_initial_sets(C)],
        "completeness": "finite",
    }
    return _certificate("limits", report.ok, witness, inputs)


def _run_adjoint(args, inputs: _Inputs) -> dict:
    G = _functor_arg(args, inputs)
    lo, hi = args.oracle_bounds
    res = adjoint.brute_force_left_adjoint(G, lo, hi)
    witness = {
        "pairs": [
            {"obj_map": F.obj_map, "mor_map": F.mor_map, "unit": unit}
            for F, unit in res.pairs
        ],
        "oracle_bounds": [lo, hi],
    }
    return _certificate("brute_force_left_adjoint", "exists" if res.exists else "none", witness, inputs)


def _run_gaft(args, inputs: _Inputs) -> dict:
    G = _functor_arg(args, inputs)
    res = adjoint.gaft_decide(G)
    body = res.to_json_dict()
    body["notes"] = {
        "decision": "initial object in each comma category",
        "solution_set_condition": "not consulted",
        "size_conditions": "finite instance, satisfied vacuously",
    }
    return _certificate("gaft_decide", body["verdict"], body, inputs)


def _run_gaft_fin(args, inputs: _Inputs) -> dict:
    G = _gfunctor_arg(args, inputs)
    res = enriched.gaft_fin_decide(G)
    return _certificate(
        "gaft_fin_decide",
        "exists" if res.exists else "none",
        {"table": res.table, "witness_failure": res.witness},
        inputs,
    )


def _run_compare(args, inputs: _Inputs) -> dict:
    G = _gfunctor_arg(args, inputs)
    flag = None
    if args.preserves_finite_limits is not None:
        flag = args.preserves_finite_limits == "true"
    rep = enriched.homotopy_adjoint_compare(G, flag)
    verdict = {
        "h_adjoint": "exists" if rep.h_result.exists else "none",
        "full_adjoint": "exists" if rep.full_result.exists else "none",
        "consistent": rep.consistent if rep.consistent is not None else "not-applicable",
    }
    witness = {
        "limits_flag": rep.limits_flag,
        "h_witness_failure": rep.h_result.witness,
        "full_table": rep.full_result.table,
    }
    return _certificate("homotopy_adjoint_compare", verdict, witness, inputs)


def _run_tau1(args, inputs: _Inputs) -> dict:
    K = simplicial.sset_from_dict(inputs.load("sset", args.sset))
    C = simplicial.tau1(K, closure_bound=args.closure_bound)
    return _certificate("tau1", "ok", {"category": C.to_dict()}, inputs)


def _run_nerve(args, inputs: _Inputs) -> dict:
    C = _category_arg(args, inputs)
    K = simplicial.nerve(C)
    return _certificate("nerve", "ok", {"sset": K.to_dict()}, inputs)


def _run_classify(args, inputs: _Inputs) -> dict:
    G = enriched.validate_gcat(inputs.load("gcat", args.gcat))
    cls = enriched.classify_object(G, args.object)
    verdict = {
        "initial": cls.initial,
        "h_initial": cls.h_initial,
        "weakly_initial_singleton": cls.weakly_initial_singleton,
    }
    return _certificate("classify_object", verdict, {"object": args.object}, inputs)


# brown's input files; for each --check, the inputs it needs and the options
# it takes besides: any other input given is refused
_BROWN_FILES = ("category", "setfunctor", "functor")
_BROWN_INPUTS = {
    "represent": (("category", "setfunctor"), ()),
    "b1": (("category", "setfunctor"), ()),
    "b2": (("category", "setfunctor"), ()),
    "b1p-b2p": (("functor",), ()),
    "generators": (("category",), ()),
    "exhaustive": (("category",), ("max_set_size",)),
}


def _flags(names) -> str:
    return ", ".join("--" + name.replace("_", "-") for name in names)


def _run_brown(args, inputs: _Inputs) -> dict:
    needs, takes = _BROWN_INPUTS[args.check]
    given = [name for name in _BROWN_FILES + ("max_set_size",) if getattr(args, name) is not None]
    missing = [name for name in needs if name not in given]
    if missing:
        raise UsageError(f"brown --check {args.check} needs {_flags(missing)}")
    unread = [name for name in given if name not in needs + takes]
    if unread:
        raise UsageError(f"brown --check {args.check} does not read {_flags(unread)}")
    if args.check == "b1p-b2p":
        rep = brown.check_B1p_B2p(_functor_arg(args, inputs))
        return _certificate("check_B1p_B2p", rep.ok, {"witness": rep.witness}, inputs)
    C = _category_arg(args, inputs)
    if args.check == "generators":
        return _certificate("weak_generators", [list(g) for g in brown.weak_generators(C)], {}, inputs)
    if args.check == "exhaustive":
        size = brown.MAX_SET_SIZE if args.max_set_size is None else args.max_set_size
        rep = brown.exhaustive_representability_check(C, size)
        witness = {
            "functors_checked": rep.functors_checked,
            "passing_both": rep.passing_both,
            "representable": rep.representable,
            "counterexamples": list(rep.counterexamples),
            "scope": f"value sets of at most {size} elements; experimental",
        }
        return _certificate("exhaustive_representability_check", rep.holds, witness, inputs)
    F = brown.validate_set_functor(C, inputs.load("setfunctor", args.setfunctor))
    if args.check in ("b1", "b2"):
        rep = brown.check_B1(C, F) if args.check == "b1" else brown.check_B2(C, F)
        return _certificate(f"check_{args.check.upper()}", rep.ok, {"witness": rep.witness}, inputs)
    res = brown.representability_search(C, F)
    witness = {
        "representing": res.representing,
        "universal_element": res.element,
        "components": res.components,
        "obstructions": res.obstructions,
        "side": "search (necessity conditions are separate checks)",
        "h_compactness": "vacuous at finite scale, not computed",
    }
    return _certificate(
        "representability_search", "representable" if res.found else "not-representable", witness, inputs
    )


def _run_corpus(args, inputs: _Inputs) -> dict:
    sweep = sweeps.SUITES[args.suite]
    given = {"seed": args.seed, "oracle_bounds": args.oracle_bounds}
    given = {name: value for name, value in given.items() if value is not None}
    unread = sorted(given.keys() - inspect.signature(sweep).parameters.keys())
    if unread:
        raise UsageError(f"corpus {args.suite} does not read {_flags(unread)}")
    report = sweep(**given)
    verdict = "pass" if report["failures"] == 0 else "fail"
    cert = _certificate(f"corpus_{args.suite}", verdict, report, inputs)
    if given:  # absent when every option is the suite's default
        cert["provenance"]["options"] = given
    return cert


def _non_negative(text: str) -> int:
    """A non-negative integer: the type of --closure-bound, --max-set-size
    and each half of --oracle-bounds."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _parse_bounds(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated non-negative integers")
    return tuple(map(_non_negative, parts))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="finadj", description=__doc__)

    # each verb takes --out and exactly the shared options its runner reads
    def option(flag, **kw):
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(flag, **kw)
        return parent

    out = option("--out", help="write the certificate here instead of stdout")
    closure = option("--closure-bound", type=_non_negative, default=DEFAULT_CLOSURE_BOUND)
    oracle = dict(type=_parse_bounds, metavar="OBJ,MOR", help="refusal bounds for the brute-force oracle")
    sub = ap.add_subparsers(dest="verb", required=True)

    def add_parser(name, *options, **kw):
        return sub.add_parser(name, parents=[out, *options], **kw)

    p = add_parser("validate", closure, help="validate an input file")
    for kind in _VALIDATE_KINDS:
        p.add_argument("--" + kind)

    p = add_parser("initial", closure, help="initial and terminal objects")
    p.add_argument("--category", required=True)

    p = add_parser("limits", closure, help="finite-limit existence report")
    p.add_argument("--category", required=True)

    p = add_parser(
        "adjoint", closure, option("--oracle-bounds", default=adjoint.ORACLE_BOUNDS, **oracle),
        help="brute-force left adjoint oracle",
    )
    p.add_argument("--functor", required=True)

    p = add_parser("gaft", closure, help="decide a left adjoint via comma categories")
    p.add_argument("--functor", required=True)

    p = add_parser("gaft-fin", help="decide an enriched left adjoint")
    p.add_argument("--gfunctor", required=True)

    p = add_parser("compare", help="compare homotopy and enriched adjoint verdicts")
    p.add_argument("--gfunctor", required=True)
    p.add_argument("--preserves-finite-limits", choices=["true", "false"])

    p = add_parser("tau1", closure, help="fundamental category of a simplicial set")
    p.add_argument("--sset", required=True)

    p = add_parser("nerve", closure, help="nerve of a category")
    p.add_argument("--category", required=True)

    p = add_parser("classify", help="classify an object of an enriched category")
    p.add_argument("--gcat", required=True)
    p.add_argument("--object", required=True)

    p = add_parser("brown", closure, help="representability checks")
    for kind in _BROWN_FILES:
        p.add_argument("--" + kind)
    p.add_argument("--check", choices=list(_BROWN_INPUTS), default="represent")
    p.add_argument("--max-set-size", type=_non_negative)  # unset unless given

    # unset unless given: each suite keeps its own defaults, and a suite
    # that does not read a given option refuses it
    p = add_parser(
        "corpus", option("--oracle-bounds", **oracle), option("--seed", type=int, help="seed for generated fixtures"),
        help="run a named invariant sweep",
    )
    p.add_argument("suite", choices=list(sweeps.SUITES))
    return ap


_RUNNERS = {
    "validate": _run_validate,
    "initial": _run_initial,
    "limits": _run_limits,
    "adjoint": _run_adjoint,
    "gaft": _run_gaft,
    "gaft-fin": _run_gaft_fin,
    "compare": _run_compare,
    "tau1": _run_tau1,
    "nerve": _run_nerve,
    "classify": _run_classify,
    "brown": _run_brown,
    "corpus": _run_corpus,
}


# built once per process: parse_args leaves the parser unchanged
_PARSER = build_parser()


def run(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error (2) or the help (0)
        return exc.code
    inputs = _Inputs()
    try:
        cert = _RUNNERS[args.verb](args, inputs)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ClosureBoundExceeded, adjoint.OracleBoundExceeded) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except CategoryError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(cert, indent=2, ensure_ascii=False) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
