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
import json
import sys

from . import __version__, adjoint, brown, enriched, limits, simplicial, sweeps
from .fincat import (
    CategoryError,
    ClosureBoundExceeded,
    validate_category,
    validate_functor,
)


class ParseError(Exception):
    pass


class UnknownVerb(Exception):
    pass


def _load_json(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(data.decode("utf-8")), hashlib.sha256(data).hexdigest()
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"parse error in {path}, line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _need(raw: dict, key: str, path: str):
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: expected a JSON object")
    if key not in raw:
        raise ParseError(f"{path}: missing required key {key!r}")
    return raw[key]


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


def _category_arg(args, inputs: _Inputs, flag="category"):
    raw = inputs.load(flag, getattr(args, flag))
    for key in ("objects", "morphisms", "identities"):
        _need(raw, key, getattr(args, flag))
    return validate_category(raw, closure_bound=args.closure_bound)


def _functor_arg(args, inputs: _Inputs):
    raw = inputs.load("functor", args.functor)
    for key in ("source", "target", "obj_map"):
        _need(raw, key, args.functor)
    C = validate_category(raw["source"], closure_bound=args.closure_bound)
    D = validate_category(raw["target"], closure_bound=args.closure_bound)
    return validate_functor(raw, C, D)


def _gfunctor_arg(args, inputs: _Inputs):
    raw = inputs.load("gfunctor", args.gfunctor)
    for key in ("source", "target", "obj_map", "cell_map", "arrow_map"):
        _need(raw, key, args.gfunctor)
    return enriched.validate_gfunctor(raw)


def _run_validate(args, inputs: _Inputs) -> dict:
    chosen = {
        flag
        for flag in ("category", "functor", "gcat", "gfunctor", "sset", "setfunctor")
        if getattr(args, flag, None)
    }
    if chosen == {"setfunctor", "category"}:
        kind = "setfunctor"
    elif len(chosen) == 1:
        kind = chosen.pop()
        if kind == "setfunctor":
            raise UnknownVerb("validating a set functor also needs --category")
    else:
        raise UnknownVerb("validate needs exactly one input kind")
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


def _run_brown(args, inputs: _Inputs) -> dict:
    needs = {"b1p-b2p": ("functor",)}.get(args.check, ("category",))
    if args.check in ("b1", "b2", "represent"):
        needs = ("category", "setfunctor")
    for flag in needs:
        if getattr(args, flag, None) is None:
            raise UnknownVerb(f"brown --check {args.check} needs --{flag}")
    if args.check == "generators":
        C = _category_arg(args, inputs)
        gens = brown.weak_generators(C)
        return _certificate("weak_generators", [list(g) for g in gens], {}, inputs)
    if args.check == "exhaustive":
        C = _category_arg(args, inputs)
        rep = brown.exhaustive_representability_check(C, args.max_set_size)
        witness = {
            "functors_checked": rep.functors_checked,
            "passing_both": rep.passing_both,
            "representable": rep.representable,
            "counterexamples": list(rep.counterexamples),
            "scope": f"value sets of at most {args.max_set_size} elements; experimental",
        }
        return _certificate("exhaustive_representability_check", rep.holds, witness, inputs)
    if args.check == "b1p-b2p":
        F = _functor_arg(args, inputs)
        rep = brown.check_B1p_B2p(F)
        return _certificate("check_B1p_B2p", rep.ok, {"witness": rep.witness}, inputs)
    C = _category_arg(args, inputs)
    F = brown.validate_set_functor(C, inputs.load("setfunctor", args.setfunctor))
    if args.check == "b1":
        rep = brown.check_B1(C, F)
        return _certificate("check_B1", rep.ok, {"witness": rep.witness}, inputs)
    if args.check == "b2":
        rep = brown.check_B2(C, F)
        return _certificate("check_B2", rep.ok, {"witness": rep.witness}, inputs)
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
    report = sweeps.run_suite(args.suite, seed=args.seed, oracle_bounds=tuple(args.oracle_bounds))
    verdict = "pass" if report["failures"] == 0 else "fail"
    return _certificate(f"corpus_{args.suite}", verdict, report, inputs)


def _parse_bounds(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(p) for p in text.split(","))
        return lo, hi
    except ValueError:
        raise argparse.ArgumentTypeError("expected two comma-separated integers") from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="finadj", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the certificate here instead of stdout")
    common.add_argument("--seed", type=int, default=0, help="seed for generated fixtures")
    common.add_argument(
        "--oracle-bounds",
        type=_parse_bounds,
        default=(4, 16),
        metavar="OBJ,MOR",
        help="refusal bounds for the brute-force oracle",
    )
    common.add_argument("--closure-bound", type=int, default=10_000)
    sub = ap.add_subparsers(dest="verb", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("validate", help="validate an input file")
    p.add_argument("--category")
    p.add_argument("--functor")
    p.add_argument("--gcat")
    p.add_argument("--gfunctor")
    p.add_argument("--sset")
    p.add_argument("--setfunctor")

    p = add_parser("initial", help="initial and terminal objects")
    p.add_argument("--category", required=True)

    p = add_parser("limits", help="finite-limit existence report")
    p.add_argument("--category", required=True)

    p = add_parser("adjoint", help="brute-force left adjoint oracle")
    p.add_argument("--functor", required=True)

    p = add_parser("gaft", help="decide a left adjoint via comma categories")
    p.add_argument("--functor", required=True)

    p = add_parser("gaft-fin", help="decide an enriched left adjoint")
    p.add_argument("--gfunctor", required=True)

    p = add_parser("compare", help="compare homotopy and enriched adjoint verdicts")
    p.add_argument("--gfunctor", required=True)
    p.add_argument("--preserves-finite-limits", choices=["true", "false"])

    p = add_parser("tau1", help="fundamental category of a simplicial set")
    p.add_argument("--sset", required=True)

    p = add_parser("nerve", help="nerve of a category")
    p.add_argument("--category", required=True)

    p = add_parser("classify", help="classify an object of an enriched category")
    p.add_argument("--gcat", required=True)
    p.add_argument("--object", required=True)

    p = add_parser("brown", help="representability checks")
    p.add_argument("--category")
    p.add_argument("--setfunctor")
    p.add_argument("--functor")
    p.add_argument(
        "--check",
        choices=["represent", "b1", "b2", "b1p-b2p", "generators", "exhaustive"],
        default="represent",
    )
    p.add_argument("--max-set-size", type=int, default=2)

    p = add_parser("corpus", help="run a named invariant sweep")
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


def run(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    inputs = _Inputs()
    try:
        cert = _RUNNERS[args.verb](args, inputs)
    except (ParseError, UnknownVerb) as exc:
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
