"""Acceptance criteria, one test per criterion.

Each test prints a single pass line on success; a failure raises with the
first counterexample.  Criteria with stated runtime budgets assert the
elapsed wall time as part of the criterion.
"""

import hashlib
import json
import time

from finadj import corpus, sweeps
from finadj.cli import run

# sha256 of each `finadj corpus <suite>` certificate.  ROADMAP item 2's
# stats block will change these on purpose; any other change to them is a
# change in behaviour.
GOLDEN_DIGESTS = {
    "posets4": "d78ed123a109d06233b9b7da943a63330b0a55e52d4fa6e2fcf9366f62e82941",
    "fixtures": "ae42257151f7a06e00f87340acff765a808bdc7153293cabc98cc2f18a63ffb1",
    "enriched": "87237d76459c5cc74cb4127598a3404fb41acf6ceb3c2d8e722cf81c932afcfa",
    "oracle": "276bf6c23f8afdacd27e9682ba3daf2410f5b2c0d889d3da593daa1b52aa4a34",
}


def _ok(n, name):
    print(f"[acceptance] criterion {n} ({name}): PASS")


def _clean(tally):
    """The tally of an invariant that held everywhere; else fail with its
    first counterexample."""
    assert not tally.failures, tally.failures[0]
    return tally


def test_criterion_1_gaft_oracle_equivalence():
    started = time.monotonic()
    tally = _clean(sweeps.check_gaft_oracle_agreement())
    assert tally.details["curated_instances"] >= 20
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0, f"oracle sweep took {elapsed:.1f}s"
    _ok(1, f"gaft oracle equivalence, {tally.checks} instances, {elapsed:.1f}s")


def test_criterion_2_identity_limit_characterization():
    _clean(sweeps.check_identity_limit(sweeps.sweep_corpus_categories()))
    _ok(2, "identity-limit apexes equal initial objects")


def test_criterion_3_roundtrip_and_lifting():
    started = time.monotonic()
    cats = sweeps.sweep_corpus_categories()
    _clean(sweeps.check_tau1_nerve_roundtrip(cats))
    _clean(sweeps.check_initial_by_lifting(cats))
    elapsed = time.monotonic() - started
    assert elapsed <= 30.0, f"round-trip sweep took {elapsed:.1f}s"
    _ok(3, f"tau1/nerve round trip and lifting agreement, {len(cats)} categories, {elapsed:.1f}s")


def test_criterion_4_solution_set_invariance():
    tally = _clean(sweeps.check_solution_set_invariance(corpus.enriched_functors(corpus.categories())))
    _ok(4, f"solution-set invariance with witness transfer, {tally.checks} anchors")


def test_criterion_5_divergence_fixture():
    _clean(sweeps.check_pz2_divergence(corpus.pz2_pick_y()))
    _ok(5, "two-object fixture reproduces all five facts")


def test_criterion_6_reflection_sweep():
    tally = _clean(sweeps.check_initial_reflection(0, sweeps.sweep_corpus_categories(), corpus.pz2_pick_y()))
    qualifying = tally.details["reflection_qualifying"]
    assert qualifying >= 200
    _ok(6, f"initial reflection holds on {qualifying} generated functors")


def test_criterion_7_finite_completeness_corollary():
    _clean(sweeps.check_finite_limits_imply_initial(sweeps.sweep_corpus_categories()))
    _ok(7, "finite completeness forces an initial object")


def test_criterion_8_brown_necessity():
    tally = _clean(sweeps.check_brown_necessity(sweeps.sweep_corpus_categories()))
    swept = tally.details["yoneda_objects"]
    assert swept > 0
    _ok(8, f"Brown necessity on {swept} representables plus the designated failure")


def test_criterion_9_determinism(tmp_path):
    for suite in sweeps.SUITES:
        a = tmp_path / f"{suite}_a.json"
        b = tmp_path / f"{suite}_b.json"
        assert run(["corpus", suite, "--out", str(a)]) == 0
        assert run(["corpus", suite, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), suite
        assert json.loads(a.read_text())["verdict"] == "pass", suite
        assert hashlib.sha256(a.read_bytes()).hexdigest() == GOLDEN_DIGESTS[suite], suite
    _ok(9, "corpus certificates are byte-identical across runs and match the golden digests")
