"""finadj benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory and
finadj is imported from its `src/`.  NAME is one of `oracle-sweep`,
`decide-large`, `cli-mix`, or `all` (each workload in its own process, one
after another, followed by a summary table).

One process, no threads, one caller in a closed loop: the next input is
submitted only after the previous verdict returned.  Every verdict is checked
against a reference outside the code path under test (see workloads.py).

--trace 0 times the loop for S seconds after a warm-up.  The loop cycles
through the workload's inputs in the seed's order; a timing sample is each
input's fastest pass when there are at least 1000 inputs (oracle-sweep,
decide-large), else every submission (cli-mix).  It reports the end-to-end
metrics of BENCHMARK.json:
  instances_per_s  1 / mean sample, i.e. verdicts per second inside finadj
  verdict_p50_ms   median sample
  verdict_p99_ms   nearest-rank 99th percentile of the samples
  setup_s          median over 5 fresh interpreters of: import finadj,
                   generate the seed's inputs, write fixture files
  peak_rss_mb      peak resident memory of this process
error_rate (failed / attempted) is printed beside them; `failed` and
`attempted` carry it in the result line.

--trace 1 wraps finadj's public functions (layertrace.py) and runs set-up
plus a fixed number of instances (S x the workload's trace rate) twice.  The
work counts of the two passes must be identical; self times come from the
second pass.  The same instances then run untraced, and `trace.overhead` is
untraced instances_per_s over traced.  Spans are written to .perfbench/.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import sys

# finadj is compiled on every import, as on a machine that sets
# PYTHONDONTWRITEBYTECODE; this keeps setup_s independent of a bytecode
# cache the benchmark itself would otherwise leave behind.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from layertrace import SPANS_CSV_HEADER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
FINADJ_MODULES = (
    "finadj", "finadj.fincat", "finadj.presentation", "finadj.limits", "finadj.adjoint", "finadj.enriched",
    "finadj.simplicial", "finadj.brown", "finadj.corpus", "finadj.sweeps", "finadj.cli",
)


class Tally:
    """Attempted and failed verdicts, with the first few failures kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def record(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(f"{label}: {error}")


def submit(inst, tally: Tally) -> int:
    """Run one instance, check its verdict, and return its latency in ns."""
    t0 = time.perf_counter_ns()
    try:
        out = inst.call()
    except Exception as exc:  # a raise is a wrong verdict, not a harness fault
        t1 = time.perf_counter_ns()
        tally.record(inst.label, f"raised {type(exc).__name__}: {exc}")
        return t1 - t0
    t1 = time.perf_counter_ns()
    try:
        error = inst.check(out)
    except Exception as exc:  # an output the reference cannot read is wrong too
        error = f"check raised {type(exc).__name__}: {exc}"
    tally.record(inst.label, error)
    return t1 - t0


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "finadj_bytecode_cache_present": (SRC / "finadj" / "__pycache__").is_dir(),
    }


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    cmd = [sys.executable, "-B", __file__, "--workload", workload, "--seed", str(seed), "--probe-setup"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def percentile_99(samples: list[int]) -> tuple[int, int]:
    """Nearest-rank 99th percentile and the number of samples above its rank."""
    ordered = sorted(samples)
    rank = math.ceil(0.99 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def untraced_run(args, wl, workdir: Path, tally: Tally) -> tuple[dict, list[str]]:
    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    items = wl.setup(args.seed, str(workdir))
    for i in range(wl.warmup):
        submit(items[i % len(items)], tally)
    gc.collect()
    timed = [[] for _ in items]  # verdict times of each input, in ns
    i = wl.warmup
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        timed[i % len(items)].append(submit(items[i % len(items)], tally))
        i += 1
    submitted = i - wl.warmup
    # The host's speed swings by up to 1.6x from one 50 ms stretch to the
    # next.  With enough inputs for a 99th percentile with 10 samples beyond
    # it, each input's fastest pass is its one sample, which filters that out;
    # with fewer (cli-mix has 21) every submission is a sample.
    per_input = len(items) >= 1000
    if per_input:
        samples = [min(t) for t in timed if t]
    else:
        samples = [x for t in timed for x in t]
    p99, beyond = percentile_99(samples)
    n = len(samples)
    metrics = {
        "instances_per_s": n / (sum(samples) / 1e9),
        "verdict_p50_ms": statistics.median(samples) / 1e6,
        "verdict_p99_ms": p99 / 1e6,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    sample_kind = "fastest pass of each input" if per_input else "every submission"
    notes = [
        f"verdicts timed: {submitted} over {args.seconds} s ({submitted / len(items):.1f} passes over"
        f" {len(items)} inputs) after {wl.warmup} warm-up verdicts; samples: {n}, one per {sample_kind}",
        f"verdict_p99_ms: {beyond} samples beyond the 99th percentile",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
    ]
    return metrics, notes


def traced_run(args, wl, workdir: Path, tally: Tally) -> tuple[dict, list[str]]:
    modules = [importlib.import_module(name) for name in FINADJ_MODULES]
    tracer = Tracer()
    tracer.install(modules)
    count = math.ceil(args.seconds * wl.trace_rate)
    spans_path = OUT / f"spans-{args.workload}.csv"  # one file per workload: the last traced run
    passes = []
    try:
        with open(spans_path, "w", encoding="utf-8") as spans:
            spans.write(SPANS_CSV_HEADER)
            for last in (False, True):
                # set-up and loop are traced apart; set-up metrics carry a "setup." prefix
                tracer.reset()
                items = wl.setup(args.seed, str(workdir))
                found = {f"setup.{k}": v for k, v in tracer.snapshot().items()}
                n_spans = len(tracer.start)
                if last:
                    tracer.write_spans(spans)
                tracer.reset()
                traced_ns = 0
                for i in range(count):
                    tracer.current = i
                    traced_ns += submit(items[i % len(items)], tally)
                tracer.current = -1
                found.update(tracer.snapshot())
                if last:
                    tracer.write_spans(spans, offset=n_spans)
                n_spans += len(tracer.start)
                passes.append(found)
    finally:
        tracer.uninstall()
    untraced_ns = sum(submit(items[i % len(items)], tally) for i in range(count))
    first, metrics = passes
    unequal = sorted(
        k for k in metrics if not k.endswith(".self_s") and first[k] != metrics[k]
    )
    if unequal:
        tally.record("trace", f"work counts differ between the two traced passes: {unequal[:5]}")
    metrics["trace.overhead"] = traced_ns / untraced_ns
    loop_self = {k: v for k, v in metrics.items() if k.endswith(".self_s") and not k.startswith("setup.")}
    top = sorted(loop_self, key=loop_self.get, reverse=True)[:5]
    notes = [
        f"traced instances: {count} per pass, two passes, work counts identical: {not unequal}",
        f"instances_per_s traced {count / (traced_ns / 1e9):.1f}, untraced {count / (untraced_ns / 1e9):.1f}",
        "largest loop self times: " + ", ".join(f"{k} {loop_self[k]:.4f}" for k in top),
        f"spans of the second pass: {n_spans} written to {spans_path.relative_to(ROOT)}",
    ]
    return metrics, notes


def run_one(args, spec: dict) -> int:
    wl = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.probe_setup:
            t0 = time.perf_counter()
            wl.setup(args.seed, str(workdir))
            print(time.perf_counter() - t0)
            return 0
        import finadj

        if Path(finadj.__file__).resolve().parent != SRC / "finadj":
            print(f"error: finadj was imported from {finadj.__file__}, not {SRC}", file=sys.stderr)
            return 2
        tally = Tally()
        env = environment()
        if args.trace:
            metrics, notes = traced_run(args, wl, workdir, tally)
        else:
            metrics, notes = untraced_run(args, wl, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics["error_rate"] = tally.failed / tally.attempted
    declared = spec["per_layer" if args.trace else "end_to_end"]
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: closed loop, 1 caller, no threads")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in notes:
        print(line)
    for name, m in reported.items():
        if name != "error_rate":
            print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {metrics['error_rate']:.6g} ratio ({tally.failed} of {tally.attempted} attempted)")
    for example in tally.examples:
        print(f"FAILED {example}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": reported,
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env,
              "notes": notes, "result": result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
    print("summary")
    metric_names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':48} {'unit':8} " + " ".join(f"{w:>14}" for w in results))
    for metric in metric_names:
        unit = results[next(iter(results))]["metrics"][metric]["unit"]
        cells = " ".join(f"{r['metrics'][metric]['value']:>14.6g}" for r in results.values())
        print(f"{metric:48} {unit:8} {cells}")
    print(f"{'error_rate':48} {'ratio':8} " + " ".join(f"{r['failed'] / r['attempted']:>14.6g}" for r in results.values()))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="defaults to run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "finadj" / "__init__.py").is_file():
        print(f"error: no finadj sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
