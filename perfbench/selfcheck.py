"""Smoke run of the benchmark at tiny size.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json for one second untraced, and twice
traced in separate processes with the same seed.  Fails (exit 1) unless each
result line has exactly the contract's keys, every metric BENCHMARK.json
declares is emitted with its unit, no verdict failed (error_rate 0), every
exact count (unit `count` or `ratio`) repeats across the two traced
processes, and predictions.json names only declared metrics and workloads.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def problems_in(result: dict, declared: list[dict], label: str) -> list[str]:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{label}: result keys are {sorted(result)}"]
    out = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        out.append(f"{label}: {result['failed']} of {result['attempted']} verdicts failed")
    metrics = result["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            out.append(f"{label}: {m['name']} not emitted with unit {m['unit']} (got {got})")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        out.append(f"{label}: undeclared metrics {sorted(extra)}")
    if "error_rate" in metrics and metrics["error_rate"]["value"] != 0:
        out.append(f"{label}: error_rate {metrics['error_rate']['value']}")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        problems += problems_in(run(workload, 0), spec["end_to_end"], f"{workload} trace 0")
        first, second = run(workload, 1), run(workload, 1)
        problems += problems_in(first, spec["per_layer"], f"{workload} trace 1")
        problems += problems_in(second, spec["per_layer"], f"{workload} trace 1 (again)")
        for m in spec["per_layer"]:
            name = m["name"]
            if m["unit"] in ("count", "ratio") and name in first["metrics"] and name in second["metrics"]:
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                if a != b:
                    problems.append(f"{workload}: {name} is {a} in one traced run and {b} in the other")
        print(f"{workload}: checked", flush=True)
    predictions = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
    metric_names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    workload_names = {w["name"] for w in spec["workloads"]}
    for row in predictions["predictions"]:
        for name in row["layer_metrics"] + row["moves"]:
            if name not in metric_names:
                problems.append(f"predictions.json names undeclared metric {name}")
        for name in row["on"] + row["no_change_on"]:
            if name not in workload_names:
                problems.append(f"predictions.json names unknown workload {name}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
