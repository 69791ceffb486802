#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size (about a minute).

    python3 perfbench/selftest.py

For every workload, traced and untraced, it runs run.py twice with the same
seed at smoke size and checks that every metric of that mode is printed by
name with its unit and sample count (``best_score`` too, on the untraced
searches), and that no operation failed (``failed_ratio`` 0; run.py
reports repeats of a seed with different counts as failed).  It checks that BENCHMARK.json names exactly the
workloads and metrics that workloads.py defines, and that run.py refuses to
run, printing no result, in a directory without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import BEST_SCORE, END_TO_END, WORKLOADS, per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE = HERE / "results" / "smoke"


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(workload: str, trace: int, problems: list[str]) -> None:
    expected = per_layer() if trace else END_TO_END
    proc = run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} failed\n"
                        + "\n".join(line for line in lines if "FAILED" in line))
    if set(result["metrics"]) != set(expected):
        problems.append(f"{where}: metrics {sorted(result['metrics'])}")
    table = {line.split()[0]: line.split() for line in lines[1:-1] if line.startswith("  ")}
    printed = {name: unit for name, (unit, _) in expected.items()} | {"failed_ratio": "ratio"}
    if not trace and not WORKLOADS[workload].trace:
        printed[BEST_SCORE[0]] = BEST_SCORE[1]
    for name, unit in printed.items():
        row = table.get(name)
        if row is None or row[2] != unit or not row[3].startswith("n="):
            problems.append(f"{where}: {name} not printed with unit {unit} and sample count")
    if float(table.get("failed_ratio", [0, "1"])[1]) != 0.0:
        problems.append(f"{where}: failed_ratio is not 0")
    for name, metric in result["metrics"].items():
        if name in expected and metric["unit"] != expected[name][0]:
            problems.append(f"{where}: {name} has unit {metric['unit']}")


def check_benchmark_json(problems: list[str]) -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"]: w["why"] for w in doc["workloads"]}
    if workloads != {w.name: w.summary() for w in WORKLOADS.values()}:
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    end_to_end = {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]}
    if end_to_end != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from workloads.py")
    layers = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    if layers != per_layer():
        problems.append("BENCHMARK.json per_layer differs from workloads.py")


def check_refuses_without_sources(problems: list[str]) -> None:
    bare = SMOKE / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(bare, "--workload", "search_default", "--seed", "0", "--seconds", "1")
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("run.py did not refuse a directory without the program's sources")
    shutil.rmtree(bare)


def main() -> int:
    shutil.rmtree(SMOKE, ignore_errors=True)
    problems: list[str] = []
    check_benchmark_json(problems)
    check_refuses_without_sources(problems)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, problems)
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
