#!/usr/bin/env python3
"""The agentchart benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every operation is one ``agentchart run``
in a fresh interpreter (worker.py), made from the workload's parameters and
the seed; the next starts when the previous one has finished (a closed loop
with one client).  Each operation's outputs are checked, and the first
operation is repeated at the end: operations of the same seed must give the
same exact counts.  With ``--trace 0`` the end-to-end metrics are reported;
with ``--trace 1`` every operation runs once plain and once with each layer
function wrapped in a span, and the per-layer metrics are reported.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

Results, the run record and the spans of the first traced operation go to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    BEST_SCORE, END_TO_END, UNSCALED, WORKLOADS, op_seed, per_layer, smoke, write_scenario,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_SAMPLES = 15  # fresh interpreters per untraced run for setup_s, after one warm-up
# setup_s and agent_ticks_per_s count time on a host where worker.reference_s()
# takes this long: each sample's time is scaled by REFERENCE_S / the median of
# the reference loop's timings in its process
REFERENCE_S = 0.020
START_LIMIT_S = 120  # start no operation after this, so a run ends within 180 s
RUN_LIMIT_S = 170


class Run:
    def __init__(self, workload, seed: int, seconds: float, trace: bool, results: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.results = results
        self.work = results / "work" / f"{workload.name}-{seed}-{int(trace)}"
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def worker(self, args: list[str]) -> tuple[dict | None, str]:
        """Run worker.py; return its JSON result, or None and the reason."""
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *args],
                capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, f"worker timed out after {timeout:.0f} s"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
            return None, tail[0]
        return json.loads(lines[-1]), ""

    def setup_sample(self, scenario: Path) -> dict:
        result, error = self.worker(["setup", "--scenario", str(scenario), "--seed", str(self.seed)])
        if result is None:
            raise SystemExit(f"set-up failed: {error}")
        if not result["agentchart"].startswith(str(SRC)):
            raise SystemExit(f"imported agentchart from {result['agentchart']}, not {SRC}")
        return result

    def op(self, scenario: Path, index: int, traced: bool) -> dict:
        seed = op_seed(self.seed, index)
        out = self.work / f"op{index}-{int(traced)}"
        flags = []
        if traced:
            flags.append("--trace")
            if index == 0:
                flags += ["--spans", str(self.results / f"spans-{self.workload.name}.npz")]
        argv = self.workload.argv(scenario, seed, out)
        began = time.monotonic()
        result, error = self.worker(["op", *flags, "--", *argv])
        if result is None:
            result = {"problems": [error], "det": {}}
        elif not result["problems"]:
            shutil.rmtree(out, ignore_errors=True)
        result.update(index=index, seed=seed, traced=traced, process_s=time.monotonic() - began)
        return result

    def ops(self, scenario: Path) -> tuple[list[dict], list[dict]]:
        """Operations while ``seconds`` allow, at least the workload's minimum.

        Each operation gets the next seed; a traced run makes a pair, plain
        and traced, per seed.  The run ends by running its first seed again
        (traced, in a traced run), so that its exact counts can be compared,
        and starts an operation only while that one and the repeat still
        fit in ``seconds``.  An untraced run also takes ``SETUP_SAMPLES``
        set-up samples, a few before each of the minimum operations, so that
        set-up and throughput meet the same stretch of the host's time.
        Returns (set-up samples, operations).  The first set-up sample is a
        warm-up, returned only by a traced run, which takes no other and
        needs it for the run record.
        """
        minimum = 1 if self.trace else self.workload.min_ops
        setup_total = 0 if self.trace else SETUP_SAMPLES
        per_op = -(-setup_total // minimum)
        setup = [self.setup_sample(scenario)]
        done: list[dict] = []
        durations: list[float] = []
        period_start = self.elapsed()
        index = 0
        while self.elapsed() < START_LIMIT_S:
            used = self.elapsed() - period_start
            # this operation and the repeat must still fit
            if index >= minimum and used + 2 * statistics.median(durations) > self.seconds:
                break
            for _ in range(min(per_op, setup_total + 1 - len(setup))):
                setup.append(self.setup_sample(scenario))
            began = self.elapsed()
            done.append(self.op(scenario, index, traced=False))
            if self.trace:
                done.append(self.op(scenario, index, traced=True))
            durations.append(self.elapsed() - began)
            index += 1
        done.append(self.op(scenario, 0, traced=self.trace))
        return (setup if self.trace else setup[1:]), done


def code_digest() -> str:
    """Digest of the code under test: every file under ``src/`` and this directory's Python files."""
    files = [p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    files += HERE.glob("*.py")
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def check_repeats(ops: list[dict]) -> None:
    """Operations of the same seed must give the same exact counts; flag the later ones."""
    first: dict[int, dict] = {}
    for op in ops:
        known = first.setdefault(op["seed"], {})
        for name, value in op["det"].items():
            if known.setdefault(name, value) != value:
                op["problems"].append(f"nondeterministic {name}: {known[name]} then {value}")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def scaled(sample: dict, seconds: float) -> float:
    """``seconds`` of ``sample`` as time on a host where the reference loop takes REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.median(sample["reference_s"])


def end_to_end(workload, setup: list[dict], ops: list[dict]) -> dict[str, tuple[float, int]]:
    measured = [op for op in ops if "work_s" in op]
    first = [op["best_score"] for op in ops[: workload.min_ops] if op.get("best_score") is not None]
    ticks = sum(op["agent_ticks"] for op in measured)
    return {
        "setup_s": (median([scaled(s, s["setup_s"]) for s in setup]), len(setup)),
        "setup_s_unscaled": (median([s["setup_s"] for s in setup]), len(setup)),
        "agent_ticks_per_s": (
            ticks / sum(scaled(op, op["work_s"]) for op in measured) if measured else 0.0,
            len(measured),
        ),
        "agent_ticks_per_s_unscaled": (
            ticks / sum(op["work_s"] for op in measured) if measured else 0.0,
            len(measured),
        ),
        "peak_rss_mb": (median([op["peak_rss_mb"] for op in measured]), len(measured)),
        BEST_SCORE[0]: (median(first), len(first)),
    }


def layers(ops: list[dict]) -> dict[str, tuple[float, int]]:
    traced = [op for op in ops if op["traced"] and "layers" in op]
    plain = {op["index"]: op for op in ops if not op["traced"] and "wall_s" in op}
    if not traced:
        return {name: (0.0, 0) for name in per_layer()}
    first = traced[0]
    out: dict[str, tuple[float, int]] = {}
    for name in per_layer():
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = (float(first["layers"][layer]["calls"]), 1)
        elif stat == "self_s":
            out[name] = (median([op["layers"][layer]["self_s"] for op in traced]), len(traced))
    calls = {layer: v["calls"] for layer, v in first["layers"].items()}
    det = first["det"]
    # the untraced behaviour chart takes four macrosteps per agent step
    steps = calls["body.step_agent"]
    out["body.dispatch_memo_hit_ratio"] = (
        1.0 - calls["statechart.dispatch"] / (4 * steps) if steps else 0.0, 1
    )
    episodes = det.get("episodes", 0)
    out["evaluation.accept_ratio"] = (det.get("accepted", 0) / max(1, episodes - 1), 1)
    out["evaluation.inoperable_ratio"] = (det.get("inoperable", 0) / max(1, episodes), 1)
    overhead = [op["wall_s"] / plain[op["index"]]["wall_s"] for op in traced if op["index"] in plain]
    out["trace.overhead_ratio"] = (median(overhead), len(overhead))
    return out


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "agentchart" / "__init__.py").is_file():
        print(f"error: no agentchart sources under {SRC}", file=sys.stderr)
        return 2

    workload = smoke(WORKLOADS[args.workload]) if args.smoke else WORKLOADS[args.workload]
    results = RESULTS / "smoke" if args.smoke else RESULTS
    run = Run(workload, args.seed, args.seconds, bool(args.trace), results)
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    load_start = os.getloadavg()

    scenario = write_scenario(workload, run.work, args.seed)
    setup, ops = run.ops(scenario)

    check_repeats(ops)

    failed = sum(1 for op in ops if op["problems"])
    if args.trace:
        units = per_layer()
        measured = layers(ops)
    else:
        units = END_TO_END
        measured = end_to_end(workload, setup, ops)
    metrics = {name: {"value": measured[name][0], "unit": units[name][0]} for name in units}

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"{workload.load_model()}  operations {len(ops)}")
    for op in ops:
        for problem in op["problems"]:
            print(f"  FAILED op {op['index']} (seed {op['seed']}): {problem}")
    printed = {name: (*measured[name], unit) for name, (unit, _) in units.items()}
    if not args.trace:
        printed.update({name: (*measured[name], unit) for name, unit in UNSCALED.items()})
        if not workload.trace:
            printed[BEST_SCORE[0]] = (*measured[BEST_SCORE[0]], BEST_SCORE[1])
    printed["failed_ratio"] = (failed / len(ops), len(ops), "ratio")
    for name, (value, n, unit) in printed.items():
        print(f"  {name:36s} {value:16.6f} {unit:6s} n={n}")

    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    record = {
        "workload": dataclasses.asdict(workload),
        "load_model": workload.load_model(),
        "seed": args.seed,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "code_digest": code_digest(),
        "python": setup[0]["python"],
        "numpy": setup[0]["numpy"],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "setup": setup,
        "operations": ops,
        "printed": printed,
        "result": result,
    }
    record_path = results / f"run-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
