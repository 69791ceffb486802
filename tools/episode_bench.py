"""Time a change against a base revision: the benchmark's metrics and single episodes.

    python tools/episode_bench.py --base REV [--pairs 10] [--tier1] [--out FILE]

The base revision is extracted with ``git archive`` into a temporary
directory, and so is the change: the files of the working tree this script
lives in, as ``git add -A`` would stage them, so that the two sides differ
only in their files, not in where they lie or what runs left beside them
(``perfbench/results/``, caches).  Each pair
runs one side after the other, alternating which goes first, and every side
of every pair does the same work, on seed ``SEED``.  A side runs, in its own
tree:

- ``perfbench/run.py --workload W --seed SEED --seconds PERFBENCH_SECONDS
  --trace 0`` for every workload W of ``BENCHMARK.json``, and records each
  end-to-end metric of the result line as ``W/<metric>``: the numbers the
  benchmark gates on;
- in a fresh interpreter, with the side's own copy of this script, so that
  each side calls the program the way its own tree does, on the default
  street-light scenario (10 lights, 200 ticks) and the initial genotype,
  the best of a one-generation ``run_search``, what perfbench cannot give:
  - ``episode_s``: the median of ``EPISODE_REPEATS`` untraced
    ``run_episode`` calls, after one untimed call;
  - ``traced_episode_s``: the median of ``TRACED_REPEATS`` traced
    ``run_episode`` calls, writing trace.log's and episode.csv's text to
    two sinks that discard it;
  - ``traced_run_heap_mb``: the ``tracemalloc`` peak of one
    ``cli.write_outputs`` call with ``--trace`` on that search's result,
    its cache included, as ``run --trace`` ends;
- ``big_run_maxrss_mb``: the peak RSS (``ru_maxrss``) of one
  ``agentchart run --trace --generations 1 --lambda 1`` of 64 lights x
  1,000 ticks in a fresh interpreter of its own.

The report gives each side's median and quartiles, the change's median
over the base's, and how many pairs the change won, and each side's count
of perfbench operations and of those that failed their checks.  The two
sides must agree on every episode's score, the bytes of ``trace.log`` and
perfbench's exact counts (``det``: the best score's repr, the episode count
and others) of every operation seed both ran, and no perfbench operation
may fail, or the script exits 1.  ``trace_events`` is the number of event
lines in the change's ``trace.log``.  With ``--tier1`` it also times the
tier-1 suite once per side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1
PERFBENCH_SECONDS = 10
EPISODE_REPEATS = 31
TRACED_REPEATS = 7
METRICS = {  # name -> better
    **{
        f"{workload['name']}/{metric['name']}": metric["better"]
        for workload in BENCHMARK["workloads"]
        for metric in BENCHMARK["end_to_end"]
    },
    "episode_s": "lower",
    "traced_episode_s": "lower",
    "traced_run_heap_mb": "lower",
    "big_run_maxrss_mb": "lower",
}
BIG_SCENARIO = {"n_lights": 64, "episode_ticks": 1000}


def measure(seed: int) -> dict:
    """One side's in-process sample, taken in this interpreter."""
    from agentchart.cli import build_parser, write_outputs
    from agentchart.config import build_scenario
    from agentchart.environment import EpisodeTrace
    from agentchart.evaluation import run_episode, run_search

    loaded = build_scenario({})
    scenario = loaded.scenario
    search = run_search(scenario, seed, generations=1)
    genotype, record = search.best, search.best_record
    times = []
    for _ in range(EPISODE_REPEATS):
        start = time.perf_counter()
        run_episode(scenario, genotype, seed)
        times.append(time.perf_counter() - start)
    traced_times = []
    with open(os.devnull, "w") as events, open(os.devnull, "w") as table:
        for _ in range(TRACED_REPEATS):
            start = time.perf_counter()
            traced, _ = run_episode(scenario, genotype, seed, trace=EpisodeTrace(events, table))
            traced_times.append(time.perf_counter() - start)
    with tempfile.TemporaryDirectory() as out:
        args = build_parser().parse_args(
            ["run", "--scenario", "{}", "--seed", str(seed), "--out", out, "--trace"]
        )
        tracemalloc.start()
        try:
            write_outputs(Path(out), args, loaded, search)
            heap_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        trace_log = (Path(out) / "trace.log").read_bytes()
    return {
        "episode_s": statistics.median(times),
        "traced_episode_s": statistics.median(traced_times),
        "traced_run_heap_mb": heap_peak / 2**20,
        "scores": [repr(record.score), repr(traced.score)],
        "trace_events": trace_log.count(b"\n") - 1,  # the lines after the header
        "trace_log_sha256": hashlib.sha256(trace_log).hexdigest(),
    }


def big_run_maxrss_mb(seed: int) -> float:
    """The peak RSS of a traced ``BIG_SCENARIO`` run in this interpreter."""
    from agentchart.cli import main

    with tempfile.TemporaryDirectory() as out:
        scenario = Path(out) / "scenario.json"
        scenario.write_text(json.dumps(BIG_SCENARIO))
        argv = ["run", "--scenario", str(scenario), "--seed", str(seed), "--out", out,
                "--trace", "--generations", "1", "--lambda", "1"]
        if main(argv) != 0:
            raise SystemExit("the big traced run failed")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def perfbench(tree: Path, workload: str, env: dict) -> tuple[dict, dict]:
    """One perfbench run of ``workload`` in ``tree``: its result line and,
    per operation seed, the exact counts of that seed's operations."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(PERFBENCH_SECONDS), "--trace", "0"],
        env=env, cwd=tree, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = tree / "perfbench" / "results" / f"run-{workload}-seed{SEED}-trace0.json"
    ops = json.loads(record.read_text())["operations"]
    return result, {op["seed"]: op["det"] for op in ops}


def run_side(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    sample: dict = {"attempted": 0, "failed": 0, "det": {}}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        result, sample["det"][workload] = perfbench(tree, workload, env)
        for name, metric in result["metrics"].items():
            sample[f"{workload}/{name}"] = metric["value"]
        sample["attempted"] += result["attempted"]
        sample["failed"] += result["failed"]
    for mode in ("--measure", "--big-run"):
        proc = subprocess.run(
            [sys.executable, "tools/episode_bench.py", mode],
            env=env, cwd=tree, capture_output=True, text=True, check=True,
        )
        sample.update(json.loads(proc.stdout))
    return sample


def differences(base: dict, change: dict) -> list[dict]:
    """What the two sides of a pair disagree on: the episode scores, trace.log,
    or the exact counts of an operation seed that both sides' perfbench ran."""
    found = [
        {"what": key, "base": base[key], "change": change[key]}
        for key in ("scores", "trace_log_sha256")
        if base[key] != change[key]
    ]
    for workload, ops in base["det"].items():
        other = change["det"][workload]
        found += [
            {"what": f"{workload} op seed {seed}", "base": ops[seed], "change": other[seed]}
            for seed in sorted(ops.keys() & other.keys())
            if ops[seed] != other[seed]
        ]
    return found


def tier1_s(tree: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        env=env, cwd=tree, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"tier-1 failed in {tree}:\n{proc.stdout[-2000:]}")
    return elapsed


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def working_tree() -> str:
    """The git tree object of the working tree's files, ignored ones left
    out, staged by ``git add -A`` into a scratch index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        subprocess.run(["git", "add", "-A"], cwd=ROOT, env=env, check=True)
        return subprocess.run(
            ["git", "write-tree"], cwd=ROOT, env=env, capture_output=True, text=True, check=True
        ).stdout.strip()


def extract(rev: str, directory: Path) -> Path:
    """``rev``'s files in a new directory under ``directory``.  Every such
    directory's path has the same length: a longer one reads about 0.1 MB
    more in perfbench's ``trace_replay/peak_rss_mb``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    tree = Path(tempfile.mkdtemp(dir=directory))
    with tempfile.TemporaryFile() as fh:
        fh.write(archive)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(tree)
    return tree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--tier1", action="store_true", help="also time the tier-1 suite")
    parser.add_argument("--out", help="write the report as JSON here")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--big-run", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(SEED)))
        return 0
    if args.big_run:
        print(json.dumps({"big_run_maxrss_mb": big_run_maxrss_mb(SEED)}))
        return 0
    if not args.base or args.pairs < 2:
        parser.error("--base is required and --pairs must be >= 2")

    with tempfile.TemporaryDirectory() as tmp:
        change = working_tree()
        trees = {"base": extract(args.base, Path(tmp)), "change": extract(change, Path(tmp))}
        samples: dict[str, list[dict]] = {"base": [], "change": []}
        mismatches = []
        for k in range(args.pairs):
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            pair = {side: run_side(trees[side]) for side in order}
            for side in order:
                samples[side].append(pair[side])
            mismatches += [{"pair": k, **d} for d in differences(pair["base"], pair["change"])]
            print(f"pair {k}: " + "; ".join(
                f"{side} " + ", ".join(f"{name} {pair[side][name]:.4g}" for name in METRICS)
                + f", failed {pair[side]['failed']}"
                for side in order
            ), file=sys.stderr)
        tier1 = {side: tier1_s(tree) for side, tree in trees.items()} if args.tier1 else None

    operations = {
        side: {key: sum(s[key] for s in samples[side]) for key in ("attempted", "failed")}
        for side in samples
    }
    report: dict = {
        "command": "python tools/episode_bench.py " + " ".join(sys.argv[1:]),
        "base": args.base,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "scenario": "default street-light scenario: 10 lights x 200 ticks",
        "big_run_scenario": BIG_SCENARIO,
        "pairs": args.pairs,
        "seed": SEED,
        "perfbench_seconds": PERFBENCH_SECONDS,
        "episode_repeats": EPISODE_REPEATS,
        "traced_repeats": TRACED_REPEATS,
        "metrics": {},
        "perfbench_operations": operations,
        "scores_and_trace_logs_identical": not mismatches,
        "mismatches": mismatches,
        "trace_events": samples["change"][0]["trace_events"],
    }
    for name, better in METRICS.items():
        base = [s[name] for s in samples["base"]]
        change = [s[name] for s in samples["change"]]
        wins = sum((c < b) if better == "lower" else (c > b) for b, c in zip(base, change))
        report["metrics"][name] = {
            "better": better,
            "base": summary(base),
            "change": summary(change),
            "ratio_of_medians": statistics.median(change) / statistics.median(base),
            "change_wins": f"{wins}/{args.pairs}",
        }
    if tier1 is not None:
        report["tier1_s"] = {**tier1, "runs": 1}
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    failed = any(ops["failed"] for ops in operations.values())
    return 1 if mismatches or failed else 0


if __name__ == "__main__":
    sys.exit(main())
