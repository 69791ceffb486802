"""Time a change against a base revision: default searches and single episodes.

    python tools/episode_bench.py --base REV [--pairs 10] [--tier1] [--out FILE]

The base revision is extracted with ``git archive`` into a temporary
directory; the change is the working tree this script lives in.  Each pair
runs one fresh interpreter per side, alternating which side goes first, and
both sides of a pair use the same seed.  A side measures, on the default
street-light scenario (10 lights, 200 ticks):

- ``search_s``: one ``run_search`` (30 generations, lambda 4);
- ``search_agent_ticks_per_s``: the agent ticks of that search's operable
  episodes per second;
- ``episode_s``: the median of ``EPISODE_REPEATS`` untraced ``run_episode``
  calls of the initial genotype, after one untimed call;
- ``traced_episode_s``: the median of ``TRACED_REPEATS`` traced
  ``run_episode`` calls of the same genotype.

The report gives each side's median and quartiles, the change's median
over the base's, and how many pairs the change won.  The two sides must
agree on every search's best score and every episode's score, or the
script exits 1.  With ``--tier1`` it also times the tier-1 suite once per
side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EPISODE_REPEATS = 7
TRACED_REPEATS = 3
METRICS = {  # name -> better
    "search_s": "lower",
    "search_agent_ticks_per_s": "higher",
    "episode_s": "lower",
    "traced_episode_s": "lower",
}


def measure(seed: int) -> dict:
    """One side's sample, taken in this interpreter."""
    import math

    from agentchart.evaluation import initial_genotype, run_episode, run_search
    from agentchart.streetlight import StreetLightScenario

    scenario = StreetLightScenario()
    start = time.perf_counter()
    result = run_search(scenario, seed=seed, generations=30, lam=4)
    search_s = time.perf_counter() - start
    operable = sum(math.isfinite(r.score) for r in result.history)

    genotype = initial_genotype(scenario, seed)
    record, _ = run_episode(scenario, genotype, seed)
    times = []
    for _ in range(EPISODE_REPEATS):
        start = time.perf_counter()
        run_episode(scenario, genotype, seed)
        times.append(time.perf_counter() - start)
    traced_times = []
    for _ in range(TRACED_REPEATS):
        start = time.perf_counter()
        traced, trace = run_episode(scenario, genotype, seed, collect_events=True)
        traced_times.append(time.perf_counter() - start)
    return {
        "search_s": search_s,
        "search_agent_ticks_per_s": operable * scenario.n_agents * scenario.episode_ticks / search_s,
        "episode_s": statistics.median(times),
        "traced_episode_s": statistics.median(traced_times),
        "scores": [repr(result.best_record.score), repr(record.score), repr(traced.score)],
        "trace_events": len(trace.events),
    }


def run_side(tree: Path, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", str(seed)],
        env=env, cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


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


def extract(rev: str, directory: Path) -> Path:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    tree = directory / "base"
    tree.mkdir()
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
    parser.add_argument("--measure", type=int, metavar="SEED", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure is not None:
        print(json.dumps(measure(args.measure)))
        return 0
    if not args.base or args.pairs < 2:
        parser.error("--base is required and --pairs must be >= 2")

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": extract(args.base, Path(tmp)), "change": ROOT}
        samples: dict[str, list[dict]] = {"base": [], "change": []}
        mismatches = []
        for k in range(args.pairs):
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            pair = {side: run_side(trees[side], seed=k) for side in order}
            for side in order:
                samples[side].append(pair[side])
            if pair["base"]["scores"] != pair["change"]["scores"]:
                mismatches.append({"seed": k, **{s: pair[s]["scores"] for s in order}})
            print(f"pair {k}: " + ", ".join(
                f"{side} {pair[side]['search_s']:.3f}s/{pair[side]['episode_s'] * 1e3:.2f}ms"
                for side in order
            ), file=sys.stderr)
        tier1 = {side: tier1_s(tree) for side, tree in trees.items()} if args.tier1 else None

    report: dict = {
        "command": "python tools/episode_bench.py " + " ".join(sys.argv[1:]),
        "base": args.base,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "scenario": "default street-light scenario: 10 lights x 200 ticks",
        "pairs": args.pairs,
        "episode_repeats": EPISODE_REPEATS,
        "traced_repeats": TRACED_REPEATS,
        "metrics": {},
        "scores_identical": not mismatches,
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
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
