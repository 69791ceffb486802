"""Time a change against a base revision: default searches and single episodes.

    python tools/episode_bench.py --base REV [--pairs 10] [--tier1] [--out FILE]

The base revision is extracted with ``git archive`` into a temporary
directory; the change is the working tree this script lives in.  Each pair
runs one fresh interpreter per side, alternating which side goes first, and
both sides of a pair use the same seed.  A side measures, on the default
street-light scenario (10 lights, 200 ticks):

- ``search_s``: one ``run_search`` (30 generations, lambda 4), scaled to
  a host of fixed speed: a fixed pure-Python loop (``reference_s``, the
  same loop as perfbench's ``worker.reference_s``) is timed
  ``REFERENCE_SAMPLES`` times before and after the search, and the search
  time counts as ``time * REFERENCE_S / median loop time``;
- ``search_agent_ticks_per_s``: the agent ticks of that search's operable
  episodes per scaled second.  A search runs each distinct genotype's
  episode once and gives a repeat the stored score, so the ticks of those
  memo hits count here though they were not run again;
- ``search_s_raw`` and ``search_agent_ticks_per_s_raw``: the same two in
  plain wall-clock time;
- ``episode_s``: the median of ``EPISODE_REPEATS`` untraced ``run_episode``
  calls of the initial genotype, after one untimed call;
- ``traced_episode_s``: the median of ``TRACED_REPEATS`` traced
  ``run_episode`` calls of the same genotype, writing to a sink that
  discards the text;
- ``traced_run_s``: the median of ``TRACED_REPEATS`` calls of
  ``cli.write_outputs`` with ``--trace`` for the same genotype, that is the
  traced episode plus writing ``trace.log`` and ``episode.csv`` (and the
  three small artifacts ahead of them), as ``run --trace`` ends;
- ``traced_run_heap_mb``: the ``tracemalloc`` peak of one more such
  ``cli.write_outputs`` call, made after the timed ones;
- ``big_run_maxrss_mb``: the peak RSS (``ru_maxrss``) of one
  ``agentchart run --trace --generations 1 --lambda 1`` of 64 lights x
  1,000 ticks in a fresh interpreter of its own.

The report gives each side's median and quartiles, the change's median
over the base's, and how many pairs the change won.  ``searches`` lists,
per pair, the search's episodes (``len(history)``) and, per side, the
episodes it ran (``StreetLightScenario.build_env`` calls, one per episode
actually run).  The two sides must agree on every search's best score and
episode count, every episode's score and the bytes of ``trace.log``, or
the script exits 1.  ``trace_events`` is the number of event lines in the
change's ``trace.log``.  With ``--tier1`` it also times the tier-1 suite
once per side.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
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
EPISODE_REPEATS = 31
TRACED_REPEATS = 7
# timings of the reference loop taken before and after the search, and the
# loop time of the fixed-speed host the search time is scaled to (perfbench's)
REFERENCE_SAMPLES = 3
REFERENCE_S = 0.020
METRICS = {  # name -> better
    "search_s": "lower",
    "search_agent_ticks_per_s": "higher",
    "search_s_raw": "lower",
    "search_agent_ticks_per_s_raw": "higher",
    "episode_s": "lower",
    "traced_episode_s": "lower",
    "traced_run_s": "lower",
    "traced_run_heap_mb": "lower",
    "big_run_maxrss_mb": "lower",
}
BIG_SCENARIO = {"n_lights": 64, "episode_ticks": 1000}


def reference_s() -> float:
    """Time of a fixed pure-Python loop that calls nothing of agentchart:
    how fast the host runs this process now."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - start


def traced_episode(run_episode, scenario, genotype, seed):
    """A traced ``run_episode`` whose text is discarded; a base revision
    from before the trace sink takes ``collect_events`` instead."""
    if "collect_events" in inspect.signature(run_episode).parameters:
        return run_episode(scenario, genotype, seed, collect_events=True)
    with open(os.devnull, "w") as sink:
        return run_episode(scenario, genotype, seed, trace=sink)


def measure(seed: int) -> dict:
    """One side's sample, taken in this interpreter."""
    import math

    from agentchart.cli import build_parser, write_outputs
    from agentchart.config import build_scenario
    from agentchart.evaluation import SearchResult, initial_genotype, run_episode, run_search
    from agentchart.streetlight import StreetLightScenario

    loaded = build_scenario({})
    scenario = loaded.scenario
    built = []
    build_env = StreetLightScenario.build_env

    def counting_build_env(self, *args, **kwargs):
        built.append(None)
        return build_env(self, *args, **kwargs)

    reference = [reference_s() for _ in range(REFERENCE_SAMPLES)]
    StreetLightScenario.build_env = counting_build_env
    try:
        start = time.perf_counter()
        result = run_search(scenario, seed=seed, generations=30, lam=4)
        search_s = time.perf_counter() - start
    finally:
        StreetLightScenario.build_env = build_env
    reference += [reference_s() for _ in range(REFERENCE_SAMPLES)]
    scaled_s = search_s * REFERENCE_S / statistics.median(reference)
    operable = sum(math.isfinite(r.score) for r in result.history)
    agent_ticks = operable * scenario.n_agents * scenario.episode_ticks

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
        traced, _ = traced_episode(run_episode, scenario, genotype, seed)
        traced_times.append(time.perf_counter() - start)
    with tempfile.TemporaryDirectory() as out:
        args = build_parser().parse_args(
            ["run", "--scenario", "{}", "--seed", str(seed), "--out", out, "--trace"]
        )
        best = SearchResult(genotype, record, [record], [])
        run_times = []
        for _ in range(TRACED_REPEATS):
            start = time.perf_counter()
            write_outputs(Path(out), args, loaded, best)
            run_times.append(time.perf_counter() - start)
        tracemalloc.start()
        try:
            write_outputs(Path(out), args, loaded, best)
            heap_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        trace_log = (Path(out) / "trace.log").read_bytes()
    return {
        "search_s": scaled_s,
        "search_agent_ticks_per_s": agent_ticks / scaled_s,
        "search_s_raw": search_s,
        "search_agent_ticks_per_s_raw": agent_ticks / search_s,
        "reference_s": reference,
        "search_episodes": len(result.history),
        "search_episodes_run": len(built),
        "episode_s": statistics.median(times),
        "traced_episode_s": statistics.median(traced_times),
        "traced_run_s": statistics.median(run_times),
        "traced_run_heap_mb": heap_peak / 2**20,
        "scores": [repr(result.best_record.score), repr(record.score), repr(traced.score)],
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


def run_side(tree: Path, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    sample = {}
    for mode in ("--measure", "--big-run"):
        proc = subprocess.run(
            [sys.executable, __file__, mode, str(seed)],
            env=env, cwd=tree, capture_output=True, text=True, check=True,
        )
        sample.update(json.loads(proc.stdout))
    return sample


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
    parser.add_argument("--big-run", type=int, metavar="SEED", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure is not None:
        print(json.dumps(measure(args.measure)))
        return 0
    if args.big_run is not None:
        print(json.dumps({"big_run_maxrss_mb": big_run_maxrss_mb(args.big_run)}))
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
            compared = ("scores", "search_episodes", "trace_log_sha256")
            if any(pair["base"][key] != pair["change"][key] for key in compared):
                mismatches.append(
                    {"seed": k, **{s: [pair[s][key] for key in compared] for s in order}}
                )
            print(f"pair {k}: " + ", ".join(
                f"{side} {pair[side]['search_s']:.3f}s/{pair[side]['episode_s'] * 1e3:.2f}ms"
                f"/{pair[side]['big_run_maxrss_mb']:.1f}MB"
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
        "big_run_scenario": BIG_SCENARIO,
        "pairs": args.pairs,
        "episode_repeats": EPISODE_REPEATS,
        "traced_repeats": TRACED_REPEATS,
        "reference_samples": 2 * REFERENCE_SAMPLES,
        "reference_loop_s": REFERENCE_S,
        "metrics": {},
        "searches": [
            {
                "seed": k,
                "episodes": samples["change"][k]["search_episodes"],
                "episodes_run": {s: samples[s][k]["search_episodes_run"] for s in samples},
            }
            for k in range(args.pairs)
        ],
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
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
