"""One benchmark sample in a fresh interpreter; prints one JSON line.

    worker.py setup --scenario FILE --seed N
        time to import agentchart, load the scenario through
        ``config.load_scenario`` and build the initial genotype.
    worker.py op [--trace] [--spans FILE] -- <agentchart run arguments>
        one timed ``agentchart.cli.main(["run", ...])`` between timings of
        a fixed reference loop, followed by the output checks, untimed.
        With ``--trace`` every layer function is wrapped in a span (see
        spans.py) and per-layer totals are reported.

Run by run.py with PYTHONPATH pointing at the checkout's ``src``.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# traced and untraced runs of the same genotype and seed must agree this closely
TRACE_SCORE_RTOL = 1e-9
# layer call counts that must repeat exactly for the same code and seed: the
# episodes run, and the two counts body.dispatch_memo_hit_ratio is made of
REPEATED_CALLS = ("evaluation.run_episode", "statechart.dispatch", "body.step_agent")
# timings of the reference loop taken after a set-up, and before and after
# an operation
REFERENCE_SAMPLES = 3


def reference_s() -> float:
    """Time of a fixed pure-Python loop: how fast the host runs this process now.

    A shared host's speed drifts by a third over minutes; the loop, timed
    next to each sample, lets run.py scale the sample's time to a host of
    fixed speed.  It calls nothing of agentchart, so no change to the
    program moves it.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - start


def setup(scenario: str, seed: int) -> dict:
    import agentchart
    from agentchart.config import load_scenario
    from agentchart.evaluation import initial_genotype

    loaded = load_scenario(scenario)
    initial_genotype(loaded.scenario, seed)
    setup_s = time.perf_counter() - _T0
    reference = [reference_s() for _ in range(REFERENCE_SAMPLES)]

    import platform

    import numpy

    return {
        "setup_s": setup_s,
        "reference_s": reference,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "agentchart": agentchart.__file__,
    }


def _resolve(target: str):
    import importlib

    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class EpisodeCapture:
    """Records every run_episode call's genotype, result and start time.

    It wraps the function where run_search and the CLI look it up, costs
    one list append per episode, and is installed in traced and untraced
    runs alike.
    """

    def __init__(self):
        import inspect

        from agentchart import cli, evaluation

        self.sites = [(evaluation, "run_episode"), (cli, "run_episode")]
        self.original = evaluation.run_episode
        self.signature = inspect.signature(self.original)
        self.episodes: list[tuple] = []  # (scenario, genotype, traced, record, start)

    def __enter__(self):
        original, bind, episodes = self.original, self.signature.bind, self.episodes

        def run_episode(*args, **kwargs):
            start = time.perf_counter()
            record, trace = original(*args, **kwargs)
            call = bind(*args, **kwargs).arguments
            episodes.append(
                (call["scenario"], call["genotype"], trace.events is not None, record, start)
            )
            return record, trace

        for owner, attr in self.sites:
            setattr(owner, attr, run_episode)
        return self

    def __exit__(self, *exc):
        for owner, attr in self.sites:
            setattr(owner, attr, self.original)


def _replay_score(cli, args) -> tuple[str, str]:
    argv = [
        "replay", "--agent", str(Path(args.out) / "best_agent.json"),
        "--scenario", args.scenario, "--seed", str(args.seed),
    ]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    printed = dict(line.split("=", 1) for line in buf.getvalue().splitlines() if "=" in line)
    if code != 0:
        return f"exit {code}", ""
    return printed.get("score", ""), printed.get("config_digest", "")


def check(cli, evaluation, args, episodes: list[tuple], problems: list[str]) -> dict:
    """Check one run's artifacts; return its agent-ticks and the counts that must repeat.

    The agent-ticks are those of the episodes the operation measures: with
    ``--trace`` the traced episode only, otherwise every episode searched.
    """
    out = Path(args.out)
    best = json.loads((out / "best_agent.json").read_text())
    manifest = json.loads((out / "run_manifest.json").read_text())
    rows = [
        line.split(",")
        for line in (out / "metrics.csv").read_text().splitlines()[2:]
        if line
    ]
    best_scores = [float(row[1]) for row in rows]

    if any(b > a for a, b in zip(best_scores, best_scores[1:])):
        problems.append("metrics.csv best_score increases")
    if not best_scores or best_scores[-1] != best["score"]:
        problems.append("metrics.csv final best_score differs from best_agent.json")

    replayed, digest = _replay_score(cli, args)
    if replayed != repr(best["score"]) or digest != best["config_digest"]:
        problems.append(f"replay gave score {replayed} ({digest}), recorded {best['score']!r}")

    searched = [e for e in episodes if not e[2]]
    traced = [e for e in episodes if e[2]]
    operable = [evaluation.genotype_operable(s, g) for s, g, *_ in searched]
    for ok, (_, _, _, record, _) in zip(operable, searched):
        if ok and not math.isfinite(record.score):
            problems.append(f"operable candidate {record.episode} scored {record.score}")
        if not ok and record.score != math.inf:
            problems.append(f"inoperable candidate {record.episode} scored {record.score}")
    if len(searched) != manifest["episodes"]:
        problems.append(f"{len(searched)} episodes ran, manifest says {manifest['episodes']}")

    if args.trace:
        if len(traced) != 1:
            problems.append(f"expected one traced episode, got {len(traced)}")
        for _, _, _, record, _ in traced:
            if not math.isclose(record.score, best["score"], rel_tol=TRACE_SCORE_RTOL):
                problems.append(f"traced score {record.score!r} != untraced {best['score']!r}")
        ticks = traced[0][0].episode_ticks if traced else 0
        events = (out / "trace.log").read_text().splitlines()
        if len(events) < 2 or any(line.count("\t") != 4 for line in events[1:]):
            problems.append("trace.log is empty or malformed")
        if len((out / "episode.csv").read_text().splitlines()) != ticks + 1:
            problems.append("episode.csv does not have one row per tick")

    # inoperable candidates end before their first tick
    ran = [s for s, *_ in traced] if args.trace else [
        s for (s, *_), ok in zip(searched, operable) if ok
    ]
    agent_ticks = sum(s.n_agents * s.episode_ticks for s in ran)
    return {
        "agent_ticks": agent_ticks,
        "det": {
            "best_score": repr(best["score"]),
            "episodes": len(searched),
            "inoperable": operable.count(False),
            "accepted": sum(b < a for a, b in zip(best_scores, best_scores[1:])),
        },
        "best_score": best["score"],
    }


def op(argv: list[str], trace: bool, spans_path: str | None) -> dict:
    from agentchart import cli, evaluation

    from spans import Tracer
    from workloads import LAYER_SITES

    args = cli.build_parser().parse_args(argv)
    tracer = None
    with EpisodeCapture() as capture:
        if trace:
            tracer = Tracer(list(LAYER_SITES))
            tracer.install(
                {
                    name: [(_resolve(target), attr) for target, attr in sites]
                    for name, sites in LAYER_SITES.items()
                }
            )
        reference = [reference_s() for _ in range(REFERENCE_SAMPLES)]
        try:
            start = time.perf_counter()
            code = cli.main(argv)
            end = time.perf_counter()
            reference += [reference_s() for _ in range(REFERENCE_SAMPLES)]
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        episodes = list(capture.episodes)

    problems: list[str] = []
    if code != 0:
        problems.append(f"agentchart run exited {code}")
        result = {"agent_ticks": 0, "det": {}, "best_score": None}
    else:
        result = check(cli, evaluation, args, episodes, problems)
    # with --trace the operation measures the traced episode and its writing
    traced_start = [e[4] for e in episodes if e[2]]
    work_start = traced_start[0] if args.trace and traced_start else start
    result.update(
        wall_s=end - start,
        work_s=end - work_start,
        reference_s=reference,
        peak_rss_mb=peak_rss_mb,
        problems=problems,
    )
    if tracer is not None:
        if tracer.missing:
            problems.append("layer functions not found: " + ", ".join(tracer.missing))
        result["layers"] = tracer.layer_totals()
        result["det"].update(
            {f"{name}.calls": result["layers"][name]["calls"] for name in REPEATED_CALLS}
        )
        if spans_path:
            tracer.save(spans_path)
    return result


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        result = setup(rest[rest.index("--scenario") + 1], int(rest[rest.index("--seed") + 1]))
    else:
        split = rest.index("--")
        flags, run_argv = rest[:split], rest[split + 1:]
        spans_path = flags[flags.index("--spans") + 1] if "--spans" in flags else None
        result = op(run_argv, "--trace" in flags, spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
