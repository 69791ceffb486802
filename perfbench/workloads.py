"""The benchmark's workloads, metrics and the inputs it generates for them.

Every operation is one ``agentchart run`` invocation in a fresh interpreter,
so each starts with the program's memo caches cold, as a user's run does.
Load model for all workloads: a closed loop with one client; the next
operation starts only after the previous one has finished.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    n_lights: int
    ticks: int
    generations: int
    lam: int
    jobs: int
    trace: bool  # pass --trace: the best agent's episode is re-run traced and measured alone
    min_ops: int  # operations every run makes; best_score is their median
    why: str

    def scenario(self) -> dict:
        return {"n_lights": self.n_lights, "episode_ticks": self.ticks}

    def argv(self, scenario: Path, seed: int, out: Path) -> list[str]:
        argv = [
            "run", "--scenario", str(scenario), "--seed", str(seed),
            "--generations", str(self.generations), "--lambda", str(self.lam),
            "--jobs", str(self.jobs), "--out", str(out),
        ]
        return argv + ["--trace"] if self.trace else argv

    def load_model(self) -> str:
        return f"closed loop, 1 client, jobs={self.jobs}"

    def summary(self) -> str:
        """Parameters, load model and reason in one line, as BENCHMARK.json gives them."""
        trace = ", --trace" if self.trace else ""
        return (
            f"{self.n_lights} lights x {self.ticks} ticks, {self.generations} gen, "
            f"lambda {self.lam}{trace}; {self.load_model()}. {self.why}"
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search_default", 10, 200, 30, 4, 1, False, 5,
            "North-star search: agent stepping and Environment.step do the work; "
            "the dispatch memo bypasses the statechart.",
        ),
        Workload(
            "trace_replay", 10, 200, 1, 1, 1, True, 15,
            "The seeded genotype's traced episode, written as run --trace does, "
            "timed alone; the uncached statechart does the most.",
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same workload at a size that runs in about a second."""
    return replace(
        workload,
        n_lights=min(workload.n_lights, 6),
        ticks=min(workload.ticks, 20),
        generations=min(workload.generations, 3),
        lam=min(workload.lam, 2),
        min_ops=1,
    )


def op_seed(seed: int, index: int) -> int:
    """The ``--seed`` of operation ``index`` in a run with benchmark seed ``seed``."""
    return 1000 * seed + index


def write_scenario(workload: Workload, directory: Path, seed: int) -> Path:
    path = directory / f"scenario-{workload.name}-{seed}.json"
    path.write_text(json.dumps(workload.scenario(), sort_keys=True) + "\n")
    return path


# name -> (unit, better); the end-to-end ones come from untraced runs only
END_TO_END = {
    "setup_s": ("s", "lower"),
    "agent_ticks_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# Printed and recorded with the end-to-end metrics but left out of the result
# line.  best_score is exact for a seed, yet its spread between seeds is about
# 0.3 of its median for one search, more than any bound may be; run.py checks
# it for exact repeats instead.  failed_ratio is 0 when the program is correct;
# the result line carries it as failed / attempted.
BEST_SCORE = ("best_score", "score")
# setup_s and agent_ticks_per_s in plain wall-clock seconds, without the
# scaling to a host of fixed speed; printed and recorded for comparison
UNSCALED = {"setup_s_unscaled": "s", "agent_ticks_per_s_unscaled": "1/s"}

# layer metric name -> the functions it wraps, each at the name its caller
# looks it up by: (module path or "module:Class", attribute)
LAYER_SITES = {
    "statechart.dispatch": [("agentchart.statechart", "dispatch")],
    "statechart.initialize": [("agentchart.statechart", "initialize")],
    "controller.eval_net": [("agentchart.body", "eval_net")],
    "controller.mutate_connections": [("agentchart.evaluation", "mutate_connections")],
    "body.step_agent": [("agentchart.evaluation", "step_agent")],
    "body.derive_controller": [("agentchart.evaluation", "derive_controller")],
    "environment.step": [("agentchart.environment:Environment", "step")],
    "environment.apply_effects": [("agentchart.environment:Environment", "apply_effects")],
    "environment.perceive": [("agentchart.environment:Environment", "perceive")],
    "environment.snapshot_row": [("agentchart.evaluation", "snapshot_row")],
    "evaluation.run_episode": [
        ("agentchart.evaluation", "run_episode"),
        ("agentchart.cli", "run_episode"),
    ],
    "evaluation.run_search": [("agentchart.cli", "run_search")],
    "evaluation.genotype_digest": [
        ("agentchart.evaluation", "genotype_digest"),
        ("agentchart.cli", "genotype_digest"),
    ],
    "streetlight.build_env": [("agentchart.streetlight:StreetLightScenario", "build_env")],
    "streetlight.streetlight_score": [("agentchart.streetlight", "streetlight_score")],
    "config.load_scenario": [("agentchart.cli", "load_scenario")],
    "cli.write_outputs": [("agentchart.cli", "write_outputs")],
}

CALL_COUNTS = (
    "statechart.dispatch",
    "statechart.initialize",
    "controller.eval_net",
    "body.step_agent",
    "environment.step",
    "evaluation.run_episode",
)
RATIOS = {
    "body.dispatch_memo_hit_ratio": "higher",
    "evaluation.accept_ratio": "higher",
    "evaluation.inoperable_ratio": "lower",
    "trace.overhead_ratio": "lower",
}


def per_layer() -> dict[str, tuple[str, str]]:
    """Every per-layer metric in report order: name -> (unit, better)."""
    metrics: dict[str, tuple[str, str]] = {}
    for layer in LAYER_SITES:
        if layer in CALL_COUNTS:
            metrics[f"{layer}.calls"] = ("count", "lower")
        metrics[f"{layer}.self_s"] = ("s", "lower")
    for name, better in RATIOS.items():
        metrics[name] = ("ratio", better)
    return metrics
