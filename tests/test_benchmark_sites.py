"""The benchmark in perfbench/ wraps program functions by name; these
checks fail in the suite when a rename or deletion would make traced
benchmark runs report missing layer functions."""

import importlib
import inspect
import math
import runpy
from pathlib import Path

import pytest

from agentchart import evaluation
from agentchart.streetlight import AmbientProfile, PeopleProcess, StreetLightScenario

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def owner_of(target: str):
    """The module, or the class in it, that ``module`` or ``module:Class`` names."""
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


SITES = [
    (layer, target, attr)
    for layer, sites in runpy.run_path(str(WORKLOADS))["LAYER_SITES"].items()
    for target, attr in sites
]


@pytest.mark.parametrize("layer,target,attr", SITES, ids=[f"{t}.{a}" for _, t, a in SITES])
def test_layer_site_resolves(layer, target, attr):
    # as the tracer installs its spans: the attribute must be the owner's own
    assert callable(owner_of(target).__dict__.get(attr)), f"{layer}: {target}.{attr} not found"


def test_run_episode_binds_scenario_and_genotype_by_name():
    parameters = inspect.signature(evaluation.run_episode).parameters
    assert {"scenario", "genotype"} <= set(parameters)


def test_search_calls_run_episode_once_per_history_entry():
    # perfbench's EpisodeCapture wraps evaluation.run_episode and fails an
    # operation whose call count differs from run_manifest.json's episodes,
    # len(history): the search's score memo must sit under that call, never
    # skip it.  Seed 4 repeats genotypes, so the memo is hit.
    scenario = StreetLightScenario(
        n_lights=2,
        episode_ticks=10,
        ambient=AmbientProfile(kind="cosine", period=10),
        people=PeopleProcess(kind="random", rate=0.5),
    )
    calls, built = [], []
    run_episode, build_env = evaluation.run_episode, StreetLightScenario.build_env

    def counting_run_episode(*args, **kwargs):
        calls.append(args)
        return run_episode(*args, **kwargs)

    def counting_build_env(self, *args, **kwargs):
        built.append(args)
        return build_env(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "run_episode", counting_run_episode)
        mp.setattr(StreetLightScenario, "build_env", counting_build_env)
        result = evaluation.run_search(scenario, seed=4, generations=30, lam=4)
    assert len(calls) == len(result.history)
    assert len(built) < sum(math.isfinite(r.score) for r in result.history)


# names perfbench/worker.py reads outside the layer sites; nothing else in the
# program reads n_agents or calls genotype_operable
WORKER_NAMES = [
    ("agentchart.evaluation", "genotype_operable"),
    ("agentchart.streetlight:StreetLightScenario", "n_agents"),
    ("agentchart.evaluation", "initial_genotype"),
    ("agentchart.config", "load_scenario"),
    ("agentchart.cli", "build_parser"),
]


@pytest.mark.parametrize("target,attr", WORKER_NAMES, ids=[f"{t}.{a}" for t, a in WORKER_NAMES])
def test_worker_name_exists(target, attr):
    assert hasattr(owner_of(target), attr), f"{target}.{attr} not found"
