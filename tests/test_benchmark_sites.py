"""The benchmark in perfbench/ wraps program functions by name; these
checks fail in the suite when a rename or deletion would make traced
benchmark runs report missing layer functions."""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

from agentchart import evaluation

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


# names perfbench/worker.py reads outside the layer sites; nothing else in the
# program calls the first two
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
