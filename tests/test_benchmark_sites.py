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


SITES = [
    (layer, target, attr)
    for layer, sites in runpy.run_path(str(WORKLOADS))["LAYER_SITES"].items()
    for target, attr in sites
]


@pytest.mark.parametrize("layer,target,attr", SITES, ids=[f"{t}.{a}" for _, t, a in SITES])
def test_layer_site_resolves(layer, target, attr):
    # as the tracer installs its spans: the attribute must be the owner's own
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    if cls:
        owner = getattr(owner, cls)
    assert callable(owner.__dict__.get(attr)), f"{layer}: {target}.{attr} not found"


def test_run_episode_binds_scenario_and_genotype_by_name():
    parameters = inspect.signature(evaluation.run_episode).parameters
    assert {"scenario", "genotype"} <= set(parameters)
