"""Statechart-hosted embodied agents with neuroevolutionary training.

A hierarchical statechart engine hosts configurable agent bodies whose
neural-network controllers mirror the enabled devices; agents perturb a
shared environment and are scored per episode under context-dependent
weights, driving an adjust/reconfigure (1+λ) search.  The street-light
scenario and CLI tie the pieces together.
"""

from .body import (
    ActionSet,
    Agent,
    BodyConfig,
    DeviceSpec,
    Percept,
    configure_body,
    derive_controller,
    step_agent,
)
from .controller import (
    Connection,
    ControllerState,
    ControllerTopology,
    MutationPolicy,
    Neuron,
    eval_net,
    mutate_connections,
)
from .environment import Environment, EpisodeTrace, TickSnapshot
from .evaluation import (
    EvaluationRecord,
    Genotype,
    SearchPolicy,
    decide,
    run_episode,
    run_search,
)
from .statechart import (
    Configuration,
    Event,
    StateNode,
    Statechart,
    TraceEvent,
    Transition,
    build_chart,
    dispatch,
    initialize,
)
from .streetlight import StreetLightScenario, streetlight_score

__version__ = "0.1.0"
