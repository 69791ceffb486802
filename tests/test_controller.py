import math
import random
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from agentchart.controller import (
    _EPS_HI,
    _EPS_LO,
    Connection,
    ControllerTopology,
    MutationPolicy,
    Neuron,
    activate,
    cuts,
    eval_net,
    mutate_connections,
    quantize,
    sigmoid,
)
from agentchart.errors import NonFiniteInput
from agentchart.serialize import canonical_json, topology_to_dict


def bipartite(input_ids, output_ids, rng):
    """Direct input->output topology with standard-normal weights."""
    neurons = tuple(
        [Neuron(nid, "input") for nid in input_ids] + [Neuron(nid, "output") for nid in output_ids]
    )
    pairs = [(i, o) for i in input_ids for o in output_ids]
    connections = tuple(
        Connection(f"c{k}", i, o, float(rng.normal())) for k, (i, o) in enumerate(pairs)
    )
    return ControllerTopology(neurons, connections)


def oracle_eval(topology, state, inputs):
    """Independent evaluator: networkx for the cycle/ordering decisions,
    explicit unrolling for the arithmetic."""
    import networkx as nx

    enabled = {n.id for n in topology.neurons if n.enabled}
    graph = nx.DiGraph()
    graph.add_nodes_from(enabled)
    forward, recurrent = [], []
    for c in topology.connections:
        if not c.enabled or c.from_id not in enabled or c.to_id not in enabled:
            continue
        if c.from_id == c.to_id or (
            graph.has_node(c.to_id) and nx.has_path(graph, c.to_id, c.from_id)
        ):
            recurrent.append(c)
        else:
            graph.add_edge(c.from_id, c.to_id)
            forward.append(c)
    activation = {}
    by_id = {n.id: n for n in topology.neurons if n.enabled}
    for nid in nx.topological_sort(graph):
        neuron = by_id[nid]
        if neuron.layer == "input":
            activation[nid] = inputs[nid]
            continue
        total = neuron.bias
        for c in forward:
            if c.to_id == nid:
                total += c.weight * activation[c.from_id]
        for c in recurrent:
            if c.to_id == nid:
                total += c.weight * state.get(c.from_id, 0.0)
        activation[nid] = 1.0 / (1.0 + math.exp(-total)) if total >= 0 else (
            math.exp(total) / (1.0 + math.exp(total))
        )
    outputs = {n.id: activation[n.id] for n in topology.neurons if n.enabled and n.layer == "output"}
    return outputs, activation


def random_topology(rng: random.Random, max_neurons=8):
    n_in = rng.randint(1, 3)
    n_out = rng.randint(1, 2)
    n_hidden = rng.randint(0, max_neurons - n_in - n_out)
    neurons = (
        [Neuron(f"i{k}", "input") for k in range(n_in)]
        + [Neuron(f"h{k}", "hidden", bias=rng.uniform(-1, 1)) for k in range(n_hidden)]
        + [Neuron(f"o{k}", "output", bias=rng.uniform(-1, 1)) for k in range(n_out)]
    )
    ids = [n.id for n in neurons]
    connections = []
    for k in range(rng.randint(0, 12)):
        connections.append(
            Connection(
                f"c{k}",
                rng.choice(ids),
                rng.choice(ids),
                rng.uniform(-2, 2),
                enabled=rng.random() < 0.9,
            )
        )
    return ControllerTopology(tuple(neurons), tuple(connections))


class TestEvalNet:
    def test_zero_weights_give_half(self):
        topo = ControllerTopology(
            (Neuron("i0", "input"), Neuron("o0", "output")),
            (Connection("c0", "i0", "o0", 0.0),),
        )
        outputs, _ = eval_net(topo, {}, {"i0": 0.7})
        assert outputs["o0"] == 0.5

    def test_ln3_edge_gives_three_quarters(self):
        topo = ControllerTopology(
            (Neuron("i0", "input"), Neuron("o0", "output")),
            (Connection("c0", "i0", "o0", math.log(3.0)),),
        )
        outputs, _ = eval_net(topo, {}, {"i0": 1.0})
        assert outputs["o0"] == pytest.approx(0.75, abs=1e-12)

    def test_recurrent_two_tick_matches_unrolled_oracle(self):
        topo = ControllerTopology(
            (Neuron("i0", "input"), Neuron("h0", "hidden", bias=0.3), Neuron("o0", "output")),
            (
                Connection("c0", "i0", "h0", 0.8),
                Connection("c1", "h0", "o0", -1.1),
                Connection("c2", "o0", "h0", 0.6),  # closes a cycle: recurrent
            ),
        )
        state = {}
        oracle_state = {}
        for tick_inputs in ({"i0": 0.2}, {"i0": 0.9}):
            outputs, state = eval_net(topo, state, tick_inputs)
            expected, oracle_state = oracle_eval(topo, oracle_state, tick_inputs)
            assert outputs["o0"] == pytest.approx(expected["o0"], abs=1e-12)

    def test_equals_oracle_exactly_over_ticks(self):
        # the same float operations in the same order as the oracle: no
        # tolerance, on the outputs and on the state carried between ticks
        rng = random.Random(17)
        seen = dict.fromkeys(("into_input", "self_loop", "disabled_neuron", "disabled_edge"), 0)
        for _ in range(300):
            topo = random_topology(rng)
            topo = replace(
                topo,
                neurons=tuple(replace(n, enabled=rng.random() < 0.85) for n in topo.neurons),
            )
            layer = {n.id: n.layer for n in topo.neurons}
            seen["into_input"] += any(layer[c.to_id] == "input" for c in topo.connections)
            seen["self_loop"] += any(c.from_id == c.to_id for c in topo.connections)
            seen["disabled_neuron"] += not all(n.enabled for n in topo.neurons)
            seen["disabled_edge"] += not all(c.enabled for c in topo.connections)
            state = oracle_state = {}
            for _ in range(4):
                inputs = {n.id: rng.uniform(-1, 1) for n in topo.neurons if n.layer == "input"}
                outputs, state = eval_net(topo, state, inputs)
                expected, oracle_state = oracle_eval(topo, oracle_state, inputs)
                assert outputs == expected
                assert state == oracle_state
        assert all(seen.values()), seen

    def test_non_finite_input_rejected(self):
        topo = bipartite(["i0"], ["o0"], np.random.default_rng(0))
        with pytest.raises(NonFiniteInput):
            eval_net(topo, {}, {"i0": float("nan")})

    def test_outputs_strictly_inside_unit_interval(self):
        rng = random.Random(5)
        for _ in range(50):
            topo = random_topology(rng)
            inputs = {n.id: rng.uniform(-1, 2) for n in topo.neurons if n.layer == "input"}
            outputs, _ = eval_net(topo, {}, inputs)
            assert all(0.0 < v < 1.0 for v in outputs.values())

    def test_disabled_connection_equals_deleted(self):
        rng = random.Random(11)
        for _ in range(30):
            topo = random_topology(rng)
            if not topo.connections:
                continue
            victim = rng.randrange(len(topo.connections))
            disabled = ControllerTopology(
                topo.neurons,
                tuple(
                    c if k != victim else Connection(c.id, c.from_id, c.to_id, c.weight, False)
                    for k, c in enumerate(topo.connections)
                ),
            )
            deleted = ControllerTopology(
                topo.neurons,
                tuple(c for k, c in enumerate(topo.connections) if k != victim),
            )
            inputs = {n.id: rng.uniform(0, 1) for n in topo.neurons if n.layer == "input"}
            state = {n.id: rng.uniform(0, 1) for n in topo.neurons}
            out_a, _ = eval_net(disabled, state, inputs)
            out_b, _ = eval_net(deleted, state, inputs)
            assert out_a == pytest.approx(out_b, abs=1e-15)

    def test_replaced_topology_gets_its_own_plan(self):
        topo = bipartite(["a"], ["o"], np.random.default_rng(0))
        weight = topo.connections[0].weight
        assert eval_net(topo, {}, {"a": 1.0})[0] == {"o": sigmoid(weight)}
        negated = replace(topo, connections=(replace(topo.connections[0], weight=-weight),))
        assert "eval_plan" not in vars(negated)
        assert eval_net(negated, {}, {"a": 1.0})[0] == {"o": sigmoid(-weight)}
        assert negated.eval_plan is not topo.eval_plan

    def test_feedforward_net_is_state_independent(self):
        rng = np.random.default_rng(3)
        topo = bipartite(["i0", "i1"], ["o0"], rng)
        inputs = {"i0": 0.4, "i1": 0.9}
        out_empty, _ = eval_net(topo, {}, inputs)
        out_loaded, _ = eval_net(topo, {"o0": 0.99, "i0": 0.1}, inputs)
        assert out_empty == out_loaded


class TestMutateConnections:
    def test_weights_only_when_toggle_and_add_off(self):
        rng = np.random.default_rng(42)
        topo = bipartite(["i0", "i1"], ["o0", "o1"], rng)
        policy = MutationPolicy(weight_sigma=0.3, toggle_prob=0.0, add_prob=0.0)
        mutated = mutate_connections(topo, np.random.default_rng(1), policy)
        assert mutated.neurons == topo.neurons
        assert len(mutated.connections) == len(topo.connections)
        for before, after in zip(topo.connections, mutated.connections):
            assert after.enabled == before.enabled
            assert after.weight != before.weight

    def test_empty_topology_unchanged(self):
        topo = ControllerTopology()
        mutated = mutate_connections(topo, np.random.default_rng(0), MutationPolicy())
        assert mutated == topo

    def test_seed_determinism(self):
        topo = bipartite(["i0", "i1", "i2"], ["o0", "o1"], np.random.default_rng(9))
        policy = MutationPolicy(weight_sigma=0.4, toggle_prob=0.3, add_prob=0.9)
        a = mutate_connections(topo, np.random.default_rng(77), policy)
        b = mutate_connections(topo, np.random.default_rng(77), policy)
        assert canonical_json(topology_to_dict(a)) == canonical_json(topology_to_dict(b))

    def test_neuron_set_and_layers_preserved(self):
        rng = random.Random(21)
        policy = MutationPolicy(weight_sigma=1.0, toggle_prob=0.5, add_prob=1.0)
        for k in range(25):
            topo = random_topology(rng)
            mutated = mutate_connections(topo, np.random.default_rng(k), policy)
            assert mutated.neurons == topo.neurons

    def test_sigmoid_strictly_inside_unit_interval(self):
        assert 0.0 < sigmoid(1000.0) < 1.0
        assert 0.0 < sigmoid(-1000.0) < 1.0
        assert sigmoid(0.0) == 0.5


def reference_sigmoid(x):
    """The two-sided clamp form that the one-sided clamps replaced."""
    if x >= 0:
        y = 1.0 / (1.0 + math.exp(-x))
    else:
        z = math.exp(x)
        y = z / (1.0 + z)
    return min(max(y, _EPS_LO), _EPS_HI)


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(0.0)
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(5e-324)
@example(-5e-324)
@example(40.0)
@example(709.0)
@example(-709.0)
@example(745.0)
@example(-745.0)
def test_sigmoid_matches_two_sided_clamp_bit_for_bit(x):
    got, want = sigmoid(x), reference_sigmoid(x)
    assert (math.isnan(got) and math.isnan(want)) or (
        struct.pack("<d", got) == struct.pack("<d", want)
    )


LEVEL_COUNTS = range(2, 7)


def level_names(k):
    return tuple(f"L{i}" for i in range(k))


def cut_rule(totals, k, cut=True):
    """The level of each of ``totals`` among ``k``, from one ``activate`` call
    over outputs with no edges and those biases, with ``cuts(k)``, as for
    outputs that no edge reads, or without; and the slots it left."""
    levels = level_names(k)
    out = cuts(k) if cut else None
    steps = tuple((j, total, (), (), (out, levels, j)) for j, total in enumerate(totals))
    act, acted = [-1.0] * len(totals), [None] * len(totals)
    activate(steps, act, [0.0] * len(totals), acted)
    return acted, act


@pytest.mark.parametrize("k", LEVEL_COUNTS)
def test_cuts_bracket_each_logit_in_a_window(k):
    ends = cuts(k)
    assert list(ends) == sorted(ends) and len(ends) == 2 * k - 1 and ends[-1] == math.inf
    for i in range(1, k):
        c = math.log(i / (k - i))
        assert ends[2 * i - 2] < c < ends[2 * i - 1]
        assert ends[2 * i - 1] - ends[2 * i - 2] == pytest.approx(2e-9 * (1 + abs(c)))


@pytest.mark.parametrize("k", LEVEL_COUNTS)
def test_cut_rule_equals_quantized_sigmoid_near_every_edge(k):
    # every float within 4,096 steps of each window end and each logit: a
    # sum outside every window is decided by the cut, one in a window takes
    # the sigmoid, and the two must meet without a seam
    logits = [math.log(i / (k - i)) for i in range(1, k)]
    totals = []
    for point in (*cuts(k)[:-1], *logits):
        below = above = point
        totals.append(point)
        for _ in range(4096):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            totals += (below, above)
    acted, act = cut_rule(totals, k)
    assert acted == [quantize(sigmoid(x), level_names(k)) for x in totals]
    # a decided sum leaves its slot as it was, a windowed one writes its
    # sigmoid: both paths are taken
    assert 0 < act.count(-1.0) < len(totals)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=16),
    st.sampled_from(LEVEL_COUNTS),
)
@example([1e308, -1e308, math.inf, -math.inf, 0.0, -0.0, 5e-324], 2)
@example([1e308, -1e308, math.inf, -math.inf, 0.0, -0.0, 5e-324], 3)
@example([1e308, -1e308, math.inf, -math.inf, 0.0, -0.0, 5e-324], 6)
def test_cut_rule_equals_quantized_sigmoid(totals, k):
    expected = [quantize(sigmoid(x), level_names(k)) for x in totals]
    assert cut_rule(totals, k)[0] == expected
    # without cuts, as for an output that an edge reads, every slot gets its sigmoid
    acted, act = cut_rule(totals, k, cut=False)
    assert acted == expected and act == [sigmoid(x) for x in totals]


@pytest.mark.parametrize("k", LEVEL_COUNTS)
@pytest.mark.parametrize("cut", [True, False])
def test_nan_sum_raises_non_finite_input_through_activate(k, cut):
    with pytest.raises(NonFiniteInput, match="output value is not finite: nan"):
        cut_rule([0.0, math.nan], k, cut)
    # a NaN weight on a finite input gives the same NaN sum
    steps = ((1, 0.0, ((0, math.nan),), (), (cuts(k) if cut else None, level_names(k), 0)),)
    with pytest.raises(NonFiniteInput):
        activate(steps, [0.5, 0.0], [0.0, 0.0], [None])
