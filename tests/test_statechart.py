import hashlib
import random
from dataclasses import replace

import pytest

from agentchart.body import (
    B_ROOT,
    BEHAVIOR_CHART,
    BEHAVIOR_START,
    E_IDLE,
    EFFECTOR,
    P_PROC,
    P_WAIT,
    PERCEPTION,
)
from agentchart.errors import (
    DanglingReference,
    DuplicateId,
    IllegalJoin,
    LivelockDetected,
    MalformedComposite,
)
from agentchart.statechart import (
    AND,
    BASIC,
    XOR,
    Configuration,
    Event,
    StateNode,
    TraceEvent,
    Transition,
    build_chart,
    dispatch,
    initialize,
)

from conftest import (
    EVENT_ALPHABET,
    check_configuration,
    history_motif_chart,
    random_chart,
    random_tree,
)


def body_input_chart(extra_transitions=()):
    """Fig-4 style enable/disable composite with shallow history."""
    nodes = [
        StateNode("root", XOR, ("input", "parked"), initial="input"),
        StateNode("input", XOR, ("disabled", "enabled"), initial="disabled", history="shallow"),
        StateNode("disabled"),
        StateNode("enabled"),
        StateNode("parked"),
    ]
    transitions = [
        Transition(("disabled",), "enabled", event="select"),
        Transition(("input",), "parked", event="park"),
        Transition(("parked",), "input", event="resume", to_history=True),
    ] + list(extra_transitions)
    return build_chart(nodes, transitions)


class TestBuildChart:
    def test_single_basic_root(self):
        chart = build_chart([StateNode("only")])
        assert len(chart.nodes) == 1
        assert chart.root == "only"

    def test_enable_disable_composite_with_history(self):
        chart = build_chart(
            [
                StateNode("input", XOR, ("disabled", "enabled"), initial="disabled", history="shallow"),
                StateNode("disabled"),
                StateNode("enabled"),
            ]
        )
        assert chart.nodes["input"].history == "shallow"

    def test_and_with_one_region_rejected(self):
        with pytest.raises(MalformedComposite):
            build_chart(
                [
                    StateNode("top", AND, ("r1",)),
                    StateNode("r1", XOR, ("a",), initial="a"),
                    StateNode("a"),
                ]
            )

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId):
            build_chart([StateNode("x"), StateNode("x")])

    def test_dangling_child(self):
        with pytest.raises(DanglingReference):
            build_chart([StateNode("top", XOR, ("ghost",), initial="ghost")])

    def test_xor_without_initial(self):
        with pytest.raises(MalformedComposite):
            build_chart([StateNode("top", XOR, ("a",)), StateNode("a")])

    def test_basic_region_rejected(self):
        with pytest.raises(MalformedComposite):
            build_chart(
                [
                    StateNode("top", AND, ("r1", "r2")),
                    StateNode("r1", XOR, ("a",), initial="a"),
                    StateNode("a"),
                    StateNode("r2"),
                ]
            )

    def test_deep_history_rejected(self):
        with pytest.raises(MalformedComposite):
            build_chart(
                [
                    StateNode("top", XOR, ("a",), initial="a", history="deep"),
                    StateNode("a"),
                ]
            )

    @pytest.mark.parametrize(
        "sources, target",
        [
            pytest.param(("only",), "ghost", id="unknown_target"),
            pytest.param(("ghost",), "only", id="unknown_source"),
            pytest.param(("only", "ghost"), "only", id="join_with_unknown_source"),
        ],
    )
    def test_dangling_transition(self, sources, target):
        with pytest.raises(DanglingReference):
            build_chart([StateNode("only")], [Transition(sources, target, event="e")])

    def test_transition_without_sources(self):
        with pytest.raises(MalformedComposite):
            build_chart([StateNode("only")], [Transition((), "only", event="e")])

    def test_join_in_same_region_rejected(self):
        nodes = [
            StateNode("top", AND, ("r1", "r2")),
            StateNode("r1", XOR, ("a", "b"), initial="a"),
            StateNode("a"),
            StateNode("b"),
            StateNode("r2", XOR, ("c",), initial="c"),
            StateNode("c"),
        ]
        with pytest.raises(IllegalJoin):
            build_chart(nodes, [Transition(("a", "b"), "c", event="e")])

    @pytest.mark.parametrize(
        "nodes, transitions, error",
        [
            pytest.param(
                [
                    StateNode("top", XOR, ("a", "b"), initial="a"),
                    StateNode("a"),
                    StateNode("b", XOR, ("a",), initial="a"),
                ],
                [],
                "'a' has more than one parent",
                id="two_parents",
            ),
            pytest.param(
                [StateNode("x"), StateNode("y")], [], "expected exactly one root", id="two_roots"
            ),
            pytest.param(
                [StateNode("top", BASIC, ("a",)), StateNode("a")],
                [],
                "basic state 'top' must have no children",
                id="basic_with_children",
            ),
            pytest.param(
                [StateNode("only", initial="only")],
                [],
                "basic state 'only' must have no initial state",
                id="basic_with_initial",
            ),
            pytest.param(
                [StateNode("only", history="shallow")],
                [],
                "history not permitted on basic state 'only'",
                id="basic_with_history",
            ),
            pytest.param(
                [StateNode("top", XOR)],
                [],
                "xor-composite 'top' needs at least one child",
                id="childless_xor",
            ),
            pytest.param(
                [
                    StateNode("top", AND, ("r1", "r2"), initial="r1"),
                    StateNode("r1", XOR, ("a",), initial="a"),
                    StateNode("a"),
                    StateNode("r2", XOR, ("b",), initial="b"),
                    StateNode("b"),
                ],
                [],
                "and-composite 'top' may not declare initial",
                id="and_with_initial",
            ),
            pytest.param(
                [
                    StateNode("top", AND, ("r1", "r2"), history="shallow"),
                    StateNode("r1", XOR, ("a",), initial="a"),
                    StateNode("a"),
                    StateNode("r2", XOR, ("b",), initial="b"),
                    StateNode("b"),
                ],
                [],
                "history not permitted on and-composite 'top'",
                id="and_with_history",
            ),
            pytest.param(
                [StateNode("only", "or-composite")],
                [],
                "unknown kind 'or-composite' on 'only'",
                id="unknown_kind",
            ),
            pytest.param(
                [StateNode("top", XOR, ("a", "b"), initial="a"), StateNode("a"), StateNode("b")],
                [Transition(("a",), "b", event="e", to_history=True)],
                "history target 'b' is not a shallow-history xor-composite",
                id="history_target_not_shallow_xor",
            ),
        ],
    )
    def test_malformed_structure_rejected(self, nodes, transitions, error):
        with pytest.raises(MalformedComposite, match=error):
            build_chart(nodes, transitions)

    def test_legal_join_accepted(self):
        nodes = [
            StateNode("top", AND, ("r1", "r2")),
            StateNode("r1", XOR, ("a", "b"), initial="a"),
            StateNode("a"),
            StateNode("b"),
            StateNode("r2", XOR, ("c",), initial="c"),
            StateNode("c"),
        ]
        chart = build_chart(nodes, [Transition(("a", "c"), "b", event="e")])
        assert len(chart.transitions) == 1


class TestInitialize:
    def test_lone_root(self):
        chart = build_chart([StateNode("only")])
        assert initialize(chart).active == {"only"}

    def test_body_chart_defaults_to_disabled(self):
        config = initialize(body_input_chart())
        assert {"input", "disabled"} <= set(config.active)

    def test_and_composite_activates_all_regions(self):
        chart = build_chart(
            [
                StateNode("top", AND, ("r1", "r2")),
                StateNode("r1", XOR, ("a", "b"), initial="a"),
                StateNode("a"),
                StateNode("b"),
                StateNode("r2", XOR, ("c", "d"), initial="c"),
                StateNode("c"),
                StateNode("d"),
            ]
        )
        assert initialize(chart).active == {"top", "r1", "a", "r2", "c"}

    def test_entry_actions_outermost_first(self):
        order = []
        nodes = [
            StateNode("outer", XOR, ("inner",), initial="inner",
                      entry_actions=(lambda ctx: order.append("outer"),)),
            StateNode("inner", entry_actions=(lambda ctx: order.append("inner"),)),
        ]
        initialize(build_chart(nodes))
        assert order == ["outer", "inner"]

    def test_event_emitted_on_entry_is_processed(self):
        nodes = [
            StateNode("root", XOR, ("a", "b"), initial="a"),
            StateNode("a", entry_actions=(lambda ctx: ctx.emit("go"),)),
            StateNode("b"),
        ]
        chart = build_chart(nodes, [Transition(("a",), "b", event="go")])
        trace = []
        assert initialize(chart, trace=trace).active == {"root", "b"}
        assert TraceEvent(0, "agent", "emitted", "go", "") in trace

    def test_enabled_completion_transition_fires(self):
        nodes = [StateNode("root", XOR, ("a", "b"), initial="a"), StateNode("a"), StateNode("b")]
        chart = build_chart(nodes, [Transition(("a",), "b")])
        assert initialize(chart).active == {"root", "b"}

    def test_livelock_on_entry_detected(self):
        nodes = [
            StateNode("root", XOR, ("a", "b"), initial="a"),
            StateNode("a", entry_actions=(lambda ctx: ctx.emit("ping"),)),
            StateNode("b", entry_actions=(lambda ctx: ctx.emit("ping"),)),
        ]
        transitions = [Transition(("a",), "b", event="ping"), Transition(("b",), "a", event="ping")]
        with pytest.raises(LivelockDetected):
            initialize(build_chart(nodes, transitions), queue_limit=50)


class TestDispatch:
    def test_unmatched_event_is_noop(self):
        chart = body_input_chart()
        config = initialize(chart)
        after, emitted, trace = dispatch(chart, config, Event("nope"))
        assert after == config
        assert emitted == []
        assert trace == []

    def test_select_then_history_reenters_enabled(self):
        chart = body_input_chart()
        config = initialize(chart)
        config, _, _ = dispatch(chart, config, Event("select"))
        assert "enabled" in config.active
        config, _, _ = dispatch(chart, config, Event("park"))
        assert "parked" in config.active and "input" not in config.active
        config, _, _ = dispatch(chart, config, Event("resume"))
        assert "enabled" in config.active

    def test_history_first_entry_takes_default(self):
        chart = body_input_chart()
        config = initialize(chart)
        config, _, _ = dispatch(chart, config, Event("park"))
        config, _, _ = dispatch(chart, config, Event("resume"))
        assert "disabled" in config.active

    def test_and_target_enters_each_region_once(self):
        entered_by_action = []

        def counting(sid, kind=BASIC, children=(), initial=None):
            action = (lambda ctx: entered_by_action.append(sid),)
            return StateNode(sid, kind, children, initial, entry_actions=action)

        nodes = [
            StateNode("root", XOR, ("A", "B"), initial="B"),
            counting("A", AND, ("R1", "R2")),
            counting("R1", XOR, ("x",), "x"),
            counting("x"),
            counting("R2", XOR, ("y",), "y"),
            counting("y"),
            StateNode("B"),
        ]
        chart = build_chart(nodes, [Transition(("B",), "A", event="go")])
        config, _, trace = dispatch(chart, initialize(chart), Event("go"))
        entered = [t.subject for t in trace if t.kind == "entered"]
        assert entered == ["A", "R1", "x", "R2", "y"]
        assert entered_by_action == entered
        check_configuration(chart, config)

    def test_join_requires_all_sources(self):
        nodes = [
            StateNode("root", XOR, ("work", "running"), initial="work"),
            StateNode("work", AND, ("r1", "r2")),
            StateNode("r1", XOR, ("collecting", "processing_inputs"), initial="collecting"),
            StateNode("collecting"),
            StateNode("processing_inputs"),
            StateNode("r2", XOR, ("configuring", "controller_ready"), initial="configuring"),
            StateNode("configuring"),
            StateNode("controller_ready"),
            StateNode("running"),
        ]
        transitions = [
            Transition(("collecting",), "processing_inputs", event="set"),
            Transition(("configuring",), "controller_ready", event="ready"),
            Transition(("processing_inputs", "controller_ready"), "running", event="go"),
        ]
        chart = build_chart(nodes, transitions)
        config = initialize(chart)
        config, _, _ = dispatch(chart, config, Event("go"))
        assert "running" not in config.active  # only one source active
        config, _, _ = dispatch(chart, config, Event("set"))
        config, _, _ = dispatch(chart, config, Event("go"))
        assert "running" not in config.active
        config, _, _ = dispatch(chart, config, Event("ready"))
        config, _, _ = dispatch(chart, config, Event("go"))
        assert "running" in config.active

    def test_deeper_source_wins_conflicts(self):
        nodes = [
            StateNode("root", XOR, ("outer", "flat", "deep"), initial="outer"),
            StateNode("outer", XOR, ("mid",), initial="mid"),
            StateNode("mid", XOR, ("leaf",), initial="leaf"),
            StateNode("leaf"),
            StateNode("flat"),
            StateNode("deep"),
        ]
        transitions = [
            Transition(("outer",), "flat", event="e"),  # declared first, shallower
            Transition(("leaf",), "deep", event="e"),
        ]
        chart = build_chart(nodes, transitions)
        config, _, _ = dispatch(chart, initialize(chart), Event("e"))
        assert "deep" in config.active and "flat" not in config.active

    def test_declaration_order_breaks_ties(self):
        nodes = [
            StateNode("root", XOR, ("a", "b", "c"), initial="a"),
            StateNode("a"),
            StateNode("b"),
            StateNode("c"),
        ]
        transitions = [
            Transition(("a",), "b", event="e"),
            Transition(("a",), "c", event="e"),
        ]
        chart = build_chart(nodes, transitions)
        config, _, _ = dispatch(chart, initialize(chart), Event("e"))
        assert "b" in config.active

    def test_internal_events_processed_fifo(self):
        nodes = [
            StateNode("root", XOR, ("a", "b", "c"), initial="a"),
            StateNode("a"),
            StateNode("b"),
            StateNode("c"),
        ]
        transitions = [
            Transition(("a",), "b", event="kick", actions=(lambda ctx: ctx.emit("follow"),)),
            Transition(("b",), "c", event="follow"),
        ]
        chart = build_chart(nodes, transitions)
        config, emitted, _ = dispatch(chart, initialize(chart), Event("kick"))
        assert "c" in config.active
        assert [e.id for e in emitted] == ["follow"]

    def test_livelock_detected(self):
        nodes = [
            StateNode("root", XOR, ("a", "b"), initial="a"),
            StateNode("a"),
            StateNode("b"),
        ]
        transitions = [
            Transition(("a",), "b", event="ping", actions=(lambda ctx: ctx.emit("ping"),)),
            Transition(("b",), "a", event="ping", actions=(lambda ctx: ctx.emit("ping"),)),
        ]
        chart = build_chart(nodes, transitions)
        with pytest.raises(LivelockDetected):
            dispatch(chart, initialize(chart), Event("ping"), queue_limit=50)

    @pytest.mark.parametrize("queue_limit, ok", [(6, True), (5, False)])
    def test_queue_limit_counts_processed_events(self, queue_limit, ok):
        # s0 -> ... -> s5 on e, each step emitting e: the external event and
        # five emitted ones make six processed events
        ids = [f"s{i}" for i in range(6)]
        nodes = [StateNode("root", XOR, tuple(ids), initial="s0")] + [StateNode(s) for s in ids]
        emit_e = (lambda ctx: ctx.emit("e"),)
        transitions = [Transition((a,), b, event="e", actions=emit_e) for a, b in zip(ids, ids[1:])]
        chart = build_chart(nodes, transitions)
        if not ok:
            with pytest.raises(LivelockDetected):
                dispatch(chart, initialize(chart), Event("e"), queue_limit=queue_limit)
            return
        config, emitted, _ = dispatch(chart, initialize(chart), Event("e"), queue_limit=queue_limit)
        assert "s5" in config.active
        assert [e.id for e in emitted] == ["e"] * 5

    def test_guards_read_macrostep_snapshot(self):
        # the action writes flag=1, but the guard of the follow-up
        # internal transition sees the snapshot taken at macrostep start
        nodes = [
            StateNode("root", XOR, ("a", "b", "c"), initial="a"),
            StateNode("a"),
            StateNode("b"),
            StateNode("c"),
        ]

        def write_flag(ctx):
            ctx.vars["flag"] = 1
            ctx.emit("next")

        transitions = [
            Transition(("a",), "b", event="kick", actions=(write_flag,)),
            Transition(("b",), "c", event="next", guard=lambda snap: snap.get("flag") == 1),
        ]
        chart = build_chart(nodes, transitions)
        store = {}
        config, _, _ = dispatch(chart, initialize(chart), Event("kick"), vars=store)
        assert "b" in config.active and "c" not in config.active
        assert store["flag"] == 1
        # next macrostep sees the committed write
        config, _, _ = dispatch(chart, config, Event("next"), vars=store)
        assert "c" in config.active

    def test_completion_transition_runs_without_event(self):
        nodes = [
            StateNode("root", XOR, ("a", "b", "c"), initial="a"),
            StateNode("a"),
            StateNode("b"),
            StateNode("c"),
        ]
        transitions = [
            Transition(("a",), "b", event="kick"),
            Transition(("b",), "c"),  # completion
        ]
        chart = build_chart(nodes, transitions)
        config, _, _ = dispatch(chart, initialize(chart), Event("kick"))
        assert "c" in config.active

    def test_trace_line_format(self):
        chart = body_input_chart()
        config = initialize(chart)
        _, _, trace = dispatch(chart, config, Event("select"), tick=3, agent="a7")
        lines = [t.to_line() for t in trace]
        assert lines[0] == "3\ta7\texited\tdisabled\t"
        assert all(len(line.split("\t")) == 5 for line in lines)


class TestProperties:
    def test_invariants_hold_over_random_charts(self):
        rng = random.Random(1234)
        for _ in range(150):
            chart = random_chart(rng)
            config = initialize(chart)
            check_configuration(chart, config)
            for _ in range(12):
                event = Event(rng.choice(EVENT_ALPHABET))
                config, _, _ = dispatch(chart, config, event)
                check_configuration(chart, config)

    @pytest.mark.parametrize(
        "edit, error",
        [
            pytest.param(lambda a: a - {B_ROOT}, "root must be active", id="inactive_root"),
            pytest.param(
                lambda a: a - {PERCEPTION},
                f"active state {P_WAIT} has inactive parent {PERCEPTION}",
                id="inactive_parent",
            ),
            pytest.param(
                lambda a: a - {P_WAIT},
                f"xor-composite {PERCEPTION} has 0 active children",
                id="xor_without_child",
            ),
            pytest.param(
                lambda a: a | {P_PROC},
                f"xor-composite {PERCEPTION} has 2 active children",
                id="xor_with_two_children",
            ),
            pytest.param(
                lambda a: a - {EFFECTOR, E_IDLE},
                f"and-composite {B_ROOT} missing regions",
                id="missing_region",
            ),
        ],
    )
    def test_oracle_rejects_broken_behavior_configurations(self, edit, error):
        check_configuration(BEHAVIOR_CHART, BEHAVIOR_START)
        broken = Configuration(edit(BEHAVIOR_START.active))
        with pytest.raises(AssertionError, match=error):
            check_configuration(BEHAVIOR_CHART, broken)

    def test_resolved_tables_match_definitions(self):
        rng = random.Random(4321)
        for _ in range(1000):
            chart = random_chart(rng)
            parent = {c: n.id for n in chart.nodes.values() for c in n.children}

            def ancestors(sid):
                """Proper ancestors, nearest first."""
                out = []
                while sid in parent:
                    sid = parent[sid]
                    out.append(sid)
                return out

            preorder, stack = [], [chart.root]
            while stack:
                sid = stack.pop()
                preorder.append(sid)
                stack.extend(reversed(chart.nodes[sid].children))

            def source_depth(i):
                return max(len(ancestors(s)) for s in chart.transitions[i].sources)

            for event, ranked in chart.by_event.items():
                indices = [i for i, _ in ranked]
                assert indices == sorted(indices, key=lambda i: (-source_depth(i), i))
                assert all(chart.transitions[i].event == event for i in indices)
            assert sorted(i for ranked in chart.by_event.values() for i, _ in ranked) == list(
                range(len(chart.transitions))
            )

            for i, tr in enumerate(chart.transitions):
                domain = next(
                    (
                        a
                        for a in ancestors(tr.target)
                        if chart.nodes[a].kind == XOR
                        and all(a in ancestors(s) for s in tr.sources)
                    ),
                    None,
                )
                assert chart.domain[i] == domain
                scope = [
                    s
                    for s in preorder
                    if s != chart.root and (domain is None or domain in ancestors(s))
                ]
                scope.sort(key=lambda s: (-len(ancestors(s)), preorder.index(s)))
                assert chart.exit_scope[i] == tuple(scope)
                up = [tr.target] + ancestors(tr.target)
                path = up[: up.index(domain)] if domain is not None else up
                assert chart.entry_path[i] == tuple(reversed(path))

    def test_history_round_trip_random_motifs(self):
        rng = random.Random(99)
        for _ in range(100):
            chart, kids = history_motif_chart(rng)
            config = initialize(chart)
            expected = None
            for _ in range(20):
                event = rng.choice(["leave", "return", "move0", "move1"])
                was_outside = "C" not in config.active
                config, _, _ = dispatch(chart, config, Event(event))
                check_configuration(chart, config)
                if "C" in config.active:
                    child = next(c for c in kids if c in config.active)
                    if was_outside:
                        assert child == (expected if expected is not None else kids[0])
                    expected = child

    def test_determinism_byte_identical_trace(self):
        rng = random.Random(7)
        chart = random_chart(rng)
        events = [Event(rng.choice(EVENT_ALPHABET)) for _ in range(30)]

        def run():
            config = initialize(chart)
            lines = []
            for i, event in enumerate(events):
                config, _, trace = dispatch(chart, config, event, tick=i)
                lines.extend(t.to_line() for t in trace)
            return "\n".join(lines)

        assert run() == run()

    def test_no_two_fired_transitions_exit_same_state(self):
        # two same-event transitions whose exit sets overlap: only one fires
        nodes = [
            StateNode("root", XOR, ("grp", "x", "y"), initial="grp"),
            StateNode("grp", XOR, ("a", "b"), initial="a"),
            StateNode("a"),
            StateNode("b"),
            StateNode("x"),
            StateNode("y"),
        ]
        transitions = [
            Transition(("a",), "x", event="e"),
            Transition(("grp",), "y", event="e"),
        ]
        chart = build_chart(nodes, transitions)
        config, _, trace = dispatch(chart, initialize(chart), Event("e"))
        fired = [t for t in trace if t.kind == "fired"]
        assert len(fired) == 1
        assert "x" in config.active

    def test_orthogonal_regions_fire_on_same_event(self):
        nodes = [
            StateNode("top", AND, ("r1", "r2")),
            StateNode("r1", XOR, ("a", "b"), initial="a"),
            StateNode("a"),
            StateNode("b"),
            StateNode("r2", XOR, ("c", "d"), initial="c"),
            StateNode("c"),
            StateNode("d"),
        ]
        transitions = [
            Transition(("a",), "b", event="e"),
            Transition(("c",), "d", event="e"),
        ]
        chart = build_chart(nodes, transitions)
        config, _, _ = dispatch(chart, initialize(chart), Event("e"))
        assert {"b", "d"} <= set(config.active)


def acting_chart(rng: random.Random, log: list[str]):
    """A random tree whose states and transitions carry actions that emit
    events, write ``vars`` and append to ``log``, with guards over the
    snapshot and some completion transitions."""
    nodes = random_tree(rng)
    ids = [n.id for n in nodes]

    def action(tag):
        out = rng.choice(EVENT_ALPHABET) if rng.random() < 0.25 else None
        key = rng.choice("uvw")

        def run(ctx):
            now = ctx.current_event.id if ctx.current_event is not None else "-"
            log.append(f"{tag}@{now}")
            ctx.vars[key] = ctx.vars.get(key, 0) + 1
            if out is not None:
                ctx.emit(out)

        return (run,) if rng.random() < 0.6 else ()

    def guard():
        if rng.random() < 0.5:
            return None
        key, parity = rng.choice("uvw"), rng.randint(0, 1)
        return lambda snap: snap.get(key, 0) % 2 == parity

    nodes = [
        replace(n, entry_actions=action("+" + n.id), exit_actions=action("-" + n.id))
        for n in nodes
    ]
    by_id = {n.id: n for n in nodes}
    parent = {c: n.id for n in nodes for c in n.children}

    def lineage(sid):
        out = [sid]
        while out[-1] in parent:
            out.append(parent[out[-1]])
        return out

    transitions = []
    for k in range(rng.randint(2, 8)):
        src, tgt = rng.choice(ids), rng.choice(ids)
        # a completion transition that leaves its source active refires forever
        related = src in lineage(tgt) or tgt in lineage(src)
        event = None if not related and rng.random() < 0.3 else rng.choice(EVENT_ALPHABET)
        node = by_id[tgt]
        to_history = node.kind == XOR and node.history == "shallow" and rng.random() < 0.5
        transitions.append(
            Transition(
                (src,), tgt, event=event, guard=guard(),
                actions=action(f"t{k}"), to_history=to_history,
            )
        )
    return build_chart(nodes, transitions)


class TestSemanticsDigest:
    # pins the macrostep semantics: any change to entry, exit or action
    # order, emit order, history, guards or the livelock bounds moves it
    DIGEST = "47f7637dfc3b6e8a819de1ed22fd5831c81ec861455682669809cdf73dbeb3ec"

    def test_random_acting_charts_digest(self):
        rng = random.Random(2024)
        digest = hashlib.sha256()
        outcomes = set()
        for _ in range(200):
            log: list[str] = []
            chart = acting_chart(rng, log)
            store: dict = {}
            sink = [TraceEvent(-1, "x", "perturbed", "earlier")]
            try:
                config = initialize(chart, vars=store, trace=sink, queue_limit=50)
            except LivelockDetected as exc:
                outcomes.add(type(exc).__name__)
                digest.update(type(exc).__name__.encode())
                # draw the chart's events all the same: later charts stay the same
                for _ in range(10):
                    rng.choice(EVENT_ALPHABET)
                continue
            digest.update(repr((sorted(config.active), [t.to_line() for t in sink], log)).encode())
            for tick in range(10):
                log.clear()
                event = Event(rng.choice(EVENT_ALPHABET))
                before = list(sink)
                try:
                    config, emitted, step = dispatch(
                        chart, config, event, vars=store, tick=tick, queue_limit=50, trace=sink
                    )
                except LivelockDetected as exc:
                    outcomes.add(type(exc).__name__)
                    digest.update(type(exc).__name__.encode())
                    continue
                outcomes.add("ok")
                assert sink[: len(before)] == before
                assert sink[len(before) :] == step
                digest.update(
                    repr(
                        (
                            sorted(config.active),
                            sorted(config.history_memory.items()),
                            [e.id for e in emitted],
                            [t.to_line() for t in step],
                            sorted(store.items()),
                            log,
                        )
                    ).encode()
                )
        assert outcomes == {"ok", "LivelockDetected"}
        assert digest.hexdigest() == self.DIGEST
