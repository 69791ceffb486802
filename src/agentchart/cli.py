"""Command-line front end: seeded search runs, replay and scenario lint.

All outputs (metrics.csv, best_agent.json, run_manifest.json and the
optional trace.log) embed the seed and configuration digest so that a
run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .body import configure_body, require_mirror
from .config import LoadedScenario, load_scenario, read_json
from .errors import BehaviorNotConfigured, ConfigError, RangeError, UnknownDevice
from .evaluation import Genotype, SearchResult, genotype_digest, run_episode, run_search
from .serialize import canonical_json, flag, known_keys, topology_from_dict, topology_to_dict

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3

# the keys write_outputs writes to best_agent.json
AGENT_KEYS = ("seed", "config_digest", "score", "episode", "selection", "controller")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agentchart",
        description="Evolutionary search over statechart-hosted street-light agents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a seeded search and write its artifacts")
    run.add_argument("--scenario", required=True, help="scenario JSON file")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--generations", type=int, default=30)
    run.add_argument("--lambda", dest="lam", type=int, default=4)
    run.add_argument("--ticks", type=int, default=None, help="override episode_ticks")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--trace", action="store_true", help="write trace.log of the best episode")
    run.add_argument("--jobs", type=int, default=1)

    replay = sub.add_parser("replay", help="re-run a saved best agent and report its score")
    replay.add_argument("--agent", required=True, help="best_agent.json from a run")
    replay.add_argument("--scenario", required=True)
    replay.add_argument("--seed", type=int, required=True)
    replay.add_argument("--ticks", type=int, default=None)

    validate = sub.add_parser("validate", help="scenario lint only")
    validate.add_argument("--scenario", required=True)
    return parser


def _load(path: str, ticks: int | None) -> LoadedScenario:
    loaded = load_scenario(path)
    if ticks is not None:
        loaded.scenario = replace(loaded.scenario, episode_ticks=ticks)
        loaded.resolved["episode_ticks"] = ticks
    return loaded


def cmd_run(args) -> int:
    loaded = _load(args.scenario, args.ticks)
    result = run_search(
        loaded.scenario,
        seed=args.seed,
        generations=args.generations,
        lam=args.lam,
        policy=loaded.policy,
        jobs=args.jobs,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_outputs(out, args, loaded, result)
    return EXIT_OK


def write_outputs(out: Path, args, loaded: LoadedScenario, result: SearchResult) -> None:
    digest = result.best_record.config_digest
    header = f"# seed={args.seed} config_digest={digest}\n"

    lines = [header, "generation,best_score,mean_score,command,config_digest\n"]
    lines += [row.to_csv() + "\n" for row in result.metrics]
    (out / "metrics.csv").write_text("".join(lines))

    best = {
        "seed": args.seed,
        "config_digest": digest,
        "score": result.best_record.score,
        "episode": result.best_record.episode,
        "selection": {k: bool(v) for k, v in sorted(result.best.selection.items())},
        "controller": topology_to_dict(result.best.topology),
    }
    (out / "best_agent.json").write_text(canonical_json(best) + "\n")

    manifest = {
        "seed": args.seed,
        "config_digest": digest,
        "scenario_file": str(args.scenario),
        "resolved_config": loaded.resolved,
        "generations": args.generations,
        "lambda": args.lam,
        "ticks_override": args.ticks,
        "jobs": args.jobs,
        "trace": bool(args.trace),
        "best_score": result.best_record.score,
        "episodes": len(result.history),
    }
    (out / "run_manifest.json").write_text(canonical_json(manifest) + "\n")

    if args.trace:
        _, trace = run_episode(loaded.scenario, result.best, args.seed, collect_events=True)
        with (out / "trace.log").open("w") as fh:
            fh.write(header)
            for event in trace.events or ():
                fh.write(event.to_line() + "\n")
        (out / "episode.csv").write_text(trace.to_csv())


def cmd_replay(args) -> int:
    loaded = _load(args.scenario, args.ticks)
    data = read_json(args.agent)
    try:
        known_keys(data, AGENT_KEYS, "agent")
        devices = list(loaded.scenario.devices)
        selection = known_keys(data["selection"], [d.id for d in devices], "selection")
        genotype = Genotype(
            {did: flag(on) for did, on in selection.items()}, topology_from_dict(data["controller"])
        )
        body = configure_body(devices, genotype.selection)
        if not body.is_operable():
            raise ValueError("the selection enables no input or no output device")
        require_mirror(body, genotype.topology)
    except (ValueError, LookupError, TypeError, UnknownDevice, BehaviorNotConfigured) as exc:
        raise ConfigError(f"{args.agent}: not a saved agent: {exc!r}") from exc
    record, _ = run_episode(loaded.scenario, genotype, args.seed)
    digest = genotype_digest(loaded.scenario, genotype)
    print(f"score={record.score!r}")
    print(f"config_digest={digest}")
    return EXIT_OK


def cmd_validate(args) -> int:
    loaded = load_scenario(args.scenario)
    print(f"ok: {args.scenario} ({loaded.scenario.n_lights} lights)")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "replay": cmd_replay, "validate": cmd_validate}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RangeError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
