"""Scenario configuration files: strict JSON loading with defaults.

Unknown keys, wrong types and non-finite numbers are hard errors so that
a typo in a scenario file can never silently change an experiment.  The
scenario and search dataclasses own every default and range: the default
tree is read off their default instances, and building them from the
resolved tree range-checks every value.  Every default is materialized
into the resolved dictionary that run manifests echo back.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .controller import MutationPolicy
from .errors import ConfigError, UnknownKey
from .evaluation import SearchPolicy
from .streetlight import AmbientProfile, PeopleProcess, StreetLightScenario, StreetlightRules

_SECTIONS = ("ambient", "people", "score", "search")


def default_config() -> dict:
    """Every documented default, fully materialized."""
    cfg = asdict(StreetLightScenario())
    # the device inventory and the structural policy are fixed, not scenario keys
    del cfg["devices"]
    cfg["score"] = cfg.pop("rules")
    cfg["search"] = asdict(SearchPolicy())
    del cfg["search"]["structural"]
    return cfg


def _merge(defaults: dict, data: dict, path: str = "") -> dict:
    out = {}
    for key, default in defaults.items():
        here = f"{path}.{key}" if path else key
        if key in data:
            value = data[key]
            if isinstance(default, dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"{here}: expected an object, got {type(value).__name__}")
                out[key] = _merge(default, value, here)
            else:
                expected = type(default)
                if expected is float and type(value) is int:
                    value = float(value)
                if type(value) is not expected:
                    raise ConfigError(
                        f"{here}: expected {expected.__name__}, got {type(value).__name__}"
                    )
                out[key] = value
        else:
            out[key] = default
    for key in data:
        if key not in defaults:
            here = f"{path}.{key}" if path else key
            raise UnknownKey(f"unknown configuration key {here!r}")
    return out


@dataclass
class LoadedScenario:
    scenario: StreetLightScenario
    policy: SearchPolicy
    resolved: dict


def build_scenario(data: dict) -> LoadedScenario:
    """Apply defaults, reject unknown keys and wrong types, then build the
    scenario and search policy, whose constructors raise RangeError."""
    cfg = _merge(default_config(), data)
    scenario = StreetLightScenario(
        **{key: value for key, value in cfg.items() if key not in _SECTIONS},
        ambient=AmbientProfile(**cfg["ambient"]),
        people=PeopleProcess(**cfg["people"]),
        rules=StreetlightRules(**cfg["score"]),
    )
    search = cfg["search"]
    policy = SearchPolicy(
        patience=search["patience"],
        budget=search["budget"],
        mutation=MutationPolicy(**search["mutation"]),
    )
    return LoadedScenario(scenario, policy, cfg)


def resolve_config(data: dict) -> dict:
    """The fully defaulted and checked configuration tree."""
    return build_scenario(data).resolved


def _finite_number(parse):
    def hook(token: str):
        if not math.isfinite(float(token)):
            raise ValueError(f"number {token} does not fit a finite double")
        return parse(token)

    return hook


def read_json(path: str | Path):
    """Strict JSON: every number must fit a finite double.  ConfigError
    carries location info."""
    try:
        return json.loads(
            Path(path).read_text(),
            parse_int=_finite_number(int),
            parse_float=_finite_number(float),
            parse_constant=_finite_number(float),
        )
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_scenario(path: str | Path) -> LoadedScenario:
    """Read, default, validate."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return build_scenario(data)
