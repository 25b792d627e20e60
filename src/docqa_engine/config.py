"""Pipeline configuration: YAML file -> typed config with validated defaults.

The defaults carry the engine's shipped operating point (fusion weights
0.6/0.4, 3-7 adaptive pages at threshold 0.3, 20-config ensemble stopping
at 10 responses / 0.8 confidence) so a config file only needs to name
what differs. The file is the only source of the endpoints and the seed;
artifact paths are command-line flags. Endpoint auth can come from the
environment instead of the file, which keeps tokens out of checked-in configs.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

from .augment import GateThresholds
from .ensemble import DEFAULT_SCHEDULE_COUNT, MAX_SCHEDULE_COUNT, StopRule
from .errors import ConfigError
from .gateway import EndpointConfig
from .retriever import (
    DEFAULT_CANDIDATE_K,
    DEFAULT_POLICY,
    DEFAULT_WEIGHTS,
    FusionWeights,
    SelectionPolicy,
)

AUTH_TOKEN_ENV = "DOCQA_AUTH_TOKEN"


@dataclass(frozen=True)
class PipelineConfig:
    weights: FusionWeights = DEFAULT_WEIGHTS
    policy: SelectionPolicy = DEFAULT_POLICY
    candidate_k: int = DEFAULT_CANDIDATE_K
    schedule_count: int = DEFAULT_SCHEDULE_COUNT
    seed: int = 0
    stop: StopRule = StopRule()
    thresholds: GateThresholds = GateThresholds()
    endpoint: EndpointConfig | None = None
    embedding: EndpointConfig | None = None

    def __post_init__(self):
        if self.candidate_k < 1:
            raise ValueError("candidate_k must be at least 1")
        if not 2 <= self.schedule_count <= MAX_SCHEDULE_COUNT:
            raise ValueError(f"schedule_count must lie in [2, {MAX_SCHEDULE_COUNT}]")


# YAML section -> the PipelineConfig fields its keys fill, in order. A
# dataclass field takes the keys named after its own fields; any other field
# takes the key of its own name.
_SECTIONS = {
    "retrieval": ("weights", "policy", "candidate_k"),
    "ensemble": ("schedule_count", "seed", "stop"),
    "gates": ("thresholds",),
    "endpoint": ("endpoint",),
    "embedding": ("embedding",),
}
_TYPES = {"int": int, "float": float, "str": str}
_BLANK_ENDPOINT = EndpointConfig(base_url="", model_name="")  # its two names have no default


def _typed(key: str, value, annotation: str):
    """`value` checked against a field annotated `annotation` ("int", "float",
    "str", optionally "| None"); a float key takes a finite int or float.
    Annotations are strings because each config dataclass's module defers them."""
    if value is None and annotation.endswith("| None"):
        return None
    kind = annotation.split(" |")[0]
    if kind == "float" and type(value) in (int, float):
        if not abs(value) <= sys.float_info.max:  # NaN compares false
            raise ConfigError(f"config key {key} must be a finite number, got {value!r}")
        return float(value)
    if type(value) is not _TYPES[kind]:
        raise ConfigError(f"config key {key} must be {kind}, got {value!r}")
    return value


def _take(section: str, values: dict, targets) -> dict:
    """Pop the keys naming the dataclass fields `targets` from `values`."""
    taken = {}
    for f in targets:
        if f.name in values:
            taken[f.name] = _typed(f"{section}.{f.name}", values.pop(f.name), f.type)
    return taken


def _reject_unknown(section_name: str, leftovers) -> None:
    if leftovers:
        keys = ", ".join(sorted(map(str, leftovers)))
        raise ConfigError(f"unknown key(s) in config section {section_name!r}: {keys}")


def _read_mapping(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: byte {exc.start} "
                          f"({exc.object[exc.start]:#04x}) {exc.reason}") from exc
    import yaml  # here, so a run without a config file never loads PyYAML

    try:
        loaded = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:  # str(exc) spans lines, quoting the source
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config file {path} is not valid YAML: {exc.problem}{where}") from exc
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int past Python's digit limit
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if loaded is None:
        return {}
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {path} must hold a top-level mapping")
    return loaded


def load_config(path: str | Path | None = None) -> PipelineConfig:
    """Load a YAML config file, or return pure defaults when path is None.

    Each key's value must have its field's type (an int also serves as a
    float); unknown keys and out-of-range values are rejected.
    """
    raw = {} if path is None else _read_mapping(path)
    _reject_unknown("<top level>", [key for key in raw if key not in _SECTIONS])
    config = PipelineConfig()
    top_fields = {f.name: f for f in fields(PipelineConfig)}
    for section, names in _SECTIONS.items():
        if section not in raw:
            continue
        values = {} if raw[section] is None else raw[section]  # a bare `section:` is empty
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
        values = dict(values)
        changes = {}
        try:
            for name in names:
                current = getattr(config, name)
                if current is None:  # an endpoint section starts blank
                    current = _BLANK_ENDPOINT
                if is_dataclass(current):
                    changes[name] = replace(current, **_take(section, values, fields(current)))
                else:
                    changes.update(_take(section, values, [top_fields[name]]))
            _reject_unknown(section, values)  # before the names: a stray key is named, not them
            for name, value in changes.items():
                if isinstance(value, EndpointConfig) and not (value.base_url and value.model_name):
                    raise ConfigError(
                        f"config section {section!r} needs both base_url and model_name")
                # replace checks the environment's token as the file's, in this try
                if isinstance(value, EndpointConfig) and value.auth_token is None:
                    changes[name] = replace(value, auth_token=os.environ.get(AUTH_TOKEN_ENV) or None)
            config = replace(config, **changes)
        except ValueError as exc:
            raise ConfigError(f"invalid {section} config: {exc}") from exc
    return config
