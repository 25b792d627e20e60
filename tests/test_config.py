"""Config-file loading: defaults, overrides, strict key checking, env auth."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import docqa_engine
from docqa_engine.augment import GateThresholds
from docqa_engine.config import AUTH_TOKEN_ENV, PipelineConfig, load_config
from docqa_engine.errors import ConfigError
from docqa_engine.gateway import EndpointConfig
from docqa_engine.retriever import FusionWeights


def _write(tmp_path, text: str):
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    return path


class TestDefaults:
    def test_no_file_gives_shipped_operating_point(self):
        config = load_config(None)
        assert config == PipelineConfig()
        assert (config.weights.alpha, config.weights.beta) == (0.6, 0.4)
        assert (config.policy.top_m, config.policy.top_n) == (3, 7)
        assert config.policy.threshold == 0.3
        assert config.candidate_k == 50
        assert config.schedule_count == 20
        assert config.stop.min_responses == 10
        assert config.stop.confidence_threshold == 0.8
        assert config.endpoint is None
        assert config.embedding is None

    def test_empty_file_equals_defaults(self, tmp_path):
        assert load_config(_write(tmp_path, "")) == load_config(None)

    def test_a_run_without_a_config_file_never_imports_yaml(self):
        # PyYAML is read only for a config file; a fresh interpreter shows it
        src = str(Path(docqa_engine.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys, docqa_engine.cli as cli; cli.load_config(None); "
                "print('yaml' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestOverrides:
    def test_partial_override_keeps_other_defaults(self, tmp_path):
        path = _write(
            tmp_path,
            "retrieval:\n  alpha: 0.7\n  beta: 0.3\n  top_n: 9\n"
            "ensemble:\n  schedule_count: 6\n  seed: 11\n",
        )
        config = load_config(path)
        assert config.weights.alpha == 0.7
        assert config.policy.top_n == 9
        assert config.policy.top_m == 3  # untouched
        assert config.schedule_count == 6
        assert config.seed == 11
        assert config.stop.min_responses == 10  # untouched

    def test_gates_section(self, tmp_path):
        path = _write(tmp_path, "gates:\n  dedup_jaccard: 0.9\n  min_clauses: 1\n")
        thresholds = load_config(path).thresholds
        assert thresholds.dedup_jaccard == 0.9
        assert thresholds.min_clauses == 1
        assert thresholds.support_jaccard == 0.2  # untouched

    def test_endpoint_sections(self, tmp_path):
        path = _write(
            tmp_path,
            "endpoint:\n  base_url: http://llm:8000/v1\n  model_name: chat-7b\n"
            "  timeout: 12\n"
            "embedding:\n  base_url: http://emb:8000/v1\n  model_name: embed-1b\n",
        )
        config = load_config(path)
        assert config.endpoint.base_url == "http://llm:8000/v1"
        assert config.endpoint.timeout == 12
        assert config.endpoint.max_retries == 2  # EndpointConfig default
        assert config.embedding.model_name == "embed-1b"


class TestAuthToken:
    def test_env_token_injected_when_unset(self, tmp_path, monkeypatch):
        monkeypatch.setenv(AUTH_TOKEN_ENV, "from-env")
        path = _write(
            tmp_path, "endpoint:\n  base_url: http://llm/v1\n  model_name: m\n"
        )
        assert load_config(path).endpoint.auth_token == "from-env"

    def test_file_token_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(AUTH_TOKEN_ENV, "from-env")
        path = _write(
            tmp_path,
            "endpoint:\n  base_url: http://llm/v1\n  model_name: m\n"
            "  auth_token: from-file\n",
        )
        assert load_config(path).endpoint.auth_token == "from-file"

    def test_no_env_leaves_token_unset(self, tmp_path, monkeypatch):
        monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
        path = _write(
            tmp_path, "endpoint:\n  base_url: http://llm/v1\n  model_name: m\n"
        )
        assert load_config(path).endpoint.auth_token is None


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(_write(tmp_path, "retrieval: [unclosed\n"))

    def test_integer_pyyaml_cannot_convert_is_not_valid_yaml(self, tmp_path):
        # past Python's int-to-string digit limit PyYAML raises ValueError, not YAMLError
        text = "endpoint:\n" + _ENDPOINT + f"  timeout: {'9' * 5000}\n"
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(_write(tmp_path, text))

    def test_non_mapping_top_level(self, tmp_path):
        with pytest.raises(ConfigError, match="top-level mapping"):
            load_config(_write(tmp_path, "- just\n- a list\n"))

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key.*retreival"):
            load_config(_write(tmp_path, "retreival:\n  alpha: 0.5\n"))

    def test_unknown_section_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key.*alhpa"):
            load_config(_write(tmp_path, "retrieval:\n  alhpa: 0.5\n"))

    def test_non_mapping_section(self, tmp_path):
        with pytest.raises(ConfigError, match="must be a mapping"):
            load_config(_write(tmp_path, "retrieval: 7\n"))

    def test_bad_weights_surface_as_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="invalid retrieval config"):
            load_config(_write(tmp_path, "retrieval:\n  alpha: 0.9\n  beta: 0.9\n"))

    def test_bad_schedule_count(self, tmp_path):
        with pytest.raises(ConfigError, match="schedule_count"):
            load_config(_write(tmp_path, "ensemble:\n  schedule_count: 1\n"))

    def test_bad_confidence_threshold(self, tmp_path):
        with pytest.raises(ConfigError, match="confidence_threshold"):
            load_config(_write(tmp_path, "ensemble:\n  confidence_threshold: 1.4\n"))

    def test_endpoint_needs_url_and_model(self, tmp_path):
        with pytest.raises(ConfigError, match="base_url and model_name"):
            load_config(_write(tmp_path, "endpoint:\n  base_url: http://llm/v1\n"))

    def test_bad_endpoint_values(self, tmp_path):
        with pytest.raises(ConfigError, match="invalid endpoint config"):
            load_config(_write(
                tmp_path,
                "endpoint:\n  base_url: http://llm/v1\n  model_name: m\n  timeout: -1\n",
            ))

    def test_bad_candidate_k(self, tmp_path):
        with pytest.raises(ConfigError, match="candidate_k"):
            load_config(_write(tmp_path, "retrieval:\n  candidate_k: 0\n"))


_ENDPOINT = "  base_url: http://llm/v1\n  model_name: m\n"

# (key, YAML holding a value of the wrong type for it)
_WRONG_TYPES = [
    ("retrieval.top_m", "retrieval:\n  top_m: 2.7\n"),
    ("retrieval.top_n", "retrieval:\n  top_n: '9'\n"),
    ("retrieval.alpha", "retrieval:\n  alpha: '0.5'\n  beta: 0.5\n"),
    ("retrieval.threshold", "retrieval:\n  threshold: true\n"),
    ("retrieval.candidate_k", "retrieval:\n  candidate_k: 5.0\n"),
    ("ensemble.min_responses", "ensemble:\n  min_responses: true\n"),
    ("ensemble.schedule_count", "ensemble:\n  schedule_count: 6.5\n"),
    ("ensemble.seed", "ensemble:\n  seed: '3'\n"),
    ("ensemble.confidence_threshold", "ensemble:\n  confidence_threshold: [0.5]\n"),
    ("gates.min_clauses", "gates:\n  min_clauses: 1.0\n"),
    ("gates.dedup_jaccard", "gates:\n  dedup_jaccard: high\n"),
    ("endpoint.max_retries", "endpoint:\n" + _ENDPOINT + "  max_retries: 1.5\n"),
    ("endpoint.base_url", "endpoint:\n  base_url: 8000\n  model_name: m\n"),
    ("endpoint.auth_token", "endpoint:\n" + _ENDPOINT + "  auth_token: 123\n"),
    ("embedding.max_in_flight", "embedding:\n" + _ENDPOINT + "  max_in_flight: true\n"),
]

# (key, YAML holding a float that is not a finite number for it)
_NON_FINITE = [
    ("retrieval.alpha", "retrieval:\n  alpha: .nan\n  beta: .nan\n"),
    ("retrieval.threshold", "retrieval:\n  threshold: -.inf\n"),
    ("ensemble.confidence_threshold", "ensemble:\n  confidence_threshold: .NaN\n"),
    ("gates.option_length_ratio", "gates:\n  option_length_ratio: .inf\n"),
    ("endpoint.timeout", "endpoint:\n" + _ENDPOINT + "  timeout: .inf\n"),
    ("endpoint.timeout", "endpoint:\n" + _ENDPOINT + "  timeout: .nan\n"),
    ("endpoint.backoff_base", "endpoint:\n" + _ENDPOINT + "  backoff_base: .nan\n"),
    ("embedding.timeout", "embedding:\n" + _ENDPOINT + "  timeout: .Inf\n"),
]


# (section, YAML holding a value of the right type that the section rejects)
_OUT_OF_RANGE = [
    ("endpoint", "endpoint:\n" + _ENDPOINT + "  backoff_base: -1\n"),
    ("embedding", "embedding:\n" + _ENDPOINT + "  backoff_base: -0.5\n"),
    ("gates", "gates:\n  question_min_chars: 500\n"),
    ("gates", "gates:\n  question_min_chars: -1\n"),
    ("gates", "gates:\n  dedup_jaccard: -1.0\n"),
    ("gates", "gates:\n  dedup_jaccard: 0\n"),
    ("gates", "gates:\n  support_jaccard: 7.0\n"),
    ("gates", "gates:\n  evidence_overlap: -0.1\n"),
    ("gates", "gates:\n  option_length_ratio: 0.5\n"),
    ("gates", "gates:\n  min_clauses: -1\n"),
    ("gates", "gates:\n  min_reasoning_chars: -1\n"),
]


@pytest.mark.parametrize("section, text", _OUT_OF_RANGE,
                         ids=[text.splitlines()[-1].strip() for _, text in _OUT_OF_RANGE])
def test_out_of_range_value_is_rejected_naming_the_section(tmp_path, section, text):
    with pytest.raises(ConfigError, match=f"invalid {section} config: "):
        load_config(_write(tmp_path, text))


class TestTypes:
    @pytest.mark.parametrize("key, text", _WRONG_TYPES, ids=[key for key, _ in _WRONG_TYPES])
    def test_wrong_type_is_rejected_naming_the_key(self, tmp_path, key, text):
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(_write(tmp_path, text))

    def test_float_field_takes_an_int(self, tmp_path):
        config = load_config(_write(
            tmp_path,
            "retrieval:\n  alpha: 1\n  beta: 0\nendpoint:\n" + _ENDPOINT + "  backoff_base: 2\n",
        ))
        assert (config.weights.alpha, config.weights.beta) == (1.0, 0.0)
        assert isinstance(config.weights.alpha, float)
        assert config.endpoint.backoff_base == 2.0

    @pytest.mark.parametrize("key, text", _NON_FINITE, ids=[key for key, _ in _NON_FINITE])
    def test_non_finite_float_is_rejected_naming_the_key(self, tmp_path, key, text):
        with pytest.raises(ConfigError, match=re.escape(key) + " must be a finite number"):
            load_config(_write(tmp_path, text))

    def test_int_too_large_for_a_float_is_rejected_naming_the_key(self, tmp_path):
        text = "endpoint:\n" + _ENDPOINT + f"  timeout: {10 ** 400}\n"
        with pytest.raises(ConfigError, match=re.escape("endpoint.timeout")):
            load_config(_write(tmp_path, text))

    def test_null_auth_token_falls_back_to_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(AUTH_TOKEN_ENV, "from-env")
        path = _write(tmp_path, "endpoint:\n" + _ENDPOINT + "  auth_token: null\n")
        assert load_config(path).endpoint.auth_token == "from-env"


# ---------------------------------------------------------------------------
# Library constructors reject what a config file rejects, NaN included

NAN, INF = float("nan"), float("inf")
_NAMES = {"base_url": "http://llm/v1", "model_name": "m"}

# (class, keyword arguments it rejects, what the message names)
_REJECTED = [
    (FusionWeights, {"alpha": NAN, "beta": NAN}, "non-negative"),
    (FusionWeights, {"alpha": NAN, "beta": 1.0}, "non-negative"),
    (FusionWeights, {"alpha": INF, "beta": 0.0}, "sum to 1"),
    (EndpointConfig, {**_NAMES, "timeout": NAN}, "timeout"),
    (EndpointConfig, {**_NAMES, "timeout": INF}, "timeout"),
    (EndpointConfig, {**_NAMES, "backoff_base": -3.0}, "backoff_base"),
    (EndpointConfig, {**_NAMES, "backoff_base": NAN}, "backoff_base"),
    (EndpointConfig, {**_NAMES, "backoff_base": INF}, "backoff_base"),
    (GateThresholds, {"question_min_chars": 500}, "question_min_chars"),
    (GateThresholds, {"question_min_chars": -1}, "question_min_chars"),
    (GateThresholds, {"question_max_chars": 5}, "question_max_chars"),
    (GateThresholds, {"min_clauses": -1}, "min_clauses"),
    (GateThresholds, {"min_reasoning_chars": -1}, "min_reasoning_chars"),
    (GateThresholds, {"support_jaccard": 7.0}, "support_jaccard"),
    (GateThresholds, {"support_jaccard": NAN}, "support_jaccard"),
    (GateThresholds, {"evidence_overlap": -0.1}, "evidence_overlap"),
    (GateThresholds, {"dedup_jaccard": -1.0}, "dedup_jaccard"),
    (GateThresholds, {"dedup_jaccard": 0.0}, "dedup_jaccard"),
    (GateThresholds, {"dedup_jaccard": 1.5}, "dedup_jaccard"),
    (GateThresholds, {"option_length_ratio": 0.5}, "option_length_ratio"),
    (GateThresholds, {"option_length_ratio": INF}, "option_length_ratio"),
    (GateThresholds, {"option_length_ratio": NAN}, "option_length_ratio"),
]

# (class, keyword arguments at the edge of each range, all accepted)
_ACCEPTED = [
    (EndpointConfig, {**_NAMES, "backoff_base": 0.0, "timeout": 1e-3}),
    (GateThresholds, {"question_max_chars": 20}),
    (GateThresholds, {"question_min_chars": 0, "question_max_chars": 0, "min_clauses": 0,
                      "min_reasoning_chars": 0, "support_jaccard": 0.0,
                      "evidence_overlap": 1.0, "dedup_jaccard": 1.0,
                      "option_length_ratio": 1.0}),
    (GateThresholds, {"support_jaccard": 1.0, "evidence_overlap": 0.0, "dedup_jaccard": 1e-9}),
]


def _case_id(cls, kwargs) -> str:
    return cls.__name__ + "-" + ",".join(f"{k}={v}" for k, v in kwargs.items()
                                         if k not in _NAMES)


class TestConstructors:
    @pytest.mark.parametrize("cls, kwargs, match", _REJECTED,
                             ids=[_case_id(cls, kwargs) for cls, kwargs, _ in _REJECTED])
    def test_out_of_range_value_is_rejected(self, cls, kwargs, match):
        with pytest.raises(ValueError, match=match):
            cls(**kwargs)

    @pytest.mark.parametrize("cls, kwargs", _ACCEPTED,
                             ids=[_case_id(cls, kwargs) for cls, kwargs in _ACCEPTED])
    def test_range_edges_are_accepted(self, cls, kwargs):
        assert cls(**kwargs) == cls(**kwargs)
