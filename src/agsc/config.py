"""Pipeline configuration and the flat key-value config file format.

Config files are plain text, one `section.key = value` entry per line,
`#` comments allowed. Every tunable has a default matching the method's
published operating point (gap threshold 0.1, covariance regularization
1e-5, BIC improvement threshold 0.01, cluster cap 15, reduced dimension
32), so an empty file is a valid config.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from pathlib import Path

from .aggregation import MODE_GLOBAL, MODE_LITERAL, MODE_UNIFORM
from .clustering import ClusteringConfig
from .providers import ProviderConfig
from .routing import GranularityConfig
from .scoring import ScoringConfig

CLUSTER_GMM = "gmm"
CLUSTER_KMEANS = "kmeans"
CLUSTER_NONE = "none"

TIMING_WALL = "wall"
TIMING_OFF = "off"


class ConfigError(Exception):
    """Raised for unknown keys, bad values, or malformed config lines."""


@dataclass(frozen=True)
class ProviderSpec:
    """How to construct one provider: a mock or an HTTP client."""

    kind: str = "mock"  # "mock" | "http"
    transport: ProviderConfig = field(default_factory=ProviderConfig)
    mock_seed: int = 0  # NLI mocks only
    mock_dim: int = 64  # embedding mocks only
    mock_latency_ms: float = 0.0  # decomposer mocks only

    def __post_init__(self) -> None:
        if self.kind not in ("mock", "http"):
            raise ConfigError(f"unknown provider kind {self.kind!r}")


@dataclass(frozen=True)
class PipelineConfig:
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    granularity: GranularityConfig = field(default_factory=GranularityConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    aggregation_mode: str = MODE_GLOBAL
    clustering_mode: str = CLUSTER_GMM
    variant: str = "agsc"
    seed: int = 0
    workers: int = 0  # 0 = logical cores
    timing: str = TIMING_WALL
    debug_clusters: bool = False
    cache_dir: str = ""
    report_dir: str = "reports"
    nli: ProviderSpec = field(default_factory=ProviderSpec)
    embed: ProviderSpec = field(default_factory=ProviderSpec)
    decompose: ProviderSpec = field(default_factory=ProviderSpec)

    def __post_init__(self) -> None:
        if self.aggregation_mode not in (MODE_GLOBAL, MODE_LITERAL, MODE_UNIFORM):
            raise ConfigError(f"unknown aggregation mode {self.aggregation_mode!r}")
        if self.clustering_mode not in (CLUSTER_GMM, CLUSTER_KMEANS, CLUSTER_NONE):
            raise ConfigError(f"unknown clustering mode {self.clustering_mode!r}")
        if self.timing not in (TIMING_WALL, TIMING_OFF):
            raise ConfigError(f"unknown timing mode {self.timing!r}")
        if self.workers < 0:
            raise ConfigError("workers must be >= 0")
        if self.clustering_mode == CLUSTER_NONE and self.aggregation_mode != MODE_UNIFORM:
            raise ConfigError(
                "clustering.mode = none requires aggregation.mode = uniform"
            )

    def effective_workers(self) -> int:
        return self.workers if self.workers > 0 else (os.cpu_count() or 1)


def default_config() -> PipelineConfig:
    return PipelineConfig()


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError as e:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from e


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError as e:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from e


# key -> (target path, parser). Paths are attribute chains on PipelineConfig.
_KEYS: dict[str, tuple[tuple[str, ...], str]] = {
    "seed": (("seed",), "int"),
    "workers": (("workers",), "int"),
    "timing": (("timing",), "str"),
    "variant": (("variant",), "str"),
    "cache_dir": (("cache_dir",), "str"),
    "report_dir": (("report_dir",), "str"),
    "report.debug_clusters": (("debug_clusters",), "bool"),
    "aggregation.mode": (("aggregation_mode",), "str"),
    "clustering.mode": (("clustering_mode",), "str"),
    "clustering.k_limit": (("clustering", "k_limit"), "int"),
    "clustering.bic_epsilon": (("clustering", "bic_epsilon"), "float"),
    "clustering.cov_reg": (("clustering", "cov_reg"), "float"),
    "clustering.em_tol": (("clustering", "em_tol"), "float"),
    "clustering.em_max_iter": (("clustering", "em_max_iter"), "int"),
    "clustering.n_init": (("clustering", "n_init"), "int"),
    "clustering.target_dim": (("clustering", "target_dim"), "int"),
    "scoring.chunk_budget_chars": (("scoring", "chunk_budget_chars"), "int"),
    "scoring.chunk_stride_chars": (("scoring", "chunk_stride_chars"), "int"),
    "scoring.nli_direction": (("scoring", "nli_direction"), "str"),
    "scoring.routing_chunk_agg": (("scoring", "routing_chunk_agg"), "str"),
    "granularity.tau": (("granularity", "tau"), "float"),
    "granularity.mode": (("granularity", "mode"), "str"),
    "granularity.collapse_decomposed": (("granularity", "collapse_decomposed"), "bool"),
}

for _prov in ("nli", "embed", "decompose"):
    _KEYS[f"providers.{_prov}.kind"] = ((_prov, "kind"), "str")
    _KEYS[f"providers.{_prov}.endpoint"] = ((_prov, "transport", "endpoint"), "str")
    _KEYS[f"providers.{_prov}.auth_env_var"] = ((_prov, "transport", "auth_env_var"), "str")
    _KEYS[f"providers.{_prov}.batch_size"] = ((_prov, "transport", "batch_size"), "int")
    _KEYS[f"providers.{_prov}.max_in_flight"] = ((_prov, "transport", "max_in_flight"), "int")
    _KEYS[f"providers.{_prov}.timeout_ms"] = ((_prov, "transport", "timeout_ms"), "int")
    _KEYS[f"providers.{_prov}.retry.max_attempts"] = ((_prov, "transport", "retry", "max_attempts"), "int")
    _KEYS[f"providers.{_prov}.retry.base_backoff_ms"] = ((_prov, "transport", "retry", "base_backoff_ms"), "int")

# Mock settings only where _build_nli, _build_embedder and _build_decomposer read them.
_KEYS["providers.nli.mock_seed"] = (("nli", "mock_seed"), "int")
_KEYS["providers.embed.mock_dim"] = (("embed", "mock_dim"), "int")
_KEYS["providers.decompose.mock_latency_ms"] = (("decompose", "mock_latency_ms"), "float")

_PARSERS = {"int": _parse_int, "float": _parse_float, "bool": _parse_bool}


def parse_config_text(text: str, source: str = "<config>") -> PipelineConfig:
    """Parse config text into a PipelineConfig; unknown keys are errors."""
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        _, kind = _KEYS[key]
        if kind == "str":
            values[key] = raw_value
        else:
            values[key] = _PARSERS[kind](raw_value, key)
    return _build(values)


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    return parse_config_text(text, source=str(path))


def _build(values: dict[str, object]) -> PipelineConfig:
    # Group overrides by top-level attribute, then rebuild the frozen
    # dataclass tree from the inside out.
    overrides: dict[tuple[str, ...], object] = {
        _KEYS[k][0]: v for k, v in values.items()
    }

    def rebuild(obj, prefix: tuple[str, ...]):
        if not dataclasses.is_dataclass(obj):
            return overrides.get(prefix, obj)
        changes = {}
        for f in dataclasses.fields(obj):
            sub = rebuild(getattr(obj, f.name), prefix + (f.name,))
            if sub is not getattr(obj, f.name):
                changes[f.name] = sub
        if not changes:
            return overrides.get(prefix, obj)
        try:
            return dataclasses.replace(obj, **changes)
        except (ValueError, ConfigError) as e:
            raise ConfigError(str(e)) from e

    base = default_config()
    try:
        return rebuild(base, ())  # type: ignore[return-value]
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e


def config_to_text(config: PipelineConfig) -> str:
    """Render a config as the flat file format (all known keys)."""
    lines = []
    for key, (path, _) in sorted(_KEYS.items()):
        obj = config
        for attr in path:
            obj = getattr(obj, attr)
        if isinstance(obj, bool):
            obj = "true" if obj else "false"
        lines.append(f"{key} = {obj}")
    return "\n".join(lines) + "\n"
