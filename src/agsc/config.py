"""Pipeline configuration and the flat key-value config file format.

Config files are plain text, one `section.key = value` entry per line,
`#` comments allowed. Every tunable has a default matching the method's
published operating point (gap threshold 0.1, covariance regularization
1e-5, BIC improvement threshold 0.01, cluster cap 15, reduced dimension
32), so an empty file is a valid config. The method is chosen by the
`variant` key alone; its row in VARIANTS fixes the granularity,
clustering and aggregation modes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from .aggregation import MODE_GLOBAL, MODE_LITERAL, MODE_UNIFORM
from .clustering import ClusteringConfig
from .providers import ProviderConfig
from .routing import (
    MODE_ADAPTIVE,
    MODE_ALL_ATOMIC,
    MODE_NEUTRAL_GUESS,
    MODE_NEUTRAL_WEIGHT,
    MODE_OFF,
    GranularityConfig,
)
from .scoring import ScoringConfig

CLUSTER_GMM = "gmm"
CLUSTER_KMEANS = "kmeans"
CLUSTER_NONE = "none"

TIMING_WALL = "wall"
TIMING_OFF = "off"

# The most prompts in flight when `workers = 0`: enough that the turn
# stays busy while the others wait on providers. A run starts prompt
# threads only as its prompts wait, so it reaches this bound only when
# they do (README "Concurrency").
DEFAULT_WORKERS = 24


class ConfigError(Exception):
    """Raised for unknown keys, bad values, or malformed config lines."""


@dataclass(frozen=True)
class MethodVariant:
    """A named method: its (granularity, clustering, aggregation) mode triple."""

    name: str
    granularity_mode: str
    clustering_mode: str
    aggregation_mode: str


# PipelineConfig.variant names one row; nothing else chooses the method.
#   agsc              adaptive routing, soft clustering, global masses
#   agsc_literal      adaptive routing, soft clustering, anchor-only masses
#   luq_sentence      sentence granularity everywhere, plain mean
#   luq_atomic        decompose every sentence, plain mean
#   ablate_no_adapt   routing disabled, clustering kept
#   ablate_ng         skips replaced by a fixed 0.5 uncertainty
#   ablate_nw         neutral mass folded into scoring at half weight
#   ablate_no_cluster adaptive routing, plain mean (no clustering)
#   ablate_kmeans     hard k-means instead of soft responsibilities
VARIANTS: dict[str, MethodVariant] = {
    v.name: v
    for v in (
        MethodVariant("agsc", MODE_ADAPTIVE, CLUSTER_GMM, MODE_GLOBAL),
        MethodVariant("agsc_literal", MODE_ADAPTIVE, CLUSTER_GMM, MODE_LITERAL),
        MethodVariant("luq_sentence", MODE_OFF, CLUSTER_NONE, MODE_UNIFORM),
        MethodVariant("luq_atomic", MODE_ALL_ATOMIC, CLUSTER_NONE, MODE_UNIFORM),
        MethodVariant("ablate_no_adapt", MODE_OFF, CLUSTER_GMM, MODE_GLOBAL),
        MethodVariant("ablate_ng", MODE_NEUTRAL_GUESS, CLUSTER_GMM, MODE_GLOBAL),
        MethodVariant("ablate_nw", MODE_NEUTRAL_WEIGHT, CLUSTER_GMM, MODE_GLOBAL),
        MethodVariant("ablate_no_cluster", MODE_ADAPTIVE, CLUSTER_NONE, MODE_UNIFORM),
        MethodVariant("ablate_kmeans", MODE_ADAPTIVE, CLUSTER_KMEANS, MODE_GLOBAL),
    )
}


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
        # A mock slower than the transport timeout models a call that would
        # have timed out; a huge value would also overflow time.sleep.
        if not 0.0 <= self.mock_latency_ms <= self.transport.timeout_ms:
            raise ConfigError(
                "mock_latency_ms must be a number from 0 to transport.timeout_ms"
                f" ({self.transport.timeout_ms}), got {self.mock_latency_ms!r}"
            )


@dataclass(frozen=True)
class PipelineConfig:
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    granularity: GranularityConfig = field(default_factory=GranularityConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    variant: str = "agsc"
    seed: int = 0
    workers: int = 0  # most prompts in flight; 0 = DEFAULT_WORKERS on any host
    timing: str = TIMING_WALL
    cache_dir: str = ""
    report_dir: str = "reports"  # set from `agsc score --out`; no config key
    nli: ProviderSpec = field(default_factory=ProviderSpec)
    embed: ProviderSpec = field(default_factory=ProviderSpec)
    decompose: ProviderSpec = field(default_factory=ProviderSpec)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {self.variant!r}; expected one of {sorted(VARIANTS)}"
            )
        if self.timing not in (TIMING_WALL, TIMING_OFF):
            raise ConfigError(f"unknown timing mode {self.timing!r}")
        if self.workers < 0:
            raise ConfigError("workers must be >= 0")

    @property
    def method(self) -> MethodVariant:
        return VARIANTS[self.variant]

    def effective_workers(self) -> int:
        """Prompts in flight in a corpus run.

        Only one of them computes at a time (the turn) and the rest wait on
        providers, so the core count does not set how many must be in
        flight to keep the turn busy: the ratio of provider wait to compute
        per prompt does. The default is sized from that (README
        "Concurrency") and is the same on any host.
        """
        return self.workers if self.workers > 0 else DEFAULT_WORKERS


def default_config() -> PipelineConfig:
    return PipelineConfig()


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError as e:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from e


def _parse_float(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError as e:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from e
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: expected a finite number, got {raw!r}")
    return value


# key -> (target path, parser). Paths are attribute chains on PipelineConfig.
_KEYS: dict[str, tuple[tuple[str, ...], str]] = {
    "seed": (("seed",), "int"),
    "workers": (("workers",), "int"),
    "timing": (("timing",), "str"),
    "variant": (("variant",), "str"),
    "cache_dir": (("cache_dir",), "str"),
    "clustering.k_limit": (("clustering", "k_limit"), "int"),
    "clustering.bic_epsilon": (("clustering", "bic_epsilon"), "float"),
    "clustering.cov_reg": (("clustering", "cov_reg"), "float"),
    "clustering.em_tol": (("clustering", "em_tol"), "float"),
    "clustering.target_dim": (("clustering", "target_dim"), "int"),
    "scoring.chunk_budget_chars": (("scoring", "chunk_budget_chars"), "int"),
    "scoring.chunk_stride_chars": (("scoring", "chunk_stride_chars"), "int"),
    "granularity.tau": (("granularity", "tau"), "float"),
}

for _prov in ("nli", "embed", "decompose"):
    _KEYS[f"providers.{_prov}.kind"] = ((_prov, "kind"), "str")
    _KEYS[f"providers.{_prov}.endpoint"] = ((_prov, "transport", "endpoint"), "str")
    _KEYS[f"providers.{_prov}.auth_env_var"] = ((_prov, "transport", "auth_env_var"), "str")
    _KEYS[f"providers.{_prov}.max_in_flight"] = ((_prov, "transport", "max_in_flight"), "int")
    _KEYS[f"providers.{_prov}.timeout_ms"] = ((_prov, "transport", "timeout_ms"), "int")
    _KEYS[f"providers.{_prov}.retry.max_attempts"] = ((_prov, "transport", "retry", "max_attempts"), "int")
    _KEYS[f"providers.{_prov}.retry.base_backoff_ms"] = ((_prov, "transport", "retry", "base_backoff_ms"), "int")

# The decomposer posts one sentence per request, so only NLI and embed batch.
for _prov in ("nli", "embed"):
    _KEYS[f"providers.{_prov}.batch_size"] = ((_prov, "transport", "batch_size"), "int")

# Mock settings only where _build_nli, _build_embedder and _build_decomposer read them.
_KEYS["providers.nli.mock_seed"] = (("nli", "mock_seed"), "int")
_KEYS["providers.embed.mock_dim"] = (("embed", "mock_dim"), "int")
_KEYS["providers.decompose.mock_latency_ms"] = (("decompose", "mock_latency_ms"), "float")

_PARSERS = {"int": _parse_int, "float": _parse_float}


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
            try:
                values[key] = _PARSERS[kind](raw_value, key)
            except ConfigError as e:
                raise ConfigError(f"{source}:{lineno}: {e}") from e
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

