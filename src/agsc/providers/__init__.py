"""External service clients, deterministic mocks, and the response cache."""

from .base import (
    DecomposerProvider,
    EmbeddingProvider,
    EmbeddingVector,
    NliLogits,
    NliProvider,
    ProtocolError,
    ProviderConfig,
    ProviderError,
    RetryPolicy,
)
from .cache import (
    CacheCorruptError,
    CachedDecomposer,
    CachedEmbedding,
    CachedNli,
    ResponseCache,
    content_key,
)
from .decompose import (
    ResilientDecomposer,
    RuleBasedDecomposer,
    build_decompose_messages,
    parse_fact_lines,
    split_facts_rule_based,
)
from .http import HttpDecomposerProvider, HttpEmbeddingProvider, HttpNliProvider
from .mocks import (
    FixedLatencyDecomposer,
    HashEmbeddingProvider,
    HashNliProvider,
    ScriptedDecomposerProvider,
    ScriptedNliProvider,
)

__all__ = [
    "CacheCorruptError",
    "CachedDecomposer",
    "CachedEmbedding",
    "CachedNli",
    "DecomposerProvider",
    "EmbeddingProvider",
    "EmbeddingVector",
    "FixedLatencyDecomposer",
    "HashEmbeddingProvider",
    "HashNliProvider",
    "HttpDecomposerProvider",
    "HttpEmbeddingProvider",
    "HttpNliProvider",
    "NliLogits",
    "NliProvider",
    "ProtocolError",
    "ProviderConfig",
    "ProviderError",
    "ResilientDecomposer",
    "ResponseCache",
    "RetryPolicy",
    "RuleBasedDecomposer",
    "ScriptedDecomposerProvider",
    "ScriptedNliProvider",
    "build_decompose_messages",
    "content_key",
    "parse_fact_lines",
    "split_facts_rule_based",
]
