"""Method variants, rank correlations, and the comparison table.

The variants themselves (`VARIANTS`, `MethodVariant`) live in
`agsc.config` and are re-exported here; `run_variant` scores a corpus
with one of them.

Correlations against factuality labels are reported as Pearson and
Spearman coefficients; more negative is better (high uncertainty should
accompany low factuality). Constant inputs raise instead of returning 0
so degenerate runs cannot masquerade as signal.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import VARIANTS, MethodVariant, PipelineConfig  # noqa: F401 (re-exported)
from .corpus import SampleSet
from .pipeline import PromptFailure, PromptReport, ProviderBundle, run_many

logger = logging.getLogger(__name__)


class UndefinedCorrelationError(Exception):
    """Correlation is undefined (constant input or too few points)."""


def apply_variant(config: PipelineConfig, name: str) -> PipelineConfig:
    """`config` set to run the variant `name`; ValueError for an unknown name."""
    if name not in VARIANTS:
        raise ValueError(
            f"unknown variant {name!r}; expected one of {sorted(VARIANTS)}"
        )
    return dataclasses.replace(config, variant=name)


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank span."""
    x = np.asarray(values, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    i = 0
    n = len(x)
    while i < n:
        j = i
        while j + 1 < n and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation; constant input is an error, not zero."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length 1-D sequences")
    if len(x) < 2:
        raise ValueError("correlation needs at least 2 points")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("correlation undefined for constant input")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation over average ranks."""
    return pearson(average_ranks(xs), average_ranks(ys))


def run_variant_reports(
    samples: Sequence[SampleSet],
    variant: str,
    config: PipelineConfig,
    providers: ProviderBundle,
) -> list[PromptReport]:
    """Run one variant over a corpus in memory; failed prompts are dropped."""
    variant_config = apply_variant(config, variant)
    results = run_many(samples, variant_config, providers)
    reports = [r for r in results if not isinstance(r, PromptFailure)]
    failed = len(results) - len(reports)
    if failed:
        logger.warning("variant %s: %d prompts failed", variant, failed)
    return reports


def run_variant(
    samples: Sequence[SampleSet],
    variant: str,
    config: PipelineConfig,
    providers: ProviderBundle,
) -> list[tuple[str, float]]:
    """Uncertainty scores of one variant: (prompt_id, u_final) pairs."""
    return [
        (r.prompt_id, r.final.u_final)
        for r in run_variant_reports(samples, variant, config, providers)
    ]


@dataclass(frozen=True)
class CorrelationReport:
    """One comparison-table row for a variant."""

    variant: str
    pcc: float
    scc: float
    n_prompts: int
    decomposer_calls: int
    mean_t_nli_ms: float
    mean_t_atom_ms: float
    mean_t_cluster_ms: float

    def __post_init__(self) -> None:
        if self.n_prompts < 2:
            raise ValueError("correlations need at least 2 labeled prompts")


def compare(
    reports_by_variant: dict[str, list[PromptReport]],
    labels: dict[str, float],
) -> list[CorrelationReport]:
    """Correlate each variant's scores with factuality labels.

    Prompts without a label are ignored; a variant with fewer than two
    labeled prompts (or constant scores) is skipped with a warning.
    """
    rows: list[CorrelationReport] = []
    for variant, reports in reports_by_variant.items():
        labeled = [r for r in reports if r.prompt_id in labels]
        if len(labeled) < 2:
            logger.warning(
                "variant %s skipped: %d labeled prompts", variant, len(labeled)
            )
            continue
        scores = [r.final.u_final for r in labeled]
        truth = [labels[r.prompt_id] for r in labeled]
        try:
            pcc = pearson(scores, truth)
            scc = spearman(scores, truth)
        except UndefinedCorrelationError as e:
            logger.warning("variant %s skipped: %s", variant, e)
            continue
        n = len(labeled)
        rows.append(
            CorrelationReport(
                variant=variant,
                pcc=pcc,
                scc=scc,
                n_prompts=n,
                decomposer_calls=sum(r.timing.decomposer_calls for r in labeled),
                mean_t_nli_ms=sum(r.timing.t_nli_ms for r in labeled) / n,
                mean_t_atom_ms=sum(r.timing.t_atom_ms for r in labeled) / n,
                mean_t_cluster_ms=sum(r.timing.t_cluster_ms for r in labeled) / n,
            )
        )
    return rows


TABLE_HEADER = (
    "variant",
    "pcc",
    "scc",
    "n",
    "decomposer_calls",
    "t_nli_ms",
    "t_atom_ms",
    "t_cluster_ms",
)


def comparison_table(rows: Sequence[CorrelationReport]) -> str:
    """Render comparison rows as CSV with a fixed header."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TABLE_HEADER)
    for row in rows:
        writer.writerow(
            [
                row.variant,
                f"{row.pcc:.6f}",
                f"{row.scc:.6f}",
                row.n_prompts,
                row.decomposer_calls,
                f"{row.mean_t_nli_ms:.3f}",
                f"{row.mean_t_atom_ms:.3f}",
                f"{row.mean_t_cluster_ms:.3f}",
            ]
        )
    return buf.getvalue()
