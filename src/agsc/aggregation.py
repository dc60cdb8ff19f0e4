"""Theme-weighted aggregation of unit uncertainties into one score.

Cluster mass is accumulated responsibility; each cluster's uncertainty is
the mass-normalized average of the anchor-unit uncertainties it holds;
cluster weights are normalized masses. Two mass domains are supported, and
both run the one mass-weighted core:

  global  -- masses over all clustered units (anchor plus references),
             while uncertainties still come from anchor units only.
             Themes prominent across the whole sample set then genuinely
             reweight the anchor's units.
  literal -- the global core run on the anchor rows alone. Algebraically
             this always collapses to the plain mean of the unit
             uncertainties (weights and normalizers cancel), so the
             telescoping identity pins the arithmetic `agsc` itself runs.

A uniform mode (no clustering) and a fallback for fully-skipped anchors
round out the surface. Only the two mass-weighted modes import numpy, at
their first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

LITERAL_MASS_FLOOR = 1e-12
ANCHOR_MASS_FLOOR = 1e-6

MODE_LITERAL = "literal"
MODE_GLOBAL = "global"
MODE_UNIFORM = "uniform"


class DegenerateClusteringError(Exception):
    """No cluster retained enough anchor mass to define a score."""


@dataclass(frozen=True)
class ClusterSummary:
    """Mass, uncertainty, and weight of one cluster.

    uncertainty is None for clusters excluded from weighting (no anchor
    mass to normalize by); their weight is 0.
    """

    k: int
    mass: float
    uncertainty: float | None
    weight: float


@dataclass(frozen=True)
class FinalScore:
    u_final: float
    aggregation_mode: str
    fallback_used: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.u_final <= 1.0:
            raise ValueError(f"u_final {self.u_final} outside [0, 1]")
        if self.aggregation_mode not in (MODE_LITERAL, MODE_GLOBAL, MODE_UNIFORM):
            raise ValueError(f"unknown aggregation mode {self.aggregation_mode!r}")


def _clip01(x: float) -> float:
    return min(1.0, max(0.0, x))


def aggregate_literal(
    gamma_anchor: np.ndarray, uncertainties: Sequence[float]
) -> tuple[FinalScore, list[ClusterSummary]]:
    """Mass-weighted aggregation with masses over anchor units only.

    The global core with the anchor rows as all rows. Clusters with mass
    below 1e-12 are dropped before weighting; if none is left, it raises
    DegenerateClusteringError. By the telescoping of mass, weight, and
    normalization this equals the unweighted mean of the uncertainties
    (up to float error).
    """
    import numpy as np

    gamma = np.asarray(gamma_anchor, dtype=np.float64)
    u = np.asarray(uncertainties, dtype=np.float64)
    if gamma.ndim != 2 or gamma.shape[0] != len(u) or len(u) == 0:
        raise ValueError("need one responsibility row per anchor unit")
    return _mass_weighted(gamma, gamma, u, LITERAL_MASS_FLOOR, MODE_LITERAL)


def aggregate_global(
    gamma_all: np.ndarray,
    anchor_mask: Sequence[bool],
    uncertainties: Sequence[float],
) -> tuple[FinalScore, list[ClusterSummary]]:
    """Mass-weighted aggregation with masses over all clustered units.

    Cluster mass counts every unit (anchor and reference); cluster
    uncertainty averages anchor units only, normalized by the anchor mass
    inside that cluster. Clusters whose anchor mass falls below 1e-6 are
    excluded and the remaining weights renormalized.
    """
    import numpy as np

    gamma = np.asarray(gamma_all, dtype=np.float64)
    mask = np.asarray(anchor_mask, dtype=bool)
    u = np.asarray(uncertainties, dtype=np.float64)
    if gamma.ndim != 2 or gamma.shape[0] != len(mask):
        raise ValueError("need one responsibility row per clustered unit")
    if mask.sum() != len(u) or len(u) == 0:
        raise ValueError("need one uncertainty per anchor unit")
    return _mass_weighted(gamma, gamma[mask], u, ANCHOR_MASS_FLOOR, MODE_GLOBAL)


def _mass_weighted(
    gamma: np.ndarray, anchor: np.ndarray, u: np.ndarray, floor: float, mode: str
) -> tuple[FinalScore, list[ClusterSummary]]:
    """Cluster masses sum the rows of `gamma`; cluster uncertainties
    average `u` over the rows of `anchor`, normalized by the anchor mass.
    Clusters whose anchor mass falls below `floor` are excluded."""
    mass = gamma.sum(axis=0)
    anchor_mass = anchor.sum(axis=0)
    retained = anchor_mass >= floor
    if not retained.any():
        raise DegenerateClusteringError("no cluster retains anchor mass")
    weights_r = mass[retained] / mass[retained].sum()
    u_k = (anchor[:, retained] * u[:, None]).sum(axis=0) / anchor_mass[retained]
    u_final = _clip01(float(weights_r @ u_k))

    summaries = _summaries(mass, retained, u_k, weights_r)
    return FinalScore(u_final=u_final, aggregation_mode=mode), summaries


def aggregate_uniform(uncertainties: Sequence[float]) -> FinalScore:
    """Unweighted mean over anchor units (the no-clustering path)."""
    if len(uncertainties) == 0:
        raise ValueError("no anchor units to aggregate")
    u_final = _clip01(math.fsum(uncertainties) / len(uncertainties))
    return FinalScore(u_final=u_final, aggregation_mode=MODE_UNIFORM)


def all_skip_fallback(sentence_uncertainties: Sequence[float]) -> FinalScore:
    """Score for an anchor whose every sentence was skipped: the uniform
    mean of the pre-skip sentence-level uncertainties, flagged so reports
    show the degradation.
    """
    return replace(aggregate_uniform(sentence_uncertainties), fallback_used=True)


def _summaries(
    mass: np.ndarray,
    retained: np.ndarray,
    u_k: np.ndarray,
    weights_r: np.ndarray,
) -> list[ClusterSummary]:
    summaries = []
    pos = 0
    for k in range(len(mass)):
        if retained[k]:
            summaries.append(
                ClusterSummary(
                    k=k,
                    mass=float(mass[k]),
                    uncertainty=float(u_k[pos]),
                    weight=float(weights_r[pos]),
                )
            )
            pos += 1
        else:
            summaries.append(
                ClusterSummary(k=k, mass=float(mass[k]), uncertainty=None, weight=0.0)
            )
    return summaries
