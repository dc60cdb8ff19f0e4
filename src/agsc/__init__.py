"""Consistency-based uncertainty scoring for long-form LLM generations.

The pipeline consumes a prompt with several sampled responses, scores the
first (anchor) response's sentences against the others with a three-class
NLI service, adaptively keeps, skips, or decomposes each sentence based
on how neutral the evidence is, soft-clusters the surviving units into
semantic themes, and aggregates unit uncertainties with theme-mass
weights into one score per prompt.

The package root exports only the entry points a driver needs to load a
dataset and configure a run; everything else is imported from its module
(`agsc.pipeline`, `agsc.providers`, `agsc.scoring`, ...).
"""

from .config import default_config
from .corpus import SampleSet, load_dataset
from .evaluation import apply_variant

__all__ = ["SampleSet", "apply_variant", "default_config", "load_dataset"]

__version__ = "0.1.0"
