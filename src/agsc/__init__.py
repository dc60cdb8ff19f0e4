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

Importing the package pins OpenBLAS and MKL to one thread unless the
caller already set `OPENBLAS_NUM_THREADS` or `MKL_NUM_THREADS`. The
library's matrices are tiny (tens of points in 32 dimensions), so a BLAS
thread pool only spins; and numpy and scipy each start their own. The pin
works only if numpy is not yet imported when `agsc` is. `OMP_NUM_THREADS`
belongs to the host process and is left alone.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from .config import default_config
from .corpus import SampleSet, load_dataset
from .evaluation import apply_variant

__all__ = ["SampleSet", "apply_variant", "default_config", "load_dataset"]

__version__ = "0.1.0"
