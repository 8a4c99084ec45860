"""Experiment configuration: cache geometry, problem sizes.

The paper's setup (Section 4.2): 16K/2M direct-mapped caches, problem
sizes ``N x N x 30`` with N in 200..400 step 10 (400..700 for the
large-size RESID study), float64 elements, write-around caches. The
defaults are exactly that setup; a smaller point is asked for
explicitly (``ExperimentConfig(nk=...)``, an explicit size list).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.params import CacheParams, ULTRASPARC2_L1, ULTRASPARC2_L2
from repro.perfmodel.machine import MachineModel, ULTRASPARC2_360

__all__ = ["ExperimentConfig", "default_sizes"]


def default_sizes(lo: int = 200, hi: int = 400) -> list[int]:
    """Problem sizes to sweep at the paper's density, step 10."""
    return list(range(lo, hi + 1, 10))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything :func:`repro.experiments.runner.run_point` needs."""

    l1: CacheParams = ULTRASPARC2_L1
    l2: CacheParams = ULTRASPARC2_L2
    machine: MachineModel = ULTRASPARC2_360
    elem_bytes: int = 8
    nk: int = 30
    #: Count write references in miss-rate denominators (the trace always
    #: carries them; write-around keeps them out of the caches).
    include_writes: bool = True
    #: Apply Section 3.5 inter-variable padding to multi-array kernels
    #: (off by default: the paper's RESID experiments *tolerate*
    #: cross-interference; see the ablation bench).
    inter_pad: bool = False

    @property
    def cs(self) -> int:
        """L1 capacity in elements — the C_s all selection algorithms use."""
        return self.l1.capacity_elements(self.elem_bytes)

    @property
    def levels(self) -> list[CacheParams]:
        return [self.l1, self.l2]
