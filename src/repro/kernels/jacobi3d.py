"""3D Jacobi iteration (Figures 3 and 6): the paper's JACOBI kernel."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.ir.stencil import JACOBI_3D
from repro.kernels.base import KernelMeta, Schedule, StencilKernel
from repro.layout.array import ArraySpec
from repro.trace import enumerators as en
from repro.trace.generator import Ref

__all__ = ["Jacobi3D"]


class Jacobi3D(StencilKernel):
    """6-point stencil ``A = C * (sum of B's six neighbours)``.

    Reads 6, writes 1, 6 flops (5 adds + 1 multiply) per point;
    margins (2, 2); array tile depth 3.
    """

    meta = KernelMeta(name="JACOBI", mi=JACOBI_3D.mi, mj=JACOBI_3D.mj,
                      atd=JACOBI_3D.atd, reads=6, writes=1, flops=6,
                      array_names=("B", "A"))

    # ------------------------------------------------------------------
    def refs(self, specs: dict[str, ArraySpec]) -> list[Ref]:
        b, a = specs["B"], specs["A"]
        reads = [Ref(b, *o) for o in JACOBI_3D.offsets]
        return reads + [Ref(a, 0, 0, 0, is_write=True)]

    def iter_chunks(self, schedule: Schedule, ti=None, tj=None, tk=None,
                    group=None) -> Iterator:
        if schedule is Schedule.UNTILED:
            return en.untiled_3d(self.n, self.nk)
        if schedule is Schedule.TILED:
            return en.tiled_3d(self.n, ti, tj, self.nk, group)
        if schedule is Schedule.TILED_3LOOP:
            return en.tiled_3loop(self.n, ti, tj, tk or self.meta.atd,
                                  self.nk, group)
        raise ConfigurationError(f"JACOBI has no schedule {schedule}")

    # ------------------------------------------------------------------
    # numerics
    # ------------------------------------------------------------------
    def init_state(self, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Fresh (A, B) grids; B random, A zero, Fortran-ordered."""
        rng = np.random.default_rng(seed)
        shape = (self.n, self.n, self.nk)
        b = np.asfortranarray(rng.random(shape))
        a = np.zeros(shape, order="F")
        return a, b

    @staticmethod
    def step_reference(a: np.ndarray, b: np.ndarray, c: float = 1.0 / 6.0
                       ) -> None:
        """One untiled sweep: update all interior points of ``a``."""
        a[1:-1, 1:-1, 1:-1] = c * (
            b[:-2, 1:-1, 1:-1] + b[2:, 1:-1, 1:-1] +
            b[1:-1, :-2, 1:-1] + b[1:-1, 2:, 1:-1] +
            b[1:-1, 1:-1, :-2] + b[1:-1, 1:-1, 2:])

    @staticmethod
    def step_tiled(a: np.ndarray, b: np.ndarray, ti: int, tj: int,
                   c: float = 1.0 / 6.0) -> None:
        """One sweep in Figure 6 tile order (numerically identical)."""
        n0, n1, _ = a.shape
        for jlo in range(1, n1 - 1, tj):
            jhi = min(jlo + tj, n1 - 1)
            for ilo in range(1, n0 - 1, ti):
                ihi = min(ilo + ti, n0 - 1)
                a[ilo:ihi, jlo:jhi, 1:-1] = c * (
                    b[ilo - 1:ihi - 1, jlo:jhi, 1:-1] +
                    b[ilo + 1:ihi + 1, jlo:jhi, 1:-1] +
                    b[ilo:ihi, jlo - 1:jhi - 1, 1:-1] +
                    b[ilo:ihi, jlo + 1:jhi + 1, 1:-1] +
                    b[ilo:ihi, jlo:jhi, :-2] +
                    b[ilo:ihi, jlo:jhi, 2:])

    def solve(self, sweeps: int, tile=None, seed: int = 0,
              c: float = 1.0 / 6.0) -> np.ndarray:
        """Run ``sweeps`` ping-pong Jacobi sweeps; returns the result grid.

        With ``tile=(ti, tj)`` the tiled schedule is used — the answer is
        identical either way (tested), only the access order differs.
        """
        a, b = self.init_state(seed)
        for _ in range(sweeps):
            if tile is None:
                self.step_reference(a, b, c)
            else:
                self.step_tiled(a, b, tile[0], tile[1], c)
            a, b = b, a
        return b
