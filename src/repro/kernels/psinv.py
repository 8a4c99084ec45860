"""PSINV: MGRID's approximate-inverse smoother as a first-class kernel.

Structurally RESID's sibling: a 27-point read stencil over the residual
array ``R`` plus a read-modify-write of the solution ``U``:

    U(I1,I2,I3) += C0*R(center) + C1*(faces) + C2*(edges) + C3*(corners)

The paper tiles RESID and "expects additional improvements to arise
from tiling the remaining subroutines" — PSINV is the next one in line,
and exposing it as a kernel lets the harness measure exactly that.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.ir.stencil import RESID_27PT
from repro.kernels.base import KernelMeta, Schedule, StencilKernel
from repro.kernels.mg_ops import NAS_C
from repro.layout.array import ArraySpec
from repro.trace import enumerators as en
from repro.trace.generator import Ref

__all__ = ["Psinv"]


def _by_shell():
    return sorted(RESID_27PT.offsets,
                  key=lambda o: (abs(o[0]) + abs(o[1]) + abs(o[2])))


class Psinv(StencilKernel):
    """27-point smoother: 28 reads (27 R + 1 U), 1 write, ~30 flops."""

    meta = KernelMeta(name="PSINV", mi=RESID_27PT.mi, mj=RESID_27PT.mj,
                      atd=RESID_27PT.atd, reads=28, writes=1, flops=30,
                      array_names=("R", "U"),
                      # R carries the tiled 27-point group reuse; U is
                      # touched once per point.
                      padded_arrays=("R",))

    def __init__(self, n: int, nk: int | None = None, elem_bytes: int = 8,
                 c: tuple[float, float, float, float] = NAS_C):
        super().__init__(n, nk, elem_bytes)
        self.c = c

    # ------------------------------------------------------------------
    def refs(self, specs: dict[str, ArraySpec]) -> list[Ref]:
        r, u = specs["R"], specs["U"]
        reads = [Ref(r, *o) for o in _by_shell()]
        reads.append(Ref(u, 0, 0, 0))  # the += read
        return reads + [Ref(u, 0, 0, 0, is_write=True)]

    def iter_chunks(self, schedule: Schedule, ti=None, tj=None, tk=None,
                    group=None) -> Iterator:
        if schedule is Schedule.UNTILED:
            return en.untiled_3d(self.n, self.nk)
        if schedule is Schedule.TILED:
            return en.tiled_3d(self.n, ti, tj, self.nk, group)
        if schedule is Schedule.TILED_3LOOP:
            return en.tiled_3loop(self.n, ti, tj, tk or self.meta.atd,
                                  self.nk, group)
        raise ConfigurationError(f"PSINV has no schedule {schedule}")

    # ------------------------------------------------------------------
    def init_state(self, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(seed)
        shape = (self.n, self.n, self.nk)
        r = np.asfortranarray(rng.random(shape))
        u = np.asfortranarray(rng.random(shape))
        return r, u

    def step_reference(self, r: np.ndarray, u: np.ndarray) -> None:
        """Whole-interior smoothing (untiled order)."""
        self._block(r, u, (1, r.shape[0] - 1), (1, r.shape[1] - 1))

    def step_tiled(self, r: np.ndarray, u: np.ndarray, ti: int,
                   tj: int) -> None:
        """Tiled order — identical numerics (no intra-sweep deps: the
        update reads R and U's own pre-sweep value only)."""
        n0, n1, _ = r.shape
        for jlo in range(1, n1 - 1, tj):
            jhi = min(jlo + tj, n1 - 1)
            for ilo in range(1, n0 - 1, ti):
                ihi = min(ilo + ti, n0 - 1)
                self._block(r, u, (ilo, ihi), (jlo, jhi))

    def _block(self, r: np.ndarray, u: np.ndarray,
               irange: tuple[int, int], jrange: tuple[int, int]) -> None:
        c0, c1, c2, c3 = self.c
        ilo, ihi = irange
        jlo, jhi = jrange
        kz = r.shape[2] - 1

        def shell(order: int) -> np.ndarray:
            total = None
            for di, dj, dk in RESID_27PT.offsets:
                if abs(di) + abs(dj) + abs(dk) != order:
                    continue
                term = r[ilo + di:ihi + di, jlo + dj:jhi + dj,
                         1 + dk:kz + dk]
                total = term.copy() if total is None else total + term
            return total

        upd = c0 * r[ilo:ihi, jlo:jhi, 1:kz]
        if c1 != 0.0:
            upd = upd + c1 * shell(1)
        if c2 != 0.0:
            upd = upd + c2 * shell(2)
        if c3 != 0.0:
            upd = upd + c3 * shell(3)
        u[ilo:ihi, jlo:jhi, 1:kz] += upd
