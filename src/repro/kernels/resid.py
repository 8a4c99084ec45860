"""RESID: the 27-point residual kernel from NAS/SPEC MGRID (Figure 13).

    R = V - A0*U(center) - A1*(6 face neighbours)
          - A2*(12 edge neighbours) - A3*(8 corner neighbours)

Reads: 1 V + 27 U; writes: 1 R. The paper tiles loops I2 (J) and I1 (I)
with the I3 (K) loop kept inside the tile loops, tolerating the
cross-interference of the single V reference (Section 3.5).

NAS MG uses coefficients a = (-8/3, 0, 1/6, 1/12); with A1 = 0 the six
face terms vanish *numerically* but the Fortran still references them,
so the trace keeps all 27 U reads regardless of coefficients.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.ir.stencil import RESID_27PT
from repro.kernels.base import KernelMeta, Schedule, StencilKernel
from repro.layout.array import ArraySpec
from repro.trace import enumerators as en
from repro.trace.generator import Ref

__all__ = ["Resid", "NAS_MG_A"]

#: NAS MG's residual coefficients (A0, A1, A2, A3).
NAS_MG_A = (-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0)


def _shells() -> tuple[list, list, list, list]:
    """27-point offsets grouped by |di|+|dj|+|dk| (center/face/edge/corner)."""
    groups: tuple[list, list, list, list] = ([], [], [], [])
    for o in RESID_27PT.offsets:
        groups[abs(o[0]) + abs(o[1]) + abs(o[2])].append(o)
    return groups


_CENTER, _FACES, _EDGES, _CORNERS = _shells()


class Resid(StencilKernel):
    """27-point residual: 28 reads, 1 write, 31 flops per point."""

    meta = KernelMeta(name="RESID", mi=RESID_27PT.mi, mj=RESID_27PT.mj,
                      atd=RESID_27PT.atd, reads=28, writes=1, flops=31,
                      array_names=("U", "V", "R"),
                      # Only U carries the tiled group reuse; V is read
                      # once per point and R's writes bypass the cache,
                      # so only U is re-declared with padded dims (the
                      # paper's Section 4.6 approach).
                      padded_arrays=("U",))

    def __init__(self, n: int, nk: int | None = None, elem_bytes: int = 8,
                 a: tuple[float, float, float, float] = NAS_MG_A):
        super().__init__(n, nk, elem_bytes)
        self.a = a

    # ------------------------------------------------------------------
    def refs(self, specs: dict[str, ArraySpec]) -> list[Ref]:
        u, v, r = specs["U"], specs["V"], specs["R"]
        # Program order per Figure 13: V, then U terms shell by shell.
        reads = [Ref(v, 0, 0, 0)]
        for group in (_CENTER, _FACES, _EDGES, _CORNERS):
            reads += [Ref(u, *o) for o in group]
        return reads + [Ref(r, 0, 0, 0, is_write=True)]

    def iter_chunks(self, schedule: Schedule, ti=None, tj=None, tk=None,
                    group=None) -> Iterator:
        if schedule is Schedule.UNTILED:
            return en.untiled_3d(self.n, self.nk)
        if schedule is Schedule.TILED:
            return en.tiled_3d(self.n, ti, tj, self.nk, group)
        if schedule is Schedule.TILED_3LOOP:
            return en.tiled_3loop(self.n, ti, tj, tk or self.meta.atd,
                                  self.nk, group)
        raise ConfigurationError(f"RESID has no schedule {schedule}")

    # ------------------------------------------------------------------
    # numerics
    # ------------------------------------------------------------------
    def init_state(self, seed: int = 0) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
        rng = np.random.default_rng(seed)
        shape = (self.n, self.n, self.nk)
        u = np.asfortranarray(rng.random(shape))
        v = np.asfortranarray(rng.random(shape))
        r = np.zeros(shape, order="F")
        return u, v, r

    def step_reference(self, r: np.ndarray, u: np.ndarray, v: np.ndarray
                       ) -> None:
        """Whole-interior residual (untiled order)."""
        self._block(r, u, v, (1, r.shape[0] - 1), (1, r.shape[1] - 1))

    def step_tiled(self, r: np.ndarray, u: np.ndarray, v: np.ndarray,
                   ti: int, tj: int) -> None:
        """Figure 13 tiled order (numerically identical)."""
        n0, n1, _ = r.shape
        for jlo in range(1, n1 - 1, tj):
            jhi = min(jlo + tj, n1 - 1)
            for ilo in range(1, n0 - 1, ti):
                ihi = min(ilo + ti, n0 - 1)
                self._block(r, u, v, (ilo, ihi), (jlo, jhi))

    def _block(self, r: np.ndarray, u: np.ndarray, v: np.ndarray,
               irange: tuple[int, int], jrange: tuple[int, int]) -> None:
        a0, a1, a2, a3 = self.a
        ilo, ihi = irange
        jlo, jhi = jrange
        kz = u.shape[2] - 1

        def shell(group) -> np.ndarray:
            total = None
            for di, dj, dk in group:
                term = u[ilo + di:ihi + di, jlo + dj:jhi + dj,
                         1 + dk:kz + dk]
                total = term.copy() if total is None else total + term
            return total

        out = v[ilo:ihi, jlo:jhi, 1:kz] - a0 * shell(_CENTER)
        if a1 != 0.0:
            out -= a1 * shell(_FACES)
        out -= a2 * shell(_EDGES)
        out -= a3 * shell(_CORNERS)
        r[ilo:ihi, jlo:jhi, 1:kz] = out
