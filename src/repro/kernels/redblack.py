"""Red-black SOR in 3D (Figure 12): naive, fused, and tiled schedules.

The three schedules are **bitwise equivalent**: the fused schedule
updates red points of plane K+1 then black points of plane K on each KK
step, and the tiled schedule shifts each tile's red window by +1 in I
and J so that every black update still sees fully-updated red
neighbours while every red update still sees pre-sweep black values.
The test suite asserts exact equality of all three.

Numerically, one sweep is Gauss-Seidel with red-black ordering:

    A(I,J,K) = C1*A(I,J,K) + C2 * (six neighbours of A)

first over all red points (I+J+K even), then all black (odd).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels.base import KernelMeta, Schedule, StencilKernel
from repro.layout.array import ArraySpec
from repro.trace import enumerators as en
from repro.trace.generator import Ref

__all__ = ["RedBlack3D"]

_NEIGHBOR_OFFSETS = ((-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0),
                     (0, 0, -1), (0, 0, 1))


def _update_points(a: np.ndarray, i: np.ndarray, j: np.ndarray,
                   k: np.ndarray, c1: float, c2: float) -> None:
    """Gauss-Seidel update of same-colour points (1-based coordinates).

    Safe to vectorize because same-colour points are never neighbours of
    one another, so no point in the batch reads another's new value.
    """
    if i.size == 0:
        return
    i0, j0, k0 = i - 1, j - 1, k - 1
    s = a[i0 - 1, j0, k0] + a[i0 + 1, j0, k0] \
        + a[i0, j0 - 1, k0] + a[i0, j0 + 1, k0] \
        + a[i0, j0, k0 - 1] + a[i0, j0, k0 + 1]
    a[i0, j0, k0] = c1 * a[i0, j0, k0] + c2 * s


class RedBlack3D(StencilKernel):
    """Red-black successive over-relaxation with a 6-point stencil.

    Per updated point: 7 reads (center + 6 neighbours), 1 write,
    7 flops. Margins (2, 2); the fused/tiled schedule holds 4 planes
    resident (red of K+1 back to black of K-1), so ATD = 4.
    """

    meta = KernelMeta(name="REDBLACK", mi=2, mj=2, atd=4, reads=7, writes=1,
                      flops=7, array_names=("A",))

    # ------------------------------------------------------------------
    def refs(self, specs: dict[str, ArraySpec]) -> list[Ref]:
        a = specs["A"]
        reads = [Ref(a, 0, 0, 0)] + [Ref(a, *o) for o in _NEIGHBOR_OFFSETS]
        return reads + [Ref(a, 0, 0, 0, is_write=True)]

    def iter_chunks(self, schedule: Schedule, ti=None, tj=None, tk=None,
                    group=None) -> Iterator:
        if schedule is Schedule.UNTILED:
            return en.redblack_naive(self.n, self.nk)
        if schedule is Schedule.FUSED:
            return en.redblack_fused(self.n, self.nk)
        if schedule is Schedule.TILED:
            return en.redblack_tiled(self.n, ti, tj, self.nk, group)
        raise ConfigurationError(f"REDBLACK has no schedule {schedule}")

    # ------------------------------------------------------------------
    # numerics
    # ------------------------------------------------------------------
    def init_state(self, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return np.asfortranarray(rng.random((self.n, self.n, self.nk)))

    def step_naive(self, a: np.ndarray, c1: float = 0.5,
                   c2: float = 1.0 / 12.0) -> None:
        """Red pass then black pass, whole-array vectorized.

        Within one colour pass every read is of the *other* colour (or
        the point's own old value), so computing the update from a
        pre-pass snapshot matches the sequential Fortran loop exactly.
        """
        interior = a[1:-1, 1:-1, 1:-1]
        n0, n1, n2 = interior.shape
        i0, j0, k0 = np.ogrid[0:n0, 0:n1, 0:n2]
        # 1-based sum parity: (i0+2) + (j0+2) + (k0+2) == i0+j0+k0 (mod 2).
        parity = (i0 + j0 + k0) % 2
        for colour in (0, 1):  # red: even 1-based sum -> parity 0 here
            s = (a[:-2, 1:-1, 1:-1] + a[2:, 1:-1, 1:-1] +
                 a[1:-1, :-2, 1:-1] + a[1:-1, 2:, 1:-1] +
                 a[1:-1, 1:-1, :-2] + a[1:-1, 1:-1, 2:])
            new = c1 * interior + c2 * s
            interior[...] = np.where(parity == colour, new, interior)

    def step_fused(self, a: np.ndarray, c1: float = 0.5,
                   c2: float = 1.0 / 12.0) -> None:
        """Figure 12 middle schedule, piece-at-a-time (bitwise == naive)."""
        for i, j, k in en.redblack_fused(self.n, self.nk):
            _update_points(a, i, j, k, c1, c2)

    def step_tiled(self, a: np.ndarray, ti: int, tj: int, c1: float = 0.5,
                   c2: float = 1.0 / 12.0) -> None:
        """Figure 12 bottom schedule (bitwise == naive; see module doc).

        Updates single-colour pieces of the trace enumerator's chunks,
        because a chunk mixes colours and a mixed batch would break the
        vectorized-update safety argument.
        """
        for i, j, k in _tiled_pieces(self.n, ti, tj, self.nk):
            _update_points(a, i, j, k, c1, c2)

    def solve(self, sweeps: int, schedule: Schedule = Schedule.UNTILED,
              tile=None, seed: int = 0, c1: float = 0.5,
              c2: float = 1.0 / 12.0) -> np.ndarray:
        a = self.init_state(seed)
        for _ in range(sweeps):
            if schedule is Schedule.UNTILED:
                self.step_naive(a, c1, c2)
            elif schedule is Schedule.FUSED:
                self.step_fused(a, c1, c2)
            elif schedule is Schedule.TILED:
                if tile is None:
                    raise ConfigurationError("tiled schedule needs a tile")
                self.step_tiled(a, tile[0], tile[1], c1, c2)
            else:
                raise ConfigurationError(f"no schedule {schedule}")
        return a


def _tiled_pieces(n: int, ti: int, tj: int, nk: int) -> Iterator:
    """Single-colour pieces of the tiled schedule, in execution order.

    Splits every ``enumerators.redblack_tiled`` chunk wherever the
    colour changes. A piece may span K planes and tiles; its points are
    still never neighbours of one another, so one vectorized update of
    the piece matches the sequential loop (see :func:`_update_points`).
    """
    for i, j, k in en.redblack_tiled(n, ti, tj, nk):
        colour = (i + j + k) & 1
        cuts = np.flatnonzero(colour[1:] != colour[:-1]) + 1
        yield from zip(np.split(i, cuts), np.split(j, cuts),
                       np.split(k, cuts))
