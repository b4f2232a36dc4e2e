"""Single-ring DFT channel model with block fading.

Each RU-UE pair has a fixed angular support: the set of DFT grid angles
(multiples of 2*pi/M) falling inside a window of length ``delta`` centered on
the direction joining the two nodes. Channel vectors are drawn as Gaussian
combinations of the selected DFT columns, scaled so the expected squared norm
equals beta * M.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=8)
def dft_matrix(M: int) -> np.ndarray:
    """M x M unitary DFT matrix, entries exp(-2j pi m n / M) / sqrt(M).

    Built once per M and shared read-only.
    """
    m = np.arange(M)
    matrix = np.exp(-2j * np.pi * np.outer(m, m) / M) / np.sqrt(M)
    matrix.flags.writeable = False
    return matrix


def dft_columns(M: int, indices) -> np.ndarray:
    """Columns ``indices`` of :func:`dft_matrix` as a fresh C-ordered array.

    ``take`` returns C order; a fancy-indexed column slice would come out
    Fortran-ordered, and BLAS may then sum the products made with it in
    another order, which moves the last bits of most results.
    """
    return dft_matrix(M).take(np.asarray(indices, dtype=int), axis=1)


@dataclass
class AngularSupport:
    """Sorted DFT column indices spanned by one RU-UE channel."""

    indices: np.ndarray     # sorted subset of {0..M-1}
    center_angle: float     # radians in [0, 2*pi)
    width: float            # window length delta
    num_antennas: int
    padded: bool = False    # True when the window held no grid point

    @property
    def size(self) -> int:
        return len(self.indices)


def _wrap_angle_distance(x):
    """Absolute angular distance of x to 0, modulo 2*pi (result in [0, pi])."""
    return np.abs(np.mod(x + np.pi, 2.0 * np.pi) - np.pi)


def _ru_supports(ru_pos, ue_positions, area_side: float, delta: float,
                 M: int) -> list:
    """Angular supports from one RU towards each row of ``ue_positions``.

    One array pass over the (n, M) grid distances serves every UE; it does the
    same elementwise arithmetic as a pair at a time, so the supports agree
    bit for bit with the one-pair form.
    """
    if not 0 < delta <= 2.0 * np.pi:
        raise ValueError("delta must lie in (0, 2*pi]")
    disp = np.asarray(ue_positions, dtype=float) - np.asarray(ru_pos, dtype=float)
    # minimal displacement on the torus, per axis
    disp = (disp + area_side / 2.0) % area_side - area_side / 2.0
    theta = np.arctan2(disp[:, 1], disp[:, 0]) % (2.0 * np.pi)
    grid = 2.0 * np.pi * np.arange(M) / M
    dist = _wrap_angle_distance(grid - theta[:, None])
    inside = dist <= delta / 2.0 + 1e-12
    padded = ~inside.any(axis=1)
    inside[padded, np.argmin(dist[padded], axis=1)] = True
    cols = np.nonzero(inside)[1]
    bounds = np.concatenate(([0], np.cumsum(inside.sum(axis=1)))).tolist()
    return [AngularSupport(indices=cols[bounds[n]:bounds[n + 1]],
                           center_angle=float(theta[n]), width=delta,
                           num_antennas=M, padded=bool(padded[n]))
            for n in range(len(theta))]


def angular_support(ru_pos, ue_pos, area_side: float, delta: float,
                    M: int) -> AngularSupport:
    """Angular support for the direction joining an RU-UE pair on the torus.

    Grid angles 2*pi*m/M within angular distance delta/2 of the center angle
    are included (closed interval: points at exactly delta/2 count, with a
    1e-12 rad slack so the wrap arithmetic cannot drop an endpoint). When the
    window is narrower than the grid spacing and captures no point, the support
    is padded with the single nearest grid index and flagged.
    """
    ue = np.asarray(ue_pos, dtype=float)[None, :]
    return _ru_supports(ru_pos, ue, area_side, delta, M)[0]


def sample_channel(support: AngularSupport, beta: float,
                   rng: np.random.Generator) -> np.ndarray:
    """One channel vector draw: sqrt(beta*M/|S|) * F_S @ nu, nu ~ CN(0, I)."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    r = support.size
    if r < 1:
        raise ValueError("support must contain at least one index")
    M = support.num_antennas
    nu = (rng.standard_normal(r) + 1j * rng.standard_normal(r)) / np.sqrt(2.0)
    return np.sqrt(beta * M / r) * (dft_columns(M, support.indices) @ nu)


def true_covariance(support: AngularSupport, beta: float) -> np.ndarray:
    """Exact channel covariance (beta*M/|S|) F_S F_S^H; trace = beta*M."""
    Fs = dft_columns(support.num_antennas, support.indices)
    return beta * support.num_antennas / support.size * (Fs @ Fs.conj().T)


def network_supports(layout, delta: float, M: int) -> list:
    """Angular supports for every RU-UE pair; supports[l][k].

    Works one RU at a time, so the largest temporary is (K, M).
    """
    return [_ru_supports(layout.ru_positions[l], layout.ue_positions,
                         layout.area_side, delta, M)
            for l in range(layout.num_rus)]


class NetworkChannelSampler:
    """Draws full network channel realizations for a fixed layout.

    Precomputes the scaled per-pair DFT column blocks, stacked by support
    size, so a fading draw costs one Gaussian draw and one batched matmul per
    distinct size. Pair (l, k) takes its real then its imaginary coefficients
    from the draw in (l, k) row-major order, exactly as drawing pair by pair
    would. A caller-supplied generator keeps the draws reproducible; use
    independent streams for parallel workers.
    """

    def __init__(self, layout, supports):
        self.L = layout.num_rus
        self.K = layout.num_ues
        self.M = supports[0][0].num_antennas
        flat = [s for row in supports for s in row]   # pair p = l * K + k
        sizes = np.array([s.size for s in flat])
        starts = np.cumsum(2 * sizes) - 2 * sizes
        self._normals = int(2 * sizes.sum())
        F = dft_matrix(self.M)
        lsfc = np.asarray(layout.lsfc, dtype=float).ravel()
        self._groups = []
        for r in np.unique(sizes).tolist():
            pairs = np.flatnonzero(sizes == r)
            indices = np.array([flat[p].indices for p in pairs], dtype=int)
            # (n, M, r) stack; each (M, r) slice is C-ordered like dft_columns
            scaled = F[np.arange(self.M)[:, None], indices[:, None, :]]
            scaled *= np.sqrt(lsfc[pairs] * self.M / r)[:, None, None]
            at = starts[pairs, None] + np.arange(r)
            self._groups.append((pairs, at, scaled))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One block-fading draw of every channel: (L, K, M), h[l, k]."""
        z = rng.standard_normal(self._normals)
        blocks = np.empty((self.L * self.K, self.M), dtype=complex)
        for pairs, at, scaled in self._groups:
            r = scaled.shape[2]
            nu = (z[at] + 1j * z[at + r]) / np.sqrt(2.0)
            blocks[pairs] = np.matmul(scaled, nu[:, :, None])[:, :, 0]
        return blocks.reshape(self.L, self.K, self.M)
