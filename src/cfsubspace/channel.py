"""Single-ring DFT channel model with block fading.

Each RU-UE pair has a fixed angular support: the set of DFT grid angles
(multiples of 2*pi/M) falling inside a window of length ``delta`` centered on
the direction joining the two nodes. Channel vectors are drawn as Gaussian
combinations of the selected DFT columns, scaled so the expected squared norm
equals beta * M.
"""

from dataclasses import dataclass, field
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

    One index set (r,) gives the (M, r) basis; a stack (..., r) gives the
    (..., M, r) stack of bases, slice by slice the same bytes. A
    ``[:, indices]`` slice would come out Fortran-ordered, and BLAS may then
    sum the products made with it in another order, which moves the last
    bits of most results.
    """
    indices = np.asarray(indices, dtype=int)
    return dft_matrix(M)[np.arange(M)[:, None], indices[..., None, :]]


@dataclass
class SupportTable:
    """DFT index sets of every RU-UE pair as flat arrays: the true angular
    supports, or the supports outlier pursuit estimated (size 0 off the edges).

    Pair (l, k) spans ``indices[offsets[l, k]:offsets[l, k] + sizes[l, k]]``;
    the pairs follow one another in (l, k) row-major order. ``table[l, k]``
    is that slice: the pair's angular support, its sorted DFT column indices.
    """

    indices: np.ndarray       # flat sorted DFT indices, pair by pair
    sizes: np.ndarray         # (L, K) support sizes
    num_antennas: int
    offsets: np.ndarray = field(init=False)   # (L, K) start of each pair

    def __post_init__(self):
        self.offsets = np.cumsum(self.sizes).reshape(self.sizes.shape) - self.sizes

    def __getitem__(self, pair) -> np.ndarray:
        l, k = pair
        start = self.offsets[l, k]
        return self.indices[start:start + self.sizes[l, k]]

    def size_groups(self, l=slice(None), k=slice(None)):
        """The pairs ``(l, k)`` (every pair by default) grouped by support size.

        Yields ``(members, indices)`` per distinct size r in ascending order:
        ``members`` are positions in the flattened selection and ``indices``
        is their (n, r) array of DFT indices.
        """
        sizes = self.sizes[l, k].ravel()
        offsets = self.offsets[l, k].ravel()
        for r in np.bincount(sizes).nonzero()[0].tolist():
            members = (sizes == r).nonzero()[0]
            yield members, self.indices[offsets[members, None] + np.arange(r)]


def _wrap_angle_distance(x):
    """Absolute angular distance of x to 0, modulo 2*pi (result in [0, pi])."""
    return np.abs(np.mod(x + np.pi, 2.0 * np.pi) - np.pi)


def _support_table(ru_positions, ue_positions, area_side: float, delta: float,
                   M: int) -> SupportTable:
    """Angular supports from each row of ``ru_positions`` towards each row of
    ``ue_positions``.

    One array pass over the (L, K, M) grid distances serves every pair; it does
    the same elementwise arithmetic as a pair at a time, so the supports agree
    bit for bit with the one-pair form.
    """
    if not 0 < delta <= 2.0 * np.pi:
        raise ValueError("delta must lie in (0, 2*pi]")
    disp = np.asarray(ue_positions, dtype=float)[None, :, :] \
        - np.asarray(ru_positions, dtype=float)[:, None, :]
    # minimal displacement on the torus, per axis
    disp = (disp + area_side / 2.0) % area_side - area_side / 2.0
    theta = np.arctan2(disp[..., 1], disp[..., 0]) % (2.0 * np.pi)
    grid = 2.0 * np.pi * np.arange(M) / M
    dist = _wrap_angle_distance(grid - theta[..., None])
    inside = dist <= delta / 2.0 + 1e-12
    padded = ~inside.any(axis=2)
    inside[padded, np.argmin(dist[padded], axis=1)] = True
    return SupportTable(indices=np.nonzero(inside)[2], sizes=inside.sum(axis=2),
                        num_antennas=M)


def angular_support(ru_pos, ue_pos, area_side: float, delta: float,
                    M: int) -> np.ndarray:
    """Angular support, as sorted DFT column indices, for the direction joining
    an RU-UE pair on the torus.

    Grid angles 2*pi*m/M within angular distance delta/2 of the center angle
    are included (closed interval: points at exactly delta/2 count, with a
    1e-12 rad slack so the wrap arithmetic cannot drop an endpoint). When the
    window is narrower than the grid spacing and captures no point, the support
    is padded with the single nearest grid index.
    """
    return _support_table(np.asarray(ru_pos, dtype=float)[None, :],
                          np.asarray(ue_pos, dtype=float)[None, :],
                          area_side, delta, M)[0, 0]


def sample_channel(M: int, support, beta: float,
                   rng: np.random.Generator) -> np.ndarray:
    """One channel vector draw: sqrt(beta*M/|S|) * F_S @ nu, nu ~ CN(0, I),
    for the DFT column indices S = ``support``."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    r = len(support)
    if r < 1:
        raise ValueError("support must contain at least one index")
    nu = (rng.standard_normal(r) + 1j * rng.standard_normal(r)) / np.sqrt(2.0)
    return np.sqrt(beta * M / r) * (dft_columns(M, support) @ nu)


def network_supports(layout, delta: float, M: int) -> SupportTable:
    """Angular supports for every RU-UE pair; ``supports[l, k]`` is one pair."""
    return _support_table(layout.ru_positions, layout.ue_positions,
                          layout.area_side, delta, M)


def _channel_draws(bases, beta, z, starts) -> np.ndarray:
    """sqrt(beta * M / r) * (F_S @ nu), as :func:`sample_channel` draws it, for
    n pairs of one support size r: ``bases`` (n, M, r), ``beta`` (n,), and
    pair i's r real then r imaginary coefficients from ``z[starts[i]:]``."""
    _, M, r = bases.shape
    at = starts[:, None] + np.arange(r)
    nu = (z[at] + 1j * z[at + r]) / np.sqrt(2.0)
    drawn = np.matmul(bases, nu[:, :, None])[:, :, 0]
    drawn *= np.sqrt(beta * M / r)[:, None]
    return drawn


class NetworkChannelSampler:
    """Draws full network channel realizations for a fixed layout.

    Precomputes the per-pair DFT column blocks, stacked by support size, so
    a fading draw costs one Gaussian draw and one batched matmul per
    distinct size. Pair (l, k) takes its real then its imaginary coefficients
    from the draw in (l, k) row-major order, so each block is bitwise the
    :func:`sample_channel` draw of its pair. A caller-supplied generator
    keeps the draws reproducible; use independent streams for parallel workers.
    """

    def __init__(self, layout, supports: SupportTable):
        self.L = layout.num_rus
        self.K = layout.num_ues
        self.M = supports.num_antennas
        # pair p = l * K + k draws 2 r normals after those of the pairs before it
        starts = 2 * supports.offsets.ravel()
        self._normals = int(2 * supports.sizes.sum())
        lsfc = np.asarray(layout.lsfc, dtype=float).ravel()
        self._groups = [(pairs, dft_columns(self.M, idx), lsfc[pairs], starts[pairs])
                        for pairs, idx in supports.size_groups()]

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One block-fading draw of every channel: (L, K, M), h[l, k]."""
        z = rng.standard_normal(self._normals)
        blocks = np.empty((self.L * self.K, self.M), dtype=complex)
        for pairs, bases, beta, starts in self._groups:
            blocks[pairs] = _channel_draws(bases, beta, z, starts)
        return blocks.reshape(self.L, self.K, self.M)
