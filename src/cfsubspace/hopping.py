"""Latin-squares SRS hopping: MOLS construction, hex-cell reuse, schedules.

A family of N-1 mutually orthogonal Latin squares of prime order N defines
N*(N-1) hopping sequences. Squares are allocated to hexagonal cells laid over
the torus so adjacent cells use different squares; UEs inside a cell get the
N symbols of its square round-robin. Two UEs on the same square never
collide; UEs on distinct squares collide exactly once per N slots.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Layout, torus_distance

# allocate_squares holds the distance of every UE to every hex cell: 16 bytes
# a pair before temporaries, so a cell radius that makes more pairs than this
# is refused rather than left to exhaust memory
MAX_UE_CELL_PAIRS = 10 ** 7


@dataclass
class SquareAssignment:
    """Per-UE (square, symbol) allocation."""

    square_id: np.ndarray  # (K,) in 0..N-2: square t = square_id + 1
    symbol_id: np.ndarray  # (K,) in 1..N


@dataclass
class SrsSchedule:
    """Per-UE subcarrier hopping sequences.

    subcarriers[k, s] in 1..N is the SRS subcarrier of UE k in slot s; the
    per-UE sequence has period N and repeats for S > N.
    """

    subcarriers: np.ndarray  # (K, S) int, 1-based


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _check_prime(N: int) -> None:
    if not _is_prime(N):
        raise ValueError(f"N must be prime for the MOLS construction, got {N}")


def mols_family(N: int) -> np.ndarray:
    """The N-1 mutually orthogonal Latin squares A_t(i,j) = (t*i + j mod N) + 1
    as one (N-1, N, N) int array: family[t-1, i, j] = A_t(i, j), entries in 1..N.

    Only prime N is supported; prime powers would need finite-field arithmetic.
    The pipeline inverts these squares in closed form (:func:`build_schedule`).
    """
    _check_prime(N)
    t, i, j = np.ix_(np.arange(1, N), np.arange(N), np.arange(N))
    return (t * i + j) % N + 1


def default_cell_radius(area_side: float, K: int, N: int) -> float:
    """Hex radius sized so the expected UEs per cell stays near or below N."""
    n_cells = max(1, int(np.ceil(K / N)))
    return float(np.sqrt(2.0 * area_side ** 2 / (3.0 * np.sqrt(3.0) * n_cells)))


def hex_grid_shape(area_side: float, radius: float) -> tuple:
    """Rows and columns of the hex lattice :func:`hex_cell_grid` lays over
    the torus: the nearest whole counts to side / (1.5*radius) and
    side / (sqrt(3)*radius), at least 1 each.

    Returned as floats, so that a radius too small for any grid to be built
    still gives a count (up to inf) that can be checked first.
    """
    n_rows = max(1.0, float(np.rint(area_side / (1.5 * radius))))
    # math.sqrt, bitwise np.sqrt, keeps the quotient a Python float, which
    # overflows to inf without a numpy warning
    n_cols = max(1.0, float(np.rint(area_side / (math.sqrt(3.0) * radius))))
    return n_rows, n_cols


def check_cell_count(K: int, area_side: float, radius: float) -> None:
    """Raise ValueError when K UEs and the hex cells of this radius make
    more than MAX_UE_CELL_PAIRS pairs, the UE-to-cell distances
    :func:`allocate_squares` computes."""
    n_rows, n_cols = hex_grid_shape(area_side, radius)
    pairs = K * n_rows * n_cols
    if pairs > MAX_UE_CELL_PAIRS:
        raise ValueError(f"cell_radius {radius:g} m gives {n_rows * n_cols:.3g} hex "
                         f"cells on a {area_side:g} m side; K x cells = {pairs:.3g} "
                         f"must not exceed {MAX_UE_CELL_PAIRS:.0e}")


def hex_cell_grid(area_side: float, radius: float):
    """Hex lattice covering the torus: centers (n, 2) and axial coords (n, 2).

    Pointy-top rows at spacing 1.5*radius, columns at sqrt(3)*radius, both
    stretched so an integer number of cells tiles the torus seamlessly
    (:func:`hex_grid_shape`). Odd rows are offset by half a column; axial
    coordinates use the odd-r convention so lattice neighbors differ by the
    usual axial steps.
    """
    n_rows, n_cols = map(int, hex_grid_shape(area_side, radius))
    dy = area_side / n_rows
    dx = area_side / n_cols
    row, col = np.divmod(np.arange(n_rows * n_cols), n_cols)   # row-major
    odd = row % 2
    centers = np.column_stack([(col + 0.5 * odd) * dx % area_side, row * dy])
    axial = np.column_stack([col - (row - odd) // 2, row])
    return centers, axial


def reuse_color(q, r, n_squares: int):
    """Square index for the hex cell at axial (q, r), ints or int arrays.

    Digit coloring (q mod a) + a*(r mod b) with a*b <= n_squares; for
    a, b >= 2 (available when n_squares >= 4) any two lattice-adjacent cells
    get different colors. Wraparound seams of the torus may still pair equal
    colors; acceptable at the intended reuse orders.
    """
    a = max(1, int(np.sqrt(n_squares)))
    b = max(1, n_squares // a)
    return (q % a) + a * (r % b)


def allocate_squares(layout: Layout, N: int,
                     cell_radius: float | None = None) -> SquareAssignment:
    """Bin UEs into hex cells and hand out (square, symbol) pairs.

    Each cell uses the square of its reuse color among the N-1 of order N;
    inside a cell the N symbols are assigned round-robin in UE-index order,
    wrapping when a cell holds more than N UEs (those UEs share a full
    hopping sequence). A radius that makes more than MAX_UE_CELL_PAIRS
    (UE, cell) pairs raises ValueError (:func:`check_cell_count`).
    """
    _check_prime(N)
    K = layout.num_ues
    if cell_radius is None:
        cell_radius = default_cell_radius(layout.area_side, K, N)
    check_cell_count(K, layout.area_side, cell_radius)
    centers, axial = hex_cell_grid(layout.area_side, cell_radius)
    d = torus_distance(layout.ue_positions[:, None, :], centers[None, :, :],
                       layout.area_side)
    cell_of = np.argmin(d, axis=1)
    # a UE's place in its cell: its rank in the stable cell order minus the
    # rank of its cell's first UE
    order = np.argsort(cell_of, kind="stable")
    sorted_cells = cell_of[order]
    symbol_id = np.empty(K, dtype=int)
    symbol_id[order] = (np.arange(K) - np.searchsorted(sorted_cells, sorted_cells)) % N + 1
    square_id = reuse_color(axial[cell_of, 0], axial[cell_of, 1], N - 1)
    return SquareAssignment(square_id=square_id, symbol_id=symbol_id)


def build_schedule(assignment: SquareAssignment, N: int, S: int) -> SrsSchedule:
    """Hopping sequences: UE with (square t, symbol n) sends in slot s on the
    row of A_t holding n in column s mod N, t^-1 * (n - 1 - s) mod N + 1,
    repeating with period N."""
    _check_prime(N)
    if S < 1:
        raise ValueError("S must be >= 1")
    t_inv = np.array([pow(t, -1, N) for t in range(1, N)], dtype=int)
    n = assignment.symbol_id[:, None]
    return SrsSchedule(subcarriers=t_inv[assignment.square_id][:, None]
                       * (n - 1 - np.arange(S)) % N + 1)
