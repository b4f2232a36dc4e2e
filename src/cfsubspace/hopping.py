"""Latin-squares SRS hopping: MOLS construction, hex-cell reuse, schedules.

A family of N-1 mutually orthogonal Latin squares of prime order N defines
N*(N-1) hopping sequences. Squares are allocated to hexagonal cells laid over
the torus so adjacent cells use different squares; UEs inside a cell get the
N row-hopping sequences of its square round-robin. Two UEs on the same square
never collide; UEs on distinct squares collide exactly once per N slots.
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

    square_id: np.ndarray  # (K,) index into the MOLS family's first axis
    symbol_id: np.ndarray  # (K,) in 1..N


@dataclass
class SrsSchedule:
    """Per-UE subcarrier hopping sequences.

    subcarriers[k, s] in 1..N is the SRS subcarrier of UE k in slot s; the
    per-UE sequence has period N and repeats for S > N.
    """

    subcarriers: np.ndarray  # (K, S) int, 1-based

    def colliders(self, k: int, s: int) -> np.ndarray:
        """UEs other than k sharing UE k's subcarrier in slot s."""
        hits = np.nonzero(self.subcarriers[:, s] == self.subcarriers[k, s])[0]
        return hits[hits != k]


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


def mols_family(N: int) -> np.ndarray:
    """The N-1 mutually orthogonal Latin squares A_t(i,j) = (t*i + j mod N) + 1
    as one (N-1, N, N) int array: family[t-1, i, j] = A_t(i, j), entries in 1..N.

    Only prime N is supported; prime powers would need finite-field arithmetic.
    """
    if not _is_prime(N):
        raise ValueError(f"N must be prime for the MOLS construction, got {N}")
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


def reuse_color(q: int, r: int, n_squares: int) -> int:
    """Square index for the hex cell at axial (q, r).

    Digit coloring (q mod a) + a*(r mod b) with a*b <= n_squares; for
    a, b >= 2 (available when n_squares >= 4) any two lattice-adjacent cells
    get different colors. Wraparound seams of the torus may still pair equal
    colors; acceptable at the intended reuse orders.
    """
    a = max(1, int(np.sqrt(n_squares)))
    b = max(1, n_squares // a)
    return (q % a) + a * (r % b)


def allocate_squares(layout: Layout, family: np.ndarray,
                     cell_radius: float | None = None) -> SquareAssignment:
    """Bin UEs into hex cells and hand out (square, symbol) pairs.

    Each cell uses the square given by its reuse color; inside a cell the N
    symbols are assigned round-robin in UE-index order, wrapping when a cell
    holds more than N UEs (those UEs share a full hopping sequence). A
    radius that makes more than MAX_UE_CELL_PAIRS (UE, cell) pairs raises
    ValueError (:func:`check_cell_count`).
    """
    if len(family) == 0:
        raise ValueError("MOLS family must be non-empty")
    N = family.shape[1]
    K = layout.num_ues
    if cell_radius is None:
        cell_radius = default_cell_radius(layout.area_side, K, N)
    check_cell_count(K, layout.area_side, cell_radius)
    centers, axial = hex_cell_grid(layout.area_side, cell_radius)
    d = torus_distance(layout.ue_positions[:, None, :], centers[None, :, :],
                       layout.area_side)
    cell_of = np.argmin(d, axis=1)
    square_id = np.empty(K, dtype=int)
    symbol_id = np.empty(K, dtype=int)
    for c in np.unique(cell_of):
        members = np.nonzero(cell_of == c)[0]
        square_id[members] = reuse_color(int(axial[c, 0]), int(axial[c, 1]), len(family))
        symbol_id[members] = np.arange(len(members)) % N + 1
    return SquareAssignment(square_id=square_id, symbol_id=symbol_id)


def build_schedule(assignment: SquareAssignment, family: np.ndarray,
                   S: int) -> SrsSchedule:
    """Hopping sequences: UE with (square, symbol n) sends on the subcarrier
    (row) holding n in the current slot's column, repeating with period N."""
    if S < 1:
        raise ValueError("S must be >= 1")
    N = family.shape[1]
    used, square = np.unique(assignment.square_id, return_inverse=True)
    cells = family[used]
    # row_of[u, n-1, j] = 1-based row of symbol n in column j of square used[u]
    row_of = np.empty(cells.shape, dtype=int)
    row_of[np.arange(len(used))[:, None, None], cells - 1, np.arange(N)] = \
        np.arange(1, N + 1)[:, None]
    cols = np.arange(S) % N
    subcarriers = row_of[square[:, None], assignment.symbol_id[:, None] - 1, cols]
    return SrsSchedule(subcarriers=subcarriers)
