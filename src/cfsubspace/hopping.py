"""Latin-squares SRS hopping: MOLS construction, hex-cell reuse, schedules.

A family of N-1 mutually orthogonal Latin squares of prime order N defines
N*(N-1) hopping sequences. Squares are allocated to hexagonal cells laid over
the torus so adjacent cells use different squares; UEs inside a cell get the
N symbols of its square round-robin. Two UEs on the same square never
collide; UEs on distinct squares collide exactly once per N slots.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import Layout, torus_distance

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


def nearest_cells(points, area_side: float, radius: float):
    """Row-major index (K,) and odd-r axial coordinates (K, 2) of the hex
    cell whose center is nearest each point on the torus, ties going to the
    lowest index.

    Pointy-top rows at spacing dy ~ 1.5*radius, columns at dx ~ sqrt(3)*radius,
    both stretched so an integer number of cells tiles the torus seamlessly;
    odd rows are offset by half a column, and in the odd-r convention lattice
    neighbors differ by the usual axial steps.

    Each point is searched among 6 centers, never all of them. The counts
    always give n_rows <= 2*n_cols, so dx <= 2*dy. The nearest row, rint(y/dy),
    holds a center within sqrt(dy^2 + dx^2)/2 <= 1.12*dy of the point, while
    every row two or more away is at least 1.5*dy off: the nearest center
    lies in one of the 3 rows around rint(y/dy). Within a row it is one of
    the 2 columns bracketing x, floor(x/dx - offset) and the next, since any
    other column is at least dx off against dx/2. Both margins dwarf rounding,
    and the candidates are placed by the same arithmetic as the full lattice,
    so the result equals the argmin over every cell bit for bit.
    """
    n_rows = max(1, int(np.rint(area_side / (1.5 * radius))))
    n_cols = max(1, int(np.rint(area_side / (np.sqrt(3.0) * radius))))
    dy = area_side / n_rows
    dx = area_side / n_cols
    x, y = points[:, :1], points[:, 1:]
    row = (np.rint(y / dy).astype(int) + [-1, -1, 0, 0, 1, 1]) % n_rows
    odd = row % 2
    col = (np.floor(x / dx - 0.5 * odd).astype(int) + [0, 1, 0, 1, 0, 1]) % n_cols
    centers = np.stack([(col + 0.5 * odd) * dx % area_side, row * dy], axis=-1)
    d = torus_distance(points[:, None, :], centers, area_side)
    # the sentinel exceeds every cell index, not only the candidates' count
    cell = np.where(d == d.min(axis=1, keepdims=True), row * n_cols + col,
                    n_rows * n_cols).min(axis=1)
    row, col = np.divmod(cell, n_cols)
    return cell, np.column_stack([col - (row - row % 2) // 2, row])


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


def allocate_squares(layout: Layout, N: int) -> SquareAssignment:
    """Bin UEs into hex cells and hand out (square, symbol) pairs.

    The cells take :func:`default_cell_radius` of the area, K and N. Each
    cell uses the square of its reuse color among the N-1 of order N;
    inside a cell the N symbols are assigned round-robin in UE-index order,
    wrapping when a cell holds more than N UEs (those UEs share a full
    hopping sequence).
    """
    _check_prime(N)
    K = layout.num_ues
    cell_of, axial = nearest_cells(layout.ue_positions, layout.area_side,
                                   default_cell_radius(layout.area_side, K, N))
    # a UE's place in its cell: its rank in the stable cell order minus the
    # rank of its cell's first UE
    order = np.argsort(cell_of, kind="stable")
    sorted_cells = cell_of[order]
    symbol_id = np.empty(K, dtype=int)
    symbol_id[order] = (np.arange(K) - np.searchsorted(sorted_cells, sorted_cells)) % N + 1
    square_id = reuse_color(axial[:, 0], axial[:, 1], N - 1)
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
