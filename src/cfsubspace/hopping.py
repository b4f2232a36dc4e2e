"""Latin-squares SRS hopping: MOLS construction, hex-cell reuse, schedules.

A family of N-1 mutually orthogonal Latin squares of prime order N defines
N*(N-1) hopping sequences. Squares are allocated to hexagonal cells laid over
the torus so adjacent cells use different squares; UEs inside a cell get the
N row-hopping sequences of its square round-robin. Two UEs on the same square
never collide; UEs on distinct squares collide exactly once per N slots.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .geometry import Layout, torus_distance


@dataclass
class LatinSquare:
    order: int
    cells: np.ndarray  # (N, N) with entries in 1..N


@dataclass
class SquareAssignment:
    """Per-UE (square, symbol) allocation."""

    square_id: np.ndarray  # (K,) index into the MOLS family
    symbol_id: np.ndarray  # (K,) in 1..N


@dataclass
class SrsSchedule:
    """Per-UE subcarrier hopping sequences.

    subcarriers[k, s] in 1..N is the SRS subcarrier of UE k in slot s; the
    per-UE sequence has period N and repeats for S > N.
    """

    N: int
    S: int
    subcarriers: np.ndarray  # (K, S) int, 1-based
    square_id: np.ndarray
    symbol_id: np.ndarray

    def collision_slots(self, i: int, k: int) -> np.ndarray:
        """Slots where UEs i and k transmit on the same subcarrier."""
        return np.nonzero(self.subcarriers[i] == self.subcarriers[k])[0]

    def colliders(self, k: int, s: int) -> np.ndarray:
        """UEs other than k sharing UE k's subcarrier in slot s."""
        hits = np.nonzero(self.subcarriers[:, s] == self.subcarriers[k, s])[0]
        return hits[hits != k]


def is_latin(square: LatinSquare) -> bool:
    """Every row and every column is a permutation of 1..N."""
    want = set(range(1, square.order + 1))
    return all(set(row) == want for row in square.cells) and \
        all(set(col) == want for col in square.cells.T)


def are_orthogonal(a: LatinSquare, b: LatinSquare) -> bool:
    """All N^2 elementwise pairs (a_ij, b_ij) are distinct."""
    pairs = {(int(x), int(y)) for x, y in zip(a.cells.ravel(), b.cells.ravel())}
    return len(pairs) == a.order ** 2


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


def mols_family(N: int) -> list:
    """The N-1 mutually orthogonal Latin squares A_t(i,j) = (t*i + j mod N) + 1.

    Only prime N is supported; prime powers would need finite-field arithmetic.
    """
    if not _is_prime(N):
        raise ValueError(f"N must be prime for the MOLS construction, got {N}")
    i, j = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    return [LatinSquare(order=N, cells=((t * i + j) % N + 1).astype(int))
            for t in range(1, N)]


def default_cell_radius(area_side: float, K: int, N: int) -> float:
    """Hex radius sized so the expected UEs per cell stays near or below N."""
    n_cells = max(1, int(np.ceil(K / N)))
    return float(np.sqrt(2.0 * area_side ** 2 / (3.0 * np.sqrt(3.0) * n_cells)))


def hex_cell_grid(area_side: float, radius: float):
    """Hex lattice covering the torus: centers (n, 2) and axial coords (n, 2).

    Pointy-top rows at spacing 1.5*radius, columns at sqrt(3)*radius, both
    stretched so an integer number of cells tiles the torus seamlessly. Odd
    rows are offset by half a column; axial coordinates use the odd-r
    convention so lattice neighbors differ by the usual axial steps.
    """
    n_rows = max(1, round(area_side / (1.5 * radius)))
    n_cols = max(1, round(area_side / (np.sqrt(3.0) * radius)))
    dy = area_side / n_rows
    dx = area_side / n_cols
    centers, axial = [], []
    for row in range(n_rows):
        for col in range(n_cols):
            x = (col + 0.5 * (row % 2)) * dx % area_side
            centers.append((x, row * dy))
            axial.append((col - (row - (row % 2)) // 2, row))
    return np.array(centers, dtype=float), np.array(axial, dtype=int)


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


def allocate_squares(layout: Layout, family: list,
                     cell_radius: float | None = None) -> SquareAssignment:
    """Bin UEs into hex cells and hand out (square, symbol) pairs.

    Each cell uses the square given by its reuse color; inside a cell the N
    symbols are assigned round-robin in UE-index order, wrapping when a cell
    holds more than N UEs (those UEs share a full hopping sequence).
    """
    if not family:
        raise ValueError("MOLS family must be non-empty")
    N = family[0].order
    K = layout.num_ues
    if cell_radius is None:
        cell_radius = default_cell_radius(layout.area_side, K, N)
    centers, axial = hex_cell_grid(layout.area_side, cell_radius)
    d = torus_distance(layout.ue_positions[:, None, :], centers[None, :, :],
                       layout.area_side)
    cell_of = np.argmin(d, axis=1)
    square_id = np.empty(K, dtype=int)
    symbol_id = np.empty(K, dtype=int)
    for c in np.unique(cell_of):
        members = np.nonzero(cell_of == c)[0]
        sq = reuse_color(int(axial[c, 0]), int(axial[c, 1]), len(family)) % len(family)
        square_id[members] = sq
        symbol_id[members] = np.arange(len(members)) % N + 1
    return SquareAssignment(square_id=square_id, symbol_id=symbol_id)


def build_schedule(assignment: SquareAssignment, family: list, S: int) -> SrsSchedule:
    """Hopping sequences: UE with (square, symbol n) sends on the subcarrier
    (row) holding n in the current slot's column, repeating with period N."""
    if S < 1:
        raise ValueError("S must be >= 1")
    N = family[0].order
    # row_of[t][n-1, j] = 1-based row of symbol n in column j of square t
    row_of = []
    for sq in family:
        inv = np.empty((N, N), dtype=int)
        for j in range(N):
            inv[sq.cells[:, j] - 1, j] = np.arange(1, N + 1)
        row_of.append(inv)
    K = len(assignment.square_id)
    cols = np.arange(S) % N
    subcarriers = np.empty((K, S), dtype=int)
    for k in range(K):
        subcarriers[k] = row_of[assignment.square_id[k]][assignment.symbol_id[k] - 1, cols]
    return SrsSchedule(N=N, S=S, subcarriers=subcarriers,
                       square_id=assignment.square_id.copy(),
                       symbol_id=assignment.symbol_id.copy())


def schedule_to_csv(schedule: SrsSchedule, path) -> None:
    """Dump the schedule as rows (ue_id, slot, subcarrier, square_id, symbol_id)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ue_id", "slot", "subcarrier", "square_id", "symbol_id"])
        for k in range(schedule.subcarriers.shape[0]):
            for s in range(schedule.S):
                writer.writerow([k, s, int(schedule.subcarriers[k, s]),
                                 int(schedule.square_id[k]), int(schedule.symbol_id[k])])
