import functools

import numpy as np
import pytest

from cfsubspace.geometry import generate_layout, torus_distance
from cfsubspace.hopping import (allocate_squares, build_schedule, default_cell_radius,
                                mols_family, nearest_cells, reuse_color)
from oracles import (are_orthogonal, check_collision_law, colliders,
                     collision_slots, is_latin)

# reference pair of mutually orthogonal order-5 squares (rows = subcarriers,
# columns = slots); the first two members of the N=5 family
SQUARE_A = np.array([[1, 2, 3, 4, 5],
                     [2, 3, 4, 5, 1],
                     [3, 4, 5, 1, 2],
                     [4, 5, 1, 2, 3],
                     [5, 1, 2, 3, 4]])
SQUARE_B = np.array([[1, 2, 3, 4, 5],
                     [3, 4, 5, 1, 2],
                     [5, 1, 2, 3, 4],
                     [2, 3, 4, 5, 1],
                     [4, 5, 1, 2, 3]])


class TestMols:
    @pytest.mark.parametrize("N", [2, 3, 5, 19])
    def test_family_latin_and_orthogonal(self, N):
        family = mols_family(N)
        assert len(family) == N - 1
        for sq in family:
            assert is_latin(sq)
        for i in range(len(family)):
            for j in range(i + 1, len(family)):
                assert are_orthogonal(family[i], family[j])

    def test_smallest_prime(self):
        family = mols_family(2)
        assert np.array_equal(family[0], [[1, 2], [2, 1]])

    def test_reference_squares_are_family_members(self):
        family = mols_family(5)
        assert np.array_equal(family[0], SQUARE_A)
        assert np.array_equal(family[1], SQUARE_B)
        assert are_orthogonal(SQUARE_A, SQUARE_B)

    @pytest.mark.parametrize("N", [1, 4, 6, 9, 15])
    def test_rejects_non_prime(self, N):
        with pytest.raises(ValueError, match="prime"):
            mols_family(N)


class _FixedAssignment:
    """Hand-built assignment for schedule tests."""

    def __init__(self, square_id, symbol_id):
        self.square_id = np.asarray(square_id)
        self.symbol_id = np.asarray(symbol_id)


class TestBuildSchedule:
    def test_reference_sequence(self):
        # symbol 1 on the first square hops over subcarriers 1,5,4,3,2
        sched = build_schedule(_FixedAssignment([0], [1]), 5, S=5)
        assert sched.subcarriers[0].tolist() == [1, 5, 4, 3, 2]

    def test_same_square_never_collides(self):
        sched = build_schedule(_FixedAssignment([0] * 5, list(range(1, 6))), 5, S=20)
        for i in range(5):
            for j in range(i + 1, 5):
                assert len(collision_slots(sched, i, j)) == 0

    def test_orthogonal_squares_collide_once_per_period(self):
        ids = [0] + [1] * 5
        symbols = [1] + list(range(1, 6))
        sched = build_schedule(_FixedAssignment(ids, symbols), 5, S=5)
        for j in range(1, 6):
            assert len(collision_slots(sched, 0, j)) == 1

    def test_identical_assignment_always_collides(self):
        sched = build_schedule(_FixedAssignment([2, 2], [3, 3]), 5, S=15)
        assert len(collision_slots(sched, 0, 1)) == 15

    def test_periodicity(self):
        sched = build_schedule(_FixedAssignment([1, 3], [2, 4]), 5, S=13)
        sub = sched.subcarriers
        for s in range(13 - 5):
            assert np.array_equal(sub[:, s + 5], sub[:, s])

    def test_colliders_match_collision_slots(self):
        sched = build_schedule(_FixedAssignment([0, 1, 1, 2], [1, 1, 2, 1]), 5, S=10)
        for s in range(10):
            for k in range(4):
                via_colliders = set(colliders(sched, k, s).tolist())
                via_slots = {i for i in range(4)
                             if i != k and s in collision_slots(sched, i, k)}
                assert via_colliders == via_slots


def per_symbol_schedule(assignment, family, S):
    """Reference: invert every column of every square, then one row per UE."""
    N = family.shape[1]
    row_of = []
    for sq in family:
        inv = np.empty((N, N), dtype=int)
        for j in range(N):
            inv[sq[:, j] - 1, j] = np.arange(1, N + 1)
        row_of.append(inv)
    cols = np.arange(S) % N
    subcarriers = np.empty((len(assignment.square_id), S), dtype=int)
    for k in range(len(assignment.square_id)):
        subcarriers[k] = row_of[assignment.square_id[k]][assignment.symbol_id[k] - 1, cols]
    return subcarriers


class TestBuildScheduleBatched:
    @pytest.mark.parametrize("N", [2, 3, 5, 7, 11, 19, 29])
    def test_closed_form_equals_family_inversion(self, N):
        # 300 random (square, symbol) assignments per order and length
        family = mols_family(N)
        rng = np.random.default_rng(N)
        assignment = _FixedAssignment(rng.integers(0, N - 1, 300),
                                      rng.integers(1, N + 1, 300))
        for S in (1, N, 2 * N + 3):
            got = build_schedule(assignment, N, S).subcarriers
            want = per_symbol_schedule(assignment, family, S)
            assert got.dtype == want.dtype and got.shape == (300, S)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("N,K,L", [(5, 60, 10), (7, 40, 10), (19, 100, 40),
                                       (29, 25, 10)])
    def test_equals_per_symbol_loop_on_real_drops(self, N, K, L):
        family = mols_family(N)
        squares = set()
        for seed in range(3):
            # K UEs, and 10 cells' worth of them, which use many squares
            for n_ues in (K, 10 * N):
                assignment = allocate_squares(generate_layout(L, n_ues, 2000.0, seed=seed), N)
                squares.add(len(np.unique(assignment.square_id)))
                for S in (1, N - 1, N, 2 * N + 3):
                    got = build_schedule(assignment, N, S).subcarriers
                    want = per_symbol_schedule(assignment, family, S)
                    assert got.dtype == want.dtype and got.shape == (n_ues, S)
                    assert got.flags.c_contiguous
                    assert got.tobytes() == want.tobytes()
        assert max(squares) > 1

    def test_no_ues(self):
        empty = np.zeros(0, dtype=int)
        sched = build_schedule(_FixedAssignment(empty, empty), 5, S=7)
        assert sched.subcarriers.shape == (0, 7)


def grid_shape(area_side, radius):
    """Rows and columns of the hex lattice: the nearest whole counts to
    side / (1.5*radius) and side / (sqrt(3)*radius), at least 1 each."""
    return (max(1, int(np.rint(area_side / (1.5 * radius)))),
            max(1, int(np.rint(area_side / (np.sqrt(3.0) * radius)))))


@functools.lru_cache(maxsize=64)
def loop_hex_cell_grid(area_side, radius):
    """Reference: the hex lattice built one cell at a time, row-major."""
    n_rows, n_cols = grid_shape(area_side, radius)
    dy, dx = area_side / n_rows, area_side / n_cols
    centers, axial = [], []
    for row in range(n_rows):
        for col in range(n_cols):
            centers.append(((col + 0.5 * (row % 2)) * dx % area_side, row * dy))
            axial.append((col - (row - (row % 2)) // 2, row))
    return np.array(centers, dtype=float), np.array(axial, dtype=int)


def grid_nearest_cells(points, area_side, radius):
    """Reference: the argmin of each point's distance to every cell of the
    lattice, ties going to the lowest index; in chunks of points, so that
    fine lattices stay small in memory."""
    centers, axial = loop_hex_cell_grid(area_side, radius)
    cell = np.concatenate([
        np.argmin(torus_distance(chunk[:, None, :], centers[None, :, :], area_side), axis=1)
        for chunk in np.array_split(points, max(1, len(points) // 500))])
    return cell, axial[cell]


def edge_points(area_side, radius):
    """Points where the nearest center is hardest to tell: on the rows and
    halfway between them, at quarter columns, and on the seams of the torus."""
    n_rows, n_cols = grid_shape(area_side, radius)
    seam = np.nextafter(area_side, 0.0)
    ys = np.append(np.arange(2 * n_rows + 1) * (area_side / n_rows / 2), seam)
    xs = np.append(np.arange(4 * n_cols + 1) * (area_side / n_cols / 4), seam)
    # every x on the first and last rows, every y on the first and last columns
    rim_ys = np.concatenate([ys[:4], ys[-4:]])
    rim_xs = np.concatenate([xs[:6], xs[-6:]])
    return np.concatenate([np.stack(np.meshgrid(xs, rim_ys), axis=-1).reshape(-1, 2),
                           np.stack(np.meshgrid(rim_xs, ys), axis=-1).reshape(-1, 2)])


def assert_nearest_cells_exact(points, area_side, radius, case=""):
    got = nearest_cells(points, area_side, radius)
    want = grid_nearest_cells(points, area_side, radius)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, case
        assert a.tobytes() == b.tobytes(), case


class TestAllocation:
    def test_single_cell_all_same_square(self):
        layout = generate_layout(2, 7, 400.0, seed=0)
        # K <= N: one hex cell
        assignment = allocate_squares(layout, 19)
        assert len(set(assignment.square_id.tolist())) == 1
        assert len(set(assignment.symbol_id.tolist())) == 7  # K <= N: distinct
        sched = build_schedule(assignment, 19, S=19)
        for i in range(7):
            for j in range(i + 1, 7):
                assert len(collision_slots(sched, i, j)) == 0

    def test_adjacent_cells_get_different_squares(self):
        # axial lattice neighbors must never share a reuse color (N >= 5)
        for n_squares in [4, 18, 28, 60]:
            for q in range(-6, 6):
                for r in range(-6, 6):
                    c = reuse_color(q, r, n_squares)
                    assert 0 <= c < n_squares
                    for dq, dr in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]:
                        assert c != reuse_color(q + dq, r + dr, n_squares)
        # every color indexes the family as it is, for every family size
        # N - 1 of a prime N < 200
        for n_squares in range(1, 199):
            colors = [reuse_color(q, r, n_squares)
                      for q in range(-30, 30) for r in range(-30, 30)]
            assert 0 <= min(colors) and max(colors) < n_squares

    def test_full_scale_allocation(self):
        layout = generate_layout(40, 100, 2000.0, seed=7)
        assignment = allocate_squares(layout, 19)
        assert len(np.unique(assignment.square_id)) > 1
        assert np.all(assignment.square_id >= 0)
        assert np.all(assignment.square_id < 18)
        assert np.all((assignment.symbol_id >= 1) & (assignment.symbol_id <= 19))

    def test_reuse_produces_identical_assignments(self):
        # 600 UEs at N=19 make ~32 cells against 16 reuse colors, so some
        # distant cells share a square and the round-robin repeats (square,
        # symbol) pairs; those UE pairs collide in every slot and are countable
        layout = generate_layout(40, 600, 2000.0, seed=7)
        assignment = allocate_squares(layout, 19)
        pairs = list(zip(assignment.square_id.tolist(), assignment.symbol_id.tolist()))
        n_repeat_pairs = sum(pairs.count(p) > 1 for p in set(pairs))
        assert n_repeat_pairs > 0

    def test_default_radius_formula(self):
        r = default_cell_radius(2000.0, 100, 19)
        n_cells = int(np.ceil(100 / 19))
        assert 1.5 * np.sqrt(3) * r ** 2 * n_cells == pytest.approx(2000.0 ** 2)

    def test_grid_covers_torus(self):
        # every center of the lattice is the nearest center of its own cell
        centers, axial = loop_hex_cell_grid(900.0, 200.0)
        assert len(centers) > 1
        assert np.all(centers >= 0) and np.all(centers < 900.0)
        cell, cell_axial = nearest_cells(centers, 900.0, 200.0)
        assert np.array_equal(cell, np.arange(len(centers)))
        assert np.array_equal(cell_axial, axial)

    @pytest.mark.parametrize("area,radius", [(900.0, 200.0), (2000.0, 217.0),
                                             (400.0, 5000.0), (600, 7.0),
                                             (2000.0, default_cell_radius(2000.0, 100, 19))])
    def test_grid_equals_cell_by_cell_loop(self, area, radius):
        # the 6-candidate search against the argmin over the whole lattice
        points = np.random.default_rng(5).uniform(0.0, area, size=(300, 2))
        assert_nearest_cells_exact(np.concatenate([points, edge_points(area, radius)]),
                                   area, radius)

    def test_nearest_cells_sweep(self):
        """Seeded drops of K 1-400 at prime N 2-61 on sides 1e-3 to 1e7 m, at
        the radius derived from (area, K, N), at radii 5000, 300 and 200 m
        scaled to a 2000 m side and at 7 m scaled to a 600 m side, with points
        on rows, quarter columns and seams. The 7 m lattice has ~3e3 cells, so
        its drops hold at most 100 UEs and its sides are drawn from 8, each
        lattice built once."""
        rng = np.random.default_rng(24)
        primes = [2, 3, 5, 7, 11, 13, 19, 29, 31, 61]
        for case in range(400):
            K, N = int(rng.integers(1, 401)), int(rng.choice(primes))
            area = float(10 ** rng.uniform(-3, 7))
            if case % 5 == 0:
                radius = default_cell_radius(area, K, N)
            elif case % 5 < 4:
                radius = area / 2000.0 * (5000.0, 300.0, 200.0)[case % 5 - 1]
            else:
                K, area = min(K, 100), 1.7 * 10.0 ** int(rng.integers(-3, 5))
                radius = area / 600.0 * 7.0
            n_rows, n_cols = grid_shape(area, radius)
            points = rng.uniform(0.0, area, size=(K, 2))
            if case % 4 == 1:
                points[:, 1] = rng.integers(0, 2 * n_rows + 1, K) * (area / n_rows / 2)
            elif case % 4 == 2:
                points[:, 0] = rng.integers(0, 4 * n_cols + 1, K) * (area / n_cols / 4)
            elif case % 4 == 3:
                points[:, 0] = np.where(rng.random(K) < 0.5, 0.0, np.nextafter(area, 0.0))
            assert_nearest_cells_exact(points, area, radius,
                                       f"case {case}: K={K}, N={N}, area={area}")

    def test_rows_at_most_twice_the_columns(self):
        # the premise of the 3-row search, over side / radius from 1e-3 to 1e7
        ratio = np.concatenate([np.linspace(1e-3, 100.0, 1_000_001),
                                np.geomspace(100.0, 1e7, 100_001)])
        n_rows = np.maximum(1, np.rint(ratio / 1.5))
        n_cols = np.maximum(1, np.rint(ratio / np.sqrt(3.0)))
        assert np.all(n_rows <= 2 * n_cols)

    def test_derived_cells_stay_near_k_over_n(self):
        # at the derived radius, cells <= (4/3) ceil(K/N) for every K <= 1e5
        # and N >= 2: ceil(K/N) takes every value up to 5e4
        for n_cells in range(1, 50_001):
            n_rows, n_cols = grid_shape(2000.0, default_cell_radius(2000.0, 2 * n_cells, 2))
            assert 3 * n_rows * n_cols <= 4 * n_cells, n_cells

    def test_large_k_allocates(self):
        # 20000 UEs on 10000 cells, the (K, cells) table of a full-lattice
        # search would hold 2e8 distances
        layout = generate_layout(2, 20000, 2000.0, seed=3)
        assignment = allocate_squares(layout, 2)
        assert assignment.square_id.shape == assignment.symbol_id.shape == (20000,)
        assert np.all(assignment.square_id == 0)

    def test_rejects_non_prime_order(self):
        layout = generate_layout(2, 3, 400.0, seed=1)
        assignment = _FixedAssignment([0, 0, 0], [1, 2, 3])
        for N in (0, 1, 4, 6, 9, 15):
            with pytest.raises(ValueError, match="prime"):
                allocate_squares(layout, N)
            with pytest.raises(ValueError, match="prime"):
                build_schedule(assignment, N, S=5)

    @pytest.mark.parametrize("N,K,L", [(5, 60, 10), (7, 40, 10), (19, 100, 40),
                                       (29, 25, 10)])
    def test_equals_per_cell_loop_on_real_drops(self, N, K, L):
        for seed in range(3):
            # one cell, K UEs, and enough UEs that cells reuse squares
            for n_ues in (min(K, N), K, 4 * N * N):
                layout = generate_layout(L, n_ues, 2000.0, seed=seed)
                got = allocate_squares(layout, N)
                want = per_cell_allocation(layout, N)
                for name in ("square_id", "symbol_id"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def per_cell_allocation(layout, N):
    """Reference: UEs binned into hex cells over the whole lattice, then
    (square, symbol) handed out one cell at a time."""
    K = layout.num_ues
    cell_of, axial = grid_nearest_cells(layout.ue_positions, layout.area_side,
                                        default_cell_radius(layout.area_side, K, N))
    square_id = np.empty(K, dtype=int)
    symbol_id = np.empty(K, dtype=int)
    for c in np.unique(cell_of):
        members = np.nonzero(cell_of == c)[0]
        q, r = axial[members[0]]
        square_id[members] = reuse_color(int(q), int(r), N - 1)
        symbol_id[members] = np.arange(len(members)) % N + 1
    return _FixedAssignment(square_id, symbol_id)


class TestCollisionLaw:
    def test_pipeline_schedules_obey_the_collision_law(self):
        """On schedules of generated layouts: UEs on one square with distinct
        symbols never share a subcarrier, UEs on distinct squares share one
        slot in every N consecutive ones, equal pairs share every slot."""
        rng = np.random.default_rng(23)
        seen = {"one square": 0, "cross": 0, "equal": 0}
        for N in (2, 3, 5, 7, 11, 19, 29):
            # one cell (K <= N); a few cells; more cells than squares, which
            # reuse squares; on sides of 1 mm, 1 km and 1000 km
            for low, high in ((1, N), (N + 1, 4 * N), (4 * N + 1, 12 * N)) * 3:
                K, seed = int(rng.integers(low, high + 1)), int(rng.integers(1 << 16))
                area = float(rng.choice([1e-3, 1e3, 1e6]))
                layout = generate_layout(1, K, area, seed=seed)
                assignment = allocate_squares(layout, N)
                for S in (1, N - 1, N, 2 * N + 3):
                    case = f"K={K}, N={N}, S={S}, area={area}, seed={seed}"
                    sub = build_schedule(assignment, N, S).subcarriers
                    pairs = check_collision_law(assignment, N, sub, case)
                for name, mask in zip(seen, pairs):
                    seen[name] += mask.any()
        assert min(seen.values()) > 0, seen
