import tracemalloc

import numpy as np
import pytest

from cfsubspace.channel import (NetworkChannelSampler, _support_table, dft_columns,
                                dft_matrix, network_supports)
from cfsubspace.geometry import generate_layout
from oracles import (angular_support, from_supports, make_support, sample_channel,
                     support_table_by_temporaries, true_covariance)


def one_pair_support(ru, ue, area_side, delta, M):
    """Reference: the support of one RU-UE pair, computed with scalars, and
    whether its window held no grid point."""
    disp = np.asarray(ue, dtype=float) - np.asarray(ru, dtype=float)
    disp = (disp + area_side / 2.0) % area_side - area_side / 2.0
    theta = float(np.arctan2(disp[1], disp[0])) % (2.0 * np.pi)
    grid = 2.0 * np.pi * np.arange(M) / M
    dist = np.abs(np.mod(grid - theta + np.pi, 2.0 * np.pi) - np.pi)
    inside = dist <= delta / 2.0 + 1e-12
    padded = False
    if not inside.any():
        inside[np.argmin(dist)] = True
        padded = True
    return np.nonzero(inside)[0], padded


def per_pair_draw(layout, supports, rng):
    """Reference: one network draw, one ``sample_channel`` call per pair in
    (l, k) order."""
    L, K = layout.num_rus, layout.num_ues
    return np.array([[sample_channel(supports.num_antennas, supports[l, k],
                                     layout.lsfc[l, k], rng)
                      for k in range(K)] for l in range(L)])


class TestDftBasis:
    @pytest.mark.parametrize("M", [4, 8, 16, 64])
    def test_unitary(self, M):
        F = dft_matrix(M)
        assert np.max(np.abs(F.conj().T @ F - np.eye(M))) < 1e-12

    def test_entry_formula(self):
        F = dft_matrix(4)
        assert F[1, 1] == pytest.approx(np.exp(-2j * np.pi / 4) / 2)


class TestSupportBasis:
    @pytest.mark.parametrize("M", [4, 8, 16, 29, 64])
    def test_matches_dft_columns_bitwise(self, M):
        rng = np.random.default_rng(M)
        m = np.arange(M)
        for size in (1, 2, M // 2, M):
            idx = np.sort(rng.choice(M, size=size, replace=False))
            basis = dft_columns(M, idx)
            assert basis.flags.c_contiguous and basis.flags.writeable
            assert basis.tobytes() == dft_matrix(M).take(idx, axis=1).tobytes()
            # a stack of index sets gives a stack of bases, slice by slice
            sets = np.array([[rng.choice(M, size=size, replace=False)
                              for _ in range(3)] for _ in range(2)])
            sets[0, 0] = idx
            stack = dft_columns(M, sets)
            assert stack.flags.c_contiguous and stack.shape == (2, 3, M, size)
            assert stack[0, 0].tobytes() == basis.tobytes()
            for i, j in np.ndindex(2, 3):
                one = dft_columns(M, sets[i, j])
                assert stack[i, j].flags.c_contiguous and one.flags.c_contiguous
                assert stack[i, j].tobytes() == one.tobytes()
            # reference: the closed-form entries exp(-2j pi m n / M) / sqrt(M)
            formula = np.exp(-2j * np.pi * np.outer(m, idx) / M) / np.sqrt(M)
            assert basis.tobytes() == formula.tobytes()

    def test_cached_matrix_is_read_only(self):
        F = dft_matrix(8)
        assert F is dft_matrix(8)
        with pytest.raises(ValueError):
            F[0, 0] = 0.0
        basis = dft_columns(8, [0, 3])
        basis[:] = 0.0  # a copy: the cached matrix is untouched
        m = np.arange(8)
        assert F.tobytes() == (np.exp(-2j * np.pi * np.outer(m, m) / 8)
                               / np.sqrt(8)).tobytes()


class TestAngularSupport:
    def test_window_equal_to_grid_spacing(self):
        # center on grid point 0; window length pi/8 = grid spacing for M=16
        # reaches just half-way to the neighbors, so only index 0 qualifies
        s = angular_support((0.0, 0.0), (10.0, 0.0), 2000.0, np.pi / 8, 16)
        assert list(s) == [0]

    def test_closed_boundary_includes_endpoints(self):
        # pi/4 window: neighbors sit at angular distance pi/8 = delta/2 exactly
        s = angular_support((0.0, 0.0), (10.0, 0.0), 2000.0, np.pi / 4, 16)
        assert list(s) == [0, 1, 15]

    def test_full_circle(self):
        s = angular_support((0.0, 0.0), (3.0, 4.0), 2000.0, 2 * np.pi, 16)
        assert list(s) == list(range(16))

    def test_deterministic(self):
        a = angular_support((5.0, 7.0), (100.0, 40.0), 2000.0, np.pi / 8, 16)
        b = angular_support((5.0, 7.0), (100.0, 40.0), 2000.0, np.pi / 8, 16)
        assert np.array_equal(a, b)

    def test_padding_when_window_misses_grid(self):
        # M=8 grid spacing pi/4; direction halfway between grid points 0 and 1
        # with a pi/8 window leaves the window empty -> padded to the nearest
        angle = np.pi / 8
        ue = (100.0 * np.cos(angle), 100.0 * np.sin(angle))
        s = angular_support((0.0, 0.0), ue, 2000.0, np.pi / 8, 8)
        assert s.size == 1 and s[0] in (0, 1)

    def test_torus_wrap_direction(self):
        # ue just across the seam lies to the left: angle pi, grid index M/2
        s = angular_support((1.0, 0.0), (1999.0, 0.0), 2000.0, np.pi / 8, 16)
        assert list(s) == [8]

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            angular_support((0, 0), (1, 0), 10.0, 0.0, 8)
        with pytest.raises(ValueError):
            angular_support((0, 0), (1, 0), 10.0, 7.0, 8)
        layout = generate_layout(2, 3, 500.0, seed=0)
        with pytest.raises(ValueError):
            network_supports(layout, 7.0, 8)
        for delta in (0.0, -0.5, 2 * np.pi + 1e-9, np.nan):
            with pytest.raises(ValueError, match="delta"):
                network_supports(layout, delta, 8)


class TestNetworkSupports:
    @pytest.mark.parametrize("M", [4, 8, 16, 64])
    @pytest.mark.parametrize("delta", [0.01, np.pi / 8, np.pi / 3, 2 * np.pi])
    def test_matches_one_pair_formula(self, M, delta):
        padded = 0
        for seed in range(4):
            layout = generate_layout(5, 12, 800.0, seed=seed)
            table = network_supports(layout, delta, M)
            L, K = layout.num_rus, layout.num_ues
            for array in (table.sizes, table.offsets):
                assert array.shape == (L, K)
            assert table.num_antennas == M
            assert table.indices.size == table.sizes.sum()
            for l in range(L):
                for k in range(K):
                    indices, pad = one_pair_support(
                        layout.ru_positions[l], layout.ue_positions[k],
                        layout.area_side, delta, M)
                    # the one-pair view
                    s = table[l, k]
                    assert s.dtype == indices.dtype
                    assert np.array_equal(s, indices)
                    # the raw arrays, pairs stored back to back in (l, k) order
                    start = table.offsets[l, k]
                    assert start == (table.sizes.ravel()[:l * K + k].sum())
                    assert table.sizes[l, k] == indices.size
                    stored = table.indices[start:start + indices.size]
                    assert stored.tobytes() == indices.tobytes()
                    padded += pad
        if delta == 0.01:  # far narrower than the grid spacing
            assert padded > 0

    def test_from_supports_round_trip(self):
        layout = generate_layout(3, 7, 800.0, seed=5)
        table = network_supports(layout, 0.05, 16)
        rows = [[table[l, k] for k in range(7)] for l in range(3)]
        again = from_supports(rows, 16)
        for name in ("indices", "sizes", "offsets"):
            a, b = getattr(table, name), getattr(again, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert again.num_antennas == 16

    @pytest.mark.parametrize("M", [8, 16])
    @pytest.mark.parametrize("delta", ["half_spacing", "spacing", "two_spacings",
                                       "full", "below_spacing"])
    def test_matches_former_body(self, M, delta):
        # windows whose ends sit exactly on grid angles, the full circle, and
        # windows below the grid spacing, where padding fires
        spacing = 2.0 * np.pi / M
        delta = {"half_spacing": spacing / 2, "spacing": spacing,
                 "two_spacings": 2 * spacing, "full": 2 * np.pi,
                 "below_spacing": 0.3 * spacing}[delta]
        # UEs on the grid directions and half-way between them, then a drop
        angles = np.arange(2 * M) * spacing / 2
        rus = np.array([[0.0, 0.0], [1990.0, 5.0], [700.0, 1300.0]])
        ues = rus[0] + 100.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        layout = generate_layout(4, 9, 2000.0, seed=M)
        rus = np.concatenate([rus, layout.ru_positions])
        ues = np.concatenate([ues % 2000.0, layout.ue_positions])
        got = _support_table(rus, ues, 2000.0, delta, M)
        want = support_table_by_temporaries(rus, ues, 2000.0, delta, M)
        for name in ("indices", "sizes", "offsets"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        if delta < spacing / 2:
            assert np.all(got.sizes == 1)       # padded where no point is inside

    def test_size_groups_cover_the_selection(self):
        layout = generate_layout(4, 9, 800.0, seed=6)
        table = network_supports(layout, 0.5, 16)     # sizes 1 and 2
        l = np.array([0, 3, 1, 1, 2, 0, 2])
        k = np.array([8, 0, 4, 4, 2, 0, 5])
        seen, sizes = [], []
        for members, indices in table.size_groups(l, k):
            r = indices.shape[1]
            assert indices.shape == (members.size, r)
            assert np.all(table.sizes[l[members], k[members]] == r)
            sizes.append(r)
            for m, row in zip(members.tolist(), indices):
                assert row.tobytes() == table[l[m], k[m]].tobytes()
            seen.extend(members.tolist())
        assert sorted(seen) == list(range(len(l)))
        assert sizes == sorted(set(sizes)) and len(sizes) > 1
        # by default every pair, numbered p = l * K + k
        pairs = np.concatenate([m for m, _ in table.size_groups()])
        assert sorted(pairs.tolist()) == list(range(4 * 9))


class TestSampleChannel:
    def test_lies_in_span(self):
        rng = np.random.default_rng(0)
        M = 16
        F = dft_matrix(M)
        s = make_support([2, 3, 4])
        Fs = F[:, s]
        P_perp = np.eye(M) - Fs @ Fs.conj().T
        for _ in range(50):
            h = sample_channel(M, s, 2.5e-9, rng)
            assert np.linalg.norm(P_perp @ h) < 1e-12 * np.linalg.norm(h) + 1e-15

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            sample_channel(8, make_support([0]), 0.0, np.random.default_rng(0))

    def test_full_support_covariance(self):
        rng = np.random.default_rng(1)
        M, beta, n = 8, 2.5, 20000
        s = make_support(range(M))
        H = np.array([sample_channel(M, s, beta, rng) for _ in range(n)]).T
        emp = H @ H.conj().T / n
        target = beta * np.eye(M)
        rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
        assert rel < 0.05

    def test_mean_energy(self):
        rng = np.random.default_rng(2)
        M, beta = 8, 3.0
        s = make_support([1, 4])
        e = np.mean([np.linalg.norm(sample_channel(M, s, beta, rng)) ** 2
                     for _ in range(20000)])
        assert e == pytest.approx(beta * M, rel=0.05)


class TestTrueCovariance:
    def test_trace_and_eigenvalues(self):
        rng = np.random.default_rng(3)
        M = 16
        for _ in range(10):
            size = rng.integers(1, M + 1)
            idx = np.sort(rng.choice(M, size=size, replace=False))
            beta = float(10 ** rng.uniform(-10, -6))
            cov = true_covariance(M, make_support(idx), beta)
            assert np.trace(cov).real == pytest.approx(beta * M, rel=1e-12)
            ev = np.linalg.eigvalsh(cov)
            assert ev.min() > -1e-12 * beta * M
            nonzero = ev[ev > 1e-9 * beta * M]
            assert len(nonzero) == size
            assert np.allclose(nonzero, beta * M / size, rtol=1e-9)

    def test_matches_empirical(self):
        rng = np.random.default_rng(4)
        M, beta = 8, 1.0
        s = make_support([0, 3, 5])
        n = 20000
        H = np.array([sample_channel(M, s, beta, rng) for _ in range(n)]).T
        emp = H @ H.conj().T / n
        target = true_covariance(M, s, beta)
        assert np.linalg.norm(emp - target) / np.linalg.norm(target) < 0.05


class TestNetworkSampling:
    def test_single_pair_matches_sample_channel(self):
        layout = generate_layout(1, 1, 500.0, seed=9)
        supports = network_supports(layout, np.pi / 8, 8)
        direct = sample_channel(8, supports[0, 0], layout.lsfc[0, 0],
                                np.random.default_rng(123))
        blocks = NetworkChannelSampler(layout, supports).sample(
            np.random.default_rng(123))
        assert np.allclose(blocks[0, 0], direct)

    def test_sample_returns_blocks(self):
        layout = generate_layout(3, 5, 500.0, seed=10)
        supports = network_supports(layout, np.pi / 8, 4)
        sampler = NetworkChannelSampler(layout, supports)
        blocks = sampler.sample(np.random.default_rng(0))
        assert blocks.shape == (3, 5, 4) and blocks.dtype == complex
        assert blocks.flags.c_contiguous
        again = sampler.sample(np.random.default_rng(0))
        assert again is not blocks and again.tobytes() == blocks.tobytes()

    @pytest.mark.parametrize("M", [8, 16, 64])
    def test_batched_matches_per_pair_loop(self, M):
        layout = generate_layout(4, 9, 500.0, seed=M)
        rng = np.random.default_rng(M)
        sizes = [1, 2, 3, 8]
        supports = from_supports(
            [[make_support(np.sort(rng.choice(M, size=sizes[(l + k) % 4],
                                              replace=False)))
              for k in range(layout.num_ues)]
             for l in range(layout.num_rus)], M)
        sampler = NetworkChannelSampler(layout, supports)
        batched, looped = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(3):
            blocks = sampler.sample(batched)
            assert blocks.tobytes() == per_pair_draw(layout, supports,
                                                     looped).tobytes()
            assert batched.bit_generator.state == looped.bit_generator.state

    @pytest.mark.parametrize("L,K,M", [(40, 100, 16), (6, 15, 8)])
    def test_single_size_matches_per_pair_loop(self, L, K, M):
        # delta = pi/8 leaves one DFT index per pair: at M=16 the window holds
        # one grid point, at M=8 often none, and padding supplies it
        layout = generate_layout(L, K, 2000.0, seed=L + M)
        supports = network_supports(layout, np.pi / 8, M)
        assert np.all(supports.sizes == 1)
        if M == 8:
            padded = sum(one_pair_support(layout.ru_positions[l],
                                          layout.ue_positions[k], 2000.0,
                                          np.pi / 8, M)[1]
                         for l in range(L) for k in range(K))
            assert padded > 0
        sampler = NetworkChannelSampler(layout, supports)
        batched, looped = np.random.default_rng(5), np.random.default_rng(5)
        previous = None
        for _ in range(3):
            blocks = sampler.sample(batched)
            assert blocks.shape == (L, K, M) and blocks.flags.c_contiguous
            assert blocks.tobytes() == per_pair_draw(layout, supports,
                                                     looped).tobytes()
            assert batched.bit_generator.state == looped.bit_generator.state
            if previous is not None:
                assert not np.shares_memory(blocks, previous)
                assert blocks.tobytes() != previous.tobytes()
            previous = blocks

    def test_draws_uncorrelated(self):
        layout = generate_layout(1, 1, 500.0, seed=11)
        supports = network_supports(layout, np.pi / 2, 4)
        sampler = NetworkChannelSampler(layout, supports)
        rng = np.random.default_rng(12)
        n = 10000
        series = np.array([sampler.sample(rng)[0, 0, 0] for _ in range(n)])
        x, y = series.real[:-1], series.real[1:]
        rho = np.corrcoef(x, y)[0, 1]
        assert abs(rho) < 0.05


def _peak_bytes(fn):
    """Peak bytes traced while ``fn`` runs, and its result."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestAllocations:
    """Paper-size draws and support grids allocate about what they return."""

    def test_paper_draw_peaks_near_its_size(self):
        layout = generate_layout(40, 100, 2000.0, seed=1)
        sampler = NetworkChannelSampler(layout, network_supports(layout, np.pi / 8, 16))
        rng = np.random.default_rng(0)
        sampler.sample(rng)
        peak, blocks = _peak_bytes(lambda: sampler.sample(rng))
        assert blocks.nbytes == 40 * 100 * 16 * 16
        assert peak <= 1.5 * blocks.nbytes

    def test_paper_supports_peak_below_two_grids(self):
        layout = generate_layout(40, 100, 2000.0, seed=1)
        network_supports(layout, np.pi / 8, 16)
        peak, _ = _peak_bytes(lambda: network_supports(layout, np.pi / 8, 16))
        assert peak <= 2 * 40 * 100 * 16 * 8
