import numpy as np
import pytest

from cfsubspace.channel import (AngularSupport, dft_columns, dft_matrix,
                                network_supports)
from cfsubspace.geometry import generate_layout
from cfsubspace.hopping import allocate_squares, build_schedule, mols_family
from cfsubspace.rpca import (RpcaParams, SubspaceEstimate, _col_norms, _fro,
                             collect_srs, dft_project, estimated_covariance,
                             numerical_rank, outlier_pursuit,
                             outlier_pursuit_tuned, power_efficiency,
                             select_rank, subspace_estimates)


def make_support(indices, M):
    return AngularSupport(indices=np.asarray(indices, dtype=int), center_angle=0.0,
                          width=np.pi / 8, num_antennas=M)


def planted_instance(rng, M=16, S=64, rank=2, n_outliers=3, outlier_norm=5.0):
    """Low-rank inliers with flat column weights plus replaced outlier columns.

    Flat (unit-modulus) coefficient entries keep every inlier column weight
    below the lambda = 0.25 shrinkage threshold, so the exact solution carries
    the outliers only.
    """
    out_idx = np.sort(rng.choice(S, size=n_outliers, replace=False))
    basis, _ = np.linalg.qr(rng.standard_normal((M, rank))
                            + 1j * rng.standard_normal((M, rank)))
    coeff = np.exp(2j * np.pi * rng.random((rank, S))) / np.sqrt(rank)
    Y = basis @ coeff
    for j in out_idx:
        v = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        Y[:, j] = v / np.linalg.norm(v) * outlier_norm
    return Y, out_idx, basis


def outlier_columns(result, Y):
    """Columns of E_hat carrying non-negligible energy."""
    thr = 1e-3 * np.linalg.norm(Y) / np.sqrt(Y.shape[1])
    return np.nonzero(np.linalg.norm(result.outliers, axis=0) > thr)[0]


def principal_angles(basis_a, basis_b):
    sv = np.linalg.svd(basis_a.conj().T @ basis_b, compute_uv=False)
    return np.arccos(np.clip(sv, 0.0, 1.0))


class TestCollectSrs:
    def _single_user_setup(self, snr, M=8, S=12, seed=0):
        layout = generate_layout(1, 1, 500.0, seed=seed)
        layout.lsfc[0, 0] = 1.0  # unit gain so the noise floor is relative
        supports = network_supports(layout, np.pi / 8, M)
        family = mols_family(5)
        assignment = allocate_squares(layout, family)
        schedule = build_schedule(assignment, family, S=S)
        rng = np.random.default_rng(seed)
        Y = collect_srs(schedule, layout, supports, (0, 0), snr, rng)
        return supports, schedule, Y

    def test_noiseless_single_user_in_span(self):
        supports, schedule, Y = self._single_user_setup(snr=1e30)
        assert Y.shape == (8, 12)
        Fs = dft_columns(8, supports[0][0].indices)
        P_perp = np.eye(8) - Fs @ Fs.conj().T
        for s in range(Y.shape[1]):
            col = Y[:, s]
            assert np.linalg.norm(P_perp @ col) < 1e-10 * np.linalg.norm(col)
            assert len(schedule.colliders(0, s)) == 0

    def test_energy_accounting(self):
        # two UEs with identical (square, symbol) collide every slot:
        # E||col||^2 = beta_k M + beta_i M + M / snr
        M, S, snr = 4, 4000, 50.0
        layout = generate_layout(1, 2, 500.0, seed=6)
        supports = network_supports(layout, np.pi / 2, M)
        family = mols_family(5)

        class _Fixed:
            square_id = np.array([0, 0])
            symbol_id = np.array([2, 2])

        schedule = build_schedule(_Fixed(), family, S=S)
        Y = collect_srs(schedule, layout, supports, (0, 0), snr,
                        np.random.default_rng(7))
        energy = np.mean(np.abs(Y) ** 2) * M
        expected = (layout.lsfc[0, 0] * M + layout.lsfc[0, 1] * M + M / snr)
        assert energy == pytest.approx(expected, rel=0.05)


class TestOutlierPursuit:
    def test_exact_rank_one_no_outliers(self):
        # flat column weights keep the no-outlier solution exact at lambda=0.25
        rng = np.random.default_rng(0)
        M, S = 16, 64
        u = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        u /= np.linalg.norm(u)
        Y = 3.0 * np.outer(u, np.exp(2j * np.pi * rng.random(S)))
        result = outlier_pursuit(Y, lam=0.25)
        assert result.converged
        assert np.linalg.norm(result.low_rank - Y) / np.linalg.norm(Y) < 1e-3
        assert len(outlier_columns(result, Y)) == 0
        # oracle: the recovered dominant direction matches the SVD of Y
        W, _, _ = np.linalg.svd(result.low_rank, full_matrices=False)
        assert principal_angles(W[:, :1], u[:, None]).max() < 1e-3

    def test_planted_outliers_identified(self):
        rng = np.random.default_rng(1)
        Y, out_idx, basis = planted_instance(rng)
        result = outlier_pursuit(Y, lam=0.25)
        assert result.converged
        assert np.array_equal(outlier_columns(result, Y), out_idx)
        W, _, _ = np.linalg.svd(result.low_rank, full_matrices=False)
        assert principal_angles(W[:, :2], basis).max() < 1e-2

    def test_objective_non_increasing_noiseless(self):
        rng = np.random.default_rng(2)
        params = RpcaParams()
        for _ in range(5):
            Y, _, _ = planted_instance(rng)
            result = outlier_pursuit(Y, lam=0.25, params=params)
            slack = params.tol * result.objective[0]
            assert np.all(np.diff(result.objective) <= slack)

    def test_huge_lambda_disables_outliers(self):
        rng = np.random.default_rng(3)
        Y, _, _ = planted_instance(rng)
        result = outlier_pursuit(Y, lam=1e6)
        assert np.linalg.norm(result.outliers) == 0.0
        assert np.linalg.norm(result.low_rank - Y) / np.linalg.norm(Y) < 1e-6

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        Y, _, _ = planted_instance(rng)
        a = outlier_pursuit(Y, lam=0.25)
        b = outlier_pursuit(Y * 1e-9, lam=0.25)
        assert np.allclose(b.low_rank, a.low_rank * 1e-9, atol=1e-18)

    def test_rejects_bad_input(self):
        Y = np.ones((4, 6), dtype=complex)
        with pytest.raises(ValueError):
            outlier_pursuit(Y, lam=0.0)
        Y[1, 2] = np.nan
        with pytest.raises(ValueError):
            outlier_pursuit(Y, lam=0.25)

    def test_zero_matrix(self):
        result = outlier_pursuit(np.zeros((4, 6), dtype=complex), lam=0.25)
        assert result.converged and result.residual == 0.0
        assert result.objective.tolist() == [0.0]

    def test_max_iter_reports_not_converged(self):
        rng = np.random.default_rng(5)
        Y, _, _ = planted_instance(rng)
        result = outlier_pursuit(Y, lam=0.25, params=RpcaParams(max_iter=2))
        assert not result.converged and result.iterations == 2

    def test_residual_reported(self):
        rng = np.random.default_rng(6)
        Y, _, _ = planted_instance(rng)
        result = outlier_pursuit(Y, lam=0.25)
        direct = np.linalg.norm(Y - result.low_rank - result.outliers)
        assert result.residual == pytest.approx(direct)

    @pytest.mark.parametrize("rank,n_out", [(1, 3), (2, 5), (3, 4), (4, 6)])
    def test_recovery_property_family(self, rank, n_out):
        # outlier fraction <= 10 % of S=64, inlier rank <= 4: exact support
        # recovery (lambda above the flat column weight sqrt(rank / S))
        rng = np.random.default_rng(100 + rank + n_out)
        Y, out_idx, basis = planted_instance(rng, rank=rank, n_outliers=n_out)
        result = outlier_pursuit(Y, lam=0.35)
        assert np.array_equal(outlier_columns(result, Y), out_idx)


class TestNorms:
    """The solver's norm helpers must match numpy's to the last bit, so that
    the iterates and the outputs built from them do not move."""

    @pytest.mark.parametrize("shape", [(8, 29), (16, 64), (29, 8), (5,), (1, 1)])
    def test_fro_matches_numpy_bitwise(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        # transposed, strided and reversed views are not C-contiguous
        for view in (x, x.T, x[::2], x[..., ::-1], x * 1e-150, x.real):
            assert _fro(view).tobytes() == np.linalg.norm(view).tobytes()

    @pytest.mark.parametrize("shape", [(8, 29), (16, 64), (3, 1)])
    def test_col_norms_match_numpy_bitwise(self, shape):
        rng = np.random.default_rng(len(shape) + shape[0])
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for view in (x, x.T.copy().T):
            assert _col_norms(view).tobytes() == \
                np.linalg.norm(view, axis=0).tobytes()


class TestLazyObjective:
    def test_outputs_do_not_depend_on_reading_objective(self):
        rng = np.random.default_rng(15)
        Y, _, _ = planted_instance(rng, M=8, S=29)
        read, unread = outlier_pursuit(Y, 0.25), outlier_pursuit(Y, 0.25)
        low_rank, outliers = read.low_rank.copy(), read.outliers.copy()
        assert read.objective.shape == (read.iterations + 1,)
        for result in (read, unread):
            assert result.low_rank.tobytes() == low_rank.tobytes()
            assert result.outliers.tobytes() == outliers.tobytes()
        assert (read.iterations, read.converged, read.residual) == \
            (unread.iterations, unread.converged, unread.residual)
        assert read.objective is read.objective  # computed once

    def test_objective_matches_direct_recomputation(self):
        # E_i is the outlier iterate after i steps: a solve capped at
        # max_iter = i returns it in the input's units, times the scale.
        rng = np.random.default_rng(16)
        Y, _, _ = planted_instance(rng, M=8, S=24, rank=1, n_outliers=2)
        lam = 0.25
        result = outlier_pursuit(Y, lam)
        scale = np.linalg.norm(Y) / np.sqrt(Y.shape[1])
        Yn = Y / scale
        assert result.objective[0] == pytest.approx(
            np.linalg.svd(Yn, compute_uv=False).sum(), rel=1e-12)
        for i in range(result.iterations + 1):
            E = outlier_pursuit(Y, lam, RpcaParams(max_iter=i)).outliers / scale
            direct = (np.linalg.svd(Yn - E, compute_uv=False).sum()
                      + lam * np.linalg.norm(E, axis=0).sum())
            assert result.objective[i] == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_one_svd_per_iteration_unless_objective_read(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        rng = np.random.default_rng(17)
        Y, _, _ = planted_instance(rng, M=8, S=29)
        result = outlier_pursuit(Y, 0.25)
        n = result.iterations
        assert n > 1
        assert len(calls) == n
        # reading it replays the n steps, then takes one SVD per iterate
        result.objective
        assert len(calls) == n + n + (n + 1)

    def test_objective_replay_ignores_later_param_edits(self):
        rng = np.random.default_rng(18)
        Y, _, _ = planted_instance(rng, M=8, S=29)
        params = RpcaParams()
        result = outlier_pursuit(Y, 0.25, params)
        params.rho, params.max_iter = 50.0, 3
        expected = outlier_pursuit(Y, 0.25).objective
        assert result.objective.tobytes() == expected.tobytes()


class TestLambdaTuning:
    def test_decreases_lambda_when_rank_explodes(self):
        rng = np.random.default_rng(7)
        Y = rng.standard_normal((8, 24)) + 1j * rng.standard_normal((8, 24))
        plain = outlier_pursuit(Y, lam=2.0)
        tuned = outlier_pursuit_tuned(Y, lam=2.0)
        assert numerical_rank(plain.low_rank) > 4
        assert numerical_rank(tuned.low_rank) <= 4

    def test_increases_lambda_when_everything_is_outlier(self):
        rng = np.random.default_rng(8)
        Y, _, _ = planted_instance(rng)
        assert numerical_rank(outlier_pursuit(Y, lam=0.05).low_rank) == 0
        tuned = outlier_pursuit_tuned(Y, lam=0.05)
        assert numerical_rank(tuned.low_rank) >= 1


class TestSelectRank:
    def test_documented_examples(self):
        assert select_rank([5.0, 4.8, 0.1, 0.05], r_max=3) == 2
        assert select_rank([3.0, 1.0, 0.9, 0.8], r_max=3) == 1
        assert select_rank([1.0, 1.0, 1.0, 1.0], r_max=3) == 1
        assert select_rank([2.0], r_max=4) == 1

    def test_r_max_restricts_search(self):
        sv = [5.0, 4.5, 4.0, 0.25]  # gaps 0.5, 0.5, 3.75, all exact in binary
        assert select_rank(sv, r_max=3) == 3
        assert select_rank(sv, r_max=2) == 1  # tie between equal gaps

    def test_validation(self):
        with pytest.raises(ValueError):
            select_rank([], r_max=2)
        with pytest.raises(ValueError):
            select_rank([1.0, 2.0], r_max=2)
        with pytest.raises(ValueError):
            select_rank([1.0, -0.5], r_max=2)


class TestDftProject:
    def test_fixed_point(self):
        idx = dft_project(dft_columns(16, [2, 7]))
        assert idx.tolist() == [2, 7]

    def test_rotation_invariance(self):
        rng = np.random.default_rng(9)
        basis, _ = np.linalg.qr(rng.standard_normal((16, 3))
                                + 1j * rng.standard_normal((16, 3)))
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Q, _ = np.linalg.qr(G)
        assert np.array_equal(dft_project(basis), dft_project(basis @ Q))

    def test_greedy_matches_brute_force(self):
        rng = np.random.default_rng(10)
        F = dft_matrix(16)
        for _ in range(10):
            basis, _ = np.linalg.qr(rng.standard_normal((16, 3))
                                    + 1j * rng.standard_normal((16, 3)))
            scores = np.array([np.linalg.norm(basis.conj().T @ F[:, i]) ** 2
                               for i in range(16)])
            brute = np.sort(np.argsort(-scores, kind="stable")[:3])
            assert np.array_equal(dft_project(basis), brute)

    def test_rank_exceeding_m_rejected(self):
        with pytest.raises(ValueError):
            dft_project(np.ones((4, 5), dtype=complex))


class TestEstimatedCovariance:
    def test_trace_and_complete_basis(self):
        beta = 3.2e-9
        cov = estimated_covariance(dft_columns(8, [1, 5, 6]), beta)
        assert np.trace(cov).real == pytest.approx(beta * 8, rel=1e-12)
        full = estimated_covariance(dft_matrix(8), beta)
        assert np.allclose(full, beta * np.eye(8), atol=1e-12 * beta)

    def test_psd(self):
        rng = np.random.default_rng(11)
        basis, _ = np.linalg.qr(rng.standard_normal((8, 2))
                                + 1j * rng.standard_normal((8, 2)))
        ev = np.linalg.eigvalsh(estimated_covariance(basis, 1.0))
        assert ev.min() >= -1e-12


class TestPowerEfficiency:
    def test_perfect_estimate(self):
        support = make_support([2, 7, 9], 16)
        est = SubspaceEstimate(basis=dft_columns(16, [2, 7, 9]), rank=3, kind="pp")
        assert power_efficiency(support, 1e-9, est) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        support = make_support([2, 7], 16)
        est = SubspaceEstimate(basis=dft_columns(16, [3, 8]), rank=2, kind="pp")
        assert power_efficiency(support, 1e-9, est) == pytest.approx(0.0, abs=1e-12)

    def test_half_right(self):
        # 2 correct + 2 wrong DFT columns against |S| = 4: PE = 2/4
        support = make_support([1, 4, 8, 12], 16)
        est = SubspaceEstimate(basis=dft_columns(16, [1, 4, 2, 6]), rank=4, kind="pp")
        pe = power_efficiency(support, 2.5e-9, est)
        assert pe == pytest.approx(0.5)
        # cross-check against the covariance trace-ratio definition
        from cfsubspace.channel import true_covariance
        sigma = true_covariance(support, 2.5e-9)
        sigma_hat = estimated_covariance(est.basis, 2.5e-9)
        ratio = np.trace(sigma @ sigma_hat).real / np.trace(sigma @ sigma).real
        assert pe == pytest.approx(ratio, rel=1e-12)

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            size = int(rng.integers(1, 8))
            support = make_support(np.sort(rng.choice(8, size, replace=False)), 8)
            r = int(rng.integers(1, 8))
            basis, _ = np.linalg.qr(rng.standard_normal((8, r))
                                    + 1j * rng.standard_normal((8, r)))
            pe = power_efficiency(support, 1.0, SubspaceEstimate(basis, r))
            assert 0.0 <= pe <= 1.0


class TestSubspacePipeline:
    def test_estimates_from_planted_instance(self):
        rng = np.random.default_rng(13)
        M = 16
        support_idx = [3, 4]
        basis = dft_columns(M, support_idx)
        coeff = np.exp(2j * np.pi * rng.random((2, 64))) / np.sqrt(2)
        Y = basis @ coeff
        result = outlier_pursuit(Y, lam=0.25)
        pca, pp = subspace_estimates(result.low_rank)
        assert pca.rank == 2 and pp.rank == 2
        assert pp.dft_indices.tolist() == support_idx
        support = make_support(support_idx, M)
        assert power_efficiency(support, 1.0, pp) == pytest.approx(1.0)
        assert power_efficiency(support, 1.0, pca) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("M", [8, 16])
    def test_pp_basis_is_c_ordered_dft_columns(self, M):
        # a Fortran-ordered basis holds equal values, but the products made
        # with it (PE, projections) can differ in the last bits
        rng = np.random.default_rng(M)
        for r in (1, 2, 3):
            support_idx = np.sort(rng.choice(M, size=r, replace=False))
            coeff = np.exp(2j * np.pi * rng.random((r, 40))) / np.sqrt(r)
            low_rank = dft_columns(M, support_idx) @ coeff
            _, pp = subspace_estimates(low_rank)
            assert pp.basis.flags.c_contiguous
            expected = dft_matrix(M).take(pp.dft_indices, axis=1)
            assert pp.basis.tobytes() == expected.tobytes()

    def test_gap_search_restricted_to_half(self):
        # singular values with the largest gap beyond min(M, S)/2 must not win
        sv = np.array([10.0, 9.9, 9.8, 9.7, 1.0, 0.9, 0.8, 0.7])
        assert select_rank(sv, r_max=4) == 4
