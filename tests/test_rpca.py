import contextlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import cfsubspace.experiment as experiment_mod
import cfsubspace.rpca as rpca_mod
from cfsubspace.channel import dft_columns, dft_matrix, network_supports
from cfsubspace.experiment import ExperimentConfig, run_experiment
from cfsubspace.geometry import calibrate_snr, form_clusters, generate_layout
from cfsubspace.hopping import SrsSchedule, allocate_squares, build_schedule
from cfsubspace.rpca import (RpcaParams, SubspaceEstimate, _col_norms, _fro,
                             _rank_zero_lambda, _row_norms, collect_srs, dft_project,
                             outlier_pursuit, outlier_pursuit_tuned,
                             power_efficiency, select_rank, subspace_estimates)
from oracles import (admm_stopping_on_tol, colliders, estimated_covariance,
                     from_supports, make_support, numerical_rank, objective_trace,
                     sample_channel, true_covariance)


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
        schedule = build_schedule(allocate_squares(layout, 5), 5, S=S)
        rng = np.random.default_rng(seed)
        Y = collect_srs(schedule, layout, supports, (0, 0), snr, rng)
        return supports, schedule, Y

    def test_noiseless_single_user_in_span(self):
        supports, schedule, Y = self._single_user_setup(snr=1e30)
        assert Y.shape == (8, 12)
        Fs = dft_columns(8, supports[0, 0])
        P_perp = np.eye(8) - Fs @ Fs.conj().T
        for s in range(Y.shape[1]):
            col = Y[:, s]
            assert np.linalg.norm(P_perp @ col) < 1e-10 * np.linalg.norm(col)
            assert len(colliders(schedule, 0, s)) == 0

    def test_energy_accounting(self):
        # two UEs with identical (square, symbol) collide every slot:
        # E||col||^2 = beta_k M + beta_i M + M / snr
        M, S, snr = 4, 4000, 50.0
        layout = generate_layout(1, 2, 500.0, seed=6)
        supports = network_supports(layout, np.pi / 2, M)

        class _Fixed:
            square_id = np.array([0, 0])
            symbol_id = np.array([2, 2])

        schedule = build_schedule(_Fixed(), 5, S=S)
        Y = collect_srs(schedule, layout, supports, (0, 0), snr,
                        np.random.default_rng(7))
        energy = np.mean(np.abs(Y) ** 2) * M
        expected = (layout.lsfc[0, 0] * M + layout.lsfc[0, 1] * M + M / snr)
        assert energy == pytest.approx(expected, rel=0.05)


def per_slot_srs(schedule, layout, supports, pair, snr, rng):
    """Reference: the slot-by-slot SRS synthesis the batched collect_srs
    replaces, one sample_channel call per desired or colliding channel."""
    l, k = pair
    M = supports.num_antennas
    S = schedule.subcarriers.shape[1]
    Y = np.empty((M, S), dtype=complex)
    for s in range(S):
        col = sample_channel(M, supports[l, k], layout.lsfc[l, k], rng)
        for i in colliders(schedule, k, s):
            col = col + sample_channel(M, supports[l, i], layout.lsfc[l, i], rng)
        noise = (rng.standard_normal(M) + 1j * rng.standard_normal(M)) / np.sqrt(2.0 * snr)
        Y[:, s] = col + noise
    return Y


class TestBatchedCollectSrs:
    @staticmethod
    def _network(M, seed):
        # UE 0 meets nobody in slots 0 and 5, one UE in slots 1 and 3, three
        # in slot 2 and two in slot 4; support sizes 1..4 are mixed
        K, S = 7, 6
        sub = 2 + (np.arange(K)[:, None] + np.arange(S)) % 3
        sub[0] = 1
        for s, others in {1: [3], 2: [1, 2, 5], 3: [6], 4: [2, 4]}.items():
            sub[others, s] = 1
        schedule = SrsSchedule(subcarriers=sub)
        rng = np.random.default_rng(seed)
        supports = from_supports(
            [[make_support(np.sort(rng.choice(M, 1 + (k + l) % 4, replace=False)))
              for k in range(K)] for l in range(2)], M)
        layout = SimpleNamespace(lsfc=10.0 ** rng.uniform(-12, -8, (2, K)))
        return schedule, layout, supports

    @pytest.mark.parametrize("M", [8, 16])
    def test_matches_per_slot_loop(self, M):
        schedule, layout, supports = self._network(M, seed=M)
        counts = [len(colliders(schedule, 0, s)) for s in range(6)]
        assert counts == [0, 1, 3, 1, 2, 0]
        for l in range(2):
            for k in range(7):
                batched, looped = (np.random.default_rng(100 * l + k)
                                   for _ in range(2))
                for _ in range(2):   # a second call starts from the moved state
                    Y = collect_srs(schedule, layout, supports, (l, k), 1e9, batched)
                    ref = per_slot_srs(schedule, layout, supports, (l, k), 1e9, looped)
                    assert Y.flags.c_contiguous and Y.shape == (M, 6)
                    assert Y.tobytes() == ref.tobytes()
                    assert batched.bit_generator.state == looped.bit_generator.state

    def test_matches_per_slot_loop_on_a_real_schedule(self):
        layout = generate_layout(3, 60, 800.0, seed=11)
        supports = network_supports(layout, np.pi / 3, 8)
        schedule = build_schedule(allocate_squares(layout, 5), 5, S=8)
        assert max(len(colliders(schedule, k, s)) for k in range(60)
                   for s in range(8)) >= 3
        for l, k in [(0, 0), (1, 17), (2, 59)]:
            batched, looped = np.random.default_rng(k), np.random.default_rng(k)
            Y = collect_srs(schedule, layout, supports, (l, k), 50.0, batched)
            ref = per_slot_srs(schedule, layout, supports, (l, k), 50.0, looped)
            assert Y.tobytes() == ref.tobytes()
            assert batched.bit_generator.state == looped.bit_generator.state


class TestRpcaParams:
    """The solver knobs are checked when made, with the config's type rules."""

    @pytest.mark.parametrize("knobs,message", [
        ({"max_iter": "abc"}, "max_iter must be an integer"),
        ({"max_iter": 0}, "max_iter must be >= 1"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"rho": -1}, "rho must be positive"),
        ({"tol": float("inf")}, "tol must be positive and finite"),
        ({"rho": float("inf")}, "rho must be positive and finite"),
    ])
    def test_wrong_type_or_range_rejected(self, knobs, message):
        with pytest.raises(ValueError, match=message):
            RpcaParams(**knobs)

    def test_numbers_of_any_kind_accepted(self):
        # numpy scalars become the Python numbers they equal
        params = RpcaParams(max_iter=np.int64(50), tol=np.float64(1e-5), rho=2)
        assert params == RpcaParams(max_iter=50, tol=1e-5, rho=2.0)
        assert type(params.max_iter) is int and type(params.tol) is float


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
            objective = objective_trace(Y, 0.25, params)
            slack = params.tol * objective[0]
            assert np.all(np.diff(objective) <= slack)

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
        for lam in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="lam must be positive and finite"):
                outlier_pursuit(Y, lam=lam)
        Y[1, 2] = np.nan
        with pytest.raises(ValueError):
            outlier_pursuit(Y, lam=0.25)

    def test_zero_matrix(self):
        result = outlier_pursuit(np.zeros((4, 6), dtype=complex), lam=0.25)
        assert result.converged and result.iterations == 0
        assert not np.any(result.low_rank) and not np.any(result.outliers)

    def test_max_iter_reports_not_converged(self):
        rng = np.random.default_rng(5)
        Y, _, _ = planted_instance(rng)
        result = outlier_pursuit(Y, lam=0.25, params=RpcaParams(max_iter=2))
        assert not result.converged and result.iterations == 2

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

    @pytest.mark.parametrize("shape", [(29, 8), (19, 16), (64, 16), (1, 3)])
    def test_row_norms_match_numpy_bitwise(self, shape):
        rng = np.random.default_rng(len(shape) + shape[1])
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for view in (x, x.T.copy().T):
            assert _row_norms(view).tobytes() == \
                np.linalg.norm(view, axis=1).tobytes()


class TestLazyObjective:
    """The solve never computes its objective; the ``objective_trace``
    oracle replays the solve's ADMM steps when a test asks for it."""

    def test_objective_matches_direct_recomputation(self):
        # E_i is the outlier iterate after i steps: a solve capped at
        # max_iter = i returns it in the input's units, times the scale.
        rng = np.random.default_rng(16)
        Y, _, _ = planted_instance(rng, M=8, S=24, rank=1, n_outliers=2)
        lam = 0.25
        result = outlier_pursuit(Y, lam)
        objective = objective_trace(Y, lam, RpcaParams())
        assert objective.shape == (result.iterations + 1,)
        scale = np.linalg.norm(Y) / np.sqrt(Y.shape[1])
        Yn = Y / scale
        assert objective[0] == pytest.approx(
            np.linalg.svd(Yn, compute_uv=False).sum(), rel=1e-12)
        for i in range(1, result.iterations + 1):
            E = outlier_pursuit(Y, lam, RpcaParams(max_iter=i)).outliers / scale
            direct = (np.linalg.svd(Yn - E, compute_uv=False).sum()
                      + lam * np.linalg.norm(E, axis=0).sum())
            assert objective[i] == pytest.approx(direct, rel=1e-12, abs=1e-12)

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
        # reading it solves once (n steps), replays step i with a solve
        # capped at i steps, then takes one SVD per iterate
        objective_trace(Y, 0.25, RpcaParams())
        assert len(calls) == n + n + n * (n + 1) // 2 + (n + 1)


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


def unscreened_tuned(Y, lam, params=None):
    """Reference: the lambda-retune loop with every solve run, rank band
    [1, max(1, M // 2)], 5 retries and factor 1.5. Returns the last solve's
    result and lambda."""
    hi = max(1, Y.shape[0] // 2)
    result = outlier_pursuit(Y, lam, params)
    for _ in range(5):
        rank = numerical_rank(result.low_rank)
        if 1 <= rank <= hi:
            break
        lam = lam / 1.5 if rank > hi else lam * 1.5
        result = outlier_pursuit(Y, lam, params)
    return result, lam


@contextlib.contextmanager
def recorded_lambdas():
    """Yield the list of lambdas ``outlier_pursuit_tuned`` calls
    ``outlier_pursuit`` with inside the block, in call order."""
    calls, solve = [], rpca_mod.outlier_pursuit
    rpca_mod.outlier_pursuit = lambda *args: calls.append(args[1]) or solve(*args)
    try:
        yield calls
    finally:
        rpca_mod.outlier_pursuit = solve


def settled_lambda(Y, lam):
    """The lambda of the last solve the retune loop runs."""
    with recorded_lambdas() as calls:
        outlier_pursuit_tuned(Y, lam)
    return calls[-1]


def noise_matrix(seed, M=8, S=24):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((M, S)) + 1j * rng.standard_normal((M, S))


class TestRankZeroScreen:
    @pytest.mark.parametrize("seed", range(4))
    def test_solve_below_threshold_has_zero_low_rank(self, seed):
        rng = np.random.default_rng(30 + seed)
        planted, _, _ = planted_instance(rng, M=8, S=29, rank=1 + seed % 2)
        # at the former default tolerance, to which the 1e-4 bound on E - Y
        # was set
        params = RpcaParams(tol=1e-6)
        for Y in (noise_matrix(seed), noise_matrix(seed, M=16, S=19), planted):
            lam_zero = _rank_zero_lambda(Y)
            for lam in (lam_zero, 0.5 * lam_zero):
                result = outlier_pursuit(Y, lam, params)
                assert result.converged
                assert not np.any(result.low_rank)
                # E carries Y up to the stopping tolerance
                assert np.linalg.norm(result.outliers - Y) < 1e-4 * np.linalg.norm(Y)
            # the threshold is sharp: a little above it H = 0 is not optimal
            above = outlier_pursuit(Y, 1.05 * lam_zero, params)
            assert numerical_rank(above.low_rank) >= 1

    def test_threshold_of_special_inputs(self):
        assert _rank_zero_lambda(np.zeros((4, 6), dtype=complex)) == np.inf
        # orthonormal columns: ||Y~||_2 = 1 whatever the column norms
        Y = dft_matrix(8)[:, :5] * np.arange(1, 6)
        assert _rank_zero_lambda(Y) == pytest.approx(1.0 - 1e-3)

    @pytest.mark.parametrize("case,Y,lam,params,solves", [
        ("rank 0, then 1", planted_instance(np.random.default_rng(8), M=8,
                                            S=29, rank=1)[0], 0.05, None, 1),
        ("rank 0 throughout", noise_matrix(7), 0.05, None, 1),
        ("rank above the band", noise_matrix(7), 2.0, None, 5),
        # the next three oscillate between two lambdas; each is solved once
        ("above the band, then below the threshold", noise_matrix(7), 0.55, None, 2),
        ("rank 0 inside the margin is solved", noise_matrix(7), 0.58, None, 2),
        ("all-zero input", np.zeros((8, 29), dtype=complex), 0.25, None, 1),
        ("rank 0 inside the margin, former tolerance", noise_matrix(7), 0.58,
         RpcaParams(tol=1e-6), 2),
    ])
    def test_equals_unscreened_loop(self, case, Y, lam, params, solves):
        reference, reference_lam = unscreened_tuned(Y, lam, params)
        with recorded_lambdas() as calls:
            screened = outlier_pursuit_tuned(Y, lam, params)
        assert len(calls) == solves
        assert reference_lam == calls[-1]
        for name in ("low_rank", "outliers"):
            assert getattr(screened, name).tobytes() == \
                getattr(reference, name).tobytes()
        assert (screened.iterations, screened.converged) == \
            (reference.iterations, reference.converged)

    def test_bad_input_still_rejected(self):
        Y = noise_matrix(7)
        with pytest.raises(ValueError, match="positive"):
            outlier_pursuit_tuned(Y, lam=0.0)
        Y[1, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            outlier_pursuit_tuned(Y, lam=0.25)

    def test_every_edge_makes_a_real_solve(self):
        # every retry is screened, and the last allowed solve still runs
        with recorded_lambdas() as calls:
            result = outlier_pursuit_tuned(noise_matrix(7), 1e-3)
        assert len(calls) == 1 and result.iterations >= 1



def pipeline_observations(monkeypatch, seed):
    """The SRS observations the pipeline collects, by edge, in the one layout
    of a reduced-scale pp run (L=10, M=8, K=25, N=29, tau_p=5), as the
    ``reduced-pp`` benchmark runs it."""
    seen, collect = {}, experiment_mod.collect_srs

    def kept(schedule, layout, supports, pair, snr, rng):
        seen[pair] = collect(schedule, layout, supports, pair, snr, rng)
        return seen[pair]

    monkeypatch.setattr(experiment_mod, "collect_srs", kept)
    run_experiment(ExperimentConfig(L=10, M=8, K=25, tau_p=5, N=29, n_layouts=1,
                                    n_fading=1, seed=seed, kinds=("pp",)))
    return seen


def pipeline_observation(monkeypatch, seed, edge):
    """The SRS observation of :func:`pipeline_observations` at ``edge``."""
    return pipeline_observations(monkeypatch, seed)[edge]


class TestLambdaLadderMemo:
    def test_oscillating_ladder_solves_each_lambda_once(self, monkeypatch):
        # a benchmark edge whose ladder runs 0.25 -> 0.375 -> 0.5625 -> 0.375
        # -> 0.5625 -> 0.375: the rank-zero threshold lies between 0.375 and
        # 0.5625, and 0.5625 gives a rank above the band
        Y = pipeline_observation(monkeypatch, 1001, (0, 2))
        assert 0.375 < _rank_zero_lambda(Y) < 0.5625
        assert outlier_pursuit(Y, 0.5625).rank > 4
        reference, reference_lam = unscreened_tuned(Y, 0.25)
        with recorded_lambdas() as calls:
            tuned = outlier_pursuit_tuned(Y, 0.25)
        # 0.5625 is solved once, not twice; the last allowed step solves 0.375
        assert calls == [0.5625, 0.375] and reference_lam == 0.375
        for name in ("low_rank", "outliers", "singular_values", "left_vectors"):
            assert getattr(tuned, name).tobytes() == getattr(reference, name).tobytes()
        assert (tuned.iterations, tuned.converged) == \
            (reference.iterations, reference.converged)

def real_observation(K, N, seed=3, L=10, M=8):
    """The SRS observation, at the edge with the most collider incidences, of
    a reduced network (2 km side, delta = pi/8, Q = 10) with K UEs on N x N
    squares."""
    layout = generate_layout(L, K, 2000.0, seed=seed)
    snr = calibrate_snr(L, M, 2000.0)
    graph = form_clusters(layout.lsfc, snr, M, 10)
    supports = network_supports(layout, np.pi / 8, M)
    schedule = build_schedule(allocate_squares(layout, N), N, N)
    hits = {(l, k): sum(len(colliders(schedule, k, s)) for s in range(N))
            for l, k in sorted(graph.edges)}
    edge = max(hits, key=hits.get)
    assert hits[edge] > 0
    return collect_srs(schedule, layout, supports, edge, snr,
                       np.random.default_rng(seed))


def plain_admm(Yn, lam, params):
    """Reference: the ADMM loop of ``rpca._admm`` on X = Yn^H, the (S, M)
    slot-by-antenna matrix, with a fresh array for every operation, the
    over-relaxed E- and dual updates, the no-outlier certificate at step 1,
    the convergence test on the larger change and the settled stop on the
    list of every step's read-out (numerical rank, gap-selected rank).

    Returns (H, E, thresholded singular values, left singular vectors of H,
    iterations, converged, E iterates, penalty moves), with H, E and the
    iterates as (M, S) and the moves one '+' (doubled) or '-' (halved) per
    step that changed rho.
    """
    X = np.ascontiguousarray(Yn.conj().T)
    rho = params.rho
    H, E, U = X.copy(), np.zeros_like(X), np.zeros_like(X)
    converged, outliers, moves, readouts = False, [], "", []
    settled_steps, alpha = rpca_mod._SETTLED_STEPS, rpca_mod._RELAXATION
    for iterations in range(1, params.max_iter + 1):
        H_prev, E_prev = H, E
        W, s, Vh = np.linalg.svd(X - E + U, full_matrices=False)
        # the rows of W have norm at most 1 (up to rounding)
        if iterations == 1 and min(np.linalg.norm(W, axis=1).max(), 1.0) <= lam:
            E = np.zeros_like(X)
            return X.conj().T, E.conj().T, s, Vh.conj().T, 1, True, [E.conj().T], moves
        sv = np.maximum(s - 1.0 / rho, 0.0)
        H = (W * sv) @ Vh
        D = alpha * (X - H) + (1.0 - alpha) * E_prev
        G = D + U
        shrink = 1.0 - (lam / rho) / np.maximum(np.linalg.norm(G, axis=1), 1e-300)
        E = G * np.maximum(shrink, 0.0)[:, None]
        R = D - E
        U = U + R
        outliers.append(E.conj().T.copy())
        e_change = np.linalg.norm(E - E_prev)
        change = max(np.linalg.norm(H - H_prev), e_change)
        if change / max(1.0, np.linalg.norm(X)) < params.tol:
            converged = True
            break
        rank = int(np.sum(sv > 1e-6 * sv[0])) if sv[0] > 0 else 0
        readouts.append((rank, select_rank(sv, max(1, len(sv) // 2))))
        last = readouts[-settled_steps - 1:]
        if len(last) == settled_steps + 1 and len(set(last)) == 1 and \
                e_change / max(1.0, np.linalg.norm(X)) < \
                rpca_mod._SETTLED_FACTOR * params.tol:
            converged = True
            break
        r_norm, d_norm = np.linalg.norm(R), rho * e_change
        if r_norm > rpca_mod._RESIDUAL_RATIO * d_norm:
            rho, U, moves = rho * 2.0, U / 2.0, moves + "+"
        elif d_norm > rpca_mod._RESIDUAL_RATIO * r_norm:
            rho, U, moves = rho / 2.0, U * 2.0, moves + "-"
    return H.conj().T, E.conj().T, sv, Vh.conj().T, iterations, converged, outliers, moves


def collider_observations():
    """SRS observations of a crowded three-RU network, and of the K = 40,
    N = 7 reduced network, every one with colliders in some slots."""
    layout = generate_layout(3, 60, 800.0, seed=11)
    supports = network_supports(layout, np.pi / 3, 8)
    schedule = build_schedule(allocate_squares(layout, 5), 5, S=8)
    return [collect_srs(schedule, layout, supports, (l, k), 50.0,
                        np.random.default_rng(k))
            for l, k in [(0, 0), (1, 17), (2, 59)]] + [real_observation(40, 7)]


class TestFusedStep:
    """The solver reuses buffers inside each ADMM step; that must give the
    bits of the plain step, iterate by iterate."""

    def test_equals_plain_loop(self):
        rng = np.random.default_rng(60)
        planted = [planted_instance(rng)[0],
                   planted_instance(rng, M=8, S=29, rank=2)[0]]
        noise = [noise_matrix(3), noise_matrix(7), noise_matrix(8, M=16, S=19)]
        cases = [(Y, lam, RpcaParams()) for Y in planted + noise
                 + collider_observations() for lam in (0.05, 0.25, 0.58, 2.0)]
        cases += [(planted[0], 0.25, RpcaParams(rho=0.1, tol=1e-9)),
                  (noise[0], 0.25, RpcaParams(rho=20.0, max_iter=7))]
        moves = ""
        for Y, lam, params in cases:
            Yn = Y / (np.linalg.norm(Y) / np.sqrt(Y.shape[1]))
            H, E, sv, left, iterations, converged = rpca_mod._admm(Yn, lam, params)
            ref = plain_admm(Yn, lam, params)
            # step i's iterate is the outlier part of a solve capped at i steps
            steps = [rpca_mod._admm(Yn, lam, replace(params, max_iter=i))[1]
                     for i in range(1, iterations + 1)]
            for got, want in zip((H, E, sv, left), ref[:4]):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert H.shape == E.shape == Y.shape
            assert (iterations, converged) == ref[4:6]
            assert len(steps) == len(ref[6]) == iterations
            for got, want in zip(steps, ref[6]):
                assert got.shape == Y.shape
                assert got.tobytes() == want.tobytes()
            moves += ref[7]
        # the cases double and halve rho, so the rescaled duals are covered
        assert "+" in moves and "-" in moves


class TestSettledStop:
    """A solve also stops, as converged, once what the estimates read from
    it has settled: the numerical rank and the gap-selected rank of the
    step's singular values unchanged for 10 steps, with the E-change below
    10 tol."""

    def test_stops_at_first_settled_step(self, monkeypatch):
        observations = sorted(pipeline_observations(monkeypatch, 1001).items())
        params = RpcaParams()
        early = 0
        for _, Y in observations[:8]:
            Yn = Y / (np.linalg.norm(Y) / np.sqrt(Y.shape[1]))
            norm = max(1.0, np.linalg.norm(Yn))
            for lam in (0.25, settled_lambda(Y, 0.25)):
                *_, iterations, converged = rpca_mod._admm(Yn, lam, params)
                assert converged
                # replay: step i of the solve is the last step of one capped at i
                readouts, stop = [], None
                H_prev, E_prev = Yn, np.zeros_like(Yn)
                for i in range(1, iterations + 1):
                    H, E, sv, *_ = rpca_mod._admm(Yn, lam, RpcaParams(max_iter=i))
                    readouts.append((numerical_rank(H),
                                     select_rank(sv, max(1, len(sv) // 2))))
                    e_change = np.linalg.norm(E - E_prev) / norm
                    h_change = np.linalg.norm(H - H_prev) / norm
                    H_prev, E_prev = H, E
                    if max(e_change, h_change) < params.tol:
                        stop = i
                        break
                    if i > 10 and len(set(readouts[-11:])) == 1 and \
                            e_change < 10 * params.tol:
                        stop = i
                        early += 1
                        break
                assert stop == iterations
        # the settled stop ends several of these solves before the tol stop would
        assert early >= 4

    def test_unreachable_settled_stop_gives_former_results(self, monkeypatch):
        inputs = list(pipeline_observations(monkeypatch, 1001).values())[:12] + \
            collider_observations()
        cases = [(Y, lam) for Y in inputs for lam in (0.05, 0.25, 0.58, 2.0)]
        settled = [outlier_pursuit(Y, lam) for Y, lam in cases]
        monkeypatch.setattr(rpca_mod, "_SETTLED_STEPS", RpcaParams().max_iter + 1)
        got = [outlier_pursuit(Y, lam) for Y, lam in cases] + \
            [outlier_pursuit_tuned(Y, 0.25) for Y in inputs]
        monkeypatch.setattr(rpca_mod, "_admm", admm_stopping_on_tol)
        want = [outlier_pursuit(Y, lam) for Y, lam in cases] + \
            [outlier_pursuit_tuned(Y, 0.25) for Y in inputs]
        for a, b in zip(got, want, strict=True):
            for name in ("low_rank", "outliers", "singular_values", "left_vectors"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            assert (a.iterations, a.converged) == (b.iterations, b.converged)
        # the settled stop, where it can fire, ends some of these solves early
        assert any(s.iterations < a.iterations for s, a in zip(settled, got))


def max_leverage(Y):
    """The largest row norm of W in the SVD Y^H = W diag(s) Vh, the square
    root of the largest leverage score of Y's columns: the no-outlier
    certificate holds for every lambda at or above it."""
    return np.linalg.norm(np.linalg.svd(Y, full_matrices=False)[2], axis=0).max()


def certificate_inputs():
    rng = np.random.default_rng(90)
    return [noise_matrix(7), noise_matrix(8, M=16, S=19), noise_matrix(9, M=8, S=29),
            planted_instance(rng, M=8, S=29)[0], planted_instance(rng)[0]] + \
        collider_observations()


class TestNoOutlierCertificate:
    """At step 1 the solve factors X = Yn^H itself. When every row of its
    left factor W has norm <= lambda, W Vh is a subgradient of ||X||_* inside
    the lambda-ball of the row norms, so (H, E) = (Y, 0) is optimal and the
    solve returns it after that one step."""

    def test_fires_at_the_largest_leverage(self, monkeypatch):
        svds, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **kw: svds.append(1) or svd(*a, **kw))
        inputs = certificate_inputs()
        thresholds = [max_leverage(Y) for Y in inputs]
        for Y, threshold in zip(inputs, thresholds):
            for lam in (threshold * (1 + 1e-9), 1.0, 1e6):
                del svds[:]
                result = outlier_pursuit(Y, lam)
                assert len(svds) == 1
                assert (result.iterations, result.converged) == (1, True)
                assert not np.any(result.outliers)
                assert np.linalg.norm(result.low_rank - Y) <= 1e-12 * np.linalg.norm(Y)
                # the step's singular values, unthresholded, are those of Y
                assert result.singular_values == pytest.approx(
                    svd(Y, compute_uv=False), rel=1e-12)
                assert result.rank == numerical_rank(Y)
        # the inputs reach the certificate below lambda = 1 and at it
        assert min(thresholds) < 0.75 and max(thresholds) == pytest.approx(1.0)

    def test_is_tight_for_full_row_rank(self):
        # with Y of full row rank the subgradient W Vh is unique, so just
        # below the largest leverage (Y, 0) is not optimal
        tight = RpcaParams(tol=1e-10, max_iter=20000)
        cases = 0
        for Y in certificate_inputs():
            if np.linalg.matrix_rank(Y) < Y.shape[0]:
                continue
            result = outlier_pursuit(Y, 0.99 * max_leverage(Y), tight)
            assert result.converged and result.iterations > 1
            assert np.linalg.norm(result.outliers) > 1e-3 * np.linalg.norm(Y)
            cases += 1
        assert cases >= 5


class TestOverRelaxation:
    """The E- and dual updates read alpha (X - H) + (1 - alpha) E_prev with
    alpha = ``_RELAXATION``; at alpha = 1 the loop is the plain one. The
    relaxation moves the path, not the optimum, and takes fewer steps on
    the benchmark's observations."""

    @staticmethod
    def solves(observations, params):
        """Per observation and lambda (0.25 and the one the retune loop
        settles on), the solve at the solver's alpha and at alpha = 1."""
        pairs = []
        for Y in observations:
            for lam in (0.25, settled_lambda(Y, 0.25)):
                relaxed = outlier_pursuit(Y, lam, params)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(rpca_mod, "_RELAXATION", 1.0)
                    plain = outlier_pursuit(Y, lam, params)
                pairs.append((Y, relaxed, plain))
        return pairs

    def test_same_optimum_as_plain_loop(self, monkeypatch):
        observations = list(pipeline_observations(monkeypatch, 1001).values())
        for Y, relaxed, plain in self.solves(observations, RpcaParams(tol=1e-9)):
            assert relaxed.converged and plain.converged
            assert np.linalg.norm(relaxed.low_rank - plain.low_rank) <= \
                1e-6 * np.linalg.norm(Y)

    def test_fewer_steps_than_plain_loop(self, monkeypatch):
        observations = list(pipeline_observations(monkeypatch, 1001).values())
        pairs = self.solves(observations, RpcaParams())
        assert all(relaxed.converged for _, relaxed, _ in pairs)
        relaxed = np.mean([r.iterations for _, r, _ in pairs])
        plain = np.mean([p.iterations for _, _, p in pairs])
        assert relaxed <= 0.85 * plain


def accuracy_cases():
    """Planted instances at lambda = 0.25 and a K = 40, N = 7 collider
    observation at the lambda the retune loop settles on."""
    rng = np.random.default_rng(70)
    cases = [(planted_instance(rng, rank=r, n_outliers=n)[0], 0.25)
             for r, n in [(1, 3), (2, 5), (3, 4)]]
    Y = real_observation(40, 7)
    return cases + [(Y, settled_lambda(Y, 0.25))]


class TestSolutionAccuracy:
    """The balancing ratio moves the iterate path, not the answer: at the
    solver's ratio and at the former 10, a solve at the former default
    tolerance 1e-6 lands within a fixed distance of a solve run to a
    ten-thousand times tighter tolerance."""

    @pytest.mark.parametrize("ratio", [rpca_mod._RESIDUAL_RATIO, 10.0])
    def test_default_solve_near_tight_solve(self, monkeypatch, ratio):
        monkeypatch.setattr(rpca_mod, "_RESIDUAL_RATIO", ratio)
        tight = RpcaParams(tol=1e-10, max_iter=20000)
        for Y, lam in accuracy_cases():
            default = outlier_pursuit(Y, lam, RpcaParams(tol=1e-6))
            reference = outlier_pursuit(Y, lam, tight)
            assert default.converged and reference.converged
            assert default.rank >= 1
            distance = np.linalg.norm(default.low_rank - reference.low_rank)
            assert distance <= 1e-4 * np.linalg.norm(Y)

    def test_ratio_moves_the_path(self, monkeypatch):
        paths = []
        for ratio in (rpca_mod._RESIDUAL_RATIO, 10.0):
            monkeypatch.setattr(rpca_mod, "_RESIDUAL_RATIO", ratio)
            paths.append([outlier_pursuit(Y, lam).iterations
                          for Y, lam in accuracy_cases()])
        assert paths[0] != paths[1]


class TestDefaultTolerance:
    """The default tolerance stops the ADMM well before the iterate settles,
    but not before what the estimates read from it has: the rank and the
    DFT columns of the pp estimate."""

    def test_same_estimates_as_tight_solve(self):
        rng = np.random.default_rng(70)
        planted = [planted_instance(rng, rank=r, n_outliers=n)[0]
                   for r, n in [(1, 3), (2, 5), (3, 4)]]
        planted.append(planted_instance(rng, M=8, S=29, rank=2)[0])
        noise = [noise_matrix(7), noise_matrix(8, M=16, S=19),
                 noise_matrix(9, M=8, S=29)]
        tight = RpcaParams(tol=1e-10, max_iter=20000)
        ranks = set()
        for Y in planted + collider_observations() + noise:
            settled = settled_lambda(Y, 0.25)
            for lam in (0.05, 0.25, 0.58, 2.0, settled):
                default, reference = outlier_pursuit(Y, lam), \
                    outlier_pursuit(Y, lam, tight)
                assert default.converged and reference.converged
                assert default.rank == reference.rank
                pca, idx = subspace_estimates(default.left_vectors,
                                              default.singular_values)
                ref_pca, ref_idx = subspace_estimates(reference.left_vectors,
                                                      reference.singular_values)
                assert pca.rank == ref_pca.rank
                assert idx.tolist() == ref_idx.tolist()
                ranks.add(pca.rank)
        assert {1, 2, 3} <= ranks


class TestRankFromLastStep:
    def test_equals_numerical_rank_of_low_rank(self):
        rng = np.random.default_rng(80)
        planted = [planted_instance(rng, rank=r, n_outliers=n)[0]
                   for r, n in [(1, 3), (2, 5), (3, 4), (4, 6)]]
        inputs = planted + [noise_matrix(7), noise_matrix(8, M=16, S=19),
                            np.zeros((8, 29), dtype=complex)] + collider_observations()
        ranks = set()
        for Y in inputs:
            for lam in (0.05, 0.25, 0.35, 0.5625, 2.0, 1e6):
                for params in (RpcaParams(), RpcaParams(max_iter=1),
                               RpcaParams(max_iter=2)):
                    result = outlier_pursuit(Y, lam, params)
                    assert result.rank == numerical_rank(result.low_rank)
                    ranks.add(result.rank)
        assert {0, 1, 2, 3, 4} <= ranks

    @pytest.mark.parametrize("lam,params", [(2.0, None), (0.05, None), (0.58, None),
                                            (0.58, RpcaParams(tol=1e-6))])
    def test_tuned_loop_takes_no_extra_svd(self, monkeypatch, lam, params):
        # one SVD for the rank-zero screen and one per ADMM step: the rank
        # of each solve costs none
        svds, iterations = [], []
        svd, solve = np.linalg.svd, rpca_mod.outlier_pursuit

        def counted_solve(*args, **kwargs):
            result = solve(*args, **kwargs)
            iterations.append(result.iterations)
            return result

        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **kw: svds.append(1) or svd(*a, **kw))
        monkeypatch.setattr(rpca_mod, "outlier_pursuit", counted_solve)
        outlier_pursuit_tuned(noise_matrix(7), lam, params)
        assert len(svds) == 1 + sum(iterations)


def largest_angle_sine(basis_a, basis_b):
    """sin of the largest principal angle between two orthonormal bases of
    equal rank, accurate also for tiny angles (unlike an arccos of the
    cosines)."""
    return np.linalg.norm(basis_b - basis_a @ (basis_a.conj().T @ basis_b), 2)


class TestLeftVectorsFromLastStep:
    """``subspace_estimates`` takes the left singular vectors the last ADMM
    step factored instead of an SVD of ``low_rank``; both must give the same
    estimates."""

    def test_same_estimates_as_an_svd_of_low_rank(self):
        rng = np.random.default_rng(90)
        planted = [planted_instance(rng, rank=r, n_outliers=n)[0]
                   for r, n in [(1, 3), (2, 5), (3, 4)]]
        planted.append(planted_instance(rng, M=8, S=29, rank=2)[0])
        wide_and_tall = [noise_matrix(7), noise_matrix(8, M=16, S=19),
                         noise_matrix(9, M=16, S=8), noise_matrix(10, M=29, S=8),
                         planted_instance(rng, M=16, S=12, rank=2, n_outliers=2)[0]]
        inputs = planted + wide_and_tall + collider_observations() + \
            [np.zeros((8, 29), dtype=complex), np.zeros((16, 8), dtype=complex)]
        seen = set()
        for Y in inputs:
            M, S = Y.shape
            for lam in (0.05, 0.25, 0.58, 2.0):
                for params in (RpcaParams(), RpcaParams(max_iter=1),
                               RpcaParams(max_iter=2)):
                    result = outlier_pursuit(Y, lam, params)
                    left = result.left_vectors
                    assert left.shape == (M, min(M, S))
                    assert np.allclose(left.conj().T @ left, np.eye(min(M, S)),
                                       atol=1e-12)
                    pca, idx = subspace_estimates(left, result.singular_values)
                    W, sv, _ = np.linalg.svd(result.low_rank, full_matrices=False)
                    ref_pca, ref_idx = subspace_estimates(W, sv)
                    assert pca.rank == ref_pca.rank == len(idx)
                    assert idx.tolist() == ref_idx.tolist()
                    assert largest_angle_sine(pca.basis, ref_pca.basis) <= 1e-10
                    if result.rank == 0:
                        # the identity columns an SVD of a zero matrix gives
                        assert left.tobytes() == W.tobytes()
                    seen.add((result.rank > 0, S < M))
        # nonzero and zero low-rank parts, on wide and tall inputs
        assert seen == {(True, False), (False, False), (True, True), (False, True)}


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

    def test_equals_greedy_loop(self):
        def greedy(basis):
            # reference: pick the best remaining column once per rank
            M, r = basis.shape
            proj = basis.conj().T @ dft_matrix(M)
            scores = np.real(np.sum(np.abs(proj) ** 2, axis=0))
            chosen = []
            avail = np.ones(M, dtype=bool)
            for _ in range(r):
                pick = int(np.argmax(np.where(avail, scores, -np.inf)))
                chosen.append(pick)
                avail[pick] = False
            return np.array(sorted(chosen), dtype=int)

        rng = np.random.default_rng(14)
        bases = []
        for M in (4, 8, 16):
            for r in range(M + 1):
                # DFT columns: scores of 1 and 0 up to rounding
                cols = rng.choice(M, size=r, replace=False)
                bases.append(dft_columns(M, np.sort(cols)))
                bases.append(dft_columns(M, cols))
                q, _ = np.linalg.qr(rng.standard_normal((M, r))
                                    + 1j * rng.standard_normal((M, r)))
                bases.append(q)
                # e_0 gives every DFT column the same score, 1/M
                bases.append(np.eye(M, dtype=complex)[:, :r])
        bases.append(np.zeros((8, 3), dtype=complex))      # every score ties at 0
        for basis in bases:
            got, want = dft_project(basis), greedy(basis)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

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
        support = make_support([2, 7, 9])
        est = SubspaceEstimate(basis=dft_columns(16, [2, 7, 9]), rank=3)
        assert power_efficiency(support, est) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        support = make_support([2, 7])
        est = SubspaceEstimate(basis=dft_columns(16, [3, 8]), rank=2)
        assert power_efficiency(support, est) == pytest.approx(0.0, abs=1e-12)

    def test_half_right(self):
        # 2 correct + 2 wrong DFT columns against |S| = 4: PE = 2/4
        support = make_support([1, 4, 8, 12])
        est = SubspaceEstimate(basis=dft_columns(16, [1, 4, 2, 6]), rank=4)
        pe = power_efficiency(support, est)
        assert pe == pytest.approx(0.5)
        # cross-check against the covariance trace-ratio definition
        sigma = true_covariance(16, support, 2.5e-9)
        sigma_hat = estimated_covariance(est.basis, 2.5e-9)
        ratio = np.trace(sigma @ sigma_hat).real / np.trace(sigma @ sigma).real
        assert pe == pytest.approx(ratio, rel=1e-12)

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            size = int(rng.integers(1, 8))
            support = make_support(np.sort(rng.choice(8, size, replace=False)))
            r = int(rng.integers(1, 8))
            basis, _ = np.linalg.qr(rng.standard_normal((8, r))
                                    + 1j * rng.standard_normal((8, r)))
            pe = power_efficiency(support, SubspaceEstimate(basis, r))
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
        pca, idx = subspace_estimates(result.left_vectors, result.singular_values)
        assert pca.rank == 2
        assert idx.tolist() == support_idx
        support = make_support(support_idx)
        pp = SubspaceEstimate(basis=dft_columns(M, idx), rank=len(idx))
        assert power_efficiency(support, pp) == pytest.approx(1.0)
        assert power_efficiency(support, pca) == pytest.approx(1.0, abs=1e-6)

    def test_gap_search_restricted_to_half(self):
        # singular values with the largest gap beyond min(M, S)/2 must not win
        sv = np.array([10.0, 9.9, 9.8, 9.7, 1.0, 0.9, 0.8, 0.7])
        assert select_rank(sv, r_max=4) == 4
