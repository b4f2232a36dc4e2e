"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The reduced-scale statistical experiments (criteria 6 and 7) use
pinned seeds and run in a few minutes total.
"""

import filecmp

import numpy as np
import pytest

from cfsubspace.channel import dft_columns, dft_matrix
from cfsubspace.experiment import ExperimentConfig, run_experiment, write_results
from cfsubspace.hopping import build_schedule, mols_family
from cfsubspace.rpca import RpcaParams, outlier_pursuit
from oracles import (are_orthogonal, contamination_covariance, is_latin, local_lmmse,
                     make_support, objective_trace, sample_channel, true_covariance)

REFERENCE_A = np.array([[1, 2, 3, 4, 5],
                        [2, 3, 4, 5, 1],
                        [3, 4, 5, 1, 2],
                        [4, 5, 1, 2, 3],
                        [5, 1, 2, 3, 4]])
REFERENCE_B = np.array([[1, 2, 3, 4, 5],
                        [3, 4, 5, 1, 2],
                        [5, 1, 2, 3, 4],
                        [2, 3, 4, 5, 1],
                        [4, 5, 1, 2, 3]])


def _passed(n, message):
    print(f"[criterion {n:2d}] PASS: {message}")


def reduced_config(**overrides):
    base = dict(L=10, M=8, K=25, tau_p=5, N=29, lam=0.25, Q=10, eta=1.0,
                T=200, n_layouts=5, n_fading=1, seed=3, kinds=("pp",))
    base.update(overrides)
    return ExperimentConfig(**base)


def test_criterion_01_mols_exactness():
    for N in (2, 3, 5, 19):
        family = mols_family(N)
        assert len(family) == N - 1
        for sq in family:
            assert is_latin(sq)
        for i in range(len(family)):
            for j in range(i + 1, len(family)):
                assert are_orthogonal(family[i], family[j])
    assert is_latin(REFERENCE_A)
    assert is_latin(REFERENCE_B)
    assert are_orthogonal(REFERENCE_A, REFERENCE_B)
    _passed(1, "MOLS families exact for N in {2,3,5,19}; reference pair orthogonal")


def test_criterion_02_collision_law():
    N = 19

    class _All:
        square_id = np.repeat(np.arange(N - 1), N)
        symbol_id = np.tile(np.arange(1, N + 1), N - 1)

    sched = build_schedule(_All(), N, S=N)
    sub = sched.subcarriers  # ((N-1)*N, N)
    n_seq = sub.shape[0]
    counts = (sub[:, None, :] == sub[None, :, :]).sum(axis=2)
    sq = _All.square_id
    same_square = sq[:, None] == sq[None, :]
    off_diag = ~np.eye(n_seq, dtype=bool)
    assert np.all(counts[same_square & off_diag] == 0)
    assert np.all(counts[~same_square] == 1)
    _passed(2, "N=19 hopping: cross-square pairs collide exactly once per period, "
               "same-square pairs never")


def test_criterion_03_channel_statistics():
    for M in (8, 16, 64):
        F = dft_matrix(M)
        assert np.max(np.abs(F.conj().T @ F - np.eye(M))) < 1e-12
    M, beta, n = 16, 2.6e-9, 100000
    support = make_support([2, 3, 4])
    rng = np.random.default_rng(30)
    r = support.size
    scaled = np.sqrt(beta * M / r) * dft_columns(M, support)
    nu = (rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))) / np.sqrt(2)
    H = scaled @ nu
    emp = H @ H.conj().T / n
    target = true_covariance(M, support, beta)
    rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
    assert rel < 0.02
    _passed(3, f"1e5-draw covariance matches (beta*M/|S|) F F^H "
               f"(rel Frobenius {rel:.4f} < 0.02); DFT unitary to 1e-12")


def test_criterion_04_contamination_covariance():
    M = 16
    desired = make_support([1, 2, 3])
    basis_k = dft_columns(M, desired)
    P = basis_k @ basis_k.conj().T
    copilot_supports = [make_support([2, 3, 4]), make_support([0, 15])]
    betas = [2.0e-9, 0.7e-9]
    target = contamination_covariance(
        basis_k, [(dft_columns(M, s), b)
                  for s, b in zip(copilot_supports, betas)])
    rng = np.random.default_rng(40)
    n = 100000
    draws = np.zeros((M, n), dtype=complex)
    for s, b in zip(copilot_supports, betas):
        r = s.size
        scaled = np.sqrt(b * M / r) * dft_columns(M, s)
        nu = (rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))) / np.sqrt(2)
        draws += scaled @ nu
    proj = P @ draws
    emp = proj @ proj.conj().T / n
    rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
    assert rel < 0.05
    # disjoint supports: exact zero, both analytically and per draw
    disjoint = contamination_covariance(
        basis_k, [(dft_columns(M, [5, 6]), 1.0e-9), (dft_columns(M, [9]), 3.0e-9)])
    assert np.max(np.abs(disjoint)) < 1e-10
    h = sample_channel(M, make_support([5, 6]), 1.0e-9, rng)
    assert np.linalg.norm(P @ h) < 1e-10 * np.linalg.norm(h)
    _passed(4, f"projected-contamination covariance matches analytic form "
               f"(rel {rel:.4f} < 0.05); disjoint case zero to 1e-10")


def test_criterion_05_outlier_pursuit_recovery():
    rng = np.random.default_rng(50)
    M, S, rank = 16, 64, 2
    out_idx = np.sort(rng.choice(S, size=3, replace=False))
    basis, _ = np.linalg.qr(rng.standard_normal((M, rank))
                            + 1j * rng.standard_normal((M, rank)))
    coeff = np.exp(2j * np.pi * rng.random((rank, S))) / np.sqrt(rank)
    Y = basis @ coeff
    for j in out_idx:
        v = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        Y[:, j] = v / np.linalg.norm(v) * 5.0
    params = RpcaParams()
    result = outlier_pursuit(Y, lam=0.25, params=params)
    assert result.converged
    col_norms = np.linalg.norm(result.outliers, axis=0)
    found = np.nonzero(col_norms > 1e-3 * np.linalg.norm(Y) / np.sqrt(S))[0]
    assert np.array_equal(found, out_idx)
    W, _, _ = np.linalg.svd(result.low_rank, full_matrices=False)
    angles = np.arccos(np.clip(np.linalg.svd(W[:, :rank].conj().T @ basis,
                                             compute_uv=False), 0, 1))
    assert angles.max() < 1e-2
    objective = objective_trace(Y, 0.25, params)
    increases = np.diff(objective)
    assert np.all(increases <= params.tol * objective[0])
    _passed(5, f"planted outliers {out_idx.tolist()} exactly identified; "
               f"max principal angle {angles.max():.2e} < 1e-2; "
               f"objective non-increasing within tol")


def test_criterion_06_power_efficiency_ordering():
    means = {}
    for N in (29, 5):
        result = run_experiment(reduced_config(N=N))
        means[N] = float(np.mean([e.pe_pp for e in result.edge_records]))
    assert means[29] >= 0.85
    assert means[29] - means[5] >= 0.05
    _passed(6, f"mean projected power efficiency {means[29]:.4f} >= 0.85 at N=29 "
               f"(collision-free) vs {means[5]:.4f} at N=5 (gap "
               f"{means[29] - means[5]:.4f} >= 0.05)")


def test_criterion_07_rate_ordering():
    cfg = reduced_config(kinds=("ideal", "sp", "pp", "pm"), n_fading=50)
    result = run_experiment(cfg)
    med = {}
    for kind in cfg.kinds:
        vals = [r.se for r in result.rate_records
                if r.kind == kind and r.se is not None]
        med[kind] = float(np.median(vals))
    assert med["ideal"] >= med["sp"]
    assert med["sp"] >= med["pp"]
    assert med["pp"] >= 0.85 * med["sp"]
    assert med["pm"] <= 0.9 * med["sp"]
    _passed(7, "median SE ordering ideal {ideal:.3f} >= sp {sp:.3f} >= "
               "pp {pp:.3f} >= 0.85*sp; pm {pm:.3f} <= 0.9*sp".format(**med))


def test_criterion_08_se_bookkeeping():
    cfg = reduced_config(L=4, K=8, tau_p=15, N=5, n_layouts=2, n_fading=2,
                         kinds=("ideal", "pm"))
    result = run_experiment(cfg)
    factor = 1 - 15 / 200
    assert factor == 0.925
    checked = 0
    for rec in result.rate_records:
        if rec.rate is None:
            continue
        assert rec.se == rec.rate * 0.925  # same multiplication, bit-exact
        if rec.rate != 0:
            assert abs(rec.se / rec.rate - 0.925) <= 3e-16
        checked += 1
    assert checked > 0
    _passed(8, f"SE/rate ratio is exactly 0.925 for all {checked} records "
               f"(tau_p=15, T=200)")


def test_criterion_09_determinism(tmp_path):
    cfg = reduced_config(L=4, K=6, N=5, n_layouts=2, n_fading=3,
                         kinds=("ideal", "sp", "pp", "pm"))
    files = ["rates.csv", "subspace.csv", "summary.json", "cdf_pe_raw.csv",
             "cdf_pe_pp.csv"] + [f"cdf_se_{k}.csv" for k in cfg.kinds]
    dirs = []
    for run in ("a", "b"):
        out = tmp_path / run
        write_results(run_experiment(cfg), out, cfg)
        dirs.append(out)
    for name in files:
        assert filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False), name
    _passed(9, f"two identically seeded runs produced byte-identical outputs "
               f"({len(files)} files)")


def test_criterion_10_lmmse_spot_check():
    rng = np.random.default_rng(100)
    M, n_users, snr = 8, 4, 10.0
    worst_gap = -np.inf
    for _ in range(100):
        est = rng.standard_normal((n_users, M)) + 1j * rng.standard_normal((n_users, M))
        v = local_lmmse(est, snr, 0)

        def nominal(vec):
            num = np.abs(vec.conj() @ est[0]) ** 2
            den = np.linalg.norm(vec) ** 2 / snr
            den += sum(np.abs(vec.conj() @ est[j]) ** 2 for j in range(1, n_users))
            return num / den

        best = nominal(v)
        cand = rng.standard_normal((1000, M)) + 1j * rng.standard_normal((1000, M))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        num = np.abs(cand.conj() @ est[0]) ** 2
        den = 1.0 / snr + sum(np.abs(cand.conj() @ est[j]) ** 2
                              for j in range(1, n_users))
        gap = np.max(num / den) - best
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-9
    _passed(10, f"LMMSE direction never beaten by random search "
                f"(worst margin {worst_gap:.2e} <= 1e-9 over 100x1000 trials)")
