"""Closed forms and brute-force checks the tests hold the package against.

The pipeline calls none of these: each is a reference for a quantity the
package computes another way (Monte-Carlo covariances, hopping collisions
and colliders, the rank read from the last ADMM step, the per-RU gain
tables, the per-UE clustering loop, the one-pair views of the support
table, the channel draws and the LMMSE directions, and the support grid,
DMRS assignment, LMMSE directions, uplink SINR and CSV rows as they were
computed before the package made them with fewer temporaries, the ADMM
loop as it ran before it had the settled stop, and the outlier-pursuit solve
and lambda ladder as they ran edge by edge before the edges stepped in
lockstep) or a builder of test inputs, or sets the solver's constants for
a block of solves.
"""

import contextlib
import csv
from pathlib import Path

import numpy as np
import pytest

import cfsubspace.rpca as rpca
from cfsubspace.channel import SupportTable, _support_table, dft_columns
from cfsubspace.dmrs import pilot_book
from cfsubspace.geometry import AssociationGraph
from cfsubspace.receiver import _lmmse_directions
from cfsubspace.rpca import RpcaResult, _admm, _col_norms, _fro, _gap_rank, _rank_of, \
    _row_norms


def make_support(indices):
    """An angular support: its DFT column indices as an int array."""
    return np.asarray(indices, dtype=int)


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


def local_lmmse(estimates: np.ndarray, snr: float, index: int) -> np.ndarray:
    """Unit-norm local LMMSE direction for one user at one RU.

    ``estimates`` holds the RU's channel estimates as rows (n_users, M); the
    direction is (I/snr + sum_j h_j h_j^H)^-1 h_index, normalized. A zero
    estimate yields the zero vector (the edge contributes nothing). This is
    one column of ``_lmmse_directions``.
    """
    return _lmmse_directions(np.asarray(estimates).T, snr)[:, index]


def from_supports(rows, M) -> SupportTable:
    """The table of per-pair supports of M antennas given as rows[l][k]."""
    flat = [s for row in rows for s in row]
    shape = (len(rows), len(flat) // len(rows))
    return SupportTable(indices=np.concatenate(flat).astype(int),
                        sizes=np.array([len(s) for s in flat]).reshape(shape),
                        num_antennas=M)


def pilot_rows(tau_p, snr, pilots) -> np.ndarray:
    """The (K, tau_p) conjugated pilot rows ``dmrs_field`` takes for the
    pilot indices ``pilots``, built as ``ergodic_rates`` builds them."""
    return pilot_book(tau_p, snr)[:, np.asarray(pilots, dtype=int)].conj().T


def per_ru_gain_tables(graph, edges, est, blocks, snr):
    """Reference for ``_gain_tables``: the same tables, one product pair per RU.

    Per RU l with users u, its rows of the known table get V_h @ est[l, :, :n]
    in the columns u and its rows of the true table V_h @ H_l^T, V_h being
    the conjugated local directions of its n = len(u) edges. The rows are
    made RU by RU, then put in the layout's table order.
    """
    K = blocks.shape[1]
    local = _lmmse_directions(est, snr).swapaxes(1, 2)[edges.filled]
    known = np.zeros((len(local), K), dtype=complex)
    true = np.empty((len(local), K), dtype=complex)
    start = 0
    for l, users in enumerate(graph.user_sets):
        stop = start + len(users)
        V_h = local[start:stop].conj()
        known[start:stop, users] = V_h @ est[l, :, :len(users)]
        true[start:stop] = V_h @ blocks[l].T
        start = stop
    row = np.zeros(edges.filled.shape, dtype=int)
    row[edges.sources] = np.arange(len(local))
    order = np.argsort(row[edges.filled])
    return (local.conj() * local).real.sum(axis=1)[order], known[order], true[order]


def support_table_by_temporaries(ru_positions, ue_positions, area_side, delta,
                                 M) -> SupportTable:
    """Reference for ``_support_table``: the same table, each pass over the
    (L, K, M) grid of angular distances making a fresh array."""
    disp = np.asarray(ue_positions, dtype=float)[None, :, :] \
        - np.asarray(ru_positions, dtype=float)[:, None, :]
    disp = (disp + area_side / 2.0) % area_side - area_side / 2.0
    theta = np.arctan2(disp[..., 1], disp[..., 0]) % (2.0 * np.pi)
    grid = 2.0 * np.pi * np.arange(M) / M
    dist = np.abs(np.mod(grid - theta[..., None] + np.pi, 2.0 * np.pi) - np.pi)
    inside = dist <= delta / 2.0 + 1e-12
    padded = ~inside.any(axis=2)
    inside[padded, np.argmin(dist[padded], axis=1)] = True
    return SupportTable(indices=np.nonzero(inside)[2], sizes=inside.sum(axis=2),
                        num_antennas=M)


def dmrs_pilots_per_ue(graph, lsfc, tau_p) -> np.ndarray:
    """Reference for ``assign_dmrs``: the same pilots, each UE's worst
    co-pilot gain per pilot recomputed from every UE assigned before it."""
    L, K = lsfc.shape
    member = np.zeros((L, K), dtype=bool)
    for l, users in enumerate(graph.user_sets):
        member[l, users] = True
    order = np.argsort(-lsfc.max(axis=0), kind="stable")
    pilots = np.full(K, -1, dtype=int)
    load = np.zeros(tau_p, dtype=int)
    for k in order:
        rus = graph.clusters[k]
        worst = np.zeros(tau_p)
        if len(rus) > 0:
            seen = (lsfc[rus] * member[rus]).max(axis=0)
            done = pilots >= 0
            np.maximum.at(worst, pilots[done], seen[done])
        t_k = np.lexsort((np.arange(tau_p), load, worst))[0]
        pilots[k] = t_k
        load[t_k] += 1
    return pilots


def _cell(value) -> str:
    return "" if value is None else str(float(value))


def write_csv_rows_one_by_one(result, out_dir) -> None:
    """Reference for the CSV files of ``write_results``: rates.csv,
    subspace.csv and every CDF file, written one ``writerow`` per row."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def write_cdf(name, values):
        values = np.sort(np.asarray(values, dtype=float))
        with open(out_dir / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["value", "cdf"])
            n = len(values)
            for i, v in enumerate(values):
                writer.writerow([_cell(v), _cell((i + 1) / n)])

    with open(out_dir / "rates.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layout", "ue", "kind", "rate", "se"])
        for r in result.rate_records:
            writer.writerow([r.layout, r.ue, r.kind, _cell(r.rate), _cell(r.se)])
    with open(out_dir / "subspace.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layout", "ru", "ue", "pe_raw", "pe_pp", "rank",
                         "converged", "iterations"])
        for e in result.edge_records:
            writer.writerow([e.layout, e.ru, e.ue, _cell(e.pe_raw), _cell(e.pe_pp),
                             e.rank, int(e.converged), e.iterations])
    kinds = []
    for r in result.rate_records:
        if r.kind not in kinds:
            kinds.append(r.kind)
    for kind in kinds:
        write_cdf(f"cdf_se_{kind}.csv", [r.se for r in result.rate_records
                                          if r.kind == kind and r.se is not None])
    if result.edge_records:
        write_cdf("cdf_pe_raw.csv", [e.pe_raw for e in result.edge_records])
        write_cdf("cdf_pe_pp.csv", [e.pe_pp for e in result.edge_records])


def lmmse_directions_by_temporaries(estimates, snr) -> np.ndarray:
    """Reference for ``_lmmse_directions``: the same directions, each step
    of the normalization making a fresh array."""
    M = estimates.shape[-2]
    A = np.eye(M) / snr + estimates @ estimates.conj().swapaxes(-1, -2)
    V = np.linalg.solve(A, estimates)
    norms = np.sqrt(np.sum((V.conj() * V).real, axis=-2, keepdims=True))
    return V / np.where(norms > 0, norms, 1.0)


def uplink_sinr_by_temporaries(vector, channel_matrix, snr, k) -> float:
    """Reference for ``uplink_sinr``: the same SINR through ``** 2`` and
    ``ndarray.sum``."""
    g = vector.conj() @ channel_matrix
    power = np.abs(g) ** 2
    signal = power[k]
    return float(signal / (1.0 / snr + (power.sum() - signal)))


def per_ue_clusters(lsfc, snr, M, Q, eta=1.0) -> AssociationGraph:
    """Reference for ``form_clusters``: the same graph, one UE at a time.

    Per UE, its RUs by decreasing LSFC (a stable sort, so ties keep the
    lower RU first), of which it keeps the first Q at or above the
    threshold eta / (M * snr).
    """
    L, K = lsfc.shape
    threshold = eta / (M * snr)
    clusters = []
    edges = set()
    user_sets = [[] for _ in range(L)]
    for k in range(K):
        order = np.argsort(-lsfc[:, k], kind="stable")
        admissible = order[lsfc[order, k] >= threshold]
        chosen = admissible[:Q]
        clusters.append(np.array(chosen, dtype=int))
        for l in chosen:
            edges.add((int(l), k))
            user_sets[int(l)].append(k)
    user_sets = [np.array(sorted(u), dtype=int) for u in user_sets]
    return AssociationGraph(edges=edges, clusters=clusters, user_sets=user_sets)


def true_covariance(M, support, beta: float) -> np.ndarray:
    """Exact channel covariance (beta*M/|S|) F_S F_S^H; trace = beta*M."""
    Fs = dft_columns(M, support)
    return beta * M / len(support) * (Fs @ Fs.conj().T)


def contamination_covariance(basis_k: np.ndarray, copilots) -> np.ndarray:
    """Covariance of the co-pilot contamination after subspace projection.

    ``copilots`` is a sequence of (basis_i, beta_i) for the co-pilot users;
    with P = B_k B_k^H the result is sum_i (beta_i*M/r_i) P B_i B_i^H P.
    Vanishes when every cross-Gramian B_k^H B_i is zero.
    """
    M = basis_k.shape[0]
    P = basis_k @ basis_k.conj().T
    sigma = np.zeros((M, M), dtype=complex)
    for basis_i, beta_i in copilots:
        r_i = basis_i.shape[1]
        PB = P @ basis_i
        sigma += beta_i * M / r_i * (PB @ PB.conj().T)
    return sigma


def estimated_covariance(basis: np.ndarray, beta: float) -> np.ndarray:
    """Estimated channel covariance (beta*M/r) B B^H for an orthonormal basis."""
    M, r = basis.shape
    return beta * M / r * (basis @ basis.conj().T)


def is_latin(square: np.ndarray) -> bool:
    """Every row and every column of an (N, N) square is a permutation of 1..N."""
    want = set(range(1, len(square) + 1))
    return all(set(row) == want for row in square) and \
        all(set(col) == want for col in square.T)


def are_orthogonal(a: np.ndarray, b: np.ndarray) -> bool:
    """All N^2 elementwise pairs (a_ij, b_ij) of two (N, N) squares are distinct."""
    pairs = {(int(x), int(y)) for x, y in zip(a.ravel(), b.ravel())}
    return len(pairs) == len(a) ** 2


def colliders(schedule, k: int, s: int) -> np.ndarray:
    """UEs other than k sharing UE k's subcarrier in slot s."""
    hits = np.nonzero(schedule.subcarriers[:, s] == schedule.subcarriers[k, s])[0]
    return hits[hits != k]


def collision_slots(schedule, i: int, k: int) -> np.ndarray:
    """Slots where UEs i and k transmit on the same subcarrier."""
    return np.nonzero(schedule.subcarriers[i] == schedule.subcarriers[k])[0]


def check_collision_law(assignment, N: int, subcarriers: np.ndarray, case: str):
    """Assert the collision law on the (K, S) subcarriers of a schedule built
    from ``assignment`` on N squares: UEs on one square with distinct symbols
    never share a subcarrier, UEs on distinct squares share one slot in every
    N consecutive ones (at most one over the whole schedule when S < N), and
    equal pairs share every slot. ``case`` names the schedule in a failure.

    Returns the (K, K) masks of the pairs on one square with distinct
    symbols, on distinct squares, and equal.
    """
    square, symbol = assignment.square_id, assignment.symbol_id
    K, S = subcarriers.shape
    same_square = square[:, None] == square[None, :]
    same_symbol = symbol[:, None] == symbol[None, :]
    one_square = same_square & ~same_symbol
    equal = same_square & same_symbol & ~np.eye(K, dtype=bool)
    hits = (subcarriers[:, None, :] == subcarriers[None, :, :]).astype(int)
    assert np.all(hits[one_square] == 0), case
    assert np.all(hits[equal] == 1), case
    # shared slots per window of N consecutive slots; the whole schedule
    # when S < N, which holds at most one
    run = np.concatenate([np.zeros((K, K, 1), dtype=int), hits.cumsum(axis=2)],
                         axis=2)
    width = min(N, S)
    cross = (run[..., width:] - run[..., :-width])[~same_square]
    assert np.all(cross == 1 if S >= N else cross <= 1), case
    return one_square, ~same_square, equal


def numerical_rank(matrix: np.ndarray) -> int:
    return _rank_of(np.linalg.svd(matrix, compute_uv=False))


@contextlib.contextmanager
def solver_constants(tol=None, max_iter=None, rho=None):
    """Run the block with the solver's stop tolerance, step cap and initial
    penalty set to those given (``rpca._TOL``, ``_MAX_ITER``, ``_RHO``); the
    others keep their values. Every solve inside reads them, the references
    here included."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in (("_TOL", tol), ("_MAX_ITER", max_iter), ("_RHO", rho)):
            if value is not None:
                patch.setattr(rpca, name, value)
        yield


def objective_trace(Y: np.ndarray, lam: float) -> np.ndarray:
    """objective[i] = ||Yn - E_i||_* + lambda*||E_i||_{2,1}, i = 0..iterations.

    The exact objective of the feasible pair (Yn - E_i, E_i) on the problem
    ``outlier_pursuit`` solves, Y normalized by its RMS column norm, with
    E_0 = 0 and E_i the outlier iterate after i ADMM steps. The solve runs
    once for its step count n; E_i is then the outlier part of a solve capped
    at ``_MAX_ITER`` = i, which stops after step i of the same deterministic
    loop.
    """
    Yn = Y / (_fro(Y) / np.sqrt(Y.shape[1]))
    n = admm_one(Yn, lam)[4]
    outliers = [np.zeros_like(Yn)]
    for i in range(1, n + 1):
        with solver_constants(max_iter=i):
            outliers.append(admm_one(Yn, lam)[1])
    return np.array([np.linalg.svd(Yn - E, compute_uv=False).sum()
                     + lam * _col_norms(E).sum() for E in outliers])


def admm_stopping_on_tol(Yn: np.ndarray, lam: float):
    """``rpca._admm`` as it was before the settled stop: the same over-relaxed
    steps and no-outlier certificate, stopping only when both the E- and the
    H-change fall below ``_TOL`` (or at ``_MAX_ITER``)."""
    rho = rpca._RHO
    X = np.conj(Yn.T, order="C")
    H = X
    E = np.zeros_like(X)
    U = np.zeros_like(X)
    converged = False
    norm = max(1.0, _fro(X))
    for iterations in range(1, rpca._MAX_ITER + 1):
        H_prev, E_prev = H, E
        W, sv, Vh = np.linalg.svd(X - E + U, full_matrices=False)
        if iterations == 1 and (lam >= 1.0 or _row_norms(W).max() <= lam):
            E = np.zeros_like(X)
            return X.conj().T, E.conj().T, sv, Vh.conj().T, 1, True
        sv -= 1.0 / rho
        np.maximum(sv, 0.0, out=sv)
        W *= sv
        H = W @ Vh
        D = X - H
        D *= rpca._RELAXATION
        D += (1.0 - rpca._RELAXATION) * E_prev
        G = D + U
        row = _row_norms(G)
        np.maximum(row, 1e-300, out=row)
        np.divide(lam / rho, row, out=row)
        np.subtract(1.0, row, out=row)
        np.maximum(row, 0.0, out=row)
        E = np.multiply(G, row[:, None], out=G)
        R = np.subtract(D, E, out=D)
        U += R
        e_change = _fro(E - E_prev)
        if e_change / norm < rpca._TOL and \
                _fro(H - H_prev) / norm < rpca._TOL:
            converged = True
            break
        r_norm = _fro(R)
        d_norm = rho * e_change
        if r_norm > rpca._RESIDUAL_RATIO * d_norm:
            rho *= 2.0
            U /= 2.0
        elif d_norm > rpca._RESIDUAL_RATIO * r_norm:
            rho /= 2.0
            U *= 2.0
    return H.conj().T, E.conj().T, sv, Vh.conj().T, iterations, converged


def reference_outlier_pursuit(Y: np.ndarray, lam: float) -> RpcaResult:
    """``rpca.outlier_pursuit`` as it was solved edge by edge, before the
    edges of a layout stepped through ADMM in lockstep: the reference the
    stacked solver must match bit for bit."""
    if not 0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y contains non-finite entries")
    M, S = Y.shape
    scale = _fro(Y) / np.sqrt(S)
    if scale == 0:
        return RpcaResult(np.zeros_like(Y), np.zeros_like(Y), 0, True,
                          np.zeros(min(M, S)), np.eye(M, min(M, S), dtype=Y.dtype))
    H, E, sv, left, iterations, converged = reference_admm(Y / scale, lam)
    sv = sv * scale
    if sv[0] == 0:
        # H = 0: the last step's vectors belong to Yn - E + U, not to H;
        # take the identity columns an SVD of a zero matrix returns
        left = np.eye(M, len(sv), dtype=H.dtype)
    return RpcaResult(low_rank=H * scale, outliers=E * scale, iterations=iterations,
                      converged=converged, singular_values=sv, left_vectors=left)


def reference_admm(Yn: np.ndarray, lam: float):
    """``rpca._admm`` on one normalized problem, as it was before the stacked
    solver: the same steps, certificate and stops, one SVD per step of this
    problem alone. Returns (H, E, sv, left, iterations, converged)."""
    rho = rpca._RHO
    X = np.conj(Yn.T, order="C")
    H = X
    E = np.zeros_like(X)
    U = np.zeros_like(X)
    converged = False
    norm = max(1.0, _fro(X))
    r_max = max(1, min(X.shape) // 2)           # as in subspace_estimates
    settle_tol = rpca._SETTLED_FACTOR * rpca._TOL
    readout, settled = None, 0
    for iterations in range(1, rpca._MAX_ITER + 1):
        H_prev, E_prev = H, E
        W, sv, Vh = np.linalg.svd(X - E + U, full_matrices=False)
        if iterations == 1 and (lam >= 1.0 or _row_norms(W).max() <= lam):
            # the no-outlier certificate (rpca._admm); the rows of W have norm
            # <= 1, also where rounding puts one a few ulp above
            E = np.zeros_like(X)
            return X.conj().T, E.conj().T, sv, Vh.conj().T, 1, True
        sv -= 1.0 / rho
        np.maximum(sv, 0.0, out=sv)
        W *= sv
        H = W @ Vh
        D = X - H
        D *= rpca._RELAXATION
        D += (1.0 - rpca._RELAXATION) * E_prev
        G = D + U
        row = _row_norms(G)
        np.maximum(row, 1e-300, out=row)
        np.divide(lam / rho, row, out=row)
        np.subtract(1.0, row, out=row)
        np.maximum(row, 0.0, out=row)
        E = np.multiply(G, row[:, None], out=G)
        R = np.subtract(D, E, out=D)
        U += R
        e_change = _fro(E - E_prev)
        if e_change / norm < rpca._TOL and \
                _fro(H - H_prev) / norm < rpca._TOL:
            converged = True
            break
        previous, readout = readout, (_rank_of(sv), _gap_rank(sv, r_max))
        settled = settled + 1 if readout == previous else 0
        if settled >= rpca._SETTLED_STEPS and e_change / norm < settle_tol:
            converged = True
            break
        r_norm = _fro(R)
        d_norm = rho * e_change
        if r_norm > rpca._RESIDUAL_RATIO * d_norm:
            rho *= 2.0
            U /= 2.0
        elif d_norm > rpca._RESIDUAL_RATIO * r_norm:
            rho /= 2.0
            U *= 2.0
    return H.conj().T, E.conj().T, sv, Vh.conj().T, iterations, converged


def reference_rank_zero_lambda(Y: np.ndarray) -> float:
    """``rpca._rank_zero_lambda`` of one observation, as the per-edge ladder
    computed it: (1 - margin) / ||Y~||_2, or inf when Y is zero."""
    norms = _col_norms(Y)
    unit = Y / np.where(norms > 0, norms, 1.0)
    sigma = np.linalg.svd(unit, compute_uv=False)[0]
    return (1.0 - rpca._RANK_ZERO_MARGIN) / sigma if sigma > 0 else np.inf


def reference_tuned(Y: np.ndarray, lam: float) -> RpcaResult:
    """``rpca.outlier_pursuit_tuned`` as it ran edge by edge: the rank-zero
    screen and lambda ladder of one edge, each solve a
    :func:`reference_outlier_pursuit` call."""
    hi = max(1, Y.shape[0] // 2)
    lam_zero = reference_rank_zero_lambda(Y) if np.all(np.isfinite(Y)) else 0.0
    solved = {}
    for attempt in range(rpca._MAX_RETRIES + 1):
        last = attempt == rpca._MAX_RETRIES
        if lam <= lam_zero and not last:
            lam = lam * rpca._RETUNE_FACTOR  # rank zero without solving
            continue
        if lam not in solved:
            solved[lam] = reference_outlier_pursuit(Y, lam)
        result = solved[lam]
        if last:
            break
        rank = result.rank
        if 1 <= rank <= hi:
            break
        lam = lam / rpca._RETUNE_FACTOR if rank > hi else lam * rpca._RETUNE_FACTOR
    return result


def admm_one(Yn: np.ndarray, lam: float):
    """``rpca._admm`` on one normalized problem, a stack of one: (H, E, sv,
    left, iterations, converged) of that problem."""
    H, E, sv, left, iterations, converged, _ = _admm(Yn[None], np.array([lam]))
    return H[0], E[0], sv[0], left[0], int(iterations[0]), bool(converged[0])


def stacked(admm):
    """A one-problem ADMM loop ``admm(Yn, lam)`` run problem by
    problem in ``rpca._admm``'s stacked signature. It reports no certificate
    of its own, so a one-step converged solve counts as the certificate's."""
    def run(Yn, lam):
        solves = [admm(y, value) for y, value in zip(Yn, lam)]
        H, E, sv, left, iterations, converged = (np.array(part) for part in zip(*solves))
        return H, E, sv, left, iterations, converged, (iterations == 1) & converged
    return run
