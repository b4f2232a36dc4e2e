"""Closed forms and brute-force checks the tests hold the package against.

The pipeline calls none of these: each is a reference for a quantity the
package computes another way (Monte-Carlo covariances, hopping collisions,
the rank read from the last ADMM step, the per-RU gain tables, the per-UE
clustering loop) or a builder of test inputs.
"""

import numpy as np

from cfsubspace.channel import SupportTable, dft_columns
from cfsubspace.dmrs import pilot_book
from cfsubspace.geometry import AssociationGraph
from cfsubspace.receiver import _lmmse_directions
from cfsubspace.rpca import _admm, _col_norms, _fro, _rank_of


def make_support(indices):
    """An angular support: its DFT column indices as an int array."""
    return np.asarray(indices, dtype=int)


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
    the conjugated local directions of its n = len(u) edges.
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
    return (local.conj() * local).real.sum(axis=1), known, true


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


def collision_slots(schedule, i: int, k: int) -> np.ndarray:
    """Slots where UEs i and k transmit on the same subcarrier."""
    return np.nonzero(schedule.subcarriers[i] == schedule.subcarriers[k])[0]


def numerical_rank(matrix: np.ndarray, rel_tol: float = 1e-6) -> int:
    return _rank_of(np.linalg.svd(matrix, compute_uv=False), rel_tol)


def objective_trace(Y: np.ndarray, lam: float, params) -> np.ndarray:
    """objective[i] = ||Yn - E_i||_* + lambda*||E_i||_{2,1}, i = 0..iterations.

    The exact objective of the feasible pair (Yn - E_i, E_i) on the problem
    ``outlier_pursuit`` solves, Y normalized by its RMS column norm, with
    E_0 = 0 and E_i the outlier iterate after i ADMM steps.
    """
    Yn = Y / (_fro(Y) / np.sqrt(Y.shape[1]))
    outliers = [np.zeros_like(Yn)]
    _admm(Yn, lam, params, outliers.append)
    return np.array([np.linalg.svd(Yn - E, compute_uv=False).sum()
                     + lam * _col_norms(E).sum() for E in outliers])
