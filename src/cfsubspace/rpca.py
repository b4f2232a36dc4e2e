"""Channel subspace estimation from SRS observations via outlier pursuit.

Each RU stacks the S hopped SRS measurements of one of its users into an
M x S matrix and decomposes it as low-rank (the user's channel samples) plus
column-sparse (slots hit by a strong collider) by solving

    minimize ||H||_* + lambda * ||E||_{2,1}   s.t.   H + E = Y

with ADMM: singular-value soft thresholding for H, column-wise l2 shrinkage
for E and a running dual update for the coupling. The dominant left singular
vectors of H give the subspace; an optional greedy projection snaps the basis
onto DFT columns.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .channel import DftBasis, _support_basis, sample_channel


@dataclass
class SrsObservation:
    """Stacked SRS pilot observations for one RU-UE pair.

    Column s holds the desired channel draw plus every collider active in slot
    s plus noise. The strong/weak collider split (by received power relative
    to the noise floor) is diagnostic ground truth only; the estimator never
    sees it.
    """

    matrix: np.ndarray  # (M, S) complex
    pair: tuple         # (l, k)
    colliders: list     # per slot: np.ndarray of colliding UE ids
    strong: list        # per slot: colliders with beta*M*snr >= threshold
    weak: list          # per slot: remaining colliders


@dataclass
class RpcaParams:
    """Solver knobs for :func:`outlier_pursuit`."""

    max_iter: int = 500
    tol: float = 1e-6
    rho: float = 1.0
    adaptive_rho: bool = True   # x2 / /2 primal-dual residual balancing
    residual_ratio: float = 10.0


@dataclass
class RpcaResult:
    low_rank: np.ndarray   # H_hat, (M, S)
    outliers: np.ndarray   # E_hat, (M, S)
    iterations: int
    converged: bool
    residual: float        # ||Y - H_hat - E_hat||_F
    # (Yn, lambda, params): the internally normalized input and the solver
    # settings, from which ``objective`` replays the iterations.
    problem: tuple = field(repr=False, compare=False, default=None)

    @cached_property
    def objective(self) -> np.ndarray:
        """objective[i] = ||Yn - E_i||_* + lambda*||E_i||_{2,1}, i = 0..iterations.

        The exact objective of the feasible pair (Yn - E_i, E_i) on the
        internally normalized problem, with E_0 = 0. Non-increasing on
        noiseless data; noisy inputs can show small transients. Computed on
        first access by replaying the deterministic ADMM steps, so solves
        whose objective is never read neither pay for it nor keep their
        iterates in memory.
        """
        Yn, lam, params = self.problem
        outliers = [np.zeros_like(Yn)]
        if self.iterations:
            _admm(Yn, lam, params, outliers.append)
        return np.array([np.linalg.svd(Yn - E, compute_uv=False).sum()
                         + lam * _col_norms(E).sum() for E in outliers])


@dataclass
class SubspaceEstimate:
    """Estimated channel subspace, either raw left singular vectors ("pca")
    or their greedy projection onto DFT columns ("pp")."""

    basis: np.ndarray             # (M, r) orthonormal columns
    rank: int
    kind: str = "pca"             # "pca" | "pp"
    dft_indices: np.ndarray | None = None


def collect_srs(schedule, layout, supports, pair, snr: float,
                rng: np.random.Generator, strong_threshold: float = 1.0) -> SrsObservation:
    """Simulate the SRS measurements an RU collects for one associated UE.

    Every slot draws fresh channels (slots live in different fading blocks)
    for the desired UE and all its colliders, plus CN(0, 1/snr) noise per
    antenna. Colliders are split into strong and weak by
    beta * M * snr >= strong_threshold, for diagnostics only.
    """
    l, k = pair
    M = supports[l][k].num_antennas
    S = schedule.S
    Y = np.empty((M, S), dtype=complex)
    colliders, strong, weak = [], [], []
    for s in range(S):
        col = sample_channel(supports[l][k], layout.lsfc[l, k], rng)
        hit = schedule.colliders(k, s)
        for i in hit:
            col = col + sample_channel(supports[l][i], layout.lsfc[l, i], rng)
        noise = (rng.standard_normal(M) + 1j * rng.standard_normal(M)) / np.sqrt(2.0 * snr)
        Y[:, s] = col + noise
        is_strong = layout.lsfc[l, hit] * M * snr >= strong_threshold
        colliders.append(hit)
        strong.append(hit[is_strong])
        weak.append(hit[~is_strong])
    return SrsObservation(matrix=Y, pair=(l, k), colliders=colliders,
                          strong=strong, weak=weak)


def _fro(x: np.ndarray):
    """Frobenius norm, bitwise equal to np.linalg.norm(x) without its dispatch."""
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return np.sqrt(re.dot(re) + im.dot(im))
    return np.sqrt(x.dot(x))


def _col_norms(x: np.ndarray) -> np.ndarray:
    """Column l2 norms, bitwise equal to np.linalg.norm(x, axis=0)."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=0))


def outlier_pursuit(Y: np.ndarray, lam: float,
                    params: RpcaParams | None = None) -> RpcaResult:
    """Low-rank plus column-sparse decomposition of Y.

    The input is normalized by its RMS column norm (the solution scales
    linearly with Y, so this only conditions the iteration) and split by ADMM.
    Convergence is declared when the successive-iterate Frobenius change drops
    below tol; hitting max_iter returns converged=False with the last iterate.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y contains non-finite entries")
    if params is None:
        params = RpcaParams()
    M, S = Y.shape
    scale = _fro(Y) / np.sqrt(S)
    if scale == 0:
        return RpcaResult(np.zeros_like(Y), np.zeros_like(Y), 0, True, 0.0,
                          problem=(Y, lam, params))
    Yn = Y / scale
    H, E, iterations, converged = _admm(Yn, lam, params)
    H = H * scale
    E = E * scale
    return RpcaResult(low_rank=H, outliers=E, iterations=iterations,
                      converged=converged, residual=float(_fro(Y - H - E)),
                      problem=(Yn, lam, replace(params)))


def _admm(Yn: np.ndarray, lam: float, params: RpcaParams, on_step=None):
    """ADMM on the normalized problem, from H = Yn and E = U = 0.

    Returns (H, E, iterations, converged). ``on_step`` is called with each
    outlier iterate E_1, E_2, ... as it is made; every step makes a fresh E.
    """
    rho = params.rho
    H = Yn.copy()
    E = np.zeros_like(Yn)
    U = np.zeros_like(Yn)
    converged = False
    iterations = 0
    norm_y = _fro(Yn)
    for iterations in range(1, params.max_iter + 1):
        H_prev, E_prev = H, E
        W, sv, Vh = np.linalg.svd(Yn - E + U, full_matrices=False)
        H = (W * np.maximum(sv - 1.0 / rho, 0.0)) @ Vh
        G = Yn - H + U
        col = _col_norms(G)
        E = G * np.maximum(1.0 - (lam / rho) / np.maximum(col, 1e-300), 0.0)
        R = Yn - H - E
        U = U + R
        if on_step is not None:
            on_step(E)
        e_change = _fro(E - E_prev)
        change = max(_fro(H - H_prev), e_change)
        if change / max(1.0, norm_y) < params.tol:
            converged = True
            break
        if params.adaptive_rho:
            r_norm = _fro(R)
            d_norm = rho * e_change
            if r_norm > params.residual_ratio * d_norm:
                rho *= 2.0
                U /= 2.0
            elif d_norm > params.residual_ratio * r_norm:
                rho /= 2.0
                U *= 2.0
    return H, E, iterations, converged


def numerical_rank(matrix: np.ndarray, rel_tol: float = 1e-6) -> int:
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv[0] == 0:
        return 0
    return int(np.count_nonzero(sv > rel_tol * sv[0]))


def outlier_pursuit_tuned(Y: np.ndarray, lam: float,
                          params: RpcaParams | None = None,
                          rank_band: tuple | None = None,
                          max_retries: int = 5,
                          factor: float = 1.5) -> RpcaResult:
    """Outlier pursuit with an empirical lambda adjustment loop.

    When the recovered low-rank part has rank above the target band, lambda is
    decreased (cheaper to move columns into E); rank zero means lambda was too
    small and it is increased. At most max_retries solves.
    """
    M = Y.shape[0]
    if rank_band is None:
        rank_band = (1, max(1, M // 2))
    lo, hi = rank_band
    result = outlier_pursuit(Y, lam, params)
    for _ in range(max_retries):
        rank = numerical_rank(result.low_rank)
        if lo <= rank <= hi:
            break
        lam = lam / factor if rank > hi else lam * factor
        result = outlier_pursuit(Y, lam, params)
    return result


def select_rank(singular_values, r_max: int) -> int:
    """Dominant rank by the largest gap between consecutive singular values.

    The gap index i (1-based) is searched over [1, min(r_max, len - 1)]; ties
    break to the smallest index, and a single singular value gives rank 1.
    """
    sv = np.asarray(singular_values, dtype=float)
    if sv.size == 0:
        raise ValueError("need at least one singular value")
    if np.any(sv < 0) or np.any(np.diff(sv) > 0):
        raise ValueError("singular values must be non-negative and descending")
    if sv.size == 1:
        return 1
    upper = min(r_max, sv.size - 1)
    if upper < 1:
        return 1
    gaps = sv[:upper] - sv[1:upper + 1]
    return int(np.argmax(gaps)) + 1


def dft_project(basis: np.ndarray, dft: DftBasis) -> np.ndarray:
    """Greedy DFT column selection maximizing f^H (B B^H) f, one per rank.

    The scores of distinct columns do not interact, so the greedy loop reduces
    to picking the top-r scores; ties resolve to the lowest column index.
    Returns the sorted index set.
    """
    r = basis.shape[1]
    if r > dft.M:
        raise ValueError("rank exceeds the number of DFT columns")
    proj = basis.conj().T @ dft.matrix            # (r, M)
    scores = np.real(np.sum(np.abs(proj) ** 2, axis=0))
    chosen = []
    avail = np.ones(dft.M, dtype=bool)
    for _ in range(r):
        masked = np.where(avail, scores, -np.inf)
        pick = int(np.argmax(masked))             # argmax takes the first max
        chosen.append(pick)
        avail[pick] = False
    return np.array(sorted(chosen), dtype=int)


def estimated_covariance(basis: np.ndarray, beta: float,
                         rank: int | None = None) -> np.ndarray:
    """Estimated channel covariance (beta*M/r) B B^H for an orthonormal basis."""
    M, r = basis.shape
    if rank is None:
        rank = r
    if rank != r:
        raise ValueError("rank must match the number of basis columns")
    return beta * M / rank * (basis @ basis.conj().T)


def power_efficiency(support, beta: float, estimate: SubspaceEstimate) -> float:
    """Fraction of the desired channel power captured by a subspace estimate.

    tr(Sigma_true @ Sigma_est) / tr(Sigma_true @ Sigma_true), which reduces to
    ||B^H F_S||_F^2 / r for these projector-type covariances. Always in [0, 1];
    equals 1 exactly when the estimate spans the true support with r = |S|.
    """
    Fs = _support_basis(support)
    cross = estimate.basis.conj().T @ Fs
    pe = np.linalg.norm(cross) ** 2 / estimate.rank
    return float(min(max(pe, 0.0), 1.0))


def subspace_estimates(low_rank: np.ndarray, dft: DftBasis,
                       r_max: int | None = None):
    """Rank-select the recovered low-rank part and build both estimates.

    The gap search is confined to the first floor(min(M, S)/2) indices; the
    model keeps dominant subspaces well below that. Returns the raw PCA
    estimate and its DFT projection.
    """
    M, S = low_rank.shape
    if r_max is None:
        r_max = max(1, min(M, S) // 2)
    W, sv, _ = np.linalg.svd(low_rank, full_matrices=False)
    r = select_rank(sv, r_max)
    pca = SubspaceEstimate(basis=W[:, :r], rank=r, kind="pca")
    idx = dft_project(pca.basis, dft)
    pp = SubspaceEstimate(basis=dft.columns(idx), rank=r, kind="pp",
                          dft_indices=idx)
    return pca, pp
