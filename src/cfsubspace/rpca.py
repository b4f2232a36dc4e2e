"""Channel subspace estimation from SRS observations via outlier pursuit.

Each RU stacks the S hopped SRS measurements of one of its users into an
M x S matrix and decomposes it as low-rank (the user's channel samples) plus
column-sparse (slots hit by a strong collider) by solving

    minimize ||H||_* + lambda * ||E||_{2,1}   s.t.   H + E = Y

with ADMM: singular-value soft thresholding for H, column-wise l2 shrinkage
for E and a running dual update for the coupling. The dominant left singular
vectors of H, which the last ADMM step has already computed, give the
subspace; an optional greedy projection snaps the basis onto DFT columns.
"""

from dataclasses import dataclass, field

import numpy as np

from ._fields import check_field_types
from .channel import _channel_draws, dft_columns, dft_matrix

# the adaptive penalty doubles or halves rho when one ADMM residual exceeds
# the other by this factor (primal-dual residual balancing, Boyd et al. 2011,
# section 3.4.1). 4 rebalances often enough to save about a quarter of the
# steps; at 3 some collider-heavy solves no longer converge within max_iter
_RESIDUAL_RATIO = 4.0
# lambda must sit this far (relative) below the rank-zero threshold before a
# solve is skipped: close to the threshold ADMM can stop at tol with a tiny
# nonzero low-rank part
_RANK_ZERO_MARGIN = 1e-3
# the lambda retune loop runs at most _MAX_RETRIES + 1 solves and scales
# lambda by _RETUNE_FACTOR between them
_MAX_RETRIES = 5
_RETUNE_FACTOR = 1.5


@dataclass(frozen=True)
class RpcaParams:
    """Solver knobs for :func:`outlier_pursuit`, checked once when made
    (the ADMM loop relies on ``max_iter >= 1``) and immutable after.

    ``tol`` bounds the change of both E and H over one ADMM step, relative
    to max(1, ||Y||_F) of the normalized input; the solve stops at the first
    step where both changes fall below it. The estimates read only the rank
    and the top-r DFT columns of H, which settle long before the iterate
    does. 1e-4 is the loosest tolerance found that keeps mean power
    efficiencies within 0.005 and median SE per kind within 0.5 % of the
    1e-6 solve on the reduced, collider-bearing and paper-config inputs;
    at 3e-4 the K=40, N=7 median pp SE drops 3.1 %.
    """

    max_iter: int = 500
    tol: float = 1e-4
    rho: float = 1.0            # initial penalty, then residual-balanced

    def __post_init__(self):
        check_field_types(self)
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        for name in ("tol", "rho"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass
class RpcaResult:
    low_rank: np.ndarray   # H_hat, (M, S)
    outliers: np.ndarray   # E_hat, (M, S)
    iterations: int
    converged: bool
    # singular values of H_hat, descending, as the last ADMM step thresholded
    # them (times the input's scale), and the matching left singular vectors,
    # (M, min(M, S)); the leading identity columns when H_hat = 0
    singular_values: np.ndarray = field(repr=False)
    left_vectors: np.ndarray = field(repr=False)

    @property
    def rank(self) -> int:
        """Numerical rank of ``low_rank`` (singular values above 1e-6 of the
        largest), read from the singular values the solve already made
        instead of a fresh SVD."""
        return _rank_of(self.singular_values)


@dataclass
class SubspaceEstimate:
    """Estimated channel subspace: an orthonormal basis and its rank, as
    :func:`subspace_estimates` returns the raw PCA estimate."""

    basis: np.ndarray             # (M, r) orthonormal columns
    rank: int


def collect_srs(schedule, layout, supports, pair, snr: float,
                rng: np.random.Generator) -> np.ndarray:
    """Simulate the (M, S) SRS observation an RU collects for one of its UEs.

    Column s holds the desired channel draw plus every collider active in slot
    s plus CN(0, 1/snr) noise per antenna. Every slot draws fresh channels
    (slots live in different fading blocks).

    All of it comes from one Gaussian draw, in the order of drawing slot by
    slot with :func:`sample_channel`: per slot the desired UE, then each
    collider in ascending index (real then imaginary coefficients each), then
    the noise (M real, M imaginary). One batched product per support size
    then makes every channel term, and the terms of a slot are summed in that
    same order, so the result is bitwise that of the slot-by-slot loop.
    """
    l, k = pair
    M = supports.num_antennas
    band = schedule.subcarriers
    S = band.shape[1]
    # terms[s, 0] is the desired UE; terms[s, 1 + i] marks collider i
    terms = np.empty((S, band.shape[0] + 1), dtype=bool)
    terms[:, 0] = True
    terms[:, 1:] = (band == band[k]).T
    terms[:, 1 + k] = False
    slot, col = terms.nonzero()                   # slot-major, desired first
    ue = np.where(col == 0, k, col - 1)
    sizes = supports.sizes[l, ue]
    if (sizes < 1).any():
        raise ValueError("support must contain at least one index")
    beta = layout.lsfc[l, ue]
    if (beta <= 0).any():
        raise ValueError("beta must be positive")
    # term t draws 2 r_t normals after those of the terms and noises before it
    drawn = (2 * sizes).cumsum()
    start = drawn - 2 * sizes + 2 * M * slot
    last = terms.sum(axis=1).cumsum() - 1         # last term of each slot
    noise_at = (drawn[last] + 2 * M * np.arange(S))[:, None] + np.arange(M)
    z = rng.standard_normal(int(2 * sizes.sum()) + 2 * M * S)

    channels = np.empty((len(ue), M), dtype=complex)
    for group, indices in supports.size_groups(l, ue):
        channels[group] = _channel_draws(dft_columns(M, indices), beta[group], z,
                                         start[group])

    # add the colliders to their slot's desired channel one position at a time
    first = (col == 0).nonzero()[0]
    position = np.arange(len(ue)) - first[slot]
    cols = channels[first]
    for n in range(1, int(position.max(initial=0)) + 1):
        at = (position == n).nonzero()[0]
        cols[slot[at]] = cols[slot[at]] + channels[at]
    noise = (z[noise_at] + 1j * z[noise_at + M]) / np.sqrt(2.0 * snr)
    return np.ascontiguousarray((cols + noise).T)


def _fro(x: np.ndarray):
    """Frobenius norm, bitwise equal to np.linalg.norm(x) without its dispatch
    (for real x the imaginary part adds an exact 0)."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return np.sqrt(re.dot(re) + im.dot(im))


def _col_norms(x: np.ndarray) -> np.ndarray:
    """Column l2 norms, bitwise equal to np.linalg.norm(x, axis=0)."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=0))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Row l2 norms, bitwise equal to np.linalg.norm(x, axis=1)."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=1))


def outlier_pursuit(Y: np.ndarray, lam: float,
                    params: RpcaParams | None = None) -> RpcaResult:
    """Low-rank plus column-sparse decomposition of Y.

    The input is normalized by its RMS column norm (the solution scales
    linearly with Y, so this only conditions the iteration) and split by ADMM.
    Convergence is declared when the successive-iterate Frobenius change drops
    below tol; hitting max_iter returns converged=False with the last iterate.
    """
    if not 0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y contains non-finite entries")
    if params is None:
        params = RpcaParams()
    M, S = Y.shape
    scale = _fro(Y) / np.sqrt(S)
    if scale == 0:
        return RpcaResult(np.zeros_like(Y), np.zeros_like(Y), 0, True,
                          np.zeros(min(M, S)), np.eye(M, min(M, S), dtype=Y.dtype))
    H, E, sv, left, iterations, converged = _admm(Y / scale, lam, params)
    sv = sv * scale
    if sv[0] == 0:
        # H = 0: the last step's vectors belong to Yn - E + U, not to H;
        # take the identity columns an SVD of a zero matrix returns
        left = np.eye(M, len(sv), dtype=H.dtype)
    return RpcaResult(low_rank=H * scale, outliers=E * scale, iterations=iterations,
                      converged=converged, singular_values=sv, left_vectors=left)


def _admm(Yn: np.ndarray, lam: float, params: RpcaParams, on_step=None):
    """ADMM on the normalized problem, from H = Yn and E = U = 0.

    The iteration runs on X = Yn^H, the (S, M) slot-by-antenna matrix with
    one SRS slot per row. Conjugate transposition keeps singular values and
    turns the column shrink on E into a row shrink, so the steps are those
    of the (M, S) problem; for S >= M the SVD of each step is then taken of
    a tall matrix, which LAPACK does faster than of the wide one.

    Returns (H, E, sv, left, iterations, converged) with H and E as (M, S),
    where sv holds the last step's thresholded singular values of H and left
    the matching left singular vectors.
    ``on_step`` is called with each (M, S) outlier iterate E_1, E_2, ... as
    it is made; every step makes a fresh E.

    Each step reuses its buffers where that gives the same bits as the plain
    update: D = X - H serves both G = D + U and R = D - E, the thresholds are
    applied in place, and ||H - H_prev|| is only taken once the E-change
    already meets the tolerance (the test on the larger change is the test on
    both).
    """
    rho = params.rho
    X = np.conj(Yn.T, order="C")
    H = X
    E = np.zeros_like(X)
    U = np.zeros_like(X)
    converged = False
    norm = max(1.0, _fro(X))
    for iterations in range(1, params.max_iter + 1):
        H_prev, E_prev = H, E
        W, sv, Vh = np.linalg.svd(X - E + U, full_matrices=False)
        sv -= 1.0 / rho
        np.maximum(sv, 0.0, out=sv)
        W *= sv
        H = W @ Vh
        D = X - H
        G = D + U
        row = _row_norms(G)
        np.maximum(row, 1e-300, out=row)
        np.divide(lam / rho, row, out=row)
        np.subtract(1.0, row, out=row)
        np.maximum(row, 0.0, out=row)
        E = np.multiply(G, row[:, None], out=G)
        R = np.subtract(D, E, out=D)
        U += R
        if on_step is not None:
            on_step(E.conj().T)
        e_change = _fro(E - E_prev)
        if e_change / norm < params.tol and \
                _fro(H - H_prev) / norm < params.tol:
            converged = True
            break
        r_norm = _fro(R)
        d_norm = rho * e_change
        if r_norm > _RESIDUAL_RATIO * d_norm:
            rho *= 2.0
            U /= 2.0
        elif d_norm > _RESIDUAL_RATIO * r_norm:
            rho /= 2.0
            U *= 2.0
    return H.conj().T, E.conj().T, sv, Vh.conj().T, iterations, converged


def _rank_of(sv: np.ndarray, rel_tol: float = 1e-6) -> int:
    """How many of the descending singular values sv exceed rel_tol * sv[0]."""
    if sv[0] == 0:
        return 0
    return int(np.count_nonzero(sv > rel_tol * sv[0]))


def _rank_zero_lambda(Y: np.ndarray) -> float:
    """Largest lambda, less a safety margin, at which H = 0 solves outlier pursuit.

    (H, E) = (0, Y) is optimal iff lambda * ||Y~||_2 <= 1, where Y~ is Y with
    every nonzero column scaled to unit norm: lambda * Y~ is then a dual
    certificate (Xu, Caramanis & Sanghavi, 2010). Returns
    (1 - margin) / ||Y~||_2, or inf when Y is zero.
    """
    norms = _col_norms(Y)
    unit = Y / np.where(norms > 0, norms, 1.0)
    sigma = np.linalg.svd(unit, compute_uv=False)[0]
    return (1.0 - _RANK_ZERO_MARGIN) / sigma if sigma > 0 else np.inf


def outlier_pursuit_tuned(Y: np.ndarray, lam: float,
                          params: RpcaParams | None = None) -> RpcaResult:
    """Outlier pursuit with an empirical lambda adjustment loop.

    The target rank band is [1, max(1, M // 2)]. When the recovered low-rank
    part has rank above it, lambda is divided by ``_RETUNE_FACTOR`` (cheaper
    to move columns into E); rank zero means lambda was too small and it is
    multiplied by it. At most ``_MAX_RETRIES + 1`` solves.

    A converged solve at lambda <= :func:`_rank_zero_lambda` returns H = 0,
    so while a retry is left such a solve is skipped and lambda raised as if
    it had run and found rank zero. The last allowed solve always runs. A
    ``max_iter`` too small for the solves to converge can leave a skipped
    solve's H nonzero; the screen then follows the converged answer instead.
    Non-finite input is not screened, so that the solve rejects it. A
    lambda the ladder comes back to (0.5625 -> 0.375 -> 0.5625) is not
    solved again.
    """
    hi = max(1, Y.shape[0] // 2)
    lam_zero = _rank_zero_lambda(Y) if np.all(np.isfinite(Y)) else 0.0
    solved = {}
    for attempt in range(_MAX_RETRIES + 1):
        last = attempt == _MAX_RETRIES
        if lam <= lam_zero and not last:
            lam = lam * _RETUNE_FACTOR  # rank zero without solving
            continue
        if lam not in solved:
            solved[lam] = outlier_pursuit(Y, lam, params)
        result = solved[lam]
        if last:
            break
        rank = result.rank
        if 1 <= rank <= hi:
            break
        lam = lam / _RETUNE_FACTOR if rank > hi else lam * _RETUNE_FACTOR
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
    upper = min(r_max, sv.size - 1)
    if upper < 1:
        return 1
    gaps = sv[:upper] - sv[1:upper + 1]
    return int(np.argmax(gaps)) + 1


def dft_project(basis: np.ndarray) -> np.ndarray:
    """Greedy DFT column selection maximizing f^H (B B^H) f, one per rank.

    The scores of distinct columns do not interact, so picking the best
    remaining column r times is picking the top-r scores; ties resolve to the
    lowest column index. Returns the sorted index set.
    """
    M, r = basis.shape
    if r > M:
        raise ValueError("rank exceeds the number of DFT columns")
    proj = basis.conj().T @ dft_matrix(M)         # (r, M)
    scores = np.real(np.sum(np.abs(proj) ** 2, axis=0))
    return np.sort(np.argsort(-scores, kind="stable")[:r])


def power_efficiency(support, estimate: SubspaceEstimate) -> float:
    """Fraction of the power of a channel on the DFT column indices
    ``support`` captured by a subspace estimate.

    tr(Sigma_true @ Sigma_est) / tr(Sigma_true @ Sigma_true), which reduces to
    ||B^H F_S||_F^2 / r for these projector-type covariances (their common
    gain beta cancels). Always in [0, 1]; equals 1 exactly when the estimate
    spans the true support with r = |S|.
    """
    Fs = dft_columns(estimate.basis.shape[0], support)
    cross = estimate.basis.conj().T @ Fs
    pe = np.linalg.norm(cross) ** 2 / estimate.rank
    return float(min(max(pe, 0.0), 1.0))


def subspace_estimates(left_vectors: np.ndarray, singular_values: np.ndarray):
    """Rank-select a recovered low-rank part and build both estimates.

    Takes the low-rank part's left singular vectors (M, n) and its n
    descending singular values, n = min(M, S), as :class:`RpcaResult` carries
    them. The gap search is confined to the first floor(n/2) indices; the
    model keeps dominant subspaces well below that. Returns the raw PCA
    estimate and its DFT projection ("pp") as its sorted set of r DFT indices.
    """
    r = select_rank(singular_values, max(1, len(singular_values) // 2))
    pca = SubspaceEstimate(basis=left_vectors[:, :r], rank=r)
    return pca, dft_project(pca.basis)
