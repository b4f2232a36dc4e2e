"""Channel subspace estimation from SRS observations via outlier pursuit.

Each RU stacks the S hopped SRS measurements of one of its users into an
M x S matrix and decomposes it as low-rank (the user's channel samples) plus
column-sparse (slots hit by a strong collider) by solving

    minimize ||H||_* + lambda * ||E||_{2,1}   s.t.   H + E = Y

with ADMM: singular-value soft thresholding for H, column-wise l2 shrinkage
for E and a running dual update for the coupling. Each step thresholds
through the M x M Gram matrix of its iterate, one Hermitian eigensolve in
place of an SVD. The edges of a stack step through ADMM in lockstep, one
stacked eigensolve per step, each with the bits of a solve of its own. The
dominant left singular vectors of H, the Gram eigenvectors of the last ADMM
step, give the subspace; an optional greedy projection snaps the basis onto
DFT columns.
"""

from dataclasses import dataclass, field

import numpy as np

from .channel import _channel_draws, dft_columns, dft_matrix

# the ADMM stop. A solve stops, converged, at the first step where the
# changes of E and H over the step, relative to max(1, ||Y||_F) of the
# normalized input, both fall below _TOL, or where the E-change falls below
# _SETTLED_FACTOR * _TOL and the read-out the estimates take from H (its
# numerical rank and gap-selected rank) has not changed over the last
# _SETTLED_STEPS steps; at _MAX_ITER steps it stops, not converged. The
# estimates read only the rank and the top-r DFT columns of H, which settle
# long before the iterate does. 1e-4 is the loosest tolerance found that
# keeps mean power efficiencies within 0.005 and median SE per kind within
# 0.5 % of the 1e-6 solve on the reduced, collider-bearing and paper-config
# inputs; at 3e-4 the K=40, N=7 median pp SE drops 3.1 %. Against the solve
# without it, the settled stop takes ≈23 % fewer steps on the reduced inputs
# within the same gate (the largest move is the K=50, N=11 mean pe_pp,
# -0.0020). At 5 steps that mean falls 0.0051, and at a factor of 30 a solve
# at a tolerance of 1e-6 is no longer within 1e-4 ||Y|| of a tight solve
_TOL = 1e-4
_MAX_ITER = 500
_SETTLED_STEPS = 10
_SETTLED_FACTOR = 10.0
# the initial ADMM penalty; the residual balancing below moves it
_RHO = 1.0
# the adaptive penalty doubles or halves rho when one ADMM residual exceeds
# the other by this factor (primal-dual residual balancing, Boyd et al. 2011,
# section 3.4.1). 4 rebalances often enough to save about a quarter of the
# steps; at 3 some collider-heavy solves no longer converge within _MAX_ITER
_RESIDUAL_RATIO = 4.0
# over-relaxation (Boyd et al. 2011, section 3.4.3): the E- and dual updates
# read alpha (X - H) + (1 - alpha) E_prev in place of X - H. 1.5 takes ≈22 %
# fewer steps to the same optimum and 1.4 ≈20 %; on top of the settled stop
# 1.5 lands within 1e-6 ||Y|| of the unrelaxed solve at a tolerance of 1e-9
# and keeps the gate of _TOL (the largest moves are again the K=50, N=11 mean
# pe_pp, -0.0020, and its median pp SE, -0.19 %). At 1.8 the planted-outlier
# recovery of acceptance criterion 05 and the objective-descent test fail
_RELAXATION = 1.5
# lambda must sit this far (relative) below the rank-zero threshold before a
# solve is skipped: close to the threshold ADMM can stop at _TOL with a tiny
# nonzero low-rank part
_RANK_ZERO_MARGIN = 1e-3
# the lambda retune loop runs at most _MAX_RETRIES + 1 solves and scales
# lambda by _RETUNE_FACTOR between them
_MAX_RETRIES = 5
_RETUNE_FACTOR = 1.5
# the work _tuned_stack counts (its docstring says what each is)
_WORK_COUNTERS = ("solves", "admm_steps", "certificate_exits", "rank_zero_endings")


@dataclass
class RpcaResult:
    low_rank: np.ndarray   # H_hat, (M, S)
    outliers: np.ndarray   # E_hat, (M, S)
    iterations: int
    converged: bool
    # singular values of H_hat, descending, as the last ADMM step thresholded
    # them (times the input's scale), and the matching left singular vectors,
    # (M, min(M, S)): the roots of the step's Gram eigenvalues and its
    # eigenvectors (``_gram_svd``); the leading identity columns when
    # H_hat = 0. A solve the no-outlier certificate ends (H_hat = Y) carries
    # its step's singular values of Y unthresholded, which are those of H_hat
    singular_values: np.ndarray = field(repr=False)
    left_vectors: np.ndarray = field(repr=False)

    @property
    def rank(self) -> int:
        """Numerical rank of ``low_rank`` (singular values above 1e-6 of the
        largest), read from the singular values the solve already made
        instead of a fresh SVD."""
        return int(_rank_of(self.singular_values))


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
    slot with the oracle ``sample_channel``: per slot the desired UE, then each
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
    terms = np.column_stack([np.ones(S, bool), (band == band[k]).T])
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

    # np.add.at adds repeated slots one at a time in index order: term order
    cols = channels[col == 0]
    np.add.at(cols, slot[col > 0], channels[col > 0])
    noise = (z[noise_at] + 1j * z[noise_at + M]) / np.sqrt(2.0 * snr)
    return np.ascontiguousarray((cols + noise).T)


def _fro(x: np.ndarray):
    """Frobenius norm of a matrix, or of each matrix of a stack (..., M, S),
    bitwise equal to np.linalg.norm(x, axis=(-2, -1)). A matrix of a
    contiguous stack is one pairwise sum, as it is alone, so a stacked call
    gives each matrix the bits of its own."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=(-2, -1)))


def _col_norms(x: np.ndarray) -> np.ndarray:
    """Column l2 norms of a matrix or of each matrix of a stack, bitwise equal
    to np.linalg.norm(x, axis=-2)."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-2))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Row l2 norms of a matrix or of each matrix of a stack, bitwise equal to
    np.linalg.norm(x, axis=-1)."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-1))


def _gram_svd(Z: np.ndarray):
    """Thin SVD Z = W diag(sv) V^H of each matrix of the stack Z (..., S, M),
    from one stacked ``eigh`` of the M x M Gram matrices Z^H Z.

    Returns Z V (..., S, n), sv (..., n) and V (..., M, n): the n = min(S, M)
    largest singular values, descending, and their right singular vectors.
    sv is the root of the Gram eigenvalue. Squaring keeps the large singular
    values to rounding but resolves none below about 1e-8 of the largest: an
    eigenvalue at or below M eps times the largest (numpy's ``matrix_rank``
    tolerance, applied to the Gram matrix) is rounding, and its sv is 0,
    where an SVD gives a value within rounding of 0. W = Z V diag(1/sv) is
    left unformed: :func:`_leverage` and :func:`_threshold` read Z V.
    """
    S, M = Z.shape[-2:]
    n = min(S, M)
    w, V = np.linalg.eigh(Z.conj().swapaxes(-1, -2) @ Z)
    # eigh sorts ascending
    w = w[..., ::-1][..., :n]
    V = np.ascontiguousarray(V[..., ::-1][..., :n])
    sv = np.sqrt(np.where(w > M * np.finfo(float).eps * w[..., :1], w, 0.0))
    return Z @ V, sv, V


def _leverage(ZV: np.ndarray, sv: np.ndarray) -> np.ndarray:
    """Row norms of W = Z V diag(1/sv) from :func:`_gram_svd`, a column of W
    taken as 0 where its singular value is 0: the leverage of Z less the
    directions whose singular values, below sqrt(M eps) of the largest,
    :func:`_gram_svd` gives as 0."""
    W = np.divide(ZV, sv[..., None, :], out=np.zeros_like(ZV),
                  where=sv[..., None, :] > 0)
    return _row_norms(W)


def _threshold(ZV: np.ndarray, sv: np.ndarray, V: np.ndarray, tau) -> np.ndarray:
    """Singular-value soft threshold at tau > 0 (one per matrix of the stack)
    of the Z that :func:`_gram_svd` factored: returns
    H = Z V diag(max(0, 1 - tau / sv)) V^H and thresholds sv to
    max(sv - tau, 0) in place. Scales ZV in place. The factor is taken as
    1 - tau / max(sv, tau), which is 0 where sv <= tau, sv = 0 included,
    without a division by 0."""
    tau = np.asarray(tau)[..., None]
    factor = np.maximum(sv, tau)
    np.divide(tau, factor, out=factor)
    np.subtract(1.0, factor, out=factor)
    ZV *= factor[..., None, :]
    sv -= tau
    np.maximum(sv, 0.0, out=sv)
    return ZV @ V.conj().swapaxes(-1, -2)


def outlier_pursuit(Y: np.ndarray, lam: float) -> RpcaResult:
    """Low-rank plus column-sparse decomposition of Y.

    The input is normalized by its RMS column norm (the solution scales
    linearly with Y, so this only conditions the iteration) and split by
    over-relaxed ADMM. Convergence is declared when the successive-iterate
    Frobenius change drops below ``_TOL``, or once the rank read-out has
    settled (the comment on ``_TOL`` says when); hitting ``_MAX_ITER``
    returns converged=False with the last iterate. At a lambda no smaller
    than every column's leverage norm (the row norms of W in
    Y^H = W diag(s) Vh; so at every lambda >= 1) the answer (Y, 0) is
    returned, converged after one step: the mirror of the rank-zero screen
    of :func:`outlier_pursuit_tuned`. It is exact up to the singular values
    below sqrt(M eps) of the largest, which the leverage leaves out
    (:func:`_admm`).

    This is the one-edge view of :func:`_solve_stack`, a stack of one.
    Non-finite input and a lambda that is not positive and finite are
    rejected.
    """
    _check_input(Y, lam)
    return _solve_stack(Y[None], [lam])[0][0]


def _check_input(Y: np.ndarray, lam: float) -> None:
    """Reject a lambda that is not positive and finite, and non-finite Y."""
    if not 0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y contains non-finite entries")


def _solve_stack(Y: np.ndarray, lam):
    """:func:`outlier_pursuit` of every observation of the stack Y, (E, M, S),
    each at its own lambda ``lam[i]``, in one lockstep ADMM run.

    Returns one result per observation, bitwise that of its own solve, and
    how many of the solves the step-1 certificate ended. An all-zero
    observation is its own answer (H = E = 0, no step) and takes no part in
    the ADMM run. The caller has checked the input (:func:`_check_input`).
    """
    M, S = Y.shape[1:]
    n = min(M, S)
    scale = _fro(Y) / np.sqrt(S)
    solved = np.flatnonzero(scale > 0)
    certified = 0
    if solved.size:
        # out of place: an integer Y divides into a new float stack
        Yn = Y[solved] / scale[solved, None, None]
        H, E, sv, left, iterations, converged, certificate = _admm(
            Yn, np.asarray(lam, dtype=float)[solved])
        certified = int(certificate.sum())
    results = []
    j = 0
    for y, s in zip(Y, scale):
        if s == 0:
            results.append(RpcaResult(np.zeros_like(y), np.zeros_like(y), 0, True,
                                      np.zeros(n), np.eye(M, n, dtype=y.dtype)))
            continue
        values = sv[j] * s
        # H = 0: the last step's vectors belong to Yn - E + U, not to H; take
        # the identity columns an SVD of a zero matrix returns
        vectors = left[j] if values[0] != 0 else np.eye(M, n, dtype=H[j].dtype)
        results.append(RpcaResult(low_rank=H[j] * s, outliers=E[j] * s,
                                  iterations=int(iterations[j]),
                                  converged=bool(converged[j]),
                                  singular_values=values, left_vectors=vectors))
        j += 1
    return results, certified


def _admm(Yn: np.ndarray, lam: np.ndarray):
    """ADMM on a stack of normalized problems, Yn (E, M, S) with one lambda
    per problem, each from H = Yn and E = U = 0; the problems step in
    lockstep, and each gets the bits of a solve of its own.

    The iteration runs on X = Yn^H, the (S, M) slot-by-antenna matrices with
    one SRS slot per row. Conjugate transposition keeps singular values and
    turns the column shrink on E into a row shrink, so the steps are those
    of the (M, S) problem, whose left singular vectors are the right ones
    of the (S, M) iterate.

    Each step factors the (E', S, M) stack Z = X - E + U of the problems
    still running through one stacked ``np.linalg.eigh`` of their M x M
    Gram matrices (:func:`_gram_svd`) and thresholds Z V (:func:`_threshold`).
    The Gram matrix is M x M also where S < M, so that V stays orthonormal
    without a fork on the orientation. Every other array operation of the
    step acts on the stack; a stacked eigensolve, product, elementwise
    update or norm reduction (the row norms of the shrink, and the
    Frobenius norms of the stop and balance tests, one pairwise sum per
    problem in ``_fro``) gives each problem the bits of its own call. What
    a problem decides for itself stays its own: its penalty rho and its
    rescaling of U, its settled counter and read-out, the step-1
    certificate and its stop. A problem leaves the stack at its stop, and
    the run ends when none is left.

    Returns (H, E, sv, left, iterations, converged, certified), one entry per
    problem: H and E as (M, S) arrays, sv the last step's thresholded singular
    values of H, left the matching left singular vectors (unthresholded,
    those of H = Yn, when the certificate below ends the solve), the step
    count, whether the solve converged and whether the certificate ended it.

    The E- and dual updates are over-relaxed: they read
    D = alpha (X - H) + (1 - alpha) E_prev, alpha = ``_RELAXATION``, in place
    of X - H, so E shrinks the rows of G = D + U, U += R = D - E, and ||R||
    is the primal residual the penalty is balanced on. At step 1, where
    E = U = 0, the step factors X = W diag(s) V^H itself. If every row of
    W = X V diag(1/s) has norm <= lam (always at lam >= 1), W V^H is a
    subgradient of ||X||_* whose row norms are all <= lam, so
    (H, E) = (X, 0) is optimal: the solve returns it as converged, with s
    and V unthresholded, and takes no other eigensolve. The certificate is
    exact up to the singular values the factorisation gives as 0, those
    below sqrt(M eps) of the largest (about 4e-8 of it at M = 8): their
    columns of W are taken as 0, so W V^H is a subgradient of the X less
    those directions, and (X, 0) is optimal to within 2 n sqrt(M eps) s_max
    in the objective, where s_max is X's largest singular value (exactly
    optimal where they are 0). Near a rank deficiency it can thus fire at a
    lambda a little below the largest leverage of an SVD. Without this exit
    the relaxed loop only nears that answer (at lam = 1e6, to 1.7e-5 ||Y||
    in 8 steps), where the unrelaxed one reached it to rounding in 3.

    Each step reuses its buffers where that gives the same bits as the plain
    update: D serves G = D + U, R = D - E and then, R spent, the E- and
    H-changes; the thresholds are applied in place, and ||H - H_prev|| is
    only taken once some E-change already meets the tolerance (the test on
    the larger change is the test on both). Z is freed once Z V is formed,
    the step's spent stacks before the next eigensolve, and the stacks are
    compacted one at a time, so that a solve holds about nine arrays of the
    stack's size at its peak.

    Each step also reads out ``_rank_of(sv)`` and the gap-selected rank of
    ``sv``, what the estimates take from the solve. Once that pair has not
    changed over the last ``_SETTLED_STEPS`` steps (it is the same at this
    step and the ``_SETTLED_STEPS`` before) and the E-change is below
    ``_SETTLED_FACTOR * _TOL``, the solve stops as converged, whatever the
    H-change.
    """
    X = np.conj(Yn.transpose(0, 2, 1), order="C")
    count, S, M = X.shape
    n = min(S, M)
    # each problem's (H, E, sv, left), recorded (H and E conjugate-
    # transposed back, as they are returned) when it stops, so that the
    # recorded outputs grow as the running stack shrinks
    outputs = [None] * count
    iterations = np.full(count, _MAX_ITER)
    converged = np.zeros(count, dtype=bool)
    certified = np.zeros(count, dtype=bool)
    # the state of the problems still running, live[i] their positions
    live = np.arange(count)
    rho = np.full(count, float(_RHO))
    norm = np.maximum(_fro(X), 1.0)
    readout = np.full((count, 2), -1)          # no read-out yet
    settled = np.zeros(count, dtype=int)
    H, E, U = X, np.zeros_like(X), np.zeros_like(X)
    r_max = max(1, n // 2)                      # as in subspace_estimates
    settle_tol = _SETTLED_FACTOR * _TOL

    def leave(stop, H, E, sv, V, done=True):
        """Record the problems ``stop`` marks, which end at this step."""
        for j in np.flatnonzero(stop):
            outputs[live[j]] = H[j].conj().T, E[j].conj().T, sv[j], V[j].copy()
        ids = live[stop]
        iterations[ids] = step
        converged[ids] = done

    for step in range(1, _MAX_ITER + 1):
        H_prev, E_prev = H, E
        Z = X - E
        Z += U
        ZV, sv, V = _gram_svd(Z)
        del Z
        if step == 1:
            # the no-outlier certificate (above); the rows of W have norm
            # <= 1, also where rounding puts one a few ulp above
            stop = (lam >= 1.0) | (_leverage(ZV, sv).max(axis=-1) <= lam)
            if stop.any():
                certified[live[stop]] = True
                leave(stop, X, E, sv, V)
                keep = ~stop
                if not keep.any():
                    break
                live, X, ZV, sv, V, lam, rho, norm, readout, settled = (
                    a[keep] for a in (live, X, ZV, sv, V, lam, rho, norm, readout,
                                      settled))
                E, U = np.zeros_like(X), np.zeros_like(X)
                H_prev, E_prev = X, E
        H = _threshold(ZV, sv, V, 1.0 / rho)
        del ZV
        D = X - H
        D *= _RELAXATION
        D += (1.0 - _RELAXATION) * E_prev
        G = D + U
        row = _row_norms(G)
        np.maximum(row, 1e-300, out=row)
        np.divide((lam / rho)[:, None], row, out=row)
        np.subtract(1.0, row, out=row)
        np.maximum(row, 0.0, out=row)
        E = np.multiply(G, row[..., None], out=G)
        R = np.subtract(D, E, out=D)
        U += R
        r_norm = _fro(R)
        # R is spent: its buffer takes the changes of E and H
        e_change = _fro(np.subtract(E, E_prev, out=D))
        stop = e_change / norm < _TOL
        if stop.any():
            stop &= _fro(np.subtract(H, H_prev, out=D)) / norm < _TOL
        # the step's other stacks are spent: free them before the compaction
        # and the next factorisation, so that they add nothing to the peak
        # memory
        del H_prev, E_prev, D, R
        current = np.stack([_rank_of(sv), _gap_rank(sv, r_max)], axis=1)
        settled = np.where((current == readout).all(axis=1), settled + 1, 0)
        readout = current
        stop |= (settled >= _SETTLED_STEPS) & (e_change / norm < settle_tol)
        if stop.any():
            leave(stop, H, E, sv, V)
            keep = ~stop
            if not keep.any():
                break
            live, lam, rho, norm, readout, settled, e_change, r_norm = (
                a[keep] for a in (live, lam, rho, norm, readout, settled,
                                  e_change, r_norm))
            # one stack at a time, so that one old stack is left beside its copy
            X = X[keep]
            H = H[keep]
            E = E[keep]
            U = U[keep]
        d_norm = rho * e_change
        factor = np.where(r_norm > _RESIDUAL_RATIO * d_norm, 2.0,
                          np.where(d_norm > _RESIDUAL_RATIO * r_norm, 0.5, 1.0))
        rho *= factor
        U /= factor[:, None, None]
    else:
        # _MAX_ITER reached: the rest end here, not converged
        leave(np.ones(len(live), dtype=bool), H, E, sv, V, done=False)
    H, E, sv, left = zip(*outputs)
    return H, E, sv, left, iterations, converged, certified


def _rank_of(sv: np.ndarray):
    """How many of the descending singular values sv (..., n) exceed
    1e-6 * sv[..., 0]: none when the largest is 0."""
    return np.count_nonzero(sv > 1e-6 * sv[..., :1], axis=-1)


def _rank_zero_lambda(Y: np.ndarray):
    """Largest lambda, less a safety margin, at which H = 0 solves outlier
    pursuit, for Y or for each observation of a stack Y (..., M, S).

    (H, E) = (0, Y) is optimal iff lambda * ||Y~||_2 <= 1, where Y~ is Y with
    every nonzero column scaled to unit norm: lambda * Y~ is then a dual
    certificate (Xu, Caramanis & Sanghavi, 2010). Returns
    (1 - margin) / ||Y~||_2, or inf when Y is zero; one stacked SVD.
    """
    norms = _col_norms(Y)
    unit = Y / np.where(norms > 0, norms, 1.0)[..., None, :]
    sigma = np.linalg.svd(unit, compute_uv=False)[..., 0]
    return np.divide(1.0 - _RANK_ZERO_MARGIN, sigma, where=sigma > 0,
                     out=np.full_like(sigma, np.inf))


def outlier_pursuit_tuned(Y: np.ndarray, lam: float) -> RpcaResult:
    """Outlier pursuit with an empirical lambda adjustment loop.

    The target rank band is [1, max(1, M // 2)]. When the recovered low-rank
    part has rank above it, lambda is divided by ``_RETUNE_FACTOR`` (cheaper
    to move columns into E); rank zero means lambda was too small and it is
    multiplied by it. At most ``_MAX_RETRIES + 1`` solves.

    At lambda <= lambda_0 = :func:`_rank_zero_lambda`, 0.1 % below the
    threshold 1/||Y~||, the optimum is H = 0, so while a retry is left such
    a solve is skipped and lambda raised as if it had run and found rank
    zero. The last allowed solve always runs. A solve that stops early can
    leave H nonzero there: one cut at ``_MAX_ITER``, or, at ``_TOL`` =
    1e-4, one whose settled stop fires while H still decays, which happens
    within about 0.2 % below the threshold (rank 1, ||H|| up to 0.14 ||Y||,
    on 211 of 631 captured observations at lambda_0; on none at
    0.999 lambda_0 or below, nor at a tolerance of 1e-6). The screen then
    follows the optimum instead, and the loop differs from one that runs
    every solve (on none of the 581 captured pipeline edges among them).
    Non-finite input is rejected. A lambda the ladder comes back to
    (0.5625 -> 0.375 -> 0.5625) is not solved again.

    This is the one-edge view of :func:`_tuned_stack`, a stack of one.
    """
    return _tuned_stack(Y[None], lam)[0][0]


def _ladder(lam: float, lam_zero: float, hi: int):
    """The lambda ladder of one edge (:func:`outlier_pursuit_tuned`): yields
    each lambda it needs solved, is sent that solve's result, and returns
    the result it ends on."""
    solved = {}
    for attempt in range(_MAX_RETRIES + 1):
        last = attempt == _MAX_RETRIES
        if lam <= lam_zero and not last:
            lam = lam * _RETUNE_FACTOR  # rank zero without solving
            continue
        if lam not in solved:
            solved[lam] = yield lam
        result = solved[lam]
        if last:
            break
        rank = result.rank
        if 1 <= rank <= hi:
            break
        lam = lam / _RETUNE_FACTOR if rank > hi else lam * _RETUNE_FACTOR
    return result


def _tuned_stack(Y: np.ndarray, lam: float):
    """:func:`outlier_pursuit_tuned` of every observation of the stack Y,
    (E, M, S), all from the same starting lambda.

    The rank-zero screen is one stacked SVD. Then each round solves, in one
    :func:`_solve_stack` call, every edge whose ladder wants a lambda it has
    not solved yet; a ladder asks for at most one solve per attempt, so
    there are at most ``_MAX_RETRIES + 1`` rounds. Returns the results,
    bitwise those of one :func:`outlier_pursuit_tuned` call per observation,
    and the work done: ``solves``, ``admm_steps`` (over every solve, not
    only the last of an edge), ``certificate_exits`` (solves the step-1
    certificate ended) and ``rank_zero_endings`` (edges whose result has
    rank 0). Its input is checked as :func:`outlier_pursuit` checks it.
    """
    _check_input(Y, lam)
    hi = max(1, Y.shape[1] // 2)
    ladders = [_ladder(lam, lam_zero, hi) for lam_zero in _rank_zero_lambda(Y)]
    wanted = {i: next(ladder) for i, ladder in enumerate(ladders)}
    results = [None] * len(ladders)
    work = dict.fromkeys(_WORK_COUNTERS, 0)
    while wanted:
        edges = list(wanted)
        stack = Y if len(edges) == len(Y) else Y[edges]
        solved, certified = _solve_stack(stack, [wanted[i] for i in edges])
        work["solves"] += len(edges)
        work["admm_steps"] += sum(result.iterations for result in solved)
        work["certificate_exits"] += certified
        for i, result in zip(edges, solved):
            try:
                wanted[i] = ladders[i].send(result)
            except StopIteration as end:
                del wanted[i]
                results[i] = end.value
    work["rank_zero_endings"] = sum(result.rank == 0 for result in results)
    return results, work


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
    return int(_gap_rank(sv, r_max))


def _gap_rank(sv: np.ndarray, r_max: int):
    """:func:`select_rank` of a descending float array, or of each row of a
    stack of them, unchecked."""
    upper = min(r_max, sv.shape[-1] - 1)
    if upper < 1:
        return np.ones(sv.shape[:-1], dtype=int)
    return (sv[..., :upper] - sv[..., 1:upper + 1]).argmax(axis=-1) + 1


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
    scores = np.sum(np.abs(proj) ** 2, axis=0)
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
