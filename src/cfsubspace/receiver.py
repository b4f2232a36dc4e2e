"""Uplink combining and ergodic rate evaluation.

Each serving RU forms a local LMMSE direction from its channel estimates; the
cluster then weights the per-RU outputs to maximize the nominal SINR and the
resulting unit-norm network-wide combiner is scored against the true channels
(the decoder is assumed to know the exact SINR).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import NetworkChannelSampler, dft_columns
from .dmrs import dmrs_field, pilot_book

ESTIMATOR_KINDS = ("ideal", "sp", "pp", "pm")


@dataclass
class Combiner:
    """Per-UE receive combiner: local directions, cluster weights, assembly."""

    cluster: np.ndarray        # (n_c,) serving RU ids
    local_vectors: np.ndarray  # (n_c, M) per-RU directions (unit norm or zero)
    weights: np.ndarray        # (n_c,) cluster combining coefficients
    num_rus: int

    @cached_property
    def vector(self) -> np.ndarray:
        """The assembled unit-norm (L*M,) combiner: w_l * v_l in RU block l."""
        M = self.local_vectors.shape[1]
        vector = np.zeros(self.num_rus * M, dtype=complex)
        for ci, l in enumerate(self.cluster):
            vector[l * M:(l + 1) * M] = self.weights[ci] * self.local_vectors[ci]
        return vector


@dataclass
class RateReport:
    """Monte-Carlo rate summary for one estimator kind.

    Rates are in bit/s/Hz (base-2 log unless built with natural_log) and
    spectral efficiency applies the (1 - tau_p/T) pilot overhead factor.
    UEs with empty clusters are excluded: their entries are NaN.
    """

    kind: str
    sinr_samples: np.ndarray  # (n_fading, K)
    rate: np.ndarray          # (K,)
    se: np.ndarray            # (K,)
    excluded: np.ndarray      # UE ids without a serving cluster


def local_lmmse(estimates: np.ndarray, snr: float, index: int) -> np.ndarray:
    """Unit-norm local LMMSE direction for one user at one RU.

    ``estimates`` holds the RU's channel estimates as rows (n_users, M); the
    direction is (I/snr + sum_j h_j h_j^H)^-1 h_index, normalized. A zero
    estimate yields the zero vector (the edge contributes nothing). This is
    one column of :func:`_lmmse_directions`.
    """
    return _lmmse_directions(np.asarray(estimates).T, snr)[:, index]


def _lmmse_directions(estimates: np.ndarray, snr: float) -> np.ndarray:
    """All local LMMSE directions at once; columns of the result are unit norm.

    ``estimates`` is (..., M, n_users) with users as columns, one stack per
    RU; zero-estimate columns (absent users) stay zero.
    """
    M = estimates.shape[-2]
    A = np.eye(M) / snr + estimates @ estimates.conj().swapaxes(-1, -2)
    V = np.linalg.solve(A, estimates)
    norms = np.sqrt(np.sum((V.conj() * V).real, axis=-2, keepdims=True))
    return V / np.where(norms > 0, norms, 1.0)


def cluster_combiner(desired_gains: np.ndarray, interference_gains: np.ndarray,
                     snr: float, local_vectors: np.ndarray, cluster: np.ndarray,
                     num_rus: int) -> Combiner:
    """Cluster-level weights maximizing the nominal SINR.

    With a = desired_gains and B the Gram matrix of the known interference
    gains, the weights solve (B + I/snr) w = a, i.e. the dominant generalized
    eigenvector of (a a^H, B + I/snr); a singular system is solved again with
    1e-12 added to the diagonal. The weights are scaled so that the combiner
    sum_l w_l v_l has unit norm: its blocks sit at distinct RUs, so its
    squared norm is sum_l |w_l|^2 ||v_l||^2, and a zero combiner stays zero.
    The dense vector is assembled only when ``Combiner.vector`` is read.
    """
    a = np.asarray(desired_gains, dtype=complex)
    eye = np.eye(a.size)
    A = eye / snr
    if interference_gains is not None and interference_gains.size:
        G = np.asarray(interference_gains, dtype=complex)
        A = G @ G.conj().T + A
    try:
        w = np.linalg.solve(A, a)
    except np.linalg.LinAlgError:
        w = np.linalg.solve(A + 1e-12 * eye, a)
    local_sq_norms = (local_vectors.conj() * local_vectors).real.sum(axis=1)
    nrm = np.sqrt(((w.conj() * w).real * local_sq_norms).sum())
    if nrm > 0:
        w = w / nrm
    return Combiner(cluster=np.asarray(cluster, dtype=int),
                    local_vectors=local_vectors, weights=w, num_rus=num_rus)


def uplink_sinr(vector: np.ndarray, channel_matrix: np.ndarray, snr: float,
                k: int) -> float:
    """Exact uplink SINR of a unit-norm combiner against the true channels.

    Any common basis works: :func:`ergodic_rates` passes the cluster weights
    and the true channels seen through the cluster's local directions (row l
    is v_l^H H_l), whose product is the gain row of the assembled combiner.
    """
    g = vector.conj() @ channel_matrix
    power = np.abs(g) ** 2
    signal = power[k]
    return float(signal / (1.0 / snr + (power.sum() - signal)))


@dataclass
class _EdgeLayout:
    """Where each association edge (l, k) sits in the batched arrays.

    Per-RU stacks are (L, M, n_max) with RU l's users in its first n_l
    columns and zeros after them. The per-edge tables have one row per edge,
    RU by RU and within an RU in user-set order.
    """

    users: np.ndarray    # (L, n_max) user id per stack column, 0 where unused
    filled: np.ndarray   # (L, n_max) True where the column holds a user
    rows: list           # per UE: table rows of its serving edges, cluster order

    @classmethod
    def build(cls, graph, ues):
        counts = [len(users) for users in graph.user_sets]
        n_max = max(counts, default=0)
        filled = np.arange(n_max) < np.array(counts)[:, None]
        users = np.zeros(filled.shape, dtype=int)
        users[filled] = np.concatenate(graph.user_sets)
        first = np.cumsum(counts) - counts
        row = {(l, k): first[l] + i for l, members in enumerate(graph.user_sets)
               for i, k in enumerate(members.tolist())}
        rows = [np.array([row[(l, k)] for l in graph.clusters[k].tolist()])
                for k in ues.tolist()]
        return cls(users=users, filled=filled, rows=rows)


def _projection_groups(edges: _EdgeLayout, supports, subspaces, kind):
    """Per-edge projection bases, stacked by rank: [(ru, column, (n, M, r))].

    Kind "sp" projects on the true support's DFT columns, "pp" on the
    estimated basis of each edge.
    """
    ru, col = np.nonzero(edges.filled)
    bases = []
    for l, i in zip(ru.tolist(), col.tolist()):
        k = int(edges.users[l, i])
        if kind == "sp":
            s = supports[l][k]
            bases.append(dft_columns(s.num_antennas, s.indices))
        else:  # "pp"
            est = subspaces[(l, k)]
            bases.append(est.basis if hasattr(est, "basis") else est)
    ranks = np.array([B.shape[1] for B in bases])
    groups = []
    for r in np.unique(ranks).tolist():
        members = np.flatnonzero(ranks == r)
        stack = np.array([bases[e] for e in members])
        groups.append((ru[members], col[members], stack))
    return groups


def _project(pm: np.ndarray, groups) -> np.ndarray:
    """Orthogonal projection of each edge's PM estimate onto its basis."""
    est = np.zeros_like(pm)
    for ru, col, B in groups:
        x = pm[ru, :, col][:, :, None]
        est[ru, :, col] = (B @ (B.conj().swapaxes(1, 2) @ x))[:, :, 0]
    return est


def _cluster_sinrs(graph, edges: _EdgeLayout, est: np.ndarray, blocks: np.ndarray,
                   ues: np.ndarray, snr: float) -> np.ndarray:
    """Exact SINR of each UE in ``ues`` under its cluster combiner.

    ``est`` is the (L, M, n_max) stack of per-RU channel estimates. Per edge
    (l, j) the tables hold v_lj^H est_l (the gains the cluster knows) and
    v_lj^H H_l (the true gains), v_lj being the local LMMSE direction, all
    filled with one product per RU. Each UE's combiner is a weighting of its
    cluster's rows, so :func:`cluster_combiner` and :func:`uplink_sinr` work
    on (n_c, K) row sets and no dense (L*M,) combiner is ever formed.
    """
    L, K = blocks.shape[:2]
    local = _lmmse_directions(est, snr).swapaxes(1, 2)[edges.filled]   # (edges, M)
    known = np.zeros((len(local), K), dtype=complex)
    true = np.empty((len(local), K), dtype=complex)
    start = 0
    for l, users in enumerate(graph.user_sets):
        stop = start + len(users)
        V_h = local[start:stop].conj()
        known[start:stop, users] = V_h @ est[l, :, :len(users)]
        true[start:stop] = V_h @ blocks[l].T
        start = stop
    out = np.empty(len(ues))
    for u, k in enumerate(ues.tolist()):
        rows = edges.rows[u]
        gains = known[rows]
        desired = gains[:, k].copy()
        gains[:, k] = 0.0
        comb = cluster_combiner(desired, gains, snr, local[rows], graph.clusters[k], L)
        out[u] = uplink_sinr(comb.weights, true[rows], snr, k)
    return out


def ergodic_rates(layout, graph, supports, snr: float, kinds, n_fading: int,
                  tau_p: int, T: int, rng: np.random.Generator,
                  subspaces: dict | None = None, natural_log: bool = False):
    """Monte-Carlo optimistic ergodic rates for one or more estimator kinds.

    All kinds share the same fading and pilot-noise draws (per-draw child
    streams), so reports are directly comparable. ``subspaces`` maps edges
    (l, k) to estimated bases and is required for kind "pp". Passing a single
    kind returns its RateReport; a sequence returns {kind: RateReport}.
    """
    single = isinstance(kinds, str)
    kind_list = [kinds] if single else list(kinds)
    for kind in kind_list:
        if kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {kind!r}")
    if n_fading < 1:
        raise ValueError("n_fading must be >= 1")
    need_dmrs = any(k != "ideal" for k in kind_list)
    if need_dmrs and graph.dmrs_pilot is None:
        raise ValueError("graph has no DMRS pilots; run assign_dmrs first")
    if "pp" in kind_list and subspaces is None:
        raise ValueError("kind 'pp' needs estimated subspaces")

    L, K = layout.num_rus, layout.num_ues
    sampler = NetworkChannelSampler(layout, supports)
    excluded = graph.orphan_ues
    active = np.setdiff1d(np.arange(K), excluded)
    edges = _EdgeLayout.build(graph, active)
    mask = edges.filled[:, None, :]
    proj = {kind: _projection_groups(edges, supports, subspaces, kind)
            for kind in ("sp", "pp") if kind in kind_list}
    if need_dmrs:
        # column j of RU l correlates with the pilot of its j-th user
        pilots = pilot_book(tau_p, snr)[:, graph.dmrs_pilot[edges.users]]
        pilots = np.where(mask, pilots.transpose(1, 0, 2), 0.0)
        pm_scale = 1.0 / (tau_p * snr)

    sinr = {kind: np.full((n_fading, K), np.nan) for kind in kind_list}
    for d, draw_rng in enumerate(rng.spawn(n_fading)):
        ch_rng, pilot_rng = draw_rng.spawn(2)
        blocks = sampler.sample(ch_rng)
        if need_dmrs:
            fields = np.array([dmrs_field(blocks[l], graph.dmrs_pilot, tau_p, snr,
                                          pilot_rng) for l in range(L)])
            pm = pm_scale * (fields @ pilots)
        for kind in kind_list:
            if kind == "ideal":
                gathered = blocks[np.arange(L)[:, None], edges.users]
                est = np.where(mask, gathered.transpose(0, 2, 1), 0.0)
            elif kind == "pm":
                est = pm
            else:
                est = _project(pm, proj[kind])
            sinr[kind][d, active] = _cluster_sinrs(graph, edges, est, blocks,
                                                   active, snr)

    log = np.log if natural_log else np.log2
    factor = 1.0 - tau_p / T
    reports = {}
    for kind in kind_list:
        rate = np.full(K, np.nan)
        rate[active] = log(1.0 + sinr[kind][:, active]).mean(axis=0)
        reports[kind] = RateReport(kind=kind, sinr_samples=sinr[kind], rate=rate,
                                   se=factor * rate, excluded=excluded)
    return reports[kind_list[0]] if single else reports
