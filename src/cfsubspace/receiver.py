"""Uplink combining and ergodic rate evaluation.

Each serving RU forms a local LMMSE direction from its channel estimates; the
cluster then weights the per-RU outputs to maximize the nominal SINR and the
resulting unit-norm network-wide combiner is scored against the true channels
(the decoder is assumed to know the exact SINR).
"""

from dataclasses import dataclass

import numpy as np

from .channel import NetworkChannelSampler, SupportTable, dft_columns
from .dmrs import dmrs_field, pilot_book, pm_estimate, sp_estimate

ESTIMATOR_KINDS = ("ideal", "sp", "pp", "pm")


@dataclass
class RateReport:
    """Monte-Carlo rate summary for one estimator kind.

    Rates are in bit/s/Hz and spectral efficiency applies the (1 - tau_p/T)
    pilot overhead factor. UEs with empty clusters are excluded: their
    entries are NaN.
    """

    sinr_samples: np.ndarray  # (n_fading, K)
    rate: np.ndarray          # (K,)
    se: np.ndarray            # (K,)


def _lmmse_directions(estimates: np.ndarray, snr: float) -> np.ndarray:
    """All local LMMSE directions at once; columns of the result are unit norm.

    ``estimates`` is (..., M, n_users) with users as columns, one stack per
    RU; zero-estimate columns (absent users) stay zero. One column is
    ``local_lmmse`` (tests/oracles.py).
    """
    M = estimates.shape[-2]
    A = estimates @ estimates.conj().swapaxes(-1, -2)
    A += np.eye(M) / snr
    V = np.linalg.solve(A, estimates)
    power = V.conj()
    power *= V
    norms = np.sqrt(np.add.reduce(power.real, axis=-2, keepdims=True))
    norms[~(norms > 0)] = 1.0
    V /= norms
    return V


def cluster_combiner(desired_gains: np.ndarray, system: np.ndarray,
                     local_sq_norms: np.ndarray) -> np.ndarray:
    """Cluster-level weights maximizing the nominal SINR.

    With a = desired_gains and B the Gram matrix of the known interference
    gains, ``system`` is B + I/snr as :func:`_cluster_systems` builds it; the
    weights solve (B + I/snr) w = a, i.e. the dominant generalized
    eigenvector of (a a^H, B + I/snr), and a singular system is solved again
    with 1e-12 added to the diagonal. The weights are scaled so that the
    combiner sum_l w_l v_l has unit norm: its blocks sit at distinct RUs, so
    its squared norm is sum_l |w_l|^2 ||v_l||^2 (``local_sq_norms`` holds
    the ||v_l||^2), and a zero combiner stays zero. Returns the (n_c,)
    weights; the combiner itself is never assembled.

    A stack of one cluster size, (..., n_c) gains and norms with (..., n_c,
    n_c) systems, is solved at once, as :func:`_cluster_sinrs` does per size
    group. A stack holding a singular system is solved row by row, so only
    that system gets the diagonal load and every other row keeps its bits.
    """
    try:
        w = np.linalg.solve(system, desired_gains[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if desired_gains.ndim > 1:
            return np.array([cluster_combiner(*one) for one in
                             zip(desired_gains, system, local_sq_norms)])
        w = np.linalg.solve(system + 1e-12 * np.eye(len(desired_gains)),
                            desired_gains)
    power = (w.conj() * w).real * local_sq_norms
    nrm = np.sqrt(np.add.reduce(power, axis=-1, keepdims=True))
    return np.divide(w, nrm, out=w, where=nrm > 0)


def uplink_sinr(vector: np.ndarray, channel_matrix: np.ndarray, snr: float,
                k):
    """Exact uplink SINR of a unit-norm combiner against the true channels.

    Any common basis works: :func:`ergodic_rates` passes the cluster weights
    and the true channels seen through the cluster's local directions (row l
    is v_l^H H_l), whose product is the gain row of the assembled combiner.
    One UE index ``k`` gives a float; a stack of (..., n) combiners against
    (..., n, K) channels with (...,) UE indices ``k`` gives the (...,) SINRs,
    one per combiner.
    """
    power = np.abs(vector.conj()[..., None, :] @ channel_matrix)[..., 0, :]
    power *= power
    signal = np.take_along_axis(power, np.asarray(k)[..., None], axis=-1)[..., 0]
    sinr = signal / (1.0 / snr + (np.add.reduce(power, axis=-1) - signal))
    return sinr if np.ndim(k) else float(sinr)


@dataclass
class _EdgeLayout:
    """Where each association edge (l, k) sits in the batched arrays.

    Per-RU stacks are (L, M, n_max) with RU l's users in its first n_l
    columns and zeros after them. The RUs are grouped by user count n >= 1,
    ascending, and the per-edge tables have one row per edge: group by group,
    RU by RU within a group and within an RU in user-set order, so that the
    rows of a group are one contiguous block. Per group: the RU ids (R,),
    their table rows (R, n), that block as a slice and the user ids (R, 1, n).
    The served UEs are grouped by cluster size n, ascending: per group their
    ids (U,) and the table rows (U, n) of their serving edges, in cluster
    order.
    """

    users: np.ndarray    # (L, n_max) user id per stack column, 0 where unused
    filled: np.ndarray   # (L, n_max) True where the column holds a user
    sources: tuple       # (RU ids (E,), stack columns (E,)) of the table rows
    ru_groups: list      # [(RU ids, table rows, slice, user ids)] per user count
    groups: list         # [(UE ids (U,), table rows (U, n))] per cluster size

    @classmethod
    def build(cls, graph, ues):
        counts = np.array([len(users) for users in graph.user_sets], dtype=int)
        n_max = counts.max(initial=0)
        filled = np.arange(n_max) < counts[:, None]
        users = np.zeros(filled.shape, dtype=int)
        users[filled] = np.concatenate(graph.user_sets)
        # row_of[l, k] is the table row of edge (l, k)
        row_of = np.zeros((len(counts), len(graph.clusters)), dtype=int)
        ru_groups = []
        start = 0
        for n in np.unique(counts[counts > 0]).tolist():
            rus = np.flatnonzero(counts == n)
            rows = start + np.arange(rus.size * n).reshape(rus.size, n)
            row_of[rus[:, None], users[rus, :n]] = rows
            ru_groups.append((rus, rows, slice(start, start + rows.size),
                              users[rus, None, :n]))
            start += rows.size
        ru, col = np.nonzero(filled)
        in_row_order = np.argsort(row_of[ru, users[ru, col]])
        by_size = {}
        for k in ues.tolist():
            rows = row_of[graph.clusters[k], k]
            by_size.setdefault(len(rows), []).append((k, rows))
        groups = [(np.array([k for k, _ in members]),
                   np.array([rows for _, rows in members]))
                  for _, members in sorted(by_size.items())]
        return cls(users=users, filled=filled,
                   sources=(ru[in_row_order], col[in_row_order]),
                   ru_groups=ru_groups, groups=groups)


def _projection_groups(edges: _EdgeLayout, table: SupportTable):
    """Per-edge projection bases, stacked by support size: [(ru, column,
    (n, M, r))], the DFT columns of each edge's support in ``table``."""
    ru, col = np.nonzero(edges.filled)
    ue = edges.users[ru, col]
    return [(ru[members], col[members], dft_columns(table.num_antennas, indices))
            for members, indices in table.size_groups(ru, ue)]


def _project(pm: np.ndarray, groups) -> np.ndarray:
    """Orthogonal projection of each edge's PM estimate onto its basis."""
    est = np.zeros_like(pm)
    for ru, col, B in groups:
        est[ru, :, col] = sp_estimate(pm[ru, :, col], B)
    return est


def _gain_tables(edges: _EdgeLayout, est: np.ndarray, blocks: np.ndarray,
                 snr: float):
    """Per-edge tables of one estimate stack and draw, one product pair per
    RU user count.

    ``est`` is the (L, M, n_max) stack of per-RU channel estimates. Per edge
    (l, j), v_lj being its local LMMSE direction, returns ||v_lj||^2, the
    gains the cluster knows, v_lj^H est_l (zero for UEs RU l does not serve),
    and the true gains v_lj^H H_l: (edges,), (edges, K) and (edges, K).
    Each RU's operands keep the layout of a product of that RU alone, its
    estimate block (M, n) a column slice of its (M, n_max) stack, so every
    entry has the bits of the per-RU product; a contiguous (M, n) copy of the
    block takes another BLAS kernel and moves last bits at n = 1. A group's
    directions are a view of its contiguous rows, and its true gains are
    written straight into them.
    """
    K = blocks.shape[1]
    local = _lmmse_directions(est, snr).swapaxes(1, 2)[edges.sources]  # (edges, M)
    local_h = local.conj()
    M = local.shape[1]
    known = np.zeros((len(local), K), dtype=complex)
    true = np.empty((len(local), K), dtype=complex)
    for rus, rows, at, users in edges.ru_groups:
        R, n = rows.shape
        V_h = local_h[at].reshape(R, n, M)
        known[rows[:, :, None], users] = V_h @ est[rus][:, :, :n]
        np.matmul(V_h, blocks[rus].swapaxes(1, 2), out=true[at].reshape(R, n, K))
    local_h *= local
    return np.add.reduce(local_h.real, axis=1), known, true


def _cluster_systems(known: np.ndarray, ues: np.ndarray, rows: np.ndarray,
                     snr: float):
    """The cluster systems of one size group, built with one stacked matmul.

    UE ues[i] is served by the table rows rows[i]; G is those rows of
    ``known`` with the UE's own column zeroed. Returns the desired gains
    (the zeroed column), (U, n), and the systems G G^H + I/snr, (U, n, n).
    """
    G = known[rows]                                    # (U, n, K)
    pick = np.arange(len(ues))
    desired = G[pick, :, ues]
    G[pick, :, ues] = 0.0
    systems = G @ G.conj().swapaxes(1, 2)
    n = rows.shape[1]
    systems.reshape(len(ues), n * n)[:, ::n + 1] += 1.0 / snr
    return desired, systems


def _cluster_sinrs(edges: _EdgeLayout, est: np.ndarray, blocks: np.ndarray,
                   snr: float) -> np.ndarray:
    """Exact SINR of every served UE under its cluster combiner; NaN elsewhere.

    Each UE's combiner is a weighting of its cluster's rows of the
    :func:`_gain_tables`, so no dense (L*M,) combiner is ever formed. Per
    size group, :func:`_cluster_systems` builds the systems, one
    :func:`cluster_combiner` call solves the stack and one
    :func:`uplink_sinr` call scores it on the group's rows of the true-gain
    table.
    """
    sq_norms, known, true = _gain_tables(edges, est, blocks, snr)
    out = np.full(blocks.shape[1], np.nan)
    for ues, rows in edges.groups:
        desired, systems = _cluster_systems(known, ues, rows, snr)
        weights = cluster_combiner(desired, systems, sq_norms[rows])
        out[ues] = uplink_sinr(weights, true[rows], snr, ues)
    return out


def ergodic_rates(layout, graph, supports, snr: float, kinds, n_fading: int,
                  tau_p: int, T: int, rng: np.random.Generator,
                  subspaces: SupportTable | None = None) -> dict:
    """Monte-Carlo optimistic ergodic rates for a sequence of estimator kinds.

    All kinds share the same fading and pilot-noise draws (per-draw child
    streams), so reports are directly comparable. Kind "sp" projects each
    edge's PM estimate on the DFT columns of its true support in
    ``supports``, kind "pp" on those of its estimated support in
    ``subspaces``, which it requires. Every kind but "ideal" needs one DMRS
    pilot index in [0, tau_p) per UE in ``graph.dmrs_pilot``, checked before
    any draw. Returns {kind: RateReport}.
    """
    if isinstance(kinds, str):
        raise ValueError("kinds must be a sequence of estimator kinds, not a string")
    kind_list = list(kinds)
    for kind in kind_list:
        if kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {kind!r}")
    if n_fading < 1:
        raise ValueError("n_fading must be >= 1")
    L, K = layout.num_rus, layout.num_ues
    need_dmrs = any(k != "ideal" for k in kind_list)
    if need_dmrs:
        if graph.dmrs_pilot is None:
            raise ValueError("graph has no DMRS pilots; run assign_dmrs first")
        pilot_of = np.asarray(graph.dmrs_pilot)
        if pilot_of.shape != (K,):
            raise ValueError(f"dmrs_pilot has shape {pilot_of.shape}, "
                             f"not ({K},): one pilot index per UE")
        bad = np.flatnonzero((pilot_of < 0) | (pilot_of >= tau_p))
        if len(bad):
            raise ValueError(f"dmrs_pilot of UE {bad[0]} is {pilot_of[bad[0]]}, "
                             f"outside [0, tau_p={tau_p})")
    if "pp" in kind_list and subspaces is None:
        raise ValueError("kind 'pp' needs estimated subspaces")

    sampler = NetworkChannelSampler(layout, supports)
    active = np.setdiff1d(np.arange(K), graph.orphan_ues)
    edges = _EdgeLayout.build(graph, active)
    mask = edges.filled[:, None, :]
    proj = {kind: _projection_groups(edges, table)
            for kind, table in (("sp", supports), ("pp", subspaces))
            if kind in kind_list}
    if need_dmrs:
        book = pilot_book(tau_p, snr)
        pilot_rows = book[:, pilot_of].conj().T      # (K, tau_p), for dmrs_field
        # column j of RU l correlates with the pilot of its j-th user
        pilots = book[:, pilot_of[edges.users]]
        pilots = np.where(mask, pilots.transpose(1, 0, 2), 0.0)

    sinr = {kind: np.full((n_fading, K), np.nan) for kind in kind_list}
    for d, draw_rng in enumerate(rng.spawn(n_fading)):
        ch_rng, pilot_rng = draw_rng.spawn(2)
        blocks = sampler.sample(ch_rng)
        if need_dmrs:
            pm = pm_estimate(dmrs_field(blocks, pilot_rows, pilot_rng), pilots, snr)
        for kind in kind_list:
            if kind == "ideal":
                gathered = blocks[np.arange(L)[:, None], edges.users]
                est = np.where(mask, gathered.transpose(0, 2, 1), 0.0)
            elif kind == "pm":
                est = pm
            else:
                est = _project(pm, proj[kind])
            sinr[kind][d] = _cluster_sinrs(edges, est, blocks, snr)

    factor = 1.0 - tau_p / T
    reports = {}
    for kind in kind_list:
        rate = np.full(K, np.nan)
        rate[active] = np.log2(1.0 + sinr[kind][:, active]).mean(axis=0)
        reports[kind] = RateReport(sinr_samples=sinr[kind], rate=rate,
                                   se=factor * rate)
    return reports
