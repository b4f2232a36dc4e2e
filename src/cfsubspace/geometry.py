"""Network geometry: torus layouts, pathloss, SNR calibration and clustering.

Radio units (RUs) and user equipments (UEs) are dropped uniformly on a square
torus. Large-scale fading coefficients (LSFCs) follow a configurable 3GPP-style
urban-microcell pathloss model with a Bernoulli LOS/NLOS state per RU-UE pair,
drawn once per layout.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from ._fields import check_field_types


@dataclass
class PathlossParams:
    """Urban-microcell pathloss model (street-canyon style coefficients).

    LOS  PL = los_offset  + los_dist_coef  * log10(d3d) + los_freq_coef  * log10(fc)
    NLOS PL = max(LOS, nlos_offset + nlos_dist_coef * log10(d3d) + nlos_freq_coef * log10(fc))

    with d3d in meters and fc in GHz. The LOS probability curve is
    min(d0/d2d, 1) * (1 - exp(-d2d/decay)) + exp(-d2d/decay).
    """

    carrier_freq_ghz: float = 3.7
    ru_height_m: float = 10.0
    ue_height_m: float = 1.5
    los_offset: float = 32.4
    los_dist_coef: float = 21.0
    los_freq_coef: float = 20.0
    nlos_offset: float = 22.4
    nlos_dist_coef: float = 35.3
    nlos_freq_coef: float = 21.3
    los_prob_d0: float = 18.0
    los_prob_decay: float = 36.0
    shadowing_std_db: float = 0.0  # 0 disables the log-normal shadowing term

    def __post_init__(self):
        check_field_types(self)
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.carrier_freq_ghz <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.ru_height_m <= 0 or self.ue_height_m <= 0:
            raise ValueError("antenna heights must be positive")
        if not self.shadowing_std_db >= 0:
            raise ValueError("shadowing_std_db must be >= 0")


@dataclass
class Layout:
    """RU/UE drop on a square torus plus per-pair LSFCs and LOS states."""

    area_side: float
    ru_positions: np.ndarray  # (L, 2) meters
    ue_positions: np.ndarray  # (K, 2) meters
    lsfc: np.ndarray          # (L, K) linear power gains
    los_flags: np.ndarray     # (L, K) bool

    @property
    def num_rus(self) -> int:
        return self.ru_positions.shape[0]

    @property
    def num_ues(self) -> int:
        return self.ue_positions.shape[0]


@dataclass
class AssociationGraph:
    """Bipartite RU-UE association with per-UE serving clusters.

    ``clusters[k]`` lists the RUs serving UE k ordered by decreasing LSFC,
    ``user_sets[l]`` the UEs connected to RU l, and ``edges`` holds the same
    relation as a set of (l, k) pairs. ``dmrs_pilot`` is filled by
    :func:`assign_dmrs`.
    """

    edges: set = field(default_factory=set)
    clusters: list = field(default_factory=list)   # per UE: np.ndarray of RU ids
    user_sets: list = field(default_factory=list)  # per RU: np.ndarray of UE ids
    dmrs_pilot: np.ndarray | None = None           # per UE pilot index in [0, tau_p)

    @property
    def orphan_ues(self) -> np.ndarray:
        """UEs with an empty serving cluster (excluded from rate statistics)."""
        return np.array([k for k, c in enumerate(self.clusters) if len(c) == 0], dtype=int)


def torus_distance(p, q, area_side: float):
    """Wraparound Euclidean distance between points on the square torus.

    Accepts arrays broadcastable to (..., 2); returns the distance with each
    coordinate difference wrapped to at most area_side / 2.
    """
    d = np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float))
    d = np.minimum(d, area_side - d)
    return np.sqrt((d ** 2).sum(axis=-1))


def los_probability(d2d, params: PathlossParams):
    """LOS probability as a function of 2-D distance in meters."""
    d2d = np.asarray(d2d, dtype=float)
    decay = np.exp(-d2d / params.los_prob_decay)
    with np.errstate(divide="ignore"):
        ratio = np.where(d2d > 0, params.los_prob_d0 / np.maximum(d2d, 1e-12), np.inf)
    return np.minimum(ratio, 1.0) * (1.0 - decay) + decay


def pathloss_db(d2d, los, params: PathlossParams):
    """Pathloss in dB for given 2-D distances and LOS states.

    Distances below 1 m are clamped (degenerate co-location). The 3-D distance
    includes the RU/UE height difference. NLOS pathloss is lower-bounded by the
    LOS value.
    """
    d2d = np.maximum(np.asarray(d2d, dtype=float), 1.0)
    dh = params.ru_height_m - params.ue_height_m
    d3d = np.sqrt(d2d ** 2 + dh ** 2)
    logd = np.log10(d3d)
    logf = np.log10(params.carrier_freq_ghz)
    pl_los = params.los_offset + params.los_dist_coef * logd + params.los_freq_coef * logf
    pl_nlos = params.nlos_offset + params.nlos_dist_coef * logd + params.nlos_freq_coef * logf
    pl_nlos = np.maximum(pl_los, pl_nlos)
    return np.where(los, pl_los, pl_nlos)


def lsfc_matrix(ru_positions, ue_positions, area_side: float,
                params: PathlossParams, seed: int):
    """LSFC gains and LOS flags for every RU-UE pair.

    The LOS state of each pair is a Bernoulli draw from the LOS-probability
    curve, fixed for the lifetime of the layout. Returns (beta, los_flags)
    with beta[l, k] = 10^(-PL_dB / 10).
    """
    rng = np.random.default_rng(seed)
    ru = np.asarray(ru_positions, dtype=float)
    ue = np.asarray(ue_positions, dtype=float)
    d2d = torus_distance(ru[:, None, :], ue[None, :, :], area_side)
    los = rng.random(d2d.shape) < los_probability(d2d, params)
    pl = pathloss_db(d2d, los, params)
    if params.shadowing_std_db > 0:
        pl = pl + rng.normal(0.0, params.shadowing_std_db, size=pl.shape)
    return 10.0 ** (-pl / 10.0), los


def generate_layout(L: int, K: int, area_side: float, seed: int,
                    params: PathlossParams | None = None) -> Layout:
    """Drop L RUs and K UEs uniformly on the torus and compute their LSFCs."""
    if L < 1 or K < 1 or area_side <= 0:
        raise ValueError("L, K must be >= 1 and area_side > 0")
    if params is None:
        params = PathlossParams()
    rng = np.random.default_rng(seed)
    ru_pos = rng.uniform(0.0, area_side, size=(L, 2))
    ue_pos = rng.uniform(0.0, area_side, size=(K, 2))
    # independent stream for the LOS draws so L, K changes do not reshuffle them
    beta, los = lsfc_matrix(ru_pos, ue_pos, area_side, params, seed=rng.integers(2 ** 63))
    return Layout(area_side=area_side, ru_positions=ru_pos, ue_positions=ue_pos,
                  lsfc=beta, los_flags=los)


def calibrate_snr(L: int, M: int, area_side: float,
                  params: PathlossParams | None = None) -> float:
    """Transmit SNR making mean_pathloss * M * SNR = 1 at the reference distance.

    The reference distance is 3 * d_L where d_L = sqrt(A / (pi L)) is the radius
    of a disk of area A / L, and the mean pathloss averages the LOS and NLOS
    curves with the LOS probability at that distance.
    """
    if L < 1 or M < 1:
        raise ValueError("L and M must be >= 1")
    if params is None:
        params = PathlossParams()
    area = area_side ** 2
    d_ref = 3.0 * np.sqrt(area / (np.pi * L))
    p_los = los_probability(d_ref, params)
    beta_los = 10.0 ** (-pathloss_db(d_ref, True, params) / 10.0)
    beta_nlos = 10.0 ** (-pathloss_db(d_ref, False, params) / 10.0)
    beta_bar = p_los * beta_los + (1.0 - p_los) * beta_nlos
    return float(1.0 / (beta_bar * M))


def form_clusters(lsfc: np.ndarray, snr: float, M: int, Q: int,
                  eta: float = 1.0) -> AssociationGraph:
    """User-centric clustering: strongest RUs above the association threshold.

    An RU can serve UE k only when beta >= eta / (M * snr); each UE keeps its
    at-most-Q strongest admissible RUs. UEs failing the threshold everywhere
    get an empty cluster and are reported via ``AssociationGraph.orphan_ues``.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    # column k: UE k's RUs by decreasing LSFC; it keeps the first Q admissible
    order = np.argsort(-lsfc, axis=0, kind="stable")
    admissible = np.take_along_axis(lsfc, order, axis=0) >= eta / (M * snr)
    chosen = admissible & (np.cumsum(admissible, axis=0) <= Q)
    ues, ranks = chosen.T.nonzero()
    rus = order[ranks, ues]
    clusters = np.split(rus, np.cumsum(chosen.sum(axis=0))[:-1])
    member = np.zeros(lsfc.shape, dtype=bool)
    member[rus, ues] = True
    user_sets = np.split(member.nonzero()[1], np.cumsum(member.sum(axis=1))[:-1])
    edges = set(zip(rus.tolist(), ues.tolist()))
    return AssociationGraph(edges=edges, clusters=clusters, user_sets=user_sets)


def assign_dmrs(graph: AssociationGraph, lsfc: np.ndarray, tau_p: int) -> np.ndarray:
    """Greedy DMRS pilot assignment minimizing the worst in-cluster co-pilot gain.

    UEs are processed in order of decreasing best LSFC. Each UE picks the pilot
    whose already-assigned users create the smallest maximum interference gain
    at the UE's serving RUs; only gains of pairs present in the association
    graph are counted, so users whose clusters are disjoint from the candidate's
    serving RUs contribute no penalty. Ties prefer the less-loaded pilot, then
    the lowest pilot index, so pilots stay distinct whenever K <= tau_p.
    Collisions are allowed (K may exceed the pilot supply).
    """
    if tau_p < 1:
        raise ValueError("tau_p must be >= 1")
    L, K = lsfc.shape
    member = np.zeros((L, K), dtype=bool)
    for l, users in enumerate(graph.user_sets):
        member[l, users] = True
    order = np.argsort(-lsfc.max(axis=0), kind="stable")
    pilots = np.full(K, -1, dtype=int)
    load = np.zeros(tau_p, dtype=int)
    for k in order:
        rus = graph.clusters[k]
        # per pilot: the worst gain its users present at this cluster
        worst = np.zeros(tau_p)
        if len(rus) > 0:
            seen = (lsfc[rus] * member[rus]).max(axis=0)
            done = pilots >= 0
            np.maximum.at(worst, pilots[done], seen[done])
        t_k = np.lexsort((np.arange(tau_p), load, worst))[0]
        pilots[k] = t_k
        load[t_k] += 1
    return pilots
