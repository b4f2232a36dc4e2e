import numpy as np
import pytest

from cfsubspace.geometry import (AssociationGraph, assign_dmrs, calibrate_snr,
                                 form_clusters, generate_layout, los_probability,
                                 lsfc_matrix, pathloss_db, torus_distance)
from oracles import dmrs_pilots_per_ue, per_ue_clusters


class TestTorusDistance:
    def test_identity(self):
        assert torus_distance((0.0, 0.0), (0.0, 0.0), 2000.0) == 0.0

    def test_wraparound(self):
        assert torus_distance((0.0, 0.0), (1999.0, 0.0), 2000.0) == pytest.approx(1.0)

    def test_diagonal(self):
        # sqrt(1000^2 + 1000^2)
        d = torus_distance((0.0, 0.0), (1000.0, 1000.0), 2000.0)
        assert d == pytest.approx(1414.2136, abs=1e-3)

    def test_metric_properties(self):
        rng = np.random.default_rng(0)
        side = 1000.0
        for _ in range(200):
            p, q, r = rng.uniform(0, side, size=(3, 2))
            dpq = torus_distance(p, q, side)
            assert dpq == pytest.approx(torus_distance(q, p, side))
            assert dpq <= side * np.sqrt(2) / 2 + 1e-9
            assert dpq <= torus_distance(p, r, side) + torus_distance(r, q, side) + 1e-9


class TestPathloss:
    def test_los_reference_value(self):
        # PL = 32.4 + 21*log10(sqrt(100^2 + 8.5^2)) + 20*log10(3.7) ~ 85.80 dB
        pl = pathloss_db(100.0, True)
        assert pl == pytest.approx(85.80, abs=0.01)
        beta = 10 ** (-pl / 10)
        assert beta == pytest.approx(2.63e-9, rel=5e-3)

    def test_monotone_in_distance(self):
        for los in (True, False):
            b1 = 10 ** (-pathloss_db(100.0, los) / 10)
            b2 = 10 ** (-pathloss_db(200.0, los) / 10)
            assert b2 < b1

    def test_nlos_never_above_los(self):
        d = np.linspace(1, 3000, 50)
        assert np.all(pathloss_db(d, False) >= pathloss_db(d, True))

    def test_los_probability_limits(self):
        assert los_probability(0.5) == pytest.approx(1.0)
        assert los_probability(10.0) == pytest.approx(1.0)
        assert los_probability(5000.0) < 0.01

    def test_los_probability_never_divides_by_zero(self):
        with np.errstate(divide="raise"):
            p = los_probability([0.0, -0.0, 5e-324, 1e-300, 1.0, 1e300, np.inf])
        assert p.tolist() == [1.0, 1.0, 1.0, 1.0, 1.0, 18.0 / 1e300, 0.0]

    def test_zero_distance_clamped(self):
        ru = np.zeros((1, 2))
        ue = np.zeros((1, 2))  # co-located: 2-D distance clamps to 1 m
        beta, _ = lsfc_matrix(ru, ue, 100.0, seed=0)
        assert np.isfinite(beta[0, 0]) and beta[0, 0] > 0

    def test_los_flags_deterministic(self):
        rng = np.random.default_rng(1)
        ru = rng.uniform(0, 500, (4, 2))
        ue = rng.uniform(0, 500, (6, 2))
        _, f1 = lsfc_matrix(ru, ue, 500.0, seed=42)
        _, f2 = lsfc_matrix(ru, ue, 500.0, seed=42)
        assert np.array_equal(f1, f2)


class TestGenerateLayout:
    def test_full_scale_shapes(self):
        layout = generate_layout(40, 100, 2000.0, seed=7)
        assert layout.lsfc.shape == (40, 100)
        assert layout.ru_positions.shape == (40, 2)
        assert layout.ue_positions.shape == (100, 2)
        assert np.all(layout.ru_positions >= 0) and np.all(layout.ru_positions < 2000)
        assert np.all(layout.lsfc > 0) and np.all(np.isfinite(layout.lsfc))

    def test_minimal_instance(self):
        layout = generate_layout(1, 1, 1.0, seed=0)
        assert layout.lsfc.shape == (1, 1) and layout.lsfc[0, 0] > 0

    def test_deterministic(self):
        a = generate_layout(5, 8, 300.0, seed=11)
        b = generate_layout(5, 8, 300.0, seed=11)
        assert np.array_equal(a.ru_positions, b.ru_positions)
        assert np.array_equal(a.lsfc, b.lsfc)
        assert np.array_equal(a.los_flags, b.los_flags)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            generate_layout(0, 5, 100.0, seed=0)
        with pytest.raises(ValueError):
            generate_layout(5, 5, -1.0, seed=0)


class TestCalibrateSnr:
    def test_reference_distance(self):
        # d_L = sqrt(4e6 / (40 pi)) ~ 178.41, reference at 3 d_L ~ 535.24
        d_l = np.sqrt(4e6 / (40 * np.pi))
        assert d_l == pytest.approx(178.41, abs=0.01)
        assert 3 * d_l == pytest.approx(535.24, abs=0.01)

    def test_defining_identity(self):
        M = 16
        snr = calibrate_snr(40, M, 2000.0)
        d_ref = 3 * np.sqrt(2000.0 ** 2 / (np.pi * 40))
        p = los_probability(d_ref)
        beta_bar = p * 10 ** (-pathloss_db(d_ref, True) / 10) \
            + (1 - p) * 10 ** (-pathloss_db(d_ref, False) / 10)
        assert beta_bar * M * snr == pytest.approx(1.0, rel=1e-12)

    def test_snr_inverse_in_antennas(self):
        snr8 = calibrate_snr(40, 8, 2000.0)
        snr16 = calibrate_snr(40, 16, 2000.0)
        assert snr16 == pytest.approx(snr8 / 2, rel=1e-12)


class TestFormClusters:
    def test_orders_by_gain(self):
        M, snr, eta = 4, 10.0, 1.0
        thr = eta / (M * snr)
        lsfc = (np.array([[4.0], [3.0], [2.0], [1.0]]) * thr)
        graph = form_clusters(lsfc, snr, M, Q=2, eta=eta)
        assert list(graph.clusters[0]) == [0, 1]

    def test_all_below_threshold_flagged(self):
        M, snr = 4, 10.0
        lsfc = np.full((3, 2), 0.5 / (M * snr))
        graph = form_clusters(lsfc, snr, M, Q=2, eta=1.0)
        assert all(len(c) == 0 for c in graph.clusters)
        assert list(graph.orphan_ues) == [0, 1]

    def test_q_is_upper_bound_only(self):
        M, snr = 4, 10.0
        thr = 1.0 / (M * snr)
        lsfc = np.concatenate([np.full((5, 1), 2 * thr),
                               np.full((3, 1), 0.1 * thr)])
        graph = form_clusters(lsfc, snr, M, Q=10, eta=1.0)
        assert len(graph.clusters[0]) == 5

    def test_graph_consistency_and_threshold(self):
        layout = generate_layout(8, 15, 800.0, seed=5)
        M, Q, eta = 8, 4, 1.0
        snr = calibrate_snr(8, M, 800.0)
        graph = form_clusters(layout.lsfc, snr, M, Q, eta)
        thr = eta / (M * snr)
        for k, cluster in enumerate(graph.clusters):
            assert len(cluster) <= Q
            for l in cluster:
                assert (int(l), k) in graph.edges
                assert k in graph.user_sets[int(l)]
                assert layout.lsfc[l, k] >= thr
        for (l, k) in graph.edges:
            assert l in graph.clusters[k]
            assert k in graph.user_sets[l]
        n_edges = sum(len(c) for c in graph.clusters)
        assert len(graph.edges) == n_edges
        assert sum(len(u) for u in graph.user_sets) == n_edges

    @pytest.mark.parametrize("L,K,M,Q", [(10, 25, 8, 10), (10, 40, 8, 10),
                                         (40, 100, 16, 10), (6, 12, 4, 2)])
    def test_bitwise_equal_to_per_ue_loop(self, L, K, M, Q):
        # real drops; eta = 30 leaves orphans, eta = 0 admits every RU, and
        # gains on a coarse grid tie often
        for seed in range(3):
            layout = generate_layout(L, K, 2000.0, seed=seed)
            snr = calibrate_snr(L, M, 2000.0)
            tied = np.round(np.log10(layout.lsfc) * 2) / 2
            for lsfc in (layout.lsfc, 10.0 ** tied):
                for eta in (0.0, 1.0, 30.0):
                    got = form_clusters(lsfc, snr, M, Q, eta)
                    want = per_ue_clusters(lsfc, snr, M, Q, eta)
                    assert got.edges == want.edges
                    for name in ("clusters", "user_sets"):
                        a, b = getattr(got, name), getattr(want, name)
                        assert len(a) == len(b)
                        for x, y in zip(a, b):
                            assert x.dtype == y.dtype
                            assert x.tobytes() == y.tobytes()


def greedy_dmrs_reference(graph, lsfc, tau_p):
    """Reference: score every candidate pilot by a scan over its users."""
    L, K = lsfc.shape
    member = np.zeros((L, K), dtype=bool)
    for l, users in enumerate(graph.user_sets):
        member[l, users] = True
    pilots = np.full(K, -1, dtype=int)
    pilot_users = [[] for _ in range(tau_p)]
    for k in np.argsort(-lsfc.max(axis=0), kind="stable"):
        rus = graph.clusters[k]
        seen = (lsfc[rus] * member[rus]).max(axis=0) if len(rus) else np.zeros(K)
        t_k = min(range(tau_p),
                  key=lambda t: (max((seen[i] for i in pilot_users[t]), default=0.0),
                                 len(pilot_users[t]), t))
        pilots[k] = t_k
        pilot_users[t_k].append(int(k))
    return pilots


class TestAssignDmrs:
    def _graph_for(self, lsfc, snr, M, Q):
        return form_clusters(lsfc, snr, M, Q, eta=1.0)

    def test_enough_pilots_all_distinct(self):
        layout = generate_layout(6, 5, 600.0, seed=2)
        snr = calibrate_snr(6, 8, 600.0)
        graph = self._graph_for(layout.lsfc, snr, 8, 3)
        pilots = assign_dmrs(graph, layout.lsfc, tau_p=8)
        assert len(set(pilots.tolist())) == 5

    def test_disjoint_clusters_can_share(self):
        # three isolated RU-UE pairs, two pilots: the third UE reuses pilot 0
        # at zero recorded penalty because its cluster is disjoint
        M, snr = 4, 10.0
        thr = 1.0 / (M * snr)
        lsfc = np.array([[10 * thr, 0.01 * thr, 0.01 * thr],
                         [0.01 * thr, 9 * thr, 0.01 * thr],
                         [0.01 * thr, 0.01 * thr, 8 * thr]])
        graph = self._graph_for(lsfc, snr, M, Q=2)
        pilots = assign_dmrs(graph, lsfc, tau_p=2)
        assert sorted(pilots.tolist()) == [0, 0, 1]
        # the two sharers serve through different RUs
        shared = [k for k in range(3) if pilots[k] == 0]
        assert graph.clusters[shared[0]][0] != graph.clusters[shared[1]][0]

    def test_shared_ru_forces_spread(self):
        M, snr = 4, 10.0
        thr = 1.0 / (M * snr)
        lsfc = np.array([[10 * thr, 9 * thr]])  # one RU serving both UEs
        graph = self._graph_for(lsfc, snr, M, Q=2)
        pilots = assign_dmrs(graph, lsfc, tau_p=4)
        assert pilots[0] != pilots[1]

    def test_pigeonhole_at_full_scale(self):
        layout = generate_layout(40, 100, 2000.0, seed=7)
        snr = calibrate_snr(40, 16, 2000.0)
        graph = self._graph_for(layout.lsfc, snr, 16, 10)
        pilots = assign_dmrs(graph, layout.lsfc, tau_p=15)
        assert np.all(pilots >= 0) and np.all(pilots < 15)
        assert set(pilots.tolist()) == set(range(15))

    @pytest.mark.parametrize("L,K,tau_p", [(6, 12, 3), (10, 25, 5), (20, 50, 7),
                                           (40, 100, 15)])
    def test_matches_reference_greedy(self, L, K, tau_p):
        # a high association threshold leaves some UEs without a cluster
        orphans = 0
        for seed in range(4):
            layout = generate_layout(L, K, 2000.0, seed=seed)
            snr = calibrate_snr(L, 8, 2000.0)
            for eta in (1.0, 30.0):
                graph = form_clusters(layout.lsfc, snr, 8, 4, eta=eta)
                orphans += len(graph.orphan_ues)
                got = assign_dmrs(graph, layout.lsfc, tau_p)
                want = greedy_dmrs_reference(graph, layout.lsfc, tau_p)
                assert np.array_equal(got, want)
        assert orphans > 0

    def test_ties_match_reference_greedy(self):
        # gains on a coarse grid tie often; an all-orphan drop ties everywhere
        rng = np.random.default_rng(3)
        M, snr = 4, 10.0
        thr = 1.0 / (M * snr)
        for tau_p in (1, 2, 3, 5):
            lsfc = rng.integers(0, 3, size=(5, 14)) * thr + 0.5 * thr
            for Q in (1, 2, 5):
                graph = self._graph_for(lsfc, snr, M, Q)
                assert np.array_equal(assign_dmrs(graph, lsfc, tau_p),
                                      greedy_dmrs_reference(graph, lsfc, tau_p))
        lsfc = np.full((3, 7), 0.5 * thr)
        graph = self._graph_for(lsfc, snr, M, 2)
        assert len(graph.orphan_ues) == 7
        pilots = assign_dmrs(graph, lsfc, tau_p=3)
        assert pilots.tolist() == [0, 1, 2, 0, 1, 2, 0]
        assert np.array_equal(pilots, greedy_dmrs_reference(graph, lsfc, 3))

    @pytest.mark.parametrize("tau_p", [1, 2, 3, 5, 15])
    def test_matches_former_body(self, tau_p):
        # K > tau_p throughout; tied LSFC columns (equal best gains, so the
        # order and the worst gains tie) and orphan UEs in every drop
        M, Q = 8, 3
        for seed in range(3):
            layout = generate_layout(12, 30, 2000.0, seed=seed)
            lsfc = layout.lsfc.copy()
            lsfc[:, 1::3] = lsfc[:, 0:-1:3]     # columns 1, 4, ... copy their left
            snr = calibrate_snr(12, M, 2000.0)
            for eta in (1.0, 30.0):
                graph = form_clusters(lsfc, snr, M, Q, eta=eta)
                got = assign_dmrs(graph, lsfc, tau_p)
                want = dmrs_pilots_per_ue(graph, lsfc, tau_p)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert len(graph.orphan_ues) > 0

    def test_rejects_bad_tau(self):
        graph = AssociationGraph(edges=set(), clusters=[np.array([], dtype=int)],
                                 user_sets=[], dmrs_pilot=None)
        with pytest.raises(ValueError):
            assign_dmrs(graph, np.ones((1, 1)), tau_p=0)
