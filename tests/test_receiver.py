import numpy as np
import pytest

from cfsubspace.channel import NetworkChannelSampler, dft_columns, network_supports
from cfsubspace.dmrs import dmrs_field, pm_estimate, sp_estimate
from cfsubspace.geometry import (assign_dmrs, calibrate_snr, form_clusters,
                                 generate_layout)
from cfsubspace.receiver import (cluster_combiner, ergodic_rates, local_lmmse,
                                 uplink_sinr)


def random_unit_vectors(rng, n, M):
    v = rng.standard_normal((n, M)) + 1j * rng.standard_normal((n, M))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def nominal_sinr(v, estimates, snr, k):
    """Per-RU SINR computed from the RU's own channel estimates."""
    num = np.abs(v.conj() @ estimates[k]) ** 2
    den = np.linalg.norm(v) ** 2 / snr
    for j in range(len(estimates)):
        if j != k:
            den += np.abs(v.conj() @ estimates[j]) ** 2
    return num / den


class TestLocalLmmse:
    def test_single_user_matched_filter(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v = local_lmmse(h[None, :], snr=5.0, index=0)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert np.abs(v.conj() @ h) == pytest.approx(np.linalg.norm(h), rel=1e-10)

    def test_zero_forcing_limit(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        b -= (a.conj() @ b) / np.linalg.norm(a) ** 2 * a  # orthogonalize
        v = local_lmmse(np.array([a, b]), snr=1e12, index=0)
        assert np.abs(v.conj() @ b) < 1e-5 * np.linalg.norm(b)

    def test_zero_estimate_gives_zero_vector(self):
        est = np.zeros((2, 4), dtype=complex)
        est[1] = 1.0
        assert np.all(local_lmmse(est, snr=2.0, index=0) == 0)

    def test_never_beaten_by_random_search(self):
        rng = np.random.default_rng(2)
        M, n_users, snr = 6, 3, 8.0
        for _ in range(20):
            est = rng.standard_normal((n_users, M)) + 1j * rng.standard_normal((n_users, M))
            v = local_lmmse(est, snr, 0)
            best = nominal_sinr(v, est, snr, 0)
            for cand in random_unit_vectors(rng, 200, M):
                assert nominal_sinr(cand, est, snr, 0) <= best + 1e-9


class TestClusterCombiner:
    def test_single_ru_cluster(self):
        rng = np.random.default_rng(3)
        v_local = random_unit_vectors(rng, 1, 4)
        comb = cluster_combiner(np.array([0.5 + 0.1j]), None, 10.0, v_local,
                                np.array([2]), num_rus=4)
        assert np.abs(np.abs(comb.weights[0]) - 1.0) < 1e-12
        assert np.allclose(comb.vector[8:12], comb.weights[0] * v_local[0])
        assert np.linalg.norm(comb.vector) == pytest.approx(1.0)

    def test_no_interferers_is_mrc(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v_local = random_unit_vectors(rng, 3, 4)
        comb = cluster_combiner(a, None, 100.0, v_local, np.array([0, 1, 2]), 3)
        w = comb.weights
        assert np.abs(np.abs(w.conj() @ a) - np.linalg.norm(w) * np.linalg.norm(a)) < 1e-9

    def test_beats_equal_weights(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n_c, n_int, snr = 4, 3, 20.0
            a = rng.standard_normal(n_c) + 1j * rng.standard_normal(n_c)
            G = rng.standard_normal((n_c, n_int)) + 1j * rng.standard_normal((n_c, n_int))
            v_local = random_unit_vectors(rng, n_c, 4)
            comb = cluster_combiner(a, G, snr, v_local, np.arange(n_c), n_c)

            def cluster_sinr(w):
                num = np.abs(w.conj() @ a) ** 2
                den = np.linalg.norm(w.conj() @ G) ** 2 + np.linalg.norm(w) ** 2 / snr
                return num / den

            equal = np.ones(n_c) / np.sqrt(n_c)
            assert cluster_sinr(comb.weights) >= cluster_sinr(equal) - 1e-12

    def test_blocks_off_cluster_are_zero(self):
        rng = np.random.default_rng(6)
        v_local = random_unit_vectors(rng, 2, 4)
        comb = cluster_combiner(np.array([1.0, 0.5 + 0j]), None, 5.0, v_local,
                                np.array([1, 3]), num_rus=5)
        mask = np.ones(20, dtype=bool)
        mask[4:8] = mask[12:16] = False
        assert np.all(comb.vector[mask] == 0)
        assert np.linalg.norm(comb.vector) == pytest.approx(1.0)


class TestClusterCombinerEdgeCases:
    def test_singular_system_retried_with_diagonal_load(self):
        # with 1/snr = 0 and no interferers A = 0, which is singular
        rng = np.random.default_rng(10)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v_local = random_unit_vectors(rng, 3, 4)
        comb = cluster_combiner(a, np.zeros((3, 4), dtype=complex), np.inf, v_local,
                                np.arange(3), 3)
        assert np.allclose(comb.weights, a / np.linalg.norm(a), rtol=1e-12)
        assert np.linalg.norm(comb.vector) == pytest.approx(1.0)

    def test_weights_normalised_without_assembly(self):
        # the scale comes from sum |w_l|^2 ||v_l||^2; a zero direction counts 0
        rng = np.random.default_rng(11)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        G = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        v_local = random_unit_vectors(rng, 3, 4)
        v_local[1] = 0.0
        comb = cluster_combiner(a, G, 5.0, v_local, np.array([2, 0, 1]), 3)
        w = np.linalg.solve(G @ G.conj().T + np.eye(3) / 5.0, a)
        assert np.allclose(comb.weights, w / np.linalg.norm(w[[0, 2]]), rtol=1e-12)
        assert np.linalg.norm(comb.vector) == pytest.approx(1.0, rel=1e-12)

    def test_all_zero_directions_give_zero_combiner(self):
        comb = cluster_combiner(np.zeros(2, dtype=complex), np.zeros((2, 3)), 4.0,
                                np.zeros((2, 4), dtype=complex), np.array([0, 1]), 2)
        assert np.all(comb.weights == 0) and np.all(comb.vector == 0)
        assert uplink_sinr(comb.weights, np.ones((2, 3)), 4.0, 0) == 0.0


class TestUplinkSinr:
    def test_single_user_aligned(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v = h / np.linalg.norm(h)
        snr = 4.0
        got = uplink_sinr(v, h[:, None], snr, 0)
        assert got == pytest.approx(snr * np.linalg.norm(h) ** 2, rel=1e-12)

    def test_orthogonal_direction_zero(self):
        h = np.zeros(4, dtype=complex)
        h[0] = 1.0
        v = np.zeros(4, dtype=complex)
        v[1] = 1.0
        assert uplink_sinr(v, h[:, None], 10.0, 0) == 0.0

    def test_phase_invariance(self):
        rng = np.random.default_rng(8)
        H = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        v = random_unit_vectors(rng, 1, 6)[0]
        s1 = uplink_sinr(v, H, 3.0, 1)
        s2 = uplink_sinr(np.exp(1j * 0.7) * v, H, 3.0, 1)
        assert s1 == pytest.approx(s2, rel=1e-12)

    def test_channel_scaling_raises_sinr(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            H = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
            v = random_unit_vectors(rng, 1, 6)[0]
            s1 = uplink_sinr(v, H, 3.0, 0)
            s2 = uplink_sinr(v, 2.0 * H, 3.0, 0)
            assert s2 > s1  # noise term is fixed, so scaling strictly helps


def small_network(seed=0, L=3, K=6, M=4, tau_p=3):
    layout = generate_layout(L, K, 700.0, seed=seed)
    snr = calibrate_snr(L, M, 700.0)
    graph = form_clusters(layout.lsfc, snr, M, Q=2)
    graph.dmrs_pilot = assign_dmrs(graph, layout.lsfc, tau_p)
    supports = network_supports(layout, np.pi / 8, M)
    return layout, graph, supports, snr


class TestErgodicRates:
    def test_se_overhead_factor(self):
        layout, graph, supports, snr = small_network()
        rep = ergodic_rates(layout, graph, supports, snr, "ideal", 2, 15, 200,
                            np.random.default_rng(0))
        mask = ~np.isnan(rep.rate)
        assert np.allclose(rep.se[mask], 0.925 * rep.rate[mask])

    def test_single_draw_equals_instantaneous(self):
        layout, graph, supports, snr = small_network(seed=1)
        rep = ergodic_rates(layout, graph, supports, snr, "ideal", 1, 15, 200,
                            np.random.default_rng(1))
        mask = ~np.isnan(rep.rate)
        assert np.allclose(rep.rate[mask], np.log2(1 + rep.sinr_samples[0, mask]))

    def test_natural_log_option(self):
        layout, graph, supports, snr = small_network(seed=2)
        r2 = ergodic_rates(layout, graph, supports, snr, "ideal", 2, 15, 200,
                           np.random.default_rng(2))
        rn = ergodic_rates(layout, graph, supports, snr, "ideal", 2, 15, 200,
                           np.random.default_rng(2), natural_log=True)
        mask = ~np.isnan(r2.rate)
        assert np.allclose(rn.rate[mask], r2.rate[mask] * np.log(2), rtol=1e-12)

    def test_matched_streams_across_kinds(self):
        layout, graph, supports, snr = small_network(seed=3)
        both = ergodic_rates(layout, graph, supports, snr, ["ideal", "pm"],
                             3, 3, 200, np.random.default_rng(3))
        solo = ergodic_rates(layout, graph, supports, snr, "ideal",
                             3, 3, 200, np.random.default_rng(3))
        assert np.allclose(both["ideal"].sinr_samples, solo.sinr_samples,
                           equal_nan=True)

    def test_rate_ordering_on_matched_seeds(self):
        layout, graph, supports, snr = small_network(seed=4, L=4, K=8)
        reps = ergodic_rates(layout, graph, supports, snr, ["ideal", "sp", "pm"],
                             20, 3, 200, np.random.default_rng(4))
        med = {k: np.nanmedian(r.se) for k, r in reps.items()}
        assert med["ideal"] >= med["sp"] >= med["pm"]

    def test_excluded_ues_reported(self):
        layout, graph, supports, snr = small_network(seed=5)
        layout.lsfc[:, 2] = 1e-30  # push one UE below every threshold
        graph = form_clusters(layout.lsfc, snr, 4, Q=2)
        graph.dmrs_pilot = assign_dmrs(graph, layout.lsfc, 3)
        rep = ergodic_rates(layout, graph, supports, snr, "ideal", 2, 3, 200,
                            np.random.default_rng(5))
        assert 2 in rep.excluded.tolist()
        assert np.isnan(rep.rate[2]) and np.isnan(rep.se[2])
        assert np.all(np.isnan(rep.sinr_samples[:, 2]))

    def test_ideal_single_user_matches_scalar_oracle(self):
        # K = L = 1: SINR = snr * ||h||^2 with ||h||^2 = beta*M/|S| * chi2;
        # an independent scalar simulation reproduces the ergodic rate
        layout, graph, supports, snr = small_network(seed=6, L=1, K=1)
        rep = ergodic_rates(layout, graph, supports, snr, "ideal", 4000, 3, 200,
                            np.random.default_rng(6))
        beta = layout.lsfc[0, 0]
        r = supports[0][0].size
        M = 4
        rng = np.random.default_rng(60)
        nu = (rng.standard_normal((20000, r)) + 1j * rng.standard_normal((20000, r))) / np.sqrt(2)
        h_sq = beta * M / r * np.sum(np.abs(nu) ** 2, axis=1)
        oracle = np.mean(np.log2(1 + snr * h_sq))
        assert rep.rate[0] == pytest.approx(oracle, rel=0.01)

    def test_unknown_kind_rejected(self):
        layout, graph, supports, snr = small_network(seed=7)
        with pytest.raises(ValueError):
            ergodic_rates(layout, graph, supports, snr, "mmse", 1, 3, 200,
                          np.random.default_rng(0))

    def test_pp_requires_subspaces(self):
        layout, graph, supports, snr = small_network(seed=8)
        with pytest.raises(ValueError):
            ergodic_rates(layout, graph, supports, snr, "pp", 1, 3, 200,
                          np.random.default_rng(0))


def per_ue_oracle(layout, graph, supports, snr, kinds, n_fading, tau_p, rng,
                  subspaces):
    """Reference SINRs: one cluster_combiner + uplink_sinr call per UE and draw,
    on the same fading and pilot-noise streams as ergodic_rates."""
    L, K = layout.num_rus, layout.num_ues
    M = supports[0][0].num_antennas
    sampler = NetworkChannelSampler(layout, supports)
    sinr = {kind: np.full((n_fading, K), np.nan) for kind in kinds}
    for d, draw_rng in enumerate(rng.spawn(n_fading)):
        ch_rng, pilot_rng = draw_rng.spawn(2)
        blocks = sampler.sample(ch_rng)
        channel_matrix = blocks.transpose(0, 2, 1).reshape(L * M, K)
        pm = []
        for l in range(L):
            field = dmrs_field(blocks[l], graph.dmrs_pilot, tau_p, snr, pilot_rng)
            pm.append([pm_estimate(field, graph.dmrs_pilot[k], snr)
                       for k in graph.user_sets[l]])
        for kind in kinds:
            est = []
            for l, users in enumerate(graph.user_sets):
                if kind == "ideal":
                    cols = [blocks[l, k] for k in users]
                elif kind == "pm":
                    cols = pm[l]
                else:
                    cols = [sp_estimate(e, dft_columns(M, supports[l][k].indices)
                                        if kind == "sp" else subspaces[(l, int(k))])
                            for e, k in zip(pm[l], users)]
                est.append(np.array(cols, dtype=complex).reshape(len(users), M).T)
            for k in range(K):
                cluster = graph.clusters[k]
                if len(cluster) == 0:
                    continue
                G = np.zeros((len(cluster), K), dtype=complex)
                local = np.empty((len(cluster), M), dtype=complex)
                for ci, l in enumerate(cluster):
                    users = graph.user_sets[l]
                    i = int(np.flatnonzero(users == k)[0])
                    local[ci] = local_lmmse(est[l].T, snr, i)
                    G[ci, users] = local[ci].conj() @ est[l]
                known = np.flatnonzero(np.any(G != 0, axis=0))
                comb = cluster_combiner(G[:, k], G[:, known[known != k]], snr, local,
                                        cluster, L)
                sinr[kind][d, k] = uplink_sinr(comb.vector, channel_matrix, snr, k)
    return sinr


class TestBatchedReceiver:
    def test_matches_per_ue_oracle(self):
        L, K, M, tau_p = 4, 9, 8, 3
        layout = generate_layout(L, K, 500.0, seed=4)
        snr = calibrate_snr(L, M, 500.0)
        layout.lsfc[:, 2] = 1e-30                      # orphan UE 2
        lone = int(np.argmax(layout.lsfc[:, 4]))
        layout.lsfc[np.arange(L) != lone, 4] = 1e-30   # UE 4: one serving RU
        graph = form_clusters(layout.lsfc, snr, M, Q=3)
        graph.dmrs_pilot = assign_dmrs(graph, layout.lsfc, tau_p)
        supports = network_supports(layout, np.pi / 4, M)
        rng = np.random.default_rng(13)
        subspaces = {}
        for l, k in graph.edges:
            r = 1 + (l + k) % 3
            q, _ = np.linalg.qr(rng.standard_normal((M, r))
                                + 1j * rng.standard_normal((M, r)))
            subspaces[(l, k)] = q
        blind = 6                                      # UE 6: every pp direction zero
        for l in graph.clusters[blind]:
            subspaces[(int(l), blind)] = np.zeros((M, 1), dtype=complex)
        assert graph.orphan_ues.tolist() == [2]
        assert len(graph.clusters[4]) == 1
        assert len(graph.clusters[blind]) > 1
        assert max(len(c) for c in graph.clusters) == 3

        kinds = ["ideal", "sp", "pp", "pm"]
        reps = ergodic_rates(layout, graph, supports, snr, kinds, 3, tau_p, 200,
                             np.random.default_rng(14), subspaces=subspaces)
        oracle = per_ue_oracle(layout, graph, supports, snr, kinds, 3, tau_p,
                               np.random.default_rng(14), subspaces)
        for kind in kinds:
            got = reps[kind].sinr_samples
            np.testing.assert_allclose(got, oracle[kind], rtol=1e-10, atol=0)
            assert np.all(np.isnan(got[:, 2]))
            assert np.all(np.isfinite(np.delete(got, 2, axis=1)))
        assert np.all(reps["pp"].sinr_samples[:, blind] == 0.0)
        assert np.all(reps["ideal"].sinr_samples[:, blind] > 0.0)
        assert reps["pp"].rate[blind] == 0.0
