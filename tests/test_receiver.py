import numpy as np
import pytest

from cfsubspace.channel import NetworkChannelSampler, dft_columns, network_supports
from cfsubspace.dmrs import dmrs_field, pilot_book, pm_estimate, sp_estimate
from cfsubspace.geometry import (assign_dmrs, calibrate_snr, form_clusters,
                                 generate_layout)
from cfsubspace.receiver import (_cluster_sinrs, _cluster_systems, _EdgeLayout,
                                 _gain_tables, _lmmse_directions, cluster_combiner,
                                 ergodic_rates, uplink_sinr)
from oracles import (from_supports, lmmse_directions_by_temporaries, local_lmmse,
                     make_support, per_ru_gain_tables, pilot_rows,
                     uplink_sinr_by_temporaries)


def random_unit_vectors(rng, n, M):
    v = rng.standard_normal((n, M)) + 1j * rng.standard_normal((n, M))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def dense_combiner(weights, local_vectors, cluster, num_rus):
    """The (L*M,) network combiner: w_l * v_l in the block of RU cluster[l]."""
    M = local_vectors.shape[1]
    vector = np.zeros(num_rus * M, dtype=complex)
    for w, v, l in zip(weights, local_vectors, cluster):
        vector[l * M:(l + 1) * M] = w * v
    return vector


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

    @pytest.mark.parametrize("noisy", [False, True])
    def test_directions_bitwise_equal_to_former_body(self, noisy):
        # per-RU stacks with zero columns: padding and blind UEs (norm 0)
        layout, graph, supports, snr = sized_network(Q=4, K=14, M=16)
        served = np.flatnonzero([len(c) > 0 for c in graph.clusters])
        edges = _EdgeLayout.build(graph, served)
        rng = np.random.default_rng(7)
        blocks = NetworkChannelSampler(layout, supports).sample(rng)
        if noisy:
            est = noisy_stack(edges, blocks, snr, rng, blind=(5,))
        else:
            est = ideal_stack(edges, blocks, blind=(5,))
        assert not est.any(axis=1).all()
        for s in (snr, 1e-3, 1e9):
            got, want = _lmmse_directions(est, s), lmmse_directions_by_temporaries(est, s)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        one = est[2, :, :3]                    # one RU's (M, n) block, not a stack
        assert _lmmse_directions(one, snr).tobytes() == \
            lmmse_directions_by_temporaries(one, snr).tobytes()


def eye_system(G, snr, n):
    """The per-UE cluster system G G^H + I/snr built from an identity matrix;
    I/snr alone when there are no interference gains."""
    A = np.eye(n) / snr
    if G is not None and G.size:
        G = np.asarray(G, dtype=complex)
        A = G @ G.conj().T + A
    return A


def sq_norms(local_vectors):
    """||v_l||^2 of each row."""
    return (local_vectors.conj() * local_vectors).real.sum(axis=1)


def combiner(a, G, snr, local_vectors):
    """cluster_combiner on the eye-formula system of (a, G, snr)."""
    return cluster_combiner(a, eye_system(G, snr, len(a)), sq_norms(local_vectors))


class TestClusterCombiner:
    def test_single_ru_cluster(self):
        rng = np.random.default_rng(3)
        v_local = random_unit_vectors(rng, 1, 4)
        w = combiner(np.array([0.5 + 0.1j]), None, 10.0, v_local)
        assert np.abs(np.abs(w[0]) - 1.0) < 1e-12

    def test_no_interferers_is_mrc(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v_local = random_unit_vectors(rng, 3, 4)
        w = combiner(a, None, 100.0, v_local)
        assert np.abs(np.abs(w.conj() @ a) - np.linalg.norm(w) * np.linalg.norm(a)) < 1e-9

    def test_beats_equal_weights(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n_c, n_int, snr = 4, 3, 20.0
            a = rng.standard_normal(n_c) + 1j * rng.standard_normal(n_c)
            G = rng.standard_normal((n_c, n_int)) + 1j * rng.standard_normal((n_c, n_int))
            v_local = random_unit_vectors(rng, n_c, 4)
            w = combiner(a, G, snr, v_local)

            def cluster_sinr(w):
                num = np.abs(w.conj() @ a) ** 2
                den = np.linalg.norm(w.conj() @ G) ** 2 + np.linalg.norm(w) ** 2 / snr
                return num / den

            equal = np.ones(n_c) / np.sqrt(n_c)
            assert cluster_sinr(w) >= cluster_sinr(equal) - 1e-12


class TestClusterCombinerEdgeCases:
    def test_singular_system_retried_with_diagonal_load(self):
        # with 1/snr = 0 and no interferers A = 0, which is singular
        rng = np.random.default_rng(10)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v_local = random_unit_vectors(rng, 3, 4)
        w = combiner(a, np.zeros((3, 4), dtype=complex), np.inf, v_local)
        assert np.allclose(w, a / np.linalg.norm(a), rtol=1e-12)
        vector = dense_combiner(w, v_local, np.arange(3), 3)
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_weights_normalised_without_assembly(self):
        # the scale comes from sum |w_l|^2 ||v_l||^2; a zero direction counts 0
        rng = np.random.default_rng(11)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        G = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        v_local = random_unit_vectors(rng, 3, 4)
        v_local[1] = 0.0
        got = combiner(a, G, 5.0, v_local)
        w = np.linalg.solve(G @ G.conj().T + np.eye(3) / 5.0, a)
        assert np.allclose(got, w / np.linalg.norm(w[[0, 2]]), rtol=1e-12)
        vector = dense_combiner(got, v_local, np.array([2, 0, 1]), 3)
        assert np.linalg.norm(vector) == pytest.approx(1.0, rel=1e-12)

    def test_all_zero_directions_give_zero_combiner(self):
        w = combiner(np.zeros(2, dtype=complex), np.zeros((2, 3)), 4.0,
                     np.zeros((2, 4), dtype=complex))
        assert np.all(w == 0)
        assert uplink_sinr(w, np.ones((2, 3)), 4.0, 0) == 0.0


def eye_formula_weights(a, G, snr, local_vectors):
    """Reference: the cluster weights with A = G G^H + I/snr built from an
    identity matrix, and I * 1e-12 more on a singular system. Also says
    whether the system was singular."""
    a = np.asarray(a, dtype=complex)
    A = eye_system(G, snr, a.size)
    singular = False
    try:
        w = np.linalg.solve(A, a)
    except np.linalg.LinAlgError:
        w = np.linalg.solve(A + 1e-12 * np.eye(a.size), a)
        singular = True
    nrm = np.sqrt(((w.conj() * w).real * sq_norms(local_vectors)).sum())
    return (w / nrm if nrm > 0 else w), singular


class TestClusterCombinerGram:
    @staticmethod
    def _cases():
        rng = np.random.default_rng(21)
        for n in (1, 2, 3, 5, 10):
            for users in (1, 4, 12):
                G = rng.standard_normal((n, users)) + 1j * rng.standard_normal((n, users))
                if n > 1:
                    G[rng.integers(n)] = 0.0     # an RU that serves no other UE
                for snr in (1e-3, 0.7, 46.0, 3.2e5):
                    yield rng.standard_normal(n) + 1j * rng.standard_normal(n), G, snr
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            yield a, None, 2.0                           # no interference at all
            yield a, np.zeros((n, 0), dtype=complex), 2.0
            yield a, np.zeros((n, 3), dtype=complex), np.inf   # singular: retried

    def test_weights_bitwise_equal_to_eye_formula(self):
        rng = np.random.default_rng(22)
        retried = 0
        for a, G, snr in self._cases():
            n = a.size
            v_local = random_unit_vectors(rng, n, 4)
            w = combiner(a, G, snr, v_local)
            ref, singular = eye_formula_weights(a, G, snr, v_local)
            assert w.dtype == ref.dtype
            assert w.tobytes() == ref.tobytes()
            retried += singular
        assert retried == 5      # every all-zero system at 1/snr = 0


class TestUplinkSinr:
    def test_bitwise_equal_to_former_body(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 5, 10):
            for K in (1, 7, 100):
                w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                H = rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))
                for vector in (w, np.zeros(n, dtype=complex)):
                    for k in {0, K // 2, K - 1}:
                        for snr in (1e-3, 2.0, 4.6e5):
                            got = uplink_sinr(vector, H, snr, k)
                            want = uplink_sinr_by_temporaries(vector, H, snr, k)
                            assert type(got) is float and got == want
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
        rep = ergodic_rates(layout, graph, supports, snr, ["ideal"], 2, 15, 200,
                            np.random.default_rng(0))["ideal"]
        mask = ~np.isnan(rep.rate)
        assert np.allclose(rep.se[mask], 0.925 * rep.rate[mask])

    def test_single_draw_equals_instantaneous(self):
        layout, graph, supports, snr = small_network(seed=1)
        rep = ergodic_rates(layout, graph, supports, snr, ["ideal"], 1, 15, 200,
                            np.random.default_rng(1))["ideal"]
        mask = ~np.isnan(rep.rate)
        assert np.allclose(rep.rate[mask], np.log2(1 + rep.sinr_samples[0, mask]))

    def test_matched_streams_across_kinds(self):
        layout, graph, supports, snr = small_network(seed=3)
        both = ergodic_rates(layout, graph, supports, snr, ["ideal", "pm"],
                             3, 3, 200, np.random.default_rng(3))
        solo = ergodic_rates(layout, graph, supports, snr, ["ideal"],
                             3, 3, 200, np.random.default_rng(3))
        assert np.allclose(both["ideal"].sinr_samples, solo["ideal"].sinr_samples,
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
        rep = ergodic_rates(layout, graph, supports, snr, ["ideal"], 2, 3, 200,
                            np.random.default_rng(5))["ideal"]
        assert 2 in graph.orphan_ues.tolist()
        assert np.isnan(rep.rate[2]) and np.isnan(rep.se[2])
        assert np.all(np.isnan(rep.sinr_samples[:, 2]))

    def test_ideal_single_user_matches_scalar_oracle(self):
        # K = L = 1: SINR = snr * ||h||^2 with ||h||^2 = beta*M/|S| * chi2;
        # an independent scalar simulation reproduces the ergodic rate
        layout, graph, supports, snr = small_network(seed=6, L=1, K=1)
        rep = ergodic_rates(layout, graph, supports, snr, ["ideal"], 4000, 3, 200,
                            np.random.default_rng(6))["ideal"]
        beta = layout.lsfc[0, 0]
        r = supports[0, 0].size
        M = 4
        rng = np.random.default_rng(60)
        nu = (rng.standard_normal((20000, r)) + 1j * rng.standard_normal((20000, r))) / np.sqrt(2)
        h_sq = beta * M / r * np.sum(np.abs(nu) ** 2, axis=1)
        oracle = np.mean(np.log2(1 + snr * h_sq))
        assert rep.rate[0] == pytest.approx(oracle, rel=0.01)

    def test_unknown_kind_rejected(self):
        layout, graph, supports, snr = small_network(seed=7)
        with pytest.raises(ValueError, match="unknown"):
            ergodic_rates(layout, graph, supports, snr, ["mmse"], 1, 3, 200,
                          np.random.default_rng(0))
        with pytest.raises(ValueError, match="not a string"):
            ergodic_rates(layout, graph, supports, snr, "ideal", 1, 3, 200,
                          np.random.default_rng(0))

    def test_pp_requires_subspaces(self):
        layout, graph, supports, snr = small_network(seed=8)
        with pytest.raises(ValueError):
            ergodic_rates(layout, graph, supports, snr, ["pp"], 1, 3, 200,
                          np.random.default_rng(0))

    @pytest.mark.parametrize("pilots", [[-1], [3], [0, 3], [5]])
    def test_bad_dmrs_pilot_rejected_before_any_draw(self, pilots):
        # tau_p = 3: an index outside [0, 3) is refused, also -1, which a
        # gather from the pilot book would wrap round to pilot 2
        layout, graph, supports, snr = small_network(seed=9)
        graph.dmrs_pilot[:len(pilots)] = pilots
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"dmrs_pilot of UE {len(pilots) - 1} "
                                             f"is {pilots[-1]}, outside"):
            ergodic_rates(layout, graph, supports, snr, ["ideal", "pm"], 1, 3, 200, rng)
        assert rng.bit_generator.state == state
        assert rng.bit_generator.seed_seq.n_children_spawned == 0

    @pytest.mark.parametrize("length", [5, 7])
    def test_dmrs_pilot_of_wrong_length_rejected(self, length):
        layout, graph, supports, snr = small_network(seed=9)
        assert layout.num_ues == 6
        graph.dmrs_pilot = np.zeros(length, dtype=int)
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match=r"dmrs_pilot has shape \(%d,\), not \(6,\)"
                           % length):
            ergodic_rates(layout, graph, supports, snr, ["sp"], 1, 3, 200, rng)
        assert rng.bit_generator.seed_seq.n_children_spawned == 0


def per_ue_oracle(layout, graph, supports, snr, kinds, n_fading, tau_p, rng,
                  estimated):
    """Reference SINRs: one cluster_combiner + uplink_sinr call per UE and draw,
    on the same fading and pilot-noise streams as ergodic_rates, with each
    combiner assembled densely and scored against the full channel matrix."""
    L, K = layout.num_rus, layout.num_ues
    M = supports.num_antennas
    sampler = NetworkChannelSampler(layout, supports)
    rows = pilot_rows(tau_p, snr, graph.dmrs_pilot)
    sinr = {kind: np.full((n_fading, K), np.nan) for kind in kinds}
    for d, draw_rng in enumerate(rng.spawn(n_fading)):
        ch_rng, pilot_rng = draw_rng.spawn(2)
        blocks = sampler.sample(ch_rng)
        channel_matrix = blocks.transpose(0, 2, 1).reshape(L * M, K)
        pm = []
        for l in range(L):
            field = dmrs_field(blocks[l], rows, pilot_rng)
            pm.append([pm_estimate(field, pilot_book(tau_p, snr)[:, graph.dmrs_pilot[k]],
                                   snr)
                       for k in graph.user_sets[l]])
        for kind in kinds:
            est = []
            for l, users in enumerate(graph.user_sets):
                if kind == "ideal":
                    cols = [blocks[l, k] for k in users]
                elif kind == "pm":
                    cols = pm[l]
                else:
                    table = supports if kind == "sp" else estimated
                    cols = [sp_estimate(e, dft_columns(M, table[l, k]))
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
                w = combiner(G[:, k], G[:, known[known != k]], snr, local)
                vector = dense_combiner(w, local, cluster, L)
                sinr[kind][d, k] = uplink_sinr(vector, channel_matrix, snr, k)
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
        # estimated supports: a random DFT index set of 1 to 3 columns per
        # edge, none for the pairs that are not edges. Each set shares one
        # column with the true support; a set orthogonal to the channel would
        # leave SINRs at round-off level, which no relative bound can compare.
        rng = np.random.default_rng(13)

        def estimate(l, k):
            if (l, k) not in graph.edges:
                return make_support([])
            hit = rng.choice(supports[l, k])
            rest = rng.choice(np.delete(np.arange(M), hit), size=(l + k) % 3,
                              replace=False)
            return make_support(np.sort(np.append(rest, hit)))

        estimated = from_supports([[estimate(l, k) for k in range(K)]
                                   for l in range(L)], M)
        assert set(estimated.sizes[estimated.sizes > 0].tolist()) == {1, 2, 3}
        assert graph.orphan_ues.tolist() == [2]
        assert len(graph.clusters[4]) == 1
        assert max(len(c) for c in graph.clusters) == 3

        kinds = ["ideal", "sp", "pp", "pm"]
        reps = ergodic_rates(layout, graph, supports, snr, kinds, 3, tau_p, 200,
                             np.random.default_rng(14), subspaces=estimated)
        oracle = per_ue_oracle(layout, graph, supports, snr, kinds, 3, tau_p,
                               np.random.default_rng(14), estimated)
        for kind in kinds:
            got = reps[kind].sinr_samples
            np.testing.assert_allclose(got, oracle[kind], rtol=1e-10, atol=0)
            assert np.all(np.isnan(got[:, 2]))
            assert np.all(np.isfinite(np.delete(got, 2, axis=1)))

    def test_blind_ue_gets_zero_sinr(self):
        # a UE whose every estimate is zero gets all-zero local directions,
        # so a zero combiner and SINR 0, while its cluster serves the others
        layout, graph, supports, snr = sized_network(Q=4, K=14)
        blind = 5
        assert len(graph.clusters[blind]) > 1
        served = np.flatnonzero([len(c) > 0 for c in graph.clusters])
        edges = _EdgeLayout.build(graph, served)
        blocks = NetworkChannelSampler(layout, supports).sample(np.random.default_rng(4))
        sinr = _cluster_sinrs(edges, ideal_stack(edges, blocks, (blind,)), blocks, snr)
        assert sinr[blind] == 0.0
        assert np.isnan(sinr[0])                       # the orphan
        assert np.all(np.delete(sinr, [0, blind]) > 0.0)


def sized_network(Q, K, L=8, M=4, seed=9, eta=1.0):
    """A drop on which cluster sizes 1..Q all occur when K > Q: every RU-UE
    gain clears the association threshold except that UE 0 is an orphan and
    UE s + 1 keeps only its s strongest RUs for s < Q; the rest keep Q RUs.
    With eta = 1e9 no gain clears the threshold and every UE is an orphan."""
    layout = generate_layout(L, K, 400.0, seed=seed)
    snr = calibrate_snr(L, M, 400.0)
    rng = np.random.default_rng(seed)
    layout.lsfc[:] = 10.0 ** rng.uniform(1, 3, (L, K)) / (M * snr)
    if K > Q:
        layout.lsfc[:, 0] = 1e-30
        for s in range(1, Q):
            weak = np.argsort(-layout.lsfc[:, s + 1], kind="stable")[s:]
            layout.lsfc[weak, s + 1] = 1e-30
    graph = form_clusters(layout.lsfc, snr, M, Q=Q, eta=eta)
    supports = network_supports(layout, np.pi / 4, M)
    return layout, graph, supports, snr


def ideal_stack(edges, blocks, blind=()):
    """The (L, M, n_max) stack of true channels; zero columns for the UEs in
    ``blind``, as an all-zero pp basis leaves them."""
    L = blocks.shape[0]
    est = blocks[np.arange(L)[:, None], edges.users].transpose(0, 2, 1)
    keep = edges.filled & ~np.isin(edges.users, blind)
    return np.where(keep[:, None, :], est, 0.0)


def noisy_stack(edges, blocks, snr, rng, blind=()):
    """``ideal_stack`` plus circular Gaussian noise of per-component variance
    1 / (3 snr) in the filled columns: a PM estimate's noise with tau_p = 3.
    A gain-table product laid out other than per RU can keep the bits on
    ideal stacks and still move them on such noisy ones."""
    est = ideal_stack(edges, blocks)
    z = rng.standard_normal((2,) + est.shape)
    noisy = est + (z[0] + 1j * z[1]) / np.sqrt(6.0 * snr)
    keep = edges.filled & ~np.isin(edges.users, blind)
    return np.where(keep[:, None, :], noisy, 0.0)


class TestGainTables:
    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("Q, K, blind, eta, counts", [
        (1, 14, (), 1.0, {0, 1, 2, 4}),         # one RU at n_max = 4
        (2, 14, (4,), 1.0, {0, 1, 2, 4, 6}),    # two RUs at n_max = 6
        (7, 14, (3, 9), 1.0, {7, 8, 9, 10, 11}),
        (3, 14, (), 1e9, {0}),                  # every UE an orphan
    ])
    def test_bitwise_equal_to_per_ru_loop(self, Q, K, blind, eta, counts, noisy):
        layout, graph, supports, snr = sized_network(Q, K, M=16, eta=eta)
        assert {len(users) for users in graph.user_sets} == counts
        served = np.flatnonzero([len(c) > 0 for c in graph.clusters])
        edges = _EdgeLayout.build(graph, served)
        rng = np.random.default_rng(Q)
        blocks = NetworkChannelSampler(layout, supports).sample(rng)
        if noisy:
            est = noisy_stack(edges, blocks, snr, rng, blind)
        else:
            est = ideal_stack(edges, blocks, blind)
        got = _gain_tables(edges, est, blocks, snr)
        want = per_ru_gain_tables(graph, edges, est, blocks, snr)
        assert [a.shape for a in got] == [(len(graph.edges),), (len(graph.edges), K),
                                          (len(graph.edges), K)]
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        for ue in blind:
            assert np.all(got[1][:, ue] == 0)


class TestClusterSystems:
    @pytest.mark.parametrize("Q, K, blind", [(1, 14, ()), (4, 14, (5,)),
                                             (7, 14, (3, 9)), (3, 1, ())])
    def test_bitwise_equal_to_per_ue_formula(self, Q, K, blind):
        layout, graph, supports, snr = sized_network(Q, K)
        served = np.flatnonzero([len(c) > 0 for c in graph.clusters])
        sizes = sorted({len(graph.clusters[k]) for k in served})
        if K > 1:
            assert graph.orphan_ues.tolist() == [0]
            assert sizes == list(range(1, Q + 1))
        else:
            assert sizes == [Q]
        edges = _EdgeLayout.build(graph, served)
        ru, col = edges.sources
        ue = edges.users[ru, col]
        blocks = NetworkChannelSampler(layout, supports).sample(
            np.random.default_rng(Q))
        _, known, _ = _gain_tables(edges, ideal_stack(edges, blocks, blind), blocks, snr)
        seen = []
        for ues, rows in edges.groups:
            n = rows.shape[1]
            assert rows.shape == (len(ues), n)
            desired, systems = _cluster_systems(known, ues, rows, snr)
            assert desired.shape == (len(ues), n) and systems.shape == (len(ues), n, n)
            for i, k in enumerate(ues.tolist()):
                # the UE's serving edges, in cluster order
                assert np.all(ue[rows[i]] == k)
                assert ru[rows[i]].tolist() == graph.clusters[k].tolist()
                G = known[rows[i]].copy()
                a = G[:, k].copy()
                G[:, k] = 0.0
                assert desired[i].tobytes() == a.tobytes()
                assert systems[i].tobytes() == eye_system(G, snr, n).tobytes()
                if k in blind:
                    assert np.all(a == 0)
                seen.append(k)
        assert sorted(seen) == served.tolist()


def per_ue_sinrs(tables, groups, K, snr):
    """Reference for ``_cluster_sinrs`` on the same tables: one
    cluster_combiner and one uplink_sinr call per served UE."""
    sq_norms, known, true = tables
    sinr = np.full(K, np.nan)
    for ues, rows in groups:
        desired, systems = _cluster_systems(known, ues, rows, snr)
        for k, a, system, r in zip(ues.tolist(), desired, systems, rows):
            weights = cluster_combiner(a, system, sq_norms[r])
            sinr[k] = uplink_sinr(weights, true[r], snr, k)
    return sinr


class TestStackedClusterSolve:
    @pytest.mark.parametrize("kind", ["ideal", "pm"])
    def test_bitwise_equal_to_per_ue_calls_at_paper_scale(self, kind):
        L, M, K, tau_p = 40, 16, 100, 15
        layout = generate_layout(L, K, 2000.0, seed=31)
        snr = calibrate_snr(L, M, 2000.0)
        graph = form_clusters(layout.lsfc, snr, M, Q=10)
        graph.dmrs_pilot = assign_dmrs(graph, layout.lsfc, tau_p)
        supports = network_supports(layout, np.pi / 8, M)
        served = np.setdiff1d(np.arange(K), graph.orphan_ues)
        edges = _EdgeLayout.build(graph, served)
        assert len(edges.groups) > 5                 # many cluster sizes
        rng = np.random.default_rng(32)
        blocks = NetworkChannelSampler(layout, supports).sample(rng)
        if kind == "ideal":
            est = ideal_stack(edges, blocks)
        else:
            fields = dmrs_field(blocks, pilot_rows(tau_p, snr, graph.dmrs_pilot), rng)
            pilots = pilot_book(tau_p, snr)[:, graph.dmrs_pilot[edges.users]]
            est = np.where(edges.filled[:, None, :],
                           pm_estimate(fields, pilots.transpose(1, 0, 2), snr), 0.0)
        got = _cluster_sinrs(edges, est, blocks, snr)
        want = per_ue_sinrs(_gain_tables(edges, est, blocks, snr), edges.groups, K, snr)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.all(np.isfinite(got[served]) & (got[served] > 0))

    def test_singular_system_costs_only_its_row(self):
        # with 1/snr = 0, UE 7's system G G^H has the zero row of an RU that
        # knows no other UE's gain: the stacked solve fails, and the stack is
        # solved row by row with that one system retried
        rng = np.random.default_rng(33)
        K, snr = 9, np.inf
        ues = np.array([2, 7, 4])
        rows = np.arange(6).reshape(3, 2)
        known = rng.standard_normal((6, K)) + 1j * rng.standard_normal((6, K))
        true = rng.standard_normal((6, K)) + 1j * rng.standard_normal((6, K))
        known[rows[1, 0]] = 0.0
        known[rows[1, 0], 7] = 0.8 - 0.3j
        tables = (rng.uniform(0.5, 1.0, 6), known, true)
        norms = tables[0][rows]
        desired, systems = _cluster_systems(known, ues, rows, snr)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(systems, desired[..., None])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(systems[1], desired[1])
        got = cluster_combiner(desired, systems, norms)
        regular = [0, 2]
        assert np.array_equal(got[regular], cluster_combiner(
            desired[regular], systems[regular], norms[regular]))
        assert np.array_equal(got[1], cluster_combiner(desired[1], systems[1], norms[1]))
        sinr = uplink_sinr(got, true[rows], snr, ues)
        assert np.all(np.isfinite(sinr) & (sinr > 0))
        assert np.array_equal(sinr, per_ue_sinrs(tables, [(ues, rows)], K, snr)[ues])
