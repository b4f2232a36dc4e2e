import numpy as np
import pytest

from cfsubspace.channel import AngularSupport, dft_columns, sample_channel
from cfsubspace.dmrs import (contamination_covariance, dmrs_field, pilot_book,
                             pm_estimate, sp_estimate)


class _ZeroNoise:
    """Stand-in generator that silences the additive noise draws."""

    @staticmethod
    def standard_normal(size=None):
        return np.zeros(size) if size is not None else 0.0


def make_support(indices, M):
    return AngularSupport(indices=np.asarray(indices, dtype=int), center_angle=0.0,
                          width=np.pi / 8, num_antennas=M)


class TestPilotBook:
    def test_orthogonality_and_energy(self):
        tau_p, snr = 15, 37.5
        book = pilot_book(tau_p, snr)
        gram = book.conj().T @ book
        target = tau_p * snr * np.eye(tau_p)
        assert np.max(np.abs(gram - target)) < 1e-9 * tau_p * snr

    def test_cached_read_only_and_exact(self):
        tau_p, snr = 5, 12.5
        book = pilot_book(tau_p, snr)
        assert book is pilot_book(tau_p, snr)
        with pytest.raises(ValueError):
            book[0, 0] = 0.0
        t = np.arange(tau_p)
        unitary = np.exp(-2j * np.pi * np.outer(t, t) / tau_p) / np.sqrt(tau_p)
        assert book.tobytes() == (np.sqrt(tau_p * snr) * unitary).tobytes()


class TestDmrsField:
    def test_single_user_noiseless(self):
        M, tau_p, snr = 4, 3, 10.0
        rng = np.random.default_rng(0)
        h = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        field = dmrs_field(h[None, :], np.array([1]), tau_p, snr, _ZeroNoise())
        book = pilot_book(tau_p, snr)
        assert np.allclose(field, np.outer(h, book[:, 1].conj()))

    def test_field_energy_grows_with_colocated_users(self):
        # co-located users on one pilot add power linearly
        M, tau_p, snr = 4, 4, 5.0
        rng = np.random.default_rng(1)
        support = make_support([0, 1], M)
        trials = 4000
        energy = {}
        for n_users in (1, 3):
            acc = 0.0
            for _ in range(trials):
                ch = np.array([sample_channel(support, 1.0, rng)
                               for _ in range(n_users)])
                field = dmrs_field(ch, np.zeros(n_users, dtype=int), tau_p, snr, rng)
                acc += np.linalg.norm(field) ** 2
            energy[n_users] = acc / trials
        noise_energy = M * tau_p
        signal_1 = energy[1] - noise_energy
        signal_3 = energy[3] - noise_energy
        assert signal_3 == pytest.approx(3 * signal_1, rel=0.05)

    def test_rejects_bad_pilot_indices(self):
        with pytest.raises(ValueError):
            dmrs_field(np.zeros((1, 4), dtype=complex), np.array([5]), 3, 1.0,
                       np.random.default_rng(0))


class TestPmEstimate:
    def test_clean_pilot_recovers_channel(self):
        M, tau_p, snr = 4, 3, 1e16
        rng = np.random.default_rng(2)
        h = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        field = dmrs_field(h[None, :], np.array([0]), tau_p, snr, rng)
        est = pm_estimate(field, 0, snr)
        assert np.linalg.norm(est - h) < 1e-7

    def test_noise_variance(self):
        M, tau_p, snr = 4, 3, 2.0
        rng = np.random.default_rng(3)
        h = np.zeros((1, M), dtype=complex)  # pure-noise estimate
        err = np.array([pm_estimate(dmrs_field(h, np.array([2]), tau_p, snr, rng), 2, snr)
                        for _ in range(10000)])
        var = np.mean(np.abs(err) ** 2)
        assert var == pytest.approx(1.0 / (tau_p * snr), rel=0.05)

    def test_copilot_bias_is_the_contaminator(self):
        M, tau_p, snr = 4, 3, 7.0
        rng = np.random.default_rng(4)
        h = rng.standard_normal((2, M)) + 1j * rng.standard_normal((2, M))
        field = dmrs_field(h, np.array([1, 1]), tau_p, snr, _ZeroNoise())
        est = pm_estimate(field, 1, snr)
        assert np.allclose(est - h[0], h[1])

    def test_rejects_bad_pilot(self):
        field = dmrs_field(np.zeros((1, 2), dtype=complex), np.array([0]), 2, 1.0,
                           np.random.default_rng(0))
        with pytest.raises(ValueError):
            pm_estimate(field, 2, 1.0)


class TestSpEstimate:
    def test_projection_reduces_clean_error(self):
        M, tau_p, snr = 8, 4, 10.0
        support = make_support([2, 3], M)
        basis = dft_columns(M, support.indices)
        rng = np.random.default_rng(5)
        worse = 0
        for _ in range(50):
            h = sample_channel(support, 1.0, rng)
            field = dmrs_field(h[None, :], np.array([0]), tau_p, snr, rng)
            pm = pm_estimate(field, 0, snr)
            sp = sp_estimate(pm, basis)
            worse += np.linalg.norm(sp - h) > np.linalg.norm(pm - h)
        assert worse == 0  # projection removes the out-of-subspace noise

    def test_orthogonal_contaminator_vanishes(self):
        M, tau_p, snr = 8, 4, 1e12
        desired = make_support([1, 2], M)
        contam = make_support([5, 6], M)  # disjoint DFT support
        rng = np.random.default_rng(6)
        h_k = sample_channel(desired, 1.0, rng)
        h_i = sample_channel(contam, 1.0, rng)
        field = dmrs_field(np.array([h_k, h_i]), np.array([0, 0]), tau_p, snr,
                           _ZeroNoise())
        sp = sp_estimate(pm_estimate(field, 0, snr), dft_columns(M, desired.indices))
        assert np.linalg.norm(sp - h_k) < 1e-10

    def test_idempotent(self):
        M = 8
        basis = dft_columns(M, [0, 4])
        rng = np.random.default_rng(7)
        field = dmrs_field(rng.standard_normal((2, M)) + 0j, np.array([0, 1]),
                           3, 2.0, rng)
        pm = pm_estimate(field, 0, 2.0)
        once = sp_estimate(pm, basis)
        twice = sp_estimate(once, basis)
        assert np.allclose(once, twice, atol=1e-14)


class TestContaminationCovariance:
    def test_disjoint_supports_zero(self):
        sigma = contamination_covariance(
            dft_columns(8, [0, 1]), [(dft_columns(8, [3, 4]), 2.0),
                                     (dft_columns(8, [6]), 1.0)])
        assert np.max(np.abs(sigma)) < 1e-10

    def test_identical_supports_closed_form(self):
        basis = dft_columns(8, [2, 5])
        betas = [1.5, 0.5]
        sigma = contamination_covariance(basis, [(basis, b) for b in betas])
        P = basis @ basis.conj().T
        expected = sum(b * 8 / 2 for b in betas) * P
        assert np.allclose(sigma, expected, atol=1e-12)

    def test_psd_and_hermitian(self):
        rng = np.random.default_rng(8)
        basis_k = dft_columns(8, [0, 1, 2])
        copilots = []
        for _ in range(3):
            idx = np.sort(rng.choice(8, size=2, replace=False))
            copilots.append((dft_columns(8, idx), float(rng.uniform(0.1, 2.0))))
        sigma = contamination_covariance(basis_k, copilots)
        assert np.allclose(sigma, sigma.conj().T)
        assert np.linalg.eigvalsh(sigma).min() > -1e-12

    def test_matches_monte_carlo(self):
        # moderate draw count here; the acceptance suite runs the 1e5 version
        M = 8
        desired = make_support([1, 2, 3], M)
        others = [make_support([2, 3, 4], M), make_support([0, 7], M)]
        betas = [2.0, 0.7]
        basis_k = dft_columns(M, desired.indices)
        P = basis_k @ basis_k.conj().T
        rng = np.random.default_rng(9)
        n = 20000
        acc = np.zeros((M, M), dtype=complex)
        for _ in range(n):
            contam = sum(sample_channel(s, b, rng) for s, b in zip(others, betas))
            proj = P @ contam
            acc += np.outer(proj, proj.conj())
        emp = acc / n
        target = contamination_covariance(
            basis_k, [(dft_columns(M, s.indices), b) for s, b in zip(others, betas)])
        assert np.linalg.norm(emp - target) / np.linalg.norm(target) < 0.05
