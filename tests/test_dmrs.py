import numpy as np
import pytest

from cfsubspace.channel import dft_columns
from cfsubspace.dmrs import dmrs_field, pilot_book, pm_estimate, sp_estimate
from oracles import contamination_covariance, make_support, pilot_rows, sample_channel


class _ZeroNoise:
    """Stand-in generator that silences the additive noise draws."""

    @staticmethod
    def standard_normal(size=None):
        return np.zeros(size) if size is not None else 0.0


def pilot(tau_p, snr, t):
    """Pilot vector t of the book, the (tau_p,) form pm_estimate takes."""
    return pilot_book(tau_p, snr)[:, t]


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
        field = dmrs_field(h[None, :], pilot_rows(tau_p, snr, [1]), _ZeroNoise())
        book = pilot_book(tau_p, snr)
        assert np.allclose(field, np.outer(h, book[:, 1].conj()))

    def test_field_energy_grows_with_colocated_users(self):
        # co-located users on one pilot add power linearly
        M, tau_p, snr = 4, 4, 5.0
        rng = np.random.default_rng(1)
        support = make_support([0, 1])
        trials = 4000
        energy = {}
        for n_users in (1, 3):
            acc = 0.0
            rows = pilot_rows(tau_p, snr, np.zeros(n_users, dtype=int))
            for _ in range(trials):
                ch = np.array([sample_channel(M, support, 1.0, rng)
                               for _ in range(n_users)])
                field = dmrs_field(ch, rows, rng)
                acc += np.linalg.norm(field) ** 2
            energy[n_users] = acc / trials
        noise_energy = M * tau_p
        signal_1 = energy[1] - noise_energy
        signal_3 = energy[3] - noise_energy
        assert signal_3 == pytest.approx(3 * signal_1, rel=0.05)


def two_draw_field(channels, pilots, tau_p, snr, rng):
    """Reference: the pilot field with its noise made by two draws, first
    the real parts and then the imaginary parts."""
    book = pilot_book(tau_p, snr)
    K, M = channels.shape
    noise = (rng.standard_normal((M, tau_p)) + 1j * rng.standard_normal((M, tau_p))) \
        / np.sqrt(2.0)
    return channels.T @ book[:, pilots].conj().T + noise


class TestDmrsFieldDraw:
    @pytest.mark.parametrize("K, M, tau_p", [(1, 4, 3), (7, 8, 5), (30, 16, 15)])
    def test_one_draw_matches_two_draws(self, K, M, tau_p):
        rng = np.random.default_rng(K)
        channels = rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M))
        pilots = rng.integers(tau_p, size=K)
        batched, looped = np.random.default_rng(3), np.random.default_rng(3)
        rows = pilot_rows(tau_p, 2.5, pilots)
        for _ in range(2):   # the second call starts from the moved state
            field = dmrs_field(channels, rows, batched)
            ref = two_draw_field(channels, pilots, tau_p, 2.5, looped)
            assert field.shape == (M, tau_p) and field.flags.c_contiguous
            assert field.tobytes() == ref.tobytes()
            assert batched.bit_generator.state == looped.bit_generator.state

    @pytest.mark.parametrize("L, K, M, tau_p", [(1, 7, 8, 5), (3, 1, 4, 3),
                                                (40, 100, 16, 15)])
    def test_stack_matches_per_ru_calls(self, L, K, M, tau_p):
        rng = np.random.default_rng(L + K)
        blocks = rng.standard_normal((L, K, M)) + 1j * rng.standard_normal((L, K, M))
        rows = pilot_rows(tau_p, 2.5, rng.integers(tau_p, size=K))
        stacked, looped = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(2):   # the second call starts from the moved state
            fields = dmrs_field(blocks, rows, stacked)
            ref = np.array([dmrs_field(block, rows, looped) for block in blocks])
            assert fields.shape == (L, M, tau_p) and fields.flags.c_contiguous
            assert fields.tobytes() == ref.tobytes()
            assert stacked.bit_generator.state == looped.bit_generator.state


class TestPmEstimate:
    def test_clean_pilot_recovers_channel(self):
        M, tau_p, snr = 4, 3, 1e16
        rng = np.random.default_rng(2)
        h = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        field = dmrs_field(h[None, :], pilot_rows(tau_p, snr, [0]), rng)
        est = pm_estimate(field, pilot(tau_p, snr, 0), snr)
        assert np.linalg.norm(est - h) < 1e-7

    def test_noise_variance(self):
        M, tau_p, snr = 4, 3, 2.0
        rng = np.random.default_rng(3)
        h = np.zeros((1, M), dtype=complex)  # pure-noise estimate
        rows = pilot_rows(tau_p, snr, [2])
        err = np.array([pm_estimate(dmrs_field(h, rows, rng),
                                    pilot(tau_p, snr, 2), snr)
                        for _ in range(10000)])
        var = np.mean(np.abs(err) ** 2)
        assert var == pytest.approx(1.0 / (tau_p * snr), rel=0.05)

    def test_copilot_bias_is_the_contaminator(self):
        M, tau_p, snr = 4, 3, 7.0
        rng = np.random.default_rng(4)
        h = rng.standard_normal((2, M)) + 1j * rng.standard_normal((2, M))
        field = dmrs_field(h, pilot_rows(tau_p, snr, [1, 1]), _ZeroNoise())
        est = pm_estimate(field, pilot(tau_p, snr, 1), snr)
        assert np.allclose(est - h[0], h[1])

    def test_stacked_fields_and_pilot_columns(self):
        # the (L, M, tau_p) fields against (L, tau_p, n) pilot columns, as
        # ergodic_rates correlates every RU with the pilots of its users
        L, M, tau_p, n, snr = 3, 16, 7, 4, 3.7
        rng = np.random.default_rng(11)
        fields = rng.standard_normal((L, M, tau_p)) + 1j * rng.standard_normal((L, M, tau_p))
        t = rng.integers(0, tau_p, (L, n))
        pilots = pilot_book(tau_p, snr)[:, t].transpose(1, 0, 2)
        stacked = pm_estimate(fields, pilots, snr)
        assert stacked.shape == (L, M, n)
        for l, j in np.ndindex(L, n):
            np.testing.assert_allclose(
                stacked[l, :, j], pm_estimate(fields[l], pilot(tau_p, snr, t[l, j]), snr),
                rtol=1e-12, atol=0)
        # the scaled product ergodic_rates formed inline before it called this
        assert stacked.tobytes() == ((1.0 / (tau_p * snr)) * (fields @ pilots)).tobytes()


class TestSpEstimate:
    def test_projection_reduces_clean_error(self):
        M, tau_p, snr = 8, 4, 10.0
        support = make_support([2, 3])
        basis = dft_columns(M, support)
        rng = np.random.default_rng(5)
        worse = 0
        for _ in range(50):
            h = sample_channel(M, support, 1.0, rng)
            field = dmrs_field(h[None, :], pilot_rows(tau_p, snr, [0]), rng)
            pm = pm_estimate(field, pilot(tau_p, snr, 0), snr)
            sp = sp_estimate(pm, basis)
            worse += np.linalg.norm(sp - h) > np.linalg.norm(pm - h)
        assert worse == 0  # projection removes the out-of-subspace noise

    def test_orthogonal_contaminator_vanishes(self):
        M, tau_p, snr = 8, 4, 1e12
        desired = make_support([1, 2])
        contam = make_support([5, 6])  # disjoint DFT support
        rng = np.random.default_rng(6)
        h_k = sample_channel(M, desired, 1.0, rng)
        h_i = sample_channel(M, contam, 1.0, rng)
        field = dmrs_field(np.array([h_k, h_i]), pilot_rows(tau_p, snr, [0, 0]),
                           _ZeroNoise())
        sp = sp_estimate(pm_estimate(field, pilot(tau_p, snr, 0), snr),
                         dft_columns(M, desired))
        assert np.linalg.norm(sp - h_k) < 1e-10

    def test_idempotent(self):
        M = 8
        basis = dft_columns(M, [0, 4])
        rng = np.random.default_rng(7)
        field = dmrs_field(rng.standard_normal((2, M)) + 0j, pilot_rows(3, 2.0, [0, 1]),
                           rng)
        pm = pm_estimate(field, pilot(3, 2.0, 0), 2.0)
        once = sp_estimate(pm, basis)
        twice = sp_estimate(once, basis)
        assert np.allclose(once, twice, atol=1e-14)

    def test_stacked_estimates_and_bases(self):
        M, n = 8, 5
        rng = np.random.default_rng(12)
        estimates = rng.standard_normal((n, M)) + 1j * rng.standard_normal((n, M))
        bases = dft_columns(M, np.array([np.sort(rng.choice(M, 3, replace=False))
                                         for _ in range(n)]))
        stacked = sp_estimate(estimates, bases)
        assert stacked.shape == (n, M)
        for i in range(n):
            np.testing.assert_allclose(stacked[i], sp_estimate(estimates[i], bases[i]),
                                       rtol=1e-12, atol=0)
        # the projection ergodic_rates formed inline before it called this
        x = estimates[:, :, None]
        inline = (bases @ (bases.conj().swapaxes(1, 2) @ x))[:, :, 0]
        assert stacked.tobytes() == inline.tobytes()


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
        desired = make_support([1, 2, 3])
        others = [make_support([2, 3, 4]), make_support([0, 7])]
        betas = [2.0, 0.7]
        basis_k = dft_columns(M, desired)
        P = basis_k @ basis_k.conj().T
        rng = np.random.default_rng(9)
        n = 20000
        acc = np.zeros((M, M), dtype=complex)
        for _ in range(n):
            contam = sum(sample_channel(M, s, b, rng) for s, b in zip(others, betas))
            proj = P @ contam
            acc += np.outer(proj, proj.conj())
        emp = acc / n
        target = contamination_covariance(
            basis_k, [(dft_columns(M, s), b) for s, b in zip(others, betas)])
        assert np.linalg.norm(emp - target) / np.linalg.norm(target) < 0.05
