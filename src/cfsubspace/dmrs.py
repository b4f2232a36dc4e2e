"""DMRS pilot field simulation and instantaneous channel estimation.

Per resource block each UE sends an orthogonal pilot of energy tau_p * snr;
the RU correlates its received M x tau_p field with a pilot to get the pilot
matching (PM) estimate, which carries the channels of all co-pilot users as
contamination. Projecting onto the (true or estimated) channel subspace
suppresses whatever contamination lives outside it.
"""

from functools import lru_cache

import numpy as np

from .channel import dft_matrix


@lru_cache(maxsize=8)
def pilot_book(tau_p: int, snr: float) -> np.ndarray:
    """tau_p orthogonal pilots as scaled DFT columns, each with energy tau_p*snr.

    Column t is the pilot vector phi_t. Built once per (tau_p, snr) and shared
    read-only.
    """
    book = np.sqrt(tau_p * snr) * dft_matrix(tau_p)
    book.flags.writeable = False
    return book


def dmrs_field(channels: np.ndarray, pilot_rows: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
    """Pilot fields at RUs: sum_i h_i phi_{t_i}^H plus unit-variance noise.

    ``channels`` holds one RU's K local channel vectors as rows (K, M), or a
    stack of RUs (..., K, M); every UE in the network contributes, associated
    with the RU or not. Returns the (..., M, tau_p) received fields, whose
    noise is one Gaussian draw: RU by RU, real parts then imaginary parts,
    so a stack gets the bits of one call per RU in stack order. ``pilot_rows``
    holds the conjugated pilots phi_{t_i}^H as rows (K, tau_p), in
    :func:`ergodic_rates` built and checked once per layout as
    ``pilot_book(tau_p, snr)[:, t].conj().T``.
    """
    M, tau_p = channels.shape[-1], pilot_rows.shape[1]
    z = rng.standard_normal(channels.shape[:-2] + (2, M, tau_p))
    field = channels.swapaxes(-1, -2) @ pilot_rows
    field += (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / np.sqrt(2.0)
    return field


def pm_estimate(fields: np.ndarray, pilots: np.ndarray, snr: float) -> np.ndarray:
    """Pilot-matching estimates: correlate (..., M, tau_p) fields with pilots.

    ``pilots`` holds pilot vectors of :func:`pilot_book` as columns
    (..., tau_p, n), giving (..., M, n) estimates, or is one (tau_p,) pilot
    vector, giving (..., M). Each estimate equals the true channel plus the
    channels of all co-pilot users plus noise of per-component variance
    1 / (tau_p * snr).
    """
    return (1.0 / (fields.shape[-1] * snr)) * (fields @ pilots)


def sp_estimate(estimates: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Orthogonal projections of (..., M) estimates onto (..., M, r) bases,
    B (B^H x) per estimate x."""
    return (bases @ (bases.conj().swapaxes(-1, -2) @ estimates[..., None]))[..., 0]
