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


def dmrs_field(channels: np.ndarray, pilots: np.ndarray, tau_p: int, snr: float,
               rng: np.random.Generator) -> np.ndarray:
    """Pilot field at one RU: sum_i h_i phi_{t_i}^H plus unit-variance noise.

    Returns the (M, tau_p) received field. ``channels`` holds the K local
    channel vectors as rows (K, M); every UE in the network contributes,
    associated with this RU or not.
    """
    pilots = np.asarray(pilots, dtype=int)
    if np.any(pilots < 0) or np.any(pilots >= tau_p):
        raise ValueError("pilot indices must lie in [0, tau_p)")
    book = pilot_book(tau_p, snr)
    K, M = channels.shape
    noise = (rng.standard_normal((M, tau_p)) + 1j * rng.standard_normal((M, tau_p))) \
        / np.sqrt(2.0)
    return channels.T @ book[:, pilots].conj().T + noise


def pm_estimate(field: np.ndarray, t_k: int, snr: float) -> np.ndarray:
    """Pilot-matching estimate: correlate an (M, tau_p) field with pilot t_k.

    Equals the true channel plus the channels of all co-pilot users plus noise
    of per-component variance 1 / (tau_p * snr).
    """
    tau_p = field.shape[1]
    if not 0 <= t_k < tau_p:
        raise ValueError("t_k out of range")
    return field @ pilot_book(tau_p, snr)[:, t_k] / (tau_p * snr)


def sp_estimate(estimate: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a PM estimate onto a subspace basis."""
    return basis @ (basis.conj().T @ estimate)


def contamination_covariance(basis_k: np.ndarray, copilots) -> np.ndarray:
    """Covariance of the co-pilot contamination after subspace projection.

    ``copilots`` is a sequence of (basis_i, beta_i) for the co-pilot users;
    with P = B_k B_k^H the result is sum_i (beta_i*M/r_i) P B_i B_i^H P.
    Vanishes when every cross-Gramian B_k^H B_i is zero.
    """
    M = basis_k.shape[0]
    P = basis_k @ basis_k.conj().T
    sigma = np.zeros((M, M), dtype=complex)
    for basis_i, beta_i in copilots:
        r_i = basis_i.shape[1]
        PB = P @ basis_i
        sigma += beta_i * M / r_i * (PB @ PB.conj().T)
    return sigma
