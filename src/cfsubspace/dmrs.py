"""DMRS pilot field simulation and instantaneous channel estimation.

Per resource block each UE sends an orthogonal pilot of energy tau_p * snr;
the RU correlates its received M x tau_p field with a pilot to get the pilot
matching (PM) estimate, which carries the channels of all co-pilot users as
contamination. Projecting onto the (true or estimated) channel subspace
suppresses whatever contamination lives outside it.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass
class DmrsField:
    """Received pilot field at one RU plus the pilot book that produced it."""

    matrix: np.ndarray  # (M, tau_p) complex
    book: np.ndarray    # (tau_p, tau_p), column t = pilot vector phi_t
    tau_p: int
    snr: float


@dataclass
class ChannelEstimate:
    vector: np.ndarray
    kind: str          # "pm" | "sp" | "ideal"
    pair: tuple | None = None


@lru_cache(maxsize=8)
def pilot_book(tau_p: int, snr: float) -> np.ndarray:
    """tau_p orthogonal pilots as scaled DFT columns, each with energy tau_p*snr.

    Built once per (tau_p, snr) and shared read-only.
    """
    t = np.arange(tau_p)
    unitary = np.exp(-2j * np.pi * np.outer(t, t) / tau_p) / np.sqrt(tau_p)
    book = np.sqrt(tau_p * snr) * unitary
    book.flags.writeable = False
    return book


def dmrs_field(channels: np.ndarray, pilots: np.ndarray, tau_p: int, snr: float,
               rng: np.random.Generator) -> DmrsField:
    """Pilot field at one RU: sum_i h_i phi_{t_i}^H plus unit-variance noise.

    ``channels`` holds the K local channel vectors as rows (K, M); every UE in
    the network contributes, associated with this RU or not.
    """
    pilots = np.asarray(pilots, dtype=int)
    if np.any(pilots < 0) or np.any(pilots >= tau_p):
        raise ValueError("pilot indices must lie in [0, tau_p)")
    book = pilot_book(tau_p, snr)
    K, M = channels.shape
    noise = (rng.standard_normal((M, tau_p)) + 1j * rng.standard_normal((M, tau_p))) \
        / np.sqrt(2.0)
    Y = channels.T @ book[:, pilots].conj().T + noise
    return DmrsField(matrix=Y, book=book, tau_p=tau_p, snr=snr)


def pm_estimate(field: DmrsField, t_k: int, pair=None) -> ChannelEstimate:
    """Pilot-matching estimate: correlate the field with pilot t_k.

    Equals the true channel plus the channels of all co-pilot users plus noise
    of per-component variance 1 / (tau_p * snr).
    """
    if not 0 <= t_k < field.tau_p:
        raise ValueError("t_k out of range")
    v = field.matrix @ field.book[:, t_k] / (field.tau_p * field.snr)
    return ChannelEstimate(vector=v, kind="pm", pair=pair)


def sp_estimate(estimate: ChannelEstimate, basis: np.ndarray) -> ChannelEstimate:
    """Orthogonal projection of a PM estimate onto a subspace basis."""
    v = basis @ (basis.conj().T @ estimate.vector)
    return ChannelEstimate(vector=v, kind="sp", pair=estimate.pair)


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
