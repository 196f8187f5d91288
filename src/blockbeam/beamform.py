"""Inverse-RTF, MVDR and max-SNR (GEV) beamformers with BAN normalization.

All per-frequency-bin computations are independent; functions take stacked
(bins, ...) arrays, are pure, and run as a few batched numpy calls over bins
rather than a Python loop:

- covariances and the blocking-matrix noise estimate are batched `matmul`s
  (the noise estimate is x (P B)^T with P the least-squares projection);
- the pipeline never forms that (K, L, M) noise estimate: the projection
  P B (`noise_projection`) is billed to its `noise_est` stage, and the
  Wiener filter's residual w^H (P B) x, taken as the single product
  x ((P B)^T conj(w)) (`postfilter.projected_residual`), to its `postfilter`
  stage;
- the MVDR pseudoinverse and its largest eigenvalue come from one batched
  `eigh` of the noise covariance;
- the max-SNR problem speech_cov w = lambda noise_cov w is solved as in
  Warsitz & Haeb-Umbach (IEEE TASLP 2007): one batched `eigvalsh` flags noise
  covariances that are not positive definite, every other bin is whitened by
  its batched Cholesky factor L and solved as the Hermitian problem
  L^-1 speech_cov L^-H. Only flagged bins (and bins whose Cholesky fails)
  go through the per-bin generalized solver with its diagonal-loading ladder.

A GEV bin whose mask (or complement) sums to zero has no speech/noise
contrast: both covariances are the sample covariance and the pencil is the
identity. Such a bin takes the principal eigenvector of its sample
covariance, which makes the beam independent of the input scale, and is
counted in `fallback_bins`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigError, SizeError
from .rtf import RtfSet
from .vad import checked_mask

# Relative condition cutoff below which B Cxx B^H gets diagonal loading.
NOISE_COV_RCOND = 1e-10
NOISE_COV_LOADING = 1e-6

# Singular values below this fraction of the largest are treated as zero in
# the pseudoinverse of the rank-deficient noise covariance.
PINV_RCOND = 1e-8

# Distortionless denominators at or below this relative floor trigger the
# inverse-RTF fallback for the affected bin.
MVDR_DEN_GUARD = 1e-12

# Sums of a mask at or below this are degenerate (no speech or no noise frames).
MASK_SUM_FLOOR = np.finfo(np.float64).tiny


@dataclass
class BeamWeights:
    """Per-frequency steering vectors; the output is u = w^H x."""

    weights: np.ndarray  # (bins, channels) complex
    method: str  # "irtf" | "mvdr" | "gev"
    ban_gain: np.ndarray | None = None  # (bins,) real, GEV only
    fallback_bins: int = 0


@dataclass
class CovarianceSet:
    """The blocking-matrix noise covariance per bin, shape (bins, channels,
    channels), with rank <= channels - 1. It is an unnormalized sum over
    frames; downstream formulas are scale-invariant."""

    noise_est: np.ndarray | None = None
    loaded_bins: int = 0


def sample_covariance(bins) -> np.ndarray:
    """Unnormalized per-bin sum of outer products, (K, M, M)."""
    x = np.asarray(bins)
    return x.transpose(0, 2, 1) @ np.conj(x)


def _hermitize(mats: np.ndarray) -> np.ndarray:
    return 0.5 * (mats + np.conj(mats.transpose(0, 2, 1)))


def irtf_weights(rtf: RtfSet) -> BeamWeights:
    """Average of inverse-RTF-aligned channels: u = (1/M) sum_i g_i^{-1} x_i.

    Weights are stored conjugated so the u = w^H x application contract
    realizes that sum. For a single active channel this is the identity.
    """
    m_active = rtf.n_channels
    return BeamWeights(weights=np.conj(rtf.inv_rtf) / m_active, method="irtf")


def blocking_matrix(inv_rtf: np.ndarray, ref: int) -> np.ndarray:
    """Target-blocking matrix per bin, shape (K, M-1, M).

    Row r pairs the reference channel (coefficient -1) with one non-reference
    channel scaled by its inverse RTF, so each row annihilates the target's
    spatial image when the inverse RTF is exact.
    """
    n_bins, n_ch = inv_rtf.shape
    if n_ch < 2:
        raise SizeError("blocking matrix needs >= 2 channels")
    bmat = np.zeros((n_bins, n_ch - 1, n_ch), dtype=np.complex128)
    row = 0
    for ch in range(n_ch):
        if ch == ref:
            continue
        bmat[:, row, ref] = -1.0
        bmat[:, row, ch] = inv_rtf[:, ch]
        row += 1
    return bmat


def noise_projection(bins, rtf: RtfSet):
    """Per-bin map from the microphones to their blocked least-squares noise.

    The blocking matrix output v = B x contains only noise; the noise as
    observed on the microphones is recovered per frame by the least-squares
    projection P v with P = Cxx B^H (B Cxx B^H)^{-1}, so the noise estimate
    of frame x is (P B) x. Ill-conditioned (B Cxx B^H) bins receive diagonal
    loading instead of raising.

    Returns (P B (K, M, M), CovarianceSet).
    """
    x = np.asarray(bins)
    n_bins, _, n_ch = x.shape
    if n_ch < 2:
        raise SizeError("noise estimation needs >= 2 channels")
    if rtf.n_channels != n_ch:
        raise SizeError(f"RTF set has {rtf.n_channels} channels, spectrogram has {n_ch}")

    cxx = sample_covariance(x)
    bmat = blocking_matrix(rtf.inv_rtf, rtf.ref)
    bh = np.conj(bmat.transpose(0, 2, 1))  # (K, M, M-1)
    cxx_bh = cxx @ bh  # (K, M, M-1)
    gram = bmat @ cxx_bh  # B Cxx B^H, (K, M-1, M-1)
    gram = _hermitize(gram)

    eigs = np.linalg.eigvalsh(gram)
    bad = (eigs[:, 0] <= NOISE_COV_RCOND * eigs[:, -1]) | (eigs[:, -1] <= 0.0)
    n_loaded = int(np.count_nonzero(bad))
    if n_loaded:
        trace = np.einsum("kii->k", gram).real
        eps = NOISE_COV_LOADING * trace / (n_ch - 1)
        eps = np.where(trace > 0, eps, 1.0)
        gram = gram + (bad * eps)[:, None, None] * np.eye(n_ch - 1)

    proj = cxx_bh @ np.linalg.inv(gram)  # Cxx B^H (B Cxx B^H)^{-1}, (K, M, M-1)
    proj_b = proj @ bmat  # (K, M, M)
    noise_cov = _hermitize(proj_b @ cxx)
    return proj_b, CovarianceSet(noise_est=noise_cov, loaded_bins=n_loaded)


def estimate_noise(bins, rtf: RtfSet):
    """Blocked least-squares noise estimate (P B) x of every frame and its
    covariance; see `noise_projection`.

    Returns (noise estimate (K, L, M), CovarianceSet).
    """
    x = np.asarray(bins)
    proj_b, cov = noise_projection(x, rtf)
    return x @ proj_b.transpose(0, 2, 1), cov


def mvdr_weights(cov: CovarianceSet, rtf: RtfSet) -> BeamWeights:
    """Distortionless minimum-variance weights from the rank-deficient noise covariance.

    w = (C+ g) / (g^H C+ g) with C+ the Moore-Penrose pseudoinverse, so
    w^H g = 1 per bin. C+ is applied through one eigendecomposition
    C = V diag(lam) V^H: eigenvalues with |lam| <= PINV_RCOND * max |lam|
    are dropped, and the largest eigenvalue of C+ is the largest kept 1/lam.
    Bins whose denominator vanishes (steering vector in the null space, or
    an all-zero covariance) fall back to inverse-RTF weights and are counted
    in fallback_bins.
    """
    if cov.noise_est is None:
        raise SizeError("covariance set lacks the blocking-based noise covariance")
    steer = rtf.rtf
    lam, vecs = np.linalg.eigh(cov.noise_est)
    mag = np.abs(lam)
    keep = mag > PINV_RCOND * mag.max(axis=1, keepdims=True)
    inv_lam = np.where(keep, 1.0 / np.where(keep, lam, 1.0), 0.0)
    coef = inv_lam * (np.conj(vecs.transpose(0, 2, 1)) @ steer[:, :, None])[:, :, 0]
    num = (vecs @ coef[:, :, None])[:, :, 0]  # C+ g
    den = (np.conj(steer) * num).sum(axis=1).real

    eig_max = inv_lam.max(axis=1)
    floor = MVDR_DEN_GUARD * eig_max * (np.conj(steer) * steer).sum(axis=1).real
    degenerate = den <= floor

    weights = np.empty_like(num)
    ok = ~degenerate
    weights[ok] = num[ok] / den[ok, None]
    if np.any(degenerate):
        weights[degenerate] = np.conj(rtf.inv_rtf[degenerate]) / rtf.n_channels
    return BeamWeights(
        weights=weights, method="mvdr", fallback_bins=int(np.count_nonzero(degenerate))
    )


def masked_covariances(bins, mask):
    """Speech covariance weighted by the mask and noise covariance weighted by
    its complement, each averaged over frames.

    Bins where the mask (or its complement) sums to zero cannot be averaged;
    they are replaced by the plain per-frame average of x x^H and flagged.

    Both weighted sums go through one (K, L, M) buffer holding the weighted
    conjugate frames, so no other full-size temporary is made:
    sum_l w_l x_l x_l^H = conj((w conj(x))^T x).

    Returns (speech cov, noise cov, degenerate flags), covs (K, M, M).
    """
    x = np.asarray(bins)
    n_bins, n_frames, _ = x.shape
    w = checked_mask(mask, (n_bins, n_frames))

    w_noise = 1.0 - w
    sum_speech = w.sum(axis=1)
    sum_noise = w_noise.sum(axis=1)
    degenerate = (sum_speech <= MASK_SUM_FLOOR) | (sum_noise <= MASK_SUM_FLOOR)

    weighted = np.conj(x)
    weighted *= w[:, :, None]
    speech = np.conj(weighted.transpose(0, 2, 1) @ x)
    np.conjugate(x, out=weighted)
    weighted *= w_noise[:, :, None]
    noise = np.conj(weighted.transpose(0, 2, 1) @ x)
    del weighted

    # the two weights add up to one, so for a degenerate bin the two sums add
    # up to the plain sum of x x^H
    speech[degenerate] += noise[degenerate]
    noise[degenerate] = speech[degenerate]
    sum_speech[degenerate] = n_frames
    sum_noise[degenerate] = n_frames
    speech /= sum_speech[:, None, None]
    noise /= sum_noise[:, None, None]
    return _hermitize(speech), _hermitize(noise), degenerate


# Loading ladder applied to the noise covariance when the generalized
# eigensolver rejects it as indefinite.
_GEV_LOADINGS = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4)


def _solve_max_snr_loaded(a: np.ndarray, b: np.ndarray):
    """Maximal generalized eigenpair of one bin, loading b until it is
    positive definite; the speech covariance's own top eigenpair if no
    loading helps."""
    n_ch = a.shape[0]
    try:
        w, v = scipy.linalg.eigh(a, b)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
        scale = max(np.trace(b).real / n_ch, 1.0)
        for eps in _GEV_LOADINGS:
            try:
                w, v = scipy.linalg.eigh(a, b + eps * scale * np.eye(n_ch))
                break
            except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
                continue
        else:
            w, v = np.linalg.eigh(a)
    return v[:, -1], w[-1]


def _batched_cholesky(mats: np.ndarray):
    """Lower Cholesky factors of a stack of matrices, and a flag for each
    matrix whose factorization fails (its factor is left zero)."""
    try:
        return np.linalg.cholesky(mats), np.zeros(len(mats), dtype=bool)
    except np.linalg.LinAlgError:
        chol = np.zeros_like(mats)
        failed = np.zeros(len(mats), dtype=bool)
        for i, mat in enumerate(mats):
            try:
                chol[i] = np.linalg.cholesky(mat)
            except np.linalg.LinAlgError:
                failed[i] = True
        return chol, failed


def solve_max_snr(speech_cov: np.ndarray, noise_cov: np.ndarray):
    """Maximal generalized eigenpair of (speech cov, noise cov) per bin.

    Returns (eigvectors (K, M) with unit norm, eigenvalues (K,)).
    Positive definite noise matrices are whitened by their Cholesky factor
    L and the Hermitian problems L^-1 speech_cov L^-H of all such bins are
    solved by one batched eigh. Bins that eigvalsh finds not positive
    definite, or whose Cholesky factorization fails, are solved one at a
    time with escalating diagonal loading.
    """
    n_bins, n_ch, _ = speech_cov.shape
    vecs = np.empty((n_bins, n_ch), dtype=np.complex128)
    vals = np.empty(n_bins)
    ladder = np.linalg.eigvalsh(noise_cov)[:, 0] <= 0.0
    ok = np.flatnonzero(~ladder)
    chol, failed = _batched_cholesky(noise_cov[ok])
    ladder[ok[failed]] = True
    ok, chol = ok[~failed], chol[~failed]
    inv_chol = np.linalg.inv(chol)
    inv_chol_h = np.conj(inv_chol.transpose(0, 2, 1))
    w, v = np.linalg.eigh(_hermitize(inv_chol @ speech_cov[ok] @ inv_chol_h))
    vecs[ok] = (inv_chol_h @ v[:, :, -1:])[:, :, 0]
    vals[ok] = w[:, -1]
    for k in np.flatnonzero(ladder):
        vecs[k], vals[k] = _solve_max_snr_loaded(speech_cov[k], noise_cov[k])
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs, vals


def _fix_phase(vecs: np.ndarray, component: int) -> np.ndarray:
    """Rotate each vector so the chosen component is real nonnegative."""
    anchor = vecs[:, component].copy()
    tiny = anchor == 0
    if np.any(tiny):
        alt = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=1)[:, None], axis=1)[:, 0]
        anchor[tiny] = alt[tiny]
    mag = np.abs(anchor)
    phase = np.where(mag > 0, anchor / np.where(mag > 0, mag, 1.0), 1.0)
    return vecs * np.conj(phase)[:, None]


def gev_weights(bins, mask, ref_component: int = 0) -> BeamWeights:
    """Max-SNR weights with the blind analytic normalization gain.

    Solves speech_cov w = lambda noise_cov w for the maximal eigenvalue per
    bin from mask-weighted covariance estimates, normalizes ||w|| = 1, and
    fixes the arbitrary phase by making the reference component real
    nonnegative. A bin with a degenerate mask takes the principal
    eigenvector of its sample covariance; fallback_bins counts those bins.
    """
    x = np.asarray(bins)
    if x.shape[2] < 2:
        raise SizeError("the max-SNR beamformer needs >= 2 channels")
    speech_cov, noise_cov, degenerate = masked_covariances(x, mask)
    vecs = np.empty(speech_cov.shape[:2], dtype=np.complex128)
    vecs[~degenerate], _ = solve_max_snr(speech_cov[~degenerate], noise_cov[~degenerate])
    if np.any(degenerate):
        # both covariances are the sample covariance: take its principal axis
        vecs[degenerate] = np.linalg.eigh(speech_cov[degenerate])[1][:, :, -1]
    vecs = _fix_phase(vecs, ref_component)

    n_ch = x.shape[2]
    noise_w = np.einsum("kmn,kn->km", noise_cov, vecs)
    num = np.einsum("km,km->k", np.conj(noise_w), noise_w).real  # w^H C C^H w
    den = np.einsum("km,km->k", np.conj(vecs), noise_w).real  # w^H C w
    ban = np.ones_like(den)
    ok = den > 0
    ban[ok] = np.sqrt(num[ok] / n_ch) / den[ok]

    return BeamWeights(
        weights=vecs,
        method="gev",
        ban_gain=ban,
        fallback_bins=int(np.count_nonzero(degenerate)),
    )


def apply_weights(weights: BeamWeights, bins, use_ban: bool = False) -> np.ndarray:
    """Beamformer output u(k, l) = w(k)^H x(k, l), optionally BAN-scaled.

    Returns a single-channel complex spectrogram (K, L).
    """
    x = np.asarray(bins)
    if x.ndim != 3 or x.shape[0] != weights.weights.shape[0] or x.shape[2] != weights.weights.shape[1]:
        raise SizeError(
            f"weights {weights.weights.shape} do not match spectrogram {x.shape}"
        )
    out = (x @ np.conj(weights.weights)[:, :, None])[:, :, 0]
    if use_ban:
        if weights.ban_gain is None:
            raise ConfigError(f"{weights.method} weights carry no BAN gain")
        out = out * weights.ban_gain[:, None]
    return out
