"""Inverse-RTF, MVDR and max-SNR (GEV) beamformers with BAN normalization.

All per-frequency-bin computations are independent; functions take stacked
(bins, ...) arrays whose channel 0 is the reference channel, are pure, and
run as a few batched numpy calls over bins rather than a Python loop:

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
  Warsitz & Haeb-Umbach (IEEE TASLP 2007): every bin is whitened by the
  Cholesky factor L of its noise covariance and all bins are solved by one
  batched `eigh` of the Hermitian problem L^-1 speech_cov L^-H. Each noise
  covariance is first loaded by the lowest rung of one diagonal-loading
  ladder that lifts its smallest eigenvalue (from one batched `eigvalsh`)
  clear of the rounding of an M x M Cholesky factorization:
  lam_min + load > 4 M (M + 1) eps (lam_max + load). Above that margin the
  factorization cannot fail (Demmel 1989; Higham, Accuracy and Stability of
  Numerical Algorithms, ch. 10), so all bins are factored by one batched
  `cholesky`. A bin that no rung lifts is whitened by the identity, i.e. it
  takes the speech covariance's top eigenpair.

A GEV bin whose mask (or complement) sums to zero has no speech/noise
contrast: both covariances are the sample covariance and the pencil is the
identity. Such a bin enters the one `solve_max_snr` call with the identity
as its noise matrix (rung 0, not counted as loaded), so it takes the
principal eigenvector of its sample covariance, which makes the beam
independent of the input scale, and is counted as degenerate.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeError
from .rtf import reciprocal_rtf
from .stft import _in_order, bin_chunks
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


def sample_covariance(bins, weights=None) -> np.ndarray:
    """Unnormalized per-bin sum of weighted outer products
    sum_l w_l x_l x_l^H = conj((w conj(x))^T x), (K, M, M), for (K, L)
    frame weights w; None weights every frame by 1.

    The weighted conjugate copy of x is made a chunk of bins at a time
    (`stft.bin_chunks`, run by `stft._in_order`), so a long block makes no
    full-size temporary; each bin is one `matmul`, so chunks do not change bits.
    """
    x = np.asarray(bins)
    n_bins, n_frames, n_ch = x.shape
    cov = np.empty((n_bins, n_ch, n_ch), dtype=x.dtype)

    def chunk(part):
        weighted = np.conj(x[part])
        if weights is not None:
            weighted *= weights[part, :, None]
        np.conj(weighted.transpose(0, 2, 1) @ x[part], out=cov[part])

    _in_order(chunk, bin_chunks(n_bins, n_frames))
    return cov


def _hermitize(mats: np.ndarray) -> np.ndarray:
    return 0.5 * (mats + np.conj(mats.transpose(0, 2, 1)))


def irtf_weights(inv_rtf: np.ndarray) -> np.ndarray:
    """Average of inverse-RTF-aligned channels: u = (1/M) sum_i g_i^{-1} x_i.

    Returns (K, M) weights, stored conjugated so the u = w^H x application
    contract realizes that sum. For a single active channel this is the
    identity.
    """
    return np.conj(inv_rtf) / inv_rtf.shape[1]


def blocking_matrix(inv_rtf: np.ndarray) -> np.ndarray:
    """Target-blocking matrix per bin, shape (K, M-1, M).

    Row r pairs the reference channel 0 (coefficient -1) with channel r + 1
    scaled by its inverse RTF, so each row annihilates the target's spatial
    image when the inverse RTF is exact.
    """
    n_bins, n_ch = inv_rtf.shape
    if n_ch < 2:
        raise SizeError("blocking matrix needs >= 2 channels")
    rows = np.arange(n_ch - 1)
    bmat = np.zeros((n_bins, n_ch - 1, n_ch), dtype=np.complex128)
    bmat[:, rows, 0] = -1.0
    bmat[:, rows, rows + 1] = inv_rtf[:, 1:]
    return bmat


def noise_projection(bins, inv_rtf: np.ndarray):
    """Per-bin map from the microphones to their blocked least-squares noise.

    The blocking matrix output v = B x contains only noise; the noise as
    observed on the microphones is recovered per frame by the least-squares
    projection P v with P = Cxx B^H (B Cxx B^H)^{-1}, so the noise estimate
    of frame x is (P B) x. Ill-conditioned (B Cxx B^H) bins receive diagonal
    loading instead of raising.

    The noise covariance (P B) Cxx per bin has rank <= M - 1. It is an
    unnormalized sum over frames; downstream formulas are scale-invariant.

    Arguments:
        bins: complex STFT tensor (K, L, M)
        inv_rtf: (K, M) inverse RTFs, as `rtf.build_rtf_set` returns them

    Returns (P B (K, M, M), noise covariance (K, M, M), count of loaded bins).
    """
    x = np.asarray(bins)
    n_bins, _, n_ch = x.shape
    if n_ch < 2:
        raise SizeError("noise estimation needs >= 2 channels")
    if inv_rtf.shape[1] != n_ch:
        raise SizeError(f"inverse RTFs have {inv_rtf.shape[1]} channels, spectrogram has {n_ch}")

    cxx = sample_covariance(x)
    bmat = blocking_matrix(inv_rtf)
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
    return proj_b, noise_cov, n_loaded


def mvdr_weights(noise_cov: np.ndarray, inv_rtf: np.ndarray):
    """Distortionless minimum-variance weights from the rank-deficient noise covariance.

    w = (C+ g) / (g^H C+ g) with C+ the Moore-Penrose pseudoinverse, so
    w^H g = 1 per bin. C+ is applied through one eigendecomposition
    C = V diag(lam) V^H: eigenvalues with |lam| <= PINV_RCOND * max |lam|
    are dropped, and the largest eigenvalue of C+ is the largest kept 1/lam.
    The steering vectors g are the (K, M) RTFs, the regularized reciprocals
    of `inv_rtf` (`rtf.reciprocal_rtf`). Bins whose denominator vanishes
    (steering vector in the null space, or an all-zero covariance) fall back
    to the inverse-RTF weights.

    Returns ((K, M) weights, count of fallback bins).
    """
    rtf = reciprocal_rtf(inv_rtf)
    n_bins, n_ch = rtf.shape
    if np.shape(noise_cov) != (n_bins, n_ch, n_ch):
        raise SizeError(
            f"noise covariance {np.shape(noise_cov)} does not match {n_bins} bins x {n_ch} channels"
        )
    lam, vecs = np.linalg.eigh(noise_cov)
    mag = np.abs(lam)
    keep = mag > PINV_RCOND * mag.max(axis=1, keepdims=True)
    inv_lam = np.where(keep, 1.0 / np.where(keep, lam, 1.0), 0.0)
    coef = inv_lam * (np.conj(vecs.transpose(0, 2, 1)) @ rtf[:, :, None])[:, :, 0]
    num = (vecs @ coef[:, :, None])[:, :, 0]  # C+ g
    den = (np.conj(rtf) * num).sum(axis=1).real

    eig_max = inv_lam.max(axis=1)
    floor = MVDR_DEN_GUARD * eig_max * (np.conj(rtf) * rtf).sum(axis=1).real
    degenerate = den <= floor

    weights = np.empty_like(num)
    ok = ~degenerate
    weights[ok] = num[ok] / den[ok, None]
    if np.any(degenerate):
        weights[degenerate] = irtf_weights(inv_rtf[degenerate])
    return weights, int(np.count_nonzero(degenerate))


def masked_covariances(bins, mask):
    """Speech covariance weighted by the mask and noise covariance weighted by
    its complement, each averaged over frames.

    Bins where the mask (or its complement) sums to zero cannot be averaged;
    they are replaced by the plain per-frame average of x x^H and flagged.
    A spectrogram with no frames raises SizeError. Both sums are
    `sample_covariance` with the frame weights w and 1 - w.

    Returns (speech cov, noise cov, degenerate flags), covs (K, M, M).
    """
    x = np.asarray(bins)
    n_bins, n_frames, _ = x.shape
    if n_frames == 0:
        raise SizeError("masked covariances need at least one frame")
    w = checked_mask(mask, (n_bins, n_frames))

    w_noise = 1.0 - w
    sum_speech = w.sum(axis=1)
    sum_noise = w_noise.sum(axis=1)
    degenerate = (sum_speech <= MASK_SUM_FLOOR) | (sum_noise <= MASK_SUM_FLOOR)
    speech = sample_covariance(x, w)
    noise = sample_covariance(x, w_noise)

    # the two weights add up to one, so for a degenerate bin the two sums add
    # up to the plain sum of x x^H
    speech[degenerate] += noise[degenerate]
    noise[degenerate] = speech[degenerate]
    sum_speech[degenerate] = n_frames
    sum_noise[degenerate] = n_frames
    speech /= sum_speech[:, None, None]
    noise /= sum_noise[:, None, None]
    return _hermitize(speech), _hermitize(noise), degenerate


# Diagonal loadings of the noise covariance, relative to max(trace / M, 1);
# each bin takes the lowest rung that clears the Cholesky margin.
_GEV_LADDER = np.array([0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4])


def solve_max_snr(speech_cov: np.ndarray, noise_cov: np.ndarray):
    """Maximal generalized eigenpair of (speech cov, noise cov) per bin.

    Returns (eigvectors (K, M) with unit norm, eigenvalues (K,), count of
    bins whose noise matrix was loaded or replaced by I). Each noise matrix
    is loaded by the first rung r of the loading ladder with
    lam_min + load_r > tau (lam_max + load_r), tau = 4 M (M + 1) eps, from
    one batched eigvalsh. That margin keeps the one batched Cholesky of the
    loaded matrices from failing; a bin that no rung lifts keeps L = I, so
    it takes the speech covariance's top eigenpair.
    """
    n_ch = noise_cov.shape[1]
    eye = np.eye(n_ch)
    loads = np.maximum(np.einsum("kii->k", noise_cov).real / n_ch, 1.0)[:, None] * _GEV_LADDER
    eigs = np.linalg.eigvalsh(noise_cov)
    tau = 4 * n_ch * (n_ch + 1) * np.finfo(np.float64).eps
    # the rule holds from its first rung up, so the rung is the count of rungs below
    rung = np.count_nonzero(eigs[:, :1] + loads <= tau * (eigs[:, -1:] + loads), axis=1)
    chol = np.broadcast_to(eye, noise_cov.shape).astype(noise_cov.dtype)
    todo = np.flatnonzero(rung < len(_GEV_LADDER))
    chol[todo] = np.linalg.cholesky(noise_cov[todo] + loads[todo, rung[todo], None, None] * eye)
    inv_chol = np.linalg.inv(chol)
    inv_chol_h = np.conj(inv_chol.transpose(0, 2, 1))
    w, v = np.linalg.eigh(_hermitize(inv_chol @ speech_cov @ inv_chol_h))
    vecs = (inv_chol_h @ v[:, :, -1:])[:, :, 0]
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs, w[:, -1], int(np.count_nonzero(rung))


def _fix_phase(vecs: np.ndarray) -> np.ndarray:
    """Rotate each vector so its reference component 0 is real nonnegative."""
    anchor = vecs[:, 0].copy()
    tiny = anchor == 0
    if np.any(tiny):
        alt = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=1)[:, None], axis=1)[:, 0]
        anchor[tiny] = alt[tiny]
    mag = np.abs(anchor)
    phase = np.where(mag > 0, anchor / np.where(mag > 0, mag, 1.0), 1.0)
    return vecs * np.conj(phase)[:, None]


def gev_weights(bins, mask):
    """Max-SNR weights with the blind analytic normalization gain.

    Solves speech_cov w = lambda noise_cov w for the maximal eigenvalue per
    bin from mask-weighted covariance estimates, normalizes ||w|| = 1, and
    fixes the arbitrary phase by making the reference component real
    nonnegative. A bin with a degenerate mask takes the principal
    eigenvector of its sample covariance.

    Returns ((K, M) weights, (K,) BAN gain, count of degenerate bins, count
    of the other bins whose noise covariance was loaded).
    """
    x = np.asarray(bins)
    n_ch = x.shape[2]
    if n_ch < 2:
        raise SizeError("the max-SNR beamformer needs >= 2 channels")
    speech_cov, noise_cov, degenerate = masked_covariances(x, mask)
    # degenerate bins are whitened by I; their BAN gain reads noise_cov
    whitening = np.where(degenerate[:, None, None], np.eye(n_ch), noise_cov)
    vecs, _, n_loaded = solve_max_snr(speech_cov, whitening)
    vecs = _fix_phase(vecs)

    noise_w = np.einsum("kmn,kn->km", noise_cov, vecs)
    num = np.einsum("km,km->k", np.conj(noise_w), noise_w).real  # w^H C C^H w
    den = np.einsum("km,km->k", np.conj(vecs), noise_w).real  # w^H C w
    ban = np.ones_like(den)
    ok = den > 0
    ban[ok] = np.sqrt(num[ok] / n_ch) / den[ok]

    return vecs, ban, int(np.count_nonzero(degenerate)), n_loaded


def apply_weights(weights: np.ndarray, bins) -> np.ndarray:
    """Beamformer output u(k, l) = w(k)^H x(k, l) for (K, M) weights.

    Returns a single-channel complex spectrogram (K, L).
    """
    x = np.asarray(bins)
    if x.ndim != 3 or x.shape[0] != weights.shape[0] or x.shape[2] != weights.shape[1]:
        raise SizeError(f"weights {weights.shape} do not match spectrogram {x.shape}")
    return (x @ np.conj(weights)[:, :, None])[:, :, 0]
