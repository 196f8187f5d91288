import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from blockbeam.beamform import (
    PINV_RCOND,
    apply_weights,
    blocking_matrix,
    gev_weights,
    irtf_weights,
    masked_covariances,
    mvdr_weights,
    noise_projection,
    sample_covariance,
    solve_max_snr,
)
from blockbeam.errors import ConfigError, SizeError
from blockbeam.evalsim import MixtureSpec, delay_firs, pink_noise, simulate, speech_like_source
from blockbeam.pipeline import PipelineConfig
from blockbeam.stft import analyze, bin_chunks
from reference import estimate_noise, masked_covariances_one_shot, sample_covariance_one_shot


def random_bins(n_bins, n_frames, n_ch, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_bins, n_frames, n_ch)) + 1j * rng.standard_normal(
        (n_bins, n_frames, n_ch)
    )


def rtf_from_inverse(inv_rtf):
    """RTFs from inverse RTFs by the regularized reciprocal."""
    return np.conj(inv_rtf) / (np.abs(inv_rtf) ** 2 + 1e-6)


def random_inverse_rtf(n_bins, n_ch, seed, ref=0):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_bins, n_ch)) + 1j * rng.standard_normal((n_bins, n_ch))
    g += np.sign(g.real) * 0.5  # keep magnitudes away from zero
    g[:, ref] = 1.0
    return g


def hermitian_psd(n_bins, n_ch, seed, rank=None):
    rng = np.random.default_rng(seed)
    rank = n_ch if rank is None else rank
    a = rng.standard_normal((n_bins, n_ch, rank)) + 1j * rng.standard_normal((n_bins, n_ch, rank))
    return a @ np.conj(a.transpose(0, 2, 1))


def svd_pseudoinverse(mats, rcond=1e-8):
    """Independent oracle: explicit SVD reconstruction with a relative cutoff."""
    out = np.zeros_like(mats)
    for k in range(mats.shape[0]):
        u, s, vh = np.linalg.svd(mats[k])
        keep = s > rcond * s[0]
        s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
        out[k] = vh.conj().T @ np.diag(s_inv) @ u.conj().T
    return out


class TestIrtfWeights:
    def test_identical_channels_pass_through(self):
        bins = random_bins(8, 10, 1, 0)
        x = np.concatenate([bins, bins, bins], axis=2)
        out = apply_weights(irtf_weights(np.ones((8, 3), dtype=complex)), x)
        assert np.allclose(out, bins[:, :, 0], atol=1e-12)

    def test_anechoic_target_recovered_exactly(self):
        # x = g s + noise built in the frequency domain with exact RTFs
        rng = np.random.default_rng(1)
        n_bins, n_frames = 16, 12
        s = rng.standard_normal((n_bins, n_frames)) + 1j * rng.standard_normal((n_bins, n_frames))
        inv_rtf = random_inverse_rtf(n_bins, 2, 2)
        g = 1.0 / inv_rtf
        noise = 0.1 * random_bins(n_bins, n_frames, 2, 3)
        x = g[:, None, :] * s[:, :, None] + noise
        out = apply_weights(irtf_weights(inv_rtf), x)
        noise_part = np.mean(inv_rtf[:, None, :] * noise, axis=2)
        assert np.allclose(out, s + noise_part, atol=1e-10)

    def test_free_field_equals_delay_and_sum(self):
        # directly coded delay-and-sum comparison in free-field conditions
        n_bins, n_frames, n_ch = 257, 9, 4
        delays = np.array([0, 2, 5, 7])
        k = np.arange(n_bins)[:, None]
        inv_rtf = np.exp(1j * 2 * np.pi * k * delays[None, :] / 512)
        x = random_bins(n_bins, n_frames, n_ch, 4)
        out = apply_weights(irtf_weights(inv_rtf), x)

        dsb = np.zeros((n_bins, n_frames), dtype=complex)
        for ch in range(n_ch):
            advance = np.exp(1j * 2 * np.pi * np.arange(n_bins) * delays[ch] / 512)
            dsb += advance[:, None] * x[:, :, ch]
        dsb /= n_ch
        assert np.allclose(out, dsb, atol=1e-10)

    def test_single_channel_identity(self):
        x = random_bins(8, 5, 1, 5)
        out = apply_weights(irtf_weights(np.ones((8, 1), dtype=complex)), x)
        assert np.allclose(out, x[:, :, 0])


class TestBlockingMatrix:
    def test_two_channel_structure(self):
        inv_rtf = np.ones((4, 2), dtype=complex)
        bmat = blocking_matrix(inv_rtf)
        assert bmat.shape == (4, 1, 2)
        assert np.allclose(bmat[:, 0, 0], -1.0)
        assert np.allclose(bmat[:, 0, 1], 1.0)

    def test_blocks_exact_reciprocal_steering(self):
        inv_rtf = random_inverse_rtf(32, 4, 6)
        g = 1.0 / inv_rtf
        bmat = blocking_matrix(inv_rtf)
        residual = np.einsum("krm,km->kr", bmat, g)
        assert np.max(np.abs(residual)) < 1e-12

    def test_nonzero_ref_column(self):
        # microphone 1 as the reference, ordered first
        inv_rtf = random_inverse_rtf(8, 3, 7, ref=1)[:, [1, 0, 2]]
        bmat = blocking_matrix(inv_rtf)
        assert np.allclose(bmat[:, :, 0], -1.0)
        g = 1.0 / inv_rtf
        assert np.max(np.abs(np.einsum("krm,km->kr", bmat, g))) < 1e-12

    def test_needs_two_channels(self):
        with pytest.raises(SizeError, match=">= 2 channels"):
            blocking_matrix(np.ones((4, 1), dtype=complex))


class TestEstimateNoise:
    def test_pure_target_gives_zero(self):
        rng = np.random.default_rng(8)
        n_bins, n_frames = 16, 20
        inv_rtf = random_inverse_rtf(n_bins, 3, 9)
        s = rng.standard_normal((n_bins, n_frames)) + 1j * rng.standard_normal((n_bins, n_frames))
        x = (1.0 / inv_rtf)[:, None, :] * s[:, :, None]
        noise_est, _, _ = estimate_noise(x, inv_rtf)
        assert np.max(np.abs(noise_est)) < 1e-10 * np.max(np.abs(x))

    def test_matches_least_squares_oracle(self):
        # pure noise, exact inverse RTFs: the per-frame estimate must agree
        # with an explicit lstsq solve of (B Cxx B^H) z = B x
        n_bins, n_frames, n_ch = 8, 50, 3
        x = random_bins(n_bins, n_frames, n_ch, 10)
        inv_rtf = random_inverse_rtf(n_bins, n_ch, 11)
        noise_est, _, n_loaded = estimate_noise(x, inv_rtf)
        assert n_loaded == 0

        bmat = blocking_matrix(inv_rtf)
        for k in range(n_bins):
            cxx = x[k].T @ np.conj(x[k])
            gram = bmat[k] @ cxx @ bmat[k].conj().T
            for l in range(0, n_frames, 7):
                v = bmat[k] @ x[k, l]
                z, *_ = np.linalg.lstsq(gram, v, rcond=None)
                expected = cxx @ bmat[k].conj().T @ z
                assert np.allclose(noise_est[k, l], expected, rtol=1e-9, atol=1e-9)

    def test_noise_cov_hermitian_rank_deficient(self):
        x = random_bins(16, 60, 4, 12)
        _, c, _ = estimate_noise(x, random_inverse_rtf(16, 4, 13))
        assert np.allclose(c, np.conj(c.transpose(0, 2, 1)), atol=1e-10)
        eigs = np.linalg.eigvalsh(c)
        assert np.all(eigs[:, 0] <= 1e-8 * eigs[:, -1])  # rank <= M-1
        assert np.all(eigs[:, 0] > -1e-8 * eigs[:, -1])  # positive semidefinite

    def test_silent_block_does_not_raise(self):
        x = np.zeros((4, 30, 3), dtype=complex)
        noise_est, _, _ = estimate_noise(x, np.ones((4, 3), dtype=complex))
        assert np.all(noise_est == 0)

    def test_needs_two_channels(self):
        x = random_bins(4, 10, 1, 14)
        with pytest.raises(SizeError):
            estimate_noise(x, np.ones((4, 1), dtype=complex))

    def test_channel_count_mismatch_rejected(self):
        x = random_bins(4, 10, 3, 15)
        with pytest.raises(SizeError, match="inverse RTFs have 2 channels, spectrogram has 3"):
            noise_projection(x, np.ones((4, 2), dtype=complex))


class TestMvdrWeights:
    def test_distortionless_on_random_rank_deficient(self):
        n_bins, n_ch = 64, 4
        cov = hermitian_psd(n_bins, n_ch, 15, rank=n_ch - 1)
        inv_rtf = random_inverse_rtf(n_bins, n_ch, 16)
        rtf = rtf_from_inverse(inv_rtf)
        w, n_fallback = mvdr_weights(cov, inv_rtf)
        gains = np.einsum("km,km->k", np.conj(w), rtf)
        assert np.max(np.abs(gains - 1.0)) < 1e-8
        assert n_fallback == 0

    def test_pseudoinverse_matches_svd_oracle(self):
        mats = hermitian_psd(32, 4, 17, rank=3)
        oracle = svd_pseudoinverse(mats)
        from blockbeam.beamform import PINV_RCOND

        mine = np.linalg.pinv(mats, rcond=PINV_RCOND, hermitian=True)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(mine - oracle)) < 1e-9 * scale

    def test_matches_loaded_full_inverse_in_the_limit(self):
        # on a full-rank covariance, the pseudoinverse weights are the limit
        # of classic (C + eps I)^{-1}-based weights as the loading vanishes
        n_bins, n_ch = 16, 3
        cov_mat = hermitian_psd(n_bins, n_ch, 18)
        inv_rtf = random_inverse_rtf(n_bins, n_ch, 19)
        rtf = rtf_from_inverse(inv_rtf)
        w, _ = mvdr_weights(cov_mat, inv_rtf)

        errs = []
        for eps in (1e-4, 1e-6, 1e-8):
            loaded = cov_mat + eps * np.eye(n_ch)
            num = np.linalg.solve(loaded, rtf[..., None])[..., 0]
            den = np.einsum("km,km->k", np.conj(rtf), num)
            w_loaded = num / den[:, None]
            errs.append(np.max(np.abs(w_loaded - w)) / np.max(np.abs(w)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6

    def test_degenerate_bin_falls_back_to_irtf(self):
        n_bins, n_ch = 4, 3
        cov_mat = hermitian_psd(n_bins, n_ch, 20, rank=2)
        cov_mat[2] = 0.0  # zero covariance: denominator vanishes
        inv_rtf = random_inverse_rtf(n_bins, n_ch, 21)
        w, n_fallback = mvdr_weights(cov_mat, inv_rtf)
        assert n_fallback == 1
        assert np.allclose(w[2], np.conj(inv_rtf[2]) / n_ch)

    def test_wrong_shape_noise_cov_rejected(self):
        inv_rtf = np.ones((4, 2), dtype=complex)
        for shape in [(4, 3, 3), (5, 2, 2), (4, 2)]:
            with pytest.raises(SizeError):
                mvdr_weights(np.zeros(shape, dtype=complex), inv_rtf)


class TestGevWeights:
    def test_identity_noise_reduces_to_principal_eigenvector(self):
        n_bins, n_ch = 16, 3
        speech = hermitian_psd(n_bins, n_ch, 22)
        noise = np.broadcast_to(np.eye(n_ch), (n_bins, n_ch, n_ch)).copy().astype(complex)
        vecs, vals, _ = solve_max_snr(speech, noise)
        for k in range(n_bins):
            evals, evecs = np.linalg.eigh(speech[k])
            principal = evecs[:, -1]
            alignment = np.abs(np.vdot(principal, vecs[k]))
            assert alignment == pytest.approx(1.0, abs=1e-10)
            assert vals[k] == pytest.approx(evals[-1], rel=1e-10)

    def test_matches_dense_eig_oracle(self):
        # brute force: eigendecomposition of inv(Cyy) Css with tiny loading
        n_bins, n_ch = 24, 4
        speech = hermitian_psd(n_bins, n_ch, 23)
        noise = hermitian_psd(n_bins, n_ch, 24) + 0.1 * np.eye(n_ch)
        vecs, vals, _ = solve_max_snr(speech, noise)
        for k in range(n_bins):
            mat = np.linalg.inv(noise[k] + 1e-12 * np.eye(n_ch)) @ speech[k]
            evals, evecs = np.linalg.eig(mat)
            top = np.argmax(evals.real)
            principal = evecs[:, top]
            alignment = np.abs(np.vdot(principal, vecs[k])) / np.linalg.norm(principal)
            assert alignment == pytest.approx(1.0, abs=1e-8)
            assert vals[k] == pytest.approx(evals[top].real, rel=1e-8)

    def test_generalized_eigen_residual(self):
        speech = hermitian_psd(32, 4, 25)
        noise = hermitian_psd(32, 4, 26) + 0.05 * np.eye(4)
        vecs, vals, _ = solve_max_snr(speech, noise)
        residual = np.einsum("kmn,kn->km", speech, vecs) - vals[:, None] * np.einsum(
            "kmn,kn->km", noise, vecs
        )
        norms = np.linalg.norm(speech, axis=(1, 2))
        assert np.all(np.linalg.norm(residual, axis=1) <= 1e-8 * norms)

    def test_output_snr_beats_canonical_vectors(self):
        speech = hermitian_psd(16, 3, 27)
        noise = hermitian_psd(16, 3, 28) + 0.05 * np.eye(3)
        vecs, _, _ = solve_max_snr(speech, noise)
        snr_w = np.einsum("km,kmn,kn->k", np.conj(vecs), speech, vecs).real / np.einsum(
            "km,kmn,kn->k", np.conj(vecs), noise, vecs
        ).real
        for i in range(3):
            snr_e = speech[:, i, i].real / noise[:, i, i].real
            assert np.all(snr_w >= snr_e - 1e-9 * np.abs(snr_e))

    def test_noise_scaling_leaves_direction(self):
        speech = hermitian_psd(8, 3, 29)
        noise = hermitian_psd(8, 3, 30) + 0.05 * np.eye(3)
        v1, l1, _ = solve_max_snr(speech, noise)
        v2, l2, _ = solve_max_snr(speech, 4.0 * noise)
        align = np.abs(np.einsum("km,km->k", np.conj(v1), v2))
        assert np.allclose(align, 1.0, atol=1e-9)
        assert np.allclose(l2, l1 / 4.0, rtol=1e-9)

    def test_masked_covariances_weighting(self):
        x = random_bins(4, 6, 2, 31)
        mask = np.random.default_rng(32).uniform(0.1, 0.9, (4, 6))
        speech, noise, degen = masked_covariances(x, mask)
        assert not degen.any()
        k = 2
        w = mask[k]
        manual = np.einsum("l,lm,ln->mn", w, x[k], np.conj(x[k])) / w.sum()
        assert np.allclose(speech[k], manual, atol=1e-12)

    def test_degenerate_mask_substitutes_sample_average(self):
        x = random_bins(4, 6, 2, 33)
        values = np.random.default_rng(34).uniform(0.2, 0.8, (4, 6))
        values[1, :] = 1.0  # no noise frames at bin 1
        speech, noise, degen = masked_covariances(x, values)
        assert degen[1] and not degen[0]
        expected = sample_covariance(x)[1] / 6
        assert np.allclose(noise[1], expected)
        _, _, n_degenerate, _ = gev_weights(x, values)
        assert n_degenerate == 1

    def test_ban_gain_formula(self):
        x = random_bins(8, 24, 3, 35)
        mask = np.random.default_rng(36).uniform(0.05, 0.95, (8, 24))
        w, ban_gain, _, _ = gev_weights(x, mask)
        _, noise, _ = masked_covariances(x, mask)
        for k in range(8):
            vec = w[k]
            num = np.sqrt((np.conj(vec) @ noise[k] @ noise[k].conj().T @ vec).real / 3)
            den = (np.conj(vec) @ noise[k] @ vec).real
            assert ban_gain[k] == pytest.approx(num / den, rel=1e-9)

    def test_phase_fixed_reference_component(self):
        # microphone 1 as the reference, ordered first
        x = random_bins(8, 24, 3, 37)[:, :, [1, 0, 2]]
        mask = np.random.default_rng(38).uniform(0.05, 0.95, (8, 24))
        w, _, _, _ = gev_weights(x, mask)
        anchor = w[:, 0]
        assert np.all(anchor.real >= -1e-12)
        assert np.allclose(anchor.imag, 0.0, atol=1e-10)

    def test_phase_fixed_on_largest_component_when_reference_is_zero(self):
        # a reference channel that is silent in one bin gives that bin's
        # beam no reference component; the phase is then fixed on the
        # component of largest magnitude
        x = random_bins(8, 24, 3, 40)
        x[5, :, 0] = 0.0
        mask = np.random.default_rng(41).uniform(0.05, 0.95, (8, 24))
        w, _, _, _ = gev_weights(x, mask)
        assert w[5, 0] == 0
        assert np.linalg.norm(w[5]) == pytest.approx(1.0, abs=1e-12)
        largest = w[5, np.argmax(np.abs(w[5]))]
        assert largest.real > 0
        assert abs(largest.imag) <= 1e-12 * abs(largest)

    def test_needs_two_channels(self):
        with pytest.raises(SizeError):
            gev_weights(random_bins(4, 10, 1, 39), np.ones((4, 10)))

    @pytest.mark.parametrize("alpha", [1e-30, 1e-10, 1e10, 1e30])
    def test_all_degenerate_mask_is_scale_invariant(self, alpha):
        # with a ones mask every bin is degenerate; the beam must then follow
        # the data (principal eigenvector), not the rounding of an identity
        # pencil, and the BAN gain is a ratio of equal powers of the scale
        rng = np.random.default_rng(24)
        dry = speech_like_source(1.7, 16000, rng)
        spec = MixtureSpec(channel_count=4, firs=delay_firs([0, 2, 5, 7])[np.newaxis], snr_db=5.0)
        sim = simulate(spec, dry, pink_noise(4, dry.shape[0], rng))
        x = analyze(sim.mixture.samples[:, :13184])
        ones = np.ones(x.shape[:2])
        w, ban_gain, n_degenerate, _ = gev_weights(x, ones)
        w_scaled, ban_scaled, _, _ = gev_weights(alpha * x, ones)
        assert n_degenerate == x.shape[0]
        assert np.linalg.norm(w_scaled - w) <= 1e-9 * np.linalg.norm(w)
        assert np.linalg.norm(ban_scaled - ban_gain) <= 1e-9 * np.linalg.norm(ban_gain)


class TestApplyWeights:
    def test_one_hot_selects_channel(self):
        x = random_bins(8, 5, 3, 40)
        w = np.zeros((8, 3), dtype=complex)
        w[:, 1] = 1.0
        out = apply_weights(w, x)
        assert np.array_equal(out, x[:, :, 1])

    def test_linearity(self):
        x = random_bins(8, 5, 3, 41)
        w = random_bins(8, 1, 3, 42)[:, 0, :]
        assert np.allclose(apply_weights(w, 2.5j * x), 2.5j * apply_weights(w, x), atol=1e-12)

    def test_mvdr_distortionless_on_synthetic_mixture(self):
        # mixture built from the steering vectors the weights are computed
        # against: the target component of the output equals s exactly
        rng = np.random.default_rng(43)
        n_bins, n_frames, n_ch = 16, 40, 3
        inv_rtf = random_inverse_rtf(n_bins, n_ch, 44)
        rtf = rtf_from_inverse(inv_rtf)
        s = rng.standard_normal((n_bins, n_frames)) + 1j * rng.standard_normal((n_bins, n_frames))
        noise = 0.3 * random_bins(n_bins, n_frames, n_ch, 45)
        x = rtf[:, None, :] * s[:, :, None] + noise

        _, noise_cov, _ = estimate_noise(x, inv_rtf)
        w, _ = mvdr_weights(noise_cov, inv_rtf)
        out = apply_weights(w, x)
        target_component = np.einsum("km,km->k", np.conj(w), rtf)[:, None] * s
        assert np.allclose(target_component, s, atol=1e-8 * np.abs(s).max())
        noise_component = apply_weights(w, noise)
        assert np.allclose(out, s + noise_component, atol=1e-8)

    def test_ban_without_gain_rejected(self):
        # only GEV weights come with a BAN gain, so the configuration is
        # rejected before the first block gets enhanced
        for beamformer in ("irtf", "mvdr"):
            with pytest.raises(ConfigError, match="ban"):
                PipelineConfig(beamformer=beamformer, postfilter="ban")

    def test_shape_mismatch(self):
        w = np.ones((4, 2), dtype=complex)
        with pytest.raises(SizeError):
            apply_weights(w, random_bins(4, 3, 3, 49))


# ---------------------------------------------------------------------------
# Batched kernels against their per-bin / einsum formulations.

_REFERENCE_LOADINGS = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4)


def reference_solve_max_snr(speech_cov, noise_cov):
    """Per-bin generalized eigensolver with the diagonal-loading ladder: one
    scipy.linalg.eigh(a, b) per bin, loading b on failure."""
    n_bins, n_ch, _ = speech_cov.shape
    vecs = np.empty((n_bins, n_ch), dtype=np.complex128)
    vals = np.empty(n_bins)
    eye = np.eye(n_ch)
    for k in range(n_bins):
        a, b = speech_cov[k], noise_cov[k]
        try:
            w, v = scipy.linalg.eigh(a, b)
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
            scale = max(np.trace(b).real / n_ch, 1.0)
            for eps in _REFERENCE_LOADINGS:
                try:
                    w, v = scipy.linalg.eigh(a, b + eps * scale * eye)
                    break
                except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
                    continue
            else:
                w, v = np.linalg.eigh(a)
        vecs[k] = v[:, -1]
        vals[k] = w[-1]
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs, vals


def reference_mvdr(noise_cov, steer):
    """MVDR numerator, denominator and guard from np.linalg.pinv plus a
    second eigvalsh of the pseudoinverse."""
    pinv = np.linalg.pinv(noise_cov, rcond=PINV_RCOND, hermitian=True)
    pinv = 0.5 * (pinv + np.conj(pinv.transpose(0, 2, 1)))
    num = np.einsum("kmn,kn->km", pinv, steer)
    den = np.einsum("km,km->k", np.conj(steer), num).real
    eig_max = np.linalg.eigvalsh(pinv)[:, -1]
    return num, den, eig_max


def relative_error(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def noise_bin(kind, n_ch, rng):
    """One noise covariance: positive definite, singular with a dead
    channel, indefinite, or all zero."""
    a = rng.standard_normal((n_ch, n_ch)) + 1j * rng.standard_normal((n_ch, n_ch))
    psd = a @ np.conj(a.T)
    if kind == "pd":
        return psd + rng.uniform(1e-3, 1.0) * np.trace(psd).real / n_ch * np.eye(n_ch)
    if kind == "dead":
        dead = rng.integers(n_ch)
        psd[dead, :] = 0.0
        psd[:, dead] = 0.0
        return psd
    if kind == "indefinite":
        eigs = np.linalg.eigvalsh(psd)
        return psd - rng.uniform(eigs[0], eigs[-1]) * np.eye(n_ch)
    return np.zeros((n_ch, n_ch), dtype=complex)


def has_cholesky(mat):
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return False
    return True


class TestBatchedKernels:
    def test_sample_covariance_matches_einsum(self):
        x = random_bins(33, 57, 4, 60)
        expected = np.einsum("klm,kln->kmn", x, np.conj(x))
        assert relative_error(sample_covariance(x), expected) < 1e-12

    def test_masked_covariances_match_einsum(self):
        x = random_bins(33, 57, 4, 61)
        w = np.random.default_rng(62).uniform(0.0, 1.0, (33, 57))
        w[3] = 1.0  # degenerate: no noise frames
        w[5] = 0.0  # degenerate: no speech frames
        speech, noise, degen = masked_covariances(x, w)
        exp_speech = np.einsum("kl,klm,kln->kmn", w, x, np.conj(x))
        exp_speech /= np.maximum(w.sum(axis=1), 1e-300)[:, None, None]
        exp_noise = np.einsum("kl,klm,kln->kmn", 1.0 - w, x, np.conj(x))
        exp_noise /= np.maximum((1.0 - w).sum(axis=1), 1e-300)[:, None, None]
        sample = np.einsum("klm,kln->kmn", x, np.conj(x)) / 57
        exp_speech[[3, 5]] = sample[[3, 5]]
        exp_noise[[3, 5]] = sample[[3, 5]]
        assert np.flatnonzero(degen).tolist() == [3, 5]
        assert relative_error(speech, exp_speech) < 1e-12
        assert relative_error(noise, exp_noise) < 1e-12

    def test_bin_chunks_match_one_shot_bitwise(self):
        # 1000 frames make chunks of 32 bins; each bin is still one matmul,
        # so the chunked sums equal the one-shot ones bit for bit, also for
        # degenerate masks on both sides of the first chunk edge
        x = random_bins(257, 1000, 4, 64)
        w = np.random.default_rng(65).uniform(0.0, 1.0, (257, 1000))
        edge = bin_chunks(257, 1000)[1].start
        assert edge == 32
        # the last chunk would hold the one bin 256; it joins the one before
        assert bin_chunks(257, 1000)[-1] == slice(224, 257)
        w[edge - 1] = 1.0  # degenerate: no noise frames
        w[edge] = 0.0  # degenerate: no speech frames
        assert np.array_equal(sample_covariance(x), sample_covariance_one_shot(x))
        # the weighted kernel that masked_covariances calls for w and 1 - w
        assert np.array_equal(sample_covariance(x, w), sample_covariance_one_shot(x, w))
        assert np.array_equal(sample_covariance(x, 1.0 - w), sample_covariance_one_shot(x, 1.0 - w))
        got = masked_covariances(x, w)
        expected = masked_covariances_one_shot(x, w)
        assert np.flatnonzero(got[2]).tolist() == [edge - 1, edge]
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)

    def test_short_block_is_one_chunk(self):
        assert bin_chunks(257, 128) == [slice(0, 257)]
        assert len(bin_chunks(257, 1)) == 1

    def test_no_frames(self):
        # an empty sum is zero, but an average over no frames is undefined
        assert np.array_equal(sample_covariance(np.zeros((5, 0, 3))), np.zeros((5, 3, 3)))
        with pytest.raises(SizeError):
            masked_covariances(np.zeros((5, 0, 3)), np.zeros((5, 0)))
        with pytest.raises(SizeError):
            gev_weights(np.zeros((5, 0, 3)), np.zeros((5, 0)))

    def test_estimate_noise_matches_einsum(self):
        n_bins, n_frames, n_ch = 33, 57, 4
        # microphone 2 as the reference, ordered first
        order = [2, 0, 1, 3]
        x = random_bins(n_bins, n_frames, n_ch, 63)[:, :, order]
        inv_rtf = random_inverse_rtf(n_bins, n_ch, 64, ref=2)[:, order]
        noise_est, noise_cov, n_loaded = estimate_noise(x, inv_rtf)

        cxx = np.einsum("klm,kln->kmn", x, np.conj(x))
        bmat = blocking_matrix(inv_rtf)
        cxx_bh = cxx @ np.conj(bmat.transpose(0, 2, 1))
        proj = cxx_bh @ np.linalg.inv(bmat @ cxx_bh)
        expected = np.einsum("kmp,kpn,kln->klm", proj, bmat, x)
        expected_cov = proj @ bmat @ cxx
        expected_cov = 0.5 * (expected_cov + np.conj(expected_cov.transpose(0, 2, 1)))
        assert n_loaded == 0
        assert relative_error(noise_est, expected) < 1e-12
        assert relative_error(noise_cov, expected_cov) < 1e-12

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_mvdr_weights_match_pinv_construction(self, rank):
        n_bins, n_ch = 48, 4
        noise_cov = hermitian_psd(n_bins, n_ch, 65 + rank, rank=rank)
        noise_cov[7] = 0.0
        inv_rtf = random_inverse_rtf(n_bins, n_ch, 70 + rank)
        rtf = rtf_from_inverse(inv_rtf)
        num, den, eig_max = reference_mvdr(noise_cov, rtf)
        floor = 1e-12 * eig_max * np.sum(np.abs(rtf) ** 2, axis=1)
        degenerate = den <= floor
        expected = np.conj(inv_rtf) / n_ch
        expected[~degenerate] = num[~degenerate] / den[~degenerate, None]

        w, n_fallback = mvdr_weights(noise_cov, inv_rtf)
        assert n_fallback == int(np.count_nonzero(degenerate)) >= 1
        assert relative_error(w, expected) < 1e-9

    @settings(max_examples=80)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_ch=st.integers(2, 6),
        kinds=st.lists(st.sampled_from(["pd", "dead", "indefinite", "zero"]), min_size=0, max_size=12),
    )
    def test_solve_max_snr_matches_per_bin_reference(self, seed, n_ch, kinds):
        rng = np.random.default_rng(seed)
        kinds = ["pd", "dead", "indefinite"] + kinds
        speech = hermitian_psd(len(kinds), n_ch, rng.integers(2**32))
        noise = np.stack([noise_bin(kind, n_ch, rng) for kind in kinds])

        vecs, vals, n_loaded = solve_max_snr(speech, noise)
        ref_vecs, ref_vals = reference_solve_max_snr(speech, noise)

        # the dead and the indefinite bin at least have no Cholesky factor,
        # and exactly the bins without one are loaded
        assert sum(not has_cholesky(mat) for mat in noise) >= 2
        assert n_loaded == sum(not has_cholesky(mat) for mat in noise)
        alignment = np.abs(np.einsum("km,km->k", np.conj(ref_vecs), vecs))
        assert np.all(alignment >= 1.0 - 1e-9)
        assert np.all(np.abs(vals - ref_vals) <= 1e-9 * np.abs(ref_vals))

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_ch=st.integers(2, 8),
        log_scale=st.floats(-150.0, 150.0),
        duplicated=st.booleans(),
    )
    def test_solve_max_snr_near_singular_noise_follows_margin_rule(self, seed, n_ch, log_scale, duplicated):
        # noise covariances at lam_min / lam_max = +-1e-18 ... 1e-10, or from
        # frames with a duplicated channel, at scales 1e-150 ... 1e150: the one
        # batched Cholesky must not fail, and exactly the bins whose smallest
        # eigenvalue is not above 4 M (M + 1) eps times the largest are loaded
        rng = np.random.default_rng(seed)
        n_bins, scale = 64, 10.0**log_scale
        if duplicated:
            frames = random_bins(n_bins, n_ch + 3, n_ch, rng.integers(2**32))
            frames[:, :, 1] = frames[:, :, 0]
            noise = np.einsum("klm,kln->kmn", frames, np.conj(frames))
        else:
            q = np.linalg.qr(random_bins(n_bins, n_ch, n_ch, rng.integers(2**32)))[0]
            lam = rng.uniform(0.01, 1.0, (n_bins, n_ch))
            lam[:, -1] = 1.0
            lam[:, 0] = rng.choice([-1.0, 1.0], n_bins) * 10.0 ** rng.uniform(-18, -10, n_bins)
            noise = (q * lam[:, None, :]) @ np.conj(q.transpose(0, 2, 1))
        noise = 0.5 * (noise + np.conj(noise.transpose(0, 2, 1))) * scale
        speech = hermitian_psd(n_bins, n_ch, rng.integers(2**32)) * scale

        vecs, vals, n_loaded = solve_max_snr(speech, noise)

        assert np.all(np.isfinite(vecs)) and np.all(np.isfinite(vals))
        assert np.allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-12)
        eigs = np.linalg.eigvalsh(noise)
        tau = 4 * n_ch * (n_ch + 1) * np.finfo(np.float64).eps
        assert n_loaded == np.count_nonzero(eigs[:, 0] <= tau * eigs[:, -1])

    def test_duplicated_channel_block_is_factored_by_one_cholesky(self, monkeypatch):
        # every noise covariance of a block with a copied channel is singular;
        # the rung of every bin is known before the one batched factorization
        x = random_bins(257, 100, 4, 76)
        x[:, :, 2] = x[:, :, 1]
        speech, noise, degenerate = masked_covariances(x, np.random.default_rng(77).uniform(0.0, 1.0, (257, 100)))
        assert not degenerate.any()
        calls = []
        cholesky = np.linalg.cholesky

        def spy(a):
            calls.append(a.shape)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        _, _, n_loaded = solve_max_snr(speech, noise)
        assert calls == [(257, 4, 4)]
        assert n_loaded == 257

    @pytest.mark.parametrize("mixed", [False, True], ids=["all-ones", "mixed"])
    def test_degenerate_gev_bin_takes_principal_eigenvector(self, mixed):
        if mixed:
            # degenerate and solved bins in one block, degenerate ones on
            # both sides of the first chunk edge
            x = random_bins(257, 1000, 3, 75)
            mask = np.random.default_rng(78).uniform(0.0, 1.0, (257, 1000))
            edge = bin_chunks(257, 1000)[1].start
            degenerate = [edge - 2, edge - 1, edge, edge + 1]
            mask[[edge - 2, edge]] = 1.0
            mask[[edge - 1, edge + 1]] = 0.0
        else:
            x = random_bins(6, 20, 3, 75)
            mask = np.ones((6, 20))
            degenerate = list(range(6))
        w, ban, n_degenerate, n_loaded = gev_weights(x, mask)
        assert n_degenerate == len(degenerate)
        # the identity that whitens a degenerate bin is not a loading
        assert n_loaded == 0
        for k in degenerate:
            principal = np.linalg.eigh(x[k].T @ np.conj(x[k]))[1][:, -1]
            assert abs(np.vdot(principal, w[k])) == pytest.approx(1.0, abs=1e-12)
        solved = np.setdiff1d(np.arange(len(x)), degenerate)
        speech, noise, _ = masked_covariances(x[solved], mask[solved])
        expected = solve_max_snr(speech, noise)[0]
        assert np.allclose(np.abs(np.einsum("km,km->k", np.conj(expected), w[solved])), 1.0, rtol=0, atol=1e-12)
        assert np.all(np.isfinite(ban)) and np.all(ban > 0)
