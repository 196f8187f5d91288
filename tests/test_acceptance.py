"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them as they complete)."""

import time

import numpy as np
import pytest
import scipy.signal

from blockbeam.audio_io import MultichannelSignal
from blockbeam.beamform import PINV_RCOND, blocking_matrix, solve_max_snr
from blockbeam.evalsim import (
    MixtureSpec,
    _gated_envelope,
    decaying_firs,
    delay_firs,
    evaluate_blockwise,
    evaluate_estimate,
    pink_noise,
    simulate,
    speech_like_source,
    true_rtfs,
    white_noise,
)
from blockbeam.pipeline import (
    OracleStems,
    PipelineConfig,
    partition_frames,
    process_block,
    run,
    run_with_diagnostics,
)
from blockbeam.postfilter import LOW_GAIN, VAD_THRESHOLD, wiener_mask
from blockbeam.rtf import _closed_form, build_rtf_set
from blockbeam.stft import BIN_FREQS, N_BINS, analyze, frame_span, synthesize
from blockbeam.vad import oracle_ibm
from reference import estimate_noise

FS = 16000


def check(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {description}: {status}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


# ---------------------------------------------------------------- fixtures

def static_mixture(seed, duration=3.2, snr_db=5.0):
    """Criterion-8 scenario: static anechoic 4-channel source in pink noise."""
    rng = np.random.default_rng(seed)
    dry = speech_like_source(duration, FS, rng)
    firs = delay_firs([0, 2, 5, 7])
    spec = MixtureSpec(channel_count=4, firs=firs[np.newaxis], snr_db=snr_db)
    return simulate(spec, dry, pink_noise(4, dry.shape[0], rng))


def enhance(sim, beamformer, postfilter, block_frames=100, vad="oracle"):
    cfg = PipelineConfig(
        block_frames=block_frames,
        beamformer=beamformer,
        postfilter=postfilter,
        vad_mode=vad,
    )
    oracle = OracleStems(clean=sim.clean, noise=sim.noise) if vad == "oracle" else None
    return run(sim.mixture, cfg, oracle=oracle)


def scores(sim, enhanced):
    n = enhanced.n_samples
    return evaluate_estimate(enhanced.samples[0], sim.clean.samples[0][:n], sim.noise.samples[:, :n])


def windowed_sir(sim, enhanced, window=12800):
    n = enhanced.n_samples
    aggregate, _ = evaluate_blockwise(
        enhanced.samples[0], sim.clean.samples[0][:n], sim.noise.samples[:, :n], window=window
    )
    return aggregate.sir_db


# ---------------------------------------------------------------- criteria

def test_criterion_01_stft_round_trip():
    rng = np.random.default_rng(0)
    sig = MultichannelSignal(rng.uniform(-1, 1, size=(4, 2 * FS)), FS)
    start = time.perf_counter()
    rec = synthesize(analyze(sig.samples))
    elapsed = time.perf_counter() - start
    interior = slice(512, rec.shape[1] - 512)
    err = np.linalg.norm(rec[:, interior] - sig.samples[:, interior])
    ref = np.linalg.norm(sig.samples[:, interior])
    rel = err / ref
    check(
        1,
        "STFT round trip, 2 s 4-channel, interior error < 1e-10",
        rel < 1e-10 and elapsed < 1.0,
        f"rel={rel:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_rtf_closed_form_vs_oracle():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        n_sub = int(rng.integers(2, 26))
        cross = rng.standard_normal(n_sub) + 1j * rng.standard_normal(n_sub)
        auto = rng.uniform(0.5, 2.0, n_sub)
        closed = _closed_form(cross[None, :], auto[None, :])[0][0]
        design = np.column_stack([auto.astype(complex), np.ones(n_sub, dtype=complex)])
        coef, *_ = np.linalg.lstsq(design, cross, rcond=None)
        rel = abs(closed - coef[0]) / max(abs(coef[0]), 1e-300)
        worst = max(worst, rel)
    check(2, "closed-form inverse RTF vs normal equations, 1000 instances", worst < 1e-9, f"worst rel={worst:.2e}")


def band_limited_source(duration_s, sample_rate, rng, band=(120.0, 3200.0), pause_prob=0.5):
    """Nonstationary source that is spectrally flat inside the given band.

    Band-passed white noise gated by a random gain that changes every 80 ms
    (one RTF sub-block): per-bin SNR is then roughly uniform across the band,
    which makes estimator accuracy comparable between frequency bins.
    """
    n = int(round(duration_s * sample_rate))
    env = _gated_envelope(n, sample_rate, rng, pause_prob, 0.05)
    sos = scipy.signal.butter(4, band, btype="bandpass", fs=sample_rate, output="sos")
    x = scipy.signal.sosfilt(sos, rng.standard_normal(n)) * env
    return x / np.max(np.abs(x))


def _pooled_phase_error(seed, snr_db, n_blocks=6, delay=12):
    rng = np.random.default_rng(seed)
    dry = band_limited_source(0.1 + 0.824 * n_blocks, FS, rng)
    firs = delay_firs([0, delay])
    sim = simulate(MixtureSpec(channel_count=2, firs=firs[np.newaxis], snr_db=snr_db), dry, pink_noise(2, dry.shape[0], rng))
    spec = analyze(sim.mixture.samples)
    clean_spec = analyze(sim.clean.samples)
    noise_spec = analyze(sim.noise.samples)
    truth = true_rtfs(firs)[1][:, 1]
    errs = []
    for b in range(n_blocks):
        frames = slice(b * 100, b * 100 + 100)
        mask = oracle_ibm(clean_spec[:, frames, 1], noise_spec[:, frames, 1], 5.0)
        g_inv = build_rtf_set(spec[:, frames], mask)[0][:, 1]
        errs.append(np.abs(np.angle(g_inv[4:101] * np.conj(truth[4:101]))))
    return float(np.median(np.concatenate(errs)))


def test_criterion_03_rtf_accuracy_and_graceful_degradation():
    start = time.perf_counter()
    err20 = _pooled_phase_error(1000, 20.0)
    err5 = _pooled_phase_error(1000, 5.0)
    elapsed = time.perf_counter() - start
    ok = err20 < 0.05 and err5 < 3.0 * err20 and elapsed < 10.0
    check(
        3,
        "RTF phase error (20 dB) < 0.05 rad and 5 dB error < 3x",
        ok,
        f"err20={err20:.4f}, err5={err5:.4f}, ratio={err5 / err20:.2f}, {elapsed:.1f}s",
    )


def test_criterion_04_mvdr_distortionless_and_pinv_oracle():
    rng = np.random.default_rng(2)
    n_ch = 4
    worst_gain = 0.0
    worst_pinv = 0.0
    for _ in range(1000):
        a = rng.standard_normal((n_ch, n_ch - 1)) + 1j * rng.standard_normal((n_ch, n_ch - 1))
        cov = a @ a.conj().T  # rank M-1
        steer = rng.standard_normal(n_ch) + 1j * rng.standard_normal(n_ch)

        pinv = np.linalg.pinv(cov[None], rcond=PINV_RCOND, hermitian=True)[0]
        u, s, vh = np.linalg.svd(cov)
        keep = s > PINV_RCOND * s[0]
        s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
        oracle = vh.conj().T @ np.diag(s_inv) @ u.conj().T
        worst_pinv = max(worst_pinv, np.max(np.abs(pinv - oracle)) / np.max(np.abs(oracle)))

        num = pinv @ steer
        den = (steer.conj() @ num).real
        w = num / den
        worst_gain = max(worst_gain, abs(np.conj(w) @ steer - 1.0))
    check(
        4,
        "MVDR w^H g = 1 (1e-8) and pinv vs SVD oracle (1e-9), 1000 instances",
        worst_gain < 1e-8 and worst_pinv < 1e-9,
        f"|w^Hg-1|={worst_gain:.2e}, pinv dev={worst_pinv:.2e}",
    )


def test_criterion_05_blocking_matrix():
    rng = np.random.default_rng(3)
    inv_rtf = rng.standard_normal((257, 4)) + 1j * rng.standard_normal((257, 4))
    inv_rtf += np.sign(inv_rtf.real) * 0.5
    inv_rtf[:, 0] = 1.0
    g_exact = 1.0 / inv_rtf
    bmat = blocking_matrix(inv_rtf)
    residual = np.max(np.abs(np.einsum("krm,km->kr", bmat, g_exact)))

    s = rng.standard_normal((257, 30)) + 1j * rng.standard_normal((257, 30))
    x = g_exact[:, None, :] * s[:, :, None]  # noise-free target block
    noise_est, _, _ = estimate_noise(x, inv_rtf)
    v = np.einsum("krm,klm->klr", bmat, x)
    ok = residual < 1e-12 and np.max(np.abs(v)) < 1e-12 * np.max(np.abs(x)) and np.max(
        np.abs(noise_est)
    ) < 1e-10 * np.max(np.abs(x))
    check(
        5,
        "blocking matrix annihilates exact steering; noise-free v = 0",
        ok,
        f"|B g|={residual:.2e}",
    )


def test_criterion_06_gev_residual_and_optimality():
    rng = np.random.default_rng(4)
    worst_resid = 0.0
    snr_ok = True
    for _ in range(200):
        n_ch = int(rng.integers(2, 6))
        a = rng.standard_normal((n_ch, n_ch)) + 1j * rng.standard_normal((n_ch, n_ch))
        speech = (a @ a.conj().T)[None]
        b = rng.standard_normal((n_ch, n_ch)) + 1j * rng.standard_normal((n_ch, n_ch))
        noise = (b @ b.conj().T + 0.05 * np.eye(n_ch))[None]
        vecs, vals, _ = solve_max_snr(speech, noise)
        w = vecs[0]
        resid = np.linalg.norm(speech[0] @ w - vals[0] * (noise[0] @ w))
        worst_resid = max(worst_resid, resid / np.linalg.norm(speech[0]))
        snr_w = (w.conj() @ speech[0] @ w).real / (w.conj() @ noise[0] @ w).real
        for i in range(n_ch):
            snr_e = speech[0, i, i].real / noise[0, i, i].real
            if snr_w < snr_e - 1e-9 * abs(snr_e):
                snr_ok = False
    check(
        6,
        "GEV residual <= 1e-8 ||Css|| and SNR >= canonical vectors",
        worst_resid < 1e-8 and snr_ok,
        f"worst resid={worst_resid:.2e}",
    )


def test_criterion_07_wiener_mask_bounds_and_precedence():
    # the bins at 50, 1000 and 4000 Hz: below f_min, in band, above f_max
    rows = np.searchsorted(BIN_FREQS, [50.0, 1000.0, 4000.0])
    ok = True
    for u2 in (0.0, 1e-9, 1.0, 100.0):
        for r2 in (0.0, 0.5 * u2, u2, 2.0 * u2 + 1.0):
            for mask_val in (0.0, 0.29, 0.3, 0.31, 1.0):
                u = np.full((N_BINS, 1), np.sqrt(u2), dtype=complex)
                r = np.full((N_BINS, 1), np.sqrt(r2), dtype=complex)
                mask = np.full((N_BINS, 1), mask_val)
                gain = wiener_mask(u, r, mask)[rows]
                base = np.maximum(u2 - r2, 1e-30) / max(u2, 1e-30)
                vad_hit = mask_val > VAD_THRESHOLD
                expected_low = 1.0 if vad_hit else LOW_GAIN
                expected_high = 1.0
                ok &= bool(np.all(gain > 0.0) and np.all(gain <= 1.0))
                ok &= gain[0, 0] == expected_low
                ok &= gain[2, 0] == expected_high
                if vad_hit:
                    ok &= gain[1, 0] == 1.0
                elif u2 > 0 and r2 == 0.0:
                    ok &= gain[1, 0] > 0.99
                elif u2 > 0 and r2 >= u2:
                    ok &= gain[1, 0] < 0.01 * max(1.0, 1.0 / u2)
    check(7, "Wiener gain in (0,1] with exact override precedence", ok)


@pytest.fixture(scope="module")
def criterion8_results():
    results = []
    start = time.perf_counter()
    for seed in range(10):
        sim = static_mixture(300 + seed)
        base = evaluate_estimate(sim.mixture.samples[0], sim.clean.samples[0], sim.noise.samples)
        row = {"base": base}
        for bf in ("irtf", "mvdr"):
            for pf in ("wiener", "none"):
                enhanced = enhance(sim, bf, pf)
                row[(bf, pf)] = scores(sim, enhanced)
        results.append(row)
    return results, time.perf_counter() - start


def test_criterion_08_pipeline_improvement(criterion8_results):
    results, elapsed = criterion8_results
    # only the wiener runs count toward this criterion's runtime budget;
    # measure conservatively against the full fixture time anyway
    ok = elapsed < 60.0
    worst = {"irtf": (np.inf, np.inf), "mvdr": (np.inf, np.inf)}
    for row in results:
        for bf in ("irtf", "mvdr"):
            rep = row[(bf, "wiener")]
            d_sir = rep.sir_db - row["base"].sir_db
            d_sdr = rep.sdr_db - row["base"].sdr_db
            worst[bf] = (min(worst[bf][0], d_sir), min(worst[bf][1], d_sdr))
            ok &= d_sir >= 5.0 and d_sdr >= 2.0
    check(
        8,
        "IRTF/MVDR + Wiener improve SIR >= 5 dB and SDR >= 2 dB, 10 seeds",
        ok,
        f"worst irtf=({worst['irtf'][0]:+.1f},{worst['irtf'][1]:+.1f}) "
        f"mvdr=({worst['mvdr'][0]:+.1f},{worst['mvdr'][1]:+.1f}) dB, {elapsed:.0f}s",
    )


def reverberant_mixture(seed, duration=4.0):
    rng = np.random.default_rng(seed)
    dry = speech_like_source(duration, FS, rng)
    firs = decaying_firs([0, 2, 5, 7], rng, extra_taps=8, decay=0.7)
    spec = MixtureSpec(channel_count=4, firs=firs[np.newaxis], snr_db=5.0)
    return simulate(spec, dry, pink_noise(4, dry.shape[0], rng))


def test_criterion_09_static_block_length_trend():
    sim = reverberant_mixture(200)
    ok = True
    details = []
    for bf in ("irtf", "mvdr", "gev"):
        pf = "ban" if bf == "gev" else "wiener"
        sir_short = windowed_sir(sim, enhance(sim, bf, pf, block_frames=31))
        sir_batch = windowed_sir(sim, enhance(sim, bf, pf, block_frames="batch"))
        details.append(f"{bf}: {sir_batch:+.1f} vs {sir_short:+.1f}")
        ok &= sir_batch >= sir_short
    check(9, "static source: batch SIR >= 0.25 s SIR for all beamformers", ok, "; ".join(details))


def test_criterion_10_moving_block_length_trend():
    rng = np.random.default_rng(201)
    dry = speech_like_source(3.2, FS, rng)
    seg_delays = [[0, 1, 3, 5], [0, 9, 6, 11], [0, 4, 12, 2], [0, 11, 1, 8]]
    firs = np.stack([delay_firs(d, taps=13) for d in seg_delays])
    starts = np.array([0, 12800, 25600, 38400])  # aligned with 0.8 s blocks
    spec = MixtureSpec(channel_count=4, firs=firs, segment_starts=starts, snr_db=5.0)
    sim = simulate(spec, dry, pink_noise(4, dry.shape[0], rng))

    ok = True
    details = []
    for bf in ("irtf", "mvdr"):
        best_block = max(
            windowed_sir(sim, enhance(sim, bf, "wiener", block_frames=frames))
            for frames in (50, 100)
        )
        sir_batch = windowed_sir(sim, enhance(sim, bf, "wiener", block_frames="batch"))
        details.append(f"{bf}: best block {best_block:+.1f} vs batch {sir_batch:+.1f}")
        ok &= best_block > sir_batch
    check(10, "moving source: some block <= 0.8 s beats batch for IRTF/MVDR", ok, "; ".join(details))


def test_criterion_11_postfilter_and_vad_benefits(criterion8_results):
    results, _ = criterion8_results
    postfilter_ok = True
    for row in results:
        for bf in ("irtf", "mvdr"):
            postfilter_ok &= row[(bf, "wiener")].sir_db > row[(bf, "none")].sir_db

    # mask weighting matters where per-bin SNR varies: tilted-spectrum
    # source in spectrally flat noise
    vad_ok = True
    ratios = []
    for seed in (500, 501, 502, 503, 504):
        rng = np.random.default_rng(seed)
        dry = speech_like_source(0.1 + 0.824 * 3, FS, rng)
        firs = delay_firs([0, 3])
        sim = simulate(
            MixtureSpec(channel_count=2, firs=firs[np.newaxis], snr_db=5.0),
            dry,
            white_noise(2, dry.shape[0], rng),
        )
        mix_spec = analyze(sim.mixture.samples)
        clean_spec = analyze(sim.clean.samples)
        noise_spec = analyze(sim.noise.samples)
        truth = true_rtfs(firs)[1][:, 1]
        errs = {}
        for name in ("oracle", "unit"):
            per_block = []
            for b in range(3):
                frames = slice(b * 100, b * 100 + 100)
                if name == "oracle":
                    mask = oracle_ibm(clean_spec[:, frames, 1], noise_spec[:, frames, 1], 5.0)
                else:
                    mask = np.ones((257, 100))
                g = build_rtf_set(mix_spec[:, frames], mask)[0][:, 1]
                per_block.append(np.abs(np.angle(g[4:101] * np.conj(truth[4:101]))))
            errs[name] = float(np.median(np.concatenate(per_block)))
        ratios.append(errs["unit"] / errs["oracle"])
        vad_ok &= errs["unit"] >= errs["oracle"]
    check(
        11,
        "Wiener raises SIR; oracle-mask weighting never worse than none at 5 dB",
        postfilter_ok and vad_ok,
        f"unit/oracle error ratios: {', '.join(f'{r:.2f}' for r in ratios)}",
    )


def test_criterion_12_determinism_and_block_independence():
    sim = static_mixture(310, duration=2.0)
    oracle = OracleStems(clean=sim.clean, noise=sim.noise)
    cfg = PipelineConfig(block_frames=100, beamformer="mvdr", postfilter="wiener", vad_mode="oracle")
    out1, results1 = run_with_diagnostics(sim.mixture, cfg, oracle=oracle)
    out2, results2 = run_with_diagnostics(sim.mixture, cfg, oracle=oracle)
    identical = np.array_equal(out1.samples, out2.samples) and all(
        np.array_equal(a.enhanced, b.enhanced) for a, b in zip(results1, results2)
    )

    independent = True
    for (start, count), joint in zip(partition_frames(sim.mixture.n_samples, cfg), results1):
        lo, hi = frame_span(start, count)
        block = MultichannelSignal(sim.mixture.samples[:, lo:hi], FS)
        block_oracle = OracleStems(
            clean=MultichannelSignal(sim.clean.samples[:, lo:hi], FS),
            noise=MultichannelSignal(sim.noise.samples[:, lo:hi], FS),
        )
        alone = process_block(block, cfg, oracle=block_oracle)
        independent &= np.array_equal(alone.enhanced, joint.enhanced)
    check(12, "bit-identical reruns; blocks identical jointly or separately", identical and independent)
