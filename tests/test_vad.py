import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockbeam.audio_io import MultichannelSignal, NetworkLayer, NetworkWeights
from blockbeam.beamform import gev_weights, masked_covariances
from blockbeam.errors import DataError, SizeError
from blockbeam.evalsim import MixtureSpec, delay_firs, pink_noise, simulate, speech_like_source
from blockbeam.pipeline import PipelineConfig, _pooled_mask, run
from blockbeam.postfilter import wiener_mask
from blockbeam.rtf import build_rtf_set
from blockbeam.stft import analyze
from blockbeam.vad import checked_mask, infer_mask, oracle_ibm, pool_median


def make_net(dims, acts, seed=0, mean=None, std=None):
    rng = np.random.default_rng(seed)
    layers = [
        NetworkLayer(rng.standard_normal((d_out, d_in)), rng.standard_normal(d_out), act)
        for (d_in, d_out), act in zip(zip(dims[:-1], dims[1:]), acts)
    ]
    mean = np.zeros(dims[0]) if mean is None else mean
    std = np.ones(dims[0]) if std is None else std
    return NetworkWeights(layers, mean, std)


class TestOracleIbm:
    def test_zero_db_below_threshold(self):
        s = np.full((4, 3), 1.0 + 0j)
        y = np.full((4, 3), 1.0 + 0j)
        assert np.all(oracle_ibm(s, y, 5.0) == 0.0)

    def test_ten_db_above_threshold(self):
        s = np.full((4, 3), np.sqrt(10.0) + 0j)
        y = np.full((4, 3), 1.0 + 0j)
        assert np.all(oracle_ibm(s, y, 5.0) == 1.0)

    def test_zero_speech_all_zero(self):
        y = np.ones((5, 2), dtype=complex)
        assert np.all(oracle_ibm(np.zeros((5, 2), dtype=complex), y, 5.0) == 0.0)

    def test_zero_noise_nonzero_speech(self):
        s = np.ones((3, 3), dtype=complex)
        mask = oracle_ibm(s, np.zeros_like(s), 5.0)
        assert np.all(mask == 1.0)

    def test_both_zero(self):
        z = np.zeros((3, 3), dtype=complex)
        assert np.all(oracle_ibm(z, z, 5.0) == 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(SizeError):
            oracle_ibm(np.zeros((3, 3), dtype=complex), np.zeros((3, 4), dtype=complex), 5.0)

    def test_common_scaling_invariance(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        y = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        base = oracle_ibm(s, y, 5.0)
        scaled = oracle_ibm(3.7 * s, 3.7 * y, 5.0)
        assert np.array_equal(base, scaled)


class TestInferMask:
    def test_zero_net_gives_half(self):
        net = make_net([257, 257], ["sigmoid"])
        net.layers[0].weights[:] = 0.0
        net.layers[0].bias[:] = 0.0
        bins = np.random.default_rng(1).standard_normal((257, 6)) + 0j
        mask = infer_mask(net, bins)
        assert np.allclose(mask, 0.5)

    def test_matches_manual_forward_pass(self):
        # independent oracle: explicit per-frame loop with plain matrix products
        net = make_net([8, 5, 8], ["relu", "sigmoid"], seed=2,
                       mean=np.random.default_rng(3).standard_normal(8),
                       std=np.random.default_rng(4).uniform(0.5, 2.0, 8))
        rng = np.random.default_rng(5)
        bins = rng.standard_normal((8, 7)) + 1j * rng.standard_normal((8, 7))
        expected = np.empty((8, 7))
        for l in range(7):
            v = (np.abs(bins[:, l]) - net.input_mean) / net.input_std
            v = net.layers[0].weights @ v + net.layers[0].bias
            v = np.maximum(v, 0.0)
            v = net.layers[1].weights @ v + net.layers[1].bias
            expected[:, l] = 1.0 / (1.0 + np.exp(-v))
        assert np.allclose(infer_mask(net, bins), expected, atol=1e-12)

    def test_dimension_checked(self):
        net = make_net([257, 16, 257], ["relu", "sigmoid"])
        infer_mask(net, np.zeros((257, 3), dtype=complex))  # accepted
        with pytest.raises(SizeError):
            infer_mask(net, np.zeros((256, 3), dtype=complex))

    def test_rank_checked(self):
        net = make_net([257, 16, 257], ["relu", "sigmoid"])
        with pytest.raises(SizeError, match=r"\(bins, frames\)"):
            infer_mask(net, np.zeros((257, 3, 2), dtype=complex))

    def test_deterministic(self):
        net = make_net([16, 8, 16], ["relu", "sigmoid"], seed=6)
        bins = np.random.default_rng(7).standard_normal((16, 9)) + 0j
        a = infer_mask(net, bins)
        b = infer_mask(net, bins)
        assert np.array_equal(a, b)

    def test_output_bounded(self):
        net = make_net([12, 20, 12], ["relu", "sigmoid"], seed=8)
        bins = 100.0 * np.random.default_rng(9).standard_normal((12, 5)) + 0j
        values = infer_mask(net, bins)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)


def speech_block(seed=10):
    """One 100-frame block (13184 samples) of a 4-channel speech-like mixture."""
    rng = np.random.default_rng(seed)
    dry = speech_like_source(13184 / 16000, 16000, rng)
    spec = MixtureSpec(channel_count=4, firs=delay_firs([0, 2, 5, 7])[np.newaxis], snr_db=5.0)
    sim = simulate(spec, dry, pink_noise(4, dry.shape[0], rng))
    return MultichannelSignal(sim.mixture.samples[:, :13184], 16000)


def he_network(block, dims=(257, 1024, 1024, 257), seed=11):
    """(float64 layer list, network) of a He-scaled ReLU/ReLU/sigmoid
    network normalized by the block's own magnitude statistics."""
    rng = np.random.default_rng(seed)
    layers64 = [
        (rng.standard_normal((n_out, n_in)) * np.sqrt(2.0 / n_in), 0.1 * rng.standard_normal(n_out), act)
        for n_in, n_out, act in zip(dims[:-1], dims[1:], ("relu", "relu", "sigmoid"))
    ]
    mags = np.abs(analyze(block)).reshape(dims[0], -1)
    net = NetworkWeights(
        [NetworkLayer(w, b, act) for w, b, act in layers64],
        input_mean=mags.mean(axis=1),
        input_std=mags.std(axis=1) + 1e-3,
    )
    return layers64, net


def test_float32_forward_pass_matches_float64_reference():
    block = speech_block()
    layers64, net = he_network(block)
    for layer in net.layers:
        for arr in (layer.weights, layer.bias):
            assert arr.dtype == np.float32 and arr.flags.c_contiguous
    assert net.input_mean.dtype == net.input_std.dtype == np.float64

    bins = analyze(block).reshape(257, -1)  # 4 channels side by side
    h = (np.abs(bins) - net.input_mean[:, None]) / net.input_std[:, None]
    for w, b, act in layers64:
        h = w @ h + b[:, None]
        h = np.maximum(h, 0.0) if act == "relu" else 1.0 / (1.0 + np.exp(-h))
    mask = infer_mask(net, bins)
    assert mask.dtype == np.float64
    assert 0.05 < mask.mean() < 0.95  # not saturated, so the comparison is informative
    assert np.max(np.abs(mask - h)) <= 1e-5


@pytest.mark.parametrize("beamformer,postfilter", [("irtf", "wiener"), ("mvdr", "wiener"), ("gev", "ban")])
def test_network_input_beyond_float32_range_is_data_error(beamformer, postfilter):
    # 1e40 lifts the normalized magnitudes past float32's ~3.4e38: the VAD
    # rejects the block itself instead of passing a NaN mask downstream
    block = speech_block(seed=12)
    _, net = he_network(block, dims=(257, 64, 64, 257))
    cfg = PipelineConfig(block_frames=100, beamformer=beamformer, postfilter=postfilter, vad_mode="network")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="float32 range"):
            run(MultichannelSignal(1e40 * block.samples, 16000), cfg, network=net)
        out = run(MultichannelSignal(1e30 * block.samples, 16000), cfg, network=net)
    assert np.all(np.isfinite(out.samples))
    assert np.max(np.abs(out.samples)) > 0


class TestPoolMedian:
    def test_identical_masks(self):
        m = np.random.default_rng(0).uniform(0, 1, (4, 3))
        pooled = pool_median(np.stack([m, m, m], axis=2))
        assert np.array_equal(pooled, m)

    def test_odd_count_median(self):
        masks = np.stack([np.full((2, 2), v) for v in (0.1, 0.2, 0.9)], axis=2)
        assert np.allclose(pool_median(masks), 0.2)

    def test_even_count_mean_of_middles(self):
        masks = np.stack([np.full((2, 2), v) for v in (0.1, 0.2, 0.5, 0.9)], axis=2)
        assert np.allclose(pool_median(masks), 0.35)

    def test_empty_list_rejected(self):
        with pytest.raises(SizeError):
            pool_median(np.zeros((2, 2, 0)))

    def test_shape_mismatch(self):
        # the channels sit on the last axis of one stack; a single mask is not a stack
        with pytest.raises(SizeError):
            pool_median(np.zeros((2, 2)))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        masks = rng.uniform(0, 1, (5, 4, 4))
        a = pool_median(masks)
        b = pool_median(masks[:, :, ::-1])
        assert np.array_equal(a, b)


# values with many exact ties: the binary oracle levels and a few others
_MASK_LEVELS = st.sampled_from([0.0, 1.0, 0.5, 0.25, 0.3, 0.7])


@given(
    n_masks=st.integers(1, 7),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 5)),
    data=st.data(),
)
def test_pool_median_matches_numpy_median_bitwise(n_masks, shape, data):
    size = n_masks * shape[0] * shape[1]
    values = st.one_of(_MASK_LEVELS, st.floats(0.0, 1.0))
    flat = data.draw(st.lists(values, min_size=size, max_size=size))
    # abs() folds a -0.0 draw into 0.0, which masks never hold
    stacked = np.abs(np.array(flat)).reshape(*shape, n_masks)
    pooled = pool_median(stacked)
    expected = np.median(stacked, axis=2)
    assert pooled.shape == expected.shape
    assert np.array_equal(pooled.view(np.int64), expected.view(np.int64))


def test_pool_median_leaves_inputs_unchanged():
    rng = np.random.default_rng(2)
    values = rng.uniform(0, 1, (3, 4, 5))
    masks = values.copy()
    pool_median(masks)
    assert np.array_equal(masks, values)
    assert not np.shares_memory(pool_median(masks[:, :, :1]), masks)


class TestMask:
    def test_unit_mask(self):
        # without a VAD every non-reference channel gets an all-ones mask,
        # and so does their pool
        cfg = PipelineConfig(vad_mode="none", postfilter="none")
        bins = np.ones((7, 3, 4), dtype=complex)
        pooled = _pooled_mask(bins, cfg, None, None, [1, 2, 3], {})
        assert pooled.shape == (7, 3)
        assert np.array_equal(pooled, pool_median(np.ones((7, 3, 3))))
        assert np.all(pooled == 1.0)

    def test_range_validated(self):
        with pytest.raises(DataError):
            checked_mask(np.array([[1.5]]), (1, 1))
        with pytest.raises(DataError):
            checked_mask(np.array([[-0.1]]), (1, 1))
        with pytest.raises(DataError):
            checked_mask(np.array([[np.nan]]), (1, 1))
        with pytest.raises(SizeError):
            checked_mask(np.zeros((2, 2)), (2, 3))
        with pytest.raises(SizeError):
            checked_mask(np.zeros((2, 2, 1)), (2, 2))
        assert checked_mask(np.zeros((2, 2), dtype=np.float32), (2, 2)).dtype == np.float64

    def test_consumers_check_masks(self):
        # every function that weights by a mask rejects a bad one; the
        # spectrograms have the frame grid's 257 bins, as the Wiener gain needs
        x = np.ones((257, 20, 2), dtype=complex)
        u = np.ones((257, 20), dtype=complex)
        consumers = (
            lambda m: masked_covariances(x, m),
            lambda m: gev_weights(x, m),
            lambda m: build_rtf_set(x, m),
            lambda m: wiener_mask(u, u, m),
        )
        for consume in consumers:
            consume(np.full((257, 20), 0.5))  # accepted
            with pytest.raises(DataError):
                consume(np.full((257, 20), 1.5))
            with pytest.raises(DataError):
                consume(np.full((257, 20), np.nan))
            with pytest.raises(SizeError):
                consume(np.full((257, 19), 0.5))
            # one mask per non-reference channel is a stack, not a mask
            with pytest.raises(SizeError):
                consume(np.full((257, 20, 1), 0.5))
