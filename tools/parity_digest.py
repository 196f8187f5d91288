"""Print one sha256 of the enhanced samples per reachable configuration.

A configuration is a beamformer, a post-filter, a VAD mode and a block
length (100 frames or batch); the reachable ones are those `PipelineConfig`
accepts. Every configuration enhances the same seeded 3.2 s reverberant
4-channel mixture, and the network VAD uses one seeded 257-64-257 network,
so two source trees that produce the same output bits print the same lines:

    PYTHONPATH=path/to/checkout/src python tools/parity_digest.py --seed 0

Comparing the output of two checkouts line by line shows which
configurations changed their output bits.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools

import numpy as np

from blockbeam.audio_io import NetworkLayer, NetworkWeights
from blockbeam.errors import ConfigError
from blockbeam.evalsim import MixtureSpec, decaying_firs, pink_noise, simulate, speech_like_source
from blockbeam.pipeline import OracleStems, PipelineConfig, run

FS = 16000
SECONDS = 3.2
NETWORK_DIMS = (257, 64, 257)
BLOCKS = (100, "batch")


def mixture(rng):
    """Speech-like source through decaying 4-channel FIRs in pink noise at 5 dB SNR."""
    dry = speech_like_source(SECONDS, FS, rng)
    firs = decaying_firs([0, 2, 5, 7], rng, extra_taps=8, decay=0.7)
    spec = MixtureSpec(channel_count=4, firs=firs[np.newaxis], noise_kind="pink", snr_db=5.0)
    return simulate(spec, dry, pink_noise(4, dry.shape[0], rng), sample_rate=FS)


def network(rng) -> NetworkWeights:
    """ReLU hidden layer and sigmoid output with seeded random weights."""
    layers = [
        NetworkLayer(rng.standard_normal((d_out, d_in)) / np.sqrt(d_in), rng.standard_normal(d_out), act)
        for d_in, d_out, act in zip(NETWORK_DIMS[:-1], NETWORK_DIMS[1:], ("relu", "sigmoid"))
    ]
    return NetworkWeights(layers, rng.uniform(0.0, 1.0, NETWORK_DIMS[0]), rng.uniform(0.5, 2.0, NETWORK_DIMS[0]))


def configurations():
    """Every PipelineConfig that is accepted, at each block length."""
    for block, bf, pf, vad in itertools.product(
        BLOCKS, ("irtf", "mvdr", "gev"), ("none", "wiener", "ban"), ("oracle", "network", "none")
    ):
        try:
            yield PipelineConfig(block_frames=block, beamformer=bf, postfilter=pf, vad_mode=vad)
        except ConfigError:
            continue


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="seed of the mixture and the network")
    args = parser.parse_args(argv)
    sim = mixture(np.random.default_rng([args.seed, 0]))
    net = network(np.random.default_rng([args.seed, 1]))
    oracle = OracleStems(clean=sim.clean, noise=sim.noise)
    for cfg in configurations():
        out = run(sim.mixture, cfg, network=net, oracle=oracle)
        digest = hashlib.sha256(np.ascontiguousarray(out.samples, dtype=np.float64).tobytes()).hexdigest()
        print(f"{cfg.block_frames} {cfg.beamformer}+{cfg.postfilter} {cfg.vad_mode} {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
