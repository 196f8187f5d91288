"""Print two sha256 digests per reachable configuration: one of the enhanced
samples and one of their evaluator report.

A configuration is a beamformer, a post-filter, a VAD mode and a block
length (100 frames or batch); the reachable ones are those `PipelineConfig`
accepts. Every configuration enhances the same seeded 3.2 s reverberant
4-channel mixture, and the network VAD uses one seeded 257-64-257 network.
The report is `evaluate_estimate` of the output against the reference
channel of the mixture's clean stems and all its noise stems, and its
digest is taken over SIR, SDR, SAR and `capped` as float64. Two source
trees that produce the same output and score bits print the same lines:

    PYTHONPATH=path/to/checkout/src python tools/parity_digest.py --seed 0

Comparing the output of two checkouts line by line shows which
configurations changed their output bits (fourth field) or their scores
(fifth field).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools

import numpy as np

from blockbeam.audio_io import NetworkLayer, NetworkWeights
from blockbeam.errors import ConfigError
from blockbeam.evalsim import MixtureSpec, decaying_firs, evaluate_estimate, pink_noise, simulate, speech_like_source
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


def sha256(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


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
        n = out.n_samples
        report = evaluate_estimate(
            out.samples[0], sim.clean.samples[cfg.ref_channel, :n], sim.noise.samples[:, :n]
        )
        scores = [report.sir_db, report.sdr_db, report.sar_db, float(report.capped)]
        print(f"{cfg.block_frames} {cfg.beamformer}+{cfg.postfilter} {cfg.vad_mode} {sha256(out.samples)} {sha256(scores)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
