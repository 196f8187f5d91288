"""Block-online multichannel speech enhancement.

Beamforming (inverse-RTF, MVDR, max-SNR) steered by VAD-weighted relative
transfer function estimates, with Wiener/BAN post-filtering, applied
independently per block. Includes a mixture simulator and projection-based
SIR/SDR/SAR metrics for verification.
"""

from .audio_io import MultichannelSignal, NetworkWeights, load_network, read_wav, write_wav
from .beamform import apply_weights, gev_weights, irtf_weights, mvdr_weights
from .channel_health import detect_failures
from .errors import BlockbeamError, ConfigError, DataError, FormatError, SizeError, UnsupportedEncodingError
from .evalsim import MetricReport, MixtureSpec, decompose, metrics, simulate
from .pipeline import BlockResult, OracleStems, PipelineConfig, process_block, run, run_with_diagnostics
from .postfilter import wiener_mask
from .rtf import build_rtf_set
from .stft import StftConfig, analyze, synthesize
from .vad import infer_mask, oracle_ibm, pool_median

# the names imported above, module by module
__all__ = [
    "MultichannelSignal", "NetworkWeights", "load_network", "read_wav", "write_wav",
    "apply_weights", "gev_weights", "irtf_weights", "mvdr_weights",
    "detect_failures",
    "BlockbeamError", "ConfigError", "DataError", "FormatError", "SizeError", "UnsupportedEncodingError",
    "MetricReport", "MixtureSpec", "decompose", "metrics", "simulate",
    "BlockResult", "OracleStems", "PipelineConfig", "process_block", "run", "run_with_diagnostics",
    "wiener_mask",
    "build_rtf_set",
    "StftConfig", "analyze", "synthesize",
    "infer_mask", "oracle_ibm", "pool_median",
]

__version__ = "0.1.0"
