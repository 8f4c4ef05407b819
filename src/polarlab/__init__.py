"""polarlab: a polar-code construction laboratory.

Encoding and SC/SCL decoding, a reproducible Monte Carlo FER engine,
Gaussian Approximation construction, shuffled-mask datasets, a from-scratch
shortcut-MLP surrogate for FER prediction, and projected-gradient mask
search guided by the surrogate.
"""

from .channel import (ChannelConfig, FerEstimate, MonteCarloConfig,
                      estimate_fer, transmit)
from .codec import (CodeSpec, DecoderConfig, FrozenMask, decode_batch,
                    encode, polar_transform)
from .construction import (DatasetRecord, ReliabilityOrder, ShuffleConfig,
                           build_mask, ga_reliabilities, generate_dataset,
                           select_shuffle_range)
from .errors import (InvalidArgument, InvalidState, NumericError,
                     PolarLabError, SchemaError)
from .search import CandidateReport, PgdConfig, pgd_run, search_and_validate
from .surrogate import (IoeReport, MlpConfig, MlpParams, Standardizer,
                        TrainConfig, constant_predictor_ioe, evaluate_ioe,
                        fit_standardizer, forward, train)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ChannelConfig", "FerEstimate", "MonteCarloConfig", "estimate_fer",
    "transmit",
    "CodeSpec", "DecoderConfig", "FrozenMask", "decode_batch", "encode",
    "polar_transform",
    "DatasetRecord", "ReliabilityOrder", "ShuffleConfig", "build_mask",
    "ga_reliabilities", "generate_dataset", "select_shuffle_range",
    "PolarLabError", "InvalidArgument", "InvalidState", "NumericError",
    "SchemaError",
    "CandidateReport", "PgdConfig", "pgd_run", "search_and_validate",
    "IoeReport", "MlpConfig", "MlpParams", "Standardizer", "TrainConfig",
    "constant_predictor_ioe", "evaluate_ioe", "fit_standardizer", "forward",
    "train",
]
