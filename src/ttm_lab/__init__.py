"""Token-temperature attention lab.

A desk-scale implementation of temperature-modulated attention: learned
per-head, per-token temperatures in (0, 1) that rescale attention logits, a
guided reasoning pipeline over temperature-thresholded active sets, layerwise
temperature dynamics, and a stability-monitored training protocol.
"""

from .attention import (AttentionParams, attention_baseline,
                        attention_temp_broadcast, attention_temp_outer)
from .dynamics import (convergence_rate_fit, evolve_layer,
                       iterate_to_fixed_point, temperature_sweep)
from .gsot import GsotConfig, TokenUniverse, build_universe, gsot_pipeline
from .model import (ModelConfig, ModelParams, checkpoint_load,
                    checkpoint_save, model_forward)
from .numerics import NumericError, Rng, Tensor, grad_check
from .temperature import (collapse_penalty, compute_temperature,
                          detect_collapse, squash)
from .training import (TaskSpec, TrainConfig, confidence_interval, evaluate,
                       make_task, significance_label, t_test_p, train)

__version__ = "0.1.0"

__all__ = [
    "AttentionParams", "attention_baseline", "attention_temp_broadcast",
    "attention_temp_outer",
    "convergence_rate_fit", "evolve_layer", "iterate_to_fixed_point",
    "temperature_sweep",
    "GsotConfig", "TokenUniverse", "build_universe", "gsot_pipeline",
    "ModelConfig", "ModelParams", "checkpoint_load", "checkpoint_save",
    "model_forward",
    "NumericError", "Rng", "Tensor", "grad_check",
    "collapse_penalty", "compute_temperature", "detect_collapse", "squash",
    "TaskSpec", "TrainConfig", "confidence_interval", "evaluate", "make_task",
    "significance_label", "t_test_p", "train",
]
