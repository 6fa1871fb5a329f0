"""Time-aware graph structure learning on continuous-time dynamic graphs.

A plain-numpy implementation: a minimal reverse-mode autodiff core, a
temporal event-store data layer, a temporal-attention reference encoder,
the structure learner (edge-centric message passing, LSTM context
prediction, candidate sampling, time mapping, Gumbel-Top-K selection), and
momentum-contrast multi-task training with temporal link prediction
evaluation.
"""

from . import autodiff, encoder, graph, structure, training, verify
from .autodiff import (AdamState, GradCheckResult, ParamSet, Tape, Tensor,
                       adam_step, grad_check, no_grad, verification_mode)
from .encoder import (EncoderParams, TgatEncoder, time_context, time_encode,
                      time_frequencies)
from .graph import (EventStore, NeighborIndex, SplitSpec, chronological_split,
                    load_events, sample_negatives, save_events, sparsify,
                    synth_generate)
from .structure import (AugmentedView, StructureLearner, TgslParams,
                        build_augmented_view, context_predict_batch,
                        etgnn_forward, gumbel_topk_select, sample_candidates,
                        time_map_batch)
from .training import (ConfigError, EarlyStopState, MetricsReport, MoCoState,
                       RunConfig, Trainer, average_precision, bce_link_loss,
                       early_stop_update, info_nce_batch, moco_step)

__version__ = "0.1.0"
