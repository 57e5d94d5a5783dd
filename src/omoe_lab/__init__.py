"""Desk-scale lab for the OMoE orthogonal mixture-of-experts optimizer."""

__version__ = "0.1.0"

from .errors import ConfigError, ContractViolation, DataLoadError
from .linalg import Rng, sym_eigvals
from .projector import OrthoProjector, direct_projector
from .model import (MoEModel, ModelDims, RoutingRecord, init_model, load_model,
                    model_forward, save_model)
from .grad import Gradients, backward, grad_check, loss
from .optim import (BaseOptimizer, MacCounter, OMoEState, StepOutcome,
                    average_projector, load_optimizer, make_optimizer, new_omoe_state,
                    o_step, predict_o_step_macs, r_step, save_optimizer, step_dispatch)
from .metrics import (diverse_degree, diversity_report, load_entropy, model_param_variance,
                      model_similar_fraction, output_variance)
from .tasks import Dataset, batches, gen_subspace_clusters, load_csv
from .harness import (DEFAULT_CONFIG, ablate_experts, ablate_skip, compare_optimizers,
                      make_config, overhead_report, run, train_single)
