"""Model families, training loops, prediction, and persistence."""

from .adam import Adam, clip_global_norm
from .common import (
    TrainConfig,
    flat_params,
    glorot_uniform,
    init_params,
    minibatch_indices,
    model_from_params,
)
from .fnn import FnnModel, fnn_forward, fnn_loss_and_grads, train_fnn
from .gradcheck import gradient_check
from .linear import LinearModel, linear_fit
from .predict import Model, predict_one_step, rollout
from .recurrent import (
    LstmModel,
    RnnModel,
    lstm_forward,
    lstm_loss_and_grads,
    rnn_forward,
    rnn_loss_and_grads,
    train_recurrent,
)
from .serialize import SCHEMA_VERSION, load_model, save_model

__all__ = [
    "Adam",
    "FnnModel",
    "LinearModel",
    "LstmModel",
    "Model",
    "RnnModel",
    "SCHEMA_VERSION",
    "TrainConfig",
    "clip_global_norm",
    "fnn_forward",
    "fnn_loss_and_grads",
    "glorot_uniform",
    "gradient_check",
    "flat_params",
    "init_params",
    "linear_fit",
    "load_model",
    "lstm_forward",
    "lstm_loss_and_grads",
    "minibatch_indices",
    "model_from_params",
    "predict_one_step",
    "rnn_forward",
    "rnn_loss_and_grads",
    "rollout",
    "save_model",
    "train_fnn",
    "train_recurrent",
]
