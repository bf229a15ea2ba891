from .checkpoint import (CheckpointMeta, load_checkpoint, load_model,
                         save_checkpoint, save_model)
from .codec import SupportCodec, scalar_to_support, support_to_scalar
from .mlp import MlpModel, TrainingDivergedError
from .models import (ComposedModel, PolicyModel, QValueModel, ValueModel,
                     encode_joint, joint_actions, stack_by_shape)
from .tabular import fit_tabular

__all__ = [
    "MlpModel", "ComposedModel", "QValueModel", "PolicyModel", "ValueModel",
    "stack_by_shape",
    "SupportCodec", "scalar_to_support", "support_to_scalar",
    "fit_tabular", "TrainingDivergedError",
    "encode_joint", "joint_actions",
    "save_checkpoint", "load_checkpoint", "save_model", "load_model",
    "CheckpointMeta",
]
