"""Model architecture and its partition into base and personalization layers."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .nn import LayerSpec


@dataclass(frozen=True)
class ModelSpec:
    """Layer stack plus the split point: the last k_personal layers are
    client-local, the first k_base = len(layers) - k_personal are shared."""

    layers: tuple[LayerSpec, ...]
    k_personal: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.layers) == 0:
            raise ConfigError("model needs at least one layer")
        if self.k_personal < 0:
            raise ConfigError(f"k_personal must be >= 0, got {self.k_personal}")
        if self.k_personal > len(self.layers) - 1:
            raise ConfigError(
                f"k_personal={self.k_personal} leaves no base layer "
                f"(model has {len(self.layers)} layers; at least one must stay shared)"
            )
        for i in range(len(self.layers) - 1):
            if self.layers[i].out_dim != self.layers[i + 1].in_dim:
                raise ConfigError(
                    f"layer {i} out_dim {self.layers[i].out_dim} != "
                    f"layer {i + 1} in_dim {self.layers[i + 1].in_dim}"
                )

    @property
    def k_base(self) -> int:
        return len(self.layers) - self.k_personal

    @property
    def base_layers(self) -> tuple[LayerSpec, ...]:
        return self.layers[: self.k_base]

    @property
    def personal_layers(self) -> tuple[LayerSpec, ...]:
        return self.layers[self.k_base :]

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    @classmethod
    def from_json(cls, obj: dict) -> "ModelSpec":
        """The spec of a config's "model" object: "layers", a list of
        {"in_dim", "out_dim", "activation"} objects, and "k_personal".  The
        values are type-checked by fedper.config.resolve."""
        return cls(tuple(LayerSpec(**l) for l in obj["layers"]), obj["k_personal"])


def linearize_base(spec: ModelSpec) -> ModelSpec:
    """Ablation: collapse all base layers into a single identity-activation
    dense layer from the input dim to whatever the personal stack expects."""
    if spec.k_personal > 0:
        target = spec.personal_layers[0].in_dim
    else:
        target = spec.layers[-1].out_dim
    new_base = LayerSpec(spec.in_dim, target, "identity")
    return ModelSpec((new_base,) + spec.personal_layers, spec.k_personal)
