import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedper.errors import ConfigError
from fedper.model import ModelSpec, linearize_base
from fedper.nn import LayerSpec


@st.composite
def model_specs(draw, min_layers=1, max_layers=5):
    n = draw(st.integers(min_layers, max_layers))
    dims = draw(st.lists(st.integers(1, 8), min_size=n + 1, max_size=n + 1))
    layers = tuple(
        LayerSpec(dims[i], dims[i + 1], "identity" if i == n - 1 else "relu") for i in range(n)
    )
    k_personal = draw(st.integers(0, n - 1))
    return ModelSpec(layers, k_personal)


class TestSpec:
    def test_k_base_counts(self):
        spec = ModelSpec((LayerSpec(2, 3), LayerSpec(3, 4), LayerSpec(4, 2, "identity")), 1)
        assert spec.k_base == 2
        assert [l.out_dim for l in spec.base_layers] == [3, 4]
        assert [l.out_dim for l in spec.personal_layers] == [2]

    def test_rejects_all_personal(self):
        # at least one base layer must remain shared
        with pytest.raises(ConfigError):
            ModelSpec((LayerSpec(2, 2),), 1)
        with pytest.raises(ConfigError):
            ModelSpec((LayerSpec(2, 2), LayerSpec(2, 2)), 2)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ConfigError):
            ModelSpec((LayerSpec(2, 3), LayerSpec(4, 2)), 0)

    def test_json_round_trip(self):
        obj = {
            "layers": [
                {"in_dim": 2, "out_dim": 3, "activation": "relu"},
                {"in_dim": 3, "out_dim": 2, "activation": "identity"},
            ],
            "k_personal": 1,
        }
        assert ModelSpec.from_json(obj) == ModelSpec((LayerSpec(2, 3), LayerSpec(3, 2, "identity")), 1)


class TestLinearizeBase:
    def test_collapses_base_stack(self):
        spec = ModelSpec(
            (LayerSpec(8, 16), LayerSpec(16, 16), LayerSpec(16, 4, "identity")), 1
        )
        out = linearize_base(spec)
        assert out.base_layers == (LayerSpec(8, 16, "identity"),)
        assert out.personal_layers == spec.personal_layers
        assert out.k_personal == spec.k_personal

    def test_single_base_layer_keeps_dims(self):
        spec = ModelSpec((LayerSpec(5, 7, "relu"), LayerSpec(7, 3, "identity")), 1)
        out = linearize_base(spec)
        assert out.base_layers == (LayerSpec(5, 7, "identity"),)

    def test_no_personal_layers(self):
        spec = ModelSpec((LayerSpec(5, 7), LayerSpec(7, 3, "identity")), 0)
        out = linearize_base(spec)
        assert out.layers == (LayerSpec(5, 3, "identity"),)

    @settings(max_examples=50, deadline=None)
    @given(model_specs())
    def test_output_is_always_a_valid_spec(self, spec):
        out = linearize_base(spec)  # ModelSpec validates in __post_init__
        assert out.k_personal == spec.k_personal
        assert out.k_base == 1
        assert out.in_dim == spec.in_dim
        assert out.out_dim == spec.out_dim
        assert out.base_layers[0].activation == "identity"
