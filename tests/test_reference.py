"""tests/reference.py is an oracle only while it shares no code with what it
checks: it may take from fedper its rng streams and nothing else."""

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from fedper.model import ModelSpec
from fedper.nn import ACTIVATIONS, LayerSpec, loss_and_grad
from helpers import rand_batch, rand_weights

REFERENCE = Path(__file__).resolve().parent / "reference.py"


def fedper_imports(source: str) -> set[str]:
    """The fedper modules a source file imports, `from fedper import x`
    read as fedper.x."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "fedper":
                found.update(f"fedper.{alias.name}" for alias in node.names)
            else:
                found.add(node.module)
    return {name for name in found if name == "fedper" or name.startswith("fedper.")}


def test_fedper_imports_reads_every_import_form():
    source = "import fedper.nn as x\nfrom fedper import metrics\nfrom fedper.rng import substream\nimport numpy\n"
    assert fedper_imports(source) == {"fedper.nn", "fedper.metrics", "fedper.rng"}


def test_reference_imports_only_the_rng_from_fedper():
    assert fedper_imports(REFERENCE.read_text()) <= {"fedper.rng"}


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 12), min_size=2, max_size=4),
    data=st.data(),
    size=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_gradients_equal_the_engines_bitwise(dims, data, size, seed):
    """The reference's own backward pass gives loss_and_grad's bits, so the
    training references can check the engine's arithmetic."""
    n = len(dims) - 1
    activations = data.draw(st.lists(st.sampled_from(ACTIVATIONS), min_size=n, max_size=n))
    layers = tuple(LayerSpec(dims[i], dims[i + 1], activations[i]) for i in range(n))
    spec = ModelSpec(layers, data.draw(st.integers(0, n - 1)))
    rng = np.random.default_rng(seed)
    weights, batch = rand_weights(spec.layers, rng), rand_batch(spec, rng, size)
    _, grad_base, grad_personal = loss_and_grad(spec, weights[: spec.k_base], weights[spec.k_base :], batch)
    want = reference.gradients(weights, activations, batch.X, batch.y)
    assert [(g.tobytes(), gb.tobytes()) for g, gb in grad_base + grad_personal] == [
        (g.tobytes(), gb.tobytes()) for g, gb in want
    ]
