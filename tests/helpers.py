"""Shared test oracles, all independent of the library code paths they
check, the csv writer the tests make data files with, row blocks of
per-client sets, the layout check of a weight block, and the name of the
BLAS core the bitwise gates run on."""

from __future__ import annotations

import ctypes
import functools
import math
from pathlib import Path

import numpy as np

from fedper.checkpoint import atomic_write
from fedper.data import LabeledDataset
from fedper.model import ModelSpec
from fedper.nn import Layers, LayerSpec, RowBlock


# The OpenBLAS core the stored bitwise values (tests/test_golden.py and
# perfbench/reference.json) were captured on; other cores round differently.
GOLDEN_CORE = "SkylakeX"


@functools.cache
def blas_core() -> str:
    """The core of numpy's bundled OpenBLAS that this process runs on, as
    OpenBLAS names it, or "unknown" for another BLAS."""
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def core_note() -> str:
    """For a bitwise mismatch: the core the stored values hold on, and this one's."""
    return f"stored values were captured on OpenBLAS core {GOLDEN_CORE}; this process runs on {blas_core()}"


def rand_spec(rng: np.random.Generator, max_layers: int = 3, max_dim: int = 8) -> ModelSpec:
    n_layers = int(rng.integers(1, max_layers + 1))
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(n_layers + 1)]
    layers = []
    for i in range(n_layers):
        act = "identity" if i == n_layers - 1 else "relu"
        layers.append(LayerSpec(dims[i], dims[i + 1], act))
    k_personal = int(rng.integers(0, n_layers))
    return ModelSpec(tuple(layers), k_personal)


def rand_weights(layer_specs, rng: np.random.Generator) -> Layers:
    return [
        (rng.standard_normal((l.out_dim, l.in_dim)), rng.standard_normal(l.out_dim))
        for l in layer_specs
    ]


def rand_batch(spec: ModelSpec, rng: np.random.Generator, size: int) -> LabeledDataset:
    """size random rows, drawn row by row: features, then the label."""
    rows = [(rng.standard_normal(spec.in_dim), int(rng.integers(0, spec.out_dim))) for _ in range(size)]
    x = np.array([x for x, _ in rows]).reshape(size, spec.in_dim)
    return LabeledDataset(x, [y for _, y in rows], spec.out_dim)


def row_block(sets) -> RowBlock:
    """A RowBlock of the LabeledDatasets' rows and labels end to end, in
    order (new arrays)."""
    return RowBlock(np.concatenate([d.X for d in sets]), np.concatenate([d.y for d in sets]), [len(d) for d in sets])


def row_blocks(pairs) -> tuple[RowBlock, RowBlock]:
    """The training and the test RowBlock of per-client (train, test) pairs,
    the arguments run_federation takes after its config."""
    return row_block([train for train, _ in pairs]), row_block([test for _, test in pairs])


def block_sets(rows: RowBlock) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per set of the block, in order: its features and its labels."""
    return [(rows.x[a : a + n], rows.y[a : a + n]) for a, n in zip(rows.starts, rows.sizes)]


def pad_columns(block: np.ndarray, layers: Layers) -> list[int]:
    """The columns of a weight block's rows that no view of its layer stacks
    covers, after asserting the layout fedper.nn.columns gives: in order,
    each layer's W (row-major) then its b, overlapping nowhere, each W from
    an even column of a row of even width, and no column left over but one
    after each layer of an odd number of parameters."""

    def span(a: np.ndarray) -> list[int]:  # the columns of its row that each row of a stack covers
        firsts = {(a[j].ctypes.data - block[j].ctypes.data) // block.itemsize for j in range(len(block))}
        assert len(firsts) == 1 and a[0].flags.c_contiguous
        return list(range(min(firsts), min(firsts) + a[0].size))

    assert block.flags.c_contiguous and block.shape[1] % 2 == 0
    covered = [c for layer in layers for a in layer for c in span(a)]
    assert covered == sorted(set(covered))
    assert all(span(w)[0] % 2 == 0 for w, _ in layers)
    pads = sorted(set(range(block.shape[1])) - set(covered))
    assert pads == [span(b)[-1] + 1 for w, b in layers if (w[0].size + b[0].size) % 2]
    return pads


def save_csv(ds: LabeledDataset, path: str | Path) -> None:
    """Write ds atomically as the `f0,...,f{d-1},label` rows
    fedper.data.load_csv reads; floats use repr so a reload is exact."""
    lines = [",".join([f"f{i}" for i in range(ds.X.shape[1])] + ["label"])]
    for x, y in zip(ds.X, ds.y):
        lines.append(",".join([repr(float(v)) for v in x] + [str(int(y))]))
    atomic_write(Path(path), "\n".join(lines) + "\n")


def minibatch_indices(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """One epoch's batches: a fresh permutation of range(n) cut into batch_size
    slices, last partial slice included.  Every sample appears exactly once."""
    perm = rng.permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]


def ref_loss(spec: ModelSpec, base: Layers, personal: Layers, batch) -> float:
    """Independent loss oracle: plain per-sample forward plus textbook
    softmax cross-entropy, no caching, no vectorized batching."""
    total = 0.0
    for x, y in zip(batch.X, batch.y):
        a = x
        for lspec, (w, b) in zip(spec.layers, base + personal):
            z = w @ a + b
            a = np.where(z > 0, z, 0.0) if lspec.activation == "relu" else z
        shifted = a - a.max()
        probs = np.exp(shifted) / np.exp(shifted).sum()
        total += -math.log(probs[y])
    return total / len(batch)


def fd_gradients(
    spec: ModelSpec, base: Layers, personal: Layers, batch, h: float = 1e-5
) -> tuple[Layers, Layers]:
    """Central finite differences of ref_loss over every weight and bias."""

    def loss_with(sets):
        return ref_loss(spec, sets[0], sets[1], batch)

    def copies():
        return [[(w.copy(), b.copy()) for w, b in ws] for ws in (base, personal)]

    out = []
    for which in (0, 1):
        grads = []
        source = (base, personal)[which]
        for li, (w, b) in enumerate(source):
            gw = np.zeros_like(w)
            gb = np.zeros_like(b)
            for arr, grad in ((w, gw), (b, gb)):
                flat = arr.reshape(-1)
                gflat = grad.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    sets = copies()
                    sets[which][li][0 if arr is w else 1].reshape(-1)[i] = orig + h
                    up = loss_with(sets)
                    sets = copies()
                    sets[which][li][0 if arr is w else 1].reshape(-1)[i] = orig - h
                    down = loss_with(sets)
                    gflat[i] = (up - down) / (2 * h)
            grads.append((gw, gb))
        out.append(grads)
    return out[0], out[1]


def assert_grad_close(analytic: Layers, fd: Layers, rtol=1e-6, atol=1e-9) -> None:
    """Relative error <= rtol with an atol floor for near-zero components."""
    assert len(analytic) == len(fd)
    for (aw, ab), (fw, fb) in zip(analytic, fd):
        assert np.allclose(aw, fw, rtol=rtol, atol=atol), np.abs(aw - fw).max()
        assert np.allclose(ab, fb, rtol=rtol, atol=atol), np.abs(ab - fb).max()
