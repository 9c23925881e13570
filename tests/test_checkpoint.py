import json
import os
import re

import numpy as np
import pytest

from fedper.checkpoint import atomic_write, load_weights, save_weights
from fedper.errors import ParseError, ShapeError
from fedper.nn import weight_block, weights_blob, weights_equal


def random_weights(seed=0):
    rng = np.random.default_rng(seed)
    return [
        (rng.standard_normal((4, 3)), rng.standard_normal(4)),
        (rng.standard_normal((2, 4)), rng.standard_normal(2)),
    ]


def test_round_trip_bit_exact(tmp_path):
    ws = random_weights()
    save_weights(tmp_path / "ckpt", ws, split_index=1)
    loaded, split_index = load_weights(tmp_path / "ckpt")
    assert split_index == 1
    assert weights_equal(loaded, ws)


def test_manifest_lists_shapes_and_split(tmp_path):
    ws = random_weights()
    manifest_path, blob_path = save_weights(tmp_path / "ckpt", ws, split_index=2)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["layer_shapes"] == [[4, 3], [2, 4]]
    assert manifest["split_index"] == 2
    assert blob_path.stat().st_size == 8 * (4 * 3 + 4 + 2 * 4 + 2)


def test_empty_weight_set(tmp_path):
    save_weights(tmp_path / "empty", [], split_index=0)
    loaded, split_index = load_weights(tmp_path / "empty")
    assert len(loaded) == 0 and split_index == 0


def test_blob_is_little_endian_in_layer_order(tmp_path):
    import struct

    ws = random_weights()
    _, blob_path = save_weights(tmp_path / "ckpt", ws, split_index=1)
    raw = blob_path.read_bytes()
    first_weight = ws[0][0][0, 0]
    assert raw[:8] == struct.pack("<d", first_weight)
    # bias of layer 0 follows its 4x3 weight block
    assert raw[8 * 12 : 8 * 13] == struct.pack("<d", ws[0][1][0])


def test_truncated_blob_rejected(tmp_path):
    ws = random_weights()
    _, blob_path = save_weights(tmp_path / "ckpt", ws, split_index=0)
    blob_path.write_bytes(blob_path.read_bytes()[:-8])
    with pytest.raises(ParseError, match="blob"):
        load_weights(tmp_path / "ckpt")


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m.pop("layer_shapes"),
        lambda m: m.pop("split_index"),
        lambda m: m.update(layer_shapes=[[4.5, 3], [2, 4]]),
        lambda m: m.update(dtype=">f8"),
    ],
    ids=["no-layer-shapes", "no-split-index", "non-integer-shape", "big-endian-dtype"],
)
def test_bad_manifest_rejected(tmp_path, edit):
    manifest_path, _ = save_weights(tmp_path / "ckpt", random_weights(), split_index=1)
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ParseError, match="manifest"):
        load_weights(tmp_path / "ckpt")


def test_stacked_round_trip_bit_exact(tmp_path):
    stacks = weight_block([random_weights(seed) for seed in range(3)])[1]
    manifest_path, blob_path = save_weights(tmp_path / "p", stacks, split_index=0, clients=3)
    manifest = json.loads(manifest_path.read_text())
    # only a stacked file records its client count
    row_manifest_path, _ = save_weights(tmp_path / "row", random_weights(0), split_index=0)
    assert manifest == {**json.loads(row_manifest_path.read_text()), "clients": 3}
    # per layer, the W stack then the b stack
    assert blob_path.read_bytes() == weights_blob(stacks)
    loaded, split_index = load_weights(tmp_path / "p")
    assert split_index == 0
    assert [w.shape for w, _ in loaded] == [(3, 4, 3), (3, 2, 4)]
    assert [b.shape for _, b in loaded] == [(3, 4), (3, 2)]
    assert weights_equal(loaded, stacks)


def test_empty_stack_records_its_client_count(tmp_path):
    manifest_path, blob_path = save_weights(tmp_path / "p", [], split_index=0, clients=5)
    manifest = json.loads(manifest_path.read_text())
    assert manifest == {"clients": 5, "dtype": "<f8", "layer_shapes": [], "split_index": 0}
    assert blob_path.stat().st_size == 0
    assert load_weights(tmp_path / "p") == ([], 0)


@pytest.mark.parametrize("clients", [None, 2])
def test_stack_must_match_client_count(tmp_path, clients):
    stacks = weight_block([random_weights(seed) for seed in range(3)])[1]
    with pytest.raises(ShapeError):
        save_weights(tmp_path / "p", stacks, split_index=0, clients=clients)


def _edit_manifest(**changes):
    def apply(manifest_path, blob_path):
        manifest = json.loads(manifest_path.read_text())
        manifest.update(changes)
        manifest_path.write_text(json.dumps(manifest))

    return apply


def _append_to_blob(manifest_path, blob_path):
    blob_path.write_bytes(blob_path.read_bytes() + b"abc")


def _non_utf8_manifest(manifest_path, blob_path):
    manifest_path.write_bytes(manifest_path.read_bytes().replace(b'"<f8"', b'"<f8\xff"'))


# Each case edits a stack of 3 clients and either 2 layers or none, and
# names the file the error must name.
@pytest.mark.parametrize(
    "layers, corrupt, bad_file",
    [
        (2, _edit_manifest(split_index=7), "json"),
        (2, _append_to_blob, "bin"),
        (2, _non_utf8_manifest, "json"),
        (0, _edit_manifest(layer_shapes=[[0, 3]]), "json"),
        (0, _edit_manifest(clients=0), "json"),
        (0, _edit_manifest(clients=True), "json"),
        (0, _edit_manifest(clients=3.0), "json"),
        (2, _edit_manifest(clients=4), "bin"),
    ],
    ids=[
        "split-index-past-layers", "blob-not-whole-floats", "manifest-not-utf8", "zero-layer-dim",
        "zero-clients", "boolean-clients", "float-clients", "clients-disagree-with-blob",
    ],
)
def test_files_save_weights_never_writes_rejected(tmp_path, layers, corrupt, bad_file):
    stacks = weight_block([random_weights(seed)[:layers] for seed in range(3)])[1]
    manifest_path, blob_path = save_weights(tmp_path / "p", stacks, split_index=min(layers, 1), clients=3)
    corrupt(manifest_path, blob_path)
    with pytest.raises(ParseError, match="^" + re.escape(f"{tmp_path / 'p'}.{bad_file}: ")):
        load_weights(tmp_path / "p")


@pytest.mark.parametrize("data", ["new text\n", b"new bytes"])
def test_failed_replace_keeps_old_file(tmp_path, monkeypatch, data):
    path = tmp_path / "out.json"
    path.write_text("old\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        atomic_write(path, data)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]  # no *.tmp left behind
