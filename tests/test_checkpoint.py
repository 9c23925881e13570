import json
import os

import numpy as np
import pytest

from fedper.checkpoint import atomic_write, load_weights, save_weights
from fedper.errors import ParseError
from fedper.nn import weights_equal


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
