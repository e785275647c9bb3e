"""`load_scorer` rejects malformed checkpoints of either backend."""

from __future__ import annotations

import json

import numpy as np
import pytest

from supportq.qnet import load_scorer, save_scorer
from supportq.encoding import TOKENIZATION
from supportq.qnet.checkpoint import FORMAT_VERSION, CheckpointError


@pytest.fixture(params=["seq", "mlp"])
def saved(request, tmp_path, seq_scorer, mlp_scorer):
    """(path, {name: array} as stored, decoded header) for each backend."""
    scorer = seq_scorer if request.param == "seq" else mlp_scorer
    path = tmp_path / "ckpt.npz"
    save_scorer(path, scorer)
    with np.load(path) as data:
        arrays = {n: data[n] for n in data.files}
    meta = json.loads(bytes(arrays.pop("__meta__")).decode("utf-8"))
    return path, arrays, meta


def _write(path, arrays, meta=None):
    if meta is not None:
        arrays = {"__meta__": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8), **arrays}
    np.savez(path, **arrays)


def test_missing_header_rejected(saved):
    path, arrays, _ = saved
    _write(path, arrays)
    with pytest.raises(CheckpointError, match="not a scorer checkpoint"):
        load_scorer(path)


def test_wrong_format_version_rejected(saved):
    path, arrays, meta = saved
    _write(path, arrays, {**meta, "format_version": FORMAT_VERSION + 1})
    with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
        load_scorer(path)


def test_format_version_1_rejected(saved):
    path, arrays, meta = saved
    _write(path, arrays, {**meta, "format_version": 1})
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
        load_scorer(path)


def test_window_only_in_seq_header(saved):
    _, _, meta = saved
    assert ("window" in meta) == (meta["backend"] == "seq")
    assert ("dtype" in meta["config"]) == (meta["backend"] == "seq")


def test_tokenization_only_in_seq_header(saved):
    _, _, meta = saved
    assert meta.get("tokenization") == (TOKENIZATION if meta["backend"] == "seq" else None)


@pytest.mark.parametrize("tokenization", [None, "space-byte"])
def test_seq_checkpoint_of_another_tokenization_rejected(tmp_path, seq_scorer, tokenization):
    path = tmp_path / "ckpt.npz"
    save_scorer(path, seq_scorer)
    with np.load(path) as data:
        arrays = {n: data[n] for n in data.files}
    meta = json.loads(bytes(arrays.pop("__meta__")).decode("utf-8"))
    del meta["tokenization"]
    if tokenization is not None:
        meta["tokenization"] = tokenization
    _write(path, arrays, meta)
    with pytest.raises(CheckpointError, match=f"not '{TOKENIZATION}'; retrain it"):
        load_scorer(path)


def test_unknown_backend_rejected(saved):
    path, arrays, meta = saved
    _write(path, arrays, {**meta, "backend": "rnn"})
    with pytest.raises(CheckpointError, match="unknown backend"):
        load_scorer(path)


def test_missing_array_rejected(saved):
    path, arrays, meta = saved
    arrays.pop(sorted(arrays)[0])
    _write(path, arrays, meta)
    with pytest.raises(ValueError, match="parameter names do not match"):
        load_scorer(path)


def test_wrong_shape_rejected(saved):
    path, arrays, meta = saved
    name = sorted(arrays)[-1]
    arrays[name] = np.zeros(arrays[name].shape[0] + 1, dtype=arrays[name].dtype)
    _write(path, arrays, meta)
    with pytest.raises(ValueError, match=f"shape mismatch for {name}"):
        load_scorer(path)
