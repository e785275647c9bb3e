"""Scorer checkpoints: one .npz with a versioned JSON header and raw weights.

Arrays are stored bit-exactly, so a save/load round-trip reproduces Q values
down to the last bit, and identical training runs produce byte-identical
checkpoint files.  A seq header also names the tokenization its weights
were trained on (`encoding.TOKENIZATION`), because the same vocabulary
encodes a prompt differently under another one; a seq checkpoint that
names none, or another, is rejected.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from ..encoding import TOKENIZATION

FORMAT_VERSION = 2
_META_KEY = "__meta__"


class CheckpointError(ValueError):
    """Checkpoint file is malformed or from an unsupported version."""


def save_scorer(path, scorer, extra: Optional[dict] = None) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "backend": scorer.backend,
        "config": scorer.config_dict(),
        "extra": extra or {},
    }
    if scorer.backend == "seq":
        meta["window"] = scorer.window
        meta["tokenization"] = TOKENIZATION
    blob = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **{_META_KEY: blob}, **scorer.params)


def load_scorer(path):
    """Rebuild a scorer from disk; returns (scorer, extra_metadata)."""
    from .mlp import FeatureConfig, MlpConfig, MlpScorer
    from .seq import SeqConfig, SeqScorer

    with np.load(path) as data:
        if _META_KEY not in data:
            raise CheckpointError(f"{path} is not a scorer checkpoint")
        meta = json.loads(bytes(data[_META_KEY]).decode("utf-8"))
        if meta.get("format_version") != FORMAT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {meta.get('format_version')}")
        params = {name: data[name] for name in data.files if name != _META_KEY}

    cfg = dict(meta["config"])
    if meta["backend"] == "seq":
        tokenization = meta.get("tokenization")
        if tokenization != TOKENIZATION:
            trained = "an older tokenization" if tokenization is None else f"tokenization {tokenization!r}"
            raise CheckpointError(f"seq checkpoint was trained with {trained}, not {TOKENIZATION!r}; retrain it")
        scorer = SeqScorer(SeqConfig(**cfg), params=params, window=meta["window"])
    elif meta["backend"] == "mlp":
        fc = dict(cfg.pop("features"))
        fc["emotions"] = tuple(fc["emotions"])
        fc["history_bucket_edges"] = tuple(fc["history_bucket_edges"])
        cfg["features"] = FeatureConfig(**fc)
        cfg["hidden"] = tuple(cfg["hidden"])
        scorer = MlpScorer(MlpConfig(**cfg), params=params)
    else:
        raise CheckpointError(f"unknown backend {meta['backend']!r}")
    return scorer, meta["extra"]
