"""Binary model file serialization.

Layout, little-endian throughout:

    bytes 0-3   magic b"BOTW"
    bytes 4-7   format version (u32)
    bytes 8-11  metadata length in bytes (u32)
    ...         metadata: canonical UTF-8 JSON object (model config, feature
                schema and window config as ``schema.document`` writes
                them, training summary, and the file's sha256 as hex)
    ...         ``ModelParams.flat`` as raw float64, which holds the tensors
                in C order in the sequence W_x, W_h, b, bn_gamma, bn_beta,
                bn_running_mean, bn_running_var, W_out, b_out

Version 2 dropped the model config's L2 penalty and batch-norm switch and
added a digest of the payload; version 3's ``sha256`` digests the canonical
metadata without that key, followed by the payload.  Older versions are
rejected: a version 1 config may name a network this package no longer
builds, and a version 2 digest leaves the metadata open to edits.

The configs are read back with ``schema.read_document``, so a field of the
wrong type or a config its constructor rejects is a ``DataError``.  The
payload length is implied by the metadata's model config, so the reader can
verify it exactly, and the digest catches a payload or a metadata value
changed in place, or a key added, which would otherwise still load as a
finite model.  Unknown magic or version is rejected rather than guessed at,
and so is metadata whose feature schema does not feed ``input_dim``
features to the model, and a payload holding NaN or ±inf.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .features import WindowConfig
from .network import ModelConfig, ModelParams, param_layout
from .schema import FeatureSchema, document, read_document

MAGIC = b"BOTW"
FORMAT_VERSION = 3


@dataclass(frozen=True)
class ModelBundle:
    """Everything needed to score a log exactly as the model was trained."""

    params: ModelParams
    config: ModelConfig
    schema: FeatureSchema
    window_config: WindowConfig
    training_summary: dict


def save_model(path: str | Path, bundle: ModelBundle) -> None:
    params, cfg = bundle.params, bundle.config
    if (params.input_dim, params.hidden_dim) != (cfg.input_dim, cfg.hidden_dim):
        raise ValueError("model params do not match the model config's dimensions")
    payload = params.flat.astype("<f8", copy=False).tobytes()
    metadata = {
        "model_config": cfg,
        "feature_schema": bundle.schema,
        "window_config": bundle.window_config,
        "training_summary": bundle.training_summary,
    }
    metadata["sha256"] = _digest(metadata, payload)
    meta_bytes = _canonical(metadata)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(payload)


def _canonical(metadata: dict) -> bytes:
    return json.dumps(metadata, sort_keys=True, separators=(",", ":"), default=document).encode("utf-8")


def _digest(metadata: dict, payload: bytes) -> str:
    """The sha256 of the canonical ``metadata``, less its digest, followed by ``payload``."""
    return hashlib.sha256(_canonical({k: v for k, v in metadata.items() if k != "sha256"}) + payload).hexdigest()


def load_model(path: str | Path) -> ModelBundle:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    if len(blob) < 12:
        raise DataError(f"model file {path} is truncated")
    if blob[:4] != MAGIC:
        raise DataError(f"model file {path} has wrong magic (not a model file)")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != FORMAT_VERSION:
        raise DataError(
            f"model file {path} has unsupported format version {version}"
        )
    (meta_len,) = struct.unpack("<I", blob[8:12])
    meta_end = 12 + meta_len
    if len(blob) < meta_end:
        raise DataError(f"model file {path} is truncated inside metadata")
    try:
        metadata = json.loads(blob[12:meta_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"model file {path} has corrupt metadata: {exc}") from exc
    if not isinstance(metadata, dict):
        raise DataError(f"model file {path} metadata is not a JSON object")
    for key in ("model_config", "feature_schema", "window_config", "training_summary", "sha256"):
        if key not in metadata:
            raise DataError(f"model file {path} metadata lacks {key!r}")

    config = read_document(ModelConfig, metadata["model_config"], "model config")
    schema = read_document(FeatureSchema, metadata["feature_schema"], "feature schema")
    window_config = read_document(WindowConfig, metadata["window_config"], "window config")
    n_active = len(schema.active_indices())
    if n_active != config.input_dim:
        raise DataError(
            f"model file {path} feature schema has {n_active} active features "
            f"but the model takes input_dim {config.input_dim}"
        )

    layout = param_layout(config.input_dim, config.hidden_dim)
    payload = blob[meta_end:]
    if len(payload) != layout.size * 8:
        raise DataError(
            f"model file {path} tensor payload is {len(payload)} bytes, "
            f"expected {layout.size * 8}"
        )
    if _digest(metadata, payload) != metadata["sha256"]:
        raise DataError(f"model file {path} does not match its sha256 digest")
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.isfinite(flat).all():
        bad = next(name for name, (where, _) in layout.views.items() if not np.isfinite(flat[where]).all())
        raise DataError(f"model file {path} tensor {bad} holds a non-finite value")
    return ModelBundle(
        params=ModelParams(flat, layout),
        config=config,
        schema=schema,
        window_config=window_config,
        training_summary=metadata["training_summary"],
    )
