"""Binary model round trips and corruption rejection."""

import hashlib
import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

from botledger.errors import DataError
from botledger.features import WindowConfig
from botledger.model_io import FORMAT_VERSION, MAGIC, ModelBundle, load_model, save_model
from botledger.network import ModelConfig, ModelParams, forward, init_params, param_layout
from botledger.schema import canonical_schema


def make_bundle(seed=0, hidden=6, input_dim=9):
    cfg = ModelConfig(input_dim=input_dim, hidden_dim=hidden, dropout_p=0.1, seed=seed)
    params = init_params(cfg)
    # perturb away from init so the round trip is not trivially symmetric
    rng = np.random.default_rng(seed + 100)
    params.bn_running_mean = rng.normal(size=input_dim)
    params.bn_running_var = rng.uniform(0.5, 2.0, size=input_dim)
    params.b_out = float(rng.normal())
    return ModelBundle(
        params=params,
        config=cfg,
        schema=canonical_schema(),
        window_config=WindowConfig(window_length=24, stride=12),
        training_summary={"epochs": 3, "final_loss": 0.123},
    )


def test_round_trip_bit_identical(tmp_path) -> None:
    bundle = make_bundle()
    path = tmp_path / "model.bin"
    save_model(path, bundle)
    loaded = load_model(path)

    for name in ("W_x", "W_h", "b", "bn_gamma", "bn_beta", "bn_running_mean", "bn_running_var", "W_out"):
        a = getattr(bundle.params, name)
        b = getattr(loaded.params, name)
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name
    assert loaded.params.b_out == bundle.params.b_out
    assert loaded.config == bundle.config
    assert loaded.window_config == bundle.window_config
    assert asdict(loaded.schema) == asdict(bundle.schema)
    assert loaded.training_summary == {"epochs": 3, "final_loss": 0.123}


def _filled(start, *shape):
    return (np.arange(start, start + int(np.prod(shape)), dtype=float) / 8.0).reshape(shape)


def test_file_bytes_are_pinned(tmp_path) -> None:
    # tensors filled without an RNG, so the bytes cannot drift with numpy's
    # generators; the digest pins format version 3 as first written, tensor
    # by tensor
    layout = param_layout(9, 2)
    params = ModelParams(np.empty(layout.size), layout)
    params.W_x = _filled(0, 8, 9)
    params.W_h = _filled(100, 8, 2)
    params.b = _filled(200, 8)
    params.bn_gamma = _filled(300, 9)
    params.bn_beta = _filled(400, 9)
    params.bn_running_mean = _filled(500, 9)
    params.bn_running_var = _filled(600, 9)
    params.W_out = _filled(700, 2)
    params.b_out = -0.375
    bundle = ModelBundle(
        params=params,
        config=ModelConfig(input_dim=9, hidden_dim=2),
        schema=canonical_schema(),
        window_config=WindowConfig(window_length=24, stride=12),
        training_summary={"epochs": 1},
    )
    path = tmp_path / "model.bin"
    save_model(path, bundle)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "05b87463c0b9edbfef2121bf8278aa492efa425fba250cef8e43edb80d419b3c"
    assert load_model(path).params.flat.tobytes() == params.flat.tobytes()


def test_round_trip_preserves_predictions(tmp_path) -> None:
    bundle = make_bundle(seed=4)
    path = tmp_path / "model.bin"
    save_model(path, bundle)
    loaded = load_model(path)
    batch = np.random.default_rng(9).random((5, 12, 9))
    p_orig, _ = forward(bundle.params, batch, bundle.config, training=False)
    p_load, _ = forward(loaded.params, batch, loaded.config, training=False)
    assert np.array_equal(p_orig, p_load)


def test_save_is_deterministic(tmp_path) -> None:
    bundle = make_bundle(seed=2)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(p1, bundle)
    save_model(p2, bundle)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path) -> None:
    path = tmp_path / "model.bin"
    save_model(path, make_bundle())
    blob = path.read_bytes()
    assert blob[:4] == MAGIC == b"BOTW"
    assert struct.unpack("<I", blob[4:8]) == (FORMAT_VERSION,)
    (meta_len,) = struct.unpack("<I", blob[8:12])
    import json

    meta = json.loads(blob[12 : 12 + meta_len].decode("utf-8"))
    assert set(meta) == {"model_config", "feature_schema", "window_config", "training_summary", "sha256"}
    assert blob[12 : 12 + meta_len] == json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    # the digest covers the canonical metadata less its own key, then the payload
    unsigned = json.dumps({k: v for k, v in meta.items() if k != "sha256"}, sort_keys=True, separators=(",", ":"))
    assert meta["sha256"] == hashlib.sha256(unsigned.encode() + blob[12 + meta_len :]).hexdigest()


def test_wrong_magic_rejected(tmp_path) -> None:
    path = tmp_path / "model.bin"
    save_model(path, make_bundle())
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="magic"):
        load_model(path)


def test_unknown_version_rejected(tmp_path) -> None:
    path = tmp_path / "model.bin"
    save_model(path, make_bundle())
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 999)
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="version"):
        load_model(path)


def test_truncated_payload_rejected(tmp_path) -> None:
    path = tmp_path / "model.bin"
    save_model(path, make_bundle())
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(DataError, match="payload"):
        load_model(path)


def test_truncated_header_rejected(tmp_path) -> None:
    path = tmp_path / "model.bin"
    path.write_bytes(b"BOTW\x01")
    with pytest.raises(DataError, match="truncated"):
        load_model(path)


def test_corrupt_metadata_rejected(tmp_path) -> None:
    path = tmp_path / "model.bin"
    save_model(path, make_bundle())
    blob = bytearray(path.read_bytes())
    blob[12] = ord("X")  # breaks the leading '{'
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="metadata"):
        load_model(path)


@pytest.mark.parametrize(
    "key", ["model_config", "feature_schema", "window_config", "training_summary", "sha256"]
)
def test_metadata_missing_key_rejected(tmp_path, key) -> None:
    path = tmp_path / "model.bin"
    save_model(path, make_bundle())
    blob = path.read_bytes()
    (meta_len,) = struct.unpack("<I", blob[8:12])
    metadata = json.loads(blob[12 : 12 + meta_len])
    del metadata[key]
    meta = json.dumps(metadata).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(meta)) + meta + blob[12 + meta_len :])
    with pytest.raises(DataError, match=f"metadata lacks '{key}'"):
        load_model(path)


def test_missing_file_rejected(tmp_path) -> None:
    with pytest.raises(DataError):
        load_model(tmp_path / "absent.bin")


def test_extra_payload_rejected(tmp_path) -> None:
    path = tmp_path / "model.bin"
    save_model(path, make_bundle())
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 8)
    with pytest.raises(DataError, match="payload"):
        load_model(path)


@pytest.mark.parametrize("name, value", [("b_out", np.nan), ("bn_running_var", np.inf), ("W_x", -np.inf)])
def test_non_finite_tensor_rejected(tmp_path, name, value) -> None:
    bundle = make_bundle()
    where, _ = bundle.params.layout.views[name]
    bundle.params.flat[where.start] = value
    path = tmp_path / "model.bin"
    save_model(path, bundle)
    with pytest.raises(DataError, match=f"model file {path} tensor {name} holds a non-finite value"):
        load_model(path)
