import json
from dataclasses import asdict

import numpy as np
import pytest

from botledger.errors import DataError
from botledger.features import ScalingScope, WindowConfig
from botledger.network import ModelConfig
from botledger.schema import (
    FeatureSchema,
    FeatureType,
    Label,
    StatusLog,
    Timelines,
    WindowSet,
    canonical_schema,
    json_value,
    read_document,
)


def test_canonical_schema_shape() -> None:
    schema = canonical_schema()
    assert len(schema) == 9
    assert schema.features[0].name == "Number of Items"
    assert schema.features[0].type is FeatureType.ITEM
    assert schema.features[1].name == "Total Cash"
    assert [f.type for f in schema.features[1:5]] == [FeatureType.CASH] * 4
    assert [f.type for f in schema.features[5:]] == [FeatureType.EVALUATED_ASSET_VALUE] * 4
    assert all(schema.active)
    assert schema.features[0].column == "number_of_items"
    assert schema.columns[7] == "evaluated_asset_value_in_character_bank"
    ids = [f.id for f in schema.features]
    assert ids == list(range(1, 10))


def test_schema_roundtrip_preserves_order_and_mask() -> None:
    schema = canonical_schema().deactivate([2, 6])
    clone = read_document(FeatureSchema, asdict(schema), "feature schema")
    assert clone == schema
    assert clone.active_indices() == (0, 1, 3, 4, 5, 7, 8)
    assert [f.name for f in clone.active_features()] == [
        f.name for f in schema.active_features()
    ]


def _json(doc):
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize(
    "config",
    [
        ModelConfig(input_dim=7, hidden_dim=5, dropout_p=0.0, seed=12),
        WindowConfig(window_length=6, stride=3, scaling_scope=ScalingScope.PER_WINDOW),
        canonical_schema().deactivate([0, 4, 8]),
    ],
    ids=["model", "window", "schema"],
)
def test_documents_round_trip_through_json(config) -> None:
    assert read_document(type(config), _json(asdict(config)), "config") == config


@pytest.mark.parametrize(
    "cls, path, value, field",
    [
        (ModelConfig, ("hidden_dim",), "4", "hidden_dim must be an integer, got '4'"),
        (ModelConfig, ("dropout_p",), "0.2", "dropout_p must be a number"),
        (WindowConfig, ("stride",), True, "stride must be an integer"),
        (WindowConfig, ("scaling_scope",), "hourly", "scaling_scope"),
        (FeatureSchema, ("features", 2, "id"), 2.5, "features[2].id must be an integer"),
        (FeatureSchema, ("features", 2, "type"), "Gold", "features[2].type"),
        (FeatureSchema, ("active", 1), "true", "active[1] must be true or false"),
    ],
)
def test_wrongly_typed_document_field_names_the_field(cls, path, value, field) -> None:
    default = {ModelConfig: ModelConfig(input_dim=9), WindowConfig: WindowConfig(), FeatureSchema: canonical_schema()}
    doc = _json(asdict(default[cls]))
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    with pytest.raises(DataError, match=r"^malformed config document: ") as info:
        read_document(cls, doc, "config")
    assert field in str(info.value)


def test_document_faults_are_data_errors() -> None:
    schema, model = _json(asdict(canonical_schema())), asdict(ModelConfig(input_dim=9))
    with pytest.raises(DataError, match="seed missing"):
        read_document(ModelConfig, {k: v for k, v in model.items() if k != "seed"}, "model config")
    with pytest.raises(DataError, match="must be an object"):
        read_document(WindowConfig, [24, 12], "window config")
    with pytest.raises(DataError, match="features must be a list"):
        read_document(FeatureSchema, {**schema, "features": 5}, "feature schema")
    # the constructor's own checks become data errors too
    with pytest.raises(DataError, match="active mask length"):
        read_document(FeatureSchema, {**schema, "active": schema["active"][:-1]}, "feature schema")
    with pytest.raises(DataError, match="seed must be non-negative"):
        read_document(ModelConfig, {**model, "seed": -1}, "model config")


def test_json_value_casts_strictly() -> None:
    assert [json_value(int, 4.0), json_value(float, 3), json_value(bool, False)] == [4, 3.0, False]
    assert type(json_value(int, 4.0)) is int and type(json_value(float, 3)) is float
    assert json_value(str, 7) == "7"  # other types are called on the value
    assert json_value(FeatureType, "Cash") is FeatureType.CASH
    for typ, value in ((int, 2.5), (int, True), (int, "3"), (float, "0.1"), (float, False), (bool, 1), (bool, "true")):
        with pytest.raises(ValueError):
            json_value(typ, value)


def test_feature_types_write_as_their_values() -> None:
    assert json.dumps(asdict(canonical_schema().features[0])) == '{"id": 1, "name": "Number of Items", "type": "Item"}'


def test_schema_deactivate_everything_is_fatal() -> None:
    schema = canonical_schema()
    with pytest.raises(DataError):
        schema.deactivate(range(9))


def test_schema_deactivate_unknown_index() -> None:
    with pytest.raises(ValueError):
        canonical_schema().deactivate([42])


def test_label_encode() -> None:
    assert Label.BOT.encode() == 1.0
    assert Label.NORMAL.encode() == 0.0


def test_label_parse() -> None:
    assert Label.parse(" Bot ") is Label.BOT
    assert Label.parse("normal") is Label.NORMAL
    with pytest.raises(DataError):
        Label.parse("cyborg")


def test_label_sequences_convert_to_targets() -> None:
    got = np.asarray([Label.BOT, Label.NORMAL, Label.BOT], dtype=float)
    assert got.tolist() == [1.0, 0.0, 1.0]


def test_window_set_validation() -> None:
    def windows(x, y=(1.0,)):
        return WindowSet(np.array(x), np.array(y), np.array(["c1"] * len(y)), np.zeros(len(y)))

    ok = windows([[[0.0, 1.0], [0.5, 0.25]]])
    assert ok.x.shape == (1, 2, 2) and len(ok) == 1
    assert np.isnan(windows([[[0.0, 1.0], [0.5, 0.25]]], y=[np.nan]).y[0])  # unlabeled
    with pytest.raises(ValueError):
        windows([[[0.0, 1.1], [0.5, 0.25]]])
    with pytest.raises(ValueError):
        windows([[[0.0, -0.1], [0.5, 0.25]]])
    with pytest.raises(ValueError):
        windows([[[0.0, np.nan], [0.5, 0.25]]])
    with pytest.raises(ValueError):
        windows([[0.0, 1.0]])
    with pytest.raises(ValueError):
        windows([[[0.0, 1.0], [0.5, 0.25]]], y=[0.5])
    with pytest.raises(ValueError):
        windows([[[0.0, 1.0], [0.5, 0.25]]], y=[1.0, 0.0])


def test_timeline_matrix_order() -> None:
    timeline = Timelines(
        ["c1"], [Label.NORMAL.encode()], [0, 3], [1.0, 2.0, 3.0], [np.full(9, float(t)) for t in (1, 2, 3)]
    )
    assert len(timeline) == 1
    assert timeline.timestamp.tolist() == [1.0, 2.0, 3.0]
    assert timeline.values.shape == (3, 9)
    assert timeline.values[:, 0].tolist() == [1.0, 2.0, 3.0]


def _three_characters() -> Timelines:
    values = np.arange(12.0).reshape(6, 2)
    return Timelines(["a", "b", "c"], [1.0, 0.0, np.nan], [0, 2, 3, 6], np.arange(6.0), values)


def test_timelines_slice_shares_rows() -> None:
    timelines = _three_characters()
    tail = timelines[1:]
    assert tail.character_id.tolist() == ["b", "c"]
    assert tail.bounds.tolist() == [0, 1, 4]
    assert tail.timestamp.tolist() == [2.0, 3.0, 4.0, 5.0]
    assert np.shares_memory(tail.values, timelines.values)
    assert np.shares_memory(tail.timestamp, timelines.timestamp)
    assert len(timelines[3:]) == 0 and timelines[3:].bounds.tolist() == [0]
    with pytest.raises(ValueError):
        timelines[::2]


def test_timelines_select_drops_characters_left_without_rows() -> None:
    kept = _three_characters().select(np.array([True, False, False, False, True, True]))
    assert kept.character_id.tolist() == ["a", "c"]
    assert kept.y[0] == 1.0 and np.isnan(kept.y[1])
    assert kept.bounds.tolist() == [0, 1, 3]
    assert kept.values[:, 0].tolist() == [0.0, 8.0, 10.0]


@pytest.mark.parametrize("bounds", [[0, 2, 2, 6], [1, 2, 3, 6], [0, 2, 3, 5], [0, 3, 6]])
def test_timelines_bounds_give_every_character_rows(bounds) -> None:
    with pytest.raises(ValueError):
        Timelines(["a", "b", "c"], [1.0, 0.0, np.nan], bounds, np.arange(6.0), np.zeros((6, 2)))


def test_status_log_columns_must_agree() -> None:
    columns = {"character_id": ["a", "b"], "account_id": ["x", "y"], "timestamp": [1, 2], "values": np.zeros((2, 3))}
    log = StatusLog(**columns)
    assert log.timestamp.dtype == float and len(log) == 2
    assert [tuple(r[:3]) for r in log] == [("a", "x", 1.0), ("b", "y", 2.0)]
    for bad in ({"character_id": ["a"]}, {"account_id": ["x", "y", "z"]}, {"timestamp": [[1, 2]]},
                {"values": np.zeros(2)}, {"values": np.zeros((3, 3))}):
        with pytest.raises(ValueError):
            StatusLog(**{**columns, **bad})
