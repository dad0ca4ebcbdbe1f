"""Generator behavior: determinism, separability, and conservation audits."""

from collections import defaultdict

import numpy as np
import pytest

from botledger.errors import DataError
from botledger.schema import Label, StatusLog, StatusRecord, canonical_schema
from botledger.synth import (
    DEFAULT_START,
    EVENT_LOG_HEADER,
    ITEM_PRICE,
    Archetype,
    ArchetypeParams,
    DumpEvent,
    GenConfig,
    PurchaseEvent,
    archetype_params,
    draw_character_params,
    generate,
    inject_constant_feature,
    write_event_log,
)

BASE_CFG = GenConfig(n_bots=12, n_normals=12, days=7.0, seed=3)


@pytest.fixture(scope="module")
def dataset():
    return generate(BASE_CFG)


def head(log, n=5):
    """The first ``n`` rows of a status log."""
    return StatusLog(log.character_id[:n], log.account_id[:n], log.timestamp[:n], log.values[:n])


def by_character(records):
    grouped = defaultdict(list)
    for r in records:
        grouped[r.character_id].append(r)
    for recs in grouped.values():
        recs.sort(key=lambda r: r.timestamp)
    return grouped


# ------------------------------------------------------------- parameters

def test_archetype_params_endpoints() -> None:
    farming = archetype_params(Archetype.FARMING_BOT, 1.0)
    assert farming.income_rate == 2600.0
    assert farming.dumps_per_day == 2.0
    banker = archetype_params(Archetype.BANKER_BOT, 1.0)
    assert banker.income_rate == 0.0
    assert banker.spend_propensity == 0.0
    # at zero separability each bot collapses onto its human counterpart
    assert archetype_params(Archetype.FARMING_BOT, 0.0) == archetype_params(
        Archetype.HARDCORE_HUMAN, 0.5
    )
    assert archetype_params(Archetype.BANKER_BOT, 0.0) == archetype_params(
        Archetype.MERCHANT_HUMAN, 0.0
    )


def test_archetype_params_midpoint_lerp() -> None:
    lo = archetype_params(Archetype.HARDCORE_HUMAN, 1.0)
    hi = archetype_params(Archetype.FARMING_BOT, 1.0)
    mid = archetype_params(Archetype.FARMING_BOT, 0.5)
    assert mid.income_rate == (lo.income_rate + hi.income_rate) / 2.0
    assert mid.duty_cycle == (lo.duty_cycle + hi.duty_cycle) / 2.0


def test_archetype_params_rejects_bad_separability() -> None:
    with pytest.raises(ValueError):
        archetype_params(Archetype.FARMING_BOT, 1.5)
    with pytest.raises(ValueError):
        archetype_params(Archetype.FARMING_BOT, -0.1)


def test_zero_separability_draws_match_human_base() -> None:
    # matched seed-pair: identical generator state + identical vectors
    # must yield identical per-character draws
    pairs = (
        (Archetype.FARMING_BOT, Archetype.HARDCORE_HUMAN),
        (Archetype.BANKER_BOT, Archetype.MERCHANT_HUMAN),
    )
    for bot, human in pairs:
        a = draw_character_params(bot, 0.0, np.random.default_rng(123))
        b = draw_character_params(human, 0.0, np.random.default_rng(123))
        assert a == b


def test_draws_jitter_but_preserve_exact_zeros() -> None:
    rng = np.random.default_rng(0)
    drawn = draw_character_params(Archetype.BANKER_BOT, 1.0, rng)
    assert drawn.income_rate == 0.0
    assert drawn.spend_propensity == 0.0
    assert drawn.dumps_per_day == 0.0
    drawn2 = draw_character_params(Archetype.FARMING_BOT, 1.0, np.random.default_rng(0))
    assert drawn2.income_rate != 2600.0  # jitter applied
    assert drawn2.dump_fraction == 0.9  # non-jittered field passes through


# ----------------------------------------------------------------- config

def test_gen_config_steps() -> None:
    assert GenConfig(1, 1).steps == 28 * 24
    assert GenConfig(1, 1, days=1.0, interval_hours=0.5).steps == 48


def test_gen_config_validation() -> None:
    with pytest.raises(ValueError):
        GenConfig(0, 0)
    with pytest.raises(ValueError):
        GenConfig(1, 1, days=-1.0)
    with pytest.raises(ValueError):
        GenConfig(1, 1, separability=2.0)


# --------------------------------------------------------------- datasets

def test_generate_is_deterministic() -> None:
    cfg = GenConfig(n_bots=3, n_normals=3, days=2.0, seed=11)
    a = generate(cfg)
    b = generate(cfg)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.character_id == rb.character_id
        assert ra.timestamp == rb.timestamp
        assert np.array_equal(ra.values, rb.values)
    assert a.labels.entries == b.labels.entries
    assert a.events == b.events


def test_labels_match_archetypes(dataset) -> None:
    entries = dataset.labels.entries
    assert sum(1 for v in entries.values() if v is Label.BOT) == 12
    assert sum(1 for v in entries.values() if v is Label.NORMAL) == 12
    assert all(cid.startswith("b") == (lab is Label.BOT) for cid, lab in entries.items())
    assert dataset.labels.as_of.endswith("Z")


def test_normals_only_roster() -> None:
    ds = generate(GenConfig(n_bots=0, n_normals=5, days=1.0, seed=0))
    assert len(ds.labels.entries) == 5
    assert all(lab is Label.NORMAL for lab in ds.labels.entries.values())
    assert not any(isinstance(e, DumpEvent) for e in ds.events)


def test_single_bot_has_no_dump_channel() -> None:
    ds = generate(GenConfig(n_bots=1, n_normals=1, days=2.0, seed=0))
    assert not any(isinstance(e, DumpEvent) for e in ds.events)


def test_snapshot_cadence(dataset) -> None:
    grouped = by_character(dataset.records)
    assert len(grouped) == 24
    for recs in grouped.values():
        assert len(recs) == BASE_CFG.steps
        stamps = np.array([r.timestamp for r in recs])
        assert stamps[0] == DEFAULT_START
        assert np.all(np.diff(stamps) == BASE_CFG.snapshot_interval)


def test_records_iterate_as_rows_in_time_then_id_order(dataset) -> None:
    # what a caller that loops over records sees: one row view per snapshot
    rows = list(dataset.records)
    assert len(dataset.records) == len(rows) == 24 * BASE_CFG.steps
    assert all(isinstance(r, StatusRecord) for r in rows)
    keys = [(r.timestamp, r.character_id) for r in rows]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert all(r.account_id == f"acct_{r.character_id}" for r in rows)
    assert all(type(r.character_id) is str and type(r.timestamp) is float for r in rows)
    assert np.array_equal(np.array([r.values for r in rows]), dataset.records.values)


def test_stocks_never_negative(dataset) -> None:
    values = np.array([r.values for r in dataset.records])
    assert values.min() >= 0.0
    assert np.isfinite(values).all()


def test_snapshot_internal_identities(dataset) -> None:
    values = np.array([r.values for r in dataset.records])
    # total cash decomposes into its three locations
    assert np.array_equal(values[:, 1], values[:, 2] + values[:, 3] + values[:, 4])
    # evaluated asset value = total cash + priced carried/banked items
    assert np.all(values[:, 5] >= values[:, 1])


def test_bot_growth_dominates_at_full_separability(dataset) -> None:
    grouped = by_character(dataset.records)
    growth = {Label.BOT: [], Label.NORMAL: []}
    for cid, recs in grouped.items():
        growth[dataset.labels.entries[cid]].append(recs[-1].values[1] - recs[0].values[1])
    ratio = np.mean(growth[Label.BOT]) / np.mean(growth[Label.NORMAL])
    assert ratio >= 3.0


# ------------------------------------------------------------ dump audits

def test_dump_events_conserve_sender_books(dataset) -> None:
    dumps = [e for e in dataset.events if isinstance(e, DumpEvent)]
    assert dumps, "expected at least one dump at separability 1"
    for ev in dumps:
        assert ev.amount > 0.0
        assert ev.sender_cash_after == pytest.approx(
            ev.sender_cash_before - ev.amount, abs=1e-6
        )
        assert ev.from_character.startswith("b")
        assert ev.to_character.startswith("b")
        assert ev.from_character != ev.to_character


def test_dump_receipts_match_banker_balance_jumps(dataset) -> None:
    # at separability 1 a banker's warehouse moves only when receipts land,
    # so every balance delta must equal that step's dumped total
    receipts: dict[tuple[str, int], float] = defaultdict(float)
    for ev in dataset.events:
        if isinstance(ev, DumpEvent):
            step = int(round((ev.timestamp - DEFAULT_START) / BASE_CFG.snapshot_interval))
            receipts[(ev.to_character, step)] += ev.amount

    bankers = {cid for cid, _ in receipts}
    assert bankers
    grouped = by_character(dataset.records)
    for banker in bankers:
        recs = grouped[banker]
        for i in range(1, len(recs)):
            delta = recs[i].values[3] - recs[i - 1].values[3]
            assert delta == pytest.approx(receipts.get((banker, i), 0.0), abs=1e-6)


def test_purchases_conserve_asset_value(dataset) -> None:
    for ev in dataset.events:
        if isinstance(ev, PurchaseEvent):
            assert ev.cash_spent == pytest.approx(ev.items_gained * ITEM_PRICE)
            assert ev.items_gained >= 1


# -------------------------------------------------------------- event log

def test_event_log_roundtrip(tmp_path, dataset) -> None:
    path = tmp_path / "events.log"
    write_event_log(path, dataset.events)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == EVENT_LOG_HEADER
    assert len(lines) == 1 + len(dataset.events)
    for line in lines[1:]:
        parts = line.split("\t")
        assert len(parts) == 7
        assert parts[0] in ("dump", "purchase")


def test_events_sorted_by_time(dataset) -> None:
    stamps = [e.timestamp for e in dataset.events]
    assert stamps == sorted(stamps)


# -------------------------------------------------------------- injection

def test_inject_zero_feature(dataset) -> None:
    injected = inject_constant_feature(dataset.records, "cash_in_vendor", 0.0)
    idx = 4
    for before, after in zip(dataset.records, injected):
        assert after.values[idx] == 0.0
        mask = np.ones(9, dtype=bool)
        mask[idx] = False
        assert np.array_equal(before.values[mask], after.values[mask])
    # source untouched
    assert any(r.values[idx] > 0.0 for r in dataset.records)


def test_inject_constant_feature_by_display_name(dataset) -> None:
    injected = inject_constant_feature(dataset.records, "Number of Items", 7.0)
    assert all(r.values[0] == 7.0 for r in injected)


def test_inject_unknown_feature_rejected(dataset) -> None:
    with pytest.raises(DataError):
        inject_constant_feature(head(dataset.records), "no_such_feature", 0.0)


def test_inject_respects_custom_schema(dataset) -> None:
    schema = canonical_schema()
    injected = inject_constant_feature(head(dataset.records), "Total Cash", 1.0, schema)
    assert all(r.values[1] == 1.0 for r in injected)


def test_lerp_identity_and_endpoints() -> None:
    a = ArchetypeParams(1.0, 0.2, 0.5, 0.5, 1.0, 0.1, 0.0, 0.0)
    b = ArchetypeParams(3.0, 0.4, 0.9, 0.0, 5.0, 0.3, 2.0, 0.9)
    assert ArchetypeParams.lerp(a, b, 0.0) == a
    assert ArchetypeParams.lerp(a, b, 1.0) == b
    mid = ArchetypeParams.lerp(a, b, 0.5)
    assert mid.income_rate == 2.0 and mid.dump_fraction == 0.45
