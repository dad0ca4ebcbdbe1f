"""Synthetic game-economy generator for pipeline calibration and testing.

Simulates per-character financial telemetry over a fixed horizon, snapshotted
at a regular interval, with two populations:

* humans (casual, hardcore, merchant) earn in diurnal bursts with idle days,
  buy items (cash down, items up at the default price, so evaluated asset
  value is conserved), park cash in banks and vendors, and occasionally mail
  small gifts;
* bots are either farmers (near-constant grinding with low variance, almost
  no spending) or bankers (mules that accumulate what farmers dump).  Farmer
  dumps move a fixed fraction of cash holdings to an assigned banker; both
  sides of every dump are recorded in an event log so value conservation can
  be audited from the outside.

A separability knob in [0, 1] linearly interpolates each bot archetype's
parameter vector from a matched human archetype (0: drawn as that human
archetype) to its fully bot-like target (1: easy to separate).  At 0 the
populations still differ: farmers match hardcore humans and bankers
merchants, while humans are a third each casual, hardcore and merchant, so
0 is not a population null.  Everything is driven by ``numpy`` generators
keyed as [seed, character index], so output is reproducible record-for-record
for a given config.

Each character's snapshots fill one (steps, 9) array, and ``generate``
returns every row as one ``StatusLog`` ordered by time and then character id.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone

import numpy as np

from .errors import DataError
from .ingest import LabelFile
from .schema import (
    POSITIVE,
    UNIT,
    Label,
    StatusLog,
    at_least,
    canonical_schema,
    check_settings,
    setting,
)

# Fixed valuation of one item, used for purchases and evaluated asset values.
ITEM_PRICE = 50.0
# 2024-01-01T00:00:00Z
DEFAULT_START = 1704067200.0


class Archetype(enum.Enum):
    FARMING_BOT = "farming_bot"
    BANKER_BOT = "banker_bot"
    CASUAL_HUMAN = "casual_human"
    HARDCORE_HUMAN = "hardcore_human"
    MERCHANT_HUMAN = "merchant_human"

    @property
    def is_bot(self) -> bool:
        return self in (Archetype.FARMING_BOT, Archetype.BANKER_BOT)


@dataclass(frozen=True)
class ArchetypeParams:
    """Behavioral parameter vector; every field interpolates linearly."""

    income_rate: float  # cash earned per active hour
    income_noise: float  # relative sigma of per-step income
    duty_cycle: float  # base fraction of steps spent active
    diurnal_amplitude: float  # strength of the time-of-day activity wave
    item_rate: float  # items looted per active hour
    spend_propensity: float  # chance per active step of buying items
    dumps_per_day: float  # expected farmer-to-banker transfers per day
    dump_fraction: float  # share of cash holdings sent per dump

    @staticmethod
    def lerp(a: "ArchetypeParams", b: "ArchetypeParams", s: float) -> "ArchetypeParams":
        values = {
            f.name: getattr(a, f.name) + (getattr(b, f.name) - getattr(a, f.name)) * s
            for f in fields(ArchetypeParams)
        }
        return ArchetypeParams(**values)


_HUMAN_PARAMS = {
    Archetype.CASUAL_HUMAN: ArchetypeParams(400.0, 0.50, 0.20, 0.70, 1.5, 0.25, 0.0, 0.0),
    Archetype.HARDCORE_HUMAN: ArchetypeParams(1500.0, 0.45, 0.45, 0.55, 4.0, 0.30, 0.0, 0.0),
    Archetype.MERCHANT_HUMAN: ArchetypeParams(900.0, 0.60, 0.35, 0.60, 2.5, 0.45, 0.0, 0.0),
}
_BOT_TARGETS = {
    Archetype.FARMING_BOT: ArchetypeParams(2600.0, 0.08, 0.97, 0.0, 6.0, 0.02, 2.0, 0.90),
    Archetype.BANKER_BOT: ArchetypeParams(0.0, 0.10, 0.95, 0.0, 0.2, 0.0, 0.0, 0.0),
}
# Each bot archetype interpolates away from this human counterpart.
_BOT_HUMAN_BASE = {
    Archetype.FARMING_BOT: Archetype.HARDCORE_HUMAN,
    Archetype.BANKER_BOT: Archetype.MERCHANT_HUMAN,
}


def archetype_params(archetype: Archetype, separability: float) -> ArchetypeParams:
    """Population-level parameter vector at the given separability."""
    if not 0.0 <= separability <= 1.0:
        raise ValueError("separability must lie in [0, 1]")
    if archetype.is_bot:
        base = _HUMAN_PARAMS[_BOT_HUMAN_BASE[archetype]]
        return ArchetypeParams.lerp(base, _BOT_TARGETS[archetype], separability)
    return _HUMAN_PARAMS[archetype]


def draw_character_params(
    archetype: Archetype, separability: float, rng: np.random.Generator
) -> ArchetypeParams:
    """Per-character jitter around the archetype vector.

    Consumes the same number of draws regardless of archetype or values, so
    two archetypes with equal vectors produce identical characters from
    identical generator states.
    """
    base = archetype_params(archetype, separability)
    # multiplicative jitter keeps exact zeros at zero (mule cash audits rely
    # on spend and income staying 0 at full separability)
    return replace(
        base,
        income_rate=base.income_rate * float(np.exp(0.15 * rng.standard_normal())),
        item_rate=base.item_rate * float(np.exp(0.20 * rng.standard_normal())),
        duty_cycle=float(np.clip(base.duty_cycle + rng.uniform(-0.05, 0.05), 0.01, 1.0)),
        spend_propensity=float(np.clip(base.spend_propensity * (1.0 + rng.uniform(-0.2, 0.2)), 0.0, 1.0)),
        dumps_per_day=base.dumps_per_day * float(np.exp(0.10 * rng.standard_normal())),
    )


@dataclass(frozen=True)
class GenConfig:
    """A synthetic dataset: ``n_bots`` and ``n_normals`` characters snapshotted every
    ``interval_hours`` for ``days``.  Synth reads the interval only as
    ``snapshot_interval``, in seconds."""

    n_bots: int = setting(10, at_least(0))
    n_normals: int = setting(40, at_least(0))
    days: float = setting(28.0, POSITIVE)
    interval_hours: float = setting(1.0, POSITIVE)
    separability: float = setting(1.0, UNIT)
    seed: int = setting(0, at_least(0))

    def __post_init__(self) -> None:
        check_settings(self)
        if self.n_bots + self.n_normals < 1:
            raise ValueError("need at least one character")

    @property
    def snapshot_interval(self) -> float:  # seconds
        return self.interval_hours * 3600.0

    @property
    def steps(self) -> int:
        return int(round(self.days * 86400.0 / self.snapshot_interval))


@dataclass(frozen=True)
class DumpEvent:
    """One farmer-to-banker transfer, with both sides of the sender's books."""

    timestamp: float
    from_character: str
    to_character: str
    amount: float
    sender_cash_before: float
    sender_cash_after: float

    def to_line(self) -> str:
        return "\t".join(
            [
                "dump",
                f"{self.timestamp:.0f}",
                self.from_character,
                self.to_character,
                f"{self.amount:.6f}",
                f"{self.sender_cash_before:.6f}",
                f"{self.sender_cash_after:.6f}",
            ]
        )


@dataclass(frozen=True)
class PurchaseEvent:
    timestamp: float
    character: str
    cash_spent: float
    items_gained: int

    def to_line(self) -> str:
        return "\t".join(
            [
                "purchase",
                f"{self.timestamp:.0f}",
                self.character,
                "",
                f"{self.cash_spent:.6f}",
                f"{self.items_gained}",
                "",
            ]
        )


EVENT_LOG_HEADER = "# event\ttimestamp\tcharacter\tcounterparty\tamount\tdetail_1\tdetail_2"


@dataclass(frozen=True)
class GeneratedDataset:
    records: StatusLog
    labels: LabelFile
    events: list[DumpEvent | PurchaseEvent]


@dataclass
class _CharacterSpec:
    index: int
    character_id: str
    archetype: Archetype
    banker_id: str | None  # dump target for farmers

    @property
    def account_id(self) -> str:
        return f"acct_{self.character_id}"


@dataclass
class _Wallet:
    """Mutable financial state of one simulated character."""

    cash_inv: float = 0.0  # carried cash
    cash_bank: float = 0.0  # character warehouse
    cash_vendor: float = 0.0  # consigned to sales agents
    acct_cash: float = 0.0  # account-level warehouse
    items_inv: float = 0.0
    items_bank: float = 0.0
    acct_items: float = 0.0
    mail_value: float = 0.0  # asset value in transit this snapshot

    def snapshot(self) -> tuple[float, ...]:
        """The nine status-log values, in canonical column order."""
        total_cash = self.cash_inv + self.cash_bank + self.cash_vendor
        return (
            self.items_inv + self.items_bank + self.acct_items,
            total_cash,
            self.cash_inv,
            self.cash_bank,
            self.cash_vendor,
            total_cash + ITEM_PRICE * (self.items_inv + self.items_bank),
            self.mail_value,
            self.cash_bank + ITEM_PRICE * self.items_bank,
            self.acct_cash + ITEM_PRICE * self.acct_items,
        )


def _roster(cfg: GenConfig) -> list[_CharacterSpec]:
    n_bankers = 0 if cfg.n_bots < 2 else max(1, cfg.n_bots // 6)
    banker_ids = [f"b{i + 1:04d}" for i in range(n_bankers)]
    specs: list[_CharacterSpec] = []
    for i in range(cfg.n_bots):
        cid = f"b{i + 1:04d}"
        if i < n_bankers:
            specs.append(_CharacterSpec(i, cid, Archetype.BANKER_BOT, None))
        else:
            farmer_rank = i - n_bankers
            target = banker_ids[farmer_rank % n_bankers] if banker_ids else None
            specs.append(_CharacterSpec(i, cid, Archetype.FARMING_BOT, target))
    human_cycle = (Archetype.CASUAL_HUMAN, Archetype.HARDCORE_HUMAN, Archetype.MERCHANT_HUMAN)
    for j in range(cfg.n_normals):
        specs.append(
            _CharacterSpec(cfg.n_bots + j, f"n{j + 1:04d}", human_cycle[j % 3], None)
        )
    return specs


def _timestamps(cfg: GenConfig) -> np.ndarray:
    """The snapshot times, one per step."""
    return DEFAULT_START + np.arange(cfg.steps) * cfg.snapshot_interval


def _simulate_character(
    spec: _CharacterSpec,
    cfg: GenConfig,
    incoming: dict[int, float],
) -> tuple[np.ndarray, list[DumpEvent | PurchaseEvent]]:
    """Run one character forward; returns its (steps, 9) snapshots and events.

    ``incoming`` maps step index to cash already dumped toward this character
    (empty for everyone but bankers).  Step order: activity roll, income and
    loot, purchases, vendor and bank shuffles, mail, dump out, receipts in,
    snapshot.  Stocks only ever move by non-negative fractions of themselves,
    so balances stay non-negative by construction.
    """
    rng = np.random.default_rng([cfg.seed, spec.index])
    params = draw_character_params(spec.archetype, cfg.separability, rng)

    w = _Wallet(
        cash_inv=float(rng.uniform(200.0, 2000.0)),
        cash_bank=float(rng.uniform(0.0, 1000.0)),
        items_inv=float(rng.integers(5, 40)),
        items_bank=float(rng.integers(0, 10)),
    )

    interval_hours = cfg.snapshot_interval / 3600.0
    steps_per_day = max(1, int(round(86400.0 / cfg.snapshot_interval)))
    dump_prob = min(1.0, params.dumps_per_day * interval_hours / 24.0)

    snapshots = np.empty((cfg.steps, len(canonical_schema())))
    events: list[DumpEvent | PurchaseEvent] = []
    idle_today = False
    for step, ts in enumerate(_timestamps(cfg).tolist()):
        w.mail_value = 0.0
        if step > 0:
            if step % steps_per_day == 0:
                idle_today = rng.random() < 0.25 * (1.0 - params.duty_cycle)
            hour = (ts / 3600.0) % 24.0
            wave = 1.0 + params.diurnal_amplitude * np.sin(2.0 * np.pi * (hour - 20.0) / 24.0)
            p_active = 0.0 if idle_today else min(1.0, params.duty_cycle * max(0.0, wave))
            active = rng.random() < p_active

            if active:
                income = params.income_rate * interval_hours
                income *= max(0.0, 1.0 + params.income_noise * rng.standard_normal())
                w.cash_inv += income
                w.items_inv += float(rng.poisson(params.item_rate * interval_hours))
                if rng.random() < params.spend_propensity:
                    budget = rng.uniform(0.1, 0.5) * w.cash_inv
                    bought = int(budget // ITEM_PRICE)
                    if bought >= 1:
                        cost = bought * ITEM_PRICE
                        w.cash_inv -= cost
                        w.items_inv += bought
                        events.append(PurchaseEvent(ts, spec.character_id, cost, bought))

            # vendor consignment and collection
            if rng.random() < params.spend_propensity * 0.4:
                moved = 0.2 * w.cash_inv
                w.cash_inv -= moved
                w.cash_vendor += moved
            if w.cash_vendor > 0.0 and rng.random() < 0.5:
                w.cash_inv += w.cash_vendor
                w.cash_vendor = 0.0

            # warehouse shuffles (earners only; mules never touch carried cash)
            if params.income_rate > 0.0 and w.cash_inv > 8.0 * params.income_rate and rng.random() < 0.25:
                moved = 0.5 * w.cash_inv
                w.cash_inv -= moved
                w.cash_bank += moved
            if rng.random() < params.spend_propensity * 0.1:
                moved = 0.3 * w.cash_bank
                w.cash_bank -= moved
                w.acct_cash += moved
            if rng.random() < 0.05:
                moved = 0.2 * w.items_inv
                w.items_inv -= moved
                w.items_bank += moved
            if rng.random() < 0.02:
                moved = 0.1 * w.items_bank
                w.items_bank -= moved
                w.acct_items += moved

            # small outgoing gift mail
            if rng.random() < 0.01 and w.cash_inv > 0.0:
                gift = 0.02 * w.cash_inv
                w.cash_inv -= gift
                w.mail_value += gift

            # farmer-to-banker dump
            if rng.random() < dump_prob and spec.banker_id is not None:
                before = w.cash_inv + w.cash_bank
                sent_inv = params.dump_fraction * w.cash_inv
                sent_bank = params.dump_fraction * w.cash_bank
                amount = sent_inv + sent_bank
                if amount > 0.0:
                    w.cash_inv -= sent_inv
                    w.cash_bank -= sent_bank
                    w.mail_value += amount
                    events.append(
                        DumpEvent(
                            timestamp=ts,
                            from_character=spec.character_id,
                            to_character=spec.banker_id,
                            amount=amount,
                            sender_cash_before=before,
                            sender_cash_after=w.cash_inv + w.cash_bank,
                        )
                    )

        received = incoming.get(step, 0.0)
        if received:
            w.cash_bank += received
            w.mail_value += received

        snapshots[step] = w.snapshot()
    return snapshots, events


def generate(cfg: GenConfig) -> GeneratedDataset:
    """Produce a full labeled dataset: snapshots, labels, and the event log."""
    if cfg.steps < 2:
        raise DataError("simulation horizon must cover at least two snapshots")
    specs = _roster(cfg)

    # bankers last: the farmers' dumps form their receipt schedule
    receipts: dict[str, dict[int, float]] = {}
    snapshots: dict[str, np.ndarray] = {}
    events: list[DumpEvent | PurchaseEvent] = []
    for spec in sorted(specs, key=lambda spec: spec.archetype is Archetype.BANKER_BOT):
        snapshots[spec.character_id], evs = _simulate_character(spec, cfg, receipts.get(spec.character_id, {}))
        events.extend(evs)
        for ev in evs:
            if isinstance(ev, DumpEvent):
                step = int(round((ev.timestamp - DEFAULT_START) / cfg.snapshot_interval))
                plan = receipts.setdefault(ev.to_character, {})
                plan[step] = plan.get(step, 0.0) + ev.amount

    # every character snapshots at the same times, so rows ordered by time
    # and then id are the steps in turn, each holding the ids in sorted order
    by_id = sorted(specs, key=lambda spec: spec.character_id)
    records = StatusLog(
        np.tile([spec.character_id for spec in by_id], cfg.steps),
        np.tile([spec.account_id for spec in by_id], cfg.steps),
        np.repeat(_timestamps(cfg), len(by_id)),
        np.stack([snapshots[spec.character_id] for spec in by_id], axis=1).reshape(cfg.steps * len(by_id), -1),
    )
    events.sort(key=lambda e: (e.timestamp, e.to_line()))

    end = DEFAULT_START + cfg.days * 86400.0
    as_of = datetime.fromtimestamp(end, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    labels = LabelFile(
        entries={
            spec.character_id: Label.BOT if spec.archetype.is_bot else Label.NORMAL
            for spec in specs
        },
        as_of=as_of,
    )
    return GeneratedDataset(records=records, labels=labels, events=events)


def write_event_log(path, events: list[DumpEvent | PurchaseEvent]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(EVENT_LOG_HEADER + "\n")
        for ev in events:
            fh.write(ev.to_line() + "\n")
