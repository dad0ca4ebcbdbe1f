import numpy as np
import pytest

from botledger.errors import DataError, NumericError
from botledger.features import (
    SMD_EPSILON,
    ScalingScope,
    WindowConfig,
    eliminate_noninfluential,
    format_distribution_text,
    format_elimination_text,
    summarize_distributions,
    windows_from_timelines,
)
from botledger.schema import Label, Timelines, canonical_schema

SCHEMA = canonical_schema()


def _timelines(*characters):
    """(id, label, value matrix) characters as one Timelines, rows at t = 0, 1, ..."""
    matrices = [np.asarray(matrix, dtype=float) for _, _, matrix in characters]
    lengths = [len(matrix) for matrix in matrices]
    return Timelines(
        character_id=np.array([cid for cid, _, _ in characters]),
        y=[np.nan if label is None else label.encode() for _, label, _ in characters],
        bounds=np.cumsum([0, *lengths]),
        timestamp=np.concatenate([np.arange(n, dtype=float) for n in lengths]),
        values=np.concatenate(matrices),
    )


def _timeline(cid, label, matrix):
    return _timelines((cid, label, matrix))


# --- min-max scaling -------------------------------------------------------


def _scaled(series, scope: ScalingScope = ScalingScope.PER_CHARACTER) -> np.ndarray:
    """``series`` scaled as the single window of a one-character timeline."""
    x = np.asarray(series, dtype=float)
    timeline = _timeline("c1", Label.NORMAL, np.tile(x[:, None], (1, len(SCHEMA))))
    return windows_from_timelines(timeline, SCHEMA, WindowConfig(len(x), 1, scope)).x[0, :, 0]


def _scaled_in_both_scopes(series) -> np.ndarray:
    scaled = _scaled(series)
    assert _scaled(series, ScalingScope.PER_WINDOW).tobytes() == scaled.tobytes()
    return scaled


def test_minmax_exact_examples() -> None:
    assert _scaled([3.0, 5.0, 7.0]).tolist() == [0.0, 0.5, 1.0]
    assert _scaled([0.0, 10.0, 2.0, 8.0]).tolist() == [0.0, 1.0, 0.2, 0.8]


def test_minmax_degenerate_series_maps_to_zeros() -> None:
    assert _scaled([4.0, 4.0, 4.0]).tolist() == [0.0, 0.0, 0.0]


def test_minmax_rejects_bad_input() -> None:
    for scope in ScalingScope:
        with pytest.raises(NumericError):
            _scaled([1.0, np.nan], scope)
        with pytest.raises(NumericError):
            _scaled([1.0, np.inf], scope)


def test_minmax_properties_random_vectors() -> None:
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        x = rng.normal(scale=float(rng.uniform(0.1, 100)), size=n)
        scaled = _scaled_in_both_scopes(x)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0
        if x.max() > x.min():
            assert scaled.min() == 0.0 and scaled.max() == 1.0
            # order preservation
            assert (np.argsort(x, kind="stable") == np.argsort(scaled, kind="stable")).all()
        # idempotence
        again = _scaled_in_both_scopes(scaled)
        assert np.allclose(again, scaled, atol=1e-12)


# --- windowing --------------------------------------------------------------


def test_window_count_formula_sweep() -> None:
    ids = [f"c{length:02d}" for length in range(1, 51)]
    timelines = _timelines(*((cid, Label.NORMAL, np.ones((length, len(SCHEMA)))) for length, cid in enumerate(ids, 1)))

    def counts(w: int, s: int) -> dict[str, int]:
        samples = windows_from_timelines(timelines, SCHEMA, WindowConfig(window_length=w, stride=s))
        return dict(zip(*np.unique(samples.character, return_counts=True)))

    for w in range(2, 51):  # WindowConfig rejects w = 1
        for s in range(1, 51):
            got = counts(w, s)
            for length, cid in enumerate(ids, 1):
                assert got.get(cid, 0) == (0 if length < w else (length - w) // s + 1)
    assert "c03" not in counts(4, 1)  # shorter than the window
    assert counts(4, 9)["c04"] == 1  # exactly one window


def test_slide_windows_starts_and_labels() -> None:
    matrix = np.tile(np.arange(10.0)[:, None], (1, 9))
    timeline = _timeline("c1", Label.BOT, matrix)
    cfg = WindowConfig(window_length=4, stride=2)
    samples = windows_from_timelines(timeline, SCHEMA, cfg)
    assert samples.character.tolist() == ["c1"] * 4
    assert samples.start.tolist() == [0, 2, 4, 6]
    assert samples.y.tolist() == [1.0] * 4
    assert samples.x.shape == (4, 4, 9)


def test_slide_windows_short_timeline_yields_nothing() -> None:
    timeline = _timeline("c1", Label.BOT, np.ones((3, 9)))
    assert len(windows_from_timelines(timeline, SCHEMA, WindowConfig(4, 1))) == 0


def test_per_character_vs_per_window_scaling() -> None:
    # one rising feature; the second window sees values 4..7 of 0..7
    matrix = np.zeros((8, 9))
    matrix[:, 0] = np.arange(8.0)
    matrix[:, 1] = 1.0  # constant; scales to zeros either way
    timeline = _timeline("c1", Label.NORMAL, matrix)

    per_char = windows_from_timelines(timeline, SCHEMA, WindowConfig(4, 4, ScalingScope.PER_CHARACTER))
    assert np.allclose(per_char.x[1][:, 0], np.array([4, 5, 6, 7]) / 7.0)
    assert per_char.x[1][:, 1].tolist() == [0.0] * 4

    per_win = windows_from_timelines(timeline, SCHEMA, WindowConfig(4, 4, ScalingScope.PER_WINDOW))
    assert per_win.x[1][:, 0].tolist() == [0.0, 1 / 3, 2 / 3, 1.0]
    assert per_win.x[1][:, 1].tolist() == [0.0] * 4


def test_per_window_exact_example() -> None:
    matrix = np.ones((4, 9))
    matrix[:, 0] = [1.0, 2.0, 3.0, 5.0]
    timeline = _timeline("c1", Label.NORMAL, matrix)
    samples = windows_from_timelines(timeline, SCHEMA, WindowConfig(4, 1, ScalingScope.PER_WINDOW))
    assert len(samples) == 1
    assert samples.x[0][:, 0].tolist() == [0.0, 0.25, 0.5, 1.0]


def test_slide_windows_respects_active_mask() -> None:
    schema = SCHEMA.deactivate([0, 8])
    timeline = _timeline("c1", Label.BOT, np.tile(np.arange(6.0)[:, None], (1, 9)))
    samples = windows_from_timelines(timeline, schema, WindowConfig(3, 3))
    assert samples.x[0].shape == (3, 7)


def test_windows_from_timelines_concatenates_in_order() -> None:
    timelines = _timelines(
        ("a", Label.BOT, np.tile(np.arange(5.0)[:, None], (1, 9))),
        ("b", Label.NORMAL, np.tile(np.arange(4.0)[:, None], (1, 9))),
    )
    samples = windows_from_timelines(timelines, SCHEMA, WindowConfig(3, 1))
    assert samples.character.tolist() == ["a", "a", "a", "b", "b"]


@pytest.mark.parametrize("scope", list(ScalingScope))
def test_windows_of_many_characters_equal_one_character_calls(scope) -> None:
    rng = np.random.default_rng(4)
    shapes = [(Label.BOT, 11), (Label.NORMAL, 3), (None, 8), (Label.NORMAL, 4), (Label.BOT, 5)]
    characters = [(f"c{i}", label, rng.uniform(1, 9, (n, 9))) for i, (label, n) in enumerate(shapes)]
    cfg = WindowConfig(4, 3, scope)
    whole = windows_from_timelines(_timelines(*characters), SCHEMA, cfg)
    parts = [windows_from_timelines(_timeline(*character), SCHEMA, cfg) for character in characters]
    assert len(whole) == 3 + 0 + 2 + 1 + 1
    assert np.array_equal(whole.x, np.concatenate([p.x for p in parts]))
    assert np.array_equal(whole.y, np.concatenate([p.y for p in parts]), equal_nan=True)
    assert whole.character.tolist() == sum((p.character.tolist() for p in parts), [])
    assert whole.start.tolist() == sum((p.start.tolist() for p in parts), [])


def test_per_character_scale_covers_rows_after_the_last_window() -> None:
    # window 4, stride 3 cuts b at row 0 only; its maximum sits in row 5
    matrix = np.ones((6, 9))
    matrix[:, 0] = [0.0, 1.0, 2.0, 3.0, 4.0, 10.0]
    timelines = _timelines(("a", Label.NORMAL, np.ones((5, 9))), ("b", Label.BOT, matrix))
    samples = windows_from_timelines(timelines, SCHEMA, WindowConfig(4, 3))
    assert samples.character.tolist() == ["a", "b"]
    assert samples.x[1][:, 0].tolist() == [0.0, 0.1, 0.2, 0.3]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_trailing_row_of_windowed_character_is_numeric_error(bad) -> None:
    matrix = np.ones((6, 9))
    matrix[5, 3] = bad  # in no window of length 4, stride 3
    short = np.ones((2, 9))
    short[1, 3] = bad
    cfg, plain = WindowConfig(4, 3), ("a", Label.NORMAL, np.ones((5, 9)))
    with pytest.raises(NumericError):
        windows_from_timelines(_timelines(plain, ("b", Label.BOT, matrix)), SCHEMA, cfg)
    # a character too short for a window is never scaled
    samples = windows_from_timelines(_timelines(plain, ("s", None, short)), SCHEMA, cfg)
    assert samples.character.tolist() == ["a"]


def test_window_config_validation() -> None:
    with pytest.raises(ValueError):
        WindowConfig(window_length=1, stride=1)
    with pytest.raises(ValueError):
        WindowConfig(window_length=4, stride=0)
    # a scope given by its name scales as that scope
    assert WindowConfig(4, 1, "per-window").scaling_scope is ScalingScope.PER_WINDOW
    with pytest.raises(ValueError):
        WindowConfig(4, 1, "global")


# --- feature elimination ----------------------------------------------------


def _elimination_fixture():
    """Two bots, two normals; columns engineered per rule."""
    base = np.ones((6, 9))
    bot = base.copy()
    normal = base.copy()
    # column 0: strong signal (bots 100, normals 0)
    bot[:, 0] = 100.0
    normal[:, 0] = 0.0
    # column 4: identically zero in both groups -> rule 2
    bot[:, 4] = 0.0
    normal[:, 4] = 0.0
    # column 6: identical constant 7 in both groups -> rule 1 (effect 0)
    bot[:, 6] = 7.0
    normal[:, 6] = 7.0
    # remaining columns: clearly different means
    for col in (1, 2, 3, 5, 7, 8):
        bot[:, col] = 50.0 + col
        normal[:, col] = 1.0
    # second member of each group varies the signal columns only, so the
    # engineered zero/constant columns stay exact
    bot2, normal2 = bot.copy(), normal.copy()
    bot2[:, [1, 2, 3, 5, 7, 8]] += 0.5
    normal2[:, [1, 2, 3, 5, 7, 8]] += 0.5
    bot2[:, 6] = 7.5
    normal2[:, 6] = 7.5
    return _timelines(
        ("b1", Label.BOT, bot),
        ("b2", Label.BOT, bot2),
        ("n1", Label.NORMAL, normal),
        ("n2", Label.NORMAL, normal2),
    )


def test_elimination_drops_exactly_engineered_columns() -> None:
    timelines = _elimination_fixture()
    schema, report = eliminate_noninfluential(timelines, SCHEMA)
    dropped = set(i for i, keep in enumerate(schema.active) if not keep)
    assert dropped == {4, 6}
    by_name = {e.name: e for e in report.entries}
    assert by_name["Cash in Vendor"].dropped_rule2
    assert by_name["Mailing Asset Value"].dropped_rule1
    assert not by_name["Mailing Asset Value"].dropped_rule2  # constant 7, not zero
    # strong-signal column: huge standardized mean difference, kept
    assert by_name["Number of Items"].effect_size > 1e3
    assert not by_name["Number of Items"].dropped


def test_elimination_evidence_values() -> None:
    timelines = _elimination_fixture()
    _, report = eliminate_noninfluential(timelines, SCHEMA)
    zero = next(e for e in report.entries if e.name == "Cash in Vendor")
    assert zero.sum_bot == 0.0 and zero.sum_normal == 0.0
    assert zero.std_bot == 0.0 and zero.std_normal == 0.0
    const = next(e for e in report.entries if e.name == "Mailing Asset Value")
    assert const.effect_size == pytest.approx(
        abs(7.25 - 7.25) / (np.sqrt((0.25**2 + 0.25**2) / 2) + 1e-9)
    )


def test_elimination_moments_match_a_per_column_reference() -> None:
    # each column's moments, reduced on its own as a strided slice, give the same bits
    rng = np.random.default_rng(11)
    labels = (Label.BOT, Label.NORMAL, None)
    timelines = _timelines(
        *((f"c{i:02d}", labels[i % 3], rng.lognormal(3.0, 2.0, (int(rng.integers(5, 300)), 9))) for i in range(12))
    )
    _, report = eliminate_noninfluential(timelines, SCHEMA)
    row_y = np.repeat(timelines.y, np.diff(timelines.bounds))
    bot, normal = timelines.values[row_y == 1.0], timelines.values[row_y == 0.0]
    for j, e in enumerate(report.entries):
        b, n = bot[:, j], normal[:, j]
        effect = abs(float(b.mean()) - float(n.mean())) / (float(np.sqrt((b.var() + n.var()) / 2.0)) + SMD_EPSILON)
        want = (float(b.sum()), float(n.sum()), float(b.std()), float(n.std()), effect)
        assert (e.sum_bot, e.sum_normal, e.std_bot, e.std_normal, e.effect_size) == want, e.name


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_elimination_rejects_non_finite_values(value) -> None:
    timelines = _elimination_fixture()
    timelines.values[3, 2] = value
    with pytest.raises(NumericError):
        eliminate_noninfluential(timelines, SCHEMA)


def test_elimination_needs_both_groups() -> None:
    bots_only = _timeline("b1", Label.BOT, np.ones((3, 9)))
    with pytest.raises(DataError):
        eliminate_noninfluential(bots_only, SCHEMA)


def test_elimination_dropping_everything_is_fatal() -> None:
    same = np.ones((4, 9))
    timelines = _timelines(("b", Label.BOT, same), ("n", Label.NORMAL, same))
    with pytest.raises(DataError):
        eliminate_noninfluential(timelines, SCHEMA)


def test_rule2_never_fires_with_any_nonzero() -> None:
    rng = np.random.default_rng(7)
    for _ in range(25):
        bot = np.zeros((5, 9))
        normal = np.zeros((5, 9))
        # plant exactly one tiny nonzero per column somewhere in either group
        for col in range(9):
            target = bot if rng.random() < 0.5 else normal
            target[int(rng.integers(0, 5)), col] = float(rng.uniform(1e-9, 1.0))
        timelines = _timelines(("b", Label.BOT, bot), ("n", Label.NORMAL, normal))
        _, report = eliminate_noninfluential(timelines, SCHEMA)
        assert not any(e.dropped_rule2 for e in report.entries)


def test_rule2_flag_accuracy_even_when_all_dropped() -> None:
    bot = np.zeros((5, 9))
    normal = np.zeros((5, 9))
    timelines = _timelines(("b", Label.BOT, bot), ("n", Label.NORMAL, normal))
    with pytest.raises(DataError):
        eliminate_noninfluential(timelines, SCHEMA)


# --- distribution summaries -------------------------------------------------


def _sample_set():
    matrix = np.zeros((8, 9))
    matrix[:, 0] = np.linspace(0, 7, 8)
    timelines = _timelines(("b1", Label.BOT, matrix), ("n1", Label.NORMAL, matrix))
    return windows_from_timelines(timelines, SCHEMA, WindowConfig(8, 1))


def test_summary_quartiles_frozen_example() -> None:
    # single bot sample whose first column scales to [0, 0.1, 0.4, 1.0]
    matrix = np.zeros((4, 9))
    matrix[:, 0] = [0.0, 1.0, 4.0, 10.0]
    timeline = _timeline("b1", Label.BOT, matrix)
    samples = windows_from_timelines(timeline, SCHEMA, WindowConfig(4, 1))
    # need a normal sample too for the summary to be complete? no: missing label flagged
    summary = summarize_distributions(samples, SCHEMA)
    row = next(r for r in summary.rows if r.feature == "Number of Items")
    assert row.label is Label.BOT
    assert row.min == 0.0 and row.max == 1.0
    assert row.q1 == pytest.approx(0.075, abs=1e-12)
    assert row.median == pytest.approx(0.25, abs=1e-12)
    assert row.q3 == pytest.approx(0.55, abs=1e-12)
    assert row.mean == pytest.approx(0.375, abs=1e-12)
    assert summary.missing_labels == (Label.NORMAL,)


def test_summary_identical_groups_give_identical_rows() -> None:
    samples = _sample_set()
    summary = summarize_distributions(samples, SCHEMA)
    bot_rows = {r.feature: r for r in summary.rows if r.label is Label.BOT}
    normal_rows = {r.feature: r for r in summary.rows if r.label is Label.NORMAL}
    assert set(bot_rows) == set(normal_rows)
    for name in bot_rows:
        b, n = bot_rows[name], normal_rows[name]
        assert (b.min, b.q1, b.median, b.q3, b.max, b.mean) == (
            n.min,
            n.q1,
            n.median,
            n.q3,
            n.max,
            n.mean,
        )
    assert summary.missing_labels == ()


def test_summary_empty_input_is_error() -> None:
    with pytest.raises(ValueError):
        summarize_distributions([], SCHEMA)


def test_format_helpers_render() -> None:
    timelines = _elimination_fixture()
    schema, report = eliminate_noninfluential(timelines, SCHEMA)
    text = format_elimination_text(report)
    assert "Cash in Vendor" in text and "dropped:2" in text and "kept" in text
    samples = _sample_set()
    dist = format_distribution_text(summarize_distributions(samples, SCHEMA))
    assert "median" in dist and "Number of Items" in dist
