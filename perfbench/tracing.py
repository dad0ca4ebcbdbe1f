"""In-memory span tracer that wraps botledger's public functions from outside.

``Tracer.install()`` replaces every public function of the layer modules with
a wrapper that records one span per call, in every module namespace that holds
a reference to it, so calls made through ``from .x import y`` names are seen
too. ``uninstall()`` puts the originals back. A span is
``[name, start, end, parent, tag, counts]``: ``parent`` is the index of the
enclosing span (-1 for a root), ``tag`` separates call variants (training and
inference ``forward``), ``counts`` holds work counts read off the return value.

Helpers called once per row, per timestep or per column are not wrapped: a
wrapper there would cost more than the work it times and inflate the caller's
self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from time import perf_counter

LAYERS = ("synth", "ingest", "features", "harness", "network", "model_io", "cli")
HOT = {"ingest.format_timestamp", "network.sigmoid", "network.cell_step", "features.minmax_scale"}


def _forward_tag(args, kwargs):
    return "train" if kwargs.get("training") else "infer"


def _ingest_counts(result):
    stats = result[1]
    return {"rows_read": stats.records_read, "rows_kept": stats.records_kept}


def _window_counts(result):
    return {"windows": len(result)}


TAGS = {"network.forward": _forward_tag}
COUNTS = {
    "ingest.load_timelines": _ingest_counts,
    "features.windows_from_timelines": _window_counts,
    "features.slide_windows": _window_counts,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        tag_of, count_of = TAGS.get(name), COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            if tag_of is not None:
                span[4] = tag_of(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count_of is not None:
                span[5] = count_of(result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"botledger.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in HOT
                ):
                    wrapped[id(obj)] = self._wrap(name, obj)
        namespaces = list(modules.values()) + [importlib.import_module("botledger")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _outermost(spans: list[list], names: set[str]) -> list[list]:
    """Spans with one of ``names`` that no other span of ``names`` encloses."""
    out = []
    for s in spans:
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if s[0] in names and p < 0:
            out.append(s)
    return out


def _total(spans: list[list], *names: str) -> float:
    return sum((s[2] - s[1] for s in _outermost(spans, set(names))), 0.0)


def _ms(values: list[float]) -> list[float]:
    return [v * 1e3 for v in values]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p99(values: list[float]) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def command_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced command invocation."""

    def dur(name: str, tag: str | None = None) -> list[float]:
        return [s[2] - s[1] for s in spans if s[0] == name and (tag is None or s[4] == tag)]

    own = self_times(spans)
    fwd_train = _ms(dur("network.forward", "train"))
    folds = [
        s[2] - s[1]
        for s in spans
        if s[0] == "harness.train" and s[3] >= 0 and spans[s[3]][0] == "harness.cross_validate"
    ]
    loads = [s[5] for s in spans if s[0] == "ingest.load_timelines"]
    rows_read = sum(c["rows_read"] for c in loads)
    rows_kept = sum(c["rows_kept"] for c in loads)
    windows = _outermost(spans, {"features.windows_from_timelines", "features.slide_windows"})
    return {
        "network.forward_train_ms": _median(fwd_train),
        "network.forward_train_p99_ms": _p99(fwd_train),
        "network.forward_infer_ms": _median(_ms(dur("network.forward", "infer"))),
        "network.backward_ms": _median(_ms(dur("network.backward"))),
        "network.adam_step_ms": _median(_ms(dur("network.adam_step"))),
        "network.forward_calls": len(dur("network.forward")),
        "network.backward_calls": len(dur("network.backward")),
        "harness.train_self_s": sum((o for s, o in zip(spans, own) if s[0] == "harness.train"), 0.0),
        "harness.fold_train_s": _median(folds),
        "harness.make_folds_s": _total(spans, "harness.make_folds"),
        "harness.predict_s": _total(spans, "harness.predict_probs"),
        "ingest.parse_s": _total(spans, "ingest.parse_status_log"),
        "ingest.build_timelines_s": _total(spans, "ingest.build_timelines"),
        "ingest.rows_read": rows_read,
        "ingest.rows_kept": rows_kept,
        "ingest.kept_ratio": rows_kept / rows_read if rows_read else 0.0,
        "features.eliminate_s": _total(spans, "features.eliminate_noninfluential"),
        "features.windows_s": sum((s[2] - s[1] for s in windows), 0.0),
        "features.windows_made": sum(s[5]["windows"] for s in windows),
        "model_io.load_s": _total(spans, "model_io.load_model"),
        "cli.self_s": sum((o for s, o in zip(spans, own) if s[0].startswith("cli.")), 0.0),
    }


def setup_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced input set-up."""
    return {
        "synth.generate_s": _total(spans, "synth.generate"),
        "ingest.write_status_log_s": _total(spans, "ingest.write_status_log"),
        "model_io.save_s": _total(spans, "model_io.save_model"),
    }
