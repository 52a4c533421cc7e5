"""Metric names, units and the per-layer figures derived from spans.

A span is ``[id, name, start_ns, end_ns, parent_id]``.  Its layer is the
first dotted part of its name (``cli``, ``kb``, ``splits``, ``imputers``,
``evaluate``, ``configio``).  A span's self time is its duration minus
the durations of its direct children; a layer's busy time sums its
outermost spans (those whose parent is in another layer), and its self
time sums the self times of all its spans.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

__all__ = ["END_TO_END", "PER_LAYER", "layer_metrics", "percentile"]

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "prep_s": ("s", "lower"),
    "impute_cells_per_s": ("1/s", "higher"),
    "evaluate_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "macro_acc": ("ratio", "higher"),
    "success_rate": ("ratio", "higher"),
}

SUBCOMMANDS = ("filter", "split", "blank", "impute", "evaluate", "report")
METHODS = ("frequency", "genus_family", "geo_backoff", "knn", "correlation", "ridge")
LAYERS = ("cli", "kb", "splits", "imputers", "evaluate", "configio")
HAVERSINE_LABELS = ("splits", "geo_backoff", "knn", "ridge")


def _per_layer() -> dict[str, tuple[str, str]]:
    out = {"cli.import_s": ("s", "lower")}
    out.update({f"cli.{c}.self_s": ("s", "lower") for c in SUBCOMMANDS})
    out.update({
        "kb.parse_s": ("s", "lower"),
        "kb.parse_calls": ("count", "lower"),
        "kb.cells_parsed": ("count", "lower"),
        "kb.serialize_s": ("s", "lower"),
        "kb.filter_s": ("s", "lower"),
        "splits.controlled_s": ("s", "lower"),
        "splits.random_s": ("s", "lower"),
        "splits.blank_s": ("s", "lower"),
        "splits.excluded_languages": ("count", "lower"),
    })
    out.update({f"geo.haversine_calls.{k}": ("count", "lower") for k in HAVERSINE_LABELS})
    for m in METHODS:
        p = f"imputers.{m}"
        out.update({
            f"{p}.fit_s": ("s", "lower"),
            f"{p}.predict_s": ("s", "lower"),
            f"{p}.predict_us.p50": ("us", "lower"),
            f"{p}.predict_us.p99": ("us", "lower"),
            f"{p}.cells": ("count", "lower"),
            f"{p}.answered_ratio": ("ratio", "higher"),
            f"{p}.macro_acc": ("ratio", "higher"),
        })
    out.update({
        "imputers.ridge.design_s": ("s", "lower"),
        "imputers.ridge.design_rows": ("count", "lower"),
        "imputers.ridge.solve_s": ("s", "lower"),
        "imputers.ridge.solve_calls": ("count", "lower"),
        "evaluate.score_s": ("s", "lower"),
        "evaluate.permutation_s": ("s", "lower"),
        "evaluate.correlation_s": ("s", "lower"),
        "configio.digest_s": ("s", "lower"),
    })
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = ("s", "lower")
        out[f"{layer}.self_s"] = ("s", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    return out


PER_LAYER = _per_layer()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(
    spans: Sequence[Sequence],
    counts: Mapping[str, int],
    import_s: float,
    overhead_s: float,
    macro: Mapping[str, float],
) -> dict[str, float]:
    """Every PER_LAYER metric from one traced replay.

    ``macro`` maps each evaluated method to its macro accuracy.  A layer
    or method the workload does not run reads 0.
    """
    names = {s[0]: s[1] for s in spans}
    duration = {s[0]: (s[3] - s[2]) / 1e9 for s in spans}
    child_time = dict.fromkeys(duration, 0.0)
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] += duration[s[0]]

    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    busy = dict.fromkeys(LAYERS, 0.0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        sid, name, parent = s[0], s[1], s[4]
        total[name] = total.get(name, 0.0) + duration[sid]
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + duration[sid] - child_time[sid]
        durations.setdefault(name, []).append(duration[sid])
        layer = name.split(".", 1)[0]
        self_s[layer] += duration[sid] - child_time[sid]
        if parent is None or names[parent].split(".", 1)[0] != layer:
            busy[layer] += duration[sid]

    m: dict[str, float] = {"cli.import_s": import_s}
    for c in SUBCOMMANDS:
        m[f"cli.{c}.self_s"] = own.get(f"cli.{c}", 0.0)
    m["kb.parse_s"] = total.get("kb.parse", 0.0)
    m["kb.parse_calls"] = calls.get("kb.parse", 0)
    m["kb.cells_parsed"] = counts.get("kb.cells_parsed", 0)
    m["kb.serialize_s"] = total.get("kb.serialize", 0.0)
    m["kb.filter_s"] = total.get("kb.filter", 0.0)
    m["splits.controlled_s"] = total.get("splits.controlled", 0.0)
    m["splits.random_s"] = total.get("splits.random", 0.0)
    m["splits.blank_s"] = total.get("splits.blank", 0.0)
    m["splits.excluded_languages"] = counts.get("splits.excluded_languages", 0)
    for label in HAVERSINE_LABELS:
        key = f"geo.haversine_calls.{label}"
        m[key] = counts.get(key, 0)
    for method in METHODS:
        p = f"imputers.{method}"
        predict = durations.get(f"{p}.predict", [])
        attempted = len(predict)
        unanswered = counts.get(f"{p}.predict.unanswered", 0)
        m[f"{p}.fit_s"] = total.get(f"{p}.fit", 0.0)
        m[f"{p}.predict_s"] = sum(predict)
        m[f"{p}.predict_us.p50"] = percentile(predict, 0.50) * 1e6
        m[f"{p}.predict_us.p99"] = percentile(predict, 0.99) * 1e6
        m[f"{p}.cells"] = attempted
        m[f"{p}.answered_ratio"] = (attempted - unanswered) / attempted if attempted else 0.0
        m[f"{p}.macro_acc"] = macro.get(method, 0.0)
    m["imputers.ridge.design_s"] = total.get("imputers.ridge.design", 0.0)
    m["imputers.ridge.design_rows"] = calls.get("imputers.ridge.design", 0)
    m["imputers.ridge.solve_s"] = total.get("imputers.ridge.solve", 0.0)
    m["imputers.ridge.solve_calls"] = calls.get("imputers.ridge.solve", 0)
    m["evaluate.score_s"] = total.get("evaluate.score", 0.0)
    m["evaluate.permutation_s"] = total.get("evaluate.permutation", 0.0)
    m["evaluate.correlation_s"] = total.get("evaluate.correlation", 0.0)
    m["configio.digest_s"] = total.get("configio.digest", 0.0)
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = busy[layer]
        m[f"{layer}.self_s"] = self_s[layer]
    m["trace.overhead_s"] = overhead_s
    return m
