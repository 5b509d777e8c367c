"""Per-layer totals from a span file written by ``launch.py --spans``.

A layer's self time is the time its spans cover minus the time covered by
their child spans.  Spans come from a call stack, so the children of one
span are disjoint and lie inside it, and their durations simply add up.
"""

from __future__ import annotations

NS = 1e-9


def layer_totals(trace: dict) -> dict[str, dict[str, float]]:
    """``{name: {"calls", "self_s"}}`` for every traced name."""
    spans = trace["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = {name: {"calls": 0, "self_s": 0.0} for name in trace["names"]}
    for index, (name_id, start, end, _) in enumerate(spans):
        entry = totals[trace["names"][name_id]]
        entry["calls"] += 1
        entry["self_s"] += (end - start - child_ns[index]) * NS
    return totals


def layer_metrics(trace: dict) -> dict[str, float]:
    """The benchmark's per-layer metrics, except ``trace.overhead_s``."""
    totals = layer_totals(trace)

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    classes = trace["counts"].get("crg.enumerate_crgs.yielded", 0)
    canonical = calls("crg.canonical_form")
    return {
        "gfun.g_value.calls": calls("gfun.g_value"),
        "gfun.g_value.self_s": self_s("gfun.g_value"),
        "crg.canonical_form.calls": canonical,
        "crg.canonical_form.self_s": self_s("crg.canonical_form"),
        "crg.enumerate_crgs.classes": classes,
        "crg.enumerate_crgs.self_s": self_s("crg.enumerate_crgs"),
        # 0 when the workload enumerates nothing
        "crg.enumerate_crgs.useful_frac": classes / canonical if canonical else 0.0,
        "crg.embeds.calls": calls("crg.embeds"),
        "crg.embeds.self_s": self_s("crg.embeds"),
        "spectrum.clique_spectrum.self_s": self_s("spectrum.clique_spectrum"),
        "curves.bounded_min_g.calls": calls("curves.bounded_min_g"),
        "curves.bounded_min_g.self_s": self_s("curves.bounded_min_g"),
        "curves.curve_scan.self_s": self_s("curves.curve_scan"),
        "graphs.has_induced.calls": calls("graphs.has_induced"),
        "graphs.has_induced.self_s": self_s("graphs.has_induced"),
        "editing.edit_distance.calls": calls("editing.edit_distance"),
        "editing.edit_distance.self_s": self_s("editing.edit_distance"),
        "editing.max_dist_estimate.self_s": self_s("editing.max_dist_estimate"),
        "cli.main.self_s": self_s("cli.main"),
    }
