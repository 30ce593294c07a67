"""Which package functions the traced run wraps, and the per-layer metrics it reports.

Layers are the package's modules.  Every wrapped function reports
``<name>.calls`` and ``<name>.self_s``; a few also report counts taken
from their arguments or return values.  All values are per iteration (one
set-up plus one timed pass), averaged over the traced iterations.
"""

from __future__ import annotations

import os
import statistics

from gecdiff import (
    analysis,
    corpus_io,
    decode_bias,
    diff_codec,
    edit_extract,
    metrics,
    reference_scorer,
    text_norm,
)

from tracer import Tracer, patch, patch_attr, unpatch

# (module or class, attribute, span name); functions are patched wherever
# gecdiff looks them up, methods on their class
TRACED = [
    (reference_scorer.RefScorer, "dist", "dist"),
    (reference_scorer.RefScorer, "step", "step"),
    (reference_scorer.NGramLM, "prob", "lm_prob"),
    (reference_scorer, "harvest", "harvest"),
    (reference_scorer, "train_lm", "train_lm"),
    (reference_scorer, "save_model", "save_model"),
    (reference_scorer, "load_model", "load_model"),
    (decode_bias, "beam_decode", "beam_decode"),
    (decode_bias, "grid_search_tune", "grid_search_tune"),
    (decode_bias, "write_kbest", "write_kbest"),
    (decode_bias, "read_kbest", "read_kbest"),
    (decode_bias, "rerank_kbest", "rerank_kbest"),
    (diff_codec, "repair", "repair"),
    (diff_codec, "encode_diffs", "encode_diffs"),
    (diff_codec, "strip_to_target", "strip_to_target"),
    (diff_codec, "validate_tagged", "validate_tagged"),
    (edit_extract, "levenshtein_align", "levenshtein_align"),
    (edit_extract, "lattice_arcs", "lattice_arcs"),
    (edit_extract, "edits_from_tagged", "edits_from_tagged"),
    (metrics, "m2_maxmatch", "m2_maxmatch"),
    (metrics, "m2_corpus", "m2_corpus"),
    (metrics, "gleu", "gleu"),
    (metrics, "gleu_sentence_stats", "gleu_sentence_stats"),
    (metrics, "paired_bootstrap", "paired_bootstrap"),
    (corpus_io, "load_parallel", "load_parallel"),
    (corpus_io, "read_token_lines", "read_token_lines"),
    (corpus_io, "load_m2_gold", "load_m2_gold"),
    (text_norm, "tokenize", "tokenize"),
    (analysis, "build_freq_table", "build_freq_table"),
    (analysis, "bucket_report", "bucket_report"),
    (analysis, "kind_report", "kind_report"),
]

COUNTS = (
    "dist.distinct",
    "beam_decode.hyps",
    "beam_decode.repaired",
    "unterminated_max_len",
    "unterminated_early",
    "kbest_bytes",
    "levenshtein_align.cells",
    "lattice_arcs.arcs",
    "m2_maxmatch.distinct",
)


class LayerTrace:
    """A tracer wired to the package, with the counters read at layer boundaries."""

    def __init__(self):
        self.tracer = Tracer()
        self.undo: list = []
        self.iterations = 0
        self.walls: list[float] = []
        self.sums = {c: 0 for c in COUNTS}
        self.grid_points: list[float] = []
        self._reset_iteration()

    def _reset_iteration(self) -> None:
        self.states: set = set()
        self.m2_pairs: set = set()
        self.grid_marks: list[float] = []
        self.last_bias = None

    # hooks: (args, result, start, end) of the finished call

    def _dist(self, args, result, t0, t1):
        self.states.add(args[1])

    def _beam_decode(self, args, hyps, t0, t1):
        _, source, cfg = args[:3]
        s = self.sums
        s["beam_decode.hyps"] += len(hyps)
        s["beam_decode.repaired"] += sum(h.raw != tuple(h.tagged) for h in hyps)
        best = hyps[0]
        if not best.terminated:
            max_len = cfg.max_len if cfg.max_len is not None else 2 * len(source) + 10
            key = "unterminated_max_len" if len(best.raw) >= max_len else "unterminated_early"
            s[key] += 1
        stack = self.tracer.stack
        in_tune = stack and self.tracer.span_name[stack[-1][0]] == self.tune_id
        if in_tune and cfg.bias != self.last_bias:
            self.last_bias = cfg.bias
            self.grid_marks.append(t0)

    def _grid_search_tune(self, args, result, t0, t1):
        marks = self.grid_marks + [t1]
        self.grid_points += [b - a for a, b in zip(marks, marks[1:])]
        self.grid_marks, self.last_bias = [], None

    def _write_kbest(self, args, result, t0, t1):
        self.sums["kbest_bytes"] += os.path.getsize(args[1])

    def _levenshtein_align(self, args, result, t0, t1):
        self.sums["levenshtein_align.cells"] += (len(args[0]) + 1) * (len(args[1]) + 1)

    def _lattice_arcs(self, args, result, t0, t1):
        self.sums["lattice_arcs.arcs"] += len(result)

    def _m2_maxmatch(self, args, result, t0, t1):
        self.m2_pairs.add((tuple(args[1].source), tuple(args[0])))

    def install(self) -> None:
        self.tune_id = self.tracer.name_id("grid_search_tune")
        for owner, attr, name in TRACED:
            original = owner.__dict__[attr]
            hook = getattr(self, f"_{name}", None)
            wrapper = self.tracer.wrap(name, original, hook)
            if isinstance(owner, type):
                self.undo += patch_attr(owner, attr, wrapper)
            else:
                self.undo += patch(original, wrapper)

    def uninstall(self) -> None:
        unpatch(self.undo)
        self.undo = []

    def end_iteration(self, wall: float) -> None:
        self.iterations += 1
        self.walls.append(wall)
        self.sums["dist.distinct"] += len(self.states)
        self.sums["m2_maxmatch.distinct"] += len(self.m2_pairs)
        self._reset_iteration()

    def metrics(self, overhead_frac: float) -> dict:
        """Per-iteration means of every per-layer metric."""
        k = self.iterations
        tr = self.tracer
        out: dict[str, tuple[float, str]] = {}
        totals = tr.totals()
        for _, _, name in TRACED:
            calls, self_s = totals[name]
            out[f"{name}.calls"] = (calls / k, "count")
            out[f"{name}.self_s"] = (self_s / k, "s")
        s = self.sums

        def frac(num: str, den: str) -> float:
            return s[num] / totals[den][0] if totals[den][0] else 0.0

        out["dist.distinct_frac"] = (frac("dist.distinct", "dist"), "frac")
        out["m2_maxmatch.distinct_frac"] = (frac("m2_maxmatch.distinct", "m2_maxmatch"), "frac")
        out["beam_decode.hyps"] = (s["beam_decode.hyps"] / k, "count")
        hyps = s["beam_decode.hyps"]
        out["repaired_frac"] = (s["beam_decode.repaired"] / hyps if hyps else 0.0, "frac")
        for name in ("unterminated_max_len", "unterminated_early", "levenshtein_align.cells",
                     "lattice_arcs.arcs"):
            out[name] = (s[name] / k, "count")
        out["kbest_bytes"] = (s["kbest_bytes"] / k, "B")
        gp = self.grid_points
        out["grid_point_s.p50"] = (statistics.median(gp) if gp else 0.0, "s")
        out["grid_point_s.max"] = (max(gp) if gp else 0.0, "s")
        wall = sum(self.walls)
        out["trace.wall_s"] = (wall / k, "s")
        out["trace.self_s"] = (tr.overhead_s / k, "s")
        out["trace.outside_s"] = ((wall - tr.covered_s) / k, "s")
        out["trace.overhead_frac"] = (overhead_frac, "frac")
        return out

    def check(self, checks) -> None:
        """Self times plus tracer time equal the time covered by top-level spans."""
        tr = self.tracer
        inside = sum(tr.self_s) + tr.overhead_s
        wall = sum(self.walls)
        checks.expect(
            abs(inside - tr.covered_s) <= 1e-6 * max(1.0, wall),
            f"self times sum to {inside}, spans cover {tr.covered_s}",
        )
        checks.expect(tr.covered_s <= wall, f"spans cover {tr.covered_s} of {wall} s")
        checks.expect(not tr.stack, "spans left open")

