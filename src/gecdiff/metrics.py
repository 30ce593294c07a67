"""Correction metrics: GLEU, the MaxMatch (M2) scorer, F-beta, bootstrap.

GLEU here is the single-reference correction variant: n-gram precision with
a penalty for hypothesis n-grams retained from the source but absent from
the reference.  M2 walks the candidate edit windows of the Levenshtein
alignment as integer spans and picks the selection maximizing overlap with
gold; a window's replacement is sliced only when its span is a gold span.
Both expose per-sentence sufficient statistics so paired bootstrap can
recompute corpus scores cheaply per resample.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .edit_extract import Edit, check_edits, levenshtein_align
from .text_norm import TokenSeq, find_reserved, same_tokens

DEFAULT_BETA = 0.5
GLEU_ORDER = 4


def f_beta(p: float, r: float, beta: float = DEFAULT_BETA) -> float:
    """Weighted F-measure; 0 when the denominator is 0."""
    denom = beta * beta * p + r
    if denom == 0:
        return 0.0
    return (1 + beta * beta) * p * r / denom


@dataclass(frozen=True)
class PRF:
    tp: float
    fp: float
    fn: float
    precision: float
    recall: float
    f_beta: float
    beta: float = DEFAULT_BETA

    @classmethod
    def from_counts(cls, tp: float, fp: float, fn: float, beta: float = DEFAULT_BETA) -> "PRF":
        # 0/0 conventions: empty denominators count as perfect.
        p = tp / (tp + fp) if tp + fp else 1.0
        r = tp / (tp + fn) if tp + fn else 1.0
        return cls(tp, fp, fn, p, r, f_beta(p, r, beta), beta)


def micro_prf(decisions: list[tuple[str, str]], beta: float = DEFAULT_BETA) -> dict[str, PRF]:
    """Pool (bucket, outcome) decisions into per-bucket PRF.

    Outcomes are ``tp``, ``fp``, ``fn``.
    """
    counts: dict[str, Counter] = {}
    for bucket, outcome in decisions:
        if outcome not in ("tp", "fp", "fn"):
            raise ValueError(f"unknown outcome {outcome!r}")
        counts.setdefault(bucket, Counter())[outcome] += 1
    return {
        b: PRF.from_counts(c["tp"], c["fp"], c["fn"], beta) for b, c in counts.items()
    }


# ---------------------------------------------------------------------------
# GLEU


@dataclass(frozen=True)
class GleuStats:
    """Per-sentence sufficient statistics, penalty already applied per order."""

    hyp_len: int
    ref_len: int
    matches: tuple[int, ...]
    totals: tuple[int, ...]


@dataclass(frozen=True)
class GleuReport:
    corpus: float
    sentences: tuple[float, ...]
    order: int = GLEU_ORDER
    stats: tuple[GleuStats, ...] = field(default=(), repr=False)


def _ngrams(seq: TokenSeq, n: int) -> Counter:
    return Counter(zip(*(seq[i:] for i in range(n))))


def gleu_sentence_stats(
    hyp: TokenSeq, src: TokenSeq, ref: TokenSeq, order: int = GLEU_ORDER
) -> GleuStats:
    """Count matches minus source-retention penalty for each n-gram order.

    For each n: clipped matches of hyp against ref, minus hyp overlap with
    the multiset difference src − ref, floored at 0.  The total is the hyp
    n-gram count.  Unchanged sides save counting: when hyp, src and ref are
    equal every n-gram matches and none is penalized (O(n), no counting),
    and when src equals ref or hyp, its counts are not built again.
    """
    hyp_is_src = same_tokens(hyp, src)
    src_is_ref = same_tokens(src, ref)
    totals = tuple(max(len(hyp) + 1 - n, 0) for n in range(1, order + 1))
    if hyp_is_src and src_is_ref:
        return GleuStats(len(hyp), len(ref), totals, totals)
    matches: list[int] = []
    for n in range(1, order + 1):
        hyp_n = _ngrams(hyp, n)
        ref_n = _ngrams(ref, n)
        # src == ref leaves src − ref empty, so every penalty term is 0
        src_n = ref_n if src_is_ref else hyp_n if hyp_is_src else _ngrams(src, n)
        match = penalty = 0
        for g, c in hyp_n.items():
            r = ref_n.get(g, 0)
            match += c if c < r else r
            extra = src_n.get(g, 0) - r
            if extra > 0:
                penalty += c if c < extra else extra
        matches.append(max(match - penalty, 0))
    return GleuStats(len(hyp), len(ref), tuple(matches), totals)


def _brevity_penalty(hyp_len: int, ref_len: int) -> float:
    if hyp_len == 0:
        return 0.0 if ref_len else 1.0
    if hyp_len > ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / hyp_len)


def sentence_gleu_from_stats(st: GleuStats) -> float:
    """Sentence score with add-one smoothing on zero-denominator orders."""
    if st.hyp_len == 0:
        return 1.0 if st.ref_len == 0 else 0.0
    log_sum = 0.0
    for match, total in zip(st.matches, st.totals):
        if total == 0:
            match, total = 1, 1
        if match == 0:
            return 0.0
        log_sum += math.log(match / total)
    return _brevity_penalty(st.hyp_len, st.ref_len) * math.exp(log_sum / len(st.matches))


def _gleu_columns(stats: list[GleuStats]) -> tuple[int, list[list[int]]]:
    """The order and the columns hyp_len, ref_len, matches[0..order), totals[0..order)."""
    orders = {len(s.matches) for s in stats} | {len(s.totals) for s in stats}
    if len(orders) > 1:
        raise ValueError(f"mixed GLEU orders: {sorted(orders)}")
    order = orders.pop() if orders else 0
    columns = [[s.hyp_len for s in stats], [s.ref_len for s in stats]]
    columns += [[s.matches[k] for s in stats] for k in range(order)]
    columns += [[s.totals[k] for s in stats] for k in range(order)]
    return order, columns


def _gleu_from_sums(order: int, sums: list) -> float:
    """Corpus score from ``_gleu_columns`` sums; zero-total orders are skipped."""
    hyp_len, ref_len = sums[0], sums[1]
    if hyp_len == 0:
        return 1.0 if ref_len == 0 else 0.0
    logs: list[float] = []
    for k in range(2, 2 + order):
        match, total = sums[k], sums[k + order]
        if total == 0:
            continue
        if match == 0:
            return 0.0
        logs.append(math.log(match / total))
    if not logs:
        return 0.0
    return _brevity_penalty(hyp_len, ref_len) * math.exp(sum(logs) / len(logs))


def corpus_gleu_from_stats(stats: list[GleuStats]) -> float:
    """Corpus score from summed statistics; zero-total orders are skipped."""
    order, columns = _gleu_columns(stats)
    return _gleu_from_sums(order, [sum(col) for col in columns])


def gleu(
    hyps: list[TokenSeq],
    srcs: list[TokenSeq],
    refs: list[TokenSeq],
    order: int = GLEU_ORDER,
) -> GleuReport:
    if order < 1:
        raise ValueError("order must be >= 1")
    if not (len(hyps) == len(srcs) == len(refs)):
        raise ValueError(
            f"aligned inputs required: {len(hyps)} hyps, {len(srcs)} srcs, {len(refs)} refs"
        )
    if not hyps:
        raise ValueError("empty corpus")
    stats = tuple(
        gleu_sentence_stats(h, s, r, order) for h, s, r in zip(hyps, srcs, refs)
    )
    sentences = tuple(sentence_gleu_from_stats(st) for st in stats)
    return GleuReport(corpus_gleu_from_stats(list(stats)), sentences, order, stats)


# ---------------------------------------------------------------------------
# MaxMatch (M2)


@dataclass
class GoldAnnotation:
    """Gold edits for one sentence, possibly from several annotators."""

    source: TokenSeq
    annotators: dict[int, list[Edit]]

    def check(self) -> None:
        if not self.annotators:
            raise ValueError("at least one annotator required")
        for aid, edits in self.annotators.items():
            try:
                check_edits(edits, self.source)
            except ValueError as exc:
                raise ValueError(f"annotator {aid}: {exc}") from exc


def _windows(ops, max_unchanged: int) -> list:
    """Candidate edit windows over the alignment, grouped by first op.

    Entry ``lo`` is None for an equal op, else the list of windows
    ``(hi, start, end, k, l, pure_insert, run_continues)`` over ops[lo:hi]:
    the same windows, in the same order, as ``lattice_arcs``.  The ops tile
    both sequences, so the window's source span is ``[ops[lo].i,
    ops[hi-1].j)`` and its replacement is ``target[ops[lo].k:ops[hi-1].l]``;
    nothing is copied here.  ``run_continues`` marks a pure insertion
    followed by another insert op at the same position.
    """
    n = len(ops)
    out: list = [None] * n
    for lo, op in enumerate(ops):
        if op.kind == "equal":
            continue
        start, k = op.i, op.k
        wins = []
        internal = 0
        for hi in range(lo + 1, n + 1):
            last = ops[hi - 1]
            if last.kind == "equal":
                internal += 1
                if internal > max_unchanged:
                    break
                continue
            end = last.j
            pure = start == end
            run = pure and hi < n and ops[hi].kind == "insert"
            wins.append((hi, start, end, k, last.l, pure, run))
        out[lo] = wins
    return out


def _best_selection(windows: list, target: tuple, gold_edits: list[Edit]) -> tuple[int, int]:
    """Maximize matched gold edits, then minimize selected window count.

    Dynamic program over op positions.  The boolean flag guards the one
    degenerate double-count: a gold insertion at a position can be matched
    by at most one of the pure-insert windows within that insertion run.
    """
    gold: dict[tuple[int, int], set] = {}
    for e in gold_edits:
        gold.setdefault((e.start, e.end), set()).add(e.replacement)
    n = len(windows)
    # best_f[p] / best_t[p] = (tp, -window count) from op p with the flag
    # off / on, maximized lexicographically; the first maximum wins.
    best_f: list = [None] * (n + 1)
    best_t: list = [None] * (n + 1)
    best_f[n] = best_t[n] = (0, 0)
    for p in range(n - 1, -1, -1):
        wins = windows[p]
        if wins is None:
            best_f[p] = best_t[p] = best_f[p + 1]
            continue
        value_f = value_t = None
        for hi, start, end, k, l, pure, run in wins:
            reps = gold.get((start, end))
            hit = reps is not None and target[k:l] in reps
            # flag off: a hit matches; the flag turns on if the run goes on
            sub_tp, neg = (best_t if run and hit else best_f)[hi]
            cand = (sub_tp + 1 if hit else sub_tp, neg - 1)
            if value_f is None or cand > value_f:
                value_f = cand
            # flag on: a pure insertion can no longer match
            matched = hit and not pure
            sub_tp, neg = (best_t if run else best_f)[hi]
            cand = (sub_tp + 1 if matched else sub_tp, neg - 1)
            if value_t is None or cand > value_t:
                value_t = cand
        best_f[p] = value_f
        best_t[p] = value_t
    tp, neg = best_f[0]
    return tp, -neg


def m2_maxmatch(
    hyp: TokenSeq,
    gold: GoldAnnotation,
    max_unchanged: int = 2,
    beta: float = DEFAULT_BETA,
) -> PRF:
    """Sentence-level MaxMatch score against the best-matching annotator.

    The hypothesis must be plain (tags stripped).  With several annotators
    the one yielding the highest F_beta is charged; ties go to the smallest
    annotator id.

    Cost: a hypothesis equal to the source has no windows, so it selects
    nothing and costs O(n).  Otherwise, after the Levenshtein alignment of
    n ops, the candidate windows are built once and shared by all
    annotators.  There are at most n(n+1)/2 of them (every op a change),
    each O(1) integer work per annotator, plus one replacement slice only
    where a window's source span is a gold span.
    """
    i = find_reserved(hyp)
    if i >= 0:
        raise ValueError(f"reserved token in hypothesis at position {i}: {hyp[i]!r}")
    if max_unchanged < 0:
        raise ValueError("max_unchanged must be >= 0")
    unchanged = same_tokens(hyp, gold.source)
    if not unchanged:
        align = levenshtein_align(gold.source, hyp)
        windows = _windows(align.ops, max_unchanged)
    best: PRF | None = None
    for aid in sorted(gold.annotators):
        gold_edits = gold.annotators[aid]
        if unchanged:
            tp = nedits = 0
        else:
            tp, nedits = _best_selection(windows, align.target, gold_edits)
        prf = PRF.from_counts(tp, nedits - tp, len(gold_edits) - tp, beta)
        if best is None or prf.f_beta > best.f_beta:
            best = prf
    assert best is not None
    return best


@dataclass(frozen=True)
class M2Report:
    overall: PRF
    sentences: tuple[PRF, ...]


def m2_corpus(
    hyps: list[TokenSeq],
    golds: list[GoldAnnotation],
    max_unchanged: int = 2,
    beta: float = DEFAULT_BETA,
) -> M2Report:
    """Corpus MaxMatch: per-sentence annotator choice, pooled raw counts."""
    if len(hyps) != len(golds):
        raise ValueError(f"aligned inputs required: {len(hyps)} hyps, {len(golds)} golds")
    if not hyps:
        raise ValueError("empty corpus")
    sentences = tuple(
        m2_maxmatch(h, g, max_unchanged, beta) for h, g in zip(hyps, golds)
    )
    tp = sum(s.tp for s in sentences)
    fp = sum(s.fp for s in sentences)
    fn = sum(s.fn for s in sentences)
    return M2Report(PRF.from_counts(tp, fp, fn, beta), sentences)


# ---------------------------------------------------------------------------
# paired bootstrap


@dataclass(frozen=True)
class BootstrapReport:
    metric: str
    resamples: int
    level: float
    seed: int
    score_a: float
    score_b: float
    wins_a: int
    wins_b: int
    ties: int
    win_fraction_a: float
    significant: bool
    better: str | None


def _metric_columns(metric: str, stats: list, beta: float) -> tuple[list[list], Callable]:
    """Per-sentence statistics as columns, and the corpus score of their sums."""
    if metric == "gleu":
        order, columns = _gleu_columns(stats)
        return columns, lambda sums: _gleu_from_sums(order, sums)
    if metric == "m2":
        columns = [[s.tp for s in stats], [s.fp for s in stats], [s.fn for s in stats]]
        return columns, lambda sums: PRF.from_counts(*sums, beta).f_beta
    raise ValueError(f"unknown metric {metric!r}")


def paired_bootstrap(
    stats_a: list,
    stats_b: list,
    metric: str = "gleu",
    resamples: int = 50,
    level: float = 0.05,
    seed: int = 13,
    beta: float = DEFAULT_BETA,
) -> BootstrapReport:
    """Paired bootstrap over sentences (resampling the full set each time).

    Per resample both systems are rescored from per-sentence sufficient
    statistics (GleuStats for ``gleu``, PRF counts for ``m2``) on the same
    index sample.  The statistics are turned into columns once; a resample
    sums each column over the sample in index order, the order in which
    the corpus scores add them, so float counts give the same sums too.
    System A is reported significantly better when its win fraction (ties
    counted half) reaches 1 − level, B when it falls to level; ``level``
    must lie in (0, 0.5).
    """
    if len(stats_a) != len(stats_b):
        raise ValueError(f"mismatched lengths: {len(stats_a)} vs {len(stats_b)}")
    if not stats_a:
        raise ValueError("empty corpus")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    if not 0.0 < level < 0.5:  # from 0.5 up, A and B could both be significant
        raise ValueError(f"level must be in (0, 0.5), got {level}")
    columns_a, score_a = _metric_columns(metric, stats_a, beta)
    columns_b, score_b = _metric_columns(metric, stats_b, beta)
    n = len(stats_a)
    rng = random.Random(seed)
    wins_a = wins_b = ties = 0
    for _ in range(resamples):
        idx = [rng.randrange(n) for _ in range(n)]
        a = score_a([sum(map(col.__getitem__, idx)) for col in columns_a])
        b = score_b([sum(map(col.__getitem__, idx)) for col in columns_b])
        if a > b:
            wins_a += 1
        elif b > a:
            wins_b += 1
        else:
            ties += 1
    frac = (wins_a + 0.5 * ties) / resamples
    better: str | None = None
    if frac >= 1.0 - level:
        better = "A"
    elif frac <= level:
        better = "B"
    return BootstrapReport(
        metric=metric,
        resamples=resamples,
        level=level,
        seed=seed,
        score_a=score_a([sum(col) for col in columns_a]),
        score_b=score_b([sum(col) for col in columns_b]),
        wins_a=wins_a,
        wins_b=wins_b,
        ties=ties,
        win_fraction_a=frac,
        significant=better is not None,
        better=better,
    )
