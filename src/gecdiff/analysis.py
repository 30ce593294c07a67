"""Error-type breakdowns: bucket replacement edits and score per bucket.

Replacement errors are grouped by content: punctuation first, then articles,
then training-set frequency of the (deleted, replacement) pair.  Matching
here is exact span+content equality, stricter than the evaluation lattice,
because each grouped error is judged as its own binary decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter

from .edit_extract import Edit, pair_edits
from .metrics import DEFAULT_BETA, PRF, micro_prf
from .text_norm import TokenSeq

PUNCT = frozenset({",", ":", ".", "-", "'", '"', ";", "!", "?"})
ARTICLES = frozenset({"a", "an", "the"})

FREQ_BUCKETS = (">100", "[5,100]", "[2,5)", "1", "0")
BUCKETS = ("Punctuation", "Articles") + FREQ_BUCKETS

GroupedError = tuple[tuple[str, ...], tuple[str, ...]]


@dataclass(frozen=True)
class FreqTable:
    counts: dict[GroupedError, int]

    def __post_init__(self) -> None:
        for key, n in self.counts.items():
            if n < 1:
                raise ValueError(f"nonpositive frequency for {key!r}")

    def get(self, key: GroupedError) -> int:
        return self.counts.get(key, 0)


def build_freq_table(pairs: list[tuple[TokenSeq, TokenSeq]]) -> FreqTable:
    """Count grouped errors over training (source, target) pairs."""
    counts: Counter = Counter()
    for source, target in pairs:
        for e in pair_edits(source, target):
            counts[(e.deleted, e.replacement)] += 1
    return FreqTable(dict(counts))


def _single(tokens: tuple[str, ...]) -> str | None:
    return tokens[0] if len(tokens) == 1 else None


def bucket_replacement(edit: Edit, freq: FreqTable) -> str:
    if edit.kind != "replace":
        raise ValueError(f"not a replacement edit: {edit!r}")
    for side in (edit.deleted, edit.replacement):
        tok = _single(side)
        if tok is not None and tok in PUNCT:
            return "Punctuation"
    for side in (edit.deleted, edit.replacement):
        tok = _single(side)
        if tok is not None and tok.casefold() in ARTICLES:
            return "Articles"
    n = freq.get((edit.deleted, edit.replacement))
    if n > 100:
        return ">100"
    if n >= 5:
        return "[5,100]"
    if n >= 2:
        return "[2,5)"
    if n == 1:
        return "1"
    return "0"


@dataclass(frozen=True)
class BucketRow:
    gold_count: int
    unique_instances: int
    prf: PRF


@dataclass(frozen=True)
class BucketReport:
    rows: dict[str, BucketRow]


def _check_aligned(system: list[list[Edit]], gold: list[list[Edit]]) -> None:
    if len(system) != len(gold):
        raise ValueError(
            f"system has {len(system)} sentences, gold has {len(gold)}"
        )


def bucket_report(
    system: list[list[Edit]],
    gold: list[list[Edit]],
    freq: FreqTable,
    beta: float = DEFAULT_BETA,
) -> BucketReport:
    """Per-bucket micro PRF over replacement edits, exact matching.

    System-only edits are bucketed by their own content; unseen pairs fall
    to bucket "0".
    """
    _check_aligned(system, gold)
    decisions: list[tuple[str, str]] = []
    gold_total: Counter = Counter()
    uniques: dict[str, set[GroupedError]] = {b: set() for b in BUCKETS}
    for sys_edits, gold_edits in zip(system, gold):
        sys_repl = {e for e in sys_edits if e.kind == "replace"}
        gold_repl = {e for e in gold_edits if e.kind == "replace"}
        for e in gold_repl:
            b = bucket_replacement(e, freq)
            gold_total[b] += 1
            uniques[b].add((e.deleted, e.replacement))
        for e in sys_repl & gold_repl:
            decisions.append((bucket_replacement(e, freq), "tp"))
        for e in sys_repl - gold_repl:
            decisions.append((bucket_replacement(e, freq), "fp"))
        for e in gold_repl - sys_repl:
            decisions.append((bucket_replacement(e, freq), "fn"))
    prfs = micro_prf(decisions, beta=beta)
    rows = {
        b: BucketRow(
            gold_count=gold_total.get(b, 0),
            unique_instances=len(uniques[b]),
            prf=prfs.get(b, PRF.from_counts(0, 0, 0, beta=beta)),
        )
        for b in BUCKETS
    }
    return BucketReport(rows)


def kind_report(
    system: list[list[Edit]],
    gold: list[list[Edit]],
    beta: float = DEFAULT_BETA,
) -> dict[str, PRF]:
    """Micro PRF split by edit kind, exact matching; kinds with support only."""
    _check_aligned(system, gold)
    decisions: list[tuple[str, str]] = []
    for sys_edits, gold_edits in zip(system, gold):
        sys_set, gold_set = set(sys_edits), set(gold_edits)
        for e in sys_set & gold_set:
            decisions.append((e.kind, "tp"))
        for e in sys_set - gold_set:
            decisions.append((e.kind, "fp"))
        for e in gold_set - sys_set:
            decisions.append((e.kind, "fn"))
    return micro_prf(decisions, beta=beta)


def pct(x: float) -> str:
    """A fraction as a percentage with two decimals, as every report prints it."""
    return f"{x * 100:.2f}"


def format_table(header: tuple[str, ...], body: list[tuple[str, ...]]) -> str:
    """Aligned text table: first column left-justified, the rest right-justified."""
    rows = [header, *body]
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = []
    for r in rows:
        cells = [r[0].ljust(widths[0])] + [r[c].rjust(widths[c]) for c in range(1, len(r))]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def format_bucket_report(report: BucketReport) -> str:
    """Aligned text table, one bucket per row."""
    header = ("Bucket", "Gold", "Unique", "P", "R", "F")
    body = [
        (
            b, str(row.gold_count), str(row.unique_instances),
            pct(row.prf.precision), pct(row.prf.recall), pct(row.prf.f_beta),
        )
        for b, row in report.rows.items()
    ]
    return format_table(header, body)


def format_kind_report(kinds: dict[str, PRF]) -> str:
    names = {"delete": "Deletions", "insert": "Insertions", "replace": "Replacements"}
    header = ("Kind", "P", "R", "F")
    body = [
        (names.get(kind, kind), pct(prf.precision), pct(prf.recall), pct(prf.f_beta))
        for kind, prf in sorted(kinds.items())
    ]
    return format_table(header, body)
