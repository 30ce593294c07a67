"""Corpus loading, cleanup filters, and the file layer under every format.

Every gecdiff file is read and written here.  A byte that does not decode
fails with ``<file>:<line>: not valid UTF-8``; every writer goes through
``atomic_write``, so a failed write leaves its destinations as they were.
Every token reader keeps one string per distinct token text through a
``_Shared`` table made for that call, so what it returns grows with the
vocabulary rather than with the token count.

Parallel text is one sentence per line; loading tokenizes both sides.
Cleanup rules (length caps, noisy-pair drops) are pure functions returning
the kept pairs plus a report whose counts always reconcile.  Gold edit
files use the M2 convention: an S line with the source tokens, then A lines
``start end|||type|||replacement|||REQUIRED|||-NONE-|||annotator``.
"""

from __future__ import annotations

import os
import re
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, TextIO

from .edit_extract import Edit, pair_edits
from .diff_codec import encode_diffs
from .metrics import GoldAnnotation
from .text_norm import TokenSeq, domain_token, find_reserved, is_reserved_token, tokenize


@dataclass(frozen=True)
class SentencePair:
    source: tuple[str, ...]
    target: tuple[str, ...]
    domain: str | None = None

    def check(self) -> None:
        for side, toks in (("source", self.source), ("target", self.target)):
            i = find_reserved(toks)
            if i >= 0:
                raise ValueError(f"reserved token in {side} at {i}: {toks[i]!r}")


@dataclass(frozen=True)
class FilterReport:
    input: int
    retained: int
    drops: dict[str, int]

    def check(self) -> None:
        if self.input != self.retained + sum(self.drops.values()):
            raise ValueError("filter report counts do not reconcile")


@contextmanager
def atomic_write(*paths: str) -> Iterator[list[TextIO]]:
    """Yield a UTF-8 handle on ``<path>.part`` per path; move all into place
    if the block returns, remove all and touch no destination if it raises."""
    parts = [path + ".part" for path in paths]
    try:
        with ExitStack() as stack:
            yield [stack.enter_context(open(part, "w", encoding="utf-8")) for part in parts]
        for part, path in zip(parts, paths):
            os.replace(part, path)
    except BaseException:
        for part in parts:
            if os.path.exists(part):
                os.unlink(part)
        raise


def write_text(path: str, text: str) -> None:
    with atomic_write(path) as (fh,):
        fh.write(text)


@contextmanager
def _utf8_reader(path: str) -> Iterator[TextIO]:
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def iter_lines(path: str) -> Iterator[str]:
    """Stream the lines of a UTF-8 file, without their line ends."""
    with _utf8_reader(path) as fh:
        for line in fh:
            yield line.rstrip("\n")


def read_lines(path: str) -> list[str]:
    return list(iter_lines(path))


def read_text(path: str) -> str:
    with _utf8_reader(path) as fh:
        return fh.read()


class _Shared(dict):
    """Maps a key to the one value made from it, made on first use.

    Each reader makes its own table per call, so the values it returns share
    one object per distinct key and nothing outlives the call.  ``_Shared(str)``
    keeps the first string read for each token text; a hit through
    ``__getitem__`` stays in C.
    """

    __slots__ = ("make",)

    def __init__(self, make: Callable) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _not_utf8(path: str) -> ValueError:
    """The error for a file that does not decode, naming its first bad line."""
    # undecodable bytes come back as lone surrogates, which cannot be encoded
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for n, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return ValueError(f"{path}:{n}: not valid UTF-8")
    return ValueError(f"{path}: not valid UTF-8")


def _check_paired(path: str, lines: list, other_path: str, other: list) -> None:
    """Raise unless the two files pair line for line.

    The error names the longer file's first line with no partner, as
    ``a.src:3: no line 3 in a.tgt (a.src has 3 lines, a.tgt has 2)``.
    """
    if len(lines) == len(other):
        return
    if len(lines) < len(other):
        path, lines, other_path, other = other_path, other, path, lines
    n = len(other) + 1
    raise ValueError(
        f"{path}:{n}: no line {n} in {other_path} "
        f"({path} has {len(lines)} lines, {other_path} has {len(other)})"
    )


def load_parallel(
    src_path: str, tgt_path: str, dom_path: str | None = None
) -> list[SentencePair]:
    src_lines = read_lines(src_path)
    tgt_lines = read_lines(tgt_path)
    _check_paired(src_path, src_lines, tgt_path, tgt_lines)
    domains: list[str | None]
    if dom_path is not None:
        dom_lines = read_lines(dom_path)
        _check_paired(src_path, src_lines, dom_path, dom_lines)
        domains = []
        for n, line in enumerate(dom_lines, 1):
            label = line.strip()
            try:
                domain_token(label)  # the one rule for a domain name
            except ValueError as exc:
                raise ValueError(f"{dom_path}:{n}: {exc}") from None
            domains.append(label)
    else:
        domains = [None] * len(src_lines)
    words = _Shared(str).__getitem__
    # a line read before, most often a target equal to its source, is
    # tokenized once and shares its tuple
    seqs = _Shared(lambda text: tuple(map(words, tokenize(text)))).__getitem__
    return [
        SentencePair(seqs(s), seqs(t), domain=d) for s, t, d in zip(src_lines, tgt_lines, domains)
    ]


def write_parallel(
    src_path: str,
    tgt_path: str,
    pairs: list[SentencePair],
    dom_path: str | None = None,
) -> None:
    """Write the sides (and domain labels) of ``pairs``: all files or none."""
    paths = [src_path, tgt_path] + ([dom_path] if dom_path is not None else [])
    with atomic_write(*paths) as handles:
        for n, p in enumerate(pairs, 1):
            handles[0].write(" ".join(p.source) + "\n")
            handles[1].write(" ".join(p.target) + "\n")
            if dom_path is not None:
                if p.domain is None:
                    raise ValueError(f"pair {n} has no domain label")
                handles[2].write(p.domain + "\n")


def read_token_lines(path: str) -> list[TokenSeq]:
    """One fresh list per line; the lines share one string per distinct token."""
    words = _Shared(str).__getitem__
    return [list(map(words, line.split())) for line in iter_lines(path)]


def write_token_lines(path: str, seqs: list[TokenSeq]) -> None:
    with atomic_write(path) as (fh,):
        for seq in seqs:
            fh.write(" ".join(seq) + "\n")


# ---------------------------------------------------------------------------
# filters

# (src cap, tgt cap, view)
PRESETS: dict[str, tuple[int, int, str]] = {
    "aesw": (126, 126, "word"),
    "aesw-char": (421, 421, "char"),
    "conll": (79, 100, "word"),
}


def _measured_length(tokens: TokenSeq, view: str) -> int:
    if view == "word":
        return len(tokens)
    if view == "char":
        if not tokens:
            return 0
        total = sum(1 if is_reserved_token(t) else len(t) for t in tokens)
        return total + len(tokens) - 1  # joiner marks between tokens
    raise ValueError(f"unknown view: {view!r}")


def length_filter(
    pairs: list[SentencePair],
    src_max: int,
    tgt_max: int,
    view: str = "word",
) -> tuple[list[SentencePair], FilterReport]:
    """Drop pairs whose measured lengths exceed the caps.

    The target is measured as the diff-tagged sequence.  Pairs carrying a
    domain label get one extra slot on both sides.
    """
    if src_max < 1 or tgt_max < 1:
        raise ValueError("length caps must be >= 1")
    kept: list[SentencePair] = []
    drops = {"src-too-long": 0, "tgt-too-long": 0}
    for p in pairs:
        extra = 1 if p.domain is not None else 0
        src_len = _measured_length(list(p.source), view)
        tgt_len = _measured_length(encode_diffs(list(p.source), list(p.target)), view)
        if src_len > src_max + extra:
            drops["src-too-long"] += 1
        elif tgt_len > tgt_max + extra:
            drops["tgt-too-long"] += 1
        else:
            kept.append(p)
    report = FilterReport(len(pairs), len(kept), drops)
    report.check()
    return kept, report


DEFAULT_COLLOQUIAL = frozenset({"haha", "lol", "yay"})

# ASCII-art faces, matched against whole target tokens
EMOTICON_PATTERNS = [
    r"[:;=8][-'o^]?[()\[\]dDpP/\\|oO*3]+",
    r"[()\[\]dDpP/\\|]+[-'o^]?[:;=8]",
    r"\^[-_.]?\^",
    r"<3+",
    r"[tT][-_.][tT]",
    r"[oO0][-_.][oO0]",
    r"[xX][-_.]?[dD]+",
]
_EMOTICON_RE = re.compile("|".join(f"(?:{p})" for p in EMOTICON_PATTERNS))

_TERMINAL_OK = frozenset({".", "?", "!", '"', "'", "''"})

LANG8_RULES = (
    "duplicate",
    "emoticon",
    "colloquial",
    "non-ascii",
    "lowercase-start",
    "ends-in-paren",
    "no-terminal-punct",
)


def filter_lang8(
    pairs: list[SentencePair],
    colloquial: frozenset[str] = DEFAULT_COLLOQUIAL,
    enabled: tuple[str, ...] | None = None,
) -> tuple[list[SentencePair], FilterReport]:
    """Noisy-pair cleanup for forum-style parallel data.

    Rules fire in LANG8_RULES order; each drop is charged to the first rule
    that matches.  ``enabled`` restricts to a subset (empty = identity).
    """
    if enabled is None:
        active = set(LANG8_RULES)
    else:
        active = set(enabled)
        unknown = active - set(LANG8_RULES)
        if unknown:
            raise ValueError(f"unknown filter rules: {sorted(unknown)}")
    folded = {w.casefold() for w in colloquial}
    seen: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()
    kept: list[SentencePair] = []
    drops = {name: 0 for name in LANG8_RULES}

    def drop_rule(p: SentencePair) -> str | None:
        if "duplicate" in active:
            key = (p.source, p.target)
            if key in seen:
                return "duplicate"
            seen.add(key)
        t = p.target
        if "emoticon" in active and any(_EMOTICON_RE.fullmatch(tok) for tok in t):
            return "emoticon"
        if "colloquial" in active and any(tok.casefold() in folded for tok in t):
            return "colloquial"
        if "non-ascii" in active and any(
            ord(ch) > 127 for tok in (*p.source, *t) for ch in tok
        ):
            return "non-ascii"
        if "lowercase-start" in active and not (t and t[0][:1].isupper()):
            return "lowercase-start"
        if "ends-in-paren" in active and t and t[-1] == ")":
            return "ends-in-paren"
        if "no-terminal-punct" in active and not (t and t[-1] in _TERMINAL_OK):
            return "no-terminal-punct"
        return None

    for p in pairs:
        rule = drop_rule(p)
        if rule is None:
            kept.append(p)
        else:
            drops[rule] += 1
    report = FilterReport(len(pairs), len(kept), drops)
    report.check()
    return kept, report


# ---------------------------------------------------------------------------
# gold edit files


def _parse_a_line(
    line: str, where: str, words: Callable[[str], str]
) -> tuple[int, int, str, tuple[str, ...], int]:
    body = line[2:]
    fields = body.split("|||")
    if len(fields) != 6:
        raise ValueError(f"{where}: expected 6 fields, got {len(fields)}")
    span = fields[0].split()
    if len(span) != 2:
        raise ValueError(f"{where}: bad span {fields[0]!r}")
    try:
        start, end = int(span[0]), int(span[1])
    except ValueError:
        raise ValueError(f"{where}: bad span {fields[0]!r}") from None
    kind = fields[1]
    repl_text = fields[2].split("||")[0]  # first alternative wins
    replacement = () if repl_text in ("", "-NONE-") else tuple(map(words, repl_text.split()))
    try:
        annotator = int(fields[5])
    except ValueError:
        raise ValueError(f"{where}: bad annotator id {fields[5]!r}") from None
    return start, end, kind, replacement, annotator


def load_m2_gold(path: str) -> list[GoldAnnotation]:
    annotations: list[GoldAnnotation] = []
    source: tuple[str, ...] | None = None
    edits: dict[int, list[Edit]] = {}
    words = _Shared(str).__getitem__

    def flush(where: str) -> None:
        nonlocal source, edits
        if source is None:
            return
        ann = GoldAnnotation(
            source=list(source),
            annotators={a: sorted(es) for a, es in edits.items()} or {0: []},
        )
        try:
            ann.check()
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        annotations.append(ann)
        source, edits = None, {}

    for n, line in enumerate(read_lines(path), 1):
        where = f"{path}:{n}"
        if not line.strip():
            flush(where)
            continue
        if line.startswith("S ") or line == "S":
            if source is not None:
                raise ValueError(f"{where}: S line before blank separator")
            source = tuple(map(words, line[2:].split()))
            edits = {}
        elif line.startswith("A "):
            if source is None:
                raise ValueError(f"{where}: A line without preceding S line")
            start, end, kind, replacement, annotator = _parse_a_line(line, where, words)
            if start == -1 and end == -1:  # explicit no-edit marker
                edits.setdefault(annotator, [])
                continue
            if not 0 <= start <= end <= len(source):
                raise ValueError(f"{where}: span {start} {end} outside source")
            try:  # an empty span with no replacement is no edit
                edit = Edit(start, end, tuple(source[start:end]), replacement, words(kind))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            edits.setdefault(annotator, []).append(edit)
        else:
            raise ValueError(f"{where}: unrecognized line {line!r}")
    flush(f"{path}:end")
    return annotations


def write_m2_gold(path: str, annotations: list[GoldAnnotation]) -> None:
    lines: list[str] = []
    for ann in annotations:
        for tok in ann.source:
            if "|||" in tok or tok == "":
                raise ValueError(f"token not representable in gold file: {tok!r}")
        lines.append("S " + " ".join(ann.source))
        for annotator in sorted(ann.annotators):
            edits = ann.annotators[annotator]
            if not edits:
                lines.append(f"A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||{annotator}")
                continue
            for e in sorted(edits):
                repl = " ".join(e.replacement)
                if "|||" in repl:
                    raise ValueError(f"replacement not representable: {e.replacement!r}")
                if "|||" in e.error_type:
                    raise ValueError(f"error type not representable: {e.error_type!r}")
                lines.append(
                    f"A {e.start} {e.end}|||{e.error_type}|||{repl}"
                    f"|||REQUIRED|||-NONE-|||{annotator}"
                )
        lines.append("")
    write_text(path, "\n".join(lines))


# ---------------------------------------------------------------------------
# summary statistics


@dataclass(frozen=True)
class CorpusStats:
    pairs: int
    edited_pairs: int
    edit_fraction: float
    mean_words_in_change: float
    unique_deletions: int
    unique_insertions: int
    unique_replacements: int


def corpus_stats(pairs: list[SentencePair]) -> CorpusStats:
    """Edit-density summary: how many pairs change, and how much.

    Words-in-change counts the deleted and inserted words of every edit,
    the tokens strictly inside diff spans; the mean is over edited pairs only.
    """
    edited = 0
    span_tokens = 0
    deletions: set[tuple[str, ...]] = set()
    insertions: set[tuple[str, ...]] = set()
    replacements: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()
    for p in pairs:
        edits = pair_edits(p.source, p.target)
        if not edits:
            continue
        edited += 1
        for e in edits:
            span_tokens += len(e.deleted) + len(e.replacement)
            if e.kind == "delete":
                deletions.add(e.deleted)
            elif e.kind == "insert":
                insertions.add(e.replacement)
            else:
                replacements.add((e.deleted, e.replacement))
    return CorpusStats(
        pairs=len(pairs),
        edited_pairs=edited,
        edit_fraction=edited / len(pairs) if pairs else 0.0,
        mean_words_in_change=span_tokens / edited if edited else 0.0,
        unique_deletions=len(deletions),
        unique_insertions=len(insertions),
        unique_replacements=len(replacements),
    )
