"""Encoding, validation, and repair of diff-tagged target sequences.

A tagged sequence is the source token stream with corrections spliced in:
``<del> ... </del>`` wraps source tokens to remove, ``<ins> ... </ins>``
wraps tokens to add, and everything outside spans is copied source.  A
replacement is a deletion span followed by an insertion span.  Stripping
the deletions yields the corrected target; stripping the insertions yields
the original source.  An optional ``<dom:NAME>`` token may sit at position 0.

The span grammar is defined once, in ``NEXT_MODE``: parsing, validation,
repair, the decoder's constrained mask and the reference scorer all look
tags up there.  Model output is not trusted to be well formed, so this
module also provides ``validate_tagged`` (a structured report) and
``repair`` (a deterministic projection back onto the valid set that
preserves insertion content).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass

from .text_norm import (
    DEL_CLOSE,
    DEL_OPEN,
    INS_CLOSE,
    INS_OPEN,
    TAG_TOKENS,
    TokenSeq,
    domain_name,
    domain_token,
    find_reserved,
    is_domain_token,
    is_reserved_token,
    same_tokens,
)

# Delimiter between top-level tokens in the character view (open box, U+2423).
CHAR_DELIM = "␣"


# The span grammar: (mode, tag) -> next mode.  Modes are "plain" (copied
# source), "del" and "ins".  A tag with no entry for the current mode breaks
# the grammar (a nested open or a stray closer).  Every word outside "ins"
# replays the next source token; words inside "ins" are free.
NEXT_MODE = {
    ("plain", DEL_OPEN): "del",
    ("plain", INS_OPEN): "ins",
    ("del", DEL_CLOSE): "plain",
    ("ins", INS_CLOSE): "plain",
}
OPENS = {tag: span for (mode, tag), span in NEXT_MODE.items() if mode == "plain"}
CLOSER = {mode: tag for (mode, tag), nxt in NEXT_MODE.items() if nxt == "plain"}
TAG_MOVES = {  # mode -> the (tag, next mode) moves the grammar allows from it
    m: tuple((tag, nxt) for (mode, tag), nxt in NEXT_MODE.items() if mode == m)
    for m, _ in NEXT_MODE
}


class MalformedTagsError(ValueError):
    """Tagged sequence violates span structure; message names the first fault."""


# ---------------------------------------------------------------------------
# encoding


def pair_opcodes(source: TokenSeq, target: TokenSeq) -> list[tuple[str, int, int, int, int]]:
    """difflib's opcodes from ``source`` to ``target``: the one alignment of a pair.

    Longest-matching-block alignment, so no replace opcode has identical
    sides, no span is empty and no two non-equal opcodes are adjacent.
    Inputs must not contain reserved tokens.
    """
    for name, seq in (("source", source), ("target", target)):
        i = find_reserved(seq)
        if i >= 0:
            raise ValueError(f"reserved token in {name} at position {i}: {seq[i]!r}")
    if same_tokens(source, target):  # what difflib gives, without its tables
        return [("equal", 0, len(source), 0, len(target))] if source else []
    return difflib.SequenceMatcher(a=source, b=target, autojunk=False).get_opcodes()


def encode_diffs(source: TokenSeq, target: TokenSeq) -> TokenSeq:
    """Encode target as source plus minimal ``<del>``/``<ins>`` spans.

    Renders ``pair_opcodes``: an equal opcode copies source, a delete or a
    replace wraps its source side in ``<del>``, and an insert or a replace
    wraps its target side in ``<ins>``.
    """
    out: TokenSeq = []
    for op, i1, i2, j1, j2 in pair_opcodes(source, target):
        if op == "equal":
            out.extend(source[i1:i2])
            continue
        if op in ("delete", "replace"):
            out.append(DEL_OPEN)
            out.extend(source[i1:i2])
            out.append(DEL_CLOSE)
        if op in ("insert", "replace"):
            out.append(INS_OPEN)
            out.extend(target[j1:j2])
            out.append(INS_CLOSE)
    return out


# ---------------------------------------------------------------------------
# span parsing


def parse_spans(tagged: TokenSeq) -> list[tuple[str, TokenSeq]]:
    """Split a tagged sequence into ``(kind, tokens)`` segments.

    Kinds are ``dom``, ``plain``, ``del``, ``ins``.  Raises
    ``MalformedTagsError`` on nesting, stray closers, an unclosed span, or a
    domain token after position 0.
    """
    if find_reserved(tagged) < 0:  # untagged: one plain segment
        return [("plain", list(tagged))] if tagged else []
    segments: list[tuple[str, TokenSeq]] = []
    mode = "plain"
    run: TokenSeq = []  # tokens of the open segment
    for i, tok in enumerate(tagged):
        if tok in TAG_TOKENS:
            nxt = NEXT_MODE.get((mode, tok))
            if nxt is None:
                what = "nested tag" if tok in OPENS else "unmatched"
                raise MalformedTagsError(f"{what} {tok} at position {i}")
            if run or mode != "plain":  # a span is kept even when empty
                segments.append((mode, run))
                run = []
            mode = nxt
        elif is_domain_token(tok):
            if i != 0:
                raise MalformedTagsError(f"domain token not at position 0 (position {i})")
            segments.append(("dom", [tok]))
        else:
            run.append(tok)
    if mode != "plain":
        raise MalformedTagsError(f"unclosed <{mode}> span at end of sequence")
    if run:
        segments.append(("plain", run))
    return segments


def split_domain(tagged: TokenSeq) -> tuple[str | None, TokenSeq]:
    """Return ``(domain name or None, rest of the sequence)``."""
    if tagged and is_domain_token(tagged[0]):
        return domain_name(tagged[0]), tagged[1:]
    return None, list(tagged)


def prepend_domain(seq: TokenSeq, name: str) -> TokenSeq:
    """Prefix ``<dom:NAME>``; the sequence must not already carry one."""
    for i, tok in enumerate(seq):
        if is_domain_token(tok):
            raise ValueError(f"sequence already has a domain token at position {i}")
    return [domain_token(name)] + list(seq)


def strip_to_target(tagged: TokenSeq) -> TokenSeq:
    """Drop deletions and tags, keep insertions: the corrected sentence."""
    return _keep(tagged, "ins")


def strip_to_source(tagged: TokenSeq) -> TokenSeq:
    """Drop insertions and tags, keep deletions: the original sentence."""
    return _keep(tagged, "del")


def _keep(tagged: TokenSeq, span: str) -> TokenSeq:
    """The plain tokens and those of the ``span`` segments, in order."""
    out: TokenSeq = []
    for kind, tokens in parse_spans(tagged):
        if kind == "plain" or kind == span:
            out.extend(tokens)
    return out


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    position: int
    kind: str  # unbalanced-tag | out-of-source-token | source-order-violation | leftover-source


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    violations: tuple[Violation, ...]


def validate_tagged(tagged: TokenSeq, source: TokenSeq) -> ValidityReport:
    """Check span structure and that the non-insertion stream equals source.

    Never raises; all faults are reported with positions.  Recovery while
    scanning: stray closers are skipped, redundant opens are ignored, and an
    unclosed span is treated as closed at the end.
    """
    violations: list[Violation] = []
    mode = "plain"
    ptr = 0  # next source token expected
    last = {tok: j for j, tok in enumerate(source)}  # last index of each token
    for i, tok in enumerate(tagged):
        if tok in TAG_TOKENS:
            nxt = NEXT_MODE.get((mode, tok))
            if nxt is None:
                violations.append(Violation(i, "unbalanced-tag"))
            else:
                mode = nxt
            continue
        if is_domain_token(tok):
            if i != 0:
                violations.append(Violation(i, "unbalanced-tag"))
            continue
        if mode == "ins":
            continue  # insertion content is free
        # Outside insertions the stream must replay source in order.
        if ptr < len(source) and tok == source[ptr]:
            ptr += 1
        elif last.get(tok, -1) > ptr:
            violations.append(Violation(i, "source-order-violation"))
        else:
            violations.append(Violation(i, "out-of-source-token"))
    if mode != "plain":
        violations.append(Violation(len(tagged), "unbalanced-tag"))
    if ptr < len(source):
        violations.append(Violation(len(tagged), "leftover-source"))
    return ValidityReport(valid=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# repair


def repair(tagged: TokenSeq, source: TokenSeq) -> TokenSeq:
    """Project arbitrary tagged output onto the valid set.

    Greedy left-to-right: insertion content is kept verbatim; outside
    insertions the output replays source tokens in order, substituting the
    current source token for any mismatch; surplus tokens past the end of
    source are dropped and unconsumed source tokens are appended.  A tag the
    grammar rejects is dropped, unless it opens the other kind of span: then
    the open span is closed first.  An open span at the end is closed, and a
    misplaced domain token is dropped.  ``source`` must hold no reserved
    token; given that, the output always validates, and valid input is
    returned unchanged.
    """
    out: TokenSeq = []
    mode = "plain"
    ptr = 0
    for i, tok in enumerate(tagged):
        if tok in TAG_TOKENS:
            nxt = NEXT_MODE.get((mode, tok))
            if nxt is None:
                nxt = OPENS.get(tok)
                if nxt is None or nxt == mode:
                    continue  # a stray closer or a redundant reopen
                out.append(CLOSER[mode])
            out.append(tok)
            mode = nxt
            continue
        if is_domain_token(tok):
            if i == 0:
                out.append(tok)
            continue
        if mode == "ins":
            out.append(tok)
            continue
        # plain or del: consume source in order
        if ptr < len(source):
            out.append(source[ptr])
            ptr += 1
        # surplus beyond source length dropped
    if mode != "plain":
        out.append(CLOSER[mode])
    out.extend(source[ptr:])
    return out


# ---------------------------------------------------------------------------
# character view


def to_char_view(tagged: TokenSeq) -> TokenSeq:
    """Explode word tokens to characters, joining top-level tokens with ␣.

    Tag and domain tokens stay atomic.  A word containing the delimiter
    character is rejected.
    """
    parse_spans(tagged)  # structural check
    groups: list[list[str]] = []
    for tok in tagged:
        if is_reserved_token(tok):
            groups.append([tok])
        else:
            if CHAR_DELIM in tok:
                raise ValueError(f"token contains the delimiter character: {tok!r}")
            groups.append(list(tok))
    out: TokenSeq = []
    for k, group in enumerate(groups):
        if k:
            out.append(CHAR_DELIM)
        out.extend(group)
    return out


def from_char_view(chars: TokenSeq) -> TokenSeq:
    """Invert ``to_char_view``: group runs between delimiters back to tokens.

    A run is either a single reserved token or a string of characters; a
    reserved token adjacent to characters without a delimiter is an error.
    Empty runs are skipped.
    """
    out: TokenSeq = []
    run: list[str] = []

    def flush() -> None:
        if not run:
            return
        reserved = [t for t in run if is_reserved_token(t)]
        if reserved:
            if len(run) > 1:
                raise ValueError(f"reserved token not delimited: {run!r}")
            out.append(run[0])
        else:
            out.append("".join(run))
        run.clear()

    for tok in chars:
        if tok == CHAR_DELIM:
            flush()
        else:
            run.append(tok)
    flush()
    return out
