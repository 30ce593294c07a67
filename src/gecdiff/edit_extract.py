"""Token alignment and span-edit extraction.

Edits are produced three ways: from a unit-cost Levenshtein alignment of two
token sequences, directly from a diff-tagged sequence, or from the difflib
opcodes of a pair (``pair_edits``), which is what that pair's tagged encoding
parses to.  All yield sorted, non-overlapping ``Edit`` lists that reproduce
the target when applied to the source.  ``lattice_arcs`` additionally
enumerates every mergeable alignment window as an ``Edit``; the MaxMatch
scorer in ``metrics`` walks the same windows as integer spans instead of
building them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .diff_codec import pair_opcodes, parse_spans
from .text_norm import TokenSeq


class AlignOp(NamedTuple):
    kind: str  # equal | substitute | delete | insert
    i: int  # source span [i, j)
    j: int
    k: int  # target span [k, l)
    l: int


@dataclass(frozen=True)
class AlignmentOps:
    """Token-granular alignment; ops tile both sequences in order."""

    source: tuple[str, ...]
    target: tuple[str, ...]
    ops: tuple[AlignOp, ...]

    def distance(self) -> int:
        return sum(1 for op in self.ops if op.kind != "equal")


@dataclass(frozen=True, order=True)
class Edit:
    """A span edit: replace source[start:end] with ``replacement``.

    ``deleted`` carries the source-side content so an edit is self-contained;
    it must equal ``source[start:end]``.  ``error_type`` is the M2 type label
    of a gold edit; it takes no part in equality, ordering, hashing or repr.
    """

    start: int
    end: int
    deleted: tuple[str, ...]
    replacement: tuple[str, ...]
    error_type: str = field(default="UNK", compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"edit span reversed: [{self.start}, {self.end})")
        if len(self.deleted) != self.end - self.start:
            raise ValueError("deleted content length does not match span")
        if not self.deleted and not self.replacement:
            raise ValueError("edit with no effect")

    @property
    def kind(self) -> str:
        if self.start == self.end:
            return "insert"
        if not self.replacement:
            return "delete"
        return "replace"


def check_edits(edits: list[Edit], source: TokenSeq) -> None:
    """Validate EditSet invariants: sorted, non-overlapping, content-consistent.

    Two insertions at the same position count as overlapping (their apply
    order would be ambiguous).
    """
    prev: Edit | None = None
    for e in edits:
        if not (0 <= e.start <= e.end <= len(source)):
            raise ValueError(f"edit span out of range: {e}")
        if tuple(source[e.start : e.end]) != e.deleted:
            raise ValueError(f"edit content does not match source: {e}")
        if prev is not None:
            if (e.start, e.end) < (prev.start, prev.end):
                raise ValueError(f"edits out of order at {e}")
            if e.start < prev.end:
                raise ValueError(f"overlapping edits: {prev} / {e}")
            if prev.start == prev.end == e.start == e.end:
                raise ValueError(f"two insertions at position {e.start}")
        prev = e


def apply_edits(source: TokenSeq, edits: list[Edit]) -> TokenSeq:
    """Apply a valid EditSet left to right."""
    check_edits(edits, source)
    out: TokenSeq = []
    pos = 0
    for e in edits:
        out.extend(source[pos : e.start])
        out.extend(e.replacement)
        pos = e.end
    out.extend(source[pos:])
    return out


# ---------------------------------------------------------------------------
# alignment


def levenshtein_align(s: TokenSeq, t: TokenSeq) -> AlignmentOps:
    """Minimal unit-cost alignment with deterministic tie-breaking.

    Costs are 1 for substitute, delete, and insert.  Ties prefer substitute
    over delete over insert, resolved left to right.

    The shared prefix is emitted as ``equal`` ops without filling its DP
    cells: equal heads never change the distance, and the traceback takes
    the diagonal first, so this is exact.  The shared suffix is not trimmed:
    ``(["b", "b"], ["b"])`` aligns as ``equal`` then ``delete``, and a
    suffix trim would swap the two.
    """
    ns, nt = len(s), len(t)
    p = 0
    while p < ns and p < nt and s[p] == t[p]:
        p += 1
    ops: list[AlignOp] = [AlignOp("equal", i, i + 1, i, i + 1) for i in range(p)]
    # dist[i][j] = edit distance between s[p + i:] and t[p + j:]
    ms, mt = ns - p, nt - p
    a, b = s[p:], t[p:]
    dist = [[0] * (mt + 1) for _ in range(ms + 1)]
    dist[ms] = list(range(mt, -1, -1))
    for i in range(ms - 1, -1, -1):
        row = dist[i]
        below = dist[i + 1]
        ai = a[i]
        right = row[mt] = ms - i
        for j in range(mt - 1, -1, -1):
            d = below[j + 1]
            if ai != b[j]:
                d += 1
            x = below[j] + 1
            if x < d:
                d = x
            right += 1
            if right < d:
                d = right
            row[j] = right = d
    i = j = 0
    while i < ms or j < mt:
        if i < ms and j < mt:
            cost = 0 if a[i] == b[j] else 1
            if dist[i][j] == dist[i + 1][j + 1] + cost:
                kind = "equal" if cost == 0 else "substitute"
                ops.append(AlignOp(kind, p + i, p + i + 1, p + j, p + j + 1))
                i += 1
                j += 1
                continue
        if i < ms and dist[i][j] == dist[i + 1][j] + 1:
            ops.append(AlignOp("delete", p + i, p + i + 1, p + j, p + j))
            i += 1
            continue
        ops.append(AlignOp("insert", p + i, p + i, p + j, p + j + 1))
        j += 1
    return AlignmentOps(tuple(s), tuple(t), tuple(ops))


# ---------------------------------------------------------------------------
# edit extraction


def _window_edit(align: AlignmentOps, lo: int, hi: int) -> Edit:
    """Edit covering ops[lo:hi]; equal ops contribute to both sides."""
    ops = align.ops
    deleted: list[str] = []
    replacement: list[str] = []
    for op in ops[lo:hi]:
        deleted.extend(align.source[op.i : op.j])
        replacement.extend(align.target[op.k : op.l])
    return Edit(ops[lo].i, ops[hi - 1].j, tuple(deleted), tuple(replacement))


def extract_edits(align: AlignmentOps, max_unchanged: int = 2) -> list[Edit]:
    """Group non-equal ops into edits.

    Adjacent non-equal ops always merge; runs separated by equal tokens merge
    greedily while the merged edit holds at most ``max_unchanged`` unchanged
    tokens, which then become part of both sides of the edit.
    """
    if max_unchanged < 0:
        raise ValueError("max_unchanged must be >= 0")
    ops = align.ops
    edits: list[Edit] = []
    lo = None  # start of the current group
    hi = 0  # end (exclusive) of the last non-equal op in the group
    internal = 0  # equal tokens inside the current group
    gap = 0  # equal tokens since the last non-equal op
    for idx, op in enumerate(ops):
        if op.kind == "equal":
            gap += 1
            continue
        if lo is None:
            lo, hi, internal = idx, idx + 1, 0
        elif internal + gap <= max_unchanged:
            internal += gap
            hi = idx + 1
        else:
            edits.append(_window_edit(align, lo, hi))
            lo, hi, internal = idx, idx + 1, 0
        gap = 0
    if lo is not None:
        edits.append(_window_edit(align, lo, hi))
    return edits


def edits_from_tagged(tagged: TokenSeq) -> list[Edit]:
    """Read an EditSet straight off a well-formed tagged sequence.

    A ``<del>`` span becomes a delete edit, an ``<ins>`` span an insert, and
    a del span directly followed by an ins span a replace.  Ins spans at one
    position merge into a single insert, even with an empty span between.
    """
    edits: list[Edit] = []
    pos = 0
    pending: tuple[int, tuple[str, ...]] | None = None  # open delete (start, content)

    def flush() -> None:
        nonlocal pending
        if pending is not None:
            start, deleted = pending
            pending = None
            if deleted:  # empty del spans carry no edit
                edits.append(Edit(start, start + len(deleted), deleted, ()))

    for kind, tokens in parse_spans(tagged):
        if kind == "dom":
            continue
        if kind == "plain":
            flush()
            pos += len(tokens)
        elif kind == "del":
            flush()
            pending = (pos, tuple(tokens))
            pos += len(tokens)
        else:  # ins
            start, deleted = pending or (pos, ())
            pending = None
            if deleted:
                edits.append(Edit(start, pos, deleted, tuple(tokens)))
            elif not tokens:  # empty ins span carries no edit
                continue
            elif edits and edits[-1].start == pos:
                # an insert at pos, with only empty spans since: one insertion
                edits[-1] = Edit(pos, pos, (), edits[-1].replacement + tuple(tokens))
            else:
                edits.append(Edit(pos, pos, (), tuple(tokens)))
    flush()
    return edits


def pair_edits(source: TokenSeq, target: TokenSeq) -> list[Edit]:
    """The edits of a pair: one per non-equal opcode of ``pair_opcodes``.

    Equals ``edits_from_tagged(encode_diffs(source, target))``: difflib
    leaves no span empty and no two non-equal opcodes adjacent, so no two
    edits merge.
    """
    return [
        Edit(i1, i2, tuple(source[i1:i2]), tuple(target[j1:j2]))
        for op, i1, i2, j1, j2 in pair_opcodes(source, target)
        if op != "equal"
    ]


# ---------------------------------------------------------------------------
# MaxMatch candidate lattice


@dataclass(frozen=True)
class LatticeArc:
    """One candidate system edit covering the op window [lo, hi)."""

    lo: int
    hi: int
    edit: Edit


def lattice_arcs(align: AlignmentOps, max_unchanged: int = 2) -> list[LatticeArc]:
    """Enumerate every candidate edit window over the alignment.

    A window starts and ends with a non-equal op and holds at most
    ``max_unchanged`` equal tokens in between.  The arcs over any sentence
    cover each non-equal op, so a full consistent selection always exists.
    """
    if max_unchanged < 0:
        raise ValueError("max_unchanged must be >= 0")
    ops = align.ops
    arcs: list[LatticeArc] = []
    for lo, op in enumerate(ops):
        if op.kind == "equal":
            continue
        internal = 0
        for hi in range(lo + 1, len(ops) + 1):
            last = ops[hi - 1]
            if last.kind == "equal":
                internal += 1
                if internal > max_unchanged:
                    break
                continue
            arcs.append(LatticeArc(lo, hi, _window_edit(align, lo, hi)))
    return arcs
