from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from gecdiff.diff_codec import encode_diffs, validate_tagged
from gecdiff.edit_extract import (
    AlignOp,
    AlignmentOps,
    Edit,
    _window_edit,
    check_edits,
    edits_from_tagged,
    lattice_arcs,
    levenshtein_align,
    pair_edits,
)
from gecdiff.text_norm import DEL_CLOSE, DEL_OPEN, INS_CLOSE, INS_OPEN


# ---------------------------------------------------------------------------
# Edit helpers no library code calls, kept as test oracles: the M2 tests
# build hypotheses with apply_edits, and every edit extract_edits groups off
# an alignment must be one of its lattice arcs.


def apply_edits(source, edits):
    """Apply a valid EditSet left to right."""
    check_edits(edits, source)
    out = []
    pos = 0
    for e in edits:
        out.extend(source[pos : e.start])
        out.extend(e.replacement)
        pos = e.end
    out.extend(source[pos:])
    return out


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


def naive_distance(s, t):
    # independent forward DP, plain recurrence
    prev = list(range(len(t) + 1))
    for i in range(1, len(s) + 1):
        cur = [i] + [0] * len(t)
        for j in range(1, len(t) + 1):
            sub = prev[j - 1] + (s[i - 1] != t[j - 1])
            cur[j] = min(sub, prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[len(t)]


class TestEdit:
    def test_kinds(self):
        assert Edit(1, 2, ("a",), ()).kind == "delete"
        assert Edit(1, 1, (), ("a",)).kind == "insert"
        assert Edit(1, 2, ("a",), ("b",)).kind == "replace"

    def test_rejects_empty_both_sides(self):
        with pytest.raises(ValueError):
            Edit(1, 1, (), ())

    def test_rejects_span_content_mismatch(self):
        with pytest.raises(ValueError):
            Edit(0, 2, ("a",), ("b",))

    def test_ordering_by_position(self):
        a = Edit(0, 1, ("x",), ())
        b = Edit(2, 2, (), ("y",))
        assert sorted([b, a]) == [a, b]


class TestCheckEdits:
    def test_accepts_disjoint_sorted(self):
        src = ["a", "b", "c"]
        edits = [Edit(0, 1, ("a",), ("x",)), Edit(2, 3, ("c",), ())]
        check_edits(edits, src)

    def test_rejects_content_mismatch(self):
        with pytest.raises(ValueError):
            check_edits([Edit(0, 1, ("z",), ())], ["a"])

    def test_rejects_overlap(self):
        src = ["a", "b"]
        with pytest.raises(ValueError):
            check_edits(
                [Edit(0, 2, ("a", "b"), ()), Edit(1, 2, ("b",), ("x",))], src
            )

    def test_two_inserts_same_position_overlap(self):
        with pytest.raises(ValueError):
            check_edits(
                [Edit(1, 1, (), ("x",)), Edit(1, 1, (), ("y",))], ["a", "b"]
            )

    def test_rejects_unsorted(self):
        src = ["a", "b", "c"]
        with pytest.raises(ValueError):
            check_edits([Edit(2, 3, ("c",), ()), Edit(0, 1, ("a",), ())], src)


def test_apply_edits():
    src = ["the", "cat", "sat"]
    edits = [
        Edit(0, 1, ("the",), ("a",)),
        Edit(2, 3, ("sat",), ("slept", "soundly")),
    ]
    assert apply_edits(src, edits) == ["a", "cat", "slept", "soundly"]


class TestAlign:
    def test_equal_sequences(self):
        al = levenshtein_align(["a", "b"], ["a", "b"])
        assert [op.kind for op in al.ops] == ["equal", "equal"]
        assert al.distance() == 0

    def test_distance_matches_naive_oracle_cases(self):
        cases = [
            (["a", "b", "c"], ["a", "x", "c"]),
            ([], ["a", "b"]),
            (["a", "b"], []),
            (["a", "b", "a", "b"], ["b", "a", "b", "a"]),
            (["x"] * 5, ["y"] * 3),
        ]
        for s, t in cases:
            assert levenshtein_align(s, t).distance() == naive_distance(s, t)

    def test_ops_transform_source_to_target(self):
        s, t = ["a", "b", "c", "d"], ["b", "c", "x", "d", "e"]
        al = levenshtein_align(s, t)
        out = []
        for op in al.ops:
            if op.kind in ("equal", "insert", "substitute"):
                out.extend(t[op.k : op.l])
        assert out == t


WORDS = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=9)


@given(WORDS, WORDS)
def test_align_distance_property(s, t):
    al = levenshtein_align(s, t)
    assert al.distance() == naive_distance(s, t)
    # ops tile both sequences
    assert [tok for op in al.ops for tok in s[op.i : op.j]] == s
    assert [tok for op in al.ops for tok in t[op.k : op.l]] == t


class TestExtractEdits:
    def test_single_substitution(self):
        al = levenshtein_align(["a", "b", "c"], ["a", "x", "c"])
        assert extract_edits(al) == [Edit(1, 2, ("b",), ("x",))]

    def test_merges_across_small_gaps(self):
        # two changes separated by one equal token merge at max_unchanged>=1
        s = ["a", "b", "c", "d", "e"]
        t = ["a", "X", "c", "Y", "e"]
        al = levenshtein_align(s, t)
        merged = extract_edits(al, max_unchanged=1)
        assert merged == [Edit(1, 4, ("b", "c", "d"), ("X", "c", "Y"))]
        split = extract_edits(al, max_unchanged=0)
        assert split == [
            Edit(1, 2, ("b",), ("X",)),
            Edit(3, 4, ("d",), ("Y",)),
        ]

    def test_gap_budget_is_total_not_per_gap(self):
        s = ["a", "b", "c", "d", "e", "f", "g"]
        t = ["a", "X", "c", "Y", "e", "Z", "g"]
        al = levenshtein_align(s, t)
        # two interior equals within budget 2: single merged edit
        assert len(extract_edits(al, max_unchanged=2)) == 1
        # budget 1 cannot span both gaps
        assert len(extract_edits(al, max_unchanged=1)) == 2

    @given(WORDS, WORDS)
    def test_apply_equivalence(self, s, t):
        al = levenshtein_align(s, t)
        for mu in (0, 1, 2):
            edits = extract_edits(al, max_unchanged=mu)
            check_edits(edits, s)
            assert apply_edits(s, edits) == t


class TestEditsFromTagged:
    def test_replacement_pairs_up(self):
        tagged = ["a", DEL_OPEN, "b", DEL_CLOSE, INS_OPEN, "x", "y", INS_CLOSE, "c"]
        assert edits_from_tagged(tagged) == [Edit(1, 2, ("b",), ("x", "y"))]

    def test_lone_spans(self):
        tagged = [DEL_OPEN, "a", DEL_CLOSE, "b", INS_OPEN, "z", INS_CLOSE]
        assert edits_from_tagged(tagged) == [
            Edit(0, 1, ("a",), ()),
            Edit(2, 2, (), ("z",)),
        ]

    def test_adjacent_inserts_merge(self):
        tagged = ["a", INS_OPEN, "x", INS_CLOSE, INS_OPEN, "y", INS_CLOSE]
        assert edits_from_tagged(tagged) == [Edit(1, 1, (), ("x", "y"))]

    def test_empty_span_between_inserts_merges(self):
        # an empty span between two ins spans, a del one included, leaves one
        # insertion; check_edits rejects two at one position
        rng = random.Random(19)
        for _ in range(200):
            source = [rng.choice("abc") for _ in range(rng.randint(1, 5))]
            at = rng.randint(0, len(source))
            first = [rng.choice("xy") for _ in range(rng.randint(1, 3))]
            second = [rng.choice("xy") for _ in range(rng.randint(1, 3))]
            empty = rng.choice(([DEL_OPEN, DEL_CLOSE], [INS_OPEN, INS_CLOSE], []))
            tagged = [
                *source[:at], INS_OPEN, *first, INS_CLOSE, *empty,
                INS_OPEN, *second, INS_CLOSE, *source[at:],
            ]
            assert validate_tagged(tagged, source).valid
            edits = edits_from_tagged(tagged)
            assert edits == [Edit(at, at, (), tuple(first + second))]
            check_edits(edits, source)

    def test_empty_spans_carry_no_insert_forward(self):
        tagged = [
            "a", INS_OPEN, "x", INS_CLOSE, "b",
            DEL_OPEN, DEL_CLOSE, INS_OPEN, INS_CLOSE, INS_OPEN, "y", INS_CLOSE,
        ]
        assert validate_tagged(tagged, ["a", "b"]).valid
        assert edits_from_tagged(tagged) == [Edit(1, 1, (), ("x",)), Edit(2, 2, (), ("y",))]

    @given(WORDS, WORDS)
    def test_agrees_with_codec(self, s, t):
        edits = edits_from_tagged(encode_diffs(s, t))
        check_edits(edits, s)
        assert apply_edits(s, edits) == t


@st.composite
def token_pairs(draw):
    """A pair over 1 to 4 token types, so that difflib meets repeats and ties.

    One pair in four has identical sides.
    """
    words = st.lists(st.sampled_from("abcd"[: draw(st.integers(1, 4))]), max_size=12)
    source = draw(words)
    return source, list(source) if draw(st.integers(0, 3)) == 0 else draw(words)


class TestPairEdits:
    @settings(max_examples=500)
    @given(token_pairs())
    def test_equals_the_tagged_round_trip(self, pair):
        s, t = pair
        want = edits_from_tagged(encode_diffs(s, t))
        assert pair_edits(s, t) == want
        assert pair_edits(tuple(s), t) == want and pair_edits(s, tuple(t)) == want

    @pytest.mark.parametrize("tok", [DEL_OPEN, INS_CLOSE, "<dom:x>"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_reserved_token_raises_as_the_codec(self, tok, side):
        pair = [["a", "b"], ["a", "c"]]
        pair[side] = ["a", tok]
        with pytest.raises(ValueError) as want:
            encode_diffs(*pair)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            pair_edits(*pair)


class TestLatticeArcs:
    def test_contains_minimal_arcs(self):
        s, t = ["a", "b", "c"], ["a", "x", "c"]
        arcs = lattice_arcs(levenshtein_align(s, t))
        edits = [a.edit for a in arcs]
        assert Edit(1, 2, ("b",), ("x",)) in edits

    def test_window_growth_with_budget(self):
        s = ["a", "b", "c", "d", "e"]
        t = ["a", "X", "c", "Y", "e"]
        al = levenshtein_align(s, t)
        small = {((a.lo, a.hi)) for a in lattice_arcs(al, max_unchanged=0)}
        big = {((a.lo, a.hi)) for a in lattice_arcs(al, max_unchanged=2)}
        assert small < big
        assert Edit(1, 4, ("b", "c", "d"), ("X", "c", "Y")) in [
            a.edit for a in lattice_arcs(al, max_unchanged=2)
        ]

    @given(WORDS, WORDS)
    def test_arc_edits_are_individually_valid(self, s, t):
        al = levenshtein_align(s, t)
        for arc in lattice_arcs(al, max_unchanged=2):
            check_edits([arc.edit], s)

    @given(WORDS, WORDS)
    def test_arcs_superset_of_extracted(self, s, t):
        al = levenshtein_align(s, t)
        arc_edits = [a.edit for a in lattice_arcs(al, max_unchanged=2)]
        for e in extract_edits(al, max_unchanged=0):
            assert e in arc_edits


# ---------------------------------------------------------------------------
# levenshtein_align against the full-table version it replaced


def oracle_levenshtein_align(s, t):
    """The full-DP alignment, kept verbatim as the reference."""
    ns, nt = len(s), len(t)
    # dist[i][j] = edit distance between s[i:] and t[j:]
    dist = [[0] * (nt + 1) for _ in range(ns + 1)]
    for i in range(ns + 1):
        dist[i][nt] = ns - i
    for j in range(nt + 1):
        dist[ns][j] = nt - j
    for i in range(ns - 1, -1, -1):
        row = dist[i]
        below = dist[i + 1]
        for j in range(nt - 1, -1, -1):
            diag = below[j + 1] + (0 if s[i] == t[j] else 1)
            row[j] = min(diag, below[j] + 1, row[j + 1] + 1)
    ops: list[AlignOp] = []
    i = j = 0
    while i < ns or j < nt:
        if i < ns and j < nt:
            cost = 0 if s[i] == t[j] else 1
            if dist[i][j] == dist[i + 1][j + 1] + cost:
                ops.append(AlignOp("equal" if cost == 0 else "substitute", i, i + 1, j, j + 1))
                i += 1
                j += 1
                continue
        if i < ns and dist[i][j] == dist[i + 1][j] + 1:
            ops.append(AlignOp("delete", i, i + 1, j, j))
            i += 1
            continue
        ops.append(AlignOp("insert", i, i, j, j + 1))
        j += 1
    return AlignmentOps(tuple(s), tuple(t), tuple(ops))


def test_levenshtein_align_matches_full_table_oracle():
    # tie-heavy: two- and three-letter alphabets, repeats, shared prefixes
    rng = random.Random(20170601)
    cases = [([], []), ([], ["a"]), (["a"], []), (["a", "b"], ["a", "b"])]
    for _ in range(3000):
        alpha = ["a", "b", "c"][: rng.choice((2, 3))]
        s = [rng.choice(alpha) for _ in range(rng.randrange(9))]
        shape = rng.randrange(4)
        if shape == 0:  # equal sequences
            t = list(s)
        elif shape == 1:  # a shared prefix, then anything
            t = s[: rng.randrange(len(s) + 1)] + [rng.choice(alpha) for _ in range(rng.randrange(4))]
        elif shape == 2:  # a shared suffix
            t = [rng.choice(alpha) for _ in range(rng.randrange(4))] + s[rng.randrange(len(s) + 1) :]
        else:
            t = [rng.choice(alpha) for _ in range(rng.randrange(9))]
        if rng.random() < 0.5:
            s, t = t, s
        cases.append((s, t))
    for s, t in cases:
        assert levenshtein_align(s, t) == oracle_levenshtein_align(s, t), (s, t)


def test_levenshtein_align_keeps_the_leftmost_match_in_a_suffix_tie():
    # A common-suffix trim would align the kept "b" to the last source token
    # and delete the first one, which moves the M2 edit span to [0, 1).
    al = levenshtein_align(["b", "b"], ["b"])
    assert al.ops == (AlignOp("equal", 0, 1, 0, 1), AlignOp("delete", 1, 2, 1, 1))
    assert extract_edits(al) == [Edit(1, 2, ("b",), ())]
