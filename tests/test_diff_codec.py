from __future__ import annotations

import difflib
import random

import pytest
from hypothesis import given, settings, strategies as st

from gecdiff.diff_codec import (
    CHAR_DELIM,
    MalformedTagsError,
    ValidityReport,
    Violation,
    encode_diffs,
    from_char_view,
    parse_spans,
    prepend_domain,
    repair,
    split_domain,
    strip_to_source,
    strip_to_target,
    to_char_view,
    validate_tagged,
)
from gecdiff.text_norm import (
    DEL_CLOSE,
    DEL_OPEN,
    INS_CLOSE,
    INS_OPEN,
    is_domain_token,
    is_reserved_token,
)

SRC = ["the", "cat", "sat"]


class TestEncode:
    def test_identity_pair_has_no_tags(self):
        assert encode_diffs(SRC, SRC) == SRC

    def test_replacement_is_del_then_ins(self):
        tagged = encode_diffs(["a", "b", "c"], ["a", "x", "c"])
        assert tagged == ["a", DEL_OPEN, "b", DEL_CLOSE, INS_OPEN, "x", INS_CLOSE, "c"]

    def test_pure_insert_and_delete(self):
        assert encode_diffs(["a", "b"], ["a"]) == ["a", DEL_OPEN, "b", DEL_CLOSE]
        assert encode_diffs(["a"], ["a", "b"]) == ["a", INS_OPEN, "b", INS_CLOSE]

    def test_empty_sides(self):
        assert encode_diffs([], ["x"]) == [INS_OPEN, "x", INS_CLOSE]
        assert encode_diffs(["x"], []) == [DEL_OPEN, "x", DEL_CLOSE]
        assert encode_diffs([], []) == []

    def test_rejects_reserved_input(self):
        with pytest.raises(ValueError) as err:
            encode_diffs(["a", DEL_OPEN], ["a"])
        assert "source" in str(err.value) and "1" in str(err.value)
        with pytest.raises(ValueError):
            encode_diffs(["a"], ["<dom:x>", "a"])


class TestStrip:
    def test_round_trip(self):
        s = ["the", "dog", "barked", "."]
        t = ["a", "dog", "barks", "."]
        tagged = encode_diffs(s, t)
        assert strip_to_target(tagged) == t
        assert strip_to_source(tagged) == s

    def test_strip_rejects_malformed(self):
        with pytest.raises(MalformedTagsError):
            strip_to_target([DEL_OPEN, "a"])


class TestParseSpans:
    def test_segments(self):
        tagged = ["a", DEL_OPEN, "b", DEL_CLOSE, INS_OPEN, "c", INS_CLOSE]
        assert parse_spans(tagged) == [
            ("plain", ["a"]),
            ("del", ["b"]),
            ("ins", ["c"]),
        ]

    def test_domain_only_at_front(self):
        spans = parse_spans(["<dom:cs>", "a"])
        assert spans[0] == ("dom", ["<dom:cs>"])
        with pytest.raises(MalformedTagsError):
            parse_spans(["a", "<dom:cs>"])

    @pytest.mark.parametrize(
        "bad",
        [
            [DEL_OPEN, "a"],  # unclosed
            [DEL_CLOSE],  # unmatched closer
            [DEL_OPEN, INS_OPEN, "a", INS_CLOSE, DEL_CLOSE],  # nesting
            [INS_OPEN, DEL_CLOSE],  # crossed pair
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(MalformedTagsError):
            parse_spans(bad)


def test_domain_helpers():
    tagged = prepend_domain(["a", "b"], "physics")
    assert tagged[0] == "<dom:physics>"
    name, rest = split_domain(tagged)
    assert name == "physics" and rest == ["a", "b"]
    assert split_domain(["a"]) == (None, ["a"])
    with pytest.raises(ValueError):
        prepend_domain(tagged, "again")


class TestValidate:
    def test_valid_encode_output(self):
        t = encode_diffs(SRC, ["the", "dog", "sat"])
        report = validate_tagged(t, SRC)
        assert report.valid and report.violations == ()

    def test_empty_spans_are_valid(self):
        assert validate_tagged([DEL_OPEN, DEL_CLOSE, "the", "cat", "sat"], SRC).valid

    def test_unbalanced(self):
        report = validate_tagged(["the", DEL_OPEN, "cat", "sat"], SRC)
        kinds = [v.kind for v in report.violations]
        assert "unbalanced-tag" in kinds

    def test_out_of_source_token(self):
        report = validate_tagged(["the", "dog", "cat", "sat"], SRC)
        assert not report.valid
        v = report.violations[0]
        assert v.kind == "out-of-source-token" and v.position == 1

    def test_source_order_violation(self):
        report = validate_tagged(["cat", "the", "sat"], SRC)
        assert report.violations[0].kind == "source-order-violation"

    def test_leftover_source(self):
        report = validate_tagged(["the"], SRC)
        assert [v.kind for v in report.violations] == ["leftover-source"]
        assert report.violations[0].position == 1

    def test_insert_content_is_free(self):
        tagged = ["the", INS_OPEN, "zebra", "xylophone", INS_CLOSE, "cat", "sat"]
        assert validate_tagged(tagged, SRC).valid


def oracle_validate_tagged(tagged, source):
    """``validate_tagged`` with the per-token ``tok in source[ptr + 1:]`` scan."""
    violations = []
    mode = "plain"
    ptr = 0  # next source token expected
    for i, tok in enumerate(tagged):
        if is_domain_token(tok):
            if i != 0:
                violations.append(Violation(i, "unbalanced-tag"))
            continue
        if tok in (DEL_OPEN, INS_OPEN):
            want = "del" if tok == DEL_OPEN else "ins"
            if mode != "plain":
                violations.append(Violation(i, "unbalanced-tag"))
            else:
                mode = want
            continue
        if tok in (DEL_CLOSE, INS_CLOSE):
            want = "del" if tok == DEL_CLOSE else "ins"
            if mode != want:
                violations.append(Violation(i, "unbalanced-tag"))
            else:
                mode = "plain"
            continue
        if mode == "ins":
            continue  # insertion content is free
        # Outside insertions the stream must replay source in order.
        if ptr < len(source) and tok == source[ptr]:
            ptr += 1
        elif tok in source[ptr + 1 :]:
            violations.append(Violation(i, "source-order-violation"))
        else:
            violations.append(Violation(i, "out-of-source-token"))
    if mode != "plain":
        violations.append(Violation(len(tagged), "unbalanced-tag"))
    if ptr < len(source):
        violations.append(Violation(len(tagged), "leftover-source"))
    return ValidityReport(valid=not violations, violations=tuple(violations))


def test_validate_matches_scanning_oracle():
    rng = random.Random(2024)
    words = ["a", "b", "c", "d", "e", "f"]
    pool = words + ["zz", DEL_OPEN, DEL_CLOSE, INS_OPEN, INS_CLOSE, "<dom:x>"]
    cases = []
    for _ in range(3000):
        source = [rng.choice(words) for _ in range(rng.randint(0, 12))]
        target = [rng.choice(words) for _ in range(rng.randint(0, 12))]
        tagged = encode_diffs(source, target)
        for _ in range(rng.randint(0, 4)):  # corrupt the valid encoding
            pos = rng.randint(0, len(tagged))
            if tagged and rng.random() < 0.5:
                del tagged[min(pos, len(tagged) - 1)]
            else:
                tagged.insert(pos, rng.choice(pool))
        cases.append((tagged, source))
        cases.append(([rng.choice(pool) for _ in range(rng.randint(0, 16))], source))
    # long lines where nearly every token is off track
    for n in (500, 2000):
        source = [f"w{rng.randrange(n // 4)}" for _ in range(n)]
        cases.append((source[::-1], source))
        cases.append((rng.sample(source, n), source))
        cases.append((source[1:] + ["<none>"] * n, source))
        cases.append(([DEL_OPEN] + source[::2] + [DEL_CLOSE] + source[::-3], source))
    for tagged, source in cases:
        assert validate_tagged(tagged, source) == oracle_validate_tagged(tagged, source)


class TestRepair:
    def test_identity_on_valid(self):
        t = encode_diffs(SRC, ["the", "dog"])
        assert repair(t, SRC) == t
        empty_span = [DEL_OPEN, DEL_CLOSE] + SRC
        assert repair(empty_span, SRC) == empty_span

    def test_wrong_words_projected_onto_source(self):
        assert repair(["foo", "bar", "baz"], SRC) == SRC

    def test_surplus_dropped_and_missing_appended(self):
        assert repair(["a", "b", "c", "d"], ["x", "y"]) == ["x", "y"]
        assert repair(["the"], SRC) == SRC

    def test_insert_content_verbatim(self):
        tagged = [INS_OPEN, "whatever", INS_CLOSE] + SRC
        assert repair(tagged, SRC) == tagged

    def test_unmatched_closer_dropped(self):
        assert repair([DEL_CLOSE, "the", "cat", "sat"], SRC) == SRC

    def test_open_span_closed_at_end(self):
        out = repair(["the", "cat", DEL_OPEN, "sat"], SRC)
        assert out == ["the", "cat", DEL_OPEN, "sat", DEL_CLOSE]
        assert validate_tagged(out, SRC).valid

    def test_redundant_reopen_merged(self):
        tagged = [DEL_OPEN, "the", DEL_OPEN, "cat", DEL_CLOSE, "sat"]
        out = repair(tagged, SRC)
        assert out == [DEL_OPEN, "the", "cat", DEL_CLOSE, "sat"]

    def test_switch_closes_previous_span(self):
        tagged = [DEL_OPEN, "the", INS_OPEN, "x", INS_CLOSE, "cat", "sat"]
        out = repair(tagged, SRC)
        assert validate_tagged(out, SRC).valid
        assert out[:4] == [DEL_OPEN, "the", DEL_CLOSE, INS_OPEN]

    def test_misplaced_domain_dropped(self):
        out = repair(["the", "<dom:cs>", "cat", "sat"], SRC)
        assert out == SRC
        kept = repair(["<dom:cs>", "the", "cat", "sat"], SRC)
        assert kept[0] == "<dom:cs>"

    def test_idempotent_on_garbage(self):
        garbage = [DEL_CLOSE, "zzz", INS_OPEN, "q", DEL_OPEN, "cat", "cat"]
        once = repair(garbage, SRC)
        assert repair(once, SRC) == once
        assert validate_tagged(once, SRC).valid


class TestCharView:
    def test_explodes_words_keeps_tags(self):
        # delimiter between every adjacent pair of top-level tokens
        tagged = ["ab", INS_OPEN, "c", INS_CLOSE]
        chars = to_char_view(tagged)
        assert chars == [
            "a", "b", CHAR_DELIM, INS_OPEN, CHAR_DELIM, "c", CHAR_DELIM, INS_CLOSE,
        ]

    def test_round_trip(self):
        tagged = encode_diffs(["ab", "cd"], ["ab", "ce"])
        assert from_char_view(to_char_view(tagged)) == tagged

    def test_delimiter_in_word_rejected(self):
        with pytest.raises(ValueError):
            to_char_view([f"a{CHAR_DELIM}b"])

    def test_mixed_run_rejected(self):
        with pytest.raises(ValueError):
            from_char_view(["a", DEL_OPEN])

    def test_delimiter_only_collapses(self):
        assert from_char_view([CHAR_DELIM]) == []
        assert from_char_view(["a", CHAR_DELIM, "b"]) == ["a", "b"]


WORDS = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=10)


@given(WORDS, WORDS)
def test_encode_round_trip_property(s, t):
    tagged = encode_diffs(s, t)
    assert strip_to_target(tagged) == t
    assert strip_to_source(tagged) == s
    assert validate_tagged(tagged, s).valid


TOKEN_POOL = ["a", "b", "c", DEL_OPEN, DEL_CLOSE, INS_OPEN, INS_CLOSE, "<dom:x>"]


@settings(max_examples=300)
@given(st.lists(st.sampled_from(TOKEN_POOL), max_size=12), WORDS)
def test_repair_soundness_property(stream, source):
    fixed = repair(stream, source)
    assert validate_tagged(fixed, source).valid
    assert repair(fixed, source) == fixed


# ---------------------------------------------------------------------------
# encode_diffs and parse_spans as they were before their fast paths (equal
# sides skip difflib, untagged sequences skip the span scan), kept verbatim.


def oracle_encode_diffs(source, target):
    for name, seq in (("source", source), ("target", target)):
        for i, tok in enumerate(seq):
            if is_reserved_token(tok):
                raise ValueError(f"reserved token in {name} at position {i}: {tok!r}")
    matcher = difflib.SequenceMatcher(a=source, b=target, autojunk=False)
    out = []
    for op, i1, i2, j1, j2 in matcher.get_opcodes():
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


def oracle_parse_spans(tagged):
    segments = []
    mode = "plain"
    span = []
    plain = []

    def flush_plain():
        if plain:
            segments.append(("plain", list(plain)))
            plain.clear()

    for i, tok in enumerate(tagged):
        if is_domain_token(tok):
            if i != 0:
                raise MalformedTagsError(f"domain token not at position 0 (position {i})")
            segments.append(("dom", [tok]))
        elif tok in (DEL_OPEN, INS_OPEN):
            if mode != "plain":
                raise MalformedTagsError(f"nested tag {tok} at position {i}")
            flush_plain()
            mode = "del" if tok == DEL_OPEN else "ins"
        elif tok in (DEL_CLOSE, INS_CLOSE):
            want = "del" if tok == DEL_CLOSE else "ins"
            if mode != want:
                raise MalformedTagsError(f"unmatched {tok} at position {i}")
            segments.append((mode, list(span)))
            span.clear()
            mode = "plain"
        elif mode == "plain":
            plain.append(tok)
        else:
            span.append(tok)
    if mode != "plain":
        raise MalformedTagsError(f"unclosed <{mode}> span at end of sequence")
    flush_plain()
    return segments


def oracle_repair(tagged, source):
    """``repair`` as it was before the span grammar table, kept verbatim."""
    out = []
    mode = "plain"
    ptr = 0

    def close_open_span():
        nonlocal mode
        if mode == "del":
            out.append(DEL_CLOSE)
        elif mode == "ins":
            out.append(INS_CLOSE)
        mode = "plain"

    for i, tok in enumerate(tagged):
        if is_domain_token(tok):
            if i == 0:
                out.append(tok)
            continue
        if tok in (DEL_OPEN, INS_OPEN):
            want = "del" if tok == DEL_OPEN else "ins"
            if mode == want:
                continue  # redundant reopen
            close_open_span()
            out.append(tok)
            mode = want
            continue
        if tok in (DEL_CLOSE, INS_CLOSE):
            want = "del" if tok == DEL_CLOSE else "ins"
            if mode == want:
                out.append(tok)
                mode = "plain"
            continue  # unmatched closer dropped
        if mode == "ins":
            out.append(tok)
            continue
        # plain or del: consume source in order
        if ptr < len(source):
            out.append(source[ptr])
            ptr += 1
        # surplus beyond source length dropped
    close_open_span()
    if ptr < len(source):
        out.extend(source[ptr:])
    return out


def oracle_strip(tagged, keep):
    out = []
    for kind, tokens in oracle_parse_spans(tagged):
        if kind in ("plain", keep):
            out.extend(tokens)
    return out


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


LOOKALIKES = ["<dom:>", "<dom:a>b>", "##<del>", "####<ins>", "x'", "'tis", "''", "[<ins>]"]
RESERVED = [DEL_OPEN, DEL_CLOSE, INS_OPEN, INS_CLOSE, "<dom:x>"]


def test_encode_diffs_matches_oracle_on_seeded_fuzz():
    rng = random.Random(2017)
    vocab = ["a", "b", "c", "d"] + LOOKALIKES
    for n in range(6_000):
        src = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
        if n % 2:
            tgt = list(src)  # about half the pairs, as in a training corpus
        else:
            tgt = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
        if n % 50 == 0:
            # a reserved token on either side, or both sides when they are equal
            side = tgt if n % 100 else src
            side.insert(rng.randint(0, len(side)), rng.choice(RESERVED))
            if n % 200 == 0:
                tgt = list(src)
        want = outcome(oracle_encode_diffs, src, tgt)
        for s, t in ((src, tgt), (tuple(src), tuple(tgt)), (src, tuple(tgt)), (tuple(src), tgt)):
            got = outcome(encode_diffs, s, t)
            assert got == want, (s, t)
            if got[0] == "ok":
                assert type(got[1]) is list


def test_encode_diffs_identical_pair_with_reserved_token_raises():
    for tok in RESERVED:
        for seq in (["a", tok], (tok,), ["a", "b", tok, "c"]):
            with pytest.raises(ValueError, match="reserved token in source at position "):
                encode_diffs(seq, list(seq))
    assert encode_diffs(["a", "b"], ("a", "b")) == ["a", "b"]
    assert encode_diffs((), []) == []


def test_parse_spans_matches_oracle_on_seeded_fuzz():
    rng = random.Random(31)
    pool = ["a", "b"] + LOOKALIKES + RESERVED
    cases = [[], ["a"], LOOKALIKES, ["<dom:x>"], ["<dom:>", "a"]]
    for n in range(6_000):
        # every third sequence untagged, the rest with tags anywhere
        vocab = pool[: 2 + len(LOOKALIKES)] if n % 3 == 0 else pool
        cases.append([rng.choice(vocab) for _ in range(rng.randint(0, 9))])
    for tagged in cases:
        for seq in (tagged, tuple(tagged)):
            assert outcome(parse_spans, seq) == outcome(oracle_parse_spans, seq), seq


def test_grammar_consumers_match_oracles_with_every_reserved_token_everywhere():
    # Each reserved token at each position of valid encodings, alone and
    # after a second random fault, as a list and as a tuple: parse errors,
    # segments, strips, violations and repairs all match the hand-written
    # ladders the grammar table replaced.
    rng = random.Random(10)
    words = ["a", "b", "c", "d"]
    cases = []
    for _ in range(150):
        source = [rng.choice(words) for _ in range(rng.randint(0, 6))]
        target = [rng.choice(words) for _ in range(rng.randint(0, 6))]
        base = encode_diffs(source, target)
        if rng.random() < 0.5:  # a second fault anywhere
            base.insert(rng.randint(0, len(base)), rng.choice(RESERVED + words))
        for tok in RESERVED:
            for pos in range(len(base) + 1):
                cases.append((base[:pos] + [tok] + base[pos:], source))
    for tagged, source in cases:
        want_spans = outcome(oracle_parse_spans, tagged)
        want_target = outcome(oracle_strip, tagged, "ins")
        want_source = outcome(oracle_strip, tagged, "del")
        want_report = oracle_validate_tagged(tagged, source)
        want_repair = oracle_repair(tagged, source)
        for seq, src in ((tagged, source), (tuple(tagged), tuple(source))):
            assert outcome(parse_spans, seq) == want_spans, seq
            assert outcome(strip_to_target, seq) == want_target, seq
            assert outcome(strip_to_source, seq) == want_source, seq
            assert validate_tagged(seq, src) == want_report, seq
            assert repair(seq, src) == want_repair, seq
