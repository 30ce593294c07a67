from __future__ import annotations

import json
import os
import random

import pytest

from gecdiff.corpus_io import (
    DEFAULT_COLLOQUIAL,
    LANG8_RULES,
    PRESETS,
    FilterReport,
    SentencePair,
    corpus_stats,
    filter_lang8,
    iter_lines,
    length_filter,
    load_m2_gold,
    load_parallel,
    read_lines,
    read_token_lines,
    write_m2_gold,
    write_parallel,
    write_token_lines,
)
from gecdiff.decode_bias import KBestRecord, read_kbest, write_kbest
from gecdiff.edit_extract import Edit
from gecdiff.metrics import GoldAnnotation
from gecdiff.reference_scorer import harvest, load_model, save_model, train_lm
from gecdiff.text_norm import domain_token, tokenize


def pair(src, tgt, **kw):
    return SentencePair(tuple(src.split()), tuple(tgt.split()), **kw)


class TestParallelFiles:
    def test_load_tokenizes_both_sides(self, tmp_path):
        (tmp_path / "s").write_text("Hello, world\nA cat.\n")
        (tmp_path / "t").write_text("Hello , world\nA dog.\n")
        pairs = load_parallel(str(tmp_path / "s"), str(tmp_path / "t"))
        assert pairs[0].source == ("Hello", ",", "world")
        assert pairs[0].target == ("Hello", ",", "world")
        assert pairs[1].target == ("A", "dog", ".")

    def test_line_count_mismatch_names_both_files(self, tmp_path):
        s, t, d = (str(tmp_path / name) for name in ("m.src", "m.tgt", "m.dom"))
        for name, text in ((s, "a\nb\n"), (t, "a\n"), (d, "x\ny\nz\n")):
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        with pytest.raises(ValueError) as err:
            load_parallel(s, t)
        assert str(err.value) == f"{s}:2: no line 2 in {t} ({s} has 2 lines, {t} has 1)"
        with pytest.raises(ValueError) as err:
            load_parallel(t, s)  # the longer file is named whichever side it is
        assert str(err.value) == f"{s}:2: no line 2 in {t} ({s} has 2 lines, {t} has 1)"
        with pytest.raises(ValueError) as err:
            load_parallel(s, s, d)
        assert str(err.value) == f"{d}:3: no line 3 in {s} ({d} has 3 lines, {s} has 2)"

    def test_domain_labels(self, tmp_path):
        (tmp_path / "s").write_text("a\n")
        (tmp_path / "t").write_text("b\n")
        (tmp_path / "d").write_text("physics\n")
        pairs = load_parallel(
            str(tmp_path / "s"), str(tmp_path / "t"), str(tmp_path / "d")
        )
        assert pairs[0].domain == "physics"

    def test_empty_domain_label_rejected(self, tmp_path):
        (tmp_path / "s").write_text("a\n")
        (tmp_path / "t").write_text("b\n")
        (tmp_path / "d").write_text("\n")
        with pytest.raises(ValueError) as err:
            load_parallel(str(tmp_path / "s"), str(tmp_path / "t"), str(tmp_path / "d"))
        assert ":1" in str(err.value)

    @pytest.mark.parametrize("label", ["web log", "x>y", "a\tb"])
    def test_invalid_domain_label_names_its_line(self, tmp_path, label):
        (tmp_path / "s").write_text("a\nb\n")
        (tmp_path / "t").write_text("a\nb\n")
        (tmp_path / "d").write_text(f"news\n{label}\n")
        with pytest.raises(ValueError) as err:
            load_parallel(str(tmp_path / "s"), str(tmp_path / "t"), str(tmp_path / "d"))
        assert str(err.value) == f"{tmp_path / 'd'}:2: invalid domain name: {label!r}"

    def test_write_round_trip(self, tmp_path):
        pairs = [pair("a b .", "a c .", domain="news"), pair("x ?", "y ?", domain="web")]
        write_parallel(
            str(tmp_path / "s"), str(tmp_path / "t"), pairs, str(tmp_path / "d")
        )
        back = load_parallel(
            str(tmp_path / "s"), str(tmp_path / "t"), str(tmp_path / "d")
        )
        assert back == pairs

    def test_write_domain_requires_labels(self, tmp_path):
        with pytest.raises(ValueError):
            write_parallel(
                str(tmp_path / "s"), str(tmp_path / "t"), [pair("a", "b")], str(tmp_path / "d")
            )

    def test_token_lines_round_trip(self, tmp_path):
        seqs = [["a", "b"], [], ["<del>", "x", "</del>"]]
        write_token_lines(str(tmp_path / "f"), seqs)
        assert read_token_lines(str(tmp_path / "f")) == seqs

    def test_pair_check_rejects_reserved(self):
        with pytest.raises(ValueError):
            pair("a <del> b", "a b").check()

    def test_report_check_reconciles(self):
        FilterReport(3, 2, {"x": 1}).check()
        with pytest.raises(ValueError):
            FilterReport(3, 2, {"x": 2}).check()


class TestLengthFilter:
    def test_word_caps_and_priority(self):
        pairs = [
            pair("a b c", "a b c"),
            pair("a b c d e", "a b c d e"),  # src over
            pair("a b", "a b c d e f"),  # tgt over after tagging
        ]
        kept, report = length_filter(pairs, src_max=4, tgt_max=6)
        assert kept == [pairs[0]]
        assert report.drops == {"src-too-long": 1, "tgt-too-long": 1}

    def test_tagged_target_measured_with_tags(self):
        # identity pair: tagged target == target, length 3
        p = pair("a b c", "a b c")
        kept, _ = length_filter([p], 10, 3)
        assert kept == [p]
        # a replacement carries both sides plus four tags: 3 + 1 + 4 = 8
        q = pair("a b c", "a x c")
        kept, report = length_filter([q], 10, 8)
        assert kept == [q]
        kept, report = length_filter([q], 10, 7)
        assert report.drops["tgt-too-long"] == 1

    def test_domain_grants_one_extra_slot(self):
        plain = pair("a b c d e", "a b c d e")
        tagged = pair("a b c d e", "a b c d e", domain="news")
        assert length_filter([plain], 4, 20)[0] == []
        assert length_filter([tagged], 4, 20)[0] == [tagged]

    def test_char_view_counts_joiners(self):
        # "ab c" viewed as characters: a b _ c = 4 slots
        p = pair("ab c", "ab c")
        assert length_filter([p], 4, 4, view="char")[0] == [p]
        assert length_filter([p], 3, 4, view="char")[1].drops["src-too-long"] == 1

    def test_char_view_counts_tags_once(self):
        # deletion: ab <del> cd </del> = 2 + 1 + 2 + 1 chars + 3 joiners
        p = pair("ab cd", "ab")
        kept, report = length_filter([p], 10, 9, view="char")
        assert kept == [p]
        _, report = length_filter([p], 10, 8, view="char")
        assert report.drops["tgt-too-long"] == 1

    def test_bad_caps_rejected(self):
        with pytest.raises(ValueError):
            length_filter([], 0, 5)

    def test_presets_table(self):
        assert PRESETS["conll"] == (79, 100, "word")
        assert PRESETS["aesw"] == (126, 126, "word")
        assert PRESETS["aesw-char"] == (421, 421, "char")


GOOD = pair("This is fine .", "This is fine .")


class TestLang8Filter:
    def test_keeps_clean_pair(self):
        kept, report = filter_lang8([GOOD])
        assert kept == [GOOD]
        assert report.retained == 1

    def test_duplicate(self):
        kept, report = filter_lang8([GOOD, GOOD])
        assert len(kept) == 1
        assert report.drops["duplicate"] == 1

    @pytest.mark.parametrize(
        "face", [":)", ":-(", ";D", "^_^", "^^", "<3", "<333", "T_T", "o_O", "xD", "X-D", "(:"]
    )
    def test_emoticons(self, face):
        p = pair("Hi there .", f"Hi there {face} .")
        _, report = filter_lang8([p])
        assert report.drops["emoticon"] == 1

    def test_plain_punctuation_is_not_a_face(self):
        p = pair("Wait ( here ) .", "Wait ( here ) .")
        kept, _ = filter_lang8([p])
        assert kept == [p]

    def test_colloquial_any_case(self):
        p = pair("That was LOL funny .", "That was LOL funny .")
        _, report = filter_lang8([p])
        assert report.drops["colloquial"] == 1
        assert "lol" in DEFAULT_COLLOQUIAL

    def test_custom_colloquial_list(self):
        p = pair("Totally rad .", "Totally rad .")
        _, report = filter_lang8([p], colloquial=frozenset({"rad"}))
        assert report.drops["colloquial"] == 1

    def test_non_ascii_checks_both_sides(self):
        p = pair("Café time .", "Cafe time .")
        _, report = filter_lang8([p])
        assert report.drops["non-ascii"] == 1

    def test_lowercase_start(self):
        p = pair("this is odd .", "this is odd .")
        _, report = filter_lang8([p])
        assert report.drops["lowercase-start"] == 1

    def test_ends_in_paren(self):
        p = pair("Fine ( really )", "Fine ( really )")
        _, report = filter_lang8([p])
        assert report.drops["ends-in-paren"] == 1

    def test_no_terminal_punct(self):
        p = pair("This trails off", "This trails off")
        _, report = filter_lang8([p])
        assert report.drops["no-terminal-punct"] == 1

    def test_first_matching_rule_charged(self):
        p = pair("so lol :)", "so lol :)")
        _, report = filter_lang8([p])
        assert report.drops["emoticon"] == 1
        assert report.drops["colloquial"] == 0

    def test_enabled_subset(self):
        p = pair("this is lol", "this is lol")
        kept, report = filter_lang8([p], enabled=("colloquial",))
        assert kept == []
        assert report.drops["colloquial"] == 1
        kept, _ = filter_lang8([p], enabled=())
        assert kept == [p]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError) as err:
            filter_lang8([], enabled=("sparkles",))
        assert "sparkles" in str(err.value)

    def test_conservation(self):
        pairs = [
            GOOD,
            GOOD,
            pair("Hi :) .", "Hi :) ."),
            pair("lol .", "lol ."),
            pair("ok", "ok"),
        ]
        kept, report = filter_lang8(pairs)
        report.check()
        assert report.input == 5
        assert report.retained == len(kept) == 1


M2_TEXT = """\
S the cat sat
A 1 1|||UNK|||big|||REQUIRED|||-NONE-|||0
A 2 3|||UNK|||slept||rested|||REQUIRED|||-NONE-|||1

S a b
A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||2

S no annotations
"""


class TestM2Gold:
    def test_load_basic(self, tmp_path):
        path = tmp_path / "gold.m2"
        path.write_text(M2_TEXT)
        anns = load_m2_gold(str(path))
        assert len(anns) == 3
        assert anns[0].source == ["the", "cat", "sat"]
        assert anns[0].annotators[0] == [Edit(1, 1, (), ("big",))]
        # first alternative wins
        assert anns[0].annotators[1] == [Edit(2, 3, ("sat",), ("slept",))]
        assert anns[1].annotators == {2: []}
        assert anns[2].annotators == {0: []}

    def test_deletion_replacement_spellings(self, tmp_path):
        path = tmp_path / "gold.m2"
        path.write_text(
            "S a b\n"
            "A 0 1|||UNK|||-NONE-|||REQUIRED|||-NONE-|||0\n"
            "A 1 2|||UNK||||||REQUIRED|||-NONE-|||0\n"
        )
        anns = load_m2_gold(str(path))
        assert anns[0].annotators[0] == [
            Edit(0, 1, ("a",), ()),
            Edit(1, 2, ("b",), ()),
        ]

    def test_bad_utf8_names_file_and_line(self, tmp_path):
        # lines are counted as text mode splits them: "\r\n" is one break
        path = tmp_path / "gold.m2"
        path.write_bytes(
            b"S a\r\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\r\n\r\nS b \xff c\r\n"
        )
        with pytest.raises(ValueError, match=r"gold\.m2:4: not valid UTF-8$"):
            load_m2_gold(str(path))
        with pytest.raises(ValueError, match=r"gold\.m2:4: not valid UTF-8$"):
            read_token_lines(str(path))

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "gold.m2"
        path.write_text("S a\nA 0 1|||UNK|||x|||REQUIRED|||-NONE-\n")
        with pytest.raises(ValueError) as err:
            load_m2_gold(str(path))
        assert ":2" in str(err.value) and "6 fields" in str(err.value)

    def test_bad_span_text(self, tmp_path):
        path = tmp_path / "gold.m2"
        path.write_text("S a\nA x y|||UNK|||b|||REQUIRED|||-NONE-|||0\n")
        with pytest.raises(ValueError) as err:
            load_m2_gold(str(path))
        assert "span" in str(err.value)

    def test_span_outside_source(self, tmp_path):
        path = tmp_path / "gold.m2"
        path.write_text("S a\nA 0 5|||UNK|||b|||REQUIRED|||-NONE-|||0\n")
        with pytest.raises(ValueError) as err:
            load_m2_gold(str(path))
        assert "outside source" in str(err.value)

    def test_a_line_without_s(self, tmp_path):
        path = tmp_path / "gold.m2"
        path.write_text("A 0 1|||UNK|||b|||REQUIRED|||-NONE-|||0\n")
        with pytest.raises(ValueError):
            load_m2_gold(str(path))

    def test_missing_blank_between_sentences(self, tmp_path):
        path = tmp_path / "gold.m2"
        path.write_text("S a\nS b\n")
        with pytest.raises(ValueError) as err:
            load_m2_gold(str(path))
        assert "blank" in str(err.value)

    def test_overlapping_edits_rejected(self, tmp_path):
        path = tmp_path / "gold.m2"
        path.write_text(
            "S a b c\n"
            "A 0 2|||UNK|||x|||REQUIRED|||-NONE-|||0\n"
            "A 1 3|||UNK|||y|||REQUIRED|||-NONE-|||0\n"
        )
        with pytest.raises(ValueError) as err:
            load_m2_gold(str(path))
        assert "annotator 0" in str(err.value)

    def test_round_trip(self, tmp_path):
        anns = [
            GoldAnnotation(
                ["the", "cat", "sat"],
                {
                    0: [Edit(1, 1, (), ("big",)), Edit(2, 3, ("sat",), ())],
                    3: [],
                },
            ),
            GoldAnnotation(["ok", "then"], {0: []}),
        ]
        path = str(tmp_path / "out.m2")
        write_m2_gold(path, anns)
        assert load_m2_gold(path) == anns

    def test_round_trip_keeps_error_types(self, tmp_path):
        text = (
            "S The cat sat on mat\n"
            "A 1 2|||R:NOUN|||dog|||REQUIRED|||-NONE-|||0\n"
            "A 4 4|||M:DET|||the|||REQUIRED|||-NONE-|||0\n"
            "A 2 3|||R:VERB:SVA|||sits|||REQUIRED|||-NONE-|||1\n"
            "A 3 4|||U:PREP||||||REQUIRED|||-NONE-|||1\n"
        )
        path = tmp_path / "in.m2"
        path.write_text(text)
        anns = load_m2_gold(str(path))
        types = {a: [e.error_type for e in es] for a, es in anns[0].annotators.items()}
        assert types == {0: ["R:NOUN", "M:DET"], 1: ["R:VERB:SVA", "U:PREP"]}
        out = tmp_path / "out.m2"
        write_m2_gold(str(out), anns)
        assert out.read_text() == text
        assert load_m2_gold(str(out)) == anns

    def test_error_type_takes_no_part_in_equality(self):
        typed = Edit(1, 2, ("cat",), ("dog",), "R:NOUN")
        plain = Edit(1, 2, ("cat",), ("dog",))
        assert plain.error_type == "UNK"
        assert typed == plain and hash(typed) == hash(plain)
        assert not typed < plain and not plain < typed

    def test_write_rejects_separator_in_token(self, tmp_path):
        ann = GoldAnnotation(["a|||b"], {0: []})
        with pytest.raises(ValueError):
            write_m2_gold(str(tmp_path / "out.m2"), [ann])
        typed = GoldAnnotation(["a"], {0: [Edit(0, 1, ("a",), ("b",), "R|||X")]})
        with pytest.raises(ValueError, match="error type not representable"):
            write_m2_gold(str(tmp_path / "out.m2"), [typed])
        assert not (tmp_path / "out.m2").exists()


class TestCorpusStats:
    def test_identity_corpus(self):
        stats = corpus_stats([pair("a b", "a b")])
        assert stats.edited_pairs == 0
        assert stats.edit_fraction == 0.0
        assert stats.mean_words_in_change == 0.0

    def test_empty_corpus(self):
        stats = corpus_stats([])
        assert stats.pairs == 0 and stats.edit_fraction == 0.0

    def test_counts_and_means(self):
        pairs = [
            pair("a b c", "a x c"),  # replacement: 2 tokens in spans
            pair("a b", "a b"),  # untouched
            pair("a b c", "a c"),  # deletion: 1
            pair("a c", "a b c"),  # insertion: 1
            pair("a b c", "a x c"),  # repeat of the first type
        ]
        stats = corpus_stats(pairs)
        assert stats.pairs == 5
        assert stats.edited_pairs == 4
        assert stats.edit_fraction == pytest.approx(0.8)
        assert stats.mean_words_in_change == pytest.approx(6 / 4)
        assert stats.unique_deletions == 1
        assert stats.unique_insertions == 1
        assert stats.unique_replacements == 1

    def test_rule_names_stable(self):
        assert LANG8_RULES == (
            "duplicate",
            "emoticon",
            "colloquial",
            "non-ascii",
            "lowercase-start",
            "ends-in-paren",
            "no-terminal-punct",
        )


# ---------------------------------------------------------------------------
# the file layer


def oracle_read_lines(path: str) -> list[str]:
    """``read_lines`` as it was before it streamed, kept to pin its behaviour."""
    try:
        with open(path, encoding="utf-8") as fh:
            return [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for n, line in enumerate(fh, 1):
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValueError(f"{path}:{n}: not valid UTF-8") from None
        raise ValueError(f"{path}: not valid UTF-8") from None


def outcome(read, path: str):
    try:
        return list(read(path))
    except ValueError as exc:
        return f"error: {exc}"


LONG = b"".join(b"line %d\n" % n for n in range(1, 3001))  # many read chunks

READER_CASES = {
    "crlf": b"a b\r\nc\r\n\r\nd",
    "lone-cr": b"a\rb\nc\r",
    "no-final-newline": b"a\nb",
    "empty": b"",
    "blank-lines": b"\n\na\n \n\n",
    "bad-byte-line-1": b"\xffa\nb\n",
    "bad-byte-line-3": b"a\r\nb\r\nc \xfe d\r\ne\r\n",
    "bad-byte-last-line": b"a\nb\n\xc3",
    "bad-byte-line-2501": LONG.replace(b"line 2501\n", b"line \xff2501\n"),
}


@pytest.mark.parametrize("data", READER_CASES.values(), ids=READER_CASES.keys())
def test_readers_match_the_list_reader_they_replace(tmp_path, data):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    want = outcome(oracle_read_lines, str(path))
    assert outcome(read_lines, str(path)) == want
    assert outcome(iter_lines, str(path)) == want
    if b"\xff2501" in data:
        assert want == f"error: {path}:2501: not valid UTF-8"


KBEST_LINE = json.dumps(
    {"id": 0, "tokens": ["a"], "probs": [0.5], "eos": False}
)
TEH = [(["teh", "cat"], ["the", "cat"]), (["see", "teh"], ["see", "the"])]


@pytest.mark.parametrize("k", [1, 3, 2501])
def test_kbest_and_model_readers_name_the_bad_line(tmp_path, k):
    kbest = tmp_path / "kb.jsonl"
    lines = [KBEST_LINE] * 3000
    lines[k - 1] = KBEST_LINE.replace('"a"', '"\udcff"')
    kbest.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
    model = tmp_path / "m.json"
    save_model(str(model), harvest(TEH), train_lm([t for _, t in TEH]))
    model.write_bytes(b"\n" * (k - 1) + model.read_bytes().replace(b'"lm"', b'"l\xffm"'))
    for path, read in ((kbest, read_kbest), (model, load_model)):
        want = outcome(oracle_read_lines, str(path))
        assert want == f"error: {path}:{k}: not valid UTF-8"
        assert outcome(read, str(path)) == want


def kbest_then_failure():
    yield KBestRecord(0, ("a",), (0.5,), ((0.0, 0.0, 0.0, 0.0),), False)
    raise RuntimeError("decoder failed")


def unsaveable_model():
    lexicon = harvest(TEH)
    lexicon.deletions[("x",)] = object()  # not JSON
    return lexicon, train_lm([t for _, t in TEH])


# writer name -> (destination names, the writer made to fail part way)
FAILING_WRITERS = {
    "write_token_lines": (["f"], lambda p: write_token_lines(p("f"), [["a"], ["b", 1]])),
    "write_parallel": (
        ["s", "t", "d"],
        lambda p: write_parallel(
            p("s"), p("t"), [pair("a", "b", domain="x"), pair("c", "d")], p("d")
        ),
    ),
    "write_m2_gold": (
        ["g.m2"],
        lambda p: write_m2_gold(
            p("g.m2"), [GoldAnnotation(["a"], {0: []}), GoldAnnotation(["a|||b"], {0: []})]
        ),
    ),
    "save_model": (["m.json"], lambda p: save_model(p("m.json"), *unsaveable_model())),
    "write_kbest": (["kb.jsonl"], lambda p: write_kbest(kbest_then_failure(), p("kb.jsonl"))),
}


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("writer", FAILING_WRITERS)
def test_failed_writer_leaves_destinations_as_they_were(tmp_path, writer, existing):
    names, fail = FAILING_WRITERS[writer]
    if existing:
        for name in names:
            (tmp_path / name).write_bytes(b"old\n")
    with pytest.raises((ValueError, TypeError, RuntimeError)):
        fail(lambda name: str(tmp_path / name))
    assert sorted(os.listdir(tmp_path)) == (sorted(names) if existing else [])
    for name in names if existing else []:
        assert (tmp_path / name).read_bytes() == b"old\n"


# ---------------------------------------------------------------------------
# one string per distinct token: the readers as they were before they shared
# their strings, kept verbatim as oracles


def oracle_read_token_lines(path: str) -> list[list[str]]:
    return [line.split() for line in iter_lines(path)]


def oracle_load_parallel(
    src_path: str, tgt_path: str, dom_path: str | None = None
) -> list[SentencePair]:
    def unpaired(a: str, a_lines: list, b: str, b_lines: list) -> ValueError:
        # the longer file's first line with no partner in the shorter one
        if len(a_lines) < len(b_lines):
            a, a_lines, b, b_lines = b, b_lines, a, a_lines
        n = len(b_lines) + 1
        return ValueError(
            f"{a}:{n}: no line {n} in {b} ({a} has {len(a_lines)} lines, {b} has {len(b_lines)})"
        )

    src_lines = read_lines(src_path)
    tgt_lines = read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise unpaired(src_path, src_lines, tgt_path, tgt_lines)
    domains: list[str | None]
    if dom_path is not None:
        dom_lines = read_lines(dom_path)
        if len(dom_lines) != len(src_lines):
            raise unpaired(src_path, src_lines, dom_path, dom_lines)
        domains = []
        for n, line in enumerate(dom_lines, 1):
            label = line.strip()
            try:
                domain_token(label)
            except ValueError as exc:
                raise ValueError(f"{dom_path}:{n}: {exc}") from None
            domains.append(label)
    else:
        domains = [None] * len(src_lines)
    return [
        SentencePair(tuple(tokenize(s)), tuple(tokenize(t)), domain=d)
        for s, t, d in zip(src_lines, tgt_lines, domains)
    ]


def oracle_parse_a_line(line: str, where: str) -> tuple[int, int, str, tuple[str, ...], int]:
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
    replacement = () if repl_text in ("", "-NONE-") else tuple(repl_text.split())
    try:
        annotator = int(fields[5])
    except ValueError:
        raise ValueError(f"{where}: bad annotator id {fields[5]!r}") from None
    return start, end, kind, replacement, annotator


def oracle_load_m2_gold(path: str) -> list[GoldAnnotation]:
    annotations: list[GoldAnnotation] = []
    source: tuple[str, ...] | None = None
    edits: dict[int, list[Edit]] = {}

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
            source = tuple(line[2:].split())
            edits = {}
        elif line.startswith("A "):
            if source is None:
                raise ValueError(f"{where}: A line without preceding S line")
            start, end, kind, replacement, annotator = oracle_parse_a_line(line, where)
            if start == -1 and end == -1:  # explicit no-edit marker
                edits.setdefault(annotator, [])
                continue
            if not 0 <= start <= end <= len(source):
                raise ValueError(f"{where}: span {start} {end} outside source")
            try:
                edit = Edit(start, end, tuple(source[start:end]), replacement)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            edits.setdefault(annotator, []).append(edit)
        else:
            raise ValueError(f"{where}: unrecognized line {line!r}")
    flush(f"{path}:end")
    return annotations


# plain words, words tokenize splits, reserved tokens in raw text and their
# escaped forms in token files, non-ASCII words and single characters
WORDS = [
    "the", "cat", "sat", "on", "mat", "a", ".", "don't", "(hello)", "end.", "Yes,",
    "<del>", "</ins>", "<dom:news>", "##<del>", "##</ins>", "naïve", "café", "x|y",
]


def random_text(rng: random.Random, lines: int, blank: float = 0.1) -> str:
    """Lines of WORDS with odd spacing, some blank, ending in LF or CRLF."""
    out = []
    for _ in range(lines):
        if rng.random() < blank:
            out.append(rng.choice(["", " ", "\t"]))
        else:
            words = [rng.choice(WORDS) for _ in range(rng.randint(1, 12))]
            out.append(rng.choice([" ", "  ", "\t"]).join(words))
    return "".join(line + rng.choice(["\n", "\r\n"]) for line in out)


def random_m2(rng: random.Random, sentences: int) -> str:
    """Gold edits with several annotators, no-op entries and odd replacement spellings."""
    plain = [w for w in WORDS if "<" not in w and "|" not in w]
    blocks = []
    for _ in range(sentences):
        source = [rng.choice(plain) for _ in range(rng.randint(1, 10))]
        lines = ["S " + " ".join(source)]
        for annotator in range(rng.randint(1, 3)):
            cuts = sorted(rng.sample(range(len(source) + 1), min(4, len(source) + 1)))
            spans = list(zip(cuts[::2], cuts[1::2]))
            if not spans or rng.random() < 0.2:
                lines.append(f"A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||{annotator}")
                continue
            for start, end in spans:
                repl = rng.choice(
                    ["", "-NONE-", " ".join(rng.choices(plain, k=rng.randint(1, 3))), "cat||mat"]
                )
                lines.append(f"A {start} {end}|||R:X|||{repl}|||REQUIRED|||-NONE-|||{annotator}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def distinct_objects(tokens) -> bool:
    """Whether equal tokens are one object (and there was something to share)."""
    tokens = list(tokens)
    return len({id(t) for t in tokens}) == len(set(tokens)) < len(tokens)


def shared_across(first, second) -> set[str]:
    """Tokens of two results that are one object; CPython keeps one object
    per single-character string anyway, so only longer ones count."""
    ids = {id(t) for t in first if len(t) > 1}
    return {t for t in second if len(t) > 1 and id(t) in ids}


def m2_tokens(golds: list[GoldAnnotation]):
    for ann in golds:
        yield from ann.source
        for edits in ann.annotators.values():
            for e in edits:
                yield from e.deleted
                yield from e.replacement


class TestReadersShareStrings:
    @pytest.mark.parametrize("seed", range(4))
    def test_token_lines_match_oracle(self, tmp_path, seed):
        path = tmp_path / "t.txt"
        path.write_bytes(random_text(random.Random(seed), 300).encode("utf-8"))
        got = read_token_lines(str(path))
        assert got == oracle_read_token_lines(str(path))
        assert all(type(line) is list for line in got)
        assert len({id(line) for line in got}) == len(got)  # a fresh list per line
        assert distinct_objects(t for line in got for t in line)
        again = read_token_lines(str(path))
        assert not shared_across(
            [t for line in got for t in line], [t for line in again for t in line]
        )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("domains", [False, True])
    def test_parallel_matches_oracle(self, tmp_path, seed, domains):
        rng = random.Random(seed)
        src, tgt, dom = (str(tmp_path / name) for name in ("s", "t", "d"))
        src_lines = random_text(rng, 200).splitlines(keepends=True)
        with open(src, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(src_lines))
        with open(tgt, "w", encoding="utf-8", newline="") as fh:  # about half unchanged
            fh.write("".join(line if rng.random() < 0.5 else random_text(rng, 1) for line in src_lines))
        with open(dom, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(rng.choice(["news\n", " web \r\n"]) for _ in range(200)))
        args = (src, tgt, dom) if domains else (src, tgt)
        got = load_parallel(*args)
        assert got == oracle_load_parallel(*args)

        def tokens(pairs):
            return [t for p in pairs for t in (*p.source, *p.target)]

        assert distinct_objects(tokens(got))
        assert not shared_across(tokens(got), tokens(load_parallel(*args)))
        unchanged = [p for p, s, t in zip(got, read_lines(src), read_lines(tgt)) if s == t]
        assert unchanged and all(p.source is p.target for p in unchanged)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_m2_gold_matches_oracle(self, tmp_path, seed, newline):
        path = tmp_path / "g.m2"
        path.write_bytes(random_m2(random.Random(seed), 80).replace("\n", newline).encode("utf-8"))
        got = load_m2_gold(str(path))
        assert got == oracle_load_m2_gold(str(path))
        assert any(len(ann.annotators) > 1 for ann in got)
        assert any(edits == [] for ann in got for edits in ann.annotators.values())
        assert distinct_objects(m2_tokens(got))
        assert not shared_across(list(m2_tokens(got)), list(m2_tokens(load_m2_gold(str(path)))))

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("S a b\nA 0 1|||R|||c|||REQUIRED|||-NONE-\n", id="five-fields"),
            pytest.param("S a b\nA 0|||R|||c|||REQUIRED|||-NONE-|||0\n", id="one-span-number"),
            pytest.param("S a b\nA 0 x|||R|||c|||REQUIRED|||-NONE-|||0\n", id="span-word"),
            pytest.param("S a b\nA 0 3|||R|||c|||REQUIRED|||-NONE-|||0\n", id="span-outside"),
            pytest.param("S a b\nA 1 1|||M:D|||-NONE-|||REQUIRED|||-NONE-|||0\n", id="empty-edit"),
            pytest.param("S a b\nA 0 1|||R|||c|||REQUIRED|||-NONE-|||z\n", id="annotator-word"),
            pytest.param("S a\n\nA 0 1|||R|||c|||REQUIRED|||-NONE-|||0\n", id="a-without-s"),
            pytest.param("S a\nS b\n", id="s-before-blank"),
            pytest.param("S a\nB c\n", id="unrecognized"),
            pytest.param(
                "S a b c\nA 0 2|||R|||x|||REQUIRED|||-NONE-|||0\n"
                "A 1 3|||R|||y|||REQUIRED|||-NONE-|||0\n\nS d\n",
                id="overlap",
            ),
            pytest.param(
                "S a b c\nA 0 2|||R|||x|||REQUIRED|||-NONE-|||0\n"
                "A 1 3|||R|||y|||REQUIRED|||-NONE-|||0\n",
                id="overlap-at-end",
            ),
        ],
    )
    def test_m2_errors_unchanged(self, tmp_path, text):
        path = tmp_path / "g.m2"
        path.write_text("S ok\n\n" + text, encoding="utf-8")
        assert outcome(load_m2_gold, str(path)) == outcome(oracle_load_m2_gold, str(path))
        assert outcome(load_m2_gold, str(path)).startswith(f"error: {path}:")

    @pytest.mark.parametrize("k", [1, 3, 2501])
    def test_bad_utf8_errors_unchanged(self, tmp_path, k):
        lines = [b"S a b", b"A 0 1|||R|||c|||REQUIRED|||-NONE-|||0", b""] * 1000
        lines[k - 1] = lines[k - 1].replace(b"a", b"\xff", 1) + b"\xff"
        path = tmp_path / "f"
        path.write_bytes(b"\n".join(lines))
        ok = tmp_path / "ok"
        ok.write_bytes(b"a\n" * 3000)
        want = f"error: {path}:{k}: not valid UTF-8"
        for read, oracle in (
            (read_token_lines, oracle_read_token_lines),
            (load_m2_gold, oracle_load_m2_gold),
            (lambda p: load_parallel(p, str(ok)), lambda p: oracle_load_parallel(p, str(ok))),
            (lambda p: load_parallel(str(ok), p), lambda p: oracle_load_parallel(str(ok), p)),
        ):
            assert outcome(read, str(path)) == outcome(oracle, str(path)) == want

    @pytest.mark.parametrize(
        "src, tgt, dom",
        [
            pytest.param("a\nb\n", "a\n", None, id="target-short"),
            pytest.param("a\n", "a\nb\n", None, id="source-short"),
            pytest.param("a\nb\n", "a\nb\n", "x\n", id="domains-short"),
            pytest.param("a\nb\n", "a\nb\n", "x\ny\nz\n", id="domains-long"),
            pytest.param("a\nb\n", "a\nb\n", "x\n \n", id="empty-label"),
            pytest.param("a\nb\n", "a\nb\n", "x\nweb log\n", id="label-with-space"),
        ],
    )
    def test_parallel_errors_unchanged(self, tmp_path, src, tgt, dom):
        paths = []
        for name, text in (("s", src), ("t", tgt), ("d", dom)):
            if text is not None:
                (tmp_path / name).write_text(text, encoding="utf-8")
                paths.append(str(tmp_path / name))
        got = outcome(lambda _: load_parallel(*paths), "")
        assert got.startswith("error: ")
        assert got == outcome(lambda _: oracle_load_parallel(*paths), "")
