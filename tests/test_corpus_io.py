from __future__ import annotations

import json
import os

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
        (tmp_path / "s").write_text("a\nb\n")
        (tmp_path / "t").write_text("a\n")
        with pytest.raises(ValueError) as err:
            load_parallel(str(tmp_path / "s"), str(tmp_path / "t"))
        assert "2" in str(err.value) and "1" in str(err.value)

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
        kept, _ = length_filter([p], 10, 3, tagged=True)
        assert kept == [p]
        # a replacement carries both sides plus four tags: 3 + 1 + 4 = 8
        q = pair("a b c", "a x c")
        kept, report = length_filter([q], 10, 8, tagged=True)
        assert kept == [q]
        kept, report = length_filter([q], 10, 7, tagged=True)
        assert report.drops["tgt-too-long"] == 1
        kept, _ = length_filter([q], 10, 7, tagged=False)
        assert kept == [q]

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
        assert PRESETS["conll"] == (79, 100, True, "word")
        assert PRESETS["aesw"] == (126, 126, True, "word")
        assert PRESETS["aesw-char"] == (421, 421, True, "char")


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

    def test_write_rejects_separator_in_token(self, tmp_path):
        ann = GoldAnnotation(["a|||b"], {0: []})
        with pytest.raises(ValueError):
            write_m2_gold(str(tmp_path / "out.m2"), [ann])


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
    {"id": 0, "tokens": ["a"], "probs": [0.5], "tag_probs": [[0, 0, 0, 0]], "eos": False}
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
