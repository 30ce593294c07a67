from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

from gecdiff.cli import main
from gecdiff.corpus_io import atomic_write


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(name: str, text: str) -> str:
    Path(name).write_text(text)
    return name


TRAIN_SRC = "teh cat sat\nteh dog ran\nsee teh bird\n"
TRAIN_TGT = "the cat sat\nthe dog ran\nsee the bird\n"
TEST_SRC = "teh mouse sat\nteh dog sat\n"
TEST_REF = "the mouse sat\nthe dog sat\n"
TEST_GOLD = (
    "S teh mouse sat\n"
    "A 0 1|||UNK|||the|||REQUIRED|||-NONE-|||0\n"
    "\n"
    "S teh dog sat\n"
    "A 0 1|||UNK|||the|||REQUIRED|||-NONE-|||0\n"
)


def train_model() -> str:
    write("train.src", TRAIN_SRC)
    write("train.tgt", TRAIN_TGT)
    assert main(["train-ref", "--src", "train.src", "--tgt", "train.tgt", "--model", "model.json"]) == 0
    return "model.json"


class TestParsing:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["tokenize", "--out", "x"])
        assert err.value.code == 2

    def test_missing_input_file_exits_1(self, capsys):
        assert main(["tokenize", "--in", "nope.txt", "--out", "x"]) == 1
        assert "error:" in capsys.readouterr().err


class TestTokenizeAndManifest:
    def test_tokenize_output(self):
        write("raw.txt", "Hello, world\ndon't stop\n")
        assert main(["tokenize", "--in", "raw.txt", "--out", "tok.txt"]) == 0
        assert Path("tok.txt").read_text() == "Hello , world\ndon 't stop\n"

    def test_manifest_next_to_output(self):
        write("raw.txt", "Hi there\n")
        main(["tokenize", "--in", "raw.txt", "--out", "tok.txt"])
        m = json.loads(Path("tok.txt.manifest.json").read_text())
        assert m["subcommand"] == "tokenize"
        assert m["inputs"] == ["raw.txt"]
        assert m["outputs"] == ["tok.txt"]
        assert m["seed"] is None
        assert m["config"]["infile"] == "raw.txt"
        assert m["version"]

    def test_manifest_custom_path(self):
        write("raw.txt", "Hi\n")
        main(["tokenize", "--in", "raw.txt", "--out", "t.txt", "--manifest", "runs/m.json"])
        os.makedirs("runs", exist_ok=True)
        # manifest path is taken as given; parent must exist
        assert main(["tokenize", "--in", "raw.txt", "--out", "t.txt", "--manifest", "runs/m.json"]) == 0
        assert json.loads(Path("runs/m.json").read_text())["subcommand"] == "tokenize"

    def test_manifest_beside_first_input_without_output(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        data.mkdir()
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        model = str(data / "model.json")
        for name, text in (("train.src", TRAIN_SRC), ("train.tgt", TRAIN_TGT),
                           ("dev.src", TEST_SRC), ("dev.tgt", TEST_REF),
                           ("bad.txt", "a </del> b\n"), ("s.txt", "a b\n")):
            (data / name).write_text(text)
        assert main(["train-ref", "--src", str(data / "train.src"), "--tgt",
                     str(data / "train.tgt"), "--model", model]) == 0
        assert main(["validate", "--in", str(data / "bad.txt"), "--src", str(data / "s.txt")]) == 0
        assert main(["tune", "--model", model, "--src", str(data / "dev.src"), "--tgt",
                     str(data / "dev.tgt"), "--grid-step", "0.5"]) == 0
        assert list(work.iterdir()) == []
        validate = json.loads((data / "bad.txt.validate.manifest.json").read_text())
        assert validate["subcommand"] == "validate" and validate["outputs"] == []
        tune = json.loads((data / "model.json.tune.manifest.json").read_text())
        assert tune["subcommand"] == "tune" and tune["inputs"][0] == model


class TestDiffStripRepair:
    def test_diff_then_strip_round_trips(self):
        write("s.txt", "the cat sat\nhello there\n")
        write("t.txt", "a cat sat\nhello you there\n")
        assert main(["diff", "--src", "s.txt", "--tgt", "t.txt", "--out", "d.txt"]) == 0
        assert main(["strip", "--in", "d.txt", "--side", "target", "--out", "out.tgt"]) == 0
        assert Path("out.tgt").read_text() == "a cat sat\nhello you there\n"
        assert main(["strip", "--in", "d.txt", "--side", "source", "--out", "out.src"]) == 0
        assert Path("out.src").read_text() == "the cat sat\nhello there\n"

    def test_diff_with_domain_column(self):
        write("s.txt", "a b\n")
        write("t.txt", "a c\n")
        write("dom.txt", "news\n")
        main(["diff", "--src", "s.txt", "--tgt", "t.txt", "--domain", "dom.txt", "--out", "d.txt"])
        first = Path("d.txt").read_text().split()[0]
        assert first == "<dom:news>"
        # strip drops the domain token
        main(["strip", "--in", "d.txt", "--out", "out.tgt"])
        assert Path("out.tgt").read_text() == "a c\n"

    def test_validate_counts_lines(self, capsys):
        write("s.txt", "a b\n")
        write("t.txt", "a c\n")
        main(["diff", "--src", "s.txt", "--tgt", "t.txt", "--out", "d.txt"])
        capsys.readouterr()
        assert main(["validate", "--in", "d.txt", "--src", "s.txt", "--out", "v.jsonl"]) == 0
        assert "1/1 lines valid" in capsys.readouterr().out
        record = json.loads(Path("v.jsonl").read_text())
        assert record["valid"] is True and record["violations"] == []

    def test_validate_flags_garbage(self, capsys):
        write("bad.txt", "a </del> b\n")
        write("s.txt", "a b\n")
        assert main(["validate", "--in", "bad.txt", "--src", "s.txt"]) == 0
        assert "0/1 lines valid" in capsys.readouterr().out

    def test_repair_fixes_garbage(self, capsys):
        write("bad.txt", "a </del> b <ins> c\n")
        write("s.txt", "a b\n")
        assert main(["repair", "--in", "bad.txt", "--src", "s.txt", "--out", "fixed.txt"]) == 0
        capsys.readouterr()
        assert main(["validate", "--in", "fixed.txt", "--src", "s.txt"]) == 0
        assert "1/1 lines valid" in capsys.readouterr().out


class TestFilter:
    def test_lang8_preset(self, capsys):
        # the face must survive tokenization in one piece
        write("s.txt", "This is fine .\nthis is lower .\nGreat ^_^\n")
        write("t.txt", "This is fine .\nthis is lower .\nGreat ^_^\n")
        code = main(
            [
                "filter", "--src", "s.txt", "--tgt", "t.txt", "--preset", "lang8",
                "--out-src", "f.src", "--out-tgt", "f.tgt", "--report", "r.json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kept 1/3" in out
        assert Path("f.src").read_text() == "This is fine .\n"
        report = json.loads(Path("r.json").read_text())
        assert report["drops"]["lowercase-start"] == 1
        assert report["drops"]["emoticon"] == 1

    def test_lang8_rule_subset(self):
        write("s.txt", "this is lower\n")
        write("t.txt", "this is lower\n")
        main(
            [
                "filter", "--src", "s.txt", "--tgt", "t.txt", "--preset", "lang8",
                "--rules", "emoticon,colloquial",
                "--out-src", "f.src", "--out-tgt", "f.tgt",
            ]
        )
        assert Path("f.src").read_text() == "this is lower\n"

    def test_length_preset_rejects_rules(self, capsys):
        write("s.txt", "a\n")
        write("t.txt", "a\n")
        code = main(
            [
                "filter", "--src", "s.txt", "--tgt", "t.txt", "--preset", "conll",
                "--rules", "duplicate", "--out-src", "f.src", "--out-tgt", "f.tgt",
            ]
        )
        assert code == 1
        assert "lang8" in capsys.readouterr().err

    def test_length_preset_drops_long_source(self, capsys):
        long_line = " ".join(["w"] * 80)
        write("s.txt", f"a b\n{long_line}\n")
        write("t.txt", "a b\n" + long_line + "\n")
        main(
            [
                "filter", "--src", "s.txt", "--tgt", "t.txt", "--preset", "conll",
                "--out-src", "f.src", "--out-tgt", "f.tgt",
            ]
        )
        assert Path("f.src").read_text() == "a b\n"
        assert "dropped 1" in capsys.readouterr().out


class TestStats:
    def test_stats_output(self, capsys):
        write("s.txt", "a b c\na b\n")
        write("t.txt", "a x c\na b\n")
        assert main(["stats", "--src", "s.txt", "--tgt", "t.txt", "--json", "st.json"]) == 0
        out = capsys.readouterr().out
        assert "edited pairs         1" in out
        st = json.loads(Path("st.json").read_text())
        assert st["pairs"] == 2
        assert st["edit_fraction"] == pytest.approx(0.5)
        assert st["mean_words_in_change"] == pytest.approx(2.0)


class TestDecodePipeline:
    def test_train_decode_score(self, capsys):
        model = train_model()
        write("test.src", TEST_SRC)
        write("test.ref", TEST_REF)
        write("gold.m2", TEST_GOLD)
        code = main(
            [
                "decode", "--model", model, "--src", "test.src",
                "--out", "hyp.tag", "--target-out", "hyp.tgt",
            ]
        )
        assert code == 0
        assert Path("hyp.tgt").read_text() == TEST_REF
        capsys.readouterr()
        assert main(["m2", "--hyp", "hyp.tgt", "--gold", "gold.m2"]) == 0
        assert "P 100.00  R 100.00  F0.5 100.00" in capsys.readouterr().out
        assert main(["gleu", "--hyp", "hyp.tgt", "--src", "test.src", "--ref", "test.ref"]) == 0
        assert "GLEU 100.00" in capsys.readouterr().out

    def test_m2_empty_corpus_exits_1(self, capsys):
        write("hyp.txt", "")
        write("gold.m2", "")
        assert main(["m2", "--hyp", "hyp.txt", "--gold", "gold.m2"]) == 1
        captured = capsys.readouterr()
        assert "error: empty corpus" in captured.err
        assert "P 100.00" not in captured.out

    def test_m2_negative_max_unchanged_exits_1(self, capsys):
        write("hyp.txt", TEST_REF)
        write("gold.m2", TEST_GOLD)
        code = main(["m2", "--hyp", "hyp.txt", "--gold", "gold.m2", "--max-unchanged", "-1"])
        assert code == 1
        assert "error: max_unchanged must be >= 0" in capsys.readouterr().err

    def test_decode_threads_match_serial(self):
        model = train_model()
        write("test.src", TEST_SRC)
        main(["decode", "--model", model, "--src", "test.src", "--out", "one.tag"])
        main(["decode", "--model", model, "--src", "test.src", "--out", "two.tag", "--threads", "2"])
        assert Path("one.tag").read_text() == Path("two.tag").read_text()

    def test_decode_rejects_empty_source_line(self, capsys):
        model = train_model()
        write("test.src", "teh cat\n\n")
        assert main(["decode", "--model", model, "--src", "test.src", "--out", "o.tag"]) == 1
        assert ":2" in capsys.readouterr().err

    def test_kbest_rerank_flow(self):
        model = train_model()
        write("test.src", TEST_SRC)
        main(
            [
                "decode", "--model", model, "--src", "test.src", "--out", "hyp.tag",
                "--kbest", "kb.jsonl", "--beam", "5", "--kbest-size", "3",
            ]
        )
        lines = Path("kb.jsonl").read_text().splitlines()
        assert 2 <= len(lines) <= 6
        assert {json.loads(l)["id"] for l in lines} == {0, 1}
        code = main(
            [
                "rerank", "--kbest", "kb.jsonl", "--bias", "0.2", "--out", "best.tag",
                "--src", "test.src", "--kbest-out", "kb2.jsonl",
            ]
        )
        assert code == 0
        assert len(Path("best.tag").read_text().splitlines()) == 2
        assert len(Path("kb2.jsonl").read_text().splitlines()) == len(lines)

    def kbest_for(self, sources: str) -> list[str]:
        model = train_model()
        write("test.src", sources)
        assert main(
            [
                "decode", "--model", model, "--src", "test.src", "--out", "hyp.tag",
                "--kbest", "kb.jsonl", "--beam", "3",
            ]
        ) == 0
        return Path("kb.jsonl").read_text().splitlines()

    def test_rerank_src_pairs_by_id(self):
        # the two corrections sit at different positions, so repairing one
        # onto the other's source changes the output
        lines = self.kbest_for("teh mouse sat\nsee teh bird\n")
        shuffled = list(lines)
        random.Random(7).shuffle(shuffled)
        expected = (
            "<del> teh </del> <ins> the </ins> mouse sat\n"
            "see <del> teh </del> <ins> the </ins> bird\n"
        )
        for dump in (lines, lines[::-1], shuffled):
            write("moved.jsonl", "\n".join(dump) + "\n")
            args = ["--kbest", "moved.jsonl", "--bias", "0.2", "--src", "test.src"]
            assert main(["rerank", *args, "--out", "best.tag"]) == 0
            assert Path("best.tag").read_text() == expected

    def test_rerank_src_rejects_missing_id(self, capsys):
        lines = self.kbest_for("teh mouse sat\nsee teh bird\n")
        moved = []
        for line in lines:
            rec = json.loads(line)
            if rec["id"] == 1:
                rec["id"] = 2  # ids 0 and 2 for two source lines: 1 is missing
            moved.append(json.dumps(rec))
        write("gap.jsonl", "\n".join(moved) + "\n")
        capsys.readouterr()
        code = main(["rerank", "--kbest", "gap.jsonl", "--src", "test.src", "--out", "o.tag"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: gap.jsonl: ")
        assert "missing [1]" in err[0] and "unexpected [2]" in err[0]
        assert not Path("o.tag").exists()

    def test_rerank_src_rejects_malformed_record(self, capsys):
        lines = self.kbest_for("teh mouse sat\nsee teh bird\n")
        rec = json.loads(lines[1])
        rec["eos"] = "false"
        lines[1] = json.dumps(rec)
        write("bad.jsonl", "\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["rerank", "--kbest", "bad.jsonl", "--src", "test.src", "--out", "o.tag"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad.jsonl:2: bad k-best record: eos must be true or false")
        assert not Path("o.tag").exists()

    def test_m2_bad_utf8_gold_exits_1(self, capsys):
        write("hyp.txt", TEST_REF)
        Path("gold.m2").write_bytes(TEST_GOLD.encode().replace(b"dog", b"d\xffg"))
        assert main(["m2", "--hyp", "hyp.txt", "--gold", "gold.m2"]) == 1
        assert capsys.readouterr().err == "error: gold.m2:4: not valid UTF-8\n"

    def test_decode_rejects_model_missing_key(self, capsys):
        model = train_model()
        obj = json.loads(Path(model).read_text())
        del obj["lm"]
        Path(model).write_text(json.dumps(obj))
        write("test.src", TEST_SRC)
        capsys.readouterr()
        assert main(["decode", "--model", model, "--src", "test.src", "--out", "o.tag"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {model}: ")

    def test_decode_model_not_utf8_exits_1(self, capsys):
        model = train_model()
        Path(model).write_bytes(Path(model).read_bytes().replace(b'"lm"', b'"l\xffm"'))
        write("test.src", TEST_SRC)
        capsys.readouterr()
        assert main(["decode", "--model", model, "--src", "test.src", "--out", "o.tag"]) == 1
        assert capsys.readouterr().err == f"error: {model}:1: not valid UTF-8\n"
        assert not Path("o.tag").exists()

    def test_decode_model_not_json_exits_1(self, capsys):
        model = train_model()
        text = Path(model).read_text()
        # the file cut short, after a line break that the error must count
        Path(model).write_text(text[: len(text) // 2].replace(", ", ",\n", 1))
        write("test.src", TEST_SRC)
        capsys.readouterr()
        assert main(["decode", "--model", model, "--src", "test.src", "--out", "o.tag"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {model}:2: not valid JSON: ")
        assert not Path("o.tag").exists()

    def test_tune_table(self, capsys):
        model = train_model()
        write("dev.src", TEST_SRC)
        write("dev.tgt", TEST_REF)
        capsys.readouterr()
        code = main(
            [
                "tune", "--model", model, "--src", "dev.src", "--tgt", "dev.tgt",
                "--grid-step", "0.5", "--json", "tune.json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == ["del_open", "del_close", "ins_open", "ins_close", "P", "R", "F"]
        assert len(out) == 1 + 3 + 1  # header, three grid rows, best line
        assert out[-1].startswith("best:")
        tuned = json.loads(Path("tune.json").read_text())
        assert len(tuned["curve"]) == 3
        assert set(tuned["best"]) == {"del_open", "del_close", "ins_open", "ins_close"}


class TestBootstrap:
    def test_deterministic_and_significant(self, capsys):
        write("a.txt", TEST_REF)
        write("b.txt", TEST_SRC)
        write("src.txt", TEST_SRC)
        write("ref.txt", TEST_REF)
        argv = [
            "bootstrap", "--hyp-a", "a.txt", "--hyp-b", "b.txt",
            "--src", "src.txt", "--ref", "ref.txt", "--json", "bs.json",
        ]
        assert main(argv) == 0
        first = Path("bs.json").read_text()
        out = capsys.readouterr().out
        assert "system A better" in out
        assert main(argv) == 0
        assert Path("bs.json").read_text() == first
        report = json.loads(first)
        assert report["significant"] is True
        assert report["better"] == "A"

    def test_m2_metric_path(self, capsys):
        write("a.txt", TEST_REF)
        write("b.txt", TEST_SRC)
        write("gold.m2", TEST_GOLD)
        code = main(
            [
                "bootstrap", "--hyp-a", "a.txt", "--hyp-b", "b.txt",
                "--metric", "m2", "--gold", "gold.m2",
            ]
        )
        assert code == 0
        assert "m2 A 100.00" in capsys.readouterr().out

    def test_gleu_requires_src_and_ref(self, capsys):
        write("a.txt", "x\n")
        write("b.txt", "x\n")
        assert main(["bootstrap", "--hyp-a", "a.txt", "--hyp-b", "b.txt"]) == 1
        assert "--src" in capsys.readouterr().err

    def test_seed_recorded_in_manifest(self):
        write("a.txt", TEST_REF)
        write("b.txt", TEST_SRC)
        write("src.txt", TEST_SRC)
        write("ref.txt", TEST_REF)
        main(
            [
                "bootstrap", "--hyp-a", "a.txt", "--hyp-b", "b.txt",
                "--src", "src.txt", "--ref", "ref.txt",
                "--seed", "99", "--manifest", "m.json",
            ]
        )
        assert json.loads(Path("m.json").read_text())["seed"] == 99


class TestAnalyze:
    def test_reports_printed(self, capsys):
        write("hyp.txt", TEST_REF)
        write("gold.m2", TEST_GOLD)
        write("train.src", TRAIN_SRC)
        write("train.tgt", TRAIN_TGT)
        code = main(
            [
                "analyze", "--hyp", "hyp.txt", "--gold", "gold.m2",
                "--train-src", "train.src", "--train-tgt", "train.tgt",
                "--json", "an.json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Bucket" in out and "Replacements" in out
        report = json.loads(Path("an.json").read_text())
        # the replacement side is an article, so frequency never applies
        assert report["buckets"]["Articles"]["gold_count"] == 2
        assert report["buckets"]["Articles"]["prf"]["tp"] == 2
        assert report["kinds"]["replace"]["f_beta"] == 1.0

    def test_missing_annotator_exits_1(self, capsys):
        write("hyp.txt", TEST_REF)
        write("gold.m2", TEST_GOLD)
        assert main(["analyze", "--hyp", "hyp.txt", "--gold", "gold.m2", "--annotator", "5"]) == 1
        assert "annotator 5" in capsys.readouterr().err


class TestAtomicWrites:
    def test_failure_leaves_no_files(self):
        with pytest.raises(RuntimeError):
            with atomic_write("out.txt") as (fh,):
                fh.write("partial")
                raise RuntimeError("boom")
        assert not os.path.exists("out.txt")
        assert not os.path.exists("out.txt.part")

    def test_success_moves_into_place(self):
        with atomic_write("out.txt") as (fh,):
            fh.write("ok")
        assert Path("out.txt").read_text() == "ok"
        assert not os.path.exists("out.txt.part")


class TestLineErrors:
    """Each command names the file and line of a reserved token or a malformed span."""

    def fails_with(self, capsys, argv: list[str], message: str) -> None:
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("constrained", [False, True])
    def test_decode_rejects_reserved_token_in_source(self, capsys, constrained):
        model = train_model()
        write("test.src", "teh cat sat\nhe <del> go home\n")
        argv = ["decode", "--model", model, "--src", "test.src", "--out", "o.tag"]
        self.fails_with(
            capsys,
            argv + ["--constrained"] * constrained,
            "test.src:2: reserved token in source at position 1: '<del>'",
        )
        assert not Path("o.tag").exists()

    @pytest.mark.parametrize("cmd", ["repair", "validate"])
    def test_repair_and_validate_reject_reserved_token_in_source(self, capsys, cmd):
        write("tagged.txt", "a b\na b\n")
        write("s.txt", "a b\na </ins>\n")
        self.fails_with(
            capsys,
            [cmd, "--in", "tagged.txt", "--src", "s.txt", "--out", "o.txt"],
            "s.txt:2: reserved token in source at position 1: '</ins>'",
        )
        assert not Path("o.txt").exists()

    def test_rerank_rejects_reserved_token_in_source(self, capsys):
        write("kb.jsonl", '{"id": 0, "tokens": ["a"], "probs": [1.0], '
              '"tag_probs": [[0, 0, 0, 0]], "eos": false}\n')
        write("s.txt", "<dom:x> a\n")
        self.fails_with(
            capsys,
            ["rerank", "--kbest", "kb.jsonl", "--src", "s.txt", "--out", "o.tag"],
            "s.txt:1: reserved token in source at position 0: '<dom:x>'",
        )

    def test_strip_names_the_malformed_line(self, capsys):
        write("d.txt", "a b\n<dom:x> a b c </del> d\n")
        self.fails_with(
            capsys,
            ["strip", "--in", "d.txt", "--out", "o.txt"],
            "d.txt:2: unmatched </del> at position 3",
        )

    @pytest.mark.parametrize("cmd", ["m2", "analyze"])
    def test_scorers_reject_reserved_token_in_hypothesis(self, capsys, cmd):
        write("hyp.txt", "the mouse sat\nthe <del> dog sat\n")
        write("gold.m2", TEST_GOLD)
        self.fails_with(
            capsys,
            [cmd, "--hyp", "hyp.txt", "--gold", "gold.m2"],
            "hyp.txt:2: reserved token in hypothesis at position 1: '<del>'",
        )

    @pytest.mark.parametrize(
        "flag, what", [("--hyp", "hypothesis"), ("--src", "source"), ("--ref", "reference")]
    )
    def test_gleu_rejects_tagged_input(self, capsys, flag, what):
        # scored as words, a tagged hypothesis would print GLEU 0.00 and exit 0
        files = {"--hyp": "hyp.txt", "--src": "src.txt", "--ref": "ref.txt"}
        for name in files.values():
            write(name, "the cat\n")
        write(files[flag], "the <del> cat </del>\n")
        argv = ["gleu"] + [x for kv in files.items() for x in kv]
        self.fails_with(
            capsys, argv, f"{files[flag]}:1: reserved token in {what} at position 1: '<del>'"
        )

    @pytest.mark.parametrize(
        "flag, what",
        [
            ("--hyp-a", "hypothesis"),
            ("--hyp-b", "hypothesis"),
            ("--src", "source"),
            ("--ref", "reference"),
        ],
    )
    def test_bootstrap_rejects_tagged_input(self, capsys, flag, what):
        # scored as words, a tagged system A was reported significantly better
        files = {"--hyp-a": "a.txt", "--hyp-b": "b.txt", "--src": "src.txt", "--ref": "ref.txt"}
        for name in files.values():
            write(name, "the cat\n")
        write(files[flag], "the <del> cat </del>\n")
        argv = ["bootstrap", "--json", "bs.json"] + [x for kv in files.items() for x in kv]
        self.fails_with(
            capsys, argv, f"{files[flag]}:1: reserved token in {what} at position 1: '<del>'"
        )
        assert not Path("bs.json").exists()


def test_filter_out_domain_without_domain_writes_nothing(capsys):
    write("s.txt", "A cat sat .\nA dog ran .\n")
    write("t.txt", "A cat sat .\nA dog ran .\n")
    argv = [
        "filter", "--src", "s.txt", "--tgt", "t.txt", "--preset", "conll",
        "--out-src", "o.src", "--out-tgt", "o.tgt", "--out-domain", "o.dom",
    ]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: pair 1 has no domain label\n"
    assert sorted(os.listdir()) == ["s.txt", "t.txt"]
