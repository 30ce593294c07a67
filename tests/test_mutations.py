"""A seeded byte-mutation pass over every file format gecdiff reads.

The formats are the k-best dump, the M2 gold file, the model file, the
source, target and domain files of parallel text, and token-line files.
Each mutant is a valid file with one mutation: cut short, one bit flipped, a
run of bytes deleted, a line duplicated, or a piece of the format's own
punctuation inserted.  Every mutant must either load or fail with a
``ValueError`` whose message starts with its path, as ``<file>:<line>:``
for a line of a text file.  A parallel file shorter than its companion may
instead fail at the companion's first line with no partner in it, as
``<companion>:<line>: no line <line> in <file>``.  Any other exception, or
a message that does not name the file, is a fault the user would see
without its file.
"""

from __future__ import annotations

import os
import random
import re

import pytest

from gecdiff.cli import _read_untagged
from gecdiff.corpus_io import load_m2_gold, load_parallel, read_token_lines
from gecdiff.decode_bias import (
    DecodeConfig,
    beam_decode,
    read_kbest,
    record_from_hypothesis,
    write_kbest,
)
from gecdiff.reference_scorer import harvest, load_model, save_model, train_lm
from test_corpus_io import random_m2
from test_decode_bias import synthetic_ref_scorer
from test_reference_scorer import random_model_pairs

JSON_PUNCTUATION = [
    b"{", b"}", b"[", b"]", b",", b":", b'"', b"\\", b"-", b"0", b"1e999", b"null", b"true"
]
M2_PUNCTUATION = [b"|", b"|||", b" ", b"\n", b"-", b"-1", b"0", b"S ", b"A ", b"||"]
# reserved tokens, alone and inside a word, the escape prefix and the closing
# angle escaping looks for, whitespace and the punctuation the tokenizer detaches
TEXT_PUNCTUATION = [
    b" <del> ", b"<del>", b" <dom:x> ", b" ##", b"##", b">", b"\t", b" ", b"\n", b"'", b",", b"("
]
MUTANTS = 2000  # per format; at most about 0.5 s each


def mutate(rng: random.Random, data: bytes, punctuation: list[bytes]) -> bytes:
    """``data`` with one seeded mutation."""
    i = rng.randrange(len(data))
    kind = rng.randrange(5)
    if kind == 0:  # truncate
        return data[:i]
    if kind == 1:  # flip a bit of one byte
        return data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1 :]
    if kind == 2:  # delete a run
        return data[:i] + data[i + rng.randint(1, 12) :]
    if kind == 3:  # duplicate a line
        lines = data.split(b"\n")
        k = rng.randrange(len(lines))
        return b"\n".join(lines[:k] + [lines[k]] + lines[k:])
    return data[:i] + rng.choice(punctuation) + data[i:]  # insert punctuation


def kbest_file(path: str) -> None:
    sc, sources = synthetic_ref_scorer(5)
    records = [
        record_from_hypothesis(sid, h)
        for sid, src in enumerate(sources[:3])
        for h in beam_decode(sc, src, DecodeConfig(beam=3, constrained=sid % 2 == 1))
    ]
    write_kbest(records, path)


def m2_file(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(random_m2(random.Random(7), 6))


def model_file(path: str) -> None:
    pairs = random_model_pairs(3, n=12)
    save_model(path, harvest(pairs), train_lm([t for _, t in pairs], order=2))


def parallel_file(role: str):
    """``make`` and ``load`` for the ``role`` file of a parallel corpus.

    ``make`` writes all three files next to the given path, and a copy of
    the ``role`` one at it; ``load`` reads the corpus with the file at the
    given path in that role.
    """
    rng = random.Random(11)
    pairs = random_model_pairs(5, n=12)
    texts = {
        "src": [" ".join(s) for s, _ in pairs] + ["It's (the) cat's mat, isn't it?"],
        "tgt": [" ".join(t) for _, t in pairs] + ["It is the cat's mat, is it not?"],
        "dom": [rng.choice(["news", "web", "café"]) for _ in range(len(pairs) + 1)],
    }

    def files(path: str) -> dict[str, str]:
        return {r: os.path.join(os.path.dirname(path), f"corpus.{r}") for r in texts}

    def make(path: str) -> None:
        for r, name in files(path).items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in texts[r]))
        with open(files(path)[role], "rb") as src, open(path, "wb") as dst:
            dst.write(src.read())

    def load(path: str) -> None:
        names = files(path)
        names[role] = path
        load_parallel(names["src"], names["tgt"], names["dom"])

    return make, load


def token_line_file(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(" ".join(t) + "\n" for _, t in random_model_pairs(6, n=12)))


def read_hypotheses(path: str) -> None:
    _read_untagged(path, "hypothesis")


@pytest.mark.parametrize(
    "make, load, punctuation, lines",
    [
        pytest.param(kbest_file, read_kbest, JSON_PUNCTUATION, False, id="kbest"),
        pytest.param(m2_file, load_m2_gold, M2_PUNCTUATION, False, id="m2"),
        pytest.param(model_file, load_model, JSON_PUNCTUATION, False, id="model"),
        *(
            pytest.param(*parallel_file(role), TEXT_PUNCTUATION, True, id=role)
            for role in ("src", "tgt", "dom")
        ),
        pytest.param(
            token_line_file, read_token_lines, TEXT_PUNCTUATION, True,
            id="token-lines",
        ),
        pytest.param(
            token_line_file, read_hypotheses, TEXT_PUNCTUATION, True,
            id="untagged-lines",
        ),
    ],
)
def test_mutants_load_or_name_their_file(tmp_path, make, load, punctuation, lines):
    valid = str(tmp_path / "valid")
    make(valid)
    load(valid)
    with open(valid, "rb") as fh:
        data = fh.read()
    rng = random.Random(1)
    path = str(tmp_path / "mutant")
    fault = re.compile(re.escape(path) + (r":\d+: " if lines else ":"))
    # a line of a longer companion file (corpus.<role>) that no line of the mutant pairs
    unpaired = re.compile(
        re.escape(os.path.join(str(tmp_path), "corpus.")) + r"\w+:(\d+): no line \1 in "
        + re.escape(path) + " "
    )
    loaded = 0
    for n in range(MUTANTS):
        mutant = mutate(rng, data, punctuation)
        with open(path, "wb") as fh:
            fh.write(mutant)
        try:
            load(path)
        except ValueError as exc:
            message = str(exc)
            assert fault.match(message) or unpaired.match(message), (n, mutant, exc)
        else:
            loaded += 1
    assert 0 < loaded < MUTANTS  # the pass both spoils files and leaves some readable
