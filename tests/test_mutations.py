"""A seeded byte-mutation pass over the k-best dump, the M2 gold file and the model file.

Each mutant is a valid file with one mutation: cut short, one bit flipped, a
run of bytes deleted, a line duplicated, or a piece of the format's own
punctuation inserted.  Every mutant must either load or fail with a
``ValueError`` whose message starts with its path; any other exception, or
a message that does not name the file, is a fault the user would see
without its file.
"""

from __future__ import annotations

import random

import pytest

from gecdiff.corpus_io import load_m2_gold
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
MUTANTS = 2000  # per format; about 0.5 s each


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


@pytest.mark.parametrize(
    "make, load, punctuation",
    [
        pytest.param(kbest_file, read_kbest, JSON_PUNCTUATION, id="kbest"),
        pytest.param(m2_file, load_m2_gold, M2_PUNCTUATION, id="m2"),
        pytest.param(model_file, load_model, JSON_PUNCTUATION, id="model"),
    ],
)
def test_mutants_load_or_name_their_file(tmp_path, make, load, punctuation):
    valid = str(tmp_path / "valid")
    make(valid)
    load(valid)
    with open(valid, "rb") as fh:
        data = fh.read()
    rng = random.Random(1)
    path = str(tmp_path / "mutant")
    loaded = 0
    for n in range(MUTANTS):
        mutant = mutate(rng, data, punctuation)
        with open(path, "wb") as fh:
            fh.write(mutant)
        try:
            load(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:"), (n, mutant, exc)
        else:
            loaded += 1
    assert 0 < loaded < MUTANTS  # the pass both spoils files and leaves some readable
