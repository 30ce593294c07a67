from __future__ import annotations

import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from gecdiff.text_norm import (
    DEL_CLOSE,
    DEL_OPEN,
    INS_CLOSE,
    INS_OPEN,
    TAG_TOKENS,
    _escape,
    detokenize,
    domain_name,
    domain_token,
    find_reserved,
    is_domain_token,
    is_reserved_token,
    same_tokens,
    tokenize,
)


def test_whitespace_split():
    assert tokenize("the cat sat") == ["the", "cat", "sat"]


def test_boundary_punct_peeled():
    assert tokenize("Hello, world.") == ["Hello", ",", "world", "."]
    assert tokenize("(see [4]; also)") == ["(", "see", "[", "4", "]", ";", "also", ")"]
    assert tokenize('he said "stop"') == ["he", "said", '"', "stop", '"']


def test_interior_punct_kept():
    # commas and periods peel only at chunk edges
    assert tokenize("3.14 a,b") == ["3.14", "a,b"]


def test_single_char_tokens_survive():
    assert tokenize(". , ?") == [".", ",", "?"]
    assert tokenize("a") == ["a"]


def test_apostrophe_split_every_position():
    assert tokenize("don't") == ["don", "'t"]
    assert tokenize("students'") == ["students", "'"]
    assert tokenize("isn't've") == ["isn", "'t", "'ve"]
    # leading apostrophe is position 0: no cut there
    assert tokenize("'tis") == ["'tis"]


def test_empty_and_blank():
    assert tokenize("") == []
    assert tokenize("   ") == []


@pytest.mark.parametrize(
    "text",
    ["the cat sat on the mat .", "Hello, world!", "isn't it's they're", "( a [b] c )"],
)
def test_tokenize_idempotent(text):
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


def test_tag_tokens_recognized():
    for t in (DEL_OPEN, DEL_CLOSE, INS_OPEN, INS_CLOSE):
        assert t in TAG_TOKENS
        assert is_reserved_token(t)
    assert "<dom:physics>" not in TAG_TOKENS
    assert is_domain_token("<dom:physics>")
    assert is_reserved_token("<dom:physics>")
    assert not is_reserved_token("word")


def test_domain_token_round_trip():
    tok = domain_token("math.GT")
    assert is_domain_token(tok)
    assert domain_name(tok) == "math.GT"
    with pytest.raises(ValueError):
        domain_token("bad name")
    with pytest.raises(ValueError):
        domain_token("a>b")


def test_reserved_lookalikes_escaped():
    toks = tokenize("use <del> carefully")
    assert toks == ["use", "##<del>", "carefully"]
    assert not any(is_reserved_token(t) for t in toks)
    assert detokenize(toks) == "use <del> carefully"


def test_escape_layers_stack():
    toks = tokenize("##<ins>")
    assert toks == ["####<ins>"]
    assert detokenize(toks) == "##<ins>"


def test_detokenize_attachment():
    assert detokenize(["Hello", ",", "world", "."]) == "Hello, world."
    assert detokenize(["don", "'t", "go"]) == "don't go"
    assert detokenize(["(", "a", ")"]) == "(a)"
    assert detokenize(['"', "hi", '"', "there"]) == '"hi" there'


def test_detokenize_rejects_reserved():
    with pytest.raises(ValueError) as err:
        detokenize(["a", DEL_OPEN, "b"])
    assert "1" in str(err.value)


PLAIN_WORDS = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=6), min_size=0, max_size=12
)


@given(PLAIN_WORDS)
def test_tokenize_fixed_point_on_token_output(words):
    text = " ".join(words)
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


@given(st.text(alphabet="ab<>/:dinsel# .,'()", max_size=40))
def test_tokenize_never_emits_reserved(text):
    assert not any(is_reserved_token(t) for t in tokenize(text))


@given(PLAIN_WORDS)
def test_detokenize_round_trip_plain(words):
    toks = tokenize(" ".join(words))
    assert tokenize(detokenize(toks)) == toks


# ---------------------------------------------------------------------------
# The tokenizer and reserved-token checks as they were before their fast
# paths (prefix and suffix tests ahead of the regexes, bare words skipping the
# chunk splitter), kept verbatim as oracles.

_ORACLE_DOMAIN_RE = re.compile(r"<dom:[^>\s]+>\Z")
_ORACLE_ESCAPED_RE = re.compile(r"(##)*(?:<del>|</del>|<ins>|</ins>|<dom:[^>\s]+>)\Z")
_ORACLE_DETACH = set(',.;:!?"()[]')


def oracle_is_domain_token(token: str) -> bool:
    return _ORACLE_DOMAIN_RE.fullmatch(token) is not None


def oracle_is_reserved_token(token: str) -> bool:
    return token in TAG_TOKENS or oracle_is_domain_token(token)


def oracle_escape(token: str) -> str:
    if _ORACLE_ESCAPED_RE.fullmatch(token):
        return "##" + token
    return token


def oracle_split_apostrophes(token: str) -> list[str]:
    cuts = [i for i, c in enumerate(token) if c == "'" and i > 0]
    if not cuts:
        return [token]
    pieces = []
    prev = 0
    for i in cuts:
        if i > prev:
            pieces.append(token[prev:i])
        prev = i
    pieces.append(token[prev:])
    return pieces


def oracle_split_chunk(chunk: str) -> list[str]:
    lead: list[str] = []
    while len(chunk) > 1 and chunk[0] in _ORACLE_DETACH:
        lead.append(chunk[0])
        chunk = chunk[1:]
    trail: list[str] = []
    while len(chunk) > 1 and chunk[-1] in _ORACLE_DETACH:
        trail.append(chunk[-1])
        chunk = chunk[:-1]
    return lead + oracle_split_apostrophes(chunk) + trail[::-1]


def oracle_tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    for chunk in text.split():
        tokens.extend(oracle_split_chunk(chunk))
    return [oracle_escape(t) for t in tokens]


ADVERSARIAL = [
    "<dom:>", "<dom:a>b>", "##<del>", "####<ins>", "x'", "'tis", "rock'n'roll", "''",
    "(don't)", "[<ins>]", "<dom:a>", "<dom:a b>", "<dom:a>>", "<dom:a\t>", "##<dom:x>",
    "<del>", "</del>", "<ins>", "</ins>", "<del", "del>", "#<del>", "<DEL>", "<dom:",
    ">", "<", "'", "(", ")", "[", "]", '"', ",", ".", "a", "ab", "it's", "'s'",
]
PIECES = ADVERSARIAL + ["<", ">", "dom:", "del", "/", "#", "##", "'", "x", "yz", ".", "("]


def fuzz_texts(rng: random.Random, n: int):
    for _ in range(n):
        parts = []
        for _ in range(rng.randint(0, 8)):
            parts.append(rng.choice(PIECES))
            parts.append(rng.choice(["", "", "", " ", " ", "\t", "\n", "  "]))
        yield "".join(parts)


def test_tokenize_matches_oracle_on_adversarial_tokens():
    for tok in ADVERSARIAL:
        for text in (tok, f" {tok} ", f"a {tok} b", tok + tok, f"({tok})", f"{tok}'s."):
            assert tokenize(text) == oracle_tokenize(text), text


def test_tokenize_matches_oracle_on_seeded_fuzz():
    rng = random.Random(90210)
    for text in fuzz_texts(rng, 20_000):
        assert tokenize(text) == oracle_tokenize(text), text


# detached punctuation, the apostrophe, the pieces of escaped and reserved
# tokens, and whitespace that str.split breaks on beyond the space
TOKENIZER_PIECES = [
    *',.;:!?"()[]\'', ">", "<del>", "<dom:x>", "##", "a", "b", "x",
    " ", " ", "\t", "\xa0", "\x1c", "\u2028",
]


@settings(max_examples=1000)
@given(st.lists(st.sampled_from(TOKENIZER_PIECES), max_size=16).map("".join))
@example("##<del>")
@example("x <ins>,")
@example("a , b ' c")
def test_tokenize_matches_oracle_on_drawn_text(text):
    assert tokenize(text) == oracle_tokenize(text)


def test_token_predicates_match_oracle_on_seeded_fuzz():
    rng = random.Random(4471)
    tokens = set(ADVERSARIAL)
    for _ in range(20_000):
        tokens.add("".join(rng.choice(PIECES) for _ in range(rng.randint(1, 4))))
    for tok in sorted(tokens):
        assert is_domain_token(tok) == oracle_is_domain_token(tok), tok
        assert is_reserved_token(tok) == oracle_is_reserved_token(tok), tok
        assert _escape(tok) == oracle_escape(tok), tok


def test_find_reserved_matches_a_scan():
    rng = random.Random(77)
    cases = [[], ["<dom:>"], ["<dom:a>b>", "##<del>"], ["a", "<dom:x>"], ["<dom:", "</ins>"]]
    for _ in range(5_000):
        cases.append([rng.choice(ADVERSARIAL) for _ in range(rng.randint(0, 6))])
    for toks in cases:
        want = next((i for i, t in enumerate(toks) if oracle_is_reserved_token(t)), -1)
        assert find_reserved(toks) == want, toks
        assert find_reserved(tuple(toks)) == want, toks


def test_same_tokens_ignores_sequence_type():
    assert same_tokens(["a", "b"], ("a", "b"))
    assert same_tokens(("a",), ("a",)) and same_tokens([], ())
    assert not same_tokens(["a"], ("a", "b")) and not same_tokens(["a", "b"], ["b", "a"])
