"""Deterministic tokenization and detokenization.

Every pipeline stage works on token sequences: lists of non-empty strings
containing no whitespace.  The tokenizer is a rule-based Treebank-style
approximation: split on whitespace, peel boundary punctuation, split
contractions at interior apostrophes.  It is idempotent, so already-tokenized
text passes through unchanged, and ``detokenize`` restores the original
non-whitespace character content exactly.

Four tag tokens (``<del>``, ``</del>``, ``<ins>``, ``</ins>``) and domain
tokens (``<dom:NAME>``) are reserved.  Raw text that happens to contain one
as a standalone token is escaped with a ``##`` prefix on tokenize and
unescaped on detokenize, so reserved tokens in a sequence always carry
structural meaning.
"""

from __future__ import annotations

import re

TokenSeq = list[str]

DEL_OPEN = "<del>"
DEL_CLOSE = "</del>"
INS_OPEN = "<ins>"
INS_CLOSE = "</ins>"

TAG_TOKENS = (DEL_OPEN, DEL_CLOSE, INS_OPEN, INS_CLOSE)
_TAG_SET = frozenset(TAG_TOKENS)

_DOMAIN_RE = re.compile(r"<dom:[^>\s]+>\Z")
# Tokens that must be escaped: a reserved token, or one already escaped.
_ESCAPED_RE = re.compile(r"(##)*(?:<del>|</del>|<ins>|</ins>|<dom:[^>\s]+>)\Z")

ESCAPE_PREFIX = "##"

# Punctuation detached from word boundaries.  Apostrophes are handled by the
# contraction rule instead so possessives keep their surface form.
_DETACH = set(',.;:!?"()[]')

_ATTACH_LEFT = {",", ".", ";", ":", "!", "?", ")", "]"}
_ATTACH_RIGHT = {"(", "["}


def is_domain_token(token: str) -> bool:
    # the prefix test is exact (the pattern starts with it) and spares the regex
    return token.startswith("<dom:") and _DOMAIN_RE.fullmatch(token) is not None


def is_reserved_token(token: str) -> bool:
    """True for tag tokens and domain tokens."""
    return token in _TAG_SET or is_domain_token(token)


def find_reserved(tokens: TokenSeq) -> int:
    """Position of the first reserved token in ``tokens``, or -1 if none is."""
    # C-level scans first: only a tag or a "<dom:"-prefixed token can be
    # reserved, and such a token puts "<dom:" into the joined text
    if _TAG_SET.isdisjoint(tokens) and "<dom:" not in " ".join(tokens):
        return -1
    return next((i for i, tok in enumerate(tokens) if is_reserved_token(tok)), -1)


def same_tokens(a: TokenSeq, b: TokenSeq) -> bool:
    """Token-wise equality; a list and a tuple of the same tokens are equal."""
    return a == b if type(a) is type(b) else tuple(a) == tuple(b)


def domain_token(name: str) -> str:
    """Build the ``<dom:NAME>`` token for a domain name."""
    if not name or any(c.isspace() for c in name) or ">" in name:
        raise ValueError(f"invalid domain name: {name!r}")
    return f"<dom:{name}>"


def domain_name(token: str) -> str:
    if not is_domain_token(token):
        raise ValueError(f"not a domain token: {token!r}")
    return token[len("<dom:") : -1]


def _escape(token: str) -> str:
    # every token the pattern matches ends with ">"
    if token.endswith(">") and _ESCAPED_RE.fullmatch(token):
        return ESCAPE_PREFIX + token
    return token


def _unescape(token: str) -> str:
    if token.startswith(ESCAPE_PREFIX) and _ESCAPED_RE.fullmatch(token):
        return token[len(ESCAPE_PREFIX) :]
    return token


def _split_apostrophes(token: str) -> list[str]:
    # Cut before every apostrophe past position 0 ("don't" -> "don", "'t").
    # Cutting at all of them keeps the rule idempotent on its own output.
    if token.find("'", 1) < 0:
        return [token]
    cuts = [i for i, c in enumerate(token) if c == "'" and i > 0]
    pieces = []
    prev = 0
    for i in cuts:
        if i > prev:
            pieces.append(token[prev:i])
        prev = i
    pieces.append(token[prev:])
    return pieces


def _split_chunk(chunk: str) -> list[str]:
    lead: list[str] = []
    while len(chunk) > 1 and chunk[0] in _DETACH:
        lead.append(chunk[0])
        chunk = chunk[1:]
    trail: list[str] = []
    while len(chunk) > 1 and chunk[-1] in _DETACH:
        trail.append(chunk[-1])
        chunk = chunk[:-1]
    return lead + _split_apostrophes(chunk) + trail[::-1]


def tokenize(text: str) -> TokenSeq:
    """Tokenize raw text into a flat token sequence.

    Case and digits are preserved.  Idempotent: tokenizing the single-space
    join of the output returns the same sequence.
    """
    tokens: TokenSeq = []
    for chunk in text.split():
        # most chunks are a bare word: no edge punctuation, no inner
        # apostrophe; a one-character chunk is its own token either way
        if len(chunk) > 1 and (
            chunk[0] in _DETACH or chunk[-1] in _DETACH or chunk.find("'", 1) >= 0
        ):
            tokens.extend(_split_chunk(chunk))
        else:
            tokens.append(chunk)
    if ">" not in text:  # every token _escape changes ends with ">"
        return tokens
    return [_escape(t) for t in tokens]


def detokenize(tokens: TokenSeq) -> str:
    """Render a token sequence back to a plain string.

    The sequence must not contain reserved tokens; strip tags first.
    Attachment rules: closing punctuation and apostrophe-initial tokens
    attach left, opening brackets attach right, double quotes alternate.
    """
    i = find_reserved(tokens)
    if i >= 0:
        raise ValueError(f"reserved token at position {i}: {tokens[i]!r}")
    out: list[str] = []
    glue_next = False
    quote_open = False
    for tok in tokens:
        tok = _unescape(tok)
        if tok == '"':
            attach_left = quote_open
            quote_open = not quote_open
        else:
            attach_left = tok in _ATTACH_LEFT or tok.startswith("'")
        if out and (glue_next or attach_left):
            out[-1] += tok
        else:
            out.append(tok)
        glue_next = tok in _ATTACH_RIGHT or (tok == '"' and quote_open)
    return " ".join(out)
