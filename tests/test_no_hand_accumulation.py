"""Products, coproducts and basis maps are rules on labels, extended by
`linear.extend` and `linear.extend2`: no hand-written accumulation loop.

The modules whose operations are all such extensions are tokenized; a call
to `_add_term(` in any of them fails the test.  An import of the name, and
prose in strings and comments, are allowed.
"""

import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfscf"
MODULES = ("qsym.py", "symring.py", "fqsym.py", "verify.py", "charmap.py")


def add_term_calls(source: str) -> list[int]:
    toks = [
        tok
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT)
    ]
    return [
        tok.start[0]
        for tok, nxt in zip(toks, toks[1:])
        if tok.type == tokenize.NAME and tok.string == "_add_term" and nxt.string == "("
    ]


def test_the_scan_sees_calls():
    assert add_term_calls("for k, v in x:\n    _add_term(acc, k, v)\n") == [2]
    assert add_term_calls("linear._add_term(\n    acc, k, v)\n") == [1]
    assert add_term_calls("from .linear import _add_term, extend\n# _add_term(acc)\ns = '_add_term('\n") == []


def test_no_add_term_calls():
    found = {name: calls for name in MODULES if (calls := add_term_calls((SRC / name).read_text()))}
    assert not found, found
