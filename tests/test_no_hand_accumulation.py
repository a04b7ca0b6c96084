"""Products, coproducts and basis maps are rules on labels, extended by
`linear.extend` and `linear.extend2`: no hand-written accumulation loop.

Every module of src/hopfscf but `linear.py`, which defines `_add_term` and is
the one place where it is called, is parsed with `ast` (not tokenized: on
Python 3.11 an f-string is one STRING token, so a token scan misses a call
inside it).  A call to `_add_term` or `x._add_term` fails the test.  An import
of the name, and prose in strings and comments, are allowed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfscf"
MODULES = tuple(sorted(p.name for p in SRC.glob("*.py") if p.name != "linear.py"))


def add_term_calls(source: str) -> list[int]:
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_add_term"
    )


def test_the_scan_sees_calls():
    assert add_term_calls("for k, v in x:\n    _add_term(acc, k, v)\n") == [2]
    assert add_term_calls("linear._add_term(\n    acc, k, v)\n") == [1]
    assert add_term_calls("from .linear import _add_term, extend\n# _add_term(acc)\ns = '_add_term('\n") == []
    assert add_term_calls('s = f"{_add_term(acc, k, v)}"\n') == [1]


def test_every_module_but_linear_is_scanned():
    assert "linear.py" not in MODULES
    assert {"nsym.py", "qsym.py", "compositions.py", "scalars.py", "groupscf.py"} <= set(MODULES)


def test_no_add_term_calls():
    found = {name: calls for name in MODULES if (calls := add_term_calls((SRC / name).read_text()))}
    assert not found, found
