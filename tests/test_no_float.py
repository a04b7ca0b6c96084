"""No float in the library: exactness is the contract.

Every module of src/hopfscf is tokenized; a float or complex literal (such as
0.5, 1e3 or 2j) or any use of the name `float` fails the test.  Strings and
comments are separate tokens, so prose that mentions floats is allowed.  At
run time, every element class and `rational` refuse an inexact coefficient.
"""

import ast
import io
import tokenize
from decimal import Decimal
from pathlib import Path

import pytest

from hopfscf.charmap import ScfElem
from hopfscf.compositions import SubsetLabel
from hopfscf.fqsym import FQSymElem
from hopfscf.nsym import NSymElem, NSymTensor
from hopfscf.qsym import QSymElem, QSymTensor
from hopfscf.scalars import rational
from hopfscf.symring import Partition, SymElem

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfscf"


def float_uses(source: str) -> list[str]:
    out = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NUMBER and type(ast.literal_eval(tok.string)) is not int:
            out.append(f"line {tok.start[0]}: literal {tok.string}")
        elif tok.type == tokenize.NAME and tok.string == "float":
            out.append(f"line {tok.start[0]}: name float")
    return out


def test_the_scan_sees_floats():
    assert float_uses("x = 1 / 2.0\n") == ["line 1: literal 2.0"]
    assert float_uses("y = float(x) + 1e3 + 2j\n") == [
        "line 1: name float",
        "line 1: literal 1e3",
        "line 1: literal 2j",
    ]
    assert float_uses("z = 0x1F + 10_000 + 7  # a float\ns = 'float 0.5'\n") == []


def test_no_float_in_src():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = {}
    for path in modules:
        uses = float_uses(path.read_text())
        if uses:
            found[path.name] = uses
    assert not found, found


INEXACT_COEFFICIENT = {
    "QSymElem": lambda c: QSymElem("M", {(1,): c}),
    "NSymElem": lambda c: NSymElem("H", {(1,): c}),
    "QSymTensor": lambda c: QSymTensor(("M", "M"), {((1,), (1,)): c}),
    "NSymTensor": lambda c: NSymTensor(("H", "H"), {((1,), (1,)): c}),
    "SymElem": lambda c: SymElem({Partition((1,)): c}),
    "FQSymElem": lambda c: FQSymElem({(1,): c}),
    "ScfElem": lambda c: ScfElem(2, {(2, "kappa", SubsetLabel.of(2, ())): c}),
    "rational": rational,
}


@pytest.mark.parametrize("value", [0.1, 2.0, Decimal(1)], ids=repr)
@pytest.mark.parametrize("name", sorted(INEXACT_COEFFICIENT))
def test_inexact_coefficients_are_refused(name, value):
    with pytest.raises(TypeError):
        INEXACT_COEFFICIENT[name](value)
