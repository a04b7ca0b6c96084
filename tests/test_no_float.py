"""No float in the library: exactness is the contract.

Every module of src/hopfscf is parsed with `ast`; a float or complex literal
(such as 0.5, 1e3 or 2j) or any use of the name `float` fails the test, also
inside an f-string (on Python 3.11 a tokenizer sees an f-string as one STRING
token).  Strings and comments are not code, so prose that mentions floats is
allowed.  At run time, every element class, `rational`, evaluation points,
class-function values and scale factors, and the generating-set rank sweep
refuse an inexact number, and so does every class that takes the group
parameter nu, and every Pi transition display and its inverse check.  Labels
are exact too: a composition or partition part, a permutation letter, a group
index (also as a label of kappa, chi, dot_chi, the lattice oracle or restrict),
an ScfElem degree and a SubsetLabel ambient or mask must be an `int` (read with
`operator.index`), so 2.0 or Decimal(1) is refused with TypeError and 2.5 is
never truncated to 2.
"""

import ast
from decimal import Decimal
from pathlib import Path

import pytest

from fqsym_oracle import FQSymElem
from hopfscf import qsym
from hopfscf.charmap import ScfElem
from hopfscf.compositions import Composition, SubsetLabel
from hopfscf.groupscf import ClassFunction, GroupSpec, chi, dot_chi, kappa, lattice_superclass_oracle, one, restrict
from hopfscf.nsym import NSymElem, NSymTensor
from hopfscf.qsym import Pi, QSymElem, QSymTensor
from hopfscf.scalars import Q, T, rational
from hopfscf.symring import Partition, SymElem, generating_set_rank
from transition_oracle import (
    L_from_pi_entry,
    M_from_pi_entry,
    pi_from_L_entry,
    pi_from_M_entry,
    pi_L_matrices_inverse,
    pi_M_matrices_inverse,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfscf"


def float_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            kind = "literal"
        elif isinstance(node, ast.Name) and node.id == "float":
            kind = "name"
        else:
            continue
        found.append((node.lineno, node.col_offset, kind, ast.get_source_segment(source, node)))
    return [f"line {line}: {kind} {text}" for line, _, kind, text in sorted(found)]


def test_the_scan_sees_floats():
    assert float_uses("x = 1 / 2.0\n") == ["line 1: literal 2.0"]
    assert float_uses("y = float(x) + 1e3 + 2j\n") == [
        "line 1: name float",
        "line 1: literal 1e3",
        "line 1: literal 2j",
    ]
    assert float_uses("z = 0x1F + 10_000 + 7  # a float\ns = 'float 0.5'\n") == []
    assert float_uses('s = f"{x * 0.5} {float(x)}"\n') == ["line 1: literal 0.5", "line 1: name float"]


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
    "ScalarQT.eval_at": lambda c: (Q + T).eval_at(c, 0),
    "ClassFunction": lambda c: ClassFunction(GroupSpec.standard(2, 2), [c, 1]),
    "ClassFunction.scale": lambda c: one(GroupSpec.standard(2, 2)).scale(c),
    "generating_set_rank": lambda c: generating_set_rank(c, 1, 1),
    "Pi nu": lambda c: Pi((1, 2), c),
    "GroupSpec nu": lambda c: GroupSpec.standard(c, 3),
    "ScfElem nu": lambda c: ScfElem.kappa(c, 3, {1}),
    "pi_from_L_entry nu": lambda c: pi_from_L_entry(2, 0, 1, c),
    "L_from_pi_entry nu": lambda c: L_from_pi_entry(3, 0, 0, c),
    "pi_from_M_entry nu": lambda c: pi_from_M_entry(2, 0, 1, c),
    "M_from_pi_entry nu": lambda c: M_from_pi_entry(2, 0, 0, c),
    "pi_L_matrices_inverse nu": lambda c: pi_L_matrices_inverse(3, c),
    "pi_M_matrices_inverse nu": lambda c: pi_M_matrices_inverse(3, c),
}


@pytest.mark.parametrize("value", [0.1, 2.0, Decimal(1)], ids=repr)
@pytest.mark.parametrize("name", sorted(INEXACT_COEFFICIENT))
def test_inexact_coefficients_are_refused(name, value):
    with pytest.raises(TypeError):
        INEXACT_COEFFICIENT[name](value)


INEXACT_LABEL = {
    "Composition part": lambda v: Composition((v, 1)),
    "qsym.M part": lambda v: qsym.M((v, 2)),
    "QSymElem label": lambda v: QSymElem("M", {(v,): 1}),
    "NSymElem label": lambda v: NSymElem("H", {(v,): 1}),
    "QSymTensor label": lambda v: QSymTensor(("M", "M"), {((1,), (v,)): 1}),
    "Partition part": lambda v: Partition((v, 1)),
    "SymElem label": lambda v: SymElem({(v,): 1}),
    "FQSymElem letter": lambda v: FQSymElem({(v, 2): 1}),
    "GroupSpec index": lambda v: GroupSpec(2, (v, 2)),
    "ScfElem degree": lambda v: ScfElem(2, {(v, "kappa", SubsetLabel.of(2, ())): 1}),
    "SubsetLabel ambient": SubsetLabel,
    "SubsetLabel mask": lambda v: SubsetLabel(3, v),
    "kappa label": lambda v: kappa(GroupSpec.standard(2, 3), {v}),
    "chi label": lambda v: chi(GroupSpec.standard(2, 3), {v}),
    "dot_chi label": lambda v: dot_chi(GroupSpec.standard(2, 3), {v}),
    "lattice_superclass_oracle label": lambda v: lattice_superclass_oracle(GroupSpec.standard(2, 3), {v}),
    "restrict target": lambda v: restrict(one(GroupSpec.standard(2, 3)), {v}),
}


@pytest.mark.parametrize("value", [0.1, 2.0, Decimal(1)], ids=repr)
@pytest.mark.parametrize("name", sorted(INEXACT_LABEL))
def test_inexact_labels_are_refused(name, value):
    with pytest.raises(TypeError):
        INEXACT_LABEL[name](value)
