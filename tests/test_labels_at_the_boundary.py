"""A `SubsetLabel` is built only from outside input.

Every kernel in src/hopfscf computes on int masks, and a composition crosses
to its mask through `compositions.mask_of_comp`, which checks the degree
bound.  Each module is parsed with `ast`, and every `SubsetLabel(...)` and
`SubsetLabel.of(...)` call is listed by module and by the top-level function
or class member that holds it; a nested function counts as its holder's.  A
site outside ALLOWED fails the test, and so does an entry of ALLOWED with no
site left.  An entry naming a module covers all of it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfscf"

CALLER = "reads a caller's "
ALLOWED = {
    "compositions": "defines SubsetLabel and the public API that reads a caller's subsets and compositions",
    "charmap.ScfElem._key": CALLER + "key, whose label comes in as a SubsetLabel or as its mask",
    "charmap.ScfElem.kappa": CALLER + "members, checked against the degree",
    "charmap.ScfElem.chi_dot": CALLER + "members, checked against the degree",
    "nsym.structure_constant": CALLER + "I and J",
    "nsym.admissible_selectors": CALLER + "I and J",
    "nsym.structure_constants_sweep": CALLER + "I and J",
    "qsym._convert_into": "its output labels: perfbench/test_perfbench.py pins the comp_of_set call",
}


def _builds_a_label(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "of":
        func = func.value
    return getattr(func, "id", getattr(func, "attr", None)) == "SubsetLabel"


def label_sites(module: str, source: str) -> list[tuple[str, int]]:
    """(holder, line) of every label built in source: `module.function`,
    `module.Class.member`, `module.Class` for the rest of a class body, and
    `module` for any other top-level statement."""
    holders = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.ClassDef):
            holders += [(f"{module}.{stmt.name}" + _dotted(member), member) for member in stmt.body]
        else:
            holders.append((module + _dotted(stmt), stmt))
    return sorted(
        (holder, sub.lineno) for holder, node in holders for sub in ast.walk(node) if _builds_a_label(sub)
    )


def _dotted(stmt: ast.stmt) -> str:
    return f".{stmt.name}" if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) else ""


def _allowed(holder: str) -> bool:
    return holder in ALLOWED or holder.split(".")[0] in ALLOWED


def _src_sites() -> list[tuple[str, int]]:
    return [site for path in sorted(SRC.glob("*.py")) for site in label_sites(path.stem, path.read_text())]


def test_the_scan_sees_label_calls():
    source = (
        "from .compositions import SubsetLabel\n"
        "from . import compositions\n"
        "TOP = SubsetLabel(3, 1)\n"
        "def f(n):\n"
        "    def inner(m):\n"
        "        return compositions.SubsetLabel(n, m)\n"
        "    return inner, SubsetLabel.of(n, (1,))\n"
        "class C:\n"
        "    UNIT = SubsetLabel(0)\n"
        "    def g(self):\n"
        "        return f'{SubsetLabel(2, 1)}'\n"
        "def prose():\n"
        "    '''SubsetLabel(n, m) in a docstring is not a call'''\n"
        "    return members_of(SubsetLabel)\n"
    )
    assert label_sites("a", source) == [("a", 3), ("a.C", 9), ("a.C.g", 11), ("a.f", 6), ("a.f", 7)]


def test_labels_are_built_only_at_the_boundary():
    sites = _src_sites()
    assert {holder.split(".")[0] for holder, _ in sites} >= {"compositions", "charmap", "nsym", "qsym"}
    inside = [f"{holder}:{line}" for holder, line in sites if not _allowed(holder)]
    assert inside == []


def test_every_allowed_site_is_needed():
    holders = {holder for holder, _ in _src_sites()}
    stale = [
        name
        for name in ALLOWED
        if not any(holder == name or holder.split(".")[0] == name for holder in holders)
    ]
    assert stale == []
