"""No dead helpers in src/: every top-level name and every class member is
reached from src/ itself.

Every module of src/hopfscf is parsed with `ast` (not tokenized: on Python
3.11 an f-string is one STRING token, so a token scan misses the names inside
it).  The scan cuts the code into bodies: each top-level statement, and each
member of a top-level class (a method, property, class or static method, or
class-level assignment; dunders stay with their class) as a body of its own.

- A top-level name is live when a `Name`, an `Attribute.attr` or an import
  `alias` refers to it outside its own definition.
- A member `module.Class.name` is live when an `Attribute` with that `attr`
  appears outside the member's own body.  A bare name or an import alias does
  not count: a local variable called `size` keeps no `size` member alive.

Members are matched by attribute name alone, whatever the object, so the scan
is conservative: a member whose name matches a live attribute anywhere in
src/ stays live (`ScalarQT.den` is read as `phi.den` of a `ClassFunction`).
The scan repeats until nothing changes, dropping the bodies of names and
members already flagged, so a helper whose only caller is itself dead is
flagged too.

Code that only tests call lives under tests/: in a `tests/*_oracle.py` module,
or in the one test module that uses it.  A name or member that stays in src/
with no reader there needs an entry in ALLOWED with its reason, and a
CHANGES.md line.
"""

import ast
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfscf"
ACCEPTANCE_TESTS = Path(__file__).resolve().with_name("test_acceptance.py")

PAPER = "one of the paper's operators, kept as a public entry point"
ACCEPTANCE = "an acceptance-criterion entry point, called from tests/test_acceptance.py"
ALLOWED = {
    "groupscf.tensor_embed": PAPER + " (phi (x) psi on the disjoint union)",
    "groupscf.product_mA": PAPER + " (the summand m_A of the product m)",
    "groupscf.hall_inner": PAPER + " (the Hall inner product)",
    "groupscf.relabel": PAPER + " (transport along the order-preserving bijection)",
    "groupscf.expand_kappa": PAPER + " (a superclass function's coordinates in the kappa basis)",
    "groupscf.restrict": PAPER + " (phi pulled back to the subgroup Q_T)",
    "groupscf.coproduct_k": PAPER + " (the one slice delta_k, checked on its own)",
    "symring.generating_set_rank": ACCEPTANCE,
    "nsym.coproduct_bhat": ACCEPTANCE,
    "qsym.Pi": "public API: the Pi(nu) basis element constructor, as M and L are",
    "charmap.ScfElem.chi_dot": "public API: the chi_dot basis element constructor, twin of ScfElem.kappa",
    "charmap.ScfElem.to_dense": "public API: an element as a dense function; perfbench calls it",
    "symring.SymElem.h": "public API: the h basis element constructor; the repr guard builds with it",
    "linear.LinComb.from_json_dict": "public API: the read half of the README's JSON round trip",
    "scalars.ScalarQT.num": "public API: the numerator; read by the README, the scalar guard and perfbench",
}


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _referenced(nodes: list[ast.AST]) -> tuple[set[str], set[str]]:
    """(every name, import alias and attribute name; the attribute names alone)"""
    refs, attrs = set(), set()
    for sub in (s for node in nodes for s in ast.walk(node)):
        if isinstance(sub, ast.Name):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
            attrs.add(sub.attr)
        elif isinstance(sub, ast.alias):
            refs.add(sub.name.split(".")[-1])
    return refs, attrs


class _Body(NamedTuple):
    module: str
    stmt: ast.stmt
    owner: str  # "module.Class" for a class member, "" for a top-level statement
    defined: list[str]
    refs: set[str]  # what keeps a top-level name live, outside its own definition
    attrs: set[str]  # what keeps a member live, outside its own body

    def keys(self) -> list[tuple[str, str]]:
        return [(f"{self.owner or self.module}.{n}", n) for n in self.defined]


@lru_cache(maxsize=None)
def _bodies(module: str, source: str) -> tuple[_Body, ...]:
    out = []
    for stmt in ast.parse(source).body:
        defined = _defined(stmt)
        members = [s for s in stmt.body if _defined(s)] if isinstance(stmt, ast.ClassDef) else []
        outside = [stmt]
        if members:  # the class without its members: decorators, bases, dunders
            outside = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
            outside += [s for s in stmt.body if s not in members]
        refs, attrs = _referenced(outside)
        out.append(_Body(module, stmt, "", defined, refs - set(defined), attrs))
        for member in members:
            names = _defined(member)
            refs, attrs = _referenced([member])
            owner = f"{module}.{stmt.name}"
            out.append(_Body(module, member, owner, names, refs - {stmt.name}, attrs - set(names)))
    return tuple(out)


def dead_names(sources: dict[str, str], allowed=()) -> list[str]:
    """Each top-level name and class member of `sources` (module stem ->
    source) that nothing reads outside its own body and outside the bodies of
    names already found dead, as `file:line module.name` or
    `file:line module.Class.name`.  A key in `allowed` is never dead, so its
    body counts."""
    bodies = [b for module, source in sources.items() for b in _bodies(module, source)]
    dead: set[str] = set()
    while True:
        refs, attrs = set(), set()
        for body in bodies:
            if body.owner in dead or any(key in dead for key, _ in body.keys()):
                continue
            refs |= body.refs
            attrs |= body.attrs
        found = {
            key
            for body in bodies
            for key, name in body.keys()
            if name not in (attrs if body.owner else refs) and key not in allowed
        }
        if found == dead:
            break
        dead = found
    return [
        f"{body.module}.py:{body.stmt.lineno} {key}"
        for body in bodies
        for key, _ in body.keys()
        if key in dead
    ]


def _src_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_the_scan_sees_dead_names():
    sources = {
        "a": (
            "def used():\n    return 1\n\n"
            "def dead():\n    return dead() + used()\n\n"
            "def chain_head():\n    return chain_tail()\n\n"
            "def chain_tail():\n    return 2\n\n"
            "_K = 3\n"
            "def in_fstring():\n    return 4\n\n"
            "def via_attr():\n    return 5\n\n"
            "def via_import():\n    return 6\n\n"
            "def caller():\n    return f'{_K * in_fstring()}'\n"
        ),
        "b": (
            "from .a import via_import, caller\nfrom . import a\n\n"
            "if __name__ == '__main__':\n    print(caller(), a.via_attr(), used())\n"
        ),
    }
    assert dead_names(sources) == ["a.py:4 a.dead", "a.py:7 a.chain_head", "a.py:10 a.chain_tail"]
    # an allowed name is a root: it and what it calls stay live
    assert dead_names(sources, {"a.chain_head"}) == ["a.py:4 a.dead"]

    members = {
        "c": (
            "class C:\n"
            "    LIVE_ATTR = 1\n"
            "    DEAD_ATTR = 2\n"
            "    def __init__(self):\n        self.x = self.LIVE_ATTR\n"
            "    def used(self):\n        return self.x\n"
            "    def dead(self):\n        return self.dead() + self.helper()\n"
            "    def helper(self):\n        return self.x\n"
            "    @property\n    def dead_prop(self):\n        return 1\n"
            "    @classmethod\n    def dead_cls(cls):\n        return cls()\n"
            "    def root(self):\n        return self.rooted()\n"
            "    def rooted(self):\n        return 3\n"
            "    def size(self):\n        return 4\n\n"
            "def f():\n    size = 5\n    return C().used() + size\n"
        ),
        "d": "from .c import f\n\nprint(f())\n",
    }
    assert dead_names(members) == [
        "c.py:3 c.C.DEAD_ATTR",
        "c.py:8 c.C.dead",
        "c.py:10 c.C.helper",
        "c.py:13 c.C.dead_prop",
        "c.py:16 c.C.dead_cls",
        "c.py:18 c.C.root",
        "c.py:20 c.C.rooted",
        "c.py:22 c.C.size",
    ]
    # an allowed member is a root: it and the members it reads stay live
    assert dead_names(members, {"c.C.root"}) == [
        "c.py:3 c.C.DEAD_ATTR",
        "c.py:8 c.C.dead",
        "c.py:10 c.C.helper",
        "c.py:13 c.C.dead_prop",
        "c.py:16 c.C.dead_cls",
        "c.py:22 c.C.size",
    ]


def test_no_dead_names_in_src():
    modules = _src_sources()
    assert len(modules) >= 10
    found = dead_names(modules, ALLOWED)
    assert not found, "\n".join(found)


def test_every_allowed_name_is_needed():
    modules = _src_sources()
    stale = [
        name
        for name in ALLOWED
        if not any(d.endswith(" " + name) for d in dead_names(modules, set(ALLOWED) - {name}))
    ]
    assert stale == []


def test_every_acceptance_entry_is_read_by_the_acceptance_tests():
    refs, _ = _referenced([ast.parse(ACCEPTANCE_TESTS.read_text())])
    unread = [
        name
        for name, reason in ALLOWED.items()
        if reason == ACCEPTANCE and name.rsplit(".", 1)[1] not in refs
    ]
    assert unread == []
