"""No dead helpers in src/: every top-level name is reached from src/ itself.

Every module of src/hopfscf is parsed with `ast` (not tokenized: on Python
3.11 an f-string is one STRING token, so a token scan misses the names inside
it).  A reference is a `Name`, an `Attribute.attr` or an import `alias`, and
it counts only outside the definition of the name it refers to.  The scan
repeats until nothing changes, dropping the bodies of names already flagged,
so a helper whose only caller is itself dead is flagged too.

Code that only tests call lives under tests/: in a `tests/*_oracle.py` module,
or in the one test module that uses it.  A name that stays in src/ with no
caller there needs an entry in ALLOWED with its reason, and a CHANGES.md line.
"""

import ast
from functools import lru_cache
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfscf"

PAPER = "one of the paper's operators, kept as a public entry point"
ACCEPTANCE = "an acceptance-criterion entry point, called from tests/test_acceptance.py"
ALLOWED = {
    "groupscf.tensor_embed": PAPER + " (phi (x) psi on the disjoint union)",
    "groupscf.product_mA": PAPER + " (the summand m_A of the product m)",
    "groupscf.hall_inner": PAPER + " (the Hall inner product)",
    "groupscf.relabel": PAPER + " (transport along the order-preserving bijection)",
    "groupscf.expand_kappa": PAPER + " (a superclass function's coordinates in the kappa basis)",
    "symring.generating_set_rank": ACCEPTANCE,
    "nsym.coproduct_bhat": ACCEPTANCE,
    "verify.pi_L_matrices_inverse": ACCEPTANCE,
    "verify.pi_M_matrices_inverse": ACCEPTANCE,
    "verify.bh_matrices_inverse": ACCEPTANCE,
    "verify.fqsym_descent_oracle": ACCEPTANCE,
    "qsym.Pi": "public API: the Pi(nu) basis element constructor, as M and L are",
    "fqsym.project_pi": "public API: the projection FQSym -> QSym",
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


def _referenced(node: ast.AST) -> list[str]:
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out.append(sub.name.split(".")[-1])
    return out


@lru_cache(maxsize=None)
def _statements(module: str, source: str) -> tuple:
    """(module, top-level statement, names it defines, names it references)"""
    return tuple(
        (module, stmt, _defined(stmt), _referenced(stmt)) for stmt in ast.parse(source).body
    )


def dead_names(sources: dict[str, str], allowed=()) -> list[str]:
    """Each top-level name of `sources` (module stem -> source) with no
    reference outside its own definition and outside the definitions of names
    already found dead, as `file:line module.name`.  A `module.name` in
    `allowed` is never dead, so its body counts."""
    stmts = [s for module, source in sources.items() for s in _statements(module, source)]
    dead: set[tuple[str, str]] = set()
    while True:
        live = set()
        for module, _, defined, refs in stmts:
            if any((module, n) in dead for n in defined):
                continue
            live.update(r for r in refs if r not in defined)
        found = {
            (m, n)
            for m, _, defined, _ in stmts
            for n in defined
            if n not in live and f"{m}.{n}" not in allowed
        }
        if found == dead:
            break
        dead = found
    return [
        f"{module}.py:{stmt.lineno} {module}.{n}"
        for module, stmt, defined, _ in stmts
        for n in defined
        if (module, n) in dead
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
