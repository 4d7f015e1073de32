"""Every def and class in src/e8g2 is reached from the program: a stdlib-ast
scan of the names the package defines against the names src/ and bench/
read.  A reference is a bare name, an attribute name or a string constant
(``bench/spans.py`` names the methods it wraps as strings).  Dunder methods
and ``@check`` bodies, which the registry reaches, are exempt, and so are
the few definitions in ``TEST_ONLY``.  A helper only tests call belongs in
``tests/oracles.py`` or nowhere."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "e8g2").glob("*.py"))
PROGRAM = sorted(p for d in ("src", "bench") for p in (ROOT / d).rglob("*.py"))

# definitions that only tests reach, each pinning a paper fact
TEST_ONLY = (
    ("conjugate", "pins how the conjugating words move radical factors"),
    ("restrict_root", "pins the torus restriction of the radical roots"),
)


def _is_check_body(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "check" for d in node.decorator_list)


def definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of every def and class, nested ones included, apart
    from dunders and ``@check`` bodies."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(n.name, n.lineno) for n in ast.walk(ast.parse(source))
            if isinstance(n, kinds) and not (n.name.startswith("__") and n.name.endswith("__"))
            and not _is_check_body(n)]


def references(source: str) -> set[str]:
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def uncalled(package: dict[str, str], program: list[str]) -> list[str]:
    """``path:line name`` of each definition in ``package`` that no source
    in ``program`` references."""
    refs = set().union(*(references(src) for src in program))
    return sorted(f"{path}:{line} {name}" for path, src in package.items()
                  for name, line in definitions(src) if name not in refs)


def test_scan_flags_an_uncalled_def():
    src = ("def used():\n    pass\n\n\ndef unused():\n    pass\n\n\n"
           "class K:\n    def __init__(self):\n        pass\n\n"
           "    def by_string(self):\n        pass\n\n\n"
           "@check('x', 'y')\ndef _body():\n    pass\n\n\nused(K())\n")
    assert uncalled({"m.py": src}, [src, "getattr(K, 'by_string')"]) == ["m.py:5 unused"]
    assert uncalled({"m.py": src}, [src]) == ["m.py:13 by_string", "m.py:5 unused"]


def test_every_definition_has_a_caller():
    package = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    rows = uncalled(package, [p.read_text() for p in PROGRAM])
    exempt = {name for name, _ in TEST_ONLY}
    assert [row for row in rows if row.split()[-1] not in exempt] == []
    # and each exemption is still needed
    assert {row.split()[-1] for row in rows} == exempt
