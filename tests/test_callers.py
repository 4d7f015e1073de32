"""Every def and class in src/e8g2 is reached from the program: a stdlib-ast
scan of the names the package defines against the names src/ and bench/
read.  A reference is a bare name that is read (Load context), an attribute
name or a string constant (``bench/spans.py`` names the methods it wraps as
strings).  Dunder methods and ``@check`` bodies, which the registry
reaches, are exempt, and so are the few definitions in ``TEST_ONLY``.  A
helper only tests call belongs in ``tests/oracles.py`` or nowhere.

A second scan asks the same of each defaulted parameter: some call in src/
or bench/ sets it, by keyword or by position.  Otherwise its default is the
only value in use and should be a constant, unless ``TEST_SEAMS`` lists it.
A call is matched to a def by name, and to an ``__init__`` by its class's
name; a call with ``*args`` or ``**kwargs`` counts as setting what it may
set.

A third scan asks it of each field of a dataclass or ``NamedTuple`` in
src/e8g2: some attribute read in src/ or bench/ names it.  A field that
nothing reads is carried for no one and should go.

A fourth keeps the packed-key format private to ``symra``: no other module
in src/e8g2 names ``_Packing`` or ``_extent``; they reach it through
``symra.sum_of_products``.

A fifth asks the first scan's question of each name a module-level
assignment in src/e8g2 binds: src/ or bench/ references it.  Dunders such
as ``__version__`` are exempt, and ``TEST_ONLY`` covers both scans.

A sixth asks it of each def in ``tests/oracles.py``: some test module, or
another oracle, references it.  An oracle whose code under test is gone
goes with it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "e8g2").glob("*.py"))
PROGRAM = sorted(p for d in ("src", "bench") for p in (ROOT / d).rglob("*.py"))
ORACLES = ROOT / "tests" / "oracles.py"

# definitions that only tests reach, each pinning a paper fact
TEST_ONLY = (
    ("conjugate", "pins how the conjugating words move radical factors"),
    ("restrict_root", "ties G2 to E8: the 240 roots restrict to G2's roots"),
    ("DEFAULT_EMBEDDING", "ties G2 to E8: the 240 roots restrict to G2's roots"),
)

# defaulted parameters that only tests set, each a seam for a test fake
TEST_SEAMS = ()


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
    """The Load-context names, attribute names and string constants."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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
    program = [p.read_text() for p in PROGRAM]
    rows = uncalled(package, program)
    exempt = {name for name, _ in TEST_ONLY}
    assert [row for row in rows if row.split()[-1] not in exempt] == []
    # and each exemption is still needed, by this scan or the module-name one
    flagged = rows + unread_names(package, program)
    assert {row.split()[-1] for row in flagged} == exempt


def test_every_oracle_is_used():
    tests = [p.read_text() for p in sorted(ORACLES.parent.glob("*.py"))]
    assert uncalled({str(ORACLES.relative_to(ROOT)): ORACLES.read_text()}, tests) == []


def module_names(source: str) -> list[tuple[str, int]]:
    """(name, line) of each name a module-level assignment binds, tuple
    targets unpacked, apart from dunders."""
    out = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        out += [(n.id, n.lineno) for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)
                and not (n.id.startswith("__") and n.id.endswith("__"))]
    return out


def unread_names(package: dict[str, str], program: list[str]) -> list[str]:
    """``path:line name`` of each module-level name in ``package`` that no
    source in ``program`` reads."""
    seen = set().union(*(references(src) for src in program))
    return sorted(f"{path}:{line} {name}" for path, src in package.items()
                  for name, line in module_names(src) if name not in seen)


def test_scan_flags_an_unread_module_name():
    src = ("__version__ = '1'\nUSED = 1\nUNUSED, STORED = 2, 3\nNOTED: int = 4\n"
           "BY_ATTR = BY_STRING = 5\n\n\ndef f():\n    local = USED\n    return local\n\n\n"
           "print(m.BY_ATTR)\n")
    # a store elsewhere is not a read; a name bound inside a def is not scanned
    other = "getattr(m, 'BY_STRING')\nSTORED = 0\n"
    assert unread_names({"m.py": src}, [src, other]) == [
        "m.py:3 STORED", "m.py:3 UNUSED", "m.py:4 NOTED"]
    assert unread_names({"m.py": src}, [src, other, "print(UNUSED, STORED, NOTED)"]) == []


def test_every_module_name_is_read():
    package = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    rows = unread_names(package, [p.read_text() for p in PROGRAM])
    exempt = {name for name, _ in TEST_ONLY}
    assert [row for row in rows if row.split()[-1] not in exempt] == []


def _defaulted(fn, owner: str | None) -> list[tuple[str, int | None]]:
    """(name, call position) of each defaulted parameter of ``fn``; the
    position counts a call's positional arguments, so it skips a method's
    ``self`` and is None for a keyword-only parameter."""
    positional = fn.args.posonlyargs + fn.args.args
    skip = owner is not None and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def defaulted_parameters(source: str) -> list[tuple[str, int, str, int | None]]:
    """(callee name, line, parameter, call position) of each defaulted
    parameter of each def, apart from ``@check`` bodies and dunders other
    than ``__init__``, which is named by its class."""
    tree = ast.parse(source)
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
             for f in c.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or _is_check_body(fn):
            continue
        cls = owner.get(id(fn))
        if fn.name == "__init__" and cls is not None:
            name = cls
        elif fn.name.startswith("__") and fn.name.endswith("__"):
            continue
        else:
            name = fn.name
        out += [(name, fn.lineno, arg, pos) for arg, pos in _defaulted(fn, cls)]
    return out


def _sets(call: ast.Call, arg: str, pos: int | None) -> bool:
    if any(kw.arg is None or kw.arg == arg for kw in call.keywords):
        return True
    if pos is None:
        return False
    return (pos < len(call.args)
            or any(isinstance(a, ast.Starred) for a in call.args))


def unset_defaults(package: dict[str, str], program: list[str]) -> list[str]:
    """``path:line name(param)`` of each defaulted parameter in ``package``
    that no call in ``program`` sets."""
    calls: dict[str, list[ast.Call]] = {}
    for src in program:
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return sorted(f"{path}:{line} {name}({arg})" for path, src in package.items()
                  for name, line, arg, pos in defaulted_parameters(src)
                  if not any(_sets(c, arg, pos) for c in calls.get(name, ())))


def test_scan_flags_an_unset_default():
    src = ("def f(a, b=1, *, c=2):\n    pass\n\n\n"
           "class K:\n    def __init__(self, n=0):\n        pass\n\n"
           "    def m(self, k=0):\n        pass\n\n\n"
           "@check('x', 'y')\ndef _body(order=1):\n    pass\n\n\n"
           "f(0)\nK().m(1)\n")
    assert unset_defaults({"m.py": src}, [src]) == ["m.py:1 f(b)", "m.py:1 f(c)", "m.py:6 K(n)"]
    assert unset_defaults({"m.py": src}, [src, "f(0, 5, c=3)\nK(n=2)"]) == []
    # *args may set any positional parameter, **kwargs any parameter
    assert unset_defaults({"m.py": src}, [src, "f(*xs)\nK(**kw)"]) == ["m.py:1 f(c)"]


def test_every_default_is_set_by_a_caller():
    package = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    rows = unset_defaults(package, [p.read_text() for p in PROGRAM])
    exempt = {name for name, _ in TEST_SEAMS}
    assert [row for row in rows if row.split()[-1] not in exempt] == []
    # and each exemption is still needed
    assert {row.split()[-1] for row in rows} == exempt


def _decorator_or_base_name(node) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def fields(source: str) -> list[tuple[str, int, str]]:
    """(class, line, field) of each annotated field of each ``@dataclass``
    or ``NamedTuple`` class."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        if not (any(_decorator_or_base_name(d) == "dataclass" for d in cls.decorator_list)
                or any(_decorator_or_base_name(b) == "NamedTuple" for b in cls.bases)):
            continue
        out += [(cls.name, stmt.lineno, stmt.target.id) for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return out


def attribute_reads(source: str) -> set[str]:
    return {n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def unread_fields(package: dict[str, str], program: list[str]) -> list[str]:
    """``path:line Class.field`` of each dataclass or NamedTuple field in
    ``package`` that no attribute read in ``program`` names."""
    reads = set().union(*(attribute_reads(src) for src in program))
    return sorted(f"{path}:{line} {cls}.{name}" for path, src in package.items()
                  for cls, line, name in fields(src) if name not in reads)


def test_scan_flags_an_unread_field():
    src = ("from dataclasses import dataclass\nfrom typing import NamedTuple\n\n\n"
           "@dataclass(frozen=True)\nclass A:\n    read: int\n    unread: int\n\n\n"
           "class B(NamedTuple):\n    n: int\n    m: int\n\n\n"
           "class Plain:\n    ignored: int\n\n\n"
           "a = A(1, 2)\nprint(a.read, B(0, 1).n)\na.unread = 3\n")
    # a store, a keyword or a string naming the field is not a read
    assert unread_fields({"m.py": src}, [src, "A(unread=1)\ngetattr(a, 'm')"]) == [
        "m.py:13 B.m", "m.py:8 A.unread"]
    assert unread_fields({"m.py": src}, [src, "x.unread + x.m"]) == []


def test_every_field_is_read():
    package = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert unread_fields(package, [p.read_text() for p in PROGRAM]) == []


# the packed-key format, which only symra may name
PACKED_FORMAT = ("_Packing", "_extent")


def packed_format_users(package: dict[str, str]) -> list[str]:
    """``path name`` of each ``PACKED_FORMAT`` name that a module other than
    ``symra.py`` references or imports."""
    return sorted(f"{path} {name}" for path, src in package.items()
                  if Path(path).name != "symra.py"
                  for name in PACKED_FORMAT
                  if name in references(src) | imported_names(src))


def imported_names(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_scan_flags_a_packed_format_user():
    user = "from .symra import LaurentPoly, _extent\n\n\nk = symra._Packing\n"
    symra = "class _Packing:\n    pass\n\n\ndef _extent():\n    pass\n"
    assert packed_format_users({"src/m.py": user, "src/symra.py": symra}) == [
        "src/m.py _Packing", "src/m.py _extent"]
    assert packed_format_users({"src/m.py": "from .symra import sum_of_products\n"}) == []


def test_packed_format_stays_in_symra():
    package = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert packed_format_users(package) == []
