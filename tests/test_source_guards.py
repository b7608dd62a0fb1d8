"""Checks on the source of src/gcdlab, read as syntax trees; nothing is
imported or run."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gcdlab"


def _functools_caches(tree):
    """(line, call or None) for every use of functools.lru_cache or
    functools.cache: the Call node where the name is called, else None."""
    names = {"lru_cache": "lru_cache", "cache": "cache"}
    local = {}   # names bound by 'from functools import ...'
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in names:
                    local[alias.asname or alias.name] = alias.name
    called = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            kind = names.get(node.attr) if node.value.id == "functools" else None
        elif isinstance(node, ast.Name):
            kind = local.get(node.id)
        else:
            continue
        if kind:
            yield kind, node.lineno, called.get(id(node))


def _finite_maxsize(call) -> bool:
    if call is None:
        return False
    sizes = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1]
    return (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
            and type(sizes[0].value) is int and sizes[0].value > 0)


def test_every_lru_cache_has_a_finite_maxsize():
    """A table cached per argument shape without a bound grows for the life
    of the process on adversarial shapes.  So every functools.lru_cache in
    src/gcdlab is called with a positive int literal as its maxsize, and
    the unbounded functools.cache is not used."""
    found, bad = 0, []
    for path in sorted(SRC.glob("*.py")):
        for kind, line, call in _functools_caches(ast.parse(path.read_text(encoding="utf-8"))):
            found += 1
            if kind == "cache" or not _finite_maxsize(call):
                bad.append(f"{path.name}:{line}")
    assert not bad, bad
    # multipoly's monomial tables, product columns and shift masks (the x_i
    # multiples that graded_ideal_ranks carries), arith's power sieve, and
    # cli's parser and required config keys
    assert found >= 6


def test_the_maxsize_check_flags_unbounded_caches():
    for source in ("import functools\n@functools.lru_cache(maxsize=None)\ndef f(): pass",
                   "import functools\n@functools.lru_cache\ndef f(): pass",
                   "from functools import lru_cache as memo\n@memo()\ndef f(): pass",
                   "from functools import cache\n@cache\ndef f(): pass",
                   "import functools\ng = functools.cache(len)"):
        uses = list(_functools_caches(ast.parse(source)))
        assert uses and not all(kind == "lru_cache" and _finite_maxsize(call)
                                for kind, _, call in uses), source
    ok = "import functools\n@functools.lru_cache(maxsize=8)\ndef f(): pass"
    assert all(_finite_maxsize(call) for _, _, call in _functools_caches(ast.parse(ok)))


def _float_budget_literals(name, source):
    """(file:line, is the constant) for every float literal 1e-12 in a
    source file; the constant is the assignment FLOAT_TERM_ERROR = 1e-12
    in logreal.py."""
    tree = ast.parse(source)
    constant = {id(node.value) for node in ast.walk(tree)
                if name == "logreal.py" and isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["FLOAT_TERM_ERROR"]}
    return [(f"{name}:{node.lineno}", id(node) in constant) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and node.value == 1e-12]


def test_the_float_error_budget_is_written_once():
    """logreal.enclosure_sign is the one float filter, so its error budget
    lives in one place: the float literal 1e-12 occurs under src/gcdlab
    only as logreal.FLOAT_TERM_ERROR, and a hand-copied filter that
    writes the budget out again is flagged."""
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _float_budget_literals(path.name, path.read_text(encoding="utf-8"))]
    assert [is_constant for _, is_constant in found] == [True], found
    assert found[0][0].startswith("logreal.py:")


def test_the_budget_check_flags_a_planted_literal():
    for name, source in (("harness.py", "radius = r + 1e-12 * (abs(m) + 1.0)"),
                         ("hilbert.py", "FLOAT_TERM_ERROR = 1e-12"),
                         ("logreal.py", "FLOAT_TERM_ERROR = 1e-12\nslack = 1.0E-12 * size"),
                         ("logreal.py", "budget = 0.000000000001")):
        hits = _float_budget_literals(name, source)
        assert not all(is_constant for _, is_constant in hits), (name, source)
    ok = "FLOAT_TERM_ERROR = 1e-12\nradius = FLOAT_TERM_ERROR * 2e-12  # 1e-12"
    assert _float_budget_literals("logreal.py", ok) == [("logreal.py:1", True)]


def _mpmath_imports(tree):
    """(line, runs at import) for every import of mpmath or a submodule: it
    runs at import unless it sits in a function body, so one in a top-level
    if, try, with or class body counts."""
    hits, todo = [], [(node, True) for node in tree.body]
    while todo:
        node, at_import = todo.pop()
        at_import = at_import and not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            names = []
        if any(name.split(".")[0] == "mpmath" for name in names):
            hits.append((node.lineno, at_import))
        todo.extend((child, at_import) for child in ast.iter_child_nodes(node))
    return sorted(hits)


def test_mpmath_is_imported_only_inside_functions():
    """mpmath serves only decimals and the rare interval sign, so it is
    imported in the functions that compute them and a process that needs
    neither (hilbert-verify, a scan without rows) never loads it."""
    local, bad = 0, []
    for path in sorted(SRC.glob("*.py")):
        for line, at_import in _mpmath_imports(ast.parse(path.read_text(encoding="utf-8"))):
            if at_import:
                bad.append(f"{path.name}:{line}")
            local += not at_import
    assert not bad, bad
    # logreal's interval, decimal, ladder and fraction_interval; harness's
    # threshold decimals, sqrt-scaled intervals and poly-gcd decimals
    assert local >= 7


def test_the_mpmath_check_flags_import_time_imports():
    for source in ("import mpmath",
                   "from mpmath import iv",
                   "import os, mpmath.libmp as libmp",
                   "if True:\n    import mpmath",
                   "try:\n    import mpmath\nexcept ImportError:\n    mpmath = None",
                   "with open('x'):\n    from mpmath import mp",
                   "class A:\n    import mpmath",
                   "def f():\n    pass\nimport mpmath"):
        assert any(at_import for _, at_import in _mpmath_imports(ast.parse(source))), source
    ok = ("def f():\n    import mpmath\n"
          "class A:\n    def g(self):\n        if True:\n            from mpmath import iv\n"
          "from .mpmath_free import x")
    assert _mpmath_imports(ast.parse(ok)) == [(2, False), (6, False)]


ROOT = SRC.parents[1]


def _unreached_exports(init_source, sources):
    """The names that ``from .module import name`` in the package's
    __init__ binds and that no file in sources uses outside the name's own
    definition.  sources maps a path to its text: the package's modules
    as "src/gcdlab/<module>.py", the demos and bench files under their own
    paths.  A use is a load of the name or an attribute of that name; a
    bare import, and a use inside the top-level def, class or assignment
    that defines the name in its own module, do not count."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    exports = [(node.module, alias.asname or alias.name, alias.name)
               for node in ast.parse(init_source).body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    unreached = []
    for module, bound, name in exports:
        home = trees.get(f"src/gcdlab/{module}.py")
        skip = set()
        for node in home.body if home else ():
            targets = [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
            if getattr(node, "name", None) == name or name in targets:
                skip.update(id(child) for child in ast.walk(node))
        used = any(
            id(node) not in skip and (
                (isinstance(node, ast.Name) and node.id in (name, bound))
                or (isinstance(node, ast.Attribute) and node.attr in (name, bound)))
            for tree in trees.values() for node in ast.walk(tree))
        if not used:
            unreached.append(bound)
    return unreached


def test_every_export_is_reached_outside_the_tests():
    """Each name gcdlab/__init__.py imports is used by a module of the
    package, a demo or a bench file: library code that only its own tests
    call is not exported, and an export that nothing runs is flagged."""
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for pattern in ("src/gcdlab/*.py", "demos/*.py", "bench/*.py")
               for path in sorted(ROOT.glob(pattern)) if path.name != "__init__.py"}
    init = (SRC / "__init__.py").read_text(encoding="utf-8")
    assert _unreached_exports(init, sources) == []
    # with no sources every export is unreached: the check read all of them
    assert len(_unreached_exports(init, {})) >= 60


def test_the_export_check_flags_a_planted_unreached_export():
    init = "from .mod import used, by_demo, recursive, shadowed, CONST\n"
    sources = {
        "src/gcdlab/mod.py": ("def used(): pass\n"
                              "def by_demo(): pass\n"
                              "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
                              "def shadowed(): pass\n"
                              "CONST = 3\n"),
        "src/gcdlab/other.py": "from .mod import used, shadowed\nused()\n",
        "demos/01_demo.py": "import gcdlab\ngcdlab.by_demo()\n",
    }
    assert _unreached_exports(init, sources) == ["recursive", "shadowed", "CONST"]
    sources["bench/run.py"] = "from gcdlab.mod import CONST, recursive\nprint(CONST)\n"
    assert _unreached_exports(init, sources) == ["recursive", "shadowed"]


def _function_local_relative_imports(tree):
    """The lines of relative imports (``from .x import y``) that sit in a
    function body, at any depth."""
    return sorted({node.lineno
                   for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if isinstance(node, ast.ImportFrom) and node.level})


def test_package_imports_sit_in_the_module_import_block():
    """A module imports its siblings once, at load time: no function under
    src/gcdlab imports from the package.  Only third-party and standard
    modules that a call needs only sometimes (mpmath, random) are imported
    inside functions."""
    bad = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
           for line in _function_local_relative_imports(
               ast.parse(path.read_text(encoding="utf-8")))]
    assert not bad, bad


def test_the_local_import_check_flags_a_planted_import():
    for source in ("def f():\n    from .multipoly import coprime",
                   "class A:\n    def g(self):\n        if True:\n            from . import arith",
                   "async def f():\n    from ..x import y",
                   "def f():\n    def g():\n        from .places import Place"):
        assert _function_local_relative_imports(ast.parse(source)), source
    ok = ("from .multipoly import coprime\n"
          "def f():\n    import mpmath\n    from mpmath import iv\n    import random\n"
          "if True:\n    from .places import Place")
    assert _function_local_relative_imports(ast.parse(ok)) == []


_FLOAT_FILTER = {"float_enclosure", "enclosure_sign"}


def _logreal_uses(tree):
    """The lines that import from logreal (relatively or as gcdlab.logreal),
    or that call float_enclosure or enclosure_sign, by name or as an
    attribute."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            names = [alias.name for alias in node.names]
            if module[-1] == "logreal" or (module in ([""], ["gcdlab"]) and "logreal" in names):
                lines.add(node.lineno)
        elif isinstance(node, ast.Import):
            if any("logreal" in alias.name.split(".") for alias in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in _FLOAT_FILTER:
                lines.add(node.lineno)
    return sorted(lines)


def test_hilbert_takes_nothing_from_logreal():
    """Greedy bases are ordered by the exact rational |u^e|_v, so hilbert
    imports nothing from logreal and calls no float filter."""
    assert _logreal_uses(ast.parse((SRC / "hilbert.py").read_text(encoding="utf-8"))) == []


def test_the_logreal_check_flags_a_planted_use():
    for source in ("from .logreal import LogReal",
                   "from .logreal import *",
                   "from . import linalg, logreal",
                   "import gcdlab.logreal as lr",
                   "from gcdlab.logreal import enclosure_sign",
                   "from gcdlab import logreal",
                   "def f(x):\n    return x.float_enclosure()",
                   "def f(parts):\n    return enclosure_sign(parts)",
                   "s = lr.enclosure_sign(parts)"):
        assert _logreal_uses(ast.parse(source)), source
    ok = ("from .linalg import LinearSpan\nfrom .places import valuation\n"
          "import logging\nfloat_enclosure = None\ns = (a - b).sign()")
    assert _logreal_uses(ast.parse(ok)) == []
