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
    # multiples that graded_ideal_ranks carries), arith's power sieve and
    # cli's parser
    assert found >= 5


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
