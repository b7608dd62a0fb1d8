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
