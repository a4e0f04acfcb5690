"""The library surface: every name in src/ has a reader there, and the README's
quick tour runs against the package namespace."""

import ast
import re
from pathlib import Path

import openconvex

PACKAGE = Path(openconvex.__file__).parent
README = PACKAGE.parents[1] / "README.md"

# Top-level functions and classes that no code in src/ reads, each kept on
# purpose.  "Traced" names are wrapped by name in bench/workloads.py's
# trace_targets, which fails on a missing name; they stay until the benchmark
# traces what the code calls (ROADMAP item 0), and then each one that only
# tests read moves under tests/.
UNREAD = {
    "bounds.descent_gap",         # traced
    "bounds.local_condition",     # traced; the domain-aware chain bound (ROADMAP item 3) reads it
    "bounds.min_chain_length",    # traced; the domain-aware chain bound reads it
    "bounds.sum_identity",        # traced
    "spline.eval_F_float",        # traced
    "spline.grad_F_float",        # traced
    "chain.closed_form_n1",       # bench/verdicts.py checks the N = 1 sweep rows against it
    "spline.domain_distance",     # the domain-aware chain bound reads it
}


def _modules(package: Path) -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))
            if p.stem != "__init__"}


_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced(module: str, node: ast.AST, imports: dict, modules) -> set[tuple[str, str]]:
    """(module, name) of every package-level name that node reads."""
    refs = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs.add(imports.get(n.id, (module, n.id)))
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.value.id in modules):
            refs.add((n.value.id, n.attr))
    return refs


def unread_names(package: Path = PACKAGE) -> set[str]:
    """Top-level functions and classes of the package with no reader in it.

    A reader is a reference from anywhere in another module, or from this
    module outside the name's own definition; ``__init__`` re-exports do not
    count.  ``from .m import a`` makes a bare ``a`` refer to m.a, and
    ``m.a`` is a reference when m is a package module.
    """
    modules = _modules(package)
    defined = {(m, d.name) for m, tree in modules.items()
               for d in tree.body if isinstance(d, _DEFINITION)}
    read = set()
    for m, tree in modules.items():
        imports = {a.asname or a.name: (n.module, a.name)
                   for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level == 1
                   for a in n.names}
        for stmt in tree.body:
            refs = _referenced(m, stmt, imports, modules)
            if isinstance(stmt, _DEFINITION):
                refs.discard((m, stmt.name))
            read |= refs
    return {f"{m}.{name}" for m, name in defined - read}


class TestSurface:
    def test_every_name_has_a_reader_in_src(self):
        # a name outside UNREAD that nothing in src/ reads belongs in tests/
        assert unread_names() - UNREAD == set()

    def test_allowlist_is_current(self):
        # an entry that gained a reader, or left src/, leaves UNREAD too
        assert UNREAD - unread_names() == set()

    def test_guard_on_a_probe_package(self, tmp_path):
        # a function read only by its own body or by __init__ is unread; an
        # imported name and a module attribute are read
        (tmp_path / "__init__.py").write_text("from .a import loop, used\n")
        (tmp_path / "a.py").write_text(
            "def loop(n):\n    return loop(n - 1) if n else 0\n\n\n"
            "def used():\n    return 1\n\n\nclass Kept:\n    pass\n")
        (tmp_path / "b.py").write_text(
            "from . import a\nfrom .a import used as u\n\n\n"
            "def main():\n    return u() + len([a.Kept])\n")
        assert unread_names(tmp_path) == {"a.loop", "b.main"}


def test_readme_quick_tour_runs():
    # the fenced python block under "## Library quick tour" uses only the
    # package namespace, so it fails when __init__ drops a name it needs
    text = README.read_text()
    tour = text[text.index("## Library quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    assert "openconvex as oc" in code
    exec(compile(code, "README quick tour", "exec"), {})
