"""Source and documentation hygiene, read with the stdlib `ast` and `re`:
no dead imports or unreferenced private helpers in `src/`, and no README
drift from the package's public names."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import superbialg

_ROOT = Path(__file__).resolve().parent.parent
SRC = _ROOT / "src" / "superbialg"
README = (_ROOT / "README.md").read_text()
DOCS = {name: (_ROOT / name).read_text() for name in ("README.md", "ERRATA.md")}


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_import_is_used():
    # `__init__` imports the public names, which `__all__ = dir()` exports
    unused = {name: sorted(set(_imported_names(tree)) - set(_referenced_names(tree)))
              for name, tree in _trees().items() if name != "__init__.py"}
    assert {name: found for name, found in unused.items() if found} == {}


def test_every_private_definition_is_referenced():
    trees = _trees()
    referenced = {ref for tree in trees.values() for ref in _referenced_names(tree)}
    unreferenced = [
        f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in referenced]
    assert unreferenced == []


def test_readme_names_every_public_name():
    missing = [name for name in superbialg.__all__
               if not re.search(rf"(?<!\w){re.escape(name)}(?!\w)", README)]
    assert missing == []


def test_readme_public_lists_are_the_public_names():
    # the module table's "Public:" lists, parentheticals left out, name
    # exactly the exported names that are not submodules
    public = set()
    for row in re.findall(r"Public: ([^|\n]*)", README):
        public |= set(_spans(re.sub(r"\([^)]*\)", "", row)))
    assert public == {name for name in superbialg.__all__
                      if not inspect.ismodule(getattr(superbialg, name))}


def test_readme_module_names_exist():
    modules = {info.name for info in pkgutil.iter_modules(superbialg.__path__)}
    quoted = [match.groups() for span in re.findall(r"`([^`\n]+)`", README)
              if (match := re.match(r"(\w+)\.(\w+)", span)) and match[1] in modules]
    assert quoted
    stale = [f"{module}.{name}" for module, name in quoted
             if not hasattr(importlib.import_module(f"superbialg.{module}"), name)]
    assert stale == []


def _spans(text):
    return re.findall(r"`([^`\n]+)`", text)


def test_quoted_test_names_exist():
    # a test a document names as the one pinning a fact must still exist
    defined = set()
    for path in (_ROOT / "tests").glob("*.py"):
        defined |= {node.name for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    quoted = {(doc, span) for doc, text in DOCS.items() for span in _spans(text)
              if re.fullmatch(r"test_\w+|Test\w+", span)}
    assert quoted
    assert sorted(q for q in quoted if q[1] not in defined) == []


def _attributes(cls):
    """The names `cls` defines or sets on `self` in its own methods."""
    names = set(dir(cls))
    for node in ast.walk(ast.parse(inspect.getsource(cls))):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.add(node.attr)
    return names


def test_quoted_class_attributes_exist():
    classes = {name: value for name in superbialg.__all__
               if inspect.isclass(value := getattr(superbialg, name))}
    quoted = {(doc, match[1], match[2]) for doc, text in DOCS.items()
              for span in _spans(text)
              if (match := re.match(r"([A-Z]\w*)\.(\w+)", span))
              and match[1] in classes}
    assert quoted
    assert sorted((doc, cls, attr) for doc, cls, attr in quoted
                  if attr not in _attributes(classes[cls])) == []
