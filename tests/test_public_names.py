"""Every public function and method of the package has a caller in the
package or the benchmark: a name only tests read is dead code.

The guard matches by name only. It counts every read of an identifier, as a
name or as an attribute of anything, so a method passes unread whenever some
other function, method or attribute of the same name is read: a property
`CasNetWeights.c` that only tests read would pass on every read of
`config.c`, and a method called `data` would pass on every `tensor.data`. Telling them apart needs
the receiver's type, which a static pass over the source does not have, so
such a name needs a reader's check."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pcsimp"


def _referenced(node) -> Counter:
    """How often each identifier is read as a name or an attribute under node."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _public_defs(tree):
    """Top-level functions and the methods of top-level classes, minus names starting with _."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for d in members:
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) and not d.name.startswith("_"):
                yield d


def test_every_public_function_and_method_has_a_caller_outside_tests():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    everywhere = Counter()
    for tree in trees.values():
        everywhere += _referenced(tree)
    unused = [
        f"{path.name}:{d.lineno} {d.name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for d in _public_defs(tree)
        if everywhere[d.name] <= _referenced(d)[d.name]
    ]
    assert not unused, "public names no package or benchmark code reads: " + ", ".join(unused)
