"""Every definition in ``src/sharp_ineq`` has a caller in ``src``.

The AST of each module (``__init__.py``, which only re-exports, aside) is
walked for its top-level functions and classes and the methods of those
classes.  A definition counts as called when its name appears as a name or
an attribute anywhere in ``src`` outside its own body.  Dunder methods are
called by the language and are skipped.
"""

import ast
import collections
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sharp_ineq"

# definitions kept, with no caller in src, for the audit of the continuum
# witnesses (ROADMAP item 9), which gives each a caller or deletes it
UNCALLED_KEPT = {
    "calculus.FunctionModel.without_certificates",
    "calculus.sup_norm",
    "calculus.l1_norm",
    "calculus.seminorm_local",
    "calculus.holder_lower_estimate",
    "modulus.validate",
    "operators.steklov_average",
    "operators.hypersingular_norm_witness",
    "operators.hypersingular_truncated",
    "operators.mixed_difference",
}


def _identifiers(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _definitions(module: str, tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{module}.{node.name}.{sub.name}", sub


def _uncalled() -> set:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"}
    total = collections.Counter(i for tree in trees.values() for i in _identifiers(tree))
    uncalled = set()
    for module, tree in trees.items():
        for qualname, node in _definitions(module, tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = sum(1 for i in _identifiers(node) if i == name)
            if total[name] == own:
                uncalled.add(qualname)
    return uncalled


def test_every_definition_has_a_caller_in_src():
    uncalled = _uncalled()
    assert sorted(uncalled - UNCALLED_KEPT) == [], "definitions with no caller in src"
    assert sorted(UNCALLED_KEPT - uncalled) == [], "kept as uncalled, but now called or gone"
