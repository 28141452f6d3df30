"""Every definition in ``src/sharp_ineq`` has a caller in ``src``, and every
defaulted parameter of one is passed by some call in ``src``.

The AST of each module (``__init__.py``, which only re-exports, aside) is
walked for its top-level functions and classes and the methods of those
classes.  A definition counts as called when its name appears as a name or
an attribute anywhere in ``src`` outside its own body.  Dunder methods are
called by the language and are skipped.  A defaulted parameter counts as
passed when a call by the function's name (the class's, for ``__init__``)
gives it by position or keyword, or splats ``*`` or ``**`` arguments.
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


# defaulted parameters kept, with no call in src that passes them, each with
# the reason it is kept
UNPASSED_KEPT = {
    "operators.charge_nagy_rhs.seminorm_value": "a caller's charge seminorm, for a "
    "density with no certificate at h; tests pass one",
    "operators.charge_seminorm.spec": "the quadrature of the continuum search; src "
    "searches lattices only, tests pass Monte Carlo specs",
    "oracle.exact_verify.f": "a caller's exact witness; the exact randomized suites "
    "of ROADMAP item 2 pass one per trial",
    "cli.main.argv": "the arguments of an in-process run; the console script reads sys.argv",
    "oracle.mc_cross_check.samples": "the sample count of one check; the CLI runs the "
    "default, tests pass fewer",
}


def _defaulted(tree: ast.Module, module: str):
    """``(qualname, callee, index, name)`` per defaulted parameter of each
    function in ``_definitions``: ``callee`` is the name calls use (the class
    for ``__init__``), ``index`` the parameter's position in a call, ``None``
    for a keyword-only one."""
    for qualname, node in _definitions(module, tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        callee = node.name
        args = node.args.posonlyargs + node.args.args
        decorators = {getattr(d, "id", None) for d in node.decorator_list}
        if qualname.count(".") == 2 and "staticmethod" not in decorators:
            args = args[1:]  # self or cls, bound by the call
            if node.name == "__init__":
                callee = qualname.split(".")[1]
        for i, a in enumerate(args[len(args) - len(node.args.defaults):],
                              len(args) - len(node.args.defaults)):
            yield qualname, callee, i, a.arg
        for a, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield qualname, callee, None, a.arg


def _passes(call: ast.Call, index, name: str) -> bool:
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True  # passed by keyword, or possibly inside a ** splat
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def _unpassed() -> set:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"}
    calls = collections.defaultdict(list)
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                f = n.func
                calls[f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)].append(n)
    unpassed = set()
    for module, tree in trees.items():
        for qualname, callee, index, name in _defaulted(tree, module):
            if qualname in UNCALLED_KEPT:
                continue
            if not any(_passes(c, index, name) for c in calls[callee]):
                unpassed.add(f"{qualname}.{name}")
    return unpassed


def test_every_defaulted_parameter_is_passed_in_src():
    # a settable value that src never sets has one value: a constant
    unpassed = _unpassed()
    assert sorted(unpassed - set(UNPASSED_KEPT)) == [], "defaulted parameters never passed in src"
    assert sorted(set(UNPASSED_KEPT) - unpassed) == [], "kept as unpassed, but now passed or gone"
