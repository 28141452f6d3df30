"""Every definition in ``src/sharp_ineq`` has a caller in ``src``, every
defaulted parameter of one is passed by some call in ``src``, and every
parameter is read by its function's body.

The AST of each module (``__init__.py``, which only re-exports, aside) is
walked for its top-level functions and classes and the methods of those
classes.  A definition counts as called when its name appears as a name or
an attribute anywhere in ``src`` outside its own body.  Dunder methods are
called by the language and are skipped.  A defaulted parameter counts as
passed when a call by the function's name (the class's, for ``__init__``),
outside the function's own body, gives it by position or keyword a value
other than its default, or splats ``*`` or ``**`` arguments.  A parameter
(``self`` or ``cls`` aside) counts as read when its name is loaded anywhere
in the body; a body that only raises ``NotImplementedError`` (an interface
stub) is skipped.
"""

import ast
import collections
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sharp_ineq"

# definitions kept with no caller in src, each with the reason it is kept
UNCALLED_KEPT = {
    "calculus.sup_norm": "a perfbench per-layer metric names it; ROADMAP item 1 "
    "removes the metric first",
    "calculus.l1_norm": "a perfbench per-layer metric names it; ROADMAP item 1 "
    "removes the metric first",
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


def _trees() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
            if p.name != "__init__.py"}


def _is_method(qualname: str, node: ast.FunctionDef) -> bool:
    """Whether the first parameter is bound by the call (``self``, ``cls``)."""
    decorators = {getattr(d, "id", None) for d in node.decorator_list}
    return qualname.count(".") == 2 and "staticmethod" not in decorators


def _uncalled() -> set:
    trees = _trees()
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
    assert sorted(uncalled - set(UNCALLED_KEPT)) == [], "definitions with no caller in src"
    assert sorted(set(UNCALLED_KEPT) - uncalled) == [], "kept as uncalled, but now called or gone"


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
    """``(qualname, node, callee, index, name, default)`` per defaulted
    parameter of each function in ``_definitions``: ``callee`` is the name
    calls use (the class for ``__init__``), ``index`` the parameter's
    position in a call, ``None`` for a keyword-only one."""
    for qualname, node in _definitions(module, tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        callee = node.name
        args = node.args.posonlyargs + node.args.args
        if _is_method(qualname, node):
            args = args[1:]
            if node.name == "__init__":
                callee = qualname.split(".")[1]
        first = len(args) - len(node.args.defaults)
        for i, (a, default) in enumerate(zip(args[first:], node.args.defaults), first):
            yield qualname, node, callee, i, a.arg, default
        for a, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield qualname, node, callee, None, a.arg, default


def _passes(call: ast.Call, index, name: str, default: ast.expr) -> bool:
    """Whether ``call`` may give the parameter a value other than ``default``."""
    if any(k.arg is None for k in call.keywords) or any(
        isinstance(a, ast.Starred) for a in call.args
    ):
        return True  # possibly inside a splat
    given = [k.value for k in call.keywords if k.arg == name]
    if index is not None and len(call.args) > index:
        given.append(call.args[index])
    return any(ast.dump(v) != ast.dump(default) for v in given)


def _unpassed() -> set:
    trees = _trees()
    calls = collections.defaultdict(list)
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                f = n.func
                calls[f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)].append(n)
    unpassed = set()
    for module, tree in trees.items():
        for qualname, node, callee, index, name, default in _defaulted(tree, module):
            if qualname in UNCALLED_KEPT:
                continue
            own = {id(n) for n in ast.walk(node)}  # a call of itself passes nothing in
            if not any(_passes(c, index, name, default) for c in calls[callee]
                       if id(c) not in own):
                unpassed.add(f"{qualname}.{name}")
    return unpassed


def test_every_defaulted_parameter_is_passed_in_src():
    # a settable value that src never sets has one value: a constant
    unpassed = _unpassed()
    assert sorted(unpassed - set(UNPASSED_KEPT)) == [], "defaulted parameters never passed in src"
    assert sorted(set(UNPASSED_KEPT) - unpassed) == [], "kept as unpassed, but now passed or gone"


# parameters kept unread, each with the reason it is kept
UNREAD_KEPT = {
    "operators.TableKernel.value.d": "the kernel interface: ``PowerLawKernel.value`` reads ``d``",
}


def _is_stub(node: ast.FunctionDef) -> bool:
    """A body (its docstring aside) that only raises ``NotImplementedError``."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _unread() -> set:
    unread = set()
    for module, tree in _trees().items():
        for qualname, node in _definitions(module, tree):
            if not isinstance(node, ast.FunctionDef) or _is_stub(node):
                continue
            a = node.args
            params = a.posonlyargs + a.args
            if _is_method(qualname, node):
                params = params[1:]
            params += a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread |= {f"{qualname}.{p.arg}" for p in params if p.arg not in read}
    return unread


def test_every_parameter_is_read():
    # a parameter no body reads changes nothing: every caller must still build it
    unread = _unread()
    assert sorted(unread - set(UNREAD_KEPT)) == [], "parameters their function never reads"
    assert sorted(set(UNREAD_KEPT) - unread) == [], "kept as unread, but now read or gone"
