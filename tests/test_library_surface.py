"""Every public name in the library has a caller, and every defaulted
parameter a call site that sets it.

A public top-level function, class or constant of `src/ttm_lab`, and a public
method (or property) of a top-level class, must be referenced by library code
outside its own definition, be exported through `ttm_lab.__all__`, or be
listed in ALLOWED with the reason it stays; methods are listed as
`Class.method`. Only `Name` and `Attribute` nodes count as references, so a
mention in a docstring or an import alone does not keep a name alive. A
method is matched by its name alone, so `np.clip(...)` counts as a reference
to `Tensor.clip`.

A parameter with a default, of a top-level function or of a method other
than `__init__`, must be set by some call in `src/ttm_lab`, by keyword or by
position, or be listed in ALLOWED_DEFAULTS with the reason it stays. Calls
are matched to definitions by name alone, as above.

Every field of a `src/ttm_lab` dataclass is read somewhere in the library,
its tests or the benchmark: an attribute of that name is loaded.

The names of ModelParams' flat-buffer layout appear only in the modules
that own them (LAYOUT_NAMES).
"""

import ast
import pathlib
from collections import Counter

import ttm_lab

SRC = pathlib.Path(ttm_lab.__file__).parent

ALLOWED = {
    "active_set_schedule_check": "verifies a gsot trace against the "
                                 "(1 - k/K) * n schedule; the benchmark and "
                                 "the acceptance gates call it",
    "eval_arith_program": "reference evaluator for arithmetic programs",
}


def _public_definitions(tree):
    """(key, name, node) of each public top-level def, class or assignment,
    and of each public method of a top-level class (key `Class.method`)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, name, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")):
                    yield f"{node.name}.{sub.name}", sub.name, sub


def _references(node):
    """Count of each name used by the Name/Attribute nodes under node."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _uncalled():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    everywhere = sum((_references(tree) for tree in trees), Counter())
    uncalled = set()
    for tree in trees:
        for key, name, node in _public_definitions(tree):
            if everywhere[name] == _references(node)[name]:
                uncalled.add(key)
    return uncalled


def test_every_public_name_has_a_caller():
    orphans = _uncalled() - set(ttm_lab.__all__) - set(ALLOWED)
    assert not orphans, f"public names nothing calls: {sorted(orphans)}"


def test_allowlist_entries_are_still_uncalled():
    # an entry that gained a caller (or was deleted) no longer needs listing
    assert set(ALLOWED) <= _uncalled()


ALLOWED_DEFAULTS = {
    "gsot_pipeline.context": "dropping it changes W_h's draw and the "
                             "trace.jsonl op counts",
    "checkpoint_load.cfg": "checks a checkpoint's shapes against an expected "
                           "config; the checkpoint tests set it",
    "main.argv": "the CLI tests pass their arguments through it",
}


def _defaulted_parameters(tree):
    """(key, name, params, defaulted) of each top-level function and each
    method but `__init__` of a top-level class. `params` are the names a
    positional argument binds to in order, without the bound self or cls of
    a method called on an object."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found = [(node.name, node, False)]
        elif isinstance(node, ast.ClassDef):
            found = [(f"{node.name}.{sub.name}", sub, not any(
                         isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in sub.decorator_list))
                     for sub in node.body
                     if isinstance(sub, ast.FunctionDef)
                     and sub.name != "__init__"]
        else:
            continue
        for key, fn, bound in found:
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = [a.arg for a in
                         positional[len(positional) - len(args.defaults):]]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults)
                          if d is not None]
            if defaulted:
                params = [a.arg for a in positional][1 if bound else 0:]
                yield key, fn.name, params, defaulted


def _set_parameters(call, params):
    """Names of `params` that `call` sets by position or by keyword; a
    `*args` or `**kwargs` argument may set any of them."""
    out = set()
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            out.update(params[i:])
            break
        out.update(params[i:i + 1])
    for kw in call.keywords:
        out.update(params if kw.arg is None else [kw.arg])
    return out


def _callee(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _unset_defaults():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    calls = [node for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unset = set()
    for tree in trees:
        for key, name, params, defaulted in _defaulted_parameters(tree):
            seen = set()
            for call in calls:
                if _callee(call) == name:
                    seen |= _set_parameters(call, params)
            unset.update(f"{key}.{p}" for p in defaulted if p not in seen)
    return unset


def test_every_defaulted_parameter_is_set_by_a_caller():
    unset = _unset_defaults() - set(ALLOWED_DEFAULTS)
    assert not unset, f"defaulted parameters no call site sets: {sorted(unset)}"


def test_allowed_defaults_are_still_unset():
    assert set(ALLOWED_DEFAULTS) <= _unset_defaults()


def _dataclass_fields(tree):
    """`Class.field` and field name of each annotated field of a top-level
    @dataclass class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "dataclass"
                for d in node.decorator_list):
            for sub in node.body:
                if (isinstance(sub, ast.AnnAssign)
                        and isinstance(sub.target, ast.Name)):
                    yield f"{node.name}.{sub.target.id}", sub.target.id


def test_every_dataclass_field_is_read():
    root = SRC.parent.parent
    loaded = {node.attr
              for folder in (SRC, root / "tests", root / "perfbench")
              for path in sorted(folder.rglob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    unread = sorted(key for path in sorted(SRC.glob("*.py"))
                    for key, name in _dataclass_fields(
                        ast.parse(path.read_text()))
                    if name not in loaded)
    assert not unread, f"dataclass fields nothing reads: {unread}"


# the names of ModelParams' flat-buffer layout, and the modules that may use
# them: the layout and the descent step that reads it live in model.py, and
# a parameter's gradient view is also read by backward in numerics.py
LAYOUT_NAMES = {name: {"model.py"} for name in (
    "_spans", "_values", "_grads", "_temp_lo", "_rebind", "_grad_buffer",
    "_lay_out")}
LAYOUT_NAMES["_grad_view"] = {"model.py", "numerics.py"}


def test_the_buffer_layout_stays_behind_model():
    leaks = sorted(
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _references(ast.parse(path.read_text()))
        if name in LAYOUT_NAMES and path.name not in LAYOUT_NAMES[name])
    assert not leaks, f"layout names used outside their owners: {leaks}"
