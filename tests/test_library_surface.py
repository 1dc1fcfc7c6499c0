"""Every public name in the library has a caller.

A public top-level function, class or constant of `src/ttm_lab`, and a public
method (or property) of a top-level class, must be referenced by library code
outside its own definition, be exported through `ttm_lab.__all__`, or be
listed in ALLOWED with the reason it stays; methods are listed as
`Class.method`. Only `Name` and `Attribute` nodes count as references, so a
mention in a docstring or an import alone does not keep a name alive. A
method is matched by its name alone, so `np.clip(...)` counts as a reference
to `Tensor.clip`.
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
    "published_scale_comparison": "the lab's record of the paper's "
                                  "parameter-count claims",
    "ARITH_VOCAB": "vocabulary size the arithmetic task needs; configs and "
                   "the benchmark set it",
    "eval_arith_program": "reference evaluator for arithmetic programs",
    "memory_estimate": "the lab's record of the paper's memory claim",
    "PUBLISHED_MEMORY_CLAIM_BYTES": "the paper's published memory figure",
    "TokenUniverse.hidden_ids": "the id range of the hidden tokens; the gsot "
                                "tests check it against the primary range",
    "Rng.permutation": "seeded permutation for the attention "
                       "permutation-equivariance test",
    "TrainHistory.column": "one metric over all steps; acceptance gate 09 "
                           "reads the logged collapse fractions",
}

# Only their own tests call these; ROADMAP item 5 lists them for deletion in a
# later change, because one change removes only a few tests at a time.
PENDING_DELETION = ("compute_temperature_ctx", "normalize_temperature",
                    "interference_ratio")
ALLOWED.update((name, "pending deletion, see ROADMAP item 5")
               for name in PENDING_DELETION)


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
