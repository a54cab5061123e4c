"""Every function, class and method in src/ has a caller in src/.

A definition that nothing in the package uses is either dead code or a
helper kept only for the tests.  The exceptions are listed below, each with
its reason.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "trackbench"

# definitions that src/ need not call, each with the reason it stays
UNCALLED = {
    # the paper's equations, used by the tests as oracles
    "kinematic_derivatives": "continuous-time kinematic model (criterion 3)",
    "step_euler": "first-order transition q + q'*dt (test_models)",
    "step_second_order": "second-order transition (criterion 3)",
    "turn_radius": "constant-steer circle radius (criterion 1)",
    "kin_rollout": "kinematic rollout of the circle drive (criterion 1)",
    # documented library API
    "RunRecord.column": "reads one named column of a run's log",
}

# bare names that more than one src definition may have, each with its
# reason; a use of such a name counts for all of them, so any other shared
# name could hide a definition that only the tests call
SHARED_NAMES = {
    "reset": "the restart of every controller, steering and speed law, PID and env",
    "step": "sim.Controller's control step, and the PID's and env's update",
    "steer": "the steering-law protocol that sim.Paired calls",
    "accel": "the speed-law protocol that sim.Paired calls",
    "advance": "ControlContext and _Progress, both advanced by simulate each step",
}


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node) of each top-level function and
    class and of each non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, item


def _uses(node: ast.AST) -> Counter:
    """How often each name is read as a variable or an attribute under
    `node`."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _trees():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "mpc.py" in trees, f"no package source under {SRC}"
    return trees


def test_every_definition_in_src_has_a_caller():
    trees = _trees()
    uses = sum(map(_uses, trees.values()), Counter())
    uncalled = [f"{module}: {qualname}"
                for module, tree in trees.items()
                for qualname, name, node in _definitions(tree)
                if qualname not in UNCALLED and uses[name] == _uses(node)[name]]
    assert uncalled == []


def test_every_exception_is_still_defined():
    defined = {q for tree in _trees().values() for q, _, _ in _definitions(tree)}
    assert set(UNCALLED) <= defined


def test_only_protocol_names_are_shared():
    names = Counter(name for tree in _trees().values() for _, name, _ in _definitions(tree))
    shared = {name for name, count in names.items() if count > 1}
    assert shared - set(SHARED_NAMES) == set()
    assert set(SHARED_NAMES) <= shared
