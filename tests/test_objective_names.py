"""Code outside the loss zoo asks OBJECTIVE_TABLE rather than branching on an
objective's name. Only the gradient checker's lambda_pr trial grid and the
probe's comparison against ce compare against one; here any other comparison
fails the suite."""

import ast
from pathlib import Path

import sftlab
from sftlab.losses import OBJECTIVES

ALLOWED = {("gradcheck.py", "_trial_loss_config"), ("harness.py", "run_probe")}


class _NameComparisons(ast.NodeVisitor):
    """(top-level def, line, names) of each Compare with an objective name
    among its operands, inside a tuple, list or set included."""

    def __init__(self):
        self.scope, self.found = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Compare(self, node):
        names = sorted(
            sub.value
            for operand in (node.left, *node.comparators)
            for sub in ast.walk(operand)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value in OBJECTIVES
        )
        if names:
            self.found.append((self.scope[0] if self.scope else "<module>", node.lineno, names))
        self.generic_visit(node)


def test_only_the_known_sites_compare_against_an_objective_name():
    sites = []
    for path in sorted(Path(sftlab.__file__).parent.glob("*.py")):
        visitor = _NameComparisons()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        sites += [(path.name, *site) for site in visitor.found]
    assert {(file, scope) for file, scope, *_ in sites} == ALLOWED, sites
