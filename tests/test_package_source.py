"""Checks on the package source itself."""

import ast
import pathlib

import lstorus

PACKAGE = pathlib.Path(lstorus.__file__).parent


def test_no_assert_in_the_package():
    # `python -O` strips assert statements, so a self-check written as one
    # (witness re-verification, the solver's unimodularity and image checks,
    # the census orbit checks) would silently stop running.
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"
