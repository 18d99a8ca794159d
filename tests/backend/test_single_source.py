"""One kernel source per operator, checked on the source tree.

A dispatching kernel takes the array-API namespace ``xp`` first and is
the only body of its operator; an operator with no bitwise, equally
fast array-API spelling is host NumPy only.  Two patterns would bring
back a second body: a ``*_xp`` twin beside a NumPy function, and a fork
on the handle's substrate kind (an attribute read of ``.native``).
This scan of ``src/repro`` keeps both out.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent).as_posix()
        yield rel, ast.parse(path.read_text(encoding="utf-8"), filename=rel)


def test_no_function_is_an_xp_twin():
    twins = [
        f"{rel}:{node.lineno} {node.name}"
        for rel, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.endswith("_xp")
    ]
    assert not twins, f"second kernel bodies named *_xp: {twins}"


def test_no_code_forks_on_native():
    forks = [
        f"{rel}:{node.lineno}"
        for rel, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "native"
    ]
    assert not forks, f"reads of an attribute named 'native': {forks}"
