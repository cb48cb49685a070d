"""The public surface: every exported name exists in the module that
defines it, importing a module loads only the modules it needs, and the
README's library example runs and gives the results its comments
state."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src"
MODULES = [
    "arith", "census", "cli", "cusplattice", "mutant", "nzvolume", "primeseq", "quadform", "render",
]


@pytest.mark.parametrize("module", [f"volrigid.{m}" for m in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = mod.__all__
    assert len(names) == len(set(names)), module
    missing = [name for name in names if not hasattr(mod, name)]
    assert missing == [], module


@pytest.mark.parametrize("module, loaded", [
    ("arith", ["volrigid", "volrigid.arith"]),
    ("quadform", ["volrigid", "volrigid.arith", "volrigid.quadform"]),
    ("render", ["volrigid", "volrigid.render"]),
])
def test_a_module_loads_only_what_it_imports(module, loaded):
    # a fresh interpreter: this one has already imported every module
    code = (
        f"import sys, volrigid.{module}; "
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'volrigid'))"
    )
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env,
    ).stdout
    assert ast.literal_eval(out) == loaded


def test_readme_library_example_gives_its_commented_results():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    results = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            comment = lines[node.lineno - 1].split("#", 1)[1].strip()
            assert comment.startswith(repr(value)), (comment, value)
            results.append(value)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert results == [4, 241, Fraction(1, 1)]
