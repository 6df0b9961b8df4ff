import ast
import os
import subprocess
import sys
from pathlib import Path

import abreu_bvp
from abreu_bvp import cli


def test_every_exported_name_resolves():
    missing = [name for name in abreu_bvp.__all__
               if not hasattr(abreu_bvp, name)]
    assert not missing
    assert len(set(abreu_bvp.__all__)) == len(abreu_bvp.__all__)


def test_the_package_does_not_load_scipy_interpolate():
    # scipy.interpolate adds about 11 MB to a process's resident set; the
    # grid transfer of the sequenced solve does without it.
    code = ("import sys, abreu_bvp as b\n"
            "g = b.build_grid(b.DomainSpec.disk(1.0), 40)\n"
            "b.solve_second_bvp(b.Problem(g, b.GSpec(0.0, 2), 0.0, 0.0, 1.0))\n"
            "print('scipy.interpolate' in sys.modules)\n")
    src = str(Path(abreu_bvp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_no_module_imports_another_modules_private_names():
    # A module's underscore names, such as lin_ma's sparsity patterns, stay
    # behind its public functions.
    package = Path(abreu_bvp.__file__).resolve().parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [f"{path.name}: from {'.' * node.level}"
                            f"{node.module or ''} import {alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


def test_no_module_imports_a_name_it_does_not_use():
    # No linter runs on the package, so this keeps rewrites from leaving
    # imports behind.
    package = Path(abreu_bvp.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0]
                             for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported += [a.asname or a.name for a in node.names]
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in imported
                   if name not in used]
    assert unused == []


def test_no_function_ignores_a_parameter():
    # A parameter that no code reads is a knob that does nothing.  Allowed
    # are only signatures that a caller fixes: the Jacobian callbacks that
    # damped_newton calls, the command handlers in cli._COMMANDS, and the
    # immutable fields' __setattr__.
    fixed = {"continuation._newton_step.jacobian: x",
             "ma_dirichlet.solve_ma.jacobian: x",
             *[f"cli.{handler.__name__}: command"
               for handler, _ in cli._COMMANDS.values()],
             *[f"mesh.{cls}.__setattr__: {p}"
               for cls in ("ScalarField", "MatrixField")
               for p in ("self", "name", "value")]}
    package = Path(abreu_bvp.__file__).resolve().parent
    ignored = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", None)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = [a.arg for a in (args.posonlyargs + args.args
                                          + args.kwonlyargs)]
                params += [a.arg for a in (args.vararg, args.kwarg) if a]
                read = {n.id for n in ast.walk(child)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                ignored.extend(f"{prefix}.{name}: {p}" for p in params
                               if p not in read)
            visit(child, f"{prefix}.{name}" if name else prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert sorted(set(ignored) - fixed) == []


def test_every_lu_reaches_superlu_through_one_call_unpermuted():
    # The matrices are built in the order they are factorized in, so the
    # package calls splu once, in lin_ma.factorize, and converts no sparse
    # matrix on its way there: no .tocsc(), with its permuted copy.
    package = Path(abreu_bvp.__file__).resolve().parent
    calls = {"splu": [], "tocsc": []}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in calls:
                    calls[name].append(f"{path.stem}:{node.lineno}")
    assert len(calls["splu"]) == 1 and calls["splu"][0].startswith("lin_ma:")
    assert calls["tocsc"] == []
