import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "discdet"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so invariants must raise explicitly.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_library_inverts_with_pow_minus_one():
    # pow(x, p - 2, p) silently returns 0 for x = 0 mod p, where pow(x, -1, p)
    # raises, so every modular inverse is written pow(x, -1, p).
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "pow" and len(node.args) == 3
                  and isinstance(node.args[1], ast.BinOp) and isinstance(node.args[1].op, ast.Sub)
                  and isinstance(node.args[1].right, ast.Constant) and node.args[1].right.value == 2]
    assert found == []


def test_f_p_kernels_import_no_fractions():
    # poly, fpmat and theorem5 work on residues only; rationals stay where the
    # paper's object is rational (sets.g_exponent, kappa, ff.rational_mod_p).
    found = []
    for name in ("poly", "fpmat", "theorem5"):
        path = SRC / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.ImportFrom) and node.module == "fractions") or \
                    (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_theorem5_reads_s_padded_only_in_band():
    # Every s-band of Theorem 5's lemmas (V, R, R^u, the pieces of
    # formula_br_lhs) is one theorem5._band call; no other function reads s_padded.
    path = SRC / "theorem5.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_band":
            inside = {id(sub) for sub in ast.walk(node)}
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "s_padded"
             and isinstance(node.ctx, ast.Load)]
    assert [f"{path.name}:{node.lineno}" for node in reads if id(node) not in inside] == []
    assert reads


def theorem5_callers(callee):
    """Qualified names of the theorem5 functions that call ``callee`` by name."""
    path = SRC / "theorem5.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    callers = set()

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                visit(child, f"{name}.{child.name}" if name else child.name)
            else:
                if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                        and child.func.id == callee):
                    callers.add(name)
                visit(child, name)

    visit(tree, "")
    return callers


def test_theorem5_takes_beta_rows_only_through_beta_coeffs():
    # Every beta row of a spec comes from the one StructuredSpec.beta table;
    # the tests' rational-lambda builders and psi_series make their own call.
    # So the theorem5.beta span of perfbench/tracer.py sees all beta work.
    assert theorem5_callers("beta_coeffs") == {
        "StructuredSpec.beta", "p_matrix", "q_matrix", "u_matrix", "psi_series"}


def test_theorem5_solves_only_for_the_quotient():
    # M^{-1} B is solve(M, B), taken once per spec for the quotient; every
    # other M^{-1} a statement names is a closed form: claimed_r1_inverse for
    # R1, and U_r(-1) for R^u's top block S_r(phi).  det is taken only of B_r.
    # So no elimination enters the checks but the quotient's.
    assert theorem5_callers("solve") == {"StructuredSpec.quotient"}
    assert theorem5_callers("inverse") == set()
    assert theorem5_callers("det") == {"det_br_identity"}


def test_library_does_not_rename_its_own_exceptions():
    # A handler that catches one of the package's exceptions and raises another
    # of them is a second name for one failure; callers catch the first.  Mapping
    # to a builtin (the CLI's ValueError for bad input) is allowed.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    own = {node.name for tree in trees.values() for node in ast.walk(tree)
           if isinstance(node, ast.ClassDef)}

    def names(node):
        nodes = node.elts if isinstance(node, ast.Tuple) else [node]
        return {n.id if isinstance(n, ast.Name) else getattr(n, "attr", None) for n in nodes}

    found = []
    for name, tree in trees.items():
        for handler in ast.walk(tree):
            if not isinstance(handler, ast.ExceptHandler) or handler.type is None:
                continue
            caught = names(handler.type) & own
            if not caught:
                continue
            for node in (n for stmt in handler.body for n in ast.walk(stmt)):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    raised = names(exc) & own
                    if raised - caught:
                        found.append(f"{name}:{node.lineno} {sorted(caught)} -> {sorted(raised)}")
    assert found == []
    assert {"Singular", "NonInvertibleBase"} <= own


def _tracer_wrapped():
    """perfbench/tracer.py's WRAPPED list, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPPED


def test_benchmark_tracer_hook_points_resolve():
    # perfbench/tracer.py swaps each WRAPPED (module, attribute path) through
    # __dict__; a renamed or deleted name would break traced benchmark runs.
    missing = []
    for module, path, _, _ in _tracer_wrapped():
        owner = importlib.import_module(module)
        try:
            for name in path.split("."):
                owner = owner.__dict__[name]
        except KeyError:
            missing.append(f"{module}.{path}")
    assert missing == []


def test_library_import_graph_is_acyclic():
    # Every relative import, function-level ones included, is an edge of the
    # module graph; a cycle means two modules each know the other's layout.
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        graph[path.stem] = edges = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                edges.update([node.module] if node.module else [a.name for a in node.names])
    assert "fpmat" not in graph["poly"]
    done, stack = set(), []

    def visit(module):
        if module in stack:
            raise AssertionError(" -> ".join(stack[stack.index(module):] + [module]))
        if module not in done:
            stack.append(module)
            for dep in sorted(graph.get(module, ())):
                visit(dep)
            stack.pop()
            done.add(module)

    for module in sorted(graph):
        visit(module)


def test_library_has_no_unused_imports():
    # A name the benchmark tracer swaps in a module counts as used there.
    hooked = {(module, path.split(".")[0]) for module, path, _, _ in _tracer_wrapped()}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used and (f"discdet.{path.stem}", name) not in hooked]
    assert unused == []


def test_every_library_definition_is_referenced():
    # A top-level def or class under src/discdet that nothing else names is
    # dead code.  A reference is a name, attribute or import in code under
    # src/, tests/ or perfbench/, or a dotted-name string such as the hook
    # paths of perfbench/tracer.py; a definition naming itself does not count.
    refs = Counter()
    defs = []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py"),
                        *(ROOT / "perfbench").glob("*.py")]):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.split(".")[-1])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                        and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                    names.update(node.value.split("."))
            refs.update(names)
            if path.parent == SRC and isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path, stmt, names))
    unreferenced = [f"{path.name}:{stmt.lineno} {stmt.name}" for path, stmt, own in defs
                    if refs[stmt.name] == (stmt.name in own)]
    assert unreferenced == []


def test_library_imports_with_stdlib_only():
    # pyproject.toml declares no dependencies.  python -S leaves site-packages
    # off sys.path, so a module that needs any installed package (numpy, say)
    # fails to import here.
    assert re.search(r"^dependencies = \[\]$", (ROOT / "pyproject.toml").read_text(), re.M)
    modules = sorted(f"discdet.{path.stem}" for path in SRC.glob("*.py") if path.stem != "__init__")
    assert modules
    code = ("import importlib, sys\n"
            f"sys.path.insert(0, {str(SRC.parent)!r})\n"
            "assert not any('-packages' in entry for entry in sys.path), sys.path\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module(name)\n"
            "print('ok')\n")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60, env={"PATH": os.environ.get("PATH", "")})
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")
