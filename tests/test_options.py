"""Every defaulted parameter of the package, as a reviewed list.

Each tolerance is a named constant for one decision, not a per-call
option.  This test walks the syntax tree of every module in
``src/cayley8`` and compares each ``(module, function, parameter)`` that
has a default with the set below, so a new option, or one that goes,
shows up as an edit of this file.  Methods are named ``Class.method``.
A second walk checks that every name a module imports is used in it,
and a third that no function body carries a literal tolerance.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cayley8"

DEFAULTED = {
    ("_linalg", "nullspace", "tol"),
    ("_linalg", "orthogonalize", "tol"),
    ("_linalg", "orthonormal_columns", "tol"),
    ("calib", "builtin_form", "exact"),
    ("calib", "comass_estimate", "restarts"),
    ("calib", "comass_estimate", "tol"),
    ("calib", "comass_estimate", "seed"),
    ("calib", "comass_estimate", "jobs"),
    ("cli", "main", "argv"),
    ("dirac", "clifford_check", "trials"),
    ("dirac", "clifford_check", "seed"),
    ("dirac", "build_associative_model", "s"),
    ("dirac", "sl_symbol_intertwine", "trials"),
    ("dirac", "sl_symbol_intertwine", "seed"),
    ("dirac", "coassoc_symbol_intertwine", "trials"),
    ("dirac", "coassoc_symbol_intertwine", "seed"),
    ("index", "read_field", "real"),
    ("index", "read_field", "minimum"),
    ("multivec", "scalar", "den"),
    ("multivec", "is_zero", "tol"),
    ("multivec", "random_form", "exact"),
    ("multivec", "random_form", "span"),
    ("multivec", "random_vector", "exact"),
    ("multivec", "Vector.basis", "exact"),
    ("multivec", "KForm.is_zero", "tol"),
    ("multivec", "KForm.approx_equal", "tol"),
    ("spin7", "standard_model", "exact"),
    ("surgery", "glue", "novikov_ok"),
    ("verify", "run_suite", "exact"),
    ("verify", "run_suite", "seed"),
    ("verify", "run_suite", "trials"),
    ("verify", "run_suite", "form"),
    ("verify", "_Suite.record", "detail"),
    ("verify", "_Suite.record", "floating"),
}


def _defaulted(node, module, prefix=""):
    """Yield ``(module, qualified name, parameter)`` for each default under ``node``."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = prefix + getattr(child, "name", "<lambda>")
            args = child.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults):] if args.defaults else []
            named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for arg in named:
                yield module, name, arg.arg
            name += "."
        elif isinstance(child, ast.ClassDef):
            name = f"{prefix}{child.name}."
        yield from _defaulted(child, module, name)


def test_defaulted_parameters_are_the_reviewed_set():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found.extend(_defaulted(ast.parse(path.read_text()), path.stem))
    assert len(found) == len(set(found)), "two parameters share a qualified name"
    assert set(found) == DEFAULTED


def _imported(tree):
    """Yield ``(name, line)`` for each name an import statement under ``tree`` binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in _imported(tree)
                   if name not in used]
    assert not unused


def _small_float_literals(tree):
    """Yield the line of each float literal in (0, 1e-6) inside a function body."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            for node in (n for stmt in body for n in ast.walk(stmt)):
                if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                        and 0 < node.value < 1e-6):
                    yield node.lineno


def test_no_literal_tolerance_in_a_function_body():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = set(_small_float_literals(ast.parse(path.read_text())))
        found += [f"{path.name}:{line}" for line in sorted(lines)]
    assert not found
