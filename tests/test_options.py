"""Every defaulted parameter of the package, as a reviewed list.

Each tolerance is a named constant for one decision, not a per-call
option.  This test walks the syntax tree of every module in
``src/cayley8`` and compares each ``(module, function, parameter)`` that
has a default with the set below, so a new option, or one that goes,
shows up as an edit of this file.  Methods are named ``Class.method``.
A second walk checks that every name a module imports is used in it,
and a third that no function body or argument default carries a literal
tolerance.  A fourth walk checks that every public function and method
is named somewhere in ``src`` beyond its own definition (a method by any
attribute of its name, a module-level function only through its own
module), or sits on the reviewed list ``UNCALLED`` with the reason it
stays, so an entry point that only tests reach shows up too.  A fifth walk checks that only
``spin7`` builds a ``CheckResult`` directly, so every other check is
judged by ``CheckResult.judge``, and a sixth that no call outside
``spin7`` sets ``passed=``, so no verdict is overridden after it.  A
seventh checks that every random draw sits in ``multivec.random_vector``
or ``multivec.random_form``, which state the range they draw, or on the
reviewed list ``OWN_DRAWS`` with the reason it draws for itself.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cayley8"

DEFAULTED = {
    ("_linalg", "nullspace", "tol"),
    ("_linalg", "orthogonalize", "tol"),
    ("calib", "builtin_form", "exact"),
    ("calib", "comass_estimate", "restarts"),
    ("calib", "comass_estimate", "tol"),
    ("calib", "comass_estimate", "seed"),
    ("calib", "comass_estimate", "jobs"),
    ("cli", "main", "argv"),
    ("dirac", "clifford_check", "trials"),
    ("dirac", "clifford_check", "seed"),
    ("dirac", "sl_symbol_intertwine", "trials"),
    ("dirac", "sl_symbol_intertwine", "seed"),
    ("dirac", "coassoc_symbol_intertwine", "trials"),
    ("dirac", "coassoc_symbol_intertwine", "seed"),
    ("index", "read_field", "real"),
    ("index", "read_field", "minimum"),
    ("multivec", "scalar", "den"),
    ("multivec", "is_zero", "tol"),
    ("multivec", "random_form", "bound"),
    ("multivec", "random_vector", "bound"),
    ("multivec", "Vector.basis", "exact"),
    ("multivec", "KForm.is_zero", "tol"),
    ("spin7", "standard_model", "exact"),
    ("spin7", "CheckResult.judge", "per_trial"),
    ("surgery", "glue", "novikov_ok"),
    ("verify", "run_suite", "exact"),
    ("verify", "run_suite", "seed"),
    ("verify", "run_suite", "trials"),
    ("verify", "run_suite", "form"),
    ("verify", "_Suite.record", "detail"),
    ("verify", "_Suite.record", "per_trial"),
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
    """Yield the line of each float literal in (0, 1e-6) in a function body or default."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            defaults = fn.args.defaults + [d for d in fn.args.kw_defaults if d is not None]
            for node in (n for stmt in body + defaults for n in ast.walk(stmt)):
                if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                        and 0 < node.value < 1e-6):
                    yield node.lineno


def test_no_literal_tolerance_in_a_function_body():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = set(_small_float_literals(ast.parse(path.read_text())))
        found += [f"{path.name}:{line}" for line in sorted(lines)]
    assert not found


#: public functions and methods that nothing in ``src`` names, each with the
#: reason it stays
UNCALLED = {
    ("_linalg", "independent_rows"): "perfbench times it as a layer of the exact linear algebra",
    ("_linalg", "orthonormal_columns"): "perfbench times it as a layer of the float linear algebra",
    ("spin7", "random_spin7_frame"): "perfbench draws its planted Cayley planes with it",
    ("g2", "associator"): "phi3^2 + |associator|^2 = |x ^ y ^ z|^2 is to decide "
                          "exact associative planes",
    ("g2", "lift_vector"): "embeds R^7 planes in R^8, as the exact coassociative "
                           "verdict is to do",
    ("calib", "coassoc_model_form"): "the coassociative construction of the model form, "
                                      "an independent reference for phi0",
    ("multivec", "OrientedPlane.matrix"): "the float view of a plane's orthonormal basis",
    ("calib", "_Words.generate_state"): "numpy's PCG64 calls it through ISeedSequence",
}


def _public_definitions(tree, module):
    """Yield ``(module, qualified name, name)`` for each public function and method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((module, f"{node.name}.{item.name}", item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield module, node.name, node.name


def _named_through_module(tree, module):
    """Yield ``(module, name)`` for each name used through the module that holds
    it: a bare name in ``module`` itself, a ``from .m import f`` binding, or
    ``m.f`` through ``m`` or its alias."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    yield node.module, alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield module, node.id
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            yield aliases[node.value.id], node.attr


def test_every_public_function_has_a_caller_in_src():
    # a method counts as named by any attribute of its name; a module-level
    # function only through its own module, so a method of the same name
    # cannot hide an unused function
    definitions, attributes, through_module = [], set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        definitions += _public_definitions(tree, path.stem)
        attributes.update(node.attr for node in ast.walk(tree)
                          if isinstance(node, ast.Attribute))
        through_module.update(_named_through_module(tree, path.stem))
    uncalled = {(module, qualified) for module, qualified, name in definitions
                if (name not in attributes if "." in qualified
                    else (module, name) not in through_module)}
    assert uncalled == set(UNCALLED)


def _calls_outside_spin7():
    """Yield ``(file name, call node)`` for every call in a module other than ``spin7``."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "spin7":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    yield path.name, node


def test_only_spin7_constructs_a_check_result():
    direct = []
    for name, node in _calls_outside_spin7():
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if called == "CheckResult":
            direct.append(f"{name}:{node.lineno}")
    assert not direct


def test_only_spin7_sets_a_verdict():
    # e.g. dataclasses.replace(report, passed=False) would override judge
    overrides = [f"{name}:{node.lineno}" for name, node in _calls_outside_spin7()
                 if any(k.arg == "passed" for k in node.keywords)]
    assert not overrides


#: functions outside the two draw helpers that call a generator's
#: ``standard_normal`` or ``integers``, each with the reason
OWN_DRAWS = {
    ("calib", "random_orthonormal_frames"): "draws a batch of frames as one array",
    ("calib", "_start_frames"): "draws each restart's frame array from its own substream",
    ("dirac", "h_equivariance_check"): "draws the scalar of each random section",
    ("verify", "_check_model_level"): "draws the seed of the clifford check",
}


def _draw_sites(tree, module):
    """Yield ``(module, qualified name)`` of the module-level function or
    method around each ``.standard_normal(`` or ``.integers(`` call."""
    for node in tree.body:
        methods = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for fn in methods:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("standard_normal", "integers")
                    for call in ast.walk(fn)):
                yield module, prefix + fn.name


def test_every_random_draw_goes_through_the_draw_helpers():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found.update(_draw_sites(ast.parse(path.read_text()), path.stem))
    assert found - {("multivec", "random_vector"), ("multivec", "random_form")} == set(OWN_DRAWS)
