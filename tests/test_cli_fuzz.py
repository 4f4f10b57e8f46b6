"""Fuzz of the CLI boundary: malformed JSON files and bad flag values.

``cli.main`` runs in process on every subcommand.  Whatever the input, it
returns 0, 1 or 2 without raising, prints no traceback, never prints a
NaN or Infinity, and prints nothing on stdout when it rejects the input.
``verify`` is reached only with ``--trials < 0`` or a form document that
is not an object, so the identity suite never runs.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from cayley8 import cli

NUMBERS = st.one_of(
    st.integers(-10 ** 30, 10 ** 30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 1, -1, 4, 8, 10 ** 400, 1e308, 1e200, 5e-324, -0.0,
                     0.5, 1.5, 8.0]))
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=4),
                    st.sampled_from(["n/a", "1/0", "1/2", "1e400", "abc"]))
JUNK = st.recursive(SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=3), st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=6)


def _leaf(chi, sigma, **extra):
    return {"op": "leaf", "invariants": dict({"dim": 4, "chi": chi, "sigma": sigma},
                                             **extra)}


DOCUMENTS = {
    "index": [
        {"formula": "closed", "fields": {"chi": 24, "sigma": -16,
                                         "self_intersection": 9}},
        {"formula": "eta", "orientation": "complex",
         "fields": {"chi": 48, "sigma": -16, "euler_normal": 24,
                    "dim_ker_Dtilde": 0, "eta_Dtilde": 0.5, "eta_Bev": -0.5}}],
    "surgery": [
        {"op": "glue", "novikov_ok": True,
         "parts": [{"op": "connected_sum", "parts": [_leaf(3, 1), _leaf(3, -1)]},
                   _leaf(2, 0, betti=[1, 0, 0, 0, 1])],
         "along": {"dim": 3, "chi": 0}},
        {"op": "product_s1", "parts": [{"op": "leaf", "invariants": {
            "dim": 2, "chi": -2, "betti": [1, 4, 1], "label": "genus 2"}}]}],
    "plane": [
        {"dim": 8, "degree": 4,
         "vectors": [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
                     ["1/2", "1/2", 0.5, 0.5, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0]]},
        {"dim": 7, "degree": 3,
         "vectors": [[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0],
                     [0, 0, 1, 0, 0, 0, 0]]}],
    "form": [
        {"dim": 8, "degree": 4, "name": "blade",
         "terms": [{"blade": [1, 2, 3, 4], "coeff": 1},
                   {"blade": [5, 6, 7, 8], "coeff": "1/2"}]},
        {"dim": 4, "degree": 2, "terms": [{"blade": [1, 2], "coeff": 1.0},
                                          {"blade": [4, 3], "coeff": -2}]}],
}


def _slots(node):
    """Every (container, key) pair of a JSON document, depth first."""
    keys = (list(node) if isinstance(node, dict)
            else range(len(node)) if isinstance(node, list) else ())
    for key in keys:
        yield node, key
        yield from _slots(node[key])


@st.composite
def _mutated(draw, kind):
    """A base document of ``kind`` with one to three nodes replaced or deleted
    (slot -1 stands for the whole document)."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS[kind])))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        choice = draw(st.integers(-1, len(slots) - 1))
        if choice < 0:
            doc = draw(JUNK)
            continue
        parent, key = slots[choice]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(JUNK)
    return doc


def _file(doc):
    """A document as written to a file: JSON (NaN allowed) or raw text."""
    return st.one_of(st.just(json.dumps(doc)), st.text(max_size=8))


NOT_AN_OBJECT = st.one_of(SCALARS, st.lists(SCALARS, max_size=3)).map(json.dumps)
SMALL = st.integers(-3, 3).map(str)


@st.composite
def _invocation(draw):
    """(argv without the file path, file contents or None)."""
    command = draw(st.sampled_from(
        ["index", "surgery", "plane", "comass", "verify", "reproduce"]))
    out = [draw(st.sampled_from(["--output=json", "--output=text"]))]
    if command in ("index", "surgery"):
        text = draw(_mutated(command).flatmap(_file))
        return out + [command, "--input"], text
    if command == "reproduce":
        return out + [command, "--example", draw(SMALL)], None
    if command == "plane":
        form = draw(st.sampled_from(["builtin:spin7", "builtin:g2-assoc",
                                     "builtin:wirtinger2"]))
        text = draw(_mutated("plane").flatmap(_file))
        return out + [command, "--form", form, "--vectors"], text
    if command == "comass":
        tol = draw(st.sampled_from(["1e-6", "0", "-1", "nan", "inf", "1e300"]))
        flags = ["--restarts", draw(SMALL), "--seed", draw(SMALL), "--tol", tol]
        if draw(st.booleans()):
            return out + [command, *flags, "--form", "builtin:g2-coassoc"], None
        text = draw(_mutated("form").flatmap(_file))
        return out + [command, *flags, "--form"], text
    trials = draw(st.integers(-5, 60))
    flags = [command, "--trials", str(trials)]
    if trials < 0:
        if draw(st.booleans()):
            return out + flags, None
        return out + flags + ["--form"], draw(_mutated("form").flatmap(_file))
    return out + flags + ["--form"], draw(NOT_AN_OBJECT)


def _reject_constant(token):
    raise AssertionError(f"stdout holds {token}")


@settings(max_examples=150)
@given(_invocation())
def test_cli_never_raises_and_never_prints_nan(invocation):
    argv, text = invocation
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            path = os.path.join(tmp, "input.json")
            with open(path, "w") as fh:
                fh.write(text)
            argv = [*argv, path]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert "NaN" not in out and "Infinity" not in out
    if code == 2:
        assert out == "" and "input error: " in err
    elif argv[0] == "--output=json":
        json.loads(out, parse_constant=_reject_constant)
