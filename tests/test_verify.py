"""Rows of the verify suite: the scaled product rows, the public halvings
they leave to other rows, the nan-safe criteria count, the position a
failing row names, and the false-pass bound each exact row states and
keeps against a wrong identity."""

import math
import re
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import Phase, given, settings

from cayley8 import calib, spin7, verify
from cayley8.multivec import KForm, Vector, blades, flat

M = spin7.standard_model(exact=True)

INNER_CROSS = "inner-cross-2"
NORMS = "|vxw| == |v^w| and |uxvxw| == |u^v^w|"
PROJECTIONS = "projections idempotent, orthogonal, resolve identity"

#: every exact row on random draws: the degree of its identity in the drawn
#: entries, and the bound ``N`` of ``false pass <= 2^-N`` it had when it drew
#: 60 trials (15 for inner-tau, 6 for the last two) from the 10 integers of
#: [-5, 5), which random_vector and random_form draw from at bound=5
POLYNOMIAL_ROWS = {
    INNER_CROSS: (4, 79),
    "inner-tau": (6, 11),
    NORMS: (6, 44),
    "wedge associative and graded-anticommutative": (3, 104),
    "hodge isometry and involution sign": (2, 139),
    "contraction adjoint to wedge": (3, 104),
    "sharp(flat(v)) == v": (1, 199),
    PROJECTIONS: (2, 13),
    "cross2 image has zero 21-component": (2, 13),
}

#: the float details of those rows at trials=60, which the bound leaves as they were
FLOAT_DETAILS = {INNER_CROSS: "60 random quadruples", "inner-tau": "15 random inputs",
                 "wedge associative and graded-anticommutative": "60 random triples"}

BOUND = re.compile(r"^(\d+) random \w+; false pass <= 2\^-(\d+)")


def _recorded_rows(exact, seed, trials, form):
    """Run the suite and return ``{row name: (inputs drawn for it, residuals)}``.

    A row's inputs are the ``_Suite.vectors`` and ``random_form`` draws made
    after the previous row was recorded."""
    rows, draws = {}, []
    draw_vectors, draw_form, record = (verify._Suite.vectors, verify.random_form,
                                       verify._Suite.record)

    def vectors(self, count):
        vs = draw_vectors(self, count)
        draws.append(vs)
        return vs

    def random_form(*args, **kwargs):
        f = draw_form(*args, **kwargs)
        draws.append(f)
        return f

    def recording(self, name, residuals, *args, **kwargs):
        residuals = list(residuals)
        rows[name] = (list(draws), residuals)
        draws.clear()
        return record(self, name, residuals, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify._Suite, "vectors", vectors)
        mp.setattr(verify, "random_form", random_form)
        mp.setattr(verify._Suite, "record", recording)
        verify.run_suite(exact=exact, seed=seed, trials=trials, form=form)
    return rows


def _halved_residuals(name, draws, phi, m):
    """The row's residuals by its formula on the halved public products."""
    raw = spin7.unchecked_model(phi)
    out = []
    if name == INNER_CROSS:
        for a, b, c, d in draws:
            lhs = spin7.cross2(raw, a, b).inner(spin7.cross2(raw, c, d))
            rhs = -phi.evaluate(a, b, c, d) + a.dot(c) * b.dot(d) - a.dot(d) * b.dot(c)
            out.append(abs(lhs - rhs))
    elif name == NORMS:
        for u, v, w in draws:
            vw = flat(v).wedge(flat(w))
            out.append(abs((2 * spin7.proj2_7(raw, vw)).norm_sq() - vw.norm_sq()))
            c3 = spin7.cross3(raw, u, v, w)
            triple = flat(u).wedge(flat(v)).wedge(flat(w))
            out.append(abs(c3.norm_sq() - triple.norm_sq()))
    else:
        for a in draws:
            p7 = spin7.proj2_7(m, a)
            p21 = spin7.proj2_21(m, a)
            out += [spin7.form_residual(spin7.proj2_7(m, p7) - p7),
                    spin7.form_residual(p7 + p21 - a), abs(p7.inner(p21))]
    return out


# each example runs four suites, so shrinking a failure would take minutes
@settings(max_examples=8, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2 ** 32 - 1), trials=st.integers(1, 8),
       bump=st.dictionaries(st.sampled_from(blades(8, 4)),
                            st.fractions(-2, 2, max_denominator=6), max_size=3))
def test_scaled_rows_equal_the_halved_formulas(seed, trials, bump):
    """The three rows on the unhalved products give the residuals of their
    halved formulas: equal in exact mode, bit for bit in float mode, on the
    model form and on a perturbed one (where the exact residuals are not 0)."""
    for exact in (True, False):
        phi0, bumped = spin7.phi0(), spin7.phi0() + KForm(8, 4, bump)
        if not exact:
            phi0, bumped = phi0.as_float(), bumped.as_float()
        m = spin7.standard_model(exact)
        for form, names in ((None, (INNER_CROSS, NORMS, PROJECTIONS)),
                            (bumped, (INNER_CROSS, NORMS))):
            rows = _recorded_rows(exact, seed, trials, form)
            for name in names:
                draws, got = rows[name]
                want = _halved_residuals(name, draws, phi0 if form is None else form, m)
                assert len(got) == len(want) > 0
                if exact:
                    assert got == want
                else:
                    assert [type(x) for x in got] == [type(x) for x in want]
                    assert [float(x).hex() for x in got] == [float(x).hex() for x in want]


@settings(max_examples=40)
@given(st.data())
def test_unhalved_products_are_the_public_ones_scaled(data):
    """On exact inputs 2 v x w and 4 pi7 are exactly twice cross2 and four
    times proj2_7."""
    entry = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=5))
    vector = st.lists(entry, min_size=8, max_size=8).map(Vector)
    v, w = data.draw(vector), data.draw(vector)
    a = KForm(8, 2, data.draw(st.dictionaries(st.sampled_from(blades(8, 2)), entry,
                                              max_size=28)))
    assert spin7._doubled_cross2(M, v, w).coeffs == (2 * spin7.cross2(M, v, w)).coeffs
    assert spin7._minus_l(M, a).coeffs == (4 * spin7.proj2_7(M, a)).coeffs


@pytest.mark.parametrize("exact", [True, False])
def test_a_misscaled_cross2_fails_inner_tau(monkeypatch, exact):
    # inner-cross-2 reads the unhalved product; inner-tau pins cross2's halving
    monkeypatch.setattr(spin7, "cross2",
                        lambda m, v, w: spin7._doubled_cross2(m, v, w) / 3)
    phi = spin7.phi0() if exact else spin7.phi0().as_float()
    _, summary = verify.run_suite(exact=exact, trials=4, form=phi)
    assert summary["failed_names"] == ["inner-tau"]


@pytest.mark.parametrize("exact", [True, False])
def test_a_misscaled_proj2_7_fails_the_21_component_row(monkeypatch, exact):
    # the projection row reads 4 pi7; the 21-component row pins proj2_7's scale
    monkeypatch.setattr(spin7, "proj2_7", lambda m, a: spin7._minus_l(m, a) / 3)
    _, summary = verify.run_suite(exact=exact, trials=0)
    assert summary["failed_names"] == ["cross2 image has zero 21-component"]


@pytest.mark.parametrize("exact", [True, False])
def test_a_nan_plane_fails_the_criteria_row(monkeypatch, exact):
    draw = calib.random_orthonormal_frames

    def planted(rng, count, degree, dim):
        frames = draw(rng, count, degree, dim)
        frames[2, 0, 0] = np.nan
        return frames

    monkeypatch.setattr(calib, "random_orthonormal_frames", planted)
    outcomes, summary = verify.run_suite(exact=exact, trials=0)
    row = next(o for o in outcomes if o.name == "cayley criteria agree on random planes")
    assert not row.passed and row.residual == 1.0
    assert summary["failed_names"] == [row.name]


@pytest.mark.parametrize("exact", [True, False])
def test_a_failing_row_names_its_worst_residual(monkeypatch, exact):
    """A failing row of several residuals ends its detail with the 1-based
    position of the worst one, which is the residual it records; the row of
    two residuals a trial names the trial too.  Rows that pass, and rows of
    one residual, name no position."""
    seen, judge = {}, spin7.CheckResult.judge

    def capture(name, residuals, *args, **kwargs):
        seen[name] = list(residuals)
        return judge(name, seen[name], *args, **kwargs)

    monkeypatch.setattr(spin7.CheckResult, "judge", capture)
    phi = spin7.phi0() + KForm(8, 4, {(1, 2, 3, 4): Fraction(1, 7)})
    outcomes, _ = verify.run_suite(exact=exact, trials=4, form=phi if exact else phi.as_float())
    named = {}
    for row in outcomes:
        where = re.search(r"worst at residual (\d+) of (\d+)(?:, trial (\d+))?$", row.detail)
        if row.passed or len(seen[row.name]) == 1:
            assert where is None, row
            continue
        i, n = int(where[1]), int(where[2])
        assert n == len(seen[row.name])
        assert float(seen[row.name][i - 1]) == row.residual
        named[row.name] = (i, where[3] and int(where[3]))
    i, trial = named.pop(NORMS)
    assert trial == (i - 1) // 2 + 1
    assert named and all(trial is None for _, trial in named.values())


@pytest.mark.parametrize("trials", [0, 60])
def test_every_exact_row_states_a_bound_past_its_old_one(trials):
    """Each exact row on random draws states ``false pass <= 2^-N`` with N at
    least ``FALSE_PASS_BITS`` (200) and above its bound at 60 small-range
    trials, at any ``trials``; ``N`` is ``floor(k log2(2^63 / d))`` for its
    ``k`` trials and degree ``d``.  Float mode keeps its counts and details."""
    exact, _ = verify.run_suite(exact=True, trials=trials)
    floating, _ = verify.run_suite(exact=False, trials=60)
    stated = {o.name: m for o in exact if (m := BOUND.match(o.detail))}
    assert set(stated) == set(POLYNOMIAL_ROWS)
    for name, (degree, old) in POLYNOMIAL_ROWS.items():
        k, bits = int(stated[name][1]), int(stated[name][2])
        assert bits == math.floor(k * math.log2(2 ** 63 / degree))
        assert bits >= verify.FALSE_PASS_BITS and bits > old
        # the fewest trials that reach the target
        assert k == math.ceil(verify.FALSE_PASS_BITS / math.log2(2 ** 63 / degree)) == 4
    assert all(o.passed and o.residual == 0 for o in exact if o.name in stated)
    details = {o.name: o.detail for o in floating if o.name in POLYNOMIAL_ROWS}
    assert details == {name: FLOAT_DETAILS.get(name, "") for name in POLYNOMIAL_ROWS}


def _failing_rows(outcomes, reading):
    """The names of the rows among ``reading`` that fail, each checked to name
    its worst residual within the trials its detail states."""
    failed = []
    for o in outcomes:
        if o.name in reading and not o.passed:
            trials = int(BOUND.match(o.detail)[1])
            where = re.search(r"worst at residual (\d+) of (\d+)(?:, trial (\d+))?$", o.detail)
            assert where and int(where[2]) % trials == 0 and int(where[3] or where[1]) <= trials
            failed.append(o.name)
    return failed


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), blade=st.sampled_from(blades(8, 2)))
def test_a_sign_flipped_cross2_fails_inner_tau(seed, blade):
    """One coefficient of cross2's result negated: inner-tau, which reads the
    public product, fails within its stated trials on the wide draws."""
    cross2 = spin7.cross2

    def flipped(m, v, w):
        x = cross2(m, v, w)
        return KForm(8, 2, {b: -c if b == blade else c for b, c in x.coeffs.items()})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spin7, "cross2", flipped)
        outcomes, _ = verify.run_suite(exact=True, seed=seed, trials=0, form=spin7.phi0())
    assert _failing_rows(outcomes, {"inner-tau"})


def _flipped_lambda2_rows(blade, entry):
    """``lambda2_rows`` with ``entry`` of column ``blade`` negated, as a property
    (which outranks the cached value and caches nothing itself)."""
    def rows(model):
        table = dict(spin7._lambda2_rows(model.phi))
        col = list(table[blade])
        k, c = col[entry]
        col[entry] = (k, -c)
        table[blade] = tuple(col)
        return table
    return property(rows)


#: the rows of an unbroken suite, in order
ROW_NAMES = [o.name for o in verify.run_suite(exact=True, trials=0)[0]]

RAISED = re.compile(r"^raised \w+Error: ")


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), blade=st.sampled_from(blades(8, 2)),
       entry=st.integers(0, 2))
def test_a_sign_flipped_lambda2_entry_fails_a_row_that_reads_minus_l(seed, blade, entry):
    """One entry of the ``lambda2_rows`` that ``_minus_l`` reads negated: a row
    on the unhalved products fails within its stated trials, with the form rows
    alone and with the model-level rows, where the projection row fails too.
    A model-level check that raises on the broken model fails its rows with
    the exception named, and the suite still records every row."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spin7.Spin7Model, "lambda2_rows", _flipped_lambda2_rows(blade, entry))
        alone, _ = verify.run_suite(exact=True, seed=seed, trials=0, form=spin7.phi0())
        full, _ = verify.run_suite(exact=True, seed=seed, trials=0)
    assert _failing_rows(alone, {INNER_CROSS, NORMS})
    assert _failing_rows(full, {INNER_CROSS, NORMS})
    assert _failing_rows(full, {PROJECTIONS}) == [PROJECTIONS]
    assert [o.name for o in full] == ROW_NAMES
    assert all(not o.passed for o in full if RAISED.match(o.detail))


CLIFFORD, ASD = "clifford relation of the symbol", "plane ASD forms embed conformally opposite E"
SL, COASSOC = "special Lagrangian symbol intertwining", "coassociative symbol intertwining"


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("blade, raising", [((1, 2), {SL}),
                                            ((1, 6), {CLIFFORD, ASD, COASSOC, SL})],
                         ids=["column-12", "column-16"])
def test_a_point_model_that_raises_fails_the_rows_that_read_it(exact, blade, raising):
    """With entry 0 of column ``blade`` negated, the Cayley point models of the
    broken model raise ``NonCayleyPlaneError``: each row that reads one fails
    with the exception named (the clifford and ASD rows, which share the point
    model at e1..e4, together), and the suite goes on to every later row."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spin7.Spin7Model, "lambda2_rows", _flipped_lambda2_rows(blade, 0))
        outcomes, summary = verify.run_suite(exact=exact, trials=0)
    raised = {o.name: o.detail for o in outcomes if RAISED.match(o.detail)}
    assert set(raised) == raising
    assert all(d.startswith("raised NonCayleyPlaneError: ") for d in raised.values())
    assert raising <= set(summary["failed_names"])
    assert [o.name for o in outcomes] == ROW_NAMES
