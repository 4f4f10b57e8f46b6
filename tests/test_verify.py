"""Rows of the verify suite: the scaled product rows, the public halvings
they leave to other rows, the nan-safe criteria count, and the position a
failing row names."""

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
