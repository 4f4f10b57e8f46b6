"""The batched float paths of calib against the serial formulas they replaced.

``_serial_value_grad``/``_serial_ascend`` are the per-restart comass ascent
(one frame at a time, ``tensordot`` contractions) and ``_einsum_sweep`` is
the 4-operand ``einsum`` Cayley sweep with index-gather wedges.  They are
kept here as references: the batched code reorders no sums the tolerances
below do not allow for.
"""

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from cayley8 import calib, spin7
from cayley8.multivec import OrientedPlane, Vector, blades

MF = spin7.standard_model(exact=False)


def _serial_value_grad(T, X):
    p = X.shape[0]
    grad = np.empty_like(X)
    for m in range(p):
        out = T
        for r in range(p - 1, m, -1):
            out = np.tensordot(out, X[r], axes=(out.ndim - 1, 0))
        for r in range(m):
            out = np.tensordot(X[r], out, axes=(0, 0))
        grad[m] = out
    value = float(X[0] @ grad[0])
    return value, grad


def _serial_retract(X):
    q, r = np.linalg.qr(X.T)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return (q * signs).T


def _serial_ascend(T, X, tol, max_iter=500, max_halvings=40):
    value, grad = _serial_value_grad(T, X)
    if value < 0:
        X = X.copy()
        X[0] = -X[0]
        value, grad = _serial_value_grad(T, X)
    step = 1.0
    for it in range(max_iter):
        sym = X @ grad.T
        riem = grad - 0.5 * (sym + sym.T) @ X
        gnorm = float(np.linalg.norm(riem))
        if gnorm < tol:
            return X, value, it, True
        t = step
        for _ in range(max_halvings):
            Xn = _serial_retract(X + t * riem)
            vn, gn = _serial_value_grad(T, Xn)
            if vn > value + 0.5 * t * gnorm * gnorm:
                X, value, grad = Xn, vn, gn
                step = min(2.0 * t, 1.0)
                break
            t *= 0.5
        else:
            return X, value, it + 1, False
    return X, value, max_iter, False


def _serial_comass(c, restarts, seed, tol=calib.COMASS_TOL):
    """Per-restart outcomes and the lowest-index best restart."""
    form = c.form
    work = form.hodge() if form.degree > form.dim - form.degree else form
    T = work.as_float().to_dense()
    outcomes = []
    for i in range(restarts):
        rng = np.random.default_rng([seed, i])
        X0 = calib.random_orthonormal_frames(rng, 1, work.degree, work.dim)[0]
        outcomes.append(_serial_ascend(T, X0, tol))
    best = 0
    for i in range(1, restarts):
        if outcomes[i][1] > outcomes[best][1] + 1e-15:
            best = i
    return outcomes, best


_IDX_I, _IDX_J = (np.array([b[k] - 1 for b in blades(8, 2)]) for k in (0, 1))


def _wedge(x, y):
    """Rows of x ^ y over the 28 lexicographic 2-blades, by index gathers."""
    return x[:, _IDX_I] * y[:, _IDX_J] - x[:, _IDX_J] * y[:, _IDX_I]


def _einsum_sweep(sweep, frames):
    a, b, c, d = (frames[:, k, :] for k in range(4))
    p = np.einsum('ijkz,Ni,Nj,Nk->Nz', sweep.T4, d, c, b, optimize=True)
    gab = np.einsum('Ni,Ni->N', a, b)[:, None]
    gac = np.einsum('Ni,Ni->N', a, c)[:, None]
    gad = np.einsum('Ni,Ni->N', a, d)[:, None]
    combo = (-_wedge(a, p) + gab * _wedge(c, d)
             + gac * _wedge(d, b) + gad * _wedge(b, c))
    tau_norms = np.linalg.norm(2.0 * combo @ sweep.p7.T, axis=1)
    values = np.einsum('ijkl,Ni,Nj,Nk,Nl->N', sweep.T4, a, b, c, d, optimize=True)
    return tau_norms, values


def _verdicts(tau_norms, values):
    return np.where(tau_norms <= calib.TAU_TOL,
                    np.where(values > 0, "cayley+", "cayley-"), "not-cayley")


@pytest.mark.parametrize("tol", [calib.COMASS_TOL, 1e-15])
@pytest.mark.parametrize("seed", [0, 3, 2026])
@pytest.mark.parametrize("name", calib.BUILTIN_FORMS)
def test_batched_ascent_matches_serial_per_restart(name, seed, tol):
    # tol 1e-15 is below what most restarts reach: their line searches
    # exhaust the halvings at machine precision and they stop unconverged,
    # which matches the reference only while the arithmetic is the same
    c = calib.builtin_form(name, exact=False)
    restarts = 12
    outcomes, best = _serial_comass(c, restarts, seed, tol)
    form = c.form
    work = form.hodge() if form.degree > form.dim - form.degree else form
    X0 = calib._start_frames(seed, restarts, work.degree, work.dim)
    frames, values, iterations, converged = calib._ascend(
        work.as_float().to_dense(), X0, tol)
    for i, (X, value, iters, ok) in enumerate(outcomes):
        assert abs(values[i] - value) <= 1e-12
        assert np.max(np.abs(frames[i] - X)) <= 1e-12
        assert iterations[i] == iters
        assert converged[i] == ok
    assert not converged.all() if tol < 1e-14 else converged.all()
    res = calib.comass_estimate(c, restarts=restarts, seed=seed, tol=tol)
    assert res.best_restart == best
    assert res.iterations == outcomes[best][2]
    assert res.converged == outcomes[best][3]


def test_batched_ascent_handles_single_restart_and_degree_one():
    c = calib.CalibrationForm(-2.0 * calib.KForm.monomial(8, 3), "-2dx3")
    res = calib.comass_estimate(c, restarts=1, seed=4)
    outcomes, best = _serial_comass(c, 1, 4)
    assert best == res.best_restart == 0
    assert abs(res.value - outcomes[0][1]) <= 1e-12
    assert abs(res.value - 2.0) < 1e-6


def test_sweep_matches_einsum_formula():
    sweep = calib.CayleySweep(MF)
    rng = np.random.default_rng(7)
    random_frames = calib.random_orthonormal_frames(rng, 2 * sweep.BLOCK + 37, 4, 8)
    cayley_frames = np.stack([
        np.array([v.to_array() for v in spin7.random_spin7_frame(MF, rng).vectors[:4]])
        for _ in range(8)])
    frames = np.concatenate([random_frames, cayley_frames])
    tau_norms, values = sweep(frames)
    ref_tau, ref_values = _einsum_sweep(sweep, frames)
    assert np.max(np.abs(tau_norms - ref_tau)) <= 1e-13
    assert np.max(np.abs(values - ref_values)) <= 1e-13
    verdicts = _verdicts(tau_norms, values)
    assert (verdicts == _verdicts(ref_tau, ref_values)).all()
    assert (verdicts[-8:] != "not-cayley").all()
    # one planted plane against the sparse path as well
    onb = [Vector(row) for row in frames[-1]]
    ref = calib.cayley_test(MF, OrientedPlane(onb))
    assert ref.verdict == verdicts[-1]


def test_sweep_empty_batch():
    tau_norms, values = calib.CayleySweep(MF)(np.zeros((0, 4, 8)))
    assert tau_norms.shape == values.shape == (0,)


def _reference_start_frames(seed, restarts, p, n):
    return np.swapaxes(np.stack([
        calib.random_orthonormal_frames(np.random.default_rng([seed, i]), 1, p, n)[0].T
        for i in range(restarts)]), 1, 2)


# 2**96 + 7 and 2**200 + 3 make entropy wider than SeedSequence's 4-word pool
@pytest.mark.parametrize("seed", [0, 3, 2026, 2 ** 32, 2 ** 64 + 1, 2 ** 96 + 7, 2 ** 200 + 3])
@pytest.mark.parametrize("restarts, p, n", [(200, 4, 8), (50, 3, 7), (7, 2, 8), (1, 1, 8)])
def test_start_frames_match_per_restart_frames(restarts, p, n, seed):
    # one batched hash and one stacked QR give each restart the frame its
    # own substream gives, bit for bit and in the same column-major layout
    ref = _reference_start_frames(seed, restarts, p, n)
    got = calib._start_frames(seed, restarts, p, n)
    assert got.shape == ref.shape and got.strides == ref.strides
    assert got.tobytes() == ref.tobytes()


@settings(max_examples=60)
@given(st.integers(1, 8).flatmap(lambda width: hnp.arrays(
    np.uint32, st.tuples(st.integers(1, 5), st.just(width)),
    elements=st.one_of(st.just(0), st.integers(0, 2 ** 32 - 1)))))
def test_seed_words_equal_seed_sequence(entropy):
    ref = np.stack([np.random.SeedSequence(row).generate_state(4, np.uint64)
                    for row in entropy])
    got = calib._seed_words(entropy)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_start_frames_seed_no_seed_sequence(monkeypatch):
    ref = _reference_start_frames(0, 200, 4, 8)

    def forbidden(*args, **kwargs):
        raise AssertionError("_start_frames seeded through numpy's SeedSequence")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    monkeypatch.setattr(np.random, "SeedSequence", forbidden)
    assert calib._start_frames(0, 200, 4, 8).tobytes() == ref.tobytes()
