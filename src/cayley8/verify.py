"""The runnable identity suite behind ``cayley8 verify``.

Each row hands all of its residuals to ``CheckResult.judge``, which folds
them to the worst (a nan among them included) and records one
:class:`cayley8.spin7.CheckResult` (exact inputs pass only at residual 0);
the suite keeps the verdicts of :mod:`cayley8.dirac`'s checks, judged
where they run.  Each exact row on random draws is a Schwartz–Zippel
test that states its false-pass bound (see ``_Suite.polynomial``).  With
an injected structure form, only the form-dependent checks run (a
corrupted form then fails with the violated identity named); otherwise
the model-level checks (splittings, slices, symbols, intertwinings) run
as well; a point model that raises on a broken model fails the rows that
read it (see ``_Suite.rows``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np

from . import calib, dirac, g2 as g2mod, spin7
from .multivec import (DRAW_BOUND, KForm, OrientedPlane, Vector, divide, flat,
                       random_form, random_vector, restrict, sharp)
from .spin7 import CheckResult, form_residual

#: An exact polynomial row runs the fewest trials that bound the chance
#: that a wrong identity passes it by ``2 ** -FALSE_PASS_BITS``.
FALSE_PASS_BITS = 200


def _false_pass_bits(degree: int, trials: int) -> int:
    """The largest ``N`` with ``(degree / (2 * DRAW_BOUND)) ** trials <= 2 ** -N``."""
    return ((2 * DRAW_BOUND) ** trials // degree ** trials).bit_length() - 1


class _Suite:
    def __init__(self, exact: bool, seed: int, trials: int):
        self.exact = exact
        self.bound = DRAW_BOUND if exact else None
        self.rng = np.random.default_rng(seed)
        self.trials = trials
        self.outcomes: List[CheckResult] = []

    def record(self, name: str, residuals, detail: str = "", per_trial: int = 1):
        """Record the outcome of a row's residuals, judged in the suite's mode."""
        self.outcomes.append(CheckResult.judge(name, residuals, self.exact, detail, per_trial))

    def keep(self, report: CheckResult, name: str, detail: str):
        """Record a check judged where it ran, under the suite's name and detail."""
        self.outcomes.append(replace(report, name=name, detail=detail))

    def vectors(self, count: int):
        return [random_vector(self.rng, 8, self.bound) for _ in range(count)]

    def form(self, degree: int) -> KForm:
        return random_form(self.rng, 8, degree, self.bound)

    @contextmanager
    def rows(self, *names: str):
        """Run a block that records the rows ``names`` and yield the names.  A
        ``ValueError`` the block raises fails each of them it has not recorded,
        with the exception named in the detail, and the suite goes on."""
        start = len(self.outcomes)
        try:
            yield names
        except ValueError as exc:
            done = {o.name for o in self.outcomes[start:]}
            for name in names:
                if name not in done:
                    self.record(name, [1.0], f"raised {type(exc).__name__}: {exc}")

    def polynomial(self, name: str, degree: int, count: int, trial, noun: str,
                   per_trial: int):
        """Record a row whose identity is a polynomial of ``degree`` in the
        entries its trials draw; ``trial()`` draws once and returns that
        trial's ``per_trial`` residuals.

        Floating, the row runs ``count`` trials.  Exact, it runs the fewest
        that its bound needs, whatever ``count`` is: a wrong identity leaves
        a nonzero polynomial of degree at most ``degree``, which vanishes at
        a uniform draw from ``2 * DRAW_BOUND`` values with probability at most
        ``degree / (2 * DRAW_BOUND)`` (Schwartz 1980, Zippel 1979), so ``k``
        independent trials all pass with probability at most its ``k``-th
        power; the row runs the fewest ``k`` that bound it by
        ``2 ** -FALSE_PASS_BITS`` and its detail states the bound.
        """
        if self.exact:
            count = 1
            while _false_pass_bits(degree, count) < FALSE_PASS_BITS:
                count += 1
            detail = (f"{count} random {noun or 'draws'}; "
                      f"false pass <= 2^-{_false_pass_bits(degree, count)}")
        else:
            detail = f"{count} random {noun}" if noun else ""
        self.record(name, [r for _ in range(count) for r in trial()], detail, per_trial)

    def constant(self, form: KForm) -> KForm:
        """An exact constant form in the suite's mode."""
        return form if self.exact else form.as_float()


def _check_structure_form(s: _Suite, phi: KForm):
    """Identities that depend only on the candidate structure form."""
    raw = spin7.unchecked_model(phi)
    e = [Vector.basis(8, i, exact=s.exact) for i in range(1, 9)]

    s.record("star(phi) == phi", [form_residual(phi.hodge() - phi)])
    vol = s.constant(KForm.volume(8))
    s.record("phi ^ phi == 14 vol", [form_residual(phi.wedge(phi) - 14 * vol)])
    s.record("<phi, phi> == 14", [abs(phi.norm_sq() - 14)])

    completion = [
        ("e4 == -e1 x e2 x e3", e[3], -1, (e[0], e[1], e[2])),
        ("e6 == -e1 x e2 x e5", e[5], -1, (e[0], e[1], e[4])),
        ("e7 == -e1 x e3 x e5", e[6], -1, (e[0], e[2], e[4])),
        ("e8 == e2 x e3 x e5", e[7], 1, (e[1], e[2], e[4])),
    ]
    for name, target, sign, triple in completion:
        got = sign * spin7.cross3(raw, *triple)
        s.record(name, (abs(x) for x in (got - target).components))

    # the 12 equalities of the cross-product table, with the sign rule
    table = [
        ((1, 5), [(1, (2, 6)), (1, (3, 7)), (1, (4, 8))]),
        ((1, 6), [(-1, (2, 5)), (1, (3, 8)), (-1, (4, 7))]),
        ((1, 7), [(-1, (2, 8)), (-1, (3, 5)), (1, (4, 6))]),
        ((1, 8), [(1, (2, 7)), (-1, (3, 6)), (-1, (4, 5))]),
    ]
    table_residuals, rule_residuals = [], []
    for (i, j), rhs in table:
        lead = spin7.cross2(raw, e[i - 1], e[j - 1])
        for sign, (k, l) in rhs:
            other = spin7.cross2(raw, e[k - 1], e[l - 1])
            table_residuals.append(form_residual(lead - sign * other))
            # e_i x e_j = +-e_k x e_l iff phi(e_i,e_j,e_k,e_l) = -+1
            val = phi.evaluate(e[i - 1], e[j - 1], e[k - 1], e[l - 1])
            rule_residuals.append(abs(val + sign))
    s.record("cross-product table (12 equalities)", table_residuals)
    s.record("table sign rule phi(ei,ej,ek,el) == -sign", rule_residuals)

    # This row, the |vxw| row and the projection row state their identity on
    # the unhalved products (2 v x w, 4 pi7), scaled by 4 or 16, and divide
    # the residual once: exact inputs stay in integers, and a float residual
    # has the bits of the halved identity's.  inner-tau and the 21-component
    # row keep the public cross2, tau and proj2_7 checked.
    def inner_cross():
        a, b, c, d = s.vectors(4)
        lhs = spin7._doubled_cross2(raw, a, b).inner(spin7._doubled_cross2(raw, c, d))
        rhs = -phi.evaluate(a, b, c, d) + a.dot(c) * b.dot(d) - a.dot(d) * b.dot(c)
        return [divide(abs(lhs - 4 * rhs), 4)]
    s.polynomial("inner-cross-2", 4, s.trials, inner_cross, "quadruples", 1)

    def inner_tau():
        a, b, c, d, v, w = s.vectors(6)
        lhs = spin7.tau(raw, a, b, c, d).inner(spin7.cross2(raw, v, w))
        rhs = (flat(w).wedge(phi.contract(v))
               - flat(v).wedge(phi.contract(w))).evaluate(a, b, c, d)
        return [abs(lhs - rhs)]
    s.polynomial("inner-tau", 6, max(3, s.trials // 4), inner_tau, "inputs", 1)

    def norms():
        u, v, w = s.vectors(3)
        vw = flat(v).wedge(flat(w))
        c3 = spin7.cross3(raw, u, v, w)
        triple = flat(u).wedge(flat(v)).wedge(flat(w))
        # 2 v x w = 4 pi7(v ^ w), read from the wedge the right side takes
        return [divide(abs(spin7._minus_l(raw, vw).norm_sq() - 4 * vw.norm_sq()), 4),
                abs(c3.norm_sq() - triple.norm_sq())]
    s.polynomial("|vxw| == |v^w| and |uxvxw| == |u^v^w|", 6, s.trials, norms, "", 2)

    cert = spin7.is_spin7_form(phi)
    s.record("structure certificate", [0.0 if cert.passed else 1.0],
             "; ".join(f"{c.name}: {'ok' if c.passed else c.detail}"
                       for c in cert.checks))
    return cert


def _check_exterior_algebra(s: _Suite):
    def wedge():
        a, b, c = s.form(2), s.form(1), s.form(1)
        ab, bc = a.wedge(b), b.wedge(c)
        assoc = ab.wedge(c) - a.wedge(bc)
        anti = ab - b.wedge(a)  # even-odd degrees commute
        grade = bc + c.wedge(b)  # odd-odd anticommute
        return [form_residual(assoc), form_residual(anti), form_residual(grade)]
    s.polynomial("wedge associative and graded-anticommutative", 3, s.trials, wedge,
                 "triples", 3)

    def hodge():
        a, b = s.form(3), s.form(3)
        star_a = a.hodge()
        return [abs(star_a.inner(b.hodge()) - a.inner(b)),
                form_residual(star_a.hodge() - (-1) ** (3 * 5) * a)]
    s.polynomial("hodge isometry and involution sign", 2, s.trials, hodge, "", 2)

    def contraction():
        (v,), a, b = s.vectors(1), s.form(3), s.form(2)
        return [abs(a.contract(v).inner(b) - a.inner(flat(v).wedge(b)))]
    s.polynomial("contraction adjoint to wedge", 3, s.trials, contraction, "", 1)

    def sharp_flat():
        v, = s.vectors(1)
        return [abs(x) for x in (sharp(flat(v)) - v).components]
    s.polynomial("sharp(flat(v)) == v", 1, s.trials, sharp_flat, "", 8)

    residuals = []
    for _ in range(max(3, s.trials // 4)):
        a = random_form(s.rng, 8, 4)
        vs = [random_vector(s.rng, 8) for _ in range(4)]
        try:
            p1 = OrientedPlane(vs)
            p2 = OrientedPlane([vs[1], vs[0], vs[2], vs[3]])
            residuals.append(abs(restrict(a, p1) + restrict(a, p2)))
        except ValueError:
            continue
    s.outcomes.append(CheckResult.judge(
        "restrict orientation equivariance", residuals, exact=False,
        detail="floating planes (orthonormalization takes square roots)"))


def _check_model_level(s: _Suite, trials_light: int):
    m = spin7.standard_model(exact=s.exact)
    evals = m.lambda2_eigenvalues()
    s.record("lambda2 eigenvalues (-3 x7, +1 x21)",
             [0.0 if evals == {-3.0: 7, 1.0: 21} else 1.0])
    lambda4 = next(c for c in spin7.is_spin7_form(m.phi).checks if c.name == "lambda4 dims")
    s.record("lambda4 dims (1, 7, 27, 35)", [0.0 if lambda4.passed else 1.0])

    def projections():
        a = s.form(2)
        q7 = spin7._minus_l(m, a)  # 4 pi7(a)
        q21 = 4 * a - q7  # 4 pi21(a)
        return [divide(form_residual(spin7._minus_l(m, q7) - 4 * q7), 16),
                divide(form_residual(q7 + q21 - 4 * a), 4),
                divide(abs(q7.inner(q21)), 16)]
    s.polynomial("projections idempotent, orthogonal, resolve identity", 2, trials_light,
                 projections, "", 3)

    def component21():
        v, w = s.vectors(2)
        return [form_residual(spin7.proj2_21(m, spin7.cross2(m, v, w)))]
    s.polynomial("cross2 image has zero 21-component", 2, trials_light, component21, "", 1)

    s.record("7-summand generators are self-dual",
             [form_residual(gen.hodge() - gen) for gen in m.lambda4_forms(7)])
    s.record("stabilizer algebra annihilates phi",
             [form_residual(spin7.infinitesimal_action(m.phi, beta))
              for beta in m.lambda2_21_forms()[:7]],
             "21-summand generators act trivially")

    g2m = g2mod.build_g2()
    s.record("slice: psi == star7(phi3)", [form_residual(g2m.psi4 - g2m.phi3.hodge())])
    e7 = [Vector.basis(7, i, exact=s.exact) for i in range(1, 8)]
    s.record("slice: standard associative/coassociative planes",
             [0.0 if (g2mod.is_associative(g2m, OrientedPlane(e7[:3]))
                      and g2mod.is_coassociative(g2m, OrientedPlane(e7[3:]))) else 1.0])

    sweep = calib.CayleySweep(m)
    frames = calib.random_orthonormal_frames(s.rng, 2000, 4, 8)
    tn, vals = sweep(frames)
    # a nan plane fails the comparison, so it counts as disagreeing
    disagree = int((~(np.abs(vals * vals + tn * tn - 1) <= calib.AGREEMENT_TOL)).sum())
    s.record("cayley criteria agree on random planes", [float(disagree)],
             f"planes of 2000 with |value^2 + |tau|^2 - 1| > {calib.AGREEMENT_TOL:g}")

    # a point model raises at a plane its model does not calibrate
    e = [Vector.basis(8, i, exact=s.exact) for i in range(1, 9)]
    with s.rows("clifford relation of the symbol",
                "plane ASD forms embed conformally opposite E") as (clifford, asd):
        cpm = dirac.build_cayley_model(m, OrientedPlane(e[:4]))
        rep = dirac.clifford_check(cpm, trials=0 if s.exact else 8,
                                   seed=int(s.rng.integers(2**31)))
        s.keep(rep, clifford, "basis covectors only" if s.exact else "basis and random covectors")
        s.keep(dirac.asd_embedding_report(cpm), asd, "")

    with s.rows("h intertwines the Clifford actions") as (name,):
        apm = dirac.build_associative_model(g2m, OrientedPlane(e7[:3]))
        s.keep(dirac.h_equivariance_check(apm), name, "")

    with s.rows("special Lagrangian symbol intertwining") as (name,):
        m_sl = spin7.build_model(s.constant(calib.sl_model_form()))
        rep = dirac.sl_symbol_intertwine(m_sl, trials=6, seed=7)
        s.keep(rep, name, rep.detail)
    with s.rows("coassociative symbol intertwining") as (name,):
        rep = dirac.coassoc_symbol_intertwine(m, trials=6, seed=7)
        s.keep(rep, name, rep.detail)


def run_suite(exact: bool = True, seed: int = 0, trials: int = 60,
              form: Optional[KForm] = None) -> Tuple[List[CheckResult], dict]:
    """Run the identity suite; returns (outcomes, summary).

    ``form``: run the form-dependent identities against this candidate
    instead of the model form (the model-level checks are skipped).
    ``trials`` must be >= 0; it sets the trial counts of floating mode and
    of exact mode's one floating row.  An exact row on random draws runs
    the trials its stated bound needs (see ``_Suite.polynomial``) whatever
    ``trials`` is, so no exact row is vacuous at ``trials=0``.  Exact checks
    pass at residual 0, floating ones at residual at most ``spin7.CHECK_TOL``.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    s = _Suite(exact=exact, seed=seed, trials=trials)
    phi = form if form is not None else s.constant(spin7.phi0())
    _check_structure_form(s, phi)
    _check_exterior_algebra(s)
    if form is None:
        _check_model_level(s, trials_light=max(5, trials // 10))
    failed = [o for o in s.outcomes if not o.passed]
    summary = {
        "mode": "exact" if exact else "float",
        "checks": len(s.outcomes),
        "passed": len(s.outcomes) - len(failed),
        "failed": len(failed),
        "failed_names": [o.name for o in failed],
        "max_residual": max((o.residual for o in s.outcomes), default=0.0),
    }
    return s.outcomes, summary
