"""The runnable identity suite behind ``cayley8 verify``.

Each row hands all of its residuals to ``CheckResult.judge``, which folds
them to the worst (a nan among them included) and records one
:class:`cayley8.spin7.CheckResult` (exact inputs pass only at residual 0);
the suite keeps the verdicts of :mod:`cayley8.dirac`'s checks, judged
where they run.  With an injected structure form, only the
form-dependent checks run (a corrupted form then fails with the violated
identity named); otherwise the model-level checks (splittings, slices,
symbols, intertwinings) run as well.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np

from . import calib, dirac, g2 as g2mod, spin7
from .multivec import (KForm, OrientedPlane, Vector, divide, flat,
                       random_form, random_vector, restrict, sharp)
from .spin7 import CheckResult, form_residual


class _Suite:
    def __init__(self, exact: bool, seed: int, trials: int):
        self.exact = exact
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
        return [random_vector(self.rng, 8, exact=self.exact) for _ in range(count)]

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
    residuals = []
    for _ in range(s.trials):
        a, b, c, d = s.vectors(4)
        lhs = spin7._doubled_cross2(raw, a, b).inner(spin7._doubled_cross2(raw, c, d))
        rhs = -phi.evaluate(a, b, c, d) + a.dot(c) * b.dot(d) - a.dot(d) * b.dot(c)
        residuals.append(divide(abs(lhs - 4 * rhs), 4))
    s.record("inner-cross-2", residuals, f"{s.trials} random quadruples")

    residuals = []
    for _ in range(max(3, s.trials // 4)):
        a, b, c, d, v, w = s.vectors(6)
        lhs = spin7.tau(raw, a, b, c, d).inner(spin7.cross2(raw, v, w))
        rhs = (flat(w).wedge(phi.contract(v))
               - flat(v).wedge(phi.contract(w))).evaluate(a, b, c, d)
        residuals.append(abs(lhs - rhs))
    s.record("inner-tau", residuals, f"{max(3, s.trials // 4)} random inputs")

    residuals = []
    for _ in range(s.trials):
        u, v, w = s.vectors(3)
        vw = flat(v).wedge(flat(w))
        # 2 v x w = 4 pi7(v ^ w), read from the wedge the right side takes
        residuals.append(divide(abs(spin7._minus_l(raw, vw).norm_sq() - 4 * vw.norm_sq()), 4))
        c3 = spin7.cross3(raw, u, v, w)
        triple = flat(u).wedge(flat(v)).wedge(flat(w))
        residuals.append(abs(c3.norm_sq() - triple.norm_sq()))
    s.record("|vxw| == |v^w| and |uxvxw| == |u^v^w|", residuals, per_trial=2)

    cert = spin7.is_spin7_form(phi)
    s.record("structure certificate", [0.0 if cert.passed else 1.0],
             "; ".join(f"{c.name}: {'ok' if c.passed else c.detail}"
                       for c in cert.checks))
    return cert


def _check_exterior_algebra(s: _Suite):
    residuals = []
    for _ in range(s.trials):
        a = random_form(s.rng, 8, 2, exact=s.exact)
        b = random_form(s.rng, 8, 1, exact=s.exact)
        c = random_form(s.rng, 8, 1, exact=s.exact)
        ab, bc = a.wedge(b), b.wedge(c)
        assoc = ab.wedge(c) - a.wedge(bc)
        anti = ab - b.wedge(a)  # even-odd degrees commute
        grade = bc + c.wedge(b)  # odd-odd anticommute
        residuals += [form_residual(assoc), form_residual(anti), form_residual(grade)]
    s.record("wedge associative and graded-anticommutative", residuals,
             f"{s.trials} random triples", per_trial=3)

    residuals = []
    for _ in range(s.trials):
        a = random_form(s.rng, 8, 3, exact=s.exact)
        b = random_form(s.rng, 8, 3, exact=s.exact)
        star_a = a.hodge()
        residuals.append(abs(star_a.inner(b.hodge()) - a.inner(b)))
        residuals.append(form_residual(star_a.hodge() - (-1) ** (3 * 5) * a))
    s.record("hodge isometry and involution sign", residuals, per_trial=2)

    residuals = []
    for _ in range(s.trials):
        v = random_vector(s.rng, 8, exact=s.exact)
        a = random_form(s.rng, 8, 3, exact=s.exact)
        b = random_form(s.rng, 8, 2, exact=s.exact)
        residuals.append(abs(a.contract(v).inner(b) - a.inner(flat(v).wedge(b))))
    s.record("contraction adjoint to wedge", residuals)

    residuals = []
    for _ in range(s.trials):
        v = random_vector(s.rng, 8, exact=s.exact)
        residuals += (abs(x) for x in (sharp(flat(v)) - v).components)
    s.record("sharp(flat(v)) == v", residuals, per_trial=8)

    residuals = []
    for _ in range(max(3, s.trials // 4)):
        a = random_form(s.rng, 8, 4, exact=False)
        vs = [random_vector(s.rng, 8, exact=False) for _ in range(4)]
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
    s.record("lambda4 dims (1, 7, 27, 35)",
             [0.0 if m.lambda4_dims == (1, 7, 27, 35) else 1.0])

    residuals = []
    for _ in range(trials_light):
        a = random_form(s.rng, 8, 2, exact=s.exact)
        q7 = spin7._minus_l(m, a)  # 4 pi7(a)
        q21 = 4 * a - q7  # 4 pi21(a)
        residuals += [divide(form_residual(spin7._minus_l(m, q7) - 4 * q7), 16),
                      divide(form_residual(q7 + q21 - 4 * a), 4),
                      divide(abs(q7.inner(q21)), 16)]
    s.record("projections idempotent, orthogonal, resolve identity", residuals, per_trial=3)

    residuals = []
    for _ in range(trials_light):
        v, w = s.vectors(2)
        residuals.append(form_residual(spin7.proj2_21(m, spin7.cross2(m, v, w))))
    s.record("cross2 image has zero 21-component", residuals)

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

    e = [Vector.basis(8, i, exact=s.exact) for i in range(1, 9)]
    cpm = dirac.build_cayley_model(m, OrientedPlane(e[:4]))
    rep = dirac.clifford_check(cpm, trials=0 if s.exact else 8,
                               seed=int(s.rng.integers(2**31)))
    s.keep(rep, "clifford relation of the symbol",
           "basis covectors only" if s.exact else "basis and random covectors")
    s.keep(dirac.asd_embedding_report(cpm), "plane ASD forms embed conformally opposite E", "")

    apm = dirac.build_associative_model(g2m, OrientedPlane(e7[:3]))
    s.keep(dirac.h_equivariance_check(apm), "h intertwines the Clifford actions", "")

    m_sl = spin7.build_model(s.constant(calib.sl_model_form()))
    rep = dirac.sl_symbol_intertwine(m_sl, trials=6, seed=7)
    s.keep(rep, "special Lagrangian symbol intertwining", rep.detail)
    rep = dirac.coassoc_symbol_intertwine(m, trials=6, seed=7)
    s.keep(rep, "coassociative symbol intertwining", rep.detail)


def run_suite(exact: bool = True, seed: int = 0, trials: int = 60,
              form: Optional[KForm] = None) -> Tuple[List[CheckResult], dict]:
    """Run the identity suite; returns (outcomes, summary).

    ``form``: run the form-dependent identities against this candidate
    instead of the model form (the model-level checks are skipped).
    ``trials`` must be >= 0.  Exact checks pass at residual 0, floating
    ones at residual at most ``spin7.CHECK_TOL``.
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
