"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them live).
"""

import dataclasses
import time

import numpy as np

from conecalc import cones, grids, riesz, symmat
from conecalc.cones import (
    SampleConfig,
    branch_cone,
    check_relation,
    complex_branch_cone,
    dual_cone,
    enlarged_cone,
    map_branch_cone,
    margins,
    pdelta_cone,
    positivity,
    pp_cone,
    pp_subset_test,
    pucci_cone,
    riesz_characteristic,
    sigma_cone,
)
from conecalc.grids import GridFunction, canonical_extension
from conecalc.solver import problem_from_config, removability_experiment, solve


def report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


# -- criterion 1: closed-form Riesz characteristics ------------------------------


def test_criterion_1_riesz_characteristics():
    t0 = time.time()
    cases = []
    for delta in (0.1, 0.5, 1.0, 2.0):
        for n in (3, 5):
            cases.append((pdelta_cone(delta, n), (1 + delta * n) / (1 + delta)))
    for lam, Lam in ((1.0, 2.0), (1.0, 3.0), (2.0, 5.0)):
        for n in (3, 4):
            cases.append((pucci_cone(lam, Lam, n), (lam / Lam) * (n - 1) + 1))
    for n in range(1, 9):
        for k in range(1, n + 1):
            cases.append((sigma_cone(k, n), n / k))
    worst = 0.0
    for spec, expected in cases:
        rc = riesz_characteristic(spec)
        worst = max(worst, abs(rc.value - expected))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    report("C1", ok, f"{len(cases)} characteristics, worst dev {worst:.2e}, {elapsed:.1f}s")


# -- criterion 2: kernel Hessians ---------------------------------------------------


def fd_hessian(spec, x, h):
    n = x.size
    FD = np.zeros((n, n))

    def val(y):
        return float(riesz.kernel_value(spec, np.linalg.norm(y)))

    for i in range(n):
        for k in range(i, n):
            ei, ek = np.eye(n)[i] * h, np.eye(n)[k] * h
            FD[i, k] = FD[k, i] = (
                val(x + ei + ek) - val(x + ei - ek) - val(x - ei + ek) + val(x - ei - ek)
            ) / (4 * h * h)
    return FD


def test_criterion_2_kernel_harmonicity_and_consistency():
    rng = np.random.default_rng(2024)
    worst_sum = 0.0
    ratios = []
    for n in (2, 3, 5):
        for p in {1.5, 2.0, 2.5, 3.0, float(n)}:
            if p > n:
                continue
            spec = riesz.RieszKernelSpec(p, n)
            for _ in range(100):
                x = rng.standard_normal(n)
                x *= (0.5 + 1.5 * rng.random()) / np.linalg.norm(x)
                H = riesz.kernel_jet(spec, x).hessian
                worst_sum = max(worst_sum, abs(symmat.partial_sum(H, p)))
            for _ in range(10):
                x = rng.standard_normal(n)
                x *= (0.5 + 1.5 * rng.random()) / np.linalg.norm(x)
                exact = riesz.kernel_jet(spec, x).hessian.entries
                e1 = np.linalg.norm(fd_hessian(spec, x, 1e-2) - exact)
                e2 = np.linalg.norm(fd_hessian(spec, x, 5e-3) - exact)
                ratios.append(e1 / e2)
    ratios = np.array(ratios)
    ok = worst_sum <= 1e-10 and np.all((ratios >= 3.5) & (ratios <= 4.5))
    report(
        "C2",
        ok,
        f"partial sums <= {worst_sum:.1e} (tol 1e-10); "
        f"FD ratios in [{ratios.min():.2f}, {ratios.max():.2f}] (need 4 +- 0.5)",
    )


# -- criterion 3: branch duality ------------------------------------------------------


def test_criterion_3_branch_duality():
    rng = np.random.default_rng(3)
    disagreements = 0
    checked = 0
    for n in range(2, 7):
        mats = cones.sample_goe(rng, n, 10_000, 1.0)
        scale = 1.0 + np.abs(mats).reshape(len(mats), -1).max(axis=1)
        for k in range(1, n + 1):
            definitional = margins(dual_cone(branch_cone(k, n)), mats)
            reflected = margins(branch_cone(n - k + 1, n), mats)
            band = 1e-7 * scale
            decided = (np.abs(definitional) > band) & (np.abs(reflected) > band)
            disagreements += int(
                np.sum((definitional[decided] > 0) != (reflected[decided] > 0))
            )
            checked += int(decided.sum())
    for m in (1, 2, 3):
        n = 2 * m
        mats = cones.sample_goe(rng, n, 10_000, 1.0)
        scale = 1.0 + np.abs(mats).reshape(len(mats), -1).max(axis=1)
        for k in range(1, m + 1):
            definitional = margins(dual_cone(complex_branch_cone(k, n)), mats)
            reflected = margins(complex_branch_cone(m - k + 1, n), mats)
            band = 1e-7 * scale
            decided = (np.abs(definitional) > band) & (np.abs(reflected) > band)
            disagreements += int(
                np.sum((definitional[decided] > 0) != (reflected[decided] > 0))
            )
            checked += int(decided.sum())
    ok = disagreements == 0
    report("C3", ok, f"{checked} decided samples, {disagreements} disagreements")


def test_criterion_3_rejects_a_shifted_branch_mirror(monkeypatch):
    # control: with the mirror index n - k + 1 moved one step either way,
    # check_duality must fail on every cone whose shifted index is in [1, n]
    cfg = SampleConfig(seed=3, count=10_000)
    sweep = [(n, k) for n in range(2, 7) for k in range(1, n + 1)]
    unpatched = [(n, k) for n, k in sweep
                 if not cones.check_duality(branch_cone(k, n), cfg).passed]
    kind = cones._KINDS["branch"]
    missed = []
    for shift in (1, -1):
        monkeypatch.setitem(cones._KINDS, "branch", dataclasses.replace(
            kind, mirror=lambda s, shift=shift: branch_cone(s.dim - s.k + 1 + shift, s.dim)))
        missed += [(n, k, shift) for n, k in sweep if 1 <= n - k + 1 + shift <= n
                   and cones.check_duality(branch_cone(k, n), cfg).passed]
    ok = not unpatched and not missed
    report("C3 control", ok,
           f"unpatched failures {unpatched}; shifted mirrors passed {missed}")


# -- criterion 4: monotonicity and family-test transitions -----------------------------


def test_criterion_4_monotonicity_and_transitions():
    t0 = time.time()
    failures = []
    cone_count = 0
    for n in range(2, 7):
        for p in range(1, min(3, n) + 1):
            from math import comb

            for k in range(1, comb(n, p) + 1):
                cone_count += 1
                rep = check_relation(
                    map_branch_cone(p, k, n),
                    pp_cone(float(p), n),
                    SampleConfig(seed=1000 + cone_count, count=10_000),
                )
                if not rep.passed:
                    failures.append((n, p, k))
    transitions = [
        positivity(4),
        pp_cone(1.5, 4),
        pp_cone(2.0, 4),
        pp_cone(2.5, 4),
        pdelta_cone(0.1, 4),
        pdelta_cone(1.0, 4),
        pdelta_cone(2.0, 4),
        pucci_cone(1.0, 2.0, 4),
        pucci_cone(2.0, 5.0, 4),
        sigma_cone(1, 4),
        sigma_cone(2, 4),
        sigma_cone(3, 4),
        sigma_cone(4, 4),
        map_branch_cone(2, 1, 4),
        enlarged_cone(pp_cone(2.0, 4), 0.25),
        complex_branch_cone(1, 4),
        cones.horizontal_cone(symmat.Frame(np.eye(4)[:2]), 4),
    ]
    closed_forms = {
        spec.describe(): cones.closed_form_characteristic(spec) for spec in transitions
    }
    closed_forms["horiz:2-plane"] = 2.0  # coordinate plane, caught by the axes
    bad_transitions = []
    for spec in transitions:
        cf = closed_forms[spec.describe()]
        if cf is None or cf >= spec.dim:
            if not pp_subset_test(spec, float(spec.dim)).passed:
                bad_transitions.append(spec.describe())
            continue
        below = max(1.0, cf - 1e-6)  # the family test domain starts at 1
        if not pp_subset_test(spec, below).passed:
            bad_transitions.append(spec.describe() + " (below)")
        if pp_subset_test(spec, cf + 1e-6).passed:
            bad_transitions.append(spec.describe() + " (above)")
    ok = not failures and not bad_transitions
    report(
        "C4",
        ok,
        f"{cone_count} branch cones x 10^4 samples, failures {failures}; "
        f"transition errors {bad_transitions}; {time.time() - t0:.1f}s",
    )


# -- criterion 5: Grassmannian consistency -----------------------------------------------


def test_criterion_5_frame_traces_dominate_partial_sums():
    rng = np.random.default_rng(5)
    worst_floor = np.inf
    worst_eigen = 0.0
    for trial in range(100):
        n = 2 + trial % 5
        p = int(rng.integers(1, n + 1))
        G = rng.standard_normal((n, n))
        A = symmat.SymMatrix(0.5 * (G + G.T))
        s_p = symmat.partial_sum(A, p)
        raw = rng.standard_normal((10_000, n, p))
        q = np.linalg.qr(raw)[0]  # (10000, n, p), orthonormal columns
        traces = np.einsum("fip,ij,fjp->f", q, A.entries, q)
        worst_floor = min(worst_floor, float(traces.min() - s_p))
        eigenframe = symmat.Frame(np.linalg.eigh(A.entries)[1][:, :p].T)
        worst_eigen = max(
            worst_eigen, abs(symmat.trace_over_frame(A, eigenframe) - s_p)
        )
    ok = worst_floor >= -1e-9 and worst_eigen <= 1e-10
    report(
        "C5",
        ok,
        f"min frame trace - partial sum >= {worst_floor:.2e} (need >= -1e-9); "
        f"eigenframe equality {worst_eigen:.1e} (need <= 1e-10)",
    )


# -- criterion 6: solver accuracy ------------------------------------------------------------


def annulus_config(nside, p=1.5, a=0.125):
    h = 2.0 / (nside - 1)
    return {
        "operator": "pp",
        "p": p,
        "grid": {"shape": [nside, nside], "origin": [-1, -1], "h": h},
        "boundary": {"expr": "(x*x+y*y)**0.25"},
        "hole": {"min": [-a, -a], "max": [a, a]},
    }


def test_criterion_6_solver_accuracy():
    cfg = {
        "operator": "pp",
        "p": 2,
        "grid": {"shape": [65, 65], "origin": [-1, -1], "h": 2 / 64},
        "boundary": {"expr": "x*x - y*y"},
    }
    prob = problem_from_config(cfg)
    t0 = time.time()
    rep = solve(prob, tol=1e-10)
    t_quad = time.time() - t0
    X, Y = grids.grid_coordinates(prob.shape, prob.origin, prob.h)
    quad_err = float(np.max(np.abs(rep.solution.values - (X * X - Y * Y))))

    rels = {}
    times = {}
    converged = {}
    for nside in (129, 257):
        prob = problem_from_config(annulus_config(nside))
        t0 = time.time()
        rep = solve(prob, tol=1e-10)
        times[nside] = time.time() - t0
        converged[nside] = rep.converged
        unk = prob.unknown_mask()
        err = float(np.max(np.abs(rep.solution.values[unk] - prob.boundary_values[unk])))
        rels[nside] = err / float(np.max(np.abs(prob.boundary_values[unk])))
    ok = (
        quad_err <= 1e-8
        and rels[129] <= 0.02
        and rels[257] < rels[129]
        and all(converged.values())
        and max(t_quad, *times.values()) <= 60.0
    )
    report(
        "C6",
        ok,
        f"quadratic 65^2 err {quad_err:.1e} (tol 1e-8); annulus rel err "
        f"129^2 {rels[129]:.5f} (tol 0.02) -> 257^2 {rels[257]:.5f} (strictly smaller); "
        f"converged {converged}; "
        f"slowest solve {max(t_quad, *times.values()):.1f}s (cap 60s)",
    )


# -- criterion 7: removability experiments ------------------------------------------------------


def test_criterion_7_removability():
    quad = problem_from_config(
        {
            "operator": "pp",
            "p": 2,
            "grid": {"shape": [65, 65], "origin": [-1, -1], "h": 2 / 64},
            "boundary": {"expr": "x*x - y*y"},
        }
    )
    rq = removability_experiment(quad, [[0.0, 0.0]], tol=1e-10)

    # grid offset by h/2 so no lattice node hits the kernel pole inside
    # the hole (boundary data must stay finite)
    h = 2 / 64
    ann = problem_from_config(
        {
            "operator": "pp",
            "p": 2,
            "grid": {"shape": [65, 65], "origin": [-1 + h / 2, -1 + h / 2], "h": h},
            "boundary": {"expr": "0.5*log(x*x+y*y)"},
            "hole": {"min": [-0.125, -0.125], "max": [0.125, 0.125]},
        }
    )
    puncture = ann.origin + ann.h * np.array([48, 48])
    rk = removability_experiment(ann, [puncture], tol=1e-10)
    five_h = 5 * ann.h
    perturbations_ok = all(v == 0 for v in rq.perturbation_checks.values()) and all(
        v == 0 for v in rk.perturbation_checks.values()
    )
    ok = (
        rq.sup_gap <= 1e-6
        and max(rk.sup_gap, rk.masked_gap) <= five_h
        and set(rq.perturbation_checks) == {1e-2, 1e-3}
        and perturbations_ok
    )
    report(
        "C7",
        ok,
        f"quadratic sup gap {rq.sup_gap:.1e} (tol 1e-6); kernel annulus gap "
        f"{max(rk.sup_gap, rk.masked_gap):.3f} (tol 5h = {five_h:.3f}); "
        f"perturbation checks clean for eps 1e-2, 1e-3: {perturbations_ok}",
    )


# -- criterion 8: Pucci hyperbolic polynomial -----------------------------------------------------


def segment_meets_cube(vertex, lam, Lam):
    ts = np.linspace(0.0, 1.0, 2001)[1:-1]
    pts = ts[:, None] * vertex[None, :]
    return bool(np.all((pts >= lam - 1e-12) & (pts <= Lam + 1e-12), axis=1).any())


def test_criterion_8_pucci_garding_polynomial():
    lam, Lam = 1.0, 2.0
    rng = np.random.default_rng(8)
    family_ok = True
    for n in (2, 3, 4):
        family = cones.garding_index_family(n, lam, Lam)
        brute = 0
        for mask in range(2**n):
            vertex = np.full(n, Lam)
            for i in range(n):
                if mask >> i & 1:
                    vertex[i] = lam
            if not segment_meets_cube(vertex, lam, Lam):
                brute += 1
        family_ok = family_ok and len(family) == 2**n - 1 == brute
    mismatches = 0
    decided_total = 0
    for n in (2, 3, 4):
        mats = cones.sample_goe(rng, n, 10_000, 1.0)
        eigs = np.linalg.eigvalsh(mats)
        minf = cones.garding_pucci_min_factors(eigs, lam, Lam)
        interior = margins(pucci_cone(lam, Lam, n), mats)
        band = 1e-7 * (1.0 + np.abs(mats).reshape(len(mats), -1).max(axis=1))
        decided = (np.abs(minf) > band) & (np.abs(interior) > band)
        mismatches += int(np.sum((minf[decided] > 0) != (interior[decided] > 0)))
        decided_total += int(decided.sum())
    ok = family_ok and mismatches == 0
    report(
        "C8",
        ok,
        f"family sizes 2^n - 1 via segment-cube oracle: {family_ok}; "
        f"{decided_total} decided samples, {mismatches} sign mismatches",
    )


# -- criterion 9: canonical extension properties ------------------------------------------------------


def random_masked_grid(rng):
    nd = int(rng.integers(1, 4))
    shape = tuple(int(rng.integers(4, 10 - 2 * (nd - 1)) + 3) for _ in range(nd))
    vals = rng.standard_normal(shape) * (1.0 + 2.0 * rng.random())
    mask = rng.random(shape) < 0.15
    if mask.all():
        mask[tuple(0 for _ in shape)] = False
    return GridFunction(vals, np.zeros(nd), 0.5, mask)


def test_criterion_9_canonical_extension_properties():
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(500):
        u = random_masked_grid(rng)
        first = canonical_extension(u)
        # exact pass-through off the mask
        off = ~u.masked()
        assert np.array_equal(first.extended.values[off], u.values[off])
        # idempotence
        second = canonical_extension(first.extended)
        assert np.array_equal(second.extended.values, first.extended.values)
        assert second.changed_points == 0
        # monotonicity against a dominating partner
        v = GridFunction(
            u.values + rng.random(u.shape), u.origin, u.h, u.mask
        )
        bigger = canonical_extension(v)
        finite = np.isfinite(first.extended.values)
        assert np.all(
            bigger.extended.values[finite] >= first.extended.values[finite] - 1e-12
        )
        checked += 1

    # deep-interior masked points (beyond the shell cap) drop to -inf
    vals = np.zeros((15, 15))
    mask = np.zeros((15, 15), dtype=bool)
    mask[1:14, 1:14] = True
    deep = canonical_extension(GridFunction(vals, [0, 0], 1.0, mask))
    assert np.isneginf(deep.extended.values[7, 7])

    # polar atoms are marked -inf exactly where the atoms sit (polar
    # functions need p >= 2, so ambient dimension at least 2)
    atom_checks = 0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        shape = tuple(int(rng.integers(5, 9)) for _ in range(n))
        h = 0.25
        origin = -h * (np.array(shape) // 2)
        idx = tuple(int(rng.integers(1, s - 1)) for s in shape)
        atom = origin + h * np.array(idx)
        polar = riesz.build_polar([atom], 2.0 if n < 3 else 2.5)
        coords = grids.grid_coordinates(shape, origin, h)
        pts = np.stack([c.reshape(-1) for c in coords], axis=1)
        vals = polar.values(pts).reshape(shape)
        neg = np.isneginf(vals)
        assert neg.sum() == 1 and neg[idx]
        atom_checks += 1
    report("C9", True, f"{checked} randomized grids + {atom_checks} polar samplings")
