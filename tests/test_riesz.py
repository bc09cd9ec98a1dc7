import tracemalloc
import warnings

import numpy as np
import pytest

from conecalc import cones, riesz, symmat
from conecalc.errors import (
    DimensionMismatchError,
    DomainError,
    PoleError,
    UnsupportedPolarError,
)
from conecalc.riesz import (
    DiscreteMeasure,
    RieszKernelSpec,
    box_dimension,
    build_polar,
    kernel_jet,
    kernel_value,
    potential_jet,
    potential_value,
    potential_values,
    uniform_measure,
)


def fd_hessian(spec, x, h):
    n = x.size
    FD = np.zeros((n, n))

    def val(y):
        return float(kernel_value(spec, np.linalg.norm(y)))

    for i in range(n):
        for k in range(n):
            ei = np.eye(n)[i] * h
            ek = np.eye(n)[k] * h
            FD[i, k] = (
                val(x + ei + ek) - val(x + ei - ek) - val(x - ei + ek) + val(x - ei - ek)
            ) / (4 * h * h)
    return FD


def random_points(rng, count, n, lo=0.5, hi=2.0):
    x = rng.standard_normal((count, n))
    radii = lo + (hi - lo) * rng.random(count)
    return x * (radii / np.linalg.norm(x, axis=1))[:, None]


# -- kernel jets -----------------------------------------------------------------


def test_kernel_value_cases():
    assert kernel_jet(RieszKernelSpec(3.0, 3), [2.0, 0.0, 0.0]).value == pytest.approx(-0.5)
    assert kernel_jet(RieszKernelSpec(2.0, 2), [1.0, 0.0]).value == pytest.approx(0.0)
    assert kernel_jet(RieszKernelSpec(1.5, 2), [4.0, 0.0]).value == pytest.approx(2.0)


def test_kernel_hessian_axis_point():
    jet = kernel_jet(RieszKernelSpec(3.0, 3), [1.0, 0.0, 0.0])
    assert np.allclose(jet.hessian.entries, np.diag([-2.0, 1.0, 1.0]))
    assert symmat.partial_sum(jet.hessian, 3.0) == pytest.approx(0.0, abs=1e-12)


def test_kernel_hessian_eigenvalue_structure():
    rng = np.random.default_rng(0)
    for p in (1.5, 2.0, 2.5, 3.0):
        spec = RieszKernelSpec(p, 4)
        for x in random_points(rng, 5, 4):
            jet = kernel_jet(spec, x)
            r = np.linalg.norm(x)
            lam = np.linalg.eigvalsh(jet.hessian.entries)
            c = spec.c_p * r**-p
            expected = np.sort([(1 - p) * c] + [c] * 3)
            assert np.allclose(lam, expected, atol=1e-12 * (1 + c))


def test_kernel_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-6
    for p in (1.5, 2.0, 3.0):
        spec = RieszKernelSpec(p, 3)
        x = random_points(rng, 1, 3)[0]
        jet = kernel_jet(spec, x)
        for i in range(3):
            e = np.eye(3)[i] * h
            fd = (
                kernel_value(spec, np.linalg.norm(x + e))
                - kernel_value(spec, np.linalg.norm(x - e))
            ) / (2 * h)
            assert jet.gradient[i] == pytest.approx(float(fd), abs=1e-7)


def test_kernel_hessian_second_order_accuracy():
    # central differences converge at second order: error ratio 4 under h/2
    rng = np.random.default_rng(2)
    for p in (1.5, 2.5):
        spec = RieszKernelSpec(p, 3)
        x = random_points(rng, 1, 3)[0]
        H = kernel_jet(spec, x).hessian.entries
        e1 = np.linalg.norm(fd_hessian(spec, x, 1e-2) - H)
        e2 = np.linalg.norm(fd_hessian(spec, x, 5e-3) - H)
        assert e1 / e2 == pytest.approx(4.0, abs=0.2)


def test_kernel_pole_errors():
    with pytest.raises(PoleError) as err:
        kernel_jet(RieszKernelSpec(3.0, 3), np.zeros(3))
    assert np.isneginf(err.value.limit_value)
    with pytest.raises(PoleError) as err:
        kernel_jet(RieszKernelSpec(1.5, 2), np.zeros(2))
    assert err.value.limit_value == 0.0


@pytest.mark.parametrize("scale", [1e200, 3e160, 2e154])
def test_kernel_and_potential_jets_far_from_the_pole(scale):
    # np.linalg.norm squares first: at |x| = 1e200 it overflowed, and the
    # jet read r = inf, value -0.0 and gradient 0
    spec = RieszKernelSpec(p=2.5, n=3)
    x = np.array([0.6, 0.0, 0.8]) * scale
    jet = kernel_jet(spec, x)
    assert jet.value == pytest.approx(-scale ** -0.5, rel=1e-15)
    expected = 0.5 * scale ** -1.5 * np.array([0.6, 0.0, 0.8])
    assert np.allclose(jet.gradient, expected, rtol=1e-15, atol=0.0)
    atom = DiscreteMeasure(np.zeros((1, 3)), np.ones(1))
    pjet = potential_jet(spec, atom, x)
    assert pjet.value == jet.value and np.array_equal(pjet.gradient, jet.gradient)
    assert potential_values(spec, atom, np.stack([x, -x])).tolist() == [jet.value] * 2


def test_norm_is_numpys_at_ordinary_points():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((500, 3)) * 10.0 ** rng.uniform(-140, 140, (500, 1))
    assert np.array_equal(riesz._norm(pts), np.linalg.norm(pts, axis=-1))
    assert all(riesz._norm(x) == np.linalg.norm(x) for x in pts)
    assert riesz._norm(np.array([3e200, 4e200])) == pytest.approx(5e200, rel=1e-15)
    assert riesz._norm(np.array([3e-200, 4e-200])) == pytest.approx(5e-200, rel=1e-15)
    edge = riesz._norm(np.array([[0.0, 0.0], [np.inf, 1.0], [np.nan, 1.0]]))
    assert edge[0] == 0.0 and edge[1] == np.inf and np.isnan(edge[2])


def test_potential_at_a_point_too_far_from_an_atom_is_a_typed_error():
    # the points and atoms are finite; a distance, or the difference behind
    # it, overflows float64 and reached the kernel as inf
    spec = RieszKernelSpec(p=2.0, n=2)
    mu = DiscreteMeasure(np.array([[0.1, 0.2], [-1e308, 0.0]]), np.ones(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^the distance from point x = \[1\.5e\+308, "
                           r"1\.5e\+308\] to the atom at \[0\.1, 0\.2\] overflows float64$"):
            potential_values(spec, mu, [[0.0, 0.0], [1.5e308, 1.5e308]])
        with pytest.raises(DomainError, match=r"to the atom at \[-1e\+308, 0\.0\] overflows"):
            potential_values(spec, mu, [[1e308, 0.0]])
        with pytest.raises(DomainError, match=r"^point x = \[nan, 0\.0\] must be finite$"):
            potential_values(spec, mu, [[0.0, 0.0], [np.nan, 0.0]])
        with pytest.raises(DomainError, match="overflows float64"):
            kernel_jet(RieszKernelSpec(p=3.0, n=3), [1.5e308, 1.5e308, 0.0])


def test_kernel_spec_validation():
    with pytest.raises(DomainError):
        RieszKernelSpec(0.5, 3)
    with pytest.raises(DomainError):
        RieszKernelSpec(3.5, 3)


# -- potentials -------------------------------------------------------------------


def test_potential_single_atom_equals_kernel():
    spec = RieszKernelSpec(2.5, 3)
    mu = DiscreteMeasure(np.zeros((1, 3)), np.ones(1))
    rng = np.random.default_rng(3)
    for x in random_points(rng, 5, 3):
        kj = kernel_jet(spec, x)
        pj = potential_jet(spec, mu, x)
        assert pj.value == pytest.approx(kj.value)
        assert np.allclose(pj.gradient, kj.gradient)
        assert np.allclose(pj.hessian.entries, kj.hessian.entries)


def test_potential_two_atoms_value():
    spec = RieszKernelSpec(3.0, 3)
    mu = DiscreteMeasure(np.array([[1.0, 0, 0], [-1.0, 0, 0]]), np.ones(2))
    assert potential_value(spec, mu, np.zeros(3)) == pytest.approx(-2.0)


def test_potential_values_check_dimensions():
    # the batched path is the only one, so it owns the dimension checks
    spec = RieszKernelSpec(3.0, 3)
    rng = np.random.default_rng(9)
    mu = DiscreteMeasure(rng.standard_normal((40, 3)), rng.random(40))
    xs = rng.standard_normal((50, 3))
    batched = potential_values(spec, mu, xs)
    assert all(potential_value(spec, mu, x) == v for x, v in zip(xs, batched))
    with pytest.raises(DimensionMismatchError):
        potential_values(spec, mu, rng.standard_normal((5, 2)))
    with pytest.raises(DimensionMismatchError):
        potential_values(RieszKernelSpec(3.0, 4), mu, rng.standard_normal((5, 4)))
    with pytest.raises(DimensionMismatchError):
        potential_value(spec, mu, np.zeros(2))


def test_potential_subharmonic_at_random_points():
    rng = np.random.default_rng(4)
    spec = RieszKernelSpec(2.5, 3)
    mu = DiscreteMeasure(rng.standard_normal((6, 3)) * 0.3, rng.random(6) + 0.1)
    count = 0
    while count < 1000:
        x = rng.standard_normal(3) * 2.0
        if np.linalg.norm(mu.points - x, axis=1).min() < 1e-3:
            continue
        jet = potential_jet(spec, mu, x)
        assert symmat.partial_sum(jet.hessian, spec.p) >= -1e-9 * jet.hessian.scale
        count += 1


def test_potential_on_atom():
    spec = RieszKernelSpec(3.0, 3)
    mu = DiscreteMeasure(np.zeros((1, 3)), np.ones(1))
    assert potential_jet(spec, mu, np.zeros(3)) == -np.inf
    low = RieszKernelSpec(1.5, 3)
    assert potential_value(low, mu, np.zeros(3)) == pytest.approx(0.0)
    with pytest.raises(PoleError):
        potential_jet(low, mu, np.zeros(3))


def test_potential_near_pole_guard():
    spec = RieszKernelSpec(2.0, 2)
    mu = DiscreteMeasure(np.zeros((1, 2)), np.ones(1))
    assert potential_jet(spec, mu, np.array([1e-13, 0.0])) == -np.inf


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_atom_sums_in_blocks_are_bitwise_one_block(monkeypatch, p):
    rng = np.random.default_rng(12)
    atoms = rng.uniform(-1.0, 1.0, (37, 3))
    mu = DiscreteMeasure(atoms, rng.uniform(0.0, 1.0, 37))
    xs = np.vstack([rng.uniform(-1.0, 1.0, (5000, 3)), atoms[:4]])  # atoms read the pole
    spec = RieszKernelSpec(p=p, n=3)
    blocked = potential_values(spec, mu, xs)
    assert riesz._BLOCK_ENTRIES < xs.size * atoms.shape[0]
    monkeypatch.setattr(riesz, "_BLOCK_ENTRIES", xs.size * atoms.shape[0])
    assert blocked.tobytes() == potential_values(spec, mu, xs).tobytes()
    assert np.isneginf(blocked[-4:]).all() == (p >= 2.0)


def test_atom_sums_run_in_bounded_memory():
    # 200 atoms over 65^2 points: summed at once, they traced a 40.6 MB
    # peak; in blocks of 2^18 differences, 8.6 MB
    X, Y = np.meshgrid(np.linspace(-1.0, 1.0, 65), np.linspace(-1.0, 1.0, 65))
    xs = np.column_stack([X.ravel(), Y.ravel()])
    polar = build_polar(np.random.default_rng(13).uniform(-0.5, 0.5, (200, 2)), 2.0)
    tracemalloc.start()
    try:
        vals = polar.values(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(vals).all() and peak < 12e6


# -- polar functions ---------------------------------------------------------------


def test_single_point_polar_blows_down():
    polar = build_polar([[0.0, 0.0, 0.0]], 3.0)
    assert np.isneginf(potential_value(polar.spec, polar.measure, [0.0, 0.0, 0.0]))
    vals = [potential_value(polar.spec, polar.measure, [r, 0.0, 0.0]) for r in (0.1, 0.01, 0.001)]
    assert vals[0] > vals[1] > vals[2]


def test_polar_rejects_small_p():
    with pytest.raises(UnsupportedPolarError):
        build_polar([[0.0, 0.0]], 1.5)


def test_segment_polar_smooth_away_from_atoms():
    ts = np.linspace(-0.5, 0.5, 100)
    points = np.column_stack([ts, np.zeros(100), np.zeros(100)])
    polar = build_polar(points, 3.0)
    probes = np.array([[0.0, 0.2, 0.0], [0.6, 0.1, 0.0], [0.0, 0.0, -0.3]])
    for x in probes:
        jet = potential_jet(polar.spec, polar.measure, x)
        assert np.isfinite(jet.value)
        assert np.all(np.isfinite(jet.hessian.entries))


def test_polar_marks_exactly_atoms_on_grid():
    points = np.array([[0.0, 0.0], [0.25, -0.25]])
    polar = build_polar(points, 2.0)
    axes = np.linspace(-0.5, 0.5, 9)
    X, Y = np.meshgrid(axes, axes, indexing="ij")
    vals = polar.values(np.column_stack([X.reshape(-1), Y.reshape(-1)])).reshape(9, 9)
    neg = np.isneginf(vals)
    assert neg.sum() == 2
    assert neg[4, 4] and neg[6, 2]


def test_kernel_membership_matches_unit_vector_family():
    # the kernel Hessian is a scaled I - p P_e, so cone membership of the
    # Hessian at any point decides the family test and conversely
    rng = np.random.default_rng(6)
    n = 3
    specs = [
        cones.pp_cone(2.5, n),
        cones.pdelta_cone(1.0, n),
        cones.pucci_cone(1.0, 2.0, n),
        cones.sigma_cone(2, n),
    ]
    for p in (1.5, 2.0, 2.5):
        kspec = RieszKernelSpec(p, n)
        for M in specs:
            family = cones.pp_subset_test(M, p).passed
            for x in random_points(rng, 20, n):
                hess = kernel_jet(kspec, x).hessian
                assert cones.contains(M, hess).member == family, (M.describe(), p)


# -- box counting -------------------------------------------------------------------


def test_box_dimension_degenerate_sets():
    assert box_dimension([[1.0, 2.0]], [0.5, 0.25]) == 0.0
    assert box_dimension([[1.0, 2.0], [1.0, 2.0]], [0.5, 0.25]) == 0.0


def test_box_dimension_segment():
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.random(10_000), np.zeros(10_000), np.zeros(10_000)])
    dim = box_dimension(pts, [0.25, 0.125, 0.0625, 0.03125, 0.015625])
    assert abs(dim - 1.0) <= 0.15


def test_box_dimension_square_patch():
    rng = np.random.default_rng(8)
    pts = np.column_stack([rng.random(10_000), rng.random(10_000), np.zeros(10_000)])
    dim = box_dimension(pts, [0.5, 0.25, 0.125, 0.0625])
    assert abs(dim - 2.0) <= 0.2


def test_box_dimension_needs_two_scales():
    with pytest.raises(DomainError):
        box_dimension([[0.0], [1.0]], [0.5])


@pytest.mark.parametrize("scales,match", [
    pytest.param([0.1, 0.1], "distinct", id="repeated"),
    pytest.param([0.5, 0.25, 0.5], "distinct", id="repeated-of-three"),
    pytest.param([0.1, 0.1000000000000001], "too close", id="one-ulp-apart"),
    pytest.param([0.1, 1e-300], "int64", id="index-overflows-int64"),
    pytest.param([0.1, np.inf], "finite", id="infinite"),
])
def test_box_dimension_rejects_degenerate_scales(scales, match):
    # repeated scales gave a meaningless slope with a RankWarning, and a
    # scale of 1e-300 an index cast of inf with "invalid value" and a
    # slope of -1.9e-19
    with pytest.raises(DomainError, match=match):
        box_dimension([[0.0, 0.0], [0.5, 0.5]], scales)


def test_box_counts_of_far_apart_points_are_a_domain_error():
    # the span 2e308 overflows; no subtraction warning, no int64 cast of inf
    with pytest.raises(DomainError, match="int64"):
        box_dimension([[1e308, 0.0], [-1e308, 0.0]], [0.5, 0.25])


# -- measures and files ----------------------------------------------------------------


def test_measure_validation():
    with pytest.raises(DomainError):
        DiscreteMeasure(np.zeros((1, 2)), np.array([-1.0]))
    with pytest.raises(DomainError):
        DiscreteMeasure(np.zeros((0, 2)), np.zeros(0))
    mu = uniform_measure([[0.0, 1.0], [2.0, 3.0]])
    assert np.allclose(mu.weights, 0.5)


def test_measure_csv_roundtrip(tmp_path):
    mu = DiscreteMeasure(np.array([[0.0, 1.0], [2.0, -1.0]]), np.array([0.5, 1.5]))
    path = tmp_path / "mu.csv"
    riesz.write_measure_csv(path, mu)
    back = riesz.read_measure_csv(path)
    assert np.array_equal(back.points, mu.points)
    assert np.array_equal(back.weights, mu.weights)
