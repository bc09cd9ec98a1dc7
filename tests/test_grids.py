import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conecalc import cones, grids, riesz
from conecalc.errors import DomainError, StencilError
from conecalc.grids import (
    AffineFlat,
    GridFunction,
    canonical_extension,
    discrete_hessian,
    discrete_hessian_field,
    distance_jet,
    from_function,
    perturb,
    read_grid,
    subharmonic_verify,
    upper_conical_check,
    write_grid,
)
from conecalc.symmat import Frame


def masked_grid(values, mask_indices, origin=None, h=0.5):
    vals = np.asarray(values, dtype=float)
    mask = np.zeros(vals.shape, dtype=bool)
    for idx in mask_indices:
        mask[idx] = True
    origin = origin if origin is not None else np.zeros(vals.ndim)
    return GridFunction(vals, origin, h, mask)


# -- canonical extension --------------------------------------------------------


def test_extension_constant_data():
    u = masked_grid(np.full((7, 7), 5.0), [(3, 3)])
    rep = canonical_extension(u)
    assert rep.extended.values[3, 3] == 5.0
    assert np.array_equal(rep.extended.values, u.values)


def test_extension_kernel_shell_value_and_refinement():
    # nearest-shell sup of a radial well sits between the axis and the
    # diagonal kernel values and sinks as the grid refines
    prev = np.inf
    for m in (8, 16, 32):
        h = 1.0 / m
        spec = riesz.RieszKernelSpec(3.0, 3)
        u = from_function(
            (2 * m + 1,) * 3,
            [-1.0, -1.0, -1.0],
            h,
            lambda x, y, z: np.where(
                (x == 0) & (y == 0) & (z == 0),
                0.0,
                riesz.kernel_value(spec, np.sqrt(x * x + y * y + z * z)),
            ),
        )
        u = GridFunction(u.values, u.origin, u.h, _center_mask((2 * m + 1,) * 3))
        rep = canonical_extension(u)
        got = rep.extended.values[m, m, m]
        lo = float(riesz.kernel_value(spec, h))
        hi = float(riesz.kernel_value(spec, h * np.sqrt(3)))
        assert lo <= got <= hi
        assert got < prev
        prev = got


def _center_mask(shape):
    mask = np.zeros(shape, dtype=bool)
    mask[tuple(s // 2 for s in shape)] = True
    return mask


def test_extension_limsup_of_oscillation():
    # U(0) for sin(1/|y|) picks the nearest-shell sample; over refining
    # grids its limsup reaches the analytic limsup 1
    tops = []
    for t in np.linspace(40.0, 400.0, 120):
        h = 1.0 / t
        n = 9
        ys = h * (np.arange(n) - n // 2)
        vals = np.where(ys == 0, 0.0, np.sin(1.0 / np.abs(np.where(ys == 0, 1.0, ys))))
        u = masked_grid(vals, [(n // 2,)], origin=[ys[0]], h=h)
        tops.append(canonical_extension(u).extended.values[n // 2])
    tops = np.array(tops)
    assert np.max(tops) >= 0.99
    assert np.max(tops) <= 1.0 + 1e-12


_EXTENSION_VALUES = st.one_of(st.floats(-1e6, 1e6), st.just(-np.inf))


@st.composite
def extension_cases(draw):
    """A 1-D to 3-D grid with a mask that leaves some cell unmasked,
    values with -inf in masked and unmasked cells, a pointwise larger copy
    of them (-inf may become finite) and a radius cap."""
    ndim = draw(st.integers(1, 3))
    shape = draw(hnp.array_shapes(min_dims=ndim, max_dims=ndim, max_side=(8, 5, 4)[ndim - 1]))
    values = draw(hnp.arrays(float, shape, elements=_EXTENSION_VALUES))
    mask = draw(hnp.arrays(bool, shape))
    mask.flat[draw(st.integers(0, mask.size - 1))] = False
    bump = draw(hnp.arrays(float, shape, elements=st.floats(0.0, 1e3)))
    other = draw(hnp.arrays(float, shape, elements=_EXTENSION_VALUES))
    return values, mask, np.maximum(values + bump, other), draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=extension_cases())
def test_extension_idempotent_and_monotone(case):
    values, mask, larger, cap = case
    u = GridFunction(values, np.zeros(values.ndim), 0.5, mask)
    first = canonical_extension(u, radius_cap=cap)
    ext = first.extended.values
    # unmasked values pass through bitwise, -inf included
    assert ext[~mask].tobytes() == values[~mask].tobytes()
    second = canonical_extension(first.extended, radius_cap=cap)
    assert second.extended.values.tobytes() == ext.tobytes()
    assert second.changed_points == 0
    bigger = canonical_extension(GridFunction(larger, u.origin, u.h, mask), radius_cap=cap)
    assert np.all(bigger.extended.values >= ext)


def test_extension_deep_interior_becomes_bottom():
    vals = np.zeros((15, 15))
    mask = np.zeros((15, 15), dtype=bool)
    mask[1:14, 1:14] = True  # every interior point is >5 cells from data
    u = GridFunction(vals, [0, 0], 1.0, mask)
    rep = canonical_extension(u)
    assert np.isneginf(rep.extended.values[7, 7])
    assert np.isfinite(rep.extended.values[2, 2])


def test_extension_rejects_fully_masked():
    with pytest.raises(DomainError):
        canonical_extension(masked_grid(np.zeros((3, 3)), [(i, j) for i in range(3) for j in range(3)]))


# -- discrete jets -----------------------------------------------------------------


def test_hessian_exact_on_quadratics():
    A = np.array([[2.0, 0.5], [0.5, -1.0]])
    b = np.array([3.0, -1.0])

    def f(x, y):
        q = 0.5 * (A[0, 0] * x * x + 2 * A[0, 1] * x * y + A[1, 1] * y * y)
        return q + b[0] * x + b[1] * y + 2.0

    u = from_function((9, 9), [-1, -1], 0.25, f)
    jet = discrete_hessian(u, (4, 4))
    assert np.max(np.abs(jet.hessian.entries - A)) <= 1e-10 * (1 + np.abs(A).max())
    assert np.allclose(jet.gradient, b + A @ u.point((4, 4)))


def test_hessian_zero_on_affine():
    u = from_function((7, 7), [0, 0], 0.1, lambda x, y: 2 * x - 3 * y + 1)
    jet = discrete_hessian(u, (3, 3))
    assert np.max(np.abs(jet.hessian.entries)) <= 1e-12


def test_hessian_matches_kernel_jet_at_second_order():
    spec = riesz.RieszKernelSpec(3.0, 3)
    errs = []
    for m in (10, 20):
        h = 0.5 / m
        u = from_function(
            (7, 7, 7),
            [1.0 - 3 * h, -3 * h, -3 * h],  # center the stencil at (1, 0, 0)
            h,
            lambda x, y, z: np.asarray(riesz.kernel_value(spec, np.sqrt(x * x + y * y + z * z))),
        )
        jet = discrete_hessian(u, (3, 3, 3))
        exact = riesz.kernel_jet(spec, u.point((3, 3, 3))).hessian.entries
        errs.append(np.max(np.abs(jet.hessian.entries - exact)))
    assert errs[1] <= errs[0] / 3.0  # second-order decay


@pytest.mark.parametrize("shape", [(9, 11), (7, 6, 8)])
def test_pointwise_hessian_is_the_field_row(shape):
    # one implementation: the pointwise jet is bitwise the field's row
    rng = np.random.default_rng(len(shape))
    vals = rng.standard_normal(shape)
    mask = rng.random(shape) < 0.1
    vals[mask] = -np.inf
    u = GridFunction(vals, np.zeros(len(shape)), 0.3, mask)
    idx, value, grad, hess = discrete_hessian_field(u)
    rows = {tuple(int(c) for c in i): k for k, i in enumerate(idx)}
    for point in np.ndindex(*shape):
        if point not in rows:
            with pytest.raises(StencilError):
                discrete_hessian(u, point)
            continue
        k = rows[point]
        jet = discrete_hessian(u, point)
        assert jet.value == value[k]
        assert np.array_equal(jet.gradient, grad[k])
        assert np.array_equal(jet.hessian.entries, hess[k])


def test_hessian_stencil_errors():
    u = masked_grid(np.zeros((5, 5)), [(2, 3)])
    with pytest.raises(StencilError):
        discrete_hessian(u, (0, 2))
    with pytest.raises(StencilError):
        discrete_hessian(u, (2, 2))  # neighbor masked


# -- subharmonicity at grid scale -----------------------------------------------------


def test_verify_convex_paraboloid():
    u = from_function((11, 11), [-1, -1], 0.2, lambda x, y: x * x + y * y)
    rep = subharmonic_verify(u, cones.positivity(2))
    assert rep.passed and rep.points_checked == 81


def test_verify_concave_paraboloid_fails_everywhere():
    u = from_function((11, 11), [-1, -1], 0.2, lambda x, y: -(x * x + y * y))
    rep = subharmonic_verify(u, cones.positivity(2))
    assert len(rep.violations) == rep.points_checked
    assert rep.note == grids.GRID_SCALE_NOTE


def test_verify_kernel_sample_against_partial_sum_cone():
    for p, n in ((1.5, 2), (2.0, 2), (2.5, 3)):
        spec = riesz.RieszKernelSpec(p, n)
        h = 0.05
        u = from_function(
            (15,) * n,
            [0.4] + [-7 * h] * (n - 1),
            h,
            lambda *cs: np.asarray(riesz.kernel_value(spec, np.sqrt(sum(c * c for c in cs)))),
        )
        rep = subharmonic_verify(u, cones.pp_cone(p, n))
        assert rep.passed, (p, n, rep.violations[:3])


def test_verify_kernel_grid_with_masked_pole():
    # sample across the pole, mask it, and verify off the singular point
    spec = riesz.RieszKernelSpec(2.0, 2)
    h = 1.0 / 16
    shape = (33, 33)
    mask = np.zeros(shape, dtype=bool)
    mask[16, 16] = True
    u = from_function(
        shape,
        [-1.0, -1.0],
        h,
        lambda x, y: np.where(
            (x == 0) & (y == 0), 0.0, riesz.kernel_value(spec, np.sqrt(x * x + y * y))
        ),
        mask=mask,
    )
    u = GridFunction(np.where(mask, -np.inf, u.values), u.origin, u.h, mask)
    rep = subharmonic_verify(u, cones.pp_cone(2.0, 2))
    assert rep.passed
    assert rep.points_checked < 31 * 31  # the pole neighborhood is skipped


def test_verify_region_restriction():
    u = from_function((11, 11), [-1, -1], 0.2, lambda x, y: -(x * x + y * y))
    region = np.zeros((11, 11), dtype=bool)
    region[5, 5] = True
    rep = subharmonic_verify(u, cones.positivity(2), region=region)
    assert rep.points_checked == 1 and len(rep.violations) == 1


def test_max_of_subharmonics_verifies():
    # two crossing paraboloids: each passes, so does their pointwise max
    f = lambda x, y: x * x + y * y + 2 * x
    g = lambda x, y: x * x + y * y - 2 * x
    uf = from_function((17, 17), [-1, -1], 0.125, f)
    ug = from_function((17, 17), [-1, -1], 0.125, g)
    assert subharmonic_verify(uf, cones.positivity(2)).passed
    assert subharmonic_verify(ug, cones.positivity(2)).passed
    um = GridFunction(np.maximum(uf.values, ug.values), uf.origin, uf.h)
    assert subharmonic_verify(um, cones.positivity(2)).passed


# -- perturbation -----------------------------------------------------------------------


def test_perturb_zero_eps_keeps_values():
    rng = np.random.default_rng(1)
    u = GridFunction(rng.standard_normal((5, 5)), [0, 0], 1.0)
    psi = GridFunction(rng.standard_normal((5, 5)), [0, 0], 1.0)
    out = perturb(u, psi, 0.0)
    assert np.array_equal(out.values, u.values)


def test_perturb_bottom_absorbs():
    u = GridFunction(np.array([[1.0, 2.0]]), [0, 0], 1.0)
    psi = masked_grid(np.array([[-np.inf, 0.5]]), [(0, 0)], h=1.0)
    out = perturb(u, psi, 0.01)
    assert np.isneginf(out.values[0, 0])
    assert out.values[0, 1] == pytest.approx(2.005)
    assert out.mask[0, 0] and not out.mask[0, 1]


def test_perturb_family_decreasing_in_eps():
    rng = np.random.default_rng(2)
    u = GridFunction(rng.standard_normal((6, 6)), [0, 0], 1.0)
    psi = GridFunction(-rng.random((6, 6)) - 0.1, [0, 0], 1.0)  # strictly negative
    prev = perturb(u, psi, 1.0).values
    for eps in (0.5, 0.1, 0.01):
        cur = perturb(u, psi, eps).values
        assert np.all(cur >= prev - 1e-15)
        prev = cur
    assert np.max(np.abs(prev - u.values)) <= 0.011 * np.max(np.abs(psi.values))


def test_perturb_geometry_mismatch():
    u = GridFunction(np.zeros((4, 4)), [0, 0], 1.0)
    psi = GridFunction(np.zeros((4, 4)), [0, 0], 0.5)
    with pytest.raises(DomainError):
        perturb(u, psi, 0.1)


# -- distance jets -----------------------------------------------------------------------


def test_distance_jet_point_in_3d():
    jet = distance_jet(AffineFlat(np.zeros(3)), [0.7, 0.0, 0.0])
    assert jet.value == pytest.approx(0.7)
    assert np.allclose(jet.gradient, [1.0, 0.0, 0.0])
    assert np.allclose(jet.hessian.entries, np.diag([0.0, 1 / 0.7, 1 / 0.7]))


def test_distance_jet_line_matches_finite_differences():
    line = AffineFlat(np.zeros(3), Frame(np.array([[0.0, 0.0, 1.0]])))
    x = np.array([0.6, 0.0, 0.4])
    jet = distance_jet(line, x)
    assert np.allclose(jet.hessian.entries, np.diag([0.0, 1 / 0.6, 0.0]))

    def dist(y):
        return np.linalg.norm(y[:2])

    h = 1e-5
    for i in range(3):
        for j in range(3):
            ei, ej = np.eye(3)[i] * h, np.eye(3)[j] * h
            fd = (dist(x + ei + ej) - dist(x + ei - ej) - dist(x - ei + ej) + dist(x - ei - ej)) / (4 * h * h)
            assert jet.hessian.entries[i, j] == pytest.approx(fd, abs=1e-4)


def test_distance_jet_one_dimensional_point():
    jet = distance_jet(AffineFlat(np.zeros(1)), [0.3])
    assert jet.hessian.entries[0, 0] == 0.0


def test_distance_jet_hessian_in_enlarged_positivity():
    # flat sets have curvature zero, so the unit enlargement suffices
    rng = np.random.default_rng(3)
    flats = [
        AffineFlat(np.zeros(3)),
        AffineFlat(np.zeros(3), Frame(np.array([[1.0, 0.0, 0.0]]))),
        AffineFlat(np.ones(3), Frame(np.eye(3)[:2])),
    ]
    for flat in flats:
        for _ in range(20):
            x = rng.standard_normal(3) * 2
            try:
                jet = distance_jet(flat, x)
            except DomainError:
                continue
            rep = cones.contains(cones.enlarged_cone(cones.positivity(3), 1.0), jet.hessian)
            assert rep.member


def test_distance_jet_on_set_rejected():
    with pytest.raises(DomainError):
        distance_jet(AffineFlat(np.zeros(2)), [0.0, 0.0])


# -- upper conical test ---------------------------------------------------------------------


def test_upper_conical_smooth_data_has_no_test_function():
    u = from_function((21, 21), [-1, -1], 0.1, lambda x, y: x * x - 0.5 * y * y + x)
    res = upper_conical_check(u, (10, 10), eps=1.0, hess_bound=10.0)
    assert not res.test_found
    assert res.label == "within bound"


def test_upper_conical_cone_threshold():
    u = from_function((41,), [-1.0], 0.05, lambda x: -np.abs(x))
    assert upper_conical_check(u, (20,), eps=0.5, hess_bound=1.0).test_found
    assert not upper_conical_check(u, (20,), eps=1.5, hess_bound=1.0).test_found


def test_upper_conical_ridge_witness_gradient():
    # a ridge (min of two affines) plus a quadratic: any gradient in the
    # segment [a, b] dominates the crease once the Hessian bound is large
    # enough, so a witness exists and sits near that segment.  A valley
    # (max of affines) admits no dominating quadratic at all: 1-D oracle,
    # no C^2 function through the vertex dominates |x|.
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])

    def ridge(x, y):
        return np.minimum(a[0] * x + a[1] * y, b[0] * x + b[1] * y) + 4 * (x * x + y * y)

    u = from_function((41, 41), [-0.5, -0.5], 0.025, ridge)
    res = upper_conical_check(u, (20, 20), eps=0.05, hess_bound=20.0)
    assert res.test_found
    g = res.witness.gradient
    t = np.clip((g - b) @ (a - b) / ((a - b) @ (a - b)), 0.0, 1.0)
    assert np.linalg.norm(g - (b + t * (a - b))) <= 0.2

    def valley(x, y):
        return np.maximum(a[0] * x + a[1] * y, b[0] * x + b[1] * y) + 4 * (x * x + y * y)

    u2 = from_function((41, 41), [-0.5, -0.5], 0.025, valley)
    assert not upper_conical_check(u2, (20, 20), eps=0.05, hess_bound=20.0).test_found


def test_upper_conical_boundary_error():
    u = from_function((9, 9), [0, 0], 0.1, lambda x, y: x + y)
    with pytest.raises(DomainError):
        upper_conical_check(u, (1, 4), eps=0.5, hess_bound=1.0)


# -- grid files ---------------------------------------------------------------------------


def test_grid_file_roundtrip(tmp_path):
    vals = np.array([[1.0, -np.inf], [2.5, 3.5]])
    mask = np.array([[False, True], [False, False]])
    u = GridFunction(vals, [0.0, -1.0], 0.25, mask)
    path = tmp_path / "u.grid"
    write_grid(path, u)
    header = path.read_text().splitlines()[0]
    assert header == "grid n=2 shape=2,2 origin=0.0,-1.0 h=0.25"
    back = read_grid(path)
    assert np.array_equal(back.values, u.values)
    assert np.array_equal(back.mask, u.mask)
    assert back.h == u.h


def test_grid_file_roundtrip_3d_no_mask(tmp_path):
    rng = np.random.default_rng(4)
    u = GridFunction(rng.standard_normal((3, 4, 5)), [0, 0, 0], 0.1)
    path = tmp_path / "u3.grid"
    write_grid(path, u)
    back = read_grid(path)
    assert np.array_equal(back.values, u.values)
    assert back.mask is None


def test_grid_file_golden_bytes(tmp_path):
    vals = np.array([[0.1, -np.inf, -0.0], [1e-300, 2.5, -3.0]])
    mask = np.array([[False, True, False], [False, False, True]])
    write_grid(tmp_path / "a.grid", GridFunction(vals, [-1.0, 0.5], 0.25, mask))
    assert (tmp_path / "a.grid").read_bytes() == (
        b"grid n=2 shape=2,3 origin=-1.0,0.5 h=0.25\n"
        b"mask\n0,1,0\n0,0,1\n"
        b"0.1,-inf,-0.0\n1e-300,2.5,-3.0\n"
    )
    cube = np.arange(12.0).reshape(2, 3, 2) / 4 - 1
    write_grid(tmp_path / "b.grid", GridFunction(cube, [0, 0, 0], 0.1))
    assert (tmp_path / "b.grid").read_bytes() == (
        b"grid n=3 shape=2,3,2 origin=0.0,0.0,0.0 h=0.1\n"
        b"-1.0,-0.75\n-0.5,-0.25\n0.0,0.25\n0.5,0.75\n1.0,1.25\n1.5,1.75\n"
    )


def test_grid_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_text("not a grid\n")
    with pytest.raises(DomainError):
        read_grid(path)


def test_grid_validation():
    with pytest.raises(DomainError):
        GridFunction(np.array([[np.nan, 0.0]]), [0, 0], 1.0)
    with pytest.raises(DomainError):
        GridFunction(np.zeros((3, 3)), [0, 0], -1.0)
