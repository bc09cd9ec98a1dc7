import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from conecalc import cones, grids, riesz
from conecalc.errors import DomainError, StencilError
from conecalc.grids import (
    GridFunction,
    canonical_extension,
    discrete_hessian,
    discrete_hessian_field,
    from_function,
    perturb,
    read_grid,
    subharmonic_verify,
    write_grid,
)


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


def _reference_extension(u, radius_cap):
    """The per-point extension loop: each masked point walks its shells
    until one holds an unmasked in-grid cell.  The shell sup is the max in
    IEEE totalOrder, so a tie of 0.0 and -0.0 is 0.0 (``np.max`` picks the
    sign by its SIMD lane order once a shell holds 9 or more cells)."""
    mask = u.masked()
    shells = [
        np.array([o for o in itertools.product(range(-r, r + 1), repeat=u.ndim)
                  if max(abs(c) for c in o) == r])
        for r in range(1, radius_cap + 1)
    ]
    vals = np.array(u.values)
    shape = np.array(u.shape)
    changed = 0
    sup_change = 0.0
    for idx in np.argwhere(mask):
        new = -np.inf
        for shell in shells:
            pts = idx + shell
            ok = np.all((pts >= 0) & (pts < shape), axis=1)
            if not ok.any():
                continue
            pts = pts[ok]
            keep = ~mask[tuple(pts.T)]
            if keep.any():
                found = u.values[tuple(pts[keep].T)]
                new = max(found.tolist(), key=lambda v: (v, math.copysign(1.0, v)))
                break
        old = u.values[tuple(idx)]
        if new != old and not (np.isneginf(new) and np.isneginf(old)):
            changed += 1
            if np.isfinite(new) and np.isfinite(old):
                sup_change = max(sup_change, abs(new - old))
            else:
                sup_change = np.inf
        vals[tuple(idx)] = new
    return vals, changed, sup_change


def _shifted(arr, offset):
    """View of the interior block shifted by ``offset`` (offsets in -1..1)."""
    slices = []
    for o in offset:
        if o == -1:
            slices.append(slice(0, -2))
        elif o == 0:
            slices.append(slice(1, -1))
        else:
            slices.append(slice(2, None))
    return arr[tuple(slices)]


def _hessian_offsets(ndim):
    offs = [tuple(0 for _ in range(ndim))]
    for i in range(ndim):
        for s in (-1, 1):
            o = [0] * ndim
            o[i] = s
            offs.append(tuple(o))
    for i in range(ndim):
        for j in range(i + 1, ndim):
            for si in (-1, 1):
                for sj in (-1, 1):
                    o = [0] * ndim
                    o[i], o[j] = si, sj
                    offs.append(tuple(o))
    return offs


def _reference_hessian_field(u):
    """The Hessian field from shifted interior blocks, one per stencil offset."""
    nd = u.ndim
    usable = np.isfinite(u.values) & ~u.masked()
    ok = _shifted(usable, (0,) * nd).copy()
    for off in _hessian_offsets(nd):
        ok &= _shifted(usable, off)
    vals = np.where(usable, u.values, 0.0)
    h = u.h
    center = _shifted(vals, (0,) * nd)
    grad = np.empty(center.shape + (nd,))
    hess = np.empty(center.shape + (nd, nd))
    for i in range(nd):
        up = _shifted(vals, tuple(1 if d == i else 0 for d in range(nd)))
        dn = _shifted(vals, tuple(-1 if d == i else 0 for d in range(nd)))
        grad[..., i] = (up - dn) / (2 * h)
        hess[..., i, i] = (up - 2 * center + dn) / (h * h)
    for i in range(nd):
        for j in range(i + 1, nd):
            def at(si, sj):
                off = [0] * nd
                off[i], off[j] = si, sj
                return _shifted(vals, tuple(off))

            mixed = (at(1, 1) + at(-1, -1) - at(1, -1) - at(-1, 1)) / (4 * h * h)
            hess[..., i, j] = mixed
            hess[..., j, i] = mixed
    idx = np.argwhere(ok) + 1
    flat_ok = ok.reshape(-1)
    return (
        idx,
        center.reshape(-1)[flat_ok],
        grad.reshape(-1, nd)[flat_ok],
        hess.reshape(-1, nd, nd)[flat_ok],
    )


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=extension_cases())
def test_windowed_lattice_kernels_match_the_per_point_references(case):
    values, mask, _, cap = case
    u = GridFunction(values, np.zeros(values.ndim), 0.5, mask)
    rep = canonical_extension(u, radius_cap=cap)
    vals, changed, sup_change = _reference_extension(u, cap)
    assert _same_bits(rep.extended.values, vals)
    assert rep.changed_points == changed
    assert _same_bits(np.float64(rep.sup_change), np.float64(sup_change))
    if min(values.shape) < 3:
        with pytest.raises(DomainError):
            discrete_hessian_field(u)
        return
    for got, want in zip(discrete_hessian_field(u), _reference_hessian_field(u)):
        assert _same_bits(got, want)


@pytest.mark.parametrize("values, at", [
    pytest.param([0.0, 0.0, -0.0], (1,), id="zero-left"),
    pytest.param([-0.0, 0.0, 0.0], (1,), id="zero-right"),
    # the 3x3 shell around the centre: 0.0 among seven -0.0
    pytest.param([[-0.0, -0.0, -0.0], [-0.0, 5.0, -0.0], [-0.0, 0.0, -0.0]], (1, 1),
                 id="square-shell"),
])
def test_extension_shell_with_both_zeros_gives_positive_zero(values, at):
    got = canonical_extension(masked_grid(values, [at])).extended.values[at]
    assert got == 0.0 and not np.signbit(got)


def test_extension_shell_of_negative_zeros_gives_negative_zero():
    u = masked_grid(np.full((5, 5), -0.0), [(2, 2), (1, 2)])
    got = canonical_extension(u).extended.values
    assert np.all(got == 0.0) and np.all(np.signbit(got))


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


@pytest.mark.parametrize("cap", [0, -2, 1.5])
def test_extension_rejects_a_radius_cap_below_one(cap):
    with pytest.raises(DomainError, match="radius cap"):
        canonical_extension(masked_grid(np.zeros((5, 5)), [(2, 2)]), radius_cap=cap)


@pytest.mark.parametrize("shape", [(9, 9), (5, 5, 5)])
def test_extension_radius_cap_past_the_grid_extends_as_the_grid_span(shape):
    # no shell wider than the grid's longest side holds a grid point, so a
    # cap of 10^6 extends as the cap max(shape) - 1 does, without building
    # a (2 * 10^6 + 1)^n offset cube; one unmasked corner reaches every point
    corner = (0,) * len(shape)
    mask = np.ones(shape, dtype=bool)
    mask[corner] = False
    u = GridFunction(np.arange(np.prod(shape), dtype=float).reshape(shape),
                     np.zeros(len(shape)), 0.5, mask)
    span = max(shape) - 1
    got = canonical_extension(u, radius_cap=10**6)
    vals, changed, sup_change = _reference_extension(u, span)
    assert _same_bits(got.extended.values, vals)
    assert (got.changed_points, got.sup_change) == (changed, sup_change)
    assert np.all(vals == 0.0)
    short = canonical_extension(u, radius_cap=span - 1).extended.values
    assert np.isneginf(short[(-1,) * len(shape)])  # the far corner lies span cells away


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


@pytest.mark.parametrize("c_tol", [float("nan"), float("inf"), -5.0])
def test_verify_rejects_a_tolerance_that_is_not_finite_and_nonnegative(c_tol):
    u = from_function((7, 7), [0, 0], 0.1, lambda x, y: x * x)
    with pytest.raises(DomainError, match="c_tol"):
        subharmonic_verify(u, cones.positivity(2), c_tol=c_tol)


def test_verify_overflowing_differences_are_a_typed_error_without_warnings():
    # third differences of +-5e307 overflow, so the estimated c_tol is inf
    vals = 5e307 * (-1.0) ** np.add.outer(np.arange(6), np.arange(6))
    u = GridFunction(vals, [0, 0], 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert grids.third_difference_kappa(u) == np.inf
        assert not np.all(np.isfinite(discrete_hessian_field(u)[3]))
        with pytest.raises(DomainError, match="estimated"):
            subharmonic_verify(u, cones.positivity(2))


def test_extreme_spacings_are_typed_errors_or_finite_without_warnings():
    vals = np.add.outer(np.arange(9.0), np.arange(9.0) ** 3)
    # h * h underflows to 0: the divide by zero warned before the DomainError
    tiny = GridFunction(vals, [0, 0], 1e-200)
    with pytest.raises(DomainError):
        discrete_hessian(tiny, (4, 4))
    # h * h is subnormal and 1/h^2 overflows: the spacing is at fault, whatever the data
    for data in (vals, np.ones_like(vals)):
        with pytest.raises(DomainError, match="grid spacing 1e-158 is out of range"):
            discrete_hessian(GridFunction(data, [0, 0], 1e-158), (4, 4))
    # h**3 overflowed as a Python float: OverflowError, not a report
    huge = GridFunction(vals, [0, 0], 1e200)
    assert grids.third_difference_kappa(huge) == 0.0
    assert subharmonic_verify(huge, cones.positivity(2)).c_tol == 0.0


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


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["up", "down"])
def test_perturb_overflow_is_a_domain_error(sign):
    # finite data whose sum leaves float64: -inf would pass as the bottom
    u = GridFunction(np.full((2, 2), sign * 1e308), [0, 0], 1.0)
    with pytest.raises(DomainError, match="overflows"):
        perturb(u, u, 1.0)


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


def test_grid_file_names_the_line_of_a_bad_cell(tmp_path):
    # as a CSV file does: path, line number, then the token
    path = tmp_path / "bad.grid"
    path.write_text("grid n=2 shape=2,2 origin=0,0 h=0.5\nmask\n0,1\n0,0\n0,0\n0,abc\n")
    with pytest.raises(DomainError) as err:
        read_grid(path)
    assert str(err.value) == f"{path}:6: could not convert string to float: 'abc'"


@pytest.mark.parametrize("text, token", [
    ("shape=5,5 origin=0,0 h=0.1 h=0.2", "h=0.2"),
    ("shape=5,5 origin=0,0 h=0.1 hh=3", "hh=3"),
    ("shape=5,5 origin=0,0 h=0.1 bogus", "bogus"),
    ("n=2 shape=5,5 origin=0,0 n=2 h=0.1", "n=2"),
])
def test_geometry_refuses_a_repeated_or_unknown_token(text, token):
    with pytest.raises(DomainError, match=f"token '{token}'"):
        grids.parse_geometry(text)


def _window_dilation(mask, radius):
    # reference: a 2 radius + 1 window along each axis of the padded mask
    out = np.asarray(mask, dtype=bool)
    for axis in range(out.ndim):
        pad = [(0, 0)] * out.ndim
        pad[axis] = (radius, radius)
        out = sliding_window_view(np.pad(out, pad), 2 * radius + 1, axis=axis).any(axis=-1)
    return out


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_chebyshev_dilation_is_the_window_dilation(ndim):
    rng = np.random.default_rng(ndim)
    for _ in range(40):
        shape = tuple(rng.integers(1, 12 if ndim < 3 else 8, size=ndim))
        mask = rng.random(shape) < rng.choice([0.0, 0.02, 0.1, 0.5])
        before = mask.copy()
        for radius in range(6):
            got = grids.chebyshev_dilation(mask, radius)
            assert got.dtype == bool
            assert np.array_equal(got, _window_dilation(mask, radius)), (shape, radius)
        assert np.array_equal(mask, before)  # the input mask is not dilated in place


def test_grid_validation():
    with pytest.raises(DomainError):
        GridFunction(np.array([[np.nan, 0.0]]), [0, 0], 1.0)
    with pytest.raises(DomainError):
        GridFunction(np.zeros((3, 3)), [0, 0], -1.0)
