import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import fields
from growthlab.spectral import (BoundaryField, GridTooSmallError, batch_coeffs,
                                batch_values, conjugate_pv, grid_angles,
                                grid_conjugate, grid_dirichlet_to_neumann,
                                harmonic_extend_quadrature)

SQRT_PI = np.sqrt(np.pi)


def random_field(seed, degree):
    rng = np.random.default_rng(seed)
    return BoundaryField(rng.standard_normal(2 * degree + 1))


def test_cos_on_grid_has_coefficient_sqrt_pi():
    f = BoundaryField.from_grid(np.cos(grid_angles(16)), degree=1)
    assert abs(f.coeffs[1] - SQRT_PI) < 1e-12
    assert abs(f.coeffs[0]) < 1e-12 and abs(f.coeffs[2]) < 1e-12
    c = BoundaryField.cosine(2, 0.3, 3)
    assert c.degree == 3
    assert np.abs(c.values(16) - 0.3 * np.cos(2 * grid_angles(16))).max() < 1e-14


def test_constant_has_coefficient_sqrt_two_pi():
    f = BoundaryField.from_grid(np.ones(16), degree=0)
    assert abs(f.coeffs[0] - np.sqrt(2 * np.pi)) < 1e-12


@given(st.integers(0, 10 ** 6), st.integers(1, 8))
@settings(max_examples=25, deadline=None)
def test_grid_roundtrip_identity(seed, degree):
    p = random_field(seed, degree)
    M = 2 * (2 * degree + 1)
    q = BoundaryField.from_grid(p.values(M), degree=degree)
    assert np.abs(q.coeffs - p.coeffs).max() < 1e-12


def test_grid_too_small_raises():
    with pytest.raises(GridTooSmallError):
        BoundaryField.from_grid(np.ones(8), degree=8)


def test_mean_and_parseval():
    p = random_field(3, 8)
    M = 64
    vals = p.values(M)
    assert abs(vals.mean() - p.mean()) < 1e-12
    assert abs(np.sum(p.coeffs ** 2) - np.sum(vals ** 2) * 2 * np.pi / M) < 1e-10


def test_harmonic_extension_values():
    e1 = BoundaryField.basis(1)
    assert abs(e1.harmonic_extend(0.0 + 0j)) < 1e-14          # mean value property
    assert abs(e1.harmonic_extend(0.5 + 0j) - 0.5 / SQRT_PI) < 1e-14
    one = BoundaryField.constant(1.0)
    assert abs(one.harmonic_extend(0.3 - 0.2j) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        e1.harmonic_extend(1.1 + 0j)


def test_harmonic_extension_matches_poisson_quadrature():
    p = random_field(11, 6)
    for z in (0.5 + 0j, -0.3 + 0.4j, 0.1 - 0.7j):
        assert abs(p.harmonic_extend(z) - harmonic_extend_quadrature(p, z)) < 1e-10


def test_conjugate_basis_action():
    # cos(3t) -> sin(3t)
    c3 = BoundaryField.basis(5, 4)
    assert np.abs(c3.conjugate().coeffs - BoundaryField.basis(6, 4).coeffs).max() < 1e-14
    # constants die
    assert np.abs(BoundaryField.constant(2.0).conjugate().coeffs).max() == 0.0


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_conjugate_twice_negates_meanfree_part(seed):
    p = random_field(seed, 6)
    tt = p.conjugate().conjugate()
    ref = -p.coeffs.copy()
    ref[0] = 0.0
    assert np.abs(tt.coeffs - ref).max() < 1e-12


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_conjugation_antisymmetry(seed_p, seed_q):
    p, q = random_field(seed_p, 5), random_field(seed_q, 7)
    assert abs(p.conjugate().l2_inner(q) + p.l2_inner(q.conjugate())) < 1e-12


def test_dirichlet_to_neumann_eigenrelation():
    c3 = BoundaryField.basis(5, 4)
    assert np.abs(c3.dirichlet_to_neumann().coeffs + 3 * c3.coeffs).max() < 1e-14
    assert np.abs(BoundaryField.constant(1.0).dirichlet_to_neumann().coeffs).max() == 0.0


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_normal_tangential_relations(seed):
    p = random_field(seed, 8)
    r1 = p.dirichlet_to_neumann().coeffs + p.conjugate().tangential_derivative().coeffs
    assert np.abs(r1).max() < 1e-12
    r2 = p.conjugate().dirichlet_to_neumann().coeffs - p.tangential_derivative().coeffs
    assert np.abs(r2).max() < 1e-12
    sq = p.dirichlet_to_neumann().dirichlet_to_neumann().coeffs \
        + p.tangential_derivative().tangential_derivative().coeffs
    assert np.abs(sq).max() < 1e-12


def test_dirichlet_to_neumann_symmetry():
    p, q = random_field(5, 6), random_field(6, 6)
    assert abs(p.dirichlet_to_neumann().l2_inner(q)
               - p.l2_inner(q.dirichlet_to_neumann())) < 1e-12


def test_principal_value_conjugation_matches_coefficient_rule():
    p = random_field(21, 8)
    pv = conjugate_pv(p, 64)
    assert np.abs(pv - p.conjugate().values(64)).max() < 1e-6


def test_grid_operators_match_field_operators():
    p = random_field(30, 10)
    M = 64
    assert np.abs(grid_conjugate(p.values(M)) - p.conjugate().values(M)).max() < 1e-12
    assert np.abs(grid_dirichlet_to_neumann(p.values(M))
                  - p.dirichlet_to_neumann().values(M)).max() < 1e-11


@pytest.mark.parametrize("N, M", [(4, 16), (8, 33), (16, 128), (5, 11), (3, 8)])
def test_batched_transforms_match_single_fields_bit_for_bit(N, M):
    rng = np.random.default_rng(N * M)
    coeffs = rng.standard_normal((3, 4, 2 * N + 1))
    grid = batch_values(coeffs, M)
    back = batch_coeffs(grid, N)
    assert grid.shape == (3, 4, M) and back.shape == coeffs.shape
    for idx in np.ndindex(3, 4):
        assert np.array_equal(grid[idx], BoundaryField(coeffs[idx]).values(M))
        assert np.array_equal(back[idx], BoundaryField.from_grid(grid[idx], N).coeffs)
    # the e_k convention, summed term by term
    theta = grid_angles(M)
    m = np.arange(1, N + 1)[:, None]
    direct = (coeffs[..., :1] / np.sqrt(2 * np.pi)
              + coeffs[..., 1::2] @ np.cos(m * theta) / SQRT_PI
              + coeffs[..., 2::2] @ np.sin(m * theta) / SQRT_PI)
    assert np.abs(grid - direct).max() < 1e-12
    assert np.abs(back - coeffs).max() < 1e-12


def test_batch_values_on_a_grid_below_the_degree_raises():
    with pytest.raises(GridTooSmallError):
        batch_values(np.zeros((2, 3, 9)), 8)
    with pytest.raises(GridTooSmallError):
        batch_coeffs(np.zeros((2, 8)), 4)
    # fields re-exports the one transform, so every caller shares its checks
    assert fields.batch_values is batch_values
