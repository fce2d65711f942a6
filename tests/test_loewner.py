import numpy as np
import pytest

from growthlab.gmc import CircleMeasure
from growthlab.loewner import (LIFETIME_TOL, DrivingPath, MapperError, StarDomain,
                               conformal_radius, fit_driving_measure, flow,
                               hadamard_check, nearly_circular_map,
                               smooth_metric_driving)
from growthlab.spectral import BoundaryField, grid_angles

XI = 1.0 / np.sqrt(6.0)
M = 256


def test_uniform_flow_exponential():
    mu = CircleMeasure.uniform(1.0, M)
    res = flow(DrivingPath.constant(mu, 0.5), 0.3 + 0.2j, dt=0.02)
    assert abs(res.at_end() - np.exp(0.5) * (0.3 + 0.2j)) < 1e-10
    assert res.lifetime is None


def test_uniform_flow_lifetime_and_bracket():
    mu = CircleMeasure.uniform(1.0, M)
    res = flow(DrivingPath.constant(mu, 2.0), 0.5 + 0j)
    T = np.log((1 - LIFETIME_TOL) / 0.5)
    assert abs(res.lifetime - T) < 1e-8
    lo, hi = res.lifetime_bracket
    assert lo <= res.lifetime <= hi and hi - lo < 1e-10


def test_zero_measure_identity_flow():
    res = flow(DrivingPath.constant(CircleMeasure(np.zeros(M)), 1.0), 0.4 + 0.1j)
    assert res.at_end() == 0.4 + 0.1j


def test_atom_euler_step():
    spike = CircleMeasure.narrow_bump(0.0, 1.0, M)
    z0 = 0.4 + 0.3j
    for t in (2e-3, 1e-3):
        g = flow(DrivingPath.constant(spike, t), z0, dt=t / 8).at_end()
        euler = z0 - t * z0 * (z0 + 1.0) / (z0 - 1.0)
        assert abs(g - euler) < 50 * t * t


def test_conformal_radius_routes_and_values():
    mu = CircleMeasure.uniform(1.0, M)
    ode, mass = conformal_radius(DrivingPath.constant(mu, 1.0), 1.0)
    assert abs(ode - mass) < 1e-8
    assert abs(ode - np.e) < 1e-8
    ode2, _ = conformal_radius(
        DrivingPath.constant(CircleMeasure.uniform(2.0, M), 0.5), 0.5)
    assert abs(ode2 - np.e) < 1e-8
    ode0, mass0 = conformal_radius(
        DrivingPath.constant(CircleMeasure(np.zeros(M)), 1.0), 1.0)
    assert ode0 == 1.0 and mass0 == 1.0


def test_conformal_radius_flow_route_stops_at_T():
    mu = CircleMeasure.uniform(1.0, M)
    ode, mass = conformal_radius(DrivingPath.constant(mu, 2.0), 1.0)
    assert abs(ode - np.e) < 1e-10 and abs(mass - np.e) < 1e-12
    # the probe points leave the disk once the mass integral passes log(1/0.03)
    with pytest.raises(ValueError):
        conformal_radius(DrivingPath.constant(CircleMeasure.uniform(8.0, M), 1.0), 1.0)


def test_conformal_radius_flow_route_for_a_non_uniform_driver():
    # a narrow bump is far from rotation invariant; one probe point at 1e-3
    # misses g_T'(0) by 2.1e-3 here
    mu = CircleMeasure.narrow_bump(0.0, 1.0, M)
    ode, mass = conformal_radius(DrivingPath.constant(mu, 0.5), 0.5)
    assert abs(mass - np.exp(0.5)) < 1e-12
    assert abs(ode - mass) < 1e-6


def test_flow_derivative_rate_along_path():
    # d log g'(0) / dt equals the mass along any piecewise-constant path
    path = DrivingPath(np.array([0.0, 0.3, 0.8]),
                       [CircleMeasure.uniform(1.0, M), CircleMeasure.uniform(0.5, M)])
    ode, mass = conformal_radius(path, 0.8)
    assert abs(np.log(ode) - (0.3 * 1.0 + 0.5 * 0.5)) < 1e-10
    assert abs(ode - mass) < 1e-10


def test_driving_path_validation():
    with pytest.raises(ValueError):
        DrivingPath(np.array([0.0, 0.0]), [CircleMeasure.uniform(1.0, 8)])
    with pytest.raises(ValueError):
        DrivingPath(np.array([0.0, 1.0]), [])


def test_lifetime_monotone_in_mass():
    mu = CircleMeasure.uniform(1.0, M)
    t1 = flow(DrivingPath.constant(mu, 3.0), 0.6 + 0j).lifetime
    t2 = flow(DrivingPath.constant(1.5 * mu, 3.0), 0.6 + 0j).lifetime
    assert t2 < t1


def test_mapper_identity_scaling_and_errors():
    cm = nearly_circular_map(StarDomain(np.ones(M)))
    assert abs(cm.gprime0 - 1.0) < 1e-14
    z = np.array([0.3 + 0.4j])
    assert abs(cm.from_disk(z)[0] - z[0]) < 1e-14
    cm2 = nearly_circular_map(StarDomain(np.full(M, np.exp(-0.1))))
    assert abs(cm2.gprime0 - np.exp(0.1)) < 1e-13
    with pytest.raises(ValueError):
        StarDomain(np.full(M, 0.5))     # too far from the circle
    with pytest.raises(ValueError):
        StarDomain(np.zeros(M))


def test_mapper_capacity_against_doubled_resolution():
    dom = StarDomain(1 - 0.05 * (1 + np.cos(grid_angles(M))) / 2)
    dom2 = StarDomain(1 - 0.05 * (1 + np.cos(grid_angles(2 * M))) / 2)
    cm, cm2 = nearly_circular_map(dom), nearly_circular_map(dom2)
    assert abs(cm.gprime0 - cm2.gprime0) < 1e-6
    assert cm.boundary_residual < 1e-8
    # interior roundtrip
    z = np.array([0.2 + 0.3j, -0.5 + 0.1j])
    assert np.abs(cm.from_disk(cm.to_disk(z)) - z).max() < 1e-12


def test_mapper_keeps_a_stalled_residual_and_its_iterations():
    dom = StarDomain(1 - 0.05 * (1 + np.cos(grid_angles(M))) / 2)
    cm = nearly_circular_map(dom)
    assert cm.fixed_point_residual < 1e-13 and 1 < cm.iterations < 400
    # one step short of convergence the iteration stops at its cap above tol
    # but within 1e3 * tol, which is accepted: the map says so
    stalled = nearly_circular_map(dom, maxit=cm.iterations - 1)
    assert stalled.iterations == cm.iterations - 1
    assert 1e-13 < stalled.fixed_point_residual <= 1e-10
    with pytest.raises(MapperError) as err:
        nearly_circular_map(dom, maxit=2)
    assert err.value.residual > 1e-10


def test_hadamard_variation_formula():
    res = hadamard_check(BoundaryField.constant(1.0, 2), 0.3 + 0.2j, -0.4 + 0.1j, M=M)
    for dt, fd, rel in res["sweep"]:
        assert rel < 1e-2
    assert abs(res["order"] - 1.0) < 0.25
    # uniform speed closed form: (1/2pi) Re((1 + z1 conj(z2)) / (1 - z1 conj(z2)))
    z1, z2 = 0.3 + 0.2j, -0.4 + 0.1j
    closed = ((1 + z1 * np.conj(z2)) / (1 - z1 * np.conj(z2))).real / (2 * np.pi)
    assert abs(res["formula"] - closed) < 1e-10


def test_hadamard_origin_case():
    res = hadamard_check(BoundaryField.constant(1.0, 2), 0.5 + 0j, 0.0 + 0j, M=M)
    assert abs(res["formula"] - 1.0 / (2 * np.pi)) < 1e-12
    assert res["sweep"][1][2] < 1e-2


def test_hadamard_zero_speed():
    res = hadamard_check(BoundaryField.zeros(2), 0.3 + 0.2j, -0.4 + 0.1j, M=M)
    assert res["formula"] == 0.0
    assert max(abs(fd) for _, fd, _ in res["sweep"]) < 1e-9


def test_smooth_metric_driving_cases():
    out0 = smooth_metric_driving(BoundaryField.constant(0.0, 2), XI, 1e-3, M=M)
    assert out0["rel_error"] < 1e-2
    # nonconstant conformal factor within one percent at dt = 1e-3
    phi = 0.1 * np.sqrt(np.pi) * BoundaryField.basis(1, 4)
    out = smooth_metric_driving(phi, XI, 1e-3, M=M)
    assert out["rel_error"] < 1e-2
    # linear first-order convergence
    out2 = smooth_metric_driving(phi, XI, 2e-3, M=M)
    assert abs(out2["rel_error"] / out["rel_error"] - 2.0) < 0.5
    # constant factor: uniform driving of mass e^{-xi c}
    outc = smooth_metric_driving(BoundaryField.constant(0.3, 2), 0.5, 1e-3, M=M)
    assert abs(outc["fitted"].total_mass - np.exp(-0.5 * 0.3)) < 5e-3


def test_reparametrization_scaling():
    phi = 0.1 * np.sqrt(np.pi) * BoundaryField.basis(1, 4)
    speed = np.exp(-XI * phi.values(M))
    fits = []
    for dt in (1e-3, 2e-3):
        dom = StarDomain(1.0 - dt * speed)
        fits.append(fit_driving_measure(nearly_circular_map(dom), dt))
    # same geometric family traversed at doubled speed: fitted measure doubles
    dom2 = StarDomain(1.0 - 2e-3 * speed)
    fit_fast = fit_driving_measure(nearly_circular_map(dom2), 1e-3)
    ratio = fit_fast.total_mass / fits[0].total_mass
    assert abs(ratio - 2.0) < 0.01
