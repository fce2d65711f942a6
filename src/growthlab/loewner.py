"""Radial measure-driven flows, conformal radius bookkeeping, a
nearly-circular conformal mapper, and the growth-rate checks built on it.

The flow integrates dg/dt = -g int (g+w)/(g-w) nu_t(dw) with the
right-hand side evaluated through the driving density's Fourier
coefficients (a polynomial in g, stable up to the circle) by adaptive
step-doubled RK4.  The mapper follows the classic boundary-correspondence
iteration for star-shaped perturbations of the disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gmc import CircleMeasure
from .spectral import (BoundaryField, fourier_coeffs, grid_angles, grid_conjugate,
                       poisson_kernel)


class MapperError(RuntimeError):
    """Boundary-correspondence iteration failed to converge."""

    def __init__(self, residual: float):
        super().__init__(f"mapper did not converge (residual {residual:.3e})")
        self.residual = residual


@dataclass
class DrivingPath:
    """Piecewise-constant-in-time driving measures on [0, T]."""

    times: np.ndarray            # breakpoints, strictly increasing, times[0] = 0
    measures: list[CircleMeasure]  # measure on [times[k], times[k+1])
    dropped: int = 0             # source steps left out (driving_from_state)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or self.times.size != len(self.measures) + 1:
            raise ValueError("need one measure per time interval")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")

    @classmethod
    def constant(cls, mu: CircleMeasure, T: float) -> "DrivingPath":
        return cls(np.array([0.0, T]), [mu])

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def segment(self, k: int) -> tuple[float, float, CircleMeasure]:
        return float(self.times[k]), float(self.times[k + 1]), self.measures[k]

    def mass_integral(self, T: float | None = None) -> float:
        T = self.horizon if T is None else T
        total = 0.0
        for k, mu in enumerate(self.measures):
            a, b = self.times[k], min(self.times[k + 1], T)
            if b > a:
                total += (b - a) * mu.total_mass
        return total


def _velocity(coeffs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """dg/dt = g * 2 pi (c_0 + 2 sum_k c_k g^k), Horner evaluated, with c_k
    the density's Fourier coefficients: int (z+w)/(z-w) mu(dw) = -2pi(c_0 +
    2 sum c_k z^k)."""
    acc = np.zeros_like(g)
    for c in coeffs[:0:-1]:
        acc = (acc + 2.0 * c) * g
    return g * 2.0 * np.pi * (coeffs[0].real + acc)


@dataclass
class FlowResult:
    times: np.ndarray
    values: np.ndarray
    lifetime: float | None = None
    lifetime_bracket: tuple[float, float] | None = None

    def at_end(self):
        return self.values[-1]


def flow(driving: DrivingPath, z0: complex, dt: float = 1e-2,
         rtol: float = 1e-10, lifetime_tol: float = 1e-6) -> FlowResult:
    """Integrate the measure-driven flow of one interior point.

    Adaptive RK4 with step doubling; a trajectory terminates when |g|
    reaches 1 - lifetime_tol, reported with the last bracketing step.
    """
    if abs(z0) >= 1.0:
        raise ValueError("starting point must be inside the disk")
    g = complex(z0)
    t = 0.0
    ts = [0.0]
    gs = [g]
    barrier = 1.0 - lifetime_tol

    def rk4(coeffs, g, h):
        k1 = _velocity(coeffs, g)
        k2 = _velocity(coeffs, g + 0.5 * h * k1)
        k3 = _velocity(coeffs, g + 0.5 * h * k2)
        k4 = _velocity(coeffs, g + h * k3)
        return g + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    for k in range(len(driving.measures)):
        a, b, mu = driving.segment(k)
        coeffs = fourier_coeffs(mu.density)
        t = max(t, a)
        h = min(dt, b - t)
        while t < b - 1e-15:
            h = min(h, b - t)
            if h < 1e-14:
                break
            full = rk4(coeffs, g, h)
            half = rk4(coeffs, rk4(coeffs, g, 0.5 * h), 0.5 * h)
            err = abs(full - half)
            scale = max(abs(half), 1.0)
            if err > rtol * scale and h > 1e-13:
                h *= 0.5
                continue
            if abs(half) >= barrier:
                # bisect inside the step for the crossing time
                lo_t, hi_t = 0.0, h
                for _ in range(60):
                    mid = 0.5 * (lo_t + hi_t)
                    g_mid = rk4(coeffs, g, mid)
                    if abs(g_mid) >= barrier:
                        hi_t = mid
                    else:
                        lo_t = mid
                    if hi_t - lo_t < 1e-15 * max(1.0, t + hi_t):
                        break
                ts.append(t + hi_t)
                gs.append(rk4(coeffs, g, hi_t))
                return FlowResult(np.array(ts), np.array(gs),
                                  lifetime=t + hi_t,
                                  lifetime_bracket=(t + lo_t, t + hi_t))
            g = half + (half - full) / 15.0
            t += h
            if err < 0.1 * rtol * scale:
                h *= 2.0
    ts.append(t)
    gs.append(g)
    return FlowResult(np.array(ts), np.array(gs))


_RADIUS_PROBE = 0.03


def conformal_radius(driving: DrivingPath, T: float, dt: float = 1e-3,
                     rtol: float = 1e-12) -> tuple[float, float]:
    """Derivative of the flow map at the origin, by two routes.

    Returns (flow_route, mass_route).  The flow route flows the 8 points
    z_j = r e^{2 pi i j/8}, r = 0.03, to time T, each with rtol relative to
    r, and takes the Cauchy average of g_T(z_j)/z_j: the mean over the
    circle keeps g_T'(0) and cancels every Taylor term below order r^8,
    whatever the driving measures.  The mass route is the closed form exp
    of the time-integrated mass.
    """
    T = min(T, driving.horizon)
    keep = driving.times < T
    path = DrivingPath(np.append(driving.times[keep], T), driving.measures[: keep.sum()])
    probes = _RADIUS_PROBE * np.exp(2j * np.pi * np.arange(8) / 8)
    flows = [flow(path, z, dt=dt, rtol=rtol * _RADIUS_PROBE) for z in probes]
    if any(res.lifetime is not None for res in flows):
        raise ValueError("a probe point reached the boundary before T")
    return (float(np.mean([res.at_end() / z for res, z in zip(flows, probes)]).real),
            float(np.exp(driving.mass_integral(T))))


# -- nearly circular conformal map -------------------------------------------


@dataclass
class StarDomain:
    """Star-shaped domain r(theta) on the angle grid, |1 - r| small."""

    radius: np.ndarray

    def __post_init__(self):
        self.radius = np.asarray(self.radius, dtype=float)
        if np.any(self.radius <= 0.0):
            raise ValueError("boundary radius must be positive")
        if np.abs(1.0 - self.radius).max() > 0.2:
            raise ValueError("domain too far from the disk for the mapper")

    @property
    def M(self) -> int:
        return self.radius.size


@dataclass
class NearlyCircularMap:
    """Conformal map data for a star-shaped perturbation of the disk.

    F maps the unit disk onto the domain with F(0) = 0, F'(0) > 0; the
    stored data are the boundary correspondence theta(phi) and the Taylor
    coefficients of log(F(w)/w).  `fixed_point_residual` is the largest
    change of theta(phi) in the last of the correspondence iteration's
    `iterations` steps; above the tolerance, the iteration stopped at its
    cap.
    """

    theta_of_phi: np.ndarray
    log_deriv_coeffs: np.ndarray     # Taylor coefficients of log(F(w)/w)
    boundary_residual: float
    fixed_point_residual: float
    iterations: int
    domain: StarDomain = field(repr=False)

    @property
    def forward_deriv0(self) -> float:
        """F'(0), the conformal radius of the domain."""
        return float(np.exp(self.log_deriv_coeffs[0].real))

    @property
    def gprime0(self) -> float:
        """g'(0) for the inverse map g onto the disk."""
        return 1.0 / self.forward_deriv0

    def _logF(self, w):
        acc = np.zeros_like(w)
        for c in self.log_deriv_coeffs[::-1]:
            acc = acc * w + c
        return acc

    def _logF_deriv(self, w):
        acc = np.zeros_like(w)
        n = self.log_deriv_coeffs.size
        for k in range(n - 1, 0, -1):
            acc = acc * w + k * self.log_deriv_coeffs[k]
        return acc

    def from_disk(self, w):
        """F(w), the map from the disk onto the domain."""
        w = np.asarray(w, dtype=complex)
        return w * np.exp(self._logF(w))

    def to_disk(self, z, tol: float = 1e-13, maxit: int = 60):
        """g(z) = F^{-1}(z) by Newton iteration."""
        z = np.asarray(z, dtype=complex)
        w = z / self.forward_deriv0
        for _ in range(maxit):
            Fw = self.from_disk(w)
            dF = np.exp(self._logF(w)) * (1.0 + w * self._logF_deriv(w))
            step = (Fw - z) / dF
            w = w - step
            if np.max(np.abs(step)) < tol:
                break
        return w

    def green(self, z1, z2) -> float:
        """Green kernel of the domain via conformal invariance."""
        w1 = self.to_disk(np.asarray(z1, dtype=complex))
        w2 = self.to_disk(np.asarray(z2, dtype=complex))
        return np.log(np.abs((w1 - w2) / (1.0 - w1 * np.conj(w2)))) / (2.0 * np.pi)


def nearly_circular_map(domain: StarDomain, tol: float = 1e-13,
                        maxit: int = 400) -> NearlyCircularMap:
    """Boundary-correspondence iteration for a star-shaped domain.

    Iterates theta(phi) = phi + conj(log r(theta(phi))) until the
    correspondence is fixed; raises MapperError with the residual when the
    iteration stalls above 1e3 * tol.  A stall between tol and 1e3 * tol is
    accepted, and the map keeps its residual and iteration count.
    """
    M = domain.M
    phi = grid_angles(M)
    logr = BoundaryField.from_grid(np.log(domain.radius), degree=M // 2 - 1)
    theta = phi.copy()
    residual = np.inf
    for it in range(1, maxit + 1):
        u = logr.value_at(theta)
        theta_new = phi + grid_conjugate(u)
        residual = float(np.abs(theta_new - theta).max())
        theta = theta_new
        if residual < tol:
            break
    else:
        if residual > 1e3 * tol:
            raise MapperError(residual)
    u = logr.value_at(theta)
    spec = fourier_coeffs(u)
    coeffs = np.zeros(M // 2, dtype=complex)
    coeffs[0] = spec[0].real
    coeffs[1:] = 2.0 * spec[1 : M // 2]
    # boundary match: |F(e^{i phi})| versus r at the induced angle
    theta_hat = phi + grid_conjugate(u)
    bres = float(np.abs(np.exp(u) - np.exp(logr.value_at(theta_hat))).max())
    return NearlyCircularMap(theta, coeffs, bres, residual, it, domain)


# -- growth-rate checks --------------------------------------------------------


def hadamard_check(speed: BoundaryField, z1: complex, z2: complex,
                   dts=(2e-3, 1e-3, 5e-4), M: int = 256) -> dict:
    """Finite-difference Green variation under inward normal flow versus
    the boundary-integral formula, over a sweep of flow times.

    Returns the formula value, per-dt finite differences with relative
    errors, and the observed convergence order.
    """
    theta = grid_angles(M)
    s = speed.values(M)
    if np.any(s < -1e-12):
        raise ValueError("flow speed must be nonnegative")
    w = np.exp(1j * theta)
    formula = float(np.sum(poisson_kernel(z1, w) * poisson_kernel(z2, w) * s)
                    * (2.0 * np.pi / M))
    g0 = np.log(np.abs((z1 - z2) / (1.0 - z1 * np.conj(z2)))) / (2.0 * np.pi)
    rows = []
    for dt in dts:
        dom = StarDomain(1.0 - dt * s)
        cmap = nearly_circular_map(dom)
        fd = (cmap.green(z1, z2) - g0) / dt
        rows.append((float(dt), float(fd), abs(fd - formula) / max(abs(formula), 1e-300)))
    errs = [abs(fd - formula) for _, fd, _ in rows]
    orders = [np.log2(errs[i] / errs[i + 1]) / np.log2(dts[i] / dts[i + 1])
              for i in range(len(dts) - 1) if errs[i + 1] > 0]
    return {"formula": formula, "sweep": rows,
            "order": float(np.mean(orders)) if orders else float("nan")}


def fit_driving_measure(cmap: NearlyCircularMap, dt: float, r0: float = 0.5,
                        K: int = 8) -> CircleMeasure:
    """Extract the first-order driving measure of a one-step growth.

    Fits (g(z) - z)/dt on |z| = r0 against the vector-field series
    L(z)/z = 2 pi c_0 + 4 pi sum_k c_k z^k and rebuilds the density from
    the recovered Fourier coefficients up to mode K.
    """
    M = cmap.domain.M
    theta = grid_angles(M)
    z = r0 * np.exp(1j * theta)
    Lhat = (cmap.to_disk(z) - z) / dt
    C = np.fft.fft(Lhat / z) / M
    ck = np.zeros(K + 1, dtype=complex)
    ck[0] = C[0].real / (2.0 * np.pi)
    ks = np.arange(1, K + 1)
    ck[1:] = C[1 : K + 1] * r0 ** (-ks.astype(float)) / (4.0 * np.pi)
    density = np.full(M, ck[0].real)
    for k in ks:
        density += 2.0 * (ck[k] * np.exp(1j * k * theta)).real
    return CircleMeasure(np.clip(density, 0.0, None))


def smooth_metric_driving(phi: BoundaryField, xi: float, dt: float,
                          M: int = 256, K: int = 8) -> dict:
    """Driving measure of the first-order growth of a smooth conformal metric.

    Flows the circle inward by normal distance dt e^{-xi phi}, maps the
    resulting domain, extracts the driving measure over [0, dt], and
    compares with the density e^{-xi phi} / 2 pi.
    """
    pv = phi.values(M)
    speed = np.exp(-xi * pv)
    dom = StarDomain(1.0 - dt * speed)
    cmap = nearly_circular_map(dom)
    fitted = fit_driving_measure(cmap, dt, K=K)
    target = speed / (2.0 * np.pi)
    rel = float(np.abs(fitted.density - target).max() / np.abs(target).max())
    return {"fitted": fitted, "target": CircleMeasure(target), "rel_error": rel}
