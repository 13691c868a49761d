"""Grid-convergence studies on exact-solution problems.

Each study returns rows (p, K, h, error, order) suitable for printing or
CSV export; the last-column order is computed between successive levels.
"""

import numpy as np

from . import physics as ph
from .coupler import (ARS_GAMMA, ars343_step, lsrk45_step, stable_timestep,
                      tvd_rk3_step)
from .dd_dg import DDSolver
from .dgops import build_discretization
from .em_dg import MaxwellSolver
from .mesh import generate_structured_mesh, make_spec, unit_interval_mesh
from .refelem import ConfigurationError, build_reference_element

C0, EPS0, MU0 = ph.C0, ph.EPS0, ph.MU0
Z0 = np.sqrt(MU0 / EPS0)


def _vac_table():
    return ph.MaterialTable(materials={"vac": ph.vacuum()})


def _semi_table():
    return ph.MaterialTable(materials={"semi": ph.lt_gaas()})


def maxwell_error_1d(n, p):
    """L2 error of a standing PEC-cavity mode after a quarter period."""
    mesh = unit_interval_mesh(n, left="PEC", right="PEC", region="vac")
    disc = build_discretization(mesh, build_reference_element(1, p))
    solver = MaxwellSolver(disc, _vac_table())
    k = np.pi
    om = k * C0
    x = disc.x[:, :, 0]
    u = solver.zero_state()
    u[solver.idx["ex"]] = np.sin(k * x)
    t = _integrate(u, solver.rhs, lsrk45_step, 0.25 * 2 * np.pi / om,
                   stable_timestep("maxwell", disc, _vac_table(), safety=0.3))
    u, t_end = t
    ex = np.sin(k * x) * np.cos(om * t_end)
    hz = k / (MU0 * om) * np.cos(k * x) * np.sin(om * t_end)
    return np.sqrt(disc.l2_norm(u[solver.idx["ex"]] - ex) ** 2
                   + Z0 ** 2 * disc.l2_norm(u[solver.idx["hz"]] - hz) ** 2)


def maxwell_error_2d(n, p):
    """L2 error of the (1,1) TE mode of the unit square PEC cavity."""
    spec = make_spec(2, [0, 0], [1.0, 1.0],
                     regions=[("vac", [0, 0], [1, 1], 1.0 / n)],
                     default_tag="PEC")
    disc = build_discretization(generate_structured_mesh(spec),
                                build_reference_element(2, p))
    solver = MaxwellSolver(disc, _vac_table())
    kx = ky = np.pi
    om = C0 * np.sqrt(kx ** 2 + ky ** 2)
    x, y = disc.x[:, :, 0], disc.x[:, :, 1]
    u = solver.zero_state()
    u[solver.idx["hz"]] = np.cos(kx * x) * np.cos(ky * y)
    u, t = _integrate(u, solver.rhs, lsrk45_step, 0.3 * 2 * np.pi / om,
                      stable_timestep("maxwell", disc, _vac_table(), safety=0.3))
    hz = np.cos(kx * x) * np.cos(ky * y) * np.cos(om * t)
    ex = -ky / (EPS0 * om) * np.cos(kx * x) * np.sin(ky * y) * np.sin(om * t)
    ey = kx / (EPS0 * om) * np.sin(kx * x) * np.cos(ky * y) * np.sin(om * t)
    return np.sqrt(Z0 ** -2 * disc.l2_norm(u[solver.idx["ex"]] - ex) ** 2
                   + Z0 ** -2 * disc.l2_norm(u[solver.idx["ey"]] - ey) ** 2
                   + disc.l2_norm(u[solver.idx["hz"]] - hz) ** 2)


def dd_diffusion_error(n, p):
    """Decaying sine mode of both carriers between zero-density contacts at
    zero field, marched as the transient marches diffusion: ARS(3,4,3)
    with DDSolver.diffusion_solve; the electron density's error."""
    mesh = unit_interval_mesh(n, region="semi")
    disc = build_discretization(mesh, build_reference_element(1, p))
    solver = DDSolver(disc, _semi_table())
    d_e = solver.d_e.flat[0]            # V_T mu_e0 at zero field
    x = disc.x[:, :, 0]
    zero_rhs = lambda s, t: np.zeros_like(s)
    # the solve at the step _integrate takes
    step = lambda s, rhs, dt, t: ars343_step(
        s, rhs, solver.diffusion_solve(ARS_GAMMA * dt), dt, t)
    u, t = _integrate(np.stack([np.sin(np.pi * x)] * 2), zero_rhs, step,
                      0.02 / d_e, 0.2 * (1.0 / n) ** 2 / d_e)
    return disc.l2_norm(u[0] - np.sin(np.pi * x)
                        * np.exp(-np.pi ** 2 * d_e * t))


def dd_advection_error(n, p):
    """Gaussian pulse in a uniform unit velocity field."""
    mesh = unit_interval_mesh(n, region="semi")
    disc = build_discretization(mesh, build_reference_element(1, p))
    solver = DDSolver(disc, _semi_table())
    x = disc.x[:, :, 0]
    v = (np.ones_like(x),)
    d_nod = np.zeros_like(x)
    pulse = lambda y: np.exp(-((y - 0.3) / 0.1) ** 2)
    u = pulse(x)
    rhs = lambda nn, t: solver.scalar_rhs(nn, v, d_nod)
    u, t = _integrate(u, rhs, tvd_rk3_step, 0.25, 0.2 / (n * (2 * p + 1)))
    return disc.l2_norm(u - pulse(x - t))


def _integrate(u, rhs, stepper, t_end, dt):
    nsteps = int(np.ceil(t_end / dt))
    dt = t_end / nsteps
    t = 0.0
    for _ in range(nsteps):
        u = stepper(u, rhs, dt, t)
        t += dt
    return u, t


_STUDIES = {
    "maxwell": (maxwell_error_1d, 4),
    "maxwell2d": (maxwell_error_2d, 4),
    "dd_diffusion": (dd_diffusion_error, 4),
    "dd_advection": (dd_advection_error, 8),
}


def order_table(system, orders=(1, 2), levels=3):
    """Run a study over nested meshes; rows are (p, K, h, err, order)."""
    try:
        err_fn, n0 = _STUDIES[system]
    except KeyError:
        raise ConfigurationError(
            f"unknown convergence system {system!r}; "
            f"choose from {sorted(_STUDIES)}") from None
    rows = []
    for p in orders:
        prev = None
        for lev in range(levels):
            n = n0 * 2 ** lev
            err = err_fn(n, p)
            order = np.nan if prev is None else np.log2(prev / err)
            rows.append((p, n, 1.0 / n, err, order))
            prev = err
    return rows


def format_table(rows):
    lines = [f"{'p':>3} {'n':>5} {'h':>10} {'error':>12} {'order':>7}"]
    for p, n, h, err, order in rows:
        o = "  --" if np.isnan(order) else f"{order:7.2f}"
        lines.append(f"{p:>3} {n:>5} {h:10.3e} {err:12.4e} {o}")
    return "\n".join(lines)
