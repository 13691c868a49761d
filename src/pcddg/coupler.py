"""Multirate time integration of the coupled Maxwell / drift-diffusion
system: TVD-RK3, low-storage RK45 and IMEX ARS(3,4,3) steppers, step
bounds, the multirate advance protocol, and transient observables."""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy

from . import physics as ph
from .dgops import interpolate, interpolation_rows
from .em_dg import pml_sigma_profiles
from .physics import PhysicsError
from .stationary import contact_currents, contact_face_index

# five-stage fourth-order low-storage scheme
RK4A = np.array([
    0.0,
    -567301805773.0 / 1357537059087.0,
    -2404267990393.0 / 2016746695238.0,
    -3550918686646.0 / 2091501179385.0,
    -1275806237668.0 / 842570457699.0])
RK4B = np.array([
    1432997174477.0 / 9575080441755.0,
    5161836677717.0 / 13612068292357.0,
    1720146321549.0 / 2090206949498.0,
    3134564353537.0 / 4481467310338.0,
    2277821191437.0 / 14882151754819.0])
RK4C = np.array([
    0.0,
    1432997174477.0 / 9575080441755.0,
    2526269341429.0 / 6820363962896.0,
    2006345519317.0 / 3224310063776.0,
    2802321613138.0 / 2924317926251.0])

# the longest daxpy of lsrk45_step, OpenBLAS's limit for running one on
# the calling thread: it runs a longer one on its thread pool, whose
# wake-up between stages costs more than the update saves (the register
# updates of a grating2d step, 26 400 entries, with OpenBLAS's default
# threads on 2 cores: 3 blocks took 0.83-0.88x the time of numpy's
# multiply and add, one block 1.19-1.50x; on one thread 3 blocks took
# 1.09x one block)
_AXPY_BLOCK = 10_000

# IMEX ARS(3,4,3) (Ascher, Ruuth & Spiteri, Appl. Numer. Math. 1997):
# gamma is the root of x^3 - 3x^2 + 3x/2 - 1/6 in (1/6, 1/2); both parts
# share the weights ARS_B and the nodes ARS_C; the implicit part is
# L-stable and stiffly accurate (its last row is ARS_B); the explicit part
# is fixed by b.A^2.c = 1/24, so its stability polynomial is classical
# RK4's (the imaginary axis up to 2.83, TVD-RK3's up to 1.73)
ARS_GAMMA = 0.435866521508459
ARS_B = np.array([0.0, 1.208496649176010, -0.644363170684469, ARS_GAMMA])
ARS_C = np.array([0.0, ARS_GAMMA, 0.5 * (1.0 + ARS_GAMMA), 1.0])
ARS_EXPLICIT = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [ARS_GAMMA, 0.0, 0.0, 0.0],
    [0.321278886028628, 0.396654374725602, 0.0, 0.0],
    [-0.105858296071880, 0.552929148035940, 0.552929148035940, 0.0]])
ARS_IMPLICIT = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [0.0, ARS_GAMMA, 0.0, 0.0],
    [0.0, 0.5 * (1.0 - ARS_GAMMA), ARS_GAMMA, 0.0],
    ARS_B])


def tvd_rk3_step(state, rhs, dt, t=0.0):
    """One Shu-Osher TVD-RK3 step of du/dt = rhs(u, t)."""
    u1 = state + dt * rhs(state, t)
    u2 = 0.75 * state + 0.25 * (u1 + dt * rhs(u1, t + dt))
    return state / 3.0 + (2.0 / 3.0) * (u2 + dt * rhs(u2, t + 0.5 * dt))


def lsrk45_step(state, rhs, dt, t=0.0):
    """One low-storage five-stage fourth-order RK step in Carpenter &
    Kennedy's two registers (NASA TM-109112, 1994).

    The residual is in units of 1/dt: res = a res + F(u), u += (b dt) res.
    The two registers (the new state and the residual) are one allocation
    per step, updated in place: res = F(u) at the first stage (a = 0), and
    each update of u is one daxpy per block of flat views (_AXPY_BLOCK).
    The returned state is the first register.  Writes neither into state
    nor into the arrays rhs returns."""
    u, res = np.empty((2,) + np.shape(state))
    np.copyto(u, state)
    u_flat, res_flat = u.reshape(-1), res.reshape(-1)
    blocks = [(res_flat[i:i + _AXPY_BLOCK], u_flat[i:i + _AXPY_BLOCK])
              for i in range(0, len(u_flat), _AXPY_BLOCK)]
    for a, b, c in zip(RK4A, RK4B, RK4C):
        if a == 0.0:
            np.copyto(res, rhs(u, t + c * dt))
        else:
            res *= a
            res += rhs(u, t + c * dt)
        for x, y in blocks:
            daxpy(x, y, a=b * dt)
    return u


def ars343_step(state, rhs, solve, dt, t=0.0):
    """One IMEX ARS(3,4,3) step of du/dt = rhs(u, t) + A u: rhs explicit
    (four evaluations), the linear A implicit through
    solve(b) = (I - ARS_GAMMA dt A)^-1 b (three solves)."""
    k, a_u = [], []             # the explicit stage rates, and A U_i
    u = state
    for i in range(4):
        if i:
            b = state + dt * (sum(a * kj for a, kj in zip(ARS_EXPLICIT[i], k))
                              + sum(a * lj for a, lj
                                    in zip(ARS_IMPLICIT[i, 1:i], a_u)))
            u = solve(b)
            a_u.append((u - b) / (ARS_GAMMA * dt))
        k.append(rhs(u, t + ARS_C[i] * dt))
    # stiffly accurate: the new state is the last stage plus the explicit
    # weights' difference from its row
    return u + dt * sum((w - a) * kj
                        for w, a, kj in zip(ARS_B, ARS_EXPLICIT[3], k))


def maxwell_step_factor(p, dim):
    """F of the stable LSRK45 step dt <= h / (c F) on the upwind DG Maxwell
    operator of order p.  In 1D, F = (2p+1)(0.42 + 0.081 p) lies 2.0-2.6 %
    above the factor at the edge of LSRK45's stability region on PEC walls
    (dense eigenvalues: 1.474, 2.840, 4.545, 6.564, 8.881, 11.483 for
    p = 1..6, the same to 0.01 % for K = 4..80); ABC walls, material
    interfaces and graded h allow longer steps, and Drude metals and PMLs
    add their own bounds in stable_timestep.  In 2D, F = 2p+1 (not
    fitted)."""
    return (2 * p + 1) * (0.42 + 0.081 * p) if dim == 1 else 2 * p + 1


def stable_timestep(system, disc, materials, state_estimate=None, safety=0.8,
                    detail=False, pml=None):
    """Largest stable explicit step for 'maxwell' or 'dd'.

    Per element, each bound that applies is a finite step, one that does
    not is +inf, and the step is safety times the first smallest (elements
    in order, then bounds).  'maxwell': maxwell_cfl, h / (c F) for LSRK45
    (maxwell_step_factor); drude_plasma on Drude metals, with the plasma
    frequency over 3.3 added to the wave rate in quadrature; and with pml
    (a PmlSpec) pml_damping on the elements its damping rate sigma reaches,
    sigma / 4 in quadrature.  'dd': drift_<c>, h / (v (2p+1)) with
    v = mu|E| per carrier at state_estimate's 'e_mag' (V/m), within the
    imaginary-axis limit of ARS(3,4,3)'s explicit part (diffusion is
    implicit in the DD step).  Returns +inf, and in detail the bound
    'none' at element -1, when no term limits the step.
    """
    p = disc.ref.p
    mats, mat_idx = materials.element_materials(disc.mesh, disc.elems)
    h = disc.h_elem

    def per_elem(values):
        return np.array(values, dtype=float)[mat_idx]

    def bound(label, rate, applies):
        """h / rate where applies, +inf elsewhere."""
        return label, np.divide(h, rate, out=np.full(len(h), np.inf),
                                where=applies)

    # (label, dt per element), in the order the bounds of one element are
    # taken
    bounds = []
    if system == "maxwell":
        c = per_elem([ph.C0 / np.sqrt((m.drude.eps_inf if m.drude else m.eps_r)
                                      * m.mu_r) for m in mats])
        c_f = c * maxwell_step_factor(p, disc.ref.dim)
        bounds.append(("maxwell_cfl", h / c_f))
        # the wave rate c F / h and a second rate added in quadrature,
        # each second rate within LSRK45's limit on its axis; both are
        # stable on dense 1D spectra for p = 1..6
        # the Drude plasma frequency over 3.3 (limit 3.34 on the imaginary
        # axis), for gold layers of any thickness at h = 25-400 nm
        w_p = per_elem([m.drude.omega_p if m.drude else 0.0 for m in mats])
        bounds.append(bound("drude_plasma", np.hypot(c_f, w_p * h / 3.3),
                            w_p > 0))
        if pml is not None:
            # the PML rate sigma over 4 (limit 4.66 on the negative real
            # axis), for PMLs 1-16 elements deep
            sx, sy = pml_sigma_profiles(disc, pml)
            sigma = np.max(sx + sy, axis=1)
            bounds.append(bound("pml_damping",
                                np.hypot(c_f, 0.25 * sigma * h), sigma > 0))
    elif system == "dd":
        e_mag = 0.0 if state_estimate is None else float(state_estimate.get("e_mag", 0.0))
        for carrier in ("e", "h"):
            # v = 0 outside the semiconductors: no bound there
            v = per_elem([ph.parallel_field_mobility(e_mag, carrier, m)
                          * e_mag if m.semiconductor else 0.0 for m in mats])
            bounds.append(bound(f"drift_{carrier}", v * (2 * p + 1), v > 0))
    else:
        raise PhysicsError(f"unknown system {system!r}")
    # the first smallest bound, elements in order
    dts = np.stack([b[1] for b in bounds], axis=1)
    k, j = np.unravel_index(np.argmin(dts), dts.shape)
    result = ((dts[k, j], bounds[j][0], int(k)) if np.isfinite(dts[k, j])
              else (np.inf, "none", -1))
    dt = safety * result[0]
    if detail:
        return {"dt": dt, "bound": result[1], "element": result[2],
                "safety": safety}
    return dt


def dd_step_bound(disc, materials, source, e_mag, safety=0.8):
    """The DD macro step of the multirate march, as stable_timestep's detail
    record: the drift bound at the field e_mag (labels drift_<c>), or,
    where shorter, a quarter of the carriers' shortest time scale t_c, the
    source's sigma_t (label timescale_pulse) or an SRH lifetime of a
    semiconductor on disc (timescale_tau_<c>; element -1).  'drift' keeps
    the drift bound's own record, the only stability limit of the IMEX DD
    step."""
    info = stable_timestep("dd", disc, materials,
                           state_estimate={"e_mag": e_mag}, safety=safety,
                           detail=True)
    info["drift"] = dict(info)
    mats, mat_idx = materials.element_materials(disc.mesh, disc.elems)
    scales = [] if source is None else [(source.sigma_t, "pulse")]
    scales += [(getattr(mats[i], f"tau_{c}"), f"tau_{c}")
               for i in np.unique(mat_idx) if mats[i].semiconductor
               for c in ("e", "h")]
    if scales:
        t_c, label = min(scales, key=lambda sc: sc[0])
        if t_c / 4 < info["dt"]:
            info.update(dt=t_c / 4, bound=f"timescale_{label}", element=-1)
    return info


# ---------------------------------------------------------------------------
# multirate orchestration

@dataclass
class MultirateSchedule:
    """Maxwell substep dt_em, integer ratio m (DD step = m * dt_em), and
    the horizon t_end, a whole number of DD steps."""
    dt_em: float
    m: int
    t_end: float

    def __post_init__(self):
        if self.dt_em <= 0 or self.t_end <= 0:
            raise PhysicsError("time steps and horizon must be positive")
        if int(self.m) != self.m or self.m < 1:
            raise PhysicsError(f"multirate ratio m must be an integer >= 1, "
                               f"got {self.m}")
        self.m = int(self.m)

    @property
    def dt_dd(self):
        return self.m * self.dt_em

    @property
    def n_macro(self):
        return int(round(self.t_end / self.dt_dd))

    @classmethod
    def from_bounds(cls, dt_em_max, dt_dd_max, t_end, m=None):
        """The schedule that lands on t_end with both steps within their
        bounds: n_macro = ceil(t_end / dt_dd_max) DD steps of
        m = ceil(N_em / n_macro) substeps, N_em = ceil(t_end / dt_em_max),
        so the rounding adds fewer than n_macro EM steps.  A given m takes
        n_macro = ceil(t_end / (m dt_em_max)) instead."""
        if m is None:
            n_macro = max(1, int(np.ceil(t_end / dt_dd_max)))
            m = int(np.ceil(np.ceil(t_end / dt_em_max) / n_macro))
        else:
            n_macro = max(1, int(np.ceil(t_end / (m * dt_em_max))))
        return cls(dt_em=t_end / (n_macro * m), m=m, t_end=t_end)


@dataclass
class ProbeSet:
    """Transient observables recorded at sync points: times, and one ordered
    column per observable (I_<contact>, Ex_p<i>, N_e, N_h, W_em)."""
    contacts: tuple = ()          # stationary.Contact instances
    points: np.ndarray = None     # (n, dim) field sample locations
    cadence: int = 1
    times: list = field(default_factory=list)
    columns: dict = field(default_factory=dict)
    # (elements, interpolation rows) of the points, set by validate
    interp: tuple = field(default=None, init=False, repr=False, compare=False)

    def validate(self, disc):
        """Check the cadence and locate the points once for record."""
        if self.points is not None:
            self.interp = interpolation_rows(disc, np.atleast_2d(self.points))
        if self.cadence < 1:
            raise PhysicsError("probe cadence must be >= 1")

    def record(self, cs, em_state, dd_state, current, t):
        """Record the sync point (em_state, dd_state) at time t; current is
        cs.transient_current(dd_state)."""
        row = {}
        if self.contacts:
            cur = terminal_current_probe(cs, em_state, current, t)
            row.update((f"I_{name}", val) for name, val in cur.items())
        if self.points is not None:
            ex = interpolate(em_state[cs.em.idx["ex"]], *self.interp)
            row.update((f"Ex_p{i}", v) for i, v in enumerate(ex))
        row["N_e"], row["N_h"] = cs.dd.total_carriers(dd_state)
        row["W_em"] = cs.em.energy(em_state)
        self.times.append(t)
        for name, val in row.items():
            self.columns.setdefault(name, []).append(val)


class CoupledSystem:
    """Maxwell and drift-diffusion solvers sharing one mesh.

    The EM discretization may cover more elements (vacuum, metal, PML) than
    the semiconductor DD subdomain; dd elements are located inside the EM
    element list by global index.
    """

    def __init__(self, em, dd, wavelength, contacts=()):
        self.em = em
        self.dd = dd
        self.contacts = tuple(contacts)
        e2i = {g: i for i, g in enumerate(em.disc.elems)}
        try:
            self.dd_in_em = np.array([e2i[g] for g in dd.disc.elems])
        except KeyError as exc:
            raise PhysicsError("DD subdomain element missing from the EM "
                               f"discretization: {exc}") from None
        self.gcoef = np.zeros((em.disc.K, em.disc.Np))
        self.gcoef[self.dd_in_em] = np.array(
            [ph.generation_coefficient(m, wavelength) for m in dd.mats]
        )[dd.mat_idx][:, None]
        if self.contacts:
            self.contact_idx = contact_face_index(dd.disc, self.contacts)

    # -- field plumbing --------------------------------------------------
    def generation(self, em_state):
        """Nodal G = gcoef |E x H| on the EM mesh from the optical
        (transient) fields, zero off the DD subdomain."""
        return self.gcoef * ph.poynting_magnitude(
            em_state[:self.em.disc.ref.dim], (em_state[self.em.idx["hz"]],))

    def add_fields(self, sums, em_state, weight):
        """sums += weight (G, E^t) of em_state, in place on the EM mesh:
        sums is (1 + dim, K, Np), G first."""
        dim = self.em.disc.ref.dim
        g = self.generation(em_state)
        if weight != 1.0:
            g *= weight
            sums[1:] += weight * em_state[:dim]
        else:
            sums[1:] += em_state[:dim]
        sums[0] += g

    def step_means(self, sums, m):
        """The mean generation and mean E^t on the DD subdomain from the
        trapezoid sums (add_fields) over m substeps."""
        mean = sums[:, self.dd_in_em] / m
        return mean[0], tuple(mean[1:])

    def transient_current(self, dd_state):
        """The carrier current of a DD state as the pair (sigma, j0) on the
        EM mesh, J_e^t + J_h^t = j0 + sigma E^t, both zero outside the DD
        subdomain: sigma, (K, Np), is the conductivity of the total
        densities; j0, (dim, K, Np), is the drift of the transient densities
        in E^s plus their diffusion.  MaxwellSolver.rhs takes the pair."""
        dd, disc = self.dd, self.em.disc
        n_e_t, n_h_t = dd_state[0], dd_state[1]
        sigma = np.zeros((disc.K, disc.Np))
        j0 = np.zeros((disc.ref.dim, disc.K, disc.Np))
        sigma[self.dd_in_em] = ph.Q * (dd.mu_e * (dd.n_e_s + n_e_t)
                                       + dd.mu_h * (dd.n_h_s + n_h_t))
        j0[:, self.dd_in_em] = dd.conduction_current(n_e_t, n_h_t, dd.e_s)
        return sigma, j0


def multirate_advance(cs, em_state, dd_state, t, schedule, current,
                      last=None):
    """Advance the coupled system one DD macro step from time t: the m
    Maxwell substeps in a carrier current (sigma, j0) held over the step,
    then one IMEX DD step fed with the mean generation and mean E^t of the
    substeps (trapezoid rule at their boundaries).  The held current is
    current, cs.transient_current(dd_state), extrapolated to the middle of
    the step from last, that of the DD state one step earlier (None:
    current itself).  Returns the new states and the carrier current of
    the new DD state."""
    if last is not None:
        current = tuple(1.5 * a - 0.5 * b for a, b in zip(current, last))
    m, dt = schedule.m, schedule.dt_em
    em_rhs = cs.em.held_rhs(current)
    sums = np.zeros((1 + cs.em.disc.ref.dim,) + em_state.shape[1:])
    cs.add_fields(sums, em_state, 0.5)
    for i in range(m):
        em_state = lsrk45_step(em_state, em_rhs, dt, t + i * dt)
        cs.add_fields(sums, em_state, 0.5 if i == m - 1 else 1.0)

    g, e_t = cs.step_means(sums, m)
    terms = cs.dd.step_terms(g=g, e_t=e_t)
    dt_dd = schedule.dt_dd
    dd_state = ars343_step(
        dd_state, lambda s, tt: cs.dd.carrier_rhs(s, terms),
        cs.dd.diffusion_solve(ARS_GAMMA * dt_dd), dt_dd, t)
    return em_state, dd_state, cs.transient_current(dd_state)


def terminal_current_probe(cs, em_state, current, t=0.0):
    """Terminal current per contact: contour integral of the total transient
    current J_e^t + J_h^t + eps dE^t/dt through the contact faces, with
    current = (sigma, j0) of the DD state and dE^t/dt from the EM rhs."""
    if not cs.contacts:
        raise PhysicsError("no contacts configured for the current probe")
    sigma, j0 = current
    dim = len(j0)
    de_dt = cs.em.rhs(em_state, t, current=current)[:dim]
    j_tot = (j0 + sigma * em_state[:dim] + cs.em.eps * de_dt)[:, cs.dd_in_em]
    return contact_currents(cs.dd.disc, tuple(j_tot), cs.contact_idx,
                            cs.contacts)


def run_coupled(cs, schedule, probes=None):
    """March the coupled system to t_end, recording probes at sync points.
    The march owns its clock and the carrier currents carried between macro
    steps, so cs and schedule can run again."""
    if probes is not None:
        probes.validate(cs.em.disc)
    em_state = cs.em.zero_state()
    dd_state = np.zeros((2, cs.dd.disc.K, cs.dd.disc.Np))
    t = 0.0
    current, last = cs.transient_current(dd_state), None
    if probes is not None:
        probes.record(cs, em_state, dd_state, current, t)
    for k in range(schedule.n_macro):
        em_state, dd_state, new = multirate_advance(
            cs, em_state, dd_state, t, schedule, current, last)
        current, last = new, current
        t = (k + 1) * schedule.dt_dd
        if probes is not None and (k + 1) % probes.cadence == 0:
            probes.record(cs, em_state, dd_state, current, t)
    return em_state, dd_state, t
