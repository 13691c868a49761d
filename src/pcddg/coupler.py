"""Explicit multirate time integration of the coupled Maxwell / drift-
diffusion system: TVD-RK3 and low-storage RK45 steppers, stable-step
estimation, the multirate advance protocol, and transient observables."""

from dataclasses import dataclass, field

import numpy as np

from . import physics as ph
from .physics import PhysicsError

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


def tvd_rk3_step(state, rhs, dt, t=0.0):
    """One Shu-Osher TVD-RK3 step of du/dt = rhs(u, t)."""
    u1 = state + dt * rhs(state, t)
    u2 = 0.75 * state + 0.25 * (u1 + dt * rhs(u1, t + dt))
    return state / 3.0 + (2.0 / 3.0) * (u2 + dt * rhs(u2, t + 0.5 * dt))


def lsrk45_step(state, rhs, dt, t=0.0):
    """One low-storage five-stage fourth-order RK step.

    The three state-sized registers (the new state, the residual and a
    scratch product) are one allocation per step, updated in place; the
    returned state is the first of them.  Writes neither into state nor
    into the arrays rhs returns."""
    u, res, tmp = np.empty((3,) + np.shape(state))
    np.copyto(u, state)
    res.fill(0.0)
    for a, b, c in zip(RK4A, RK4B, RK4C):
        res *= a
        np.multiply(rhs(u, t + c * dt), dt, out=tmp)
        res += tmp
        np.multiply(res, b, out=tmp)
        u += tmp
    return u


def stable_timestep(system, disc, materials, state_estimate=None, safety=0.8,
                    detail=False):
    """Largest stable explicit step for 'maxwell' or 'dd'.

    state_estimate for the DD bound is a dict with 'e_mag' (V/m); v = mu|E|
    and d = V_T mu per carrier.  Returns +inf when no term limits the step.
    """
    p = disc.ref.p
    mesh = disc.mesh
    mats = [materials.region(mesh.region_names[mesh.region_id[k]])
            for k in disc.elems]
    h = disc.h_elem
    bounds = []   # (dt, label, element)
    if system == "maxwell":
        for k, m in enumerate(mats):
            eps_r = m.drude.eps_inf if m.drude else m.eps_r
            c = ph.C0 / np.sqrt(eps_r * m.mu_r)
            bounds.append((h[k] / (c * (2 * p + 1)), "maxwell_cfl", k))
    elif system == "dd":
        e_mag = 0.0 if state_estimate is None else float(state_estimate.get("e_mag", 0.0))
        v_t = materials.v_t
        for k, m in enumerate(mats):
            if not m.semiconductor:
                continue
            for carrier in ("e", "h"):
                mu = ph.parallel_field_mobility(e_mag, carrier, m)
                v = mu * e_mag
                d = ph.einstein_diffusivity(mu, v_t)
                if v > 0:
                    bounds.append((h[k] / (v * (2 * p + 1)), f"drift_{carrier}", k))
                if d > 0:
                    bounds.append((h[k] ** 2 / (d * (2 * p + 1) ** 2),
                                   f"diffusion_{carrier}", k))
    else:
        raise PhysicsError(f"unknown system {system!r}")
    if not bounds:
        result = (np.inf, "none", -1)
    else:
        result = min(bounds, key=lambda b: b[0])
    dt = safety * result[0]
    if detail:
        return {"dt": dt, "bound": result[1], "element": result[2],
                "safety": safety}
    return dt


# ---------------------------------------------------------------------------
# multirate orchestration

@dataclass
class MultirateSchedule:
    """Maxwell substep dt_em, integer ratio m (DD step = m * dt_em)."""
    dt_em: float
    m: int
    t_end: float
    n_sync: int = 0

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

    @classmethod
    def from_bounds(cls, dt_em_max, dt_dd_max, t_end, cap=10):
        """Pick m = floor(dt_dd_max / dt_em_max), capped."""
        m = 1
        if np.isfinite(dt_dd_max):
            m = max(1, min(cap, int(dt_dd_max / dt_em_max)))
        else:
            m = cap
        return cls(dt_em=dt_em_max, m=m, t_end=t_end)


@dataclass
class ProbeSet:
    """Transient observables recorded at sync points."""
    contacts: tuple = ()          # stationary.Contact instances
    points: np.ndarray = None     # (n, dim) field sample locations
    cadence: int = 1
    times: list = field(default_factory=list)
    currents: dict = field(default_factory=dict)
    point_ex: list = field(default_factory=list)
    carriers: list = field(default_factory=list)
    em_energy: list = field(default_factory=list)
    # (elements, interpolation rows) of the points, set by validate
    interp: tuple = field(default=None, init=False, repr=False, compare=False)

    def validate(self, disc):
        """Check the cadence and locate the points once for record."""
        if self.points is not None:
            from .dgops import interpolation_rows
            self.interp = interpolation_rows(disc, np.atleast_2d(self.points))
        if self.cadence < 1:
            raise PhysicsError("probe cadence must be >= 1")

    def record(self, cs, em_state, dd_state, t):
        self.times.append(t)
        if self.contacts:
            cur = terminal_current_probe(cs, em_state, dd_state, t)
            for name, val in cur.items():
                self.currents.setdefault(name, []).append(val)
        if self.points is not None:
            from .dgops import interpolate
            self.point_ex.append(
                interpolate(em_state[cs.em.idx["ex"]], *self.interp))
        self.carriers.append(cs.dd.total_carriers(dd_state))
        self.em_energy.append(cs.em.energy(em_state))


class CoupledSystem:
    """Maxwell and drift-diffusion solvers sharing one mesh.

    The EM discretization may cover more elements (vacuum, metal, PML) than
    the semiconductor DD subdomain; dd elements are located inside the EM
    element list by global index.
    """

    def __init__(self, em, dd, wavelength, contacts=()):
        self.em = em
        self.dd = dd
        self.wavelength = wavelength
        self.contacts = tuple(contacts)
        e2i = {g: i for i, g in enumerate(em.disc.elems)}
        try:
            self.dd_in_em = np.array([e2i[g] for g in dd.disc.elems])
        except KeyError as exc:
            raise PhysicsError("DD subdomain element missing from the EM "
                               f"discretization: {exc}") from None
        self.gcoef = np.array(
            [ph.generation_coefficient(m, wavelength) for m in dd.mats])[:, None]
        if self.contacts:
            from .stationary import contact_face_index
            self.contact_idx = contact_face_index(dd.disc, self.contacts)
        self._g_last = None

    # -- field plumbing --------------------------------------------------
    def e_t_on_dd(self, em_state):
        i = self.em.idx
        comps = ("ex",) if self.em.disc.ref.dim == 1 else ("ex", "ey")
        return tuple(em_state[i[c]][self.dd_in_em] for c in comps)

    def generation(self, em_state):
        """Nodal G on the DD subdomain from the optical (transient) fields."""
        i = self.em.idx
        hz = em_state[i["hz"]][self.dd_in_em]
        e = self.e_t_on_dd(em_state)
        return self.gcoef * ph.poynting_magnitude(e, (hz,))

    def transient_current(self, dd_state, e_t_dd):
        """J_e^t + J_h^t on the DD subdomain for given transient field."""
        dd = self.dd
        dim = dd.disc.ref.dim
        n_e_t, n_h_t = dd_state[0], dd_state[1]
        ge = dd.gradient(n_e_t)
        gh = dd.gradient(n_h_t)
        sigma = ph.Q * (dd.mu_e * (dd.n_e_s + n_e_t)
                        + dd.mu_h * (dd.n_h_s + n_h_t))
        out = []
        for nu in range(dim):
            j0 = ph.Q * (dd.mu_e * n_e_t * dd.e_s[nu] + dd.d_e * ge[nu]
                         + dd.mu_h * n_h_t * dd.e_s[nu] - dd.d_h * gh[nu])
            out.append(j0 + sigma * e_t_dd[nu])
        return tuple(out)

    def _em_rhs_with_carriers(self, dd_state):
        """EM rhs closure with stage-local transient carrier current."""
        dd = self.dd
        dim = dd.disc.ref.dim
        n_e_t, n_h_t = dd_state[0], dd_state[1]
        ge = dd.gradient(n_e_t)
        gh = dd.gradient(n_h_t)
        sigma = ph.Q * (dd.mu_e * (dd.n_e_s + n_e_t)
                        + dd.mu_h * (dd.n_h_s + n_h_t))
        j0 = [ph.Q * (dd.mu_e * n_e_t * dd.e_s[nu] + dd.d_e * ge[nu]
                      + dd.mu_h * n_h_t * dd.e_s[nu] - dd.d_h * gh[nu])
              for nu in range(dim)]

        # carrier current on the EM mesh; rows outside the DD subdomain stay 0
        j_full = np.zeros((dim, self.em.disc.K, self.em.disc.Np))

        def rhs(em_state, t):
            e_t = self.e_t_on_dd(em_state)
            for nu in range(dim):
                j_full[nu][self.dd_in_em] = j0[nu] + sigma * e_t[nu]
            return self.em.rhs(em_state, t, j_carrier=j_full)
        return rhs


def _log(log, t, action):
    if log is not None:
        log.append(f"t={t:.17g} action={action}")


def multirate_advance(cs, em_state, dd_state, t, schedule, log=None):
    """Advance the coupled system one DD macro step (m Maxwell substeps)."""
    dt_dd = schedule.dt_dd
    expect = schedule.n_sync * dt_dd
    if abs(t - expect) > 1e-9 * max(dt_dd, abs(t), 1e-300):
        raise PhysicsError(f"clocks desynchronized: t={t} but sync counter "
                           f"implies {expect}")
    # averaged generation from the two most recent Maxwell steps
    g_now = cs.generation(em_state)
    g_last = g_now if cs._g_last is None else cs._g_last
    g_tilde = 0.5 * (g_last + g_now)
    _log(log, t, "gen_avg")

    e_t_sync = cs.e_t_on_dd(em_state)
    dd_rhs = lambda s, tt: cs.dd.carrier_rhs(s, g=g_tilde, t=tt, e_t=e_t_sync)
    dd_state = tvd_rk3_step(dd_state, dd_rhs, dt_dd, t)
    _log(log, t, "dd_step")

    em_rhs = cs._em_rhs_with_carriers(dd_state)
    for i in range(schedule.m):
        if i == schedule.m - 1:
            cs._g_last = cs.generation(em_state)
        em_state = lsrk45_step(em_state, em_rhs, schedule.dt_em,
                               t + i * schedule.dt_em)
        _log(log, t + (i + 1) * schedule.dt_em, "em_step")
    schedule.n_sync += 1
    t = schedule.n_sync * dt_dd
    _log(log, t, "sync")
    return em_state, dd_state, t


def terminal_current_probe(cs, em_state, dd_state, t=0.0):
    """Terminal current per contact: contour integral of the total transient
    current J_e^t + J_h^t + eps dE^t/dt through the contact faces."""
    if not cs.contacts:
        raise PhysicsError("no contacts configured for the current probe")
    from .stationary import _face_integral
    dd = cs.dd
    d = dd.disc
    dim = d.ref.dim
    e_t = cs.e_t_on_dd(em_state)
    j_c = cs.transient_current(dd_state, e_t)
    em_rhs = cs._em_rhs_with_carriers(dd_state)(em_state, t)
    i = cs.em.idx
    comps = ("ex",) if dim == 1 else ("ex", "ey")
    eps_dd = cs.em.eps[cs.dd_in_em]
    j_tot = tuple(j_c[nu] + eps_dd * em_rhs[i[comps[nu]]][cs.dd_in_em]
                  for nu in range(dim))
    jn = sum(d.nhat[:, :, nu] * d.face_minus(j_tot[nu]) for nu in range(dim))
    out = {}
    for idx, ct in enumerate(cs.contacts):
        mask = d.face_expand(cs.contact_idx == idx)
        if not np.any(mask):
            raise PhysicsError(f"contact {ct.name!r} matches no electrode face")
        out[ct.name] = _face_integral(d, jn, mask)
    return out


def run_coupled(cs, schedule, probes=None, log=None):
    """March the coupled system to t_end, recording probes at sync points."""
    if probes is not None:
        probes.validate(cs.em.disc)
    em_state = cs.em.zero_state()
    dd_state = np.zeros((2, cs.dd.disc.K, cs.dd.disc.Np))
    t = 0.0
    if probes is not None:
        probes.record(cs, em_state, dd_state, t)
    n_macro = int(round(schedule.t_end / schedule.dt_dd))
    for k in range(n_macro):
        em_state, dd_state, t = multirate_advance(cs, em_state, dd_state, t,
                                                  schedule, log=log)
        if probes is not None and (k + 1) % probes.cadence == 0:
            probes.record(cs, em_state, dd_state, t)
    return em_state, dd_state, t
