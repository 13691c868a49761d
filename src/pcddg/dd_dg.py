"""Semi-discrete local-DG drift-diffusion solver for the transient electron
and hole densities: alternating LDG diffusion fluxes, local Lax-Friedrichs
drift fluxes, Dirichlet contacts and zero-total-flux Robin walls.

The transient continuity equations solved here, for carrier c with physical
drift velocity v_c (electrons v = -mu_e E, holes v = +mu_h E):

    dn_c/dt = -div(v_c n_c) + div(d_c grad n_c) - div(v_c^t n_c^s) - (R^t - G)

with mobilities and diffusivities frozen at the stationary field E^s.
"""

import numpy as np

from . import physics as ph
from .physics import PhysicsError
from .mesh import BOUNDARY_TAGS

_DIRICHLET_TAGS = {"ELECTRODE_D"}
_COLUMN_ATTRS = ("n_i", "tau_e", "tau_h", "n_e1", "n_h1",
                 "mu_e0", "mu_h0", "v_sat_e", "v_sat_h", "beta_e", "beta_h")


def ldg_diffusion_fluxes(n_minus, n_plus, dq_minus, dq_plus, nhat, beta_sign):
    """Alternating LDG fluxes: scalar upwinds along beta, vector against it.

    dq_minus/dq_plus are normal components n_hat . (d q).  Returns
    {'n_star', 'dq_star'} with n* = {n} + 0.5 s [[n]] and
    n_hat.(dq)* = {n_hat.dq} - 0.5 s [[n_hat.dq]], s = sign(beta.n_hat).
    """
    s = np.asarray(beta_sign, dtype=float)
    n_star = 0.5 * (n_minus + n_plus) + 0.5 * s * (n_minus - n_plus)
    dq_star = 0.5 * (dq_minus + dq_plus) - 0.5 * s * (dq_minus - dq_plus)
    return {"n_star": n_star, "dq_star": dq_star}


def lax_friedrichs_flux(v_minus_n, v_plus_n, n_minus, n_plus):
    """Local Lax-Friedrichs normal flux for div(v n).

    v_minus_n/v_plus_n are n_hat . v traces; returns n_hat . (vn)* =
    {n_hat.vn} + alpha (n^- - n^+), alpha = max(|n_hat.v^-|, |n_hat.v^+|)/2.
    """
    alpha = 0.5 * np.maximum(np.abs(v_minus_n), np.abs(v_plus_n))
    return 0.5 * (v_minus_n * n_minus + v_plus_n * n_plus) \
        + alpha * (n_minus - n_plus)


def build_drift_velocity(e_s, e_t, mu_c, carrier):
    """Nodal drift velocity for the unknown transient density and the
    velocity of the known stationary-density advective source.

    e_s, e_t: field components, tuple of (K, Np) arrays (e_t may be None).
    Electrons move against the field, holes along it.
    """
    if carrier == "e":
        sgn = -1.0
    elif carrier == "h":
        sgn = +1.0
    else:
        raise PhysicsError(f"carrier must be 'e' or 'h', got {carrier!r}")
    dim = len(e_s)
    if e_t is None:
        e_t = tuple(np.zeros_like(c) for c in e_s)
    v = tuple(sgn * mu_c * (e_s[d] + e_t[d]) for d in range(dim))
    v_src = tuple(sgn * mu_c * e_t[d] for d in range(dim))
    return {"v": v, "v_src": v_src}


class DDSolver:
    """Drift-diffusion rhs evaluation on a (semiconductor) Discretization.

    Faces tagged ELECTRODE_D are Dirichlet contacts (transient density f_D,
    default 0); every other boundary tag is a zero-total-flux Robin wall.
    """

    def __init__(self, disc, materials, dirichlet=None):
        self.disc = disc
        self.materials = materials
        self.dirichlet = dirichlet        # callable (x, t) -> f_D or None
        mesh = disc.mesh
        self.mats = [materials.region(mesh.region_names[mesh.region_id[k]])
                     for k in disc.elems]
        for k, m in enumerate(self.mats):
            if not m.semiconductor:
                raise PhysicsError(
                    f"element {disc.elems[k]} ({m.name}) is not a semiconductor; "
                    "restrict the DD subdomain")
        # per-element (K, 1) columns of the SRH and mobility parameters,
        # named as on Material so that the physics functions take self
        for attr in _COLUMN_ATTRS:
            setattr(self, attr,
                    np.array([getattr(m, attr) for m in self.mats])[:, None])

        tagnames = np.where(disc.face_tag >= 0,
                            np.array(BOUNDARY_TAGS, dtype=object)[disc.face_tag], "")
        self.dir_mask = disc.face_expand(np.isin(tagnames, list(_DIRICHLET_TAGS)))
        self.rob_mask = disc.face_expand((tagnames != "")
                                         & ~np.isin(tagnames, list(_DIRICHLET_TAGS)))
        self.bs = disc.face_expand(disc.beta_sign)
        # optional interior-penalty stabilization of Dirichlet faces; the
        # transient equations are well posed without it, but the stationary
        # solves need it to pin the boundary modes
        self.dir_penalty = None           # (K, Nfaces*Nfp) or None
        self._xface = disc.x.reshape(-1, disc.ref.dim)[disc.vmapM]

        # stationary background (zero until set_stationary)
        dim = disc.ref.dim
        zeros = np.zeros((disc.K, disc.Np))
        self.e_s = tuple(zeros.copy() for _ in range(dim))
        self.n_e_s = zeros.copy()
        self.n_h_s = zeros.copy()
        self._freeze_background()

    def _freeze_background(self):
        """Mobilities, diffusivities and R(n^s) of the stationary state."""
        e_mag = np.sqrt(sum(c * c for c in self.e_s))
        v_t = self.materials.v_t
        self.mu_e = ph.parallel_field_mobility(e_mag, "e", self)
        self.mu_h = ph.parallel_field_mobility(e_mag, "h", self)
        self.d_e = ph.einstein_diffusivity(self.mu_e, v_t)
        self.d_h = ph.einstein_diffusivity(self.mu_h, v_t)
        self._r_s = ph.srh_recombination(self.n_e_s, self.n_h_s, self)

    def set_stationary(self, e_s, n_e_s, n_h_s):
        """Freeze the stationary field and densities; recompute mu_c, d_c
        and R(n^s)."""
        self.e_s = tuple(np.asarray(c, dtype=float) for c in e_s)
        self.n_e_s = np.asarray(n_e_s, dtype=float)
        self.n_h_s = np.asarray(n_h_s, dtype=float)
        if np.any(self.n_e_s < 0) or np.any(self.n_h_s < 0):
            raise PhysicsError("stationary densities must be nonnegative")
        self._freeze_background()

    # -- boundary data ---------------------------------------------------
    def _dirichlet_values(self, t, override=None):
        fn = override if override is not None else self.dirichlet
        if fn is None:
            return np.zeros_like(self.bs)
        out = np.zeros_like(self.bs)
        m = self.dir_mask
        pts = self._xface[m]
        out[m] = fn(pts, t)
        return out

    # -- kernels ---------------------------------------------------------
    def gradient(self, n, t=0.0, f_d=None):
        """auxiliary q = grad n with LDG fluxes; exact for degree <= p."""
        d = self.disc
        nm = d.face_minus(n)
        np_ = d.face_plus(n)
        flux = ldg_diffusion_fluxes(nm, np_, nm, np_, d.nhat, self.bs)
        n_star = flux["n_star"]
        fd = self._dirichlet_values(t, f_d)
        n_star = np.where(self.dir_mask, fd, n_star)
        n_star = np.where(self.rob_mask, nm, n_star)
        corr = n_star - nm
        return tuple(d.ddx(n, nu) + d.lift(d.nhat[:, :, nu] * corr)
                     for nu in range(d.ref.dim))

    def scalar_rhs(self, n, v, d_nod, t=0.0, v_src=None, n_src=None,
                   f_d=None, source=None):
        """rhs of dn/dt = -div(vn) + div(d grad n) - div(v_src n_src) + source."""
        d = self.disc
        dim = d.ref.dim
        nhat = [d.nhat[:, :, nu] for nu in range(dim)]

        def normal_trace(comp):
            m = sum(nhat[nu] * d.face_minus(comp[nu]) for nu in range(dim))
            p = sum(nhat[nu] * d.face_plus(comp[nu]) for nu in range(dim))
            return m, p

        # diffusion
        q = self.gradient(n, t, f_d)
        dq = tuple(d_nod * q[nu] for nu in range(dim))
        dqm, dqp = normal_trace(dq)
        flux = ldg_diffusion_fluxes(d.face_minus(n), d.face_plus(n),
                                    dqm, dqp, d.nhat, self.bs)
        f_diff = flux["dq_star"]
        fd_pen = self._dirichlet_values(t, f_d)
        dir_flux = dqm if self.dir_penalty is None \
            else dqm + self.dir_penalty * (fd_pen - d.face_minus(n))
        f_diff = np.where(self.dir_mask, dir_flux, f_diff)
        div_d = sum(d.ddx(dq[nu], nu) for nu in range(dim))

        # advection of the unknown
        nm, np_ = d.face_minus(n), d.face_plus(n)
        vm, vp = normal_trace(v)
        f_adv = lax_friedrichs_flux(vm, vp, nm, np_)
        fd = self._dirichlet_values(t, f_d)
        f_adv = np.where(self.dir_mask, vm * fd, f_adv)
        adv_minus = vm * nm
        div_v = sum(d.ddx(v[nu] * n, nu) for nu in range(dim))

        # advective source with the known density
        if v_src is not None:
            sm, sp = normal_trace(v_src)
            nsm, nsp = d.face_minus(n_src), d.face_plus(n_src)
            f_src = lax_friedrichs_flux(sm, sp, nsm, nsp)
            f_src = np.where(self.dir_mask, sm * nsm, f_src)
            src_minus = sm * nsm
            div_s = sum(d.ddx(v_src[nu] * n_src, nu) for nu in range(dim))
        else:
            f_src = src_minus = np.zeros_like(f_adv)
            div_s = 0.0

        # Robin walls: the *total* transient flux vanishes; the stars are not
        # assigned independently
        f_diff = np.where(self.rob_mask, 0.0, f_diff)
        f_adv = np.where(self.rob_mask, 0.0, f_adv)
        f_src = np.where(self.rob_mask, 0.0, f_src)

        rhs = (-div_v - d.lift(f_adv - adv_minus)
               + div_d + d.lift(f_diff - dqm)
               - div_s - d.lift(f_src - src_minus))
        if source is not None:
            rhs = rhs + source
        return rhs

    def transient_recombination(self, n_e_t, n_h_t):
        """R^t = R(n^s + n^t) - R(n^s) with the SRH form; R(n^s) is
        computed once per stationary state."""
        return ph.srh_recombination(self.n_e_s + n_e_t, self.n_h_s + n_h_t,
                                    self) - self._r_s

    def carrier_rhs(self, state, g=None, t=0.0, e_t=None):
        """Full rhs for state = (n_e^t, n_h^t), shape (2, K, Np)."""
        n_e, n_h = state[0], state[1]
        r_t = self.transient_recombination(n_e, n_h)
        if g is not None:
            r_t = r_t - g
        out = np.empty_like(state)
        for i, (carrier, mu, dc, ns) in enumerate(
                (("e", self.mu_e, self.d_e, self.n_e_s),
                 ("h", self.mu_h, self.d_h, self.n_h_s))):
            drift = build_drift_velocity(self.e_s, e_t, mu, carrier)
            has_t = e_t is not None and any(np.any(c) for c in drift["v_src"])
            out[i] = self.scalar_rhs(
                state[i], drift["v"], dc, t,
                v_src=drift["v_src"] if has_t else None,
                n_src=ns if has_t else None) - r_t
        return out

    def total_carriers(self, state):
        return (self.disc.integrate(state[0]), self.disc.integrate(state[1]))

