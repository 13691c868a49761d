"""Semi-discrete local-DG drift-diffusion solver for the transient electron
and hole densities: the shared LDG diffusion kernel (dgops.LDGDiffusion),
local Lax-Friedrichs drift fluxes, Dirichlet contacts and zero-total-flux
Robin walls.

The transient continuity equations solved here, for carrier c with physical
drift velocity v_c (electrons v = -mu_e E, holes v = +mu_h E):

    dn_c/dt = -div(v_c n_c) + div(d_c grad n_c) - div(v_c^t n_c^s) - (R^t - G)

with mobilities and diffusivities frozen at the stationary field E^s.
"""

import numpy as np

from . import physics as ph
from .dgops import LDGDiffusion
from .physics import PhysicsError

_COLUMN_ATTRS = ("n_i", "tau_e", "tau_h", "n_e1", "n_h1",
                 "mu_e0", "mu_h0", "v_sat_e", "v_sat_h", "beta_e", "beta_h")


def lax_friedrichs_flux(v_minus_n, v_plus_n, n_minus, n_plus):
    """Local Lax-Friedrichs normal flux for div(v n).

    v_minus_n/v_plus_n are n_hat . v traces; returns n_hat . (vn)* =
    {n_hat.vn} + alpha (n^- - n^+), alpha = max(|n_hat.v^-|, |n_hat.v^+|)/2.
    """
    alpha = 0.5 * np.maximum(np.abs(v_minus_n), np.abs(v_plus_n))
    return 0.5 * (v_minus_n * n_minus + v_plus_n * n_plus) \
        + alpha * (n_minus - n_plus)


class DDSolver(LDGDiffusion):
    """Drift-diffusion rhs evaluation on a (semiconductor) Discretization.

    Diffusion is the shared LDG kernel this class extends.  Faces tagged
    ELECTRODE_D are Dirichlet contacts; every other boundary tag is a
    zero-total-flux Robin wall (the kernel's Neumann mask).  Dirichlet data
    is a (K, Nfaces*Nfp) face array passed per call (default 0, the
    transient density at a contact), and so is the Dirichlet penalty of the
    diffusion flux: the stationary continuity solves pass one, the
    transient passes none.
    """

    def __init__(self, disc, materials):
        super().__init__(disc)
        self.materials = materials
        # materials per region, and per element the index of its own
        self.mats, self.mat_idx = materials.element_materials(disc.mesh,
                                                              disc.elems)
        semi = np.array([m.semiconductor for m in self.mats])[self.mat_idx]
        if not np.all(semi):
            k = int(np.argmin(semi))
            raise PhysicsError(
                f"element {disc.elems[k]} ({self.mats[self.mat_idx[k]].name}) "
                "is not a semiconductor; restrict the DD subdomain")
        # per-element (K, 1) columns of the SRH and mobility parameters,
        # named as on Material so that the physics functions take self
        for attr in _COLUMN_ATTRS:
            setattr(self, attr, np.array([getattr(m, attr) for m in self.mats])
                    [self.mat_idx][:, None])

        # stationary background (zero until set_stationary)
        dim = disc.ref.dim
        zeros = np.zeros((disc.K, disc.Np))
        self.e_s = tuple(zeros.copy() for _ in range(dim))
        self.n_e_s = zeros.copy()
        self.n_h_s = zeros.copy()
        self._freeze_background()

    def _freeze_background(self):
        """Mobilities, diffusivities, E^s drift velocities and R(n^s) of the
        stationary state."""
        e_mag = np.sqrt(sum(c * c for c in self.e_s))
        v_t = self.materials.v_t
        self.mu_e = ph.parallel_field_mobility(e_mag, "e", self)
        self.mu_h = ph.parallel_field_mobility(e_mag, "h", self)
        self.d_e = ph.einstein_diffusivity(self.mu_e, v_t)
        self.d_h = ph.einstein_diffusivity(self.mu_h, v_t)
        self.v_e = tuple(-self.mu_e * c for c in self.e_s)
        self.v_h = tuple(self.mu_h * c for c in self.e_s)
        self._r_s = ph.srh_recombination(self.n_e_s, self.n_h_s, self)

    def set_stationary(self, e_s, n_e_s, n_h_s):
        """Freeze the stationary field and densities; recompute mu_c, d_c,
        the drift velocities v_c = -+mu_c E^s and R(n^s)."""
        self.e_s = tuple(np.asarray(c, dtype=float) for c in e_s)
        self.n_e_s = np.asarray(n_e_s, dtype=float)
        self.n_h_s = np.asarray(n_h_s, dtype=float)
        if np.any(self.n_e_s < 0) or np.any(self.n_h_s < 0):
            raise PhysicsError("stationary densities must be nonnegative")
        self._freeze_background()

    # -- kernels ---------------------------------------------------------
    def scalar_rhs(self, n, v, d_nod, *, f_d=0.0, penalty=None, v_src=None,
                   n_src=None):
        """rhs of dn/dt = -div(vn) + div(d grad n) - div(v_src n_src), with
        Dirichlet face values f_d and the diffusion-flux penalty on
        Dirichlet faces (None: none)."""
        d = self.disc
        nm, np_ = traces = self.traces(n)
        div_d, lift_d = self.diffusion(n, d_nod, f_d, penalty, traces)

        # advection of the unknown
        vm, vp = self.normal_traces(v)
        f_adv = lax_friedrichs_flux(vm, vp, nm, np_)
        f_adv = np.where(self.dir_mask, vm * f_d, f_adv)
        # Robin walls: the *total* transient flux vanishes
        f_adv = np.where(self.neu_mask, 0.0, f_adv)
        div_v = sum(d.ddx(c * n, nu) for nu, c in enumerate(v))
        rhs = -div_v - d.lift(f_adv - vm * nm) + div_d + lift_d
        if v_src is None:
            return rhs

        # advective source with the known density
        sm, sp = self.normal_traces(v_src)
        nsm, nsp = self.traces(n_src)
        f_src = lax_friedrichs_flux(sm, sp, nsm, nsp)
        f_src = np.where(self.dir_mask, sm * nsm, f_src)
        f_src = np.where(self.neu_mask, 0.0, f_src)
        div_s = sum(d.ddx(c * n_src, nu) for nu, c in enumerate(v_src))
        return rhs - div_s - d.lift(f_src - sm * nsm)

    def transient_recombination(self, n_e_t, n_h_t):
        """R^t = R(n^s + n^t) - R(n^s) with the SRH form; R(n^s) is
        computed once per stationary state."""
        return ph.srh_recombination(self.n_e_s + n_e_t, self.n_h_s + n_h_t,
                                    self) - self._r_s

    def carrier_rhs(self, state, g=None, e_t=None):
        """Full rhs for state = (n_e^t, n_h^t), shape (2, K, Np).  The drift
        velocity is v_c + v_c^t, v_c^t = -+mu_c E^t, and the advective
        source -div(v_c^t n_c^s) is present when E^t is given."""
        r_t = self.transient_recombination(state[0], state[1])
        if g is not None:
            r_t = r_t - g
        out = np.empty_like(state)
        for i, (sgn, mu, dc, v_s, ns) in enumerate(
                ((-1.0, self.mu_e, self.d_e, self.v_e, self.n_e_s),
                 (1.0, self.mu_h, self.d_h, self.v_h, self.n_h_s))):
            v, v_src = v_s, None
            if e_t is not None:
                v_src = tuple(sgn * mu * c for c in e_t)
                v = tuple(a + b for a, b in zip(v_s, v_src))
            out[i] = self.scalar_rhs(state[i], v, dc, v_src=v_src,
                                     n_src=ns) - r_t
        return out

    def conduction_current(self, n_e, n_h, e, f_e=0.0, f_h=0.0):
        """J = q(mu_e n_e E + d_e grad n_e) + q(mu_h n_h E - d_h grad n_h)
        per component of the field e, in the frozen mu_c and d_c; f_e and
        f_h are the gradients' Dirichlet data."""
        g_e = self.gradient(n_e, f_e)
        g_h = self.gradient(n_h, f_h)
        return tuple(ph.Q * (self.mu_e * n_e * e[nu] + self.d_e * g_e[nu])
                     + ph.Q * (self.mu_h * n_h * e[nu] - self.d_h * g_h[nu])
                     for nu in range(self.disc.ref.dim))

    def total_carriers(self, state):
        return (self.disc.integrate(state[0]), self.disc.integrate(state[1]))
