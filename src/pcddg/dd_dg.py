"""Semi-discrete local-DG drift-diffusion solver for the transient electron
and hole densities: the shared LDG diffusion kernel (dgops.LDGDiffusion),
local Lax-Friedrichs drift fluxes, Dirichlet contacts and zero-total-flux
Robin walls.

The transient continuity equations solved here, for carrier c with physical
drift velocity v_c (electrons v = -mu_e E, holes v = +mu_h E):

    dn_c/dt = -div(v_c n_c) + div(d_c grad n_c) - div(v_c^t n_c^s) - (R^t - G)

with mobilities and diffusivities frozen at the stationary field E^s.
"""

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import physics as ph
from .dgops import LDGDiffusion, assemble_affine_operator
from .physics import PhysicsError

_SRH_ATTRS = ("n_i", "tau_e", "tau_h", "n_e1", "n_h1")
_MOBILITY_ATTRS = ("mu_e0", "mu_h0", "v_sat_e", "v_sat_h", "beta_e", "beta_h")


def lax_friedrichs_flux(v_minus_n, v_plus_n, n_minus, n_plus):
    """Local Lax-Friedrichs normal flux for div(v n).

    v_minus_n/v_plus_n are n_hat . v traces; returns n_hat . (vn)* =
    {n_hat.vn} + alpha (n^- - n^+), alpha = max(|n_hat.v^-|, |n_hat.v^+|)/2.
    """
    alpha = 0.5 * np.maximum(np.abs(v_minus_n), np.abs(v_plus_n))
    return 0.5 * (v_minus_n * n_minus + v_plus_n * n_plus) \
        + alpha * (n_minus - n_plus)


class StepTerms(NamedTuple):
    """What DDSolver.step_terms freezes for one DD macro step."""
    v: tuple            # drift velocity components, each (2, K, Np)
    v_traces: tuple     # (n.v^-, n.v^+), each (2, K, Nfaces*Nfp)
    source: object      # -div(v^t n^s), (2, K, Np); 0.0 without E^t
    gain: np.ndarray    # G + R(n^s), (K, Np)


class _Background(NamedTuple):
    """What DDSolver._transient_background builds per stationary state."""
    matrix: object      # sparse block-diagonal diffusion of (n_e, n_h)
    mu: np.ndarray      # (-mu_e, mu_h), (2, K, Np)
    v: tuple            # E^s drift velocity components, each (2, K, Np)
    v_traces: tuple     # their (n.v^-, n.v^+)
    n_s: np.ndarray     # (n_e^s, n_h^s)
    n_s_traces: tuple   # their (n^-, n^+)
    lu: tuple = None    # (c, splu of I - c matrix), set by diffusion_solve


class DDSolver(LDGDiffusion):
    """Drift-diffusion rhs evaluation on a (semiconductor) Discretization.

    Diffusion is the shared LDG kernel this class extends.  Faces tagged
    ELECTRODE_D are Dirichlet contacts; every other boundary tag is a
    zero-total-flux Robin wall (the kernel's Neumann mask).  Dirichlet data
    is a (K, Nfaces*Nfp) face array passed per call (default 0, the
    transient density at a contact), and so is the Dirichlet penalty of the
    diffusion flux: the stationary continuity solves pass one, the
    transient passes none.

    The transient rhs is evaluated at the cadence of its inputs: the
    diffusion matrix and the stacked stationary terms once per stationary
    state (on first use), the drift velocities, the advective source and
    G + R(n^s) once per macro step (step_terms), and both carriers at once
    per stage (carrier_rhs).  The IMEX DD step takes the diffusion matrix
    implicitly, through one factorization per stationary state and step
    (diffusion_solve), and the rest explicitly (carrier_rhs).
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
        # the SRH and mobility parameters, named as on Material so that the
        # physics functions take self: per-element (K, 1) columns, and the
        # SRH ones, which every rhs stage reads, repeated per node (K, Np)
        for attr in _SRH_ATTRS + _MOBILITY_ATTRS:
            col = np.array([getattr(m, attr) for m in self.mats])[self.mat_idx]
            setattr(self, attr, np.repeat(col[:, None], disc.Np, axis=1)
                    if attr in _SRH_ATTRS else col[:, None])

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
        self._background = None

    def set_stationary(self, e_s, n_e_s, n_h_s):
        """Freeze the stationary field and densities; recompute mu_c, d_c,
        the drift velocities v_c = -+mu_c E^s and R(n^s), and drop what the
        transient built from the previous state."""
        self.e_s = tuple(np.asarray(c, dtype=float) for c in e_s)
        self.n_e_s = np.asarray(n_e_s, dtype=float)
        self.n_h_s = np.asarray(n_h_s, dtype=float)
        if np.any(self.n_e_s < 0) or np.any(self.n_h_s < 0):
            raise PhysicsError("stationary densities must be nonnegative")
        self._freeze_background()

    # -- kernels ---------------------------------------------------------
    def drift(self, n, v, v_traces, f_d=0.0, traces=None):
        """-div(v n) with the local Lax-Friedrichs flux on interior faces,
        (n.v) f_d on Dirichlet faces and no flux through Robin walls, for
        given normal traces (n.v^-, n.v^+) of v; n is one carrier (K, Np) or
        both stacked (2, K, Np), with v and f_d to match."""
        d = self.disc
        vm, vp = v_traces
        nm, np_ = self.traces(n) if traces is None else traces
        f_adv = lax_friedrichs_flux(vm, vp, nm, np_)
        f_adv = np.where(self.dir_mask, vm * f_d, f_adv)
        # Robin walls: the *total* transient flux vanishes
        f_adv = np.where(self.neu_mask, 0.0, f_adv)
        div_v = sum(d.ddx(c * n, nu) for nu, c in enumerate(v))
        return -div_v - d.lift(f_adv - vm * nm)

    def scalar_rhs(self, n, v, d_nod, *, f_d=0.0, penalty=None):
        """rhs of dn/dt = -div(vn) + div(d grad n), with Dirichlet face
        values f_d and the diffusion-flux penalty on Dirichlet faces (None:
        none)."""
        traces = self.traces(n)
        div_d, lift_d = self.diffusion(n, d_nod, f_d, penalty, traces)
        return self.drift(n, v, self.normal_traces(v), f_d, traces) \
            + div_d + lift_d

    def _transient_background(self):
        """What the transient rhs takes from the stationary state, stacked
        over (e, h) and built on first use after set_stationary: the
        block-diagonal diffusion matrix, probed from the diffusion kernel
        (Dirichlet data 0 and no penalty make it linear and constant), the
        signed mobilities (-mu_e, mu_h), the E^s drift velocities with
        their normal traces, and n^s with its traces."""
        if self._background is None:
            blocks = []
            for dc in (self.d_e, self.d_h):
                def apply_fn(n, dc=dc):
                    volume, surface = self.diffusion(n, dc)
                    return volume + surface
                blocks.append(assemble_affine_operator(apply_fn, self.disc))
            v = tuple(np.stack(c) for c in zip(self.v_e, self.v_h))
            n_s = np.stack([self.n_e_s, self.n_h_s])
            self._background = _Background(
                sp.block_diag(blocks, format="csr"),
                np.stack([-self.mu_e, self.mu_h]), v, self.normal_traces(v),
                n_s, self.traces(n_s))
        return self._background

    def step_terms(self, g=None, e_t=None):
        """The terms of carrier_rhs that stay fixed over a DD macro step of
        generation g and transient field E^t (None: zero): the stacked drift
        velocities v_c + v_c^t, v_c^t = -+mu_c E^t, with their normal
        traces; the advective source -div(v_c^t n_c^s); and G + R(n^s)."""
        bg = self._transient_background()
        v, v_traces, source = bg.v, bg.v_traces, 0.0
        if e_t is not None:
            v_t = tuple(bg.mu * c for c in e_t)
            t_traces = self.normal_traces(v_t)
            v = tuple(a + b for a, b in zip(v, v_t))
            v_traces = tuple(a + b for a, b in zip(v_traces, t_traces))
            # the known density's flux on a contact is its own trace
            source = self.drift(bg.n_s, v_t, t_traces, bg.n_s_traces[0],
                                bg.n_s_traces)
        gain = self._r_s if g is None else g + self._r_s
        return StepTerms(v, v_traces, source, gain)

    def carrier_rhs(self, state, terms):
        """The rhs of both carriers but for diffusion, state = (n_e^t, n_h^t)
        of shape (2, K, Np), in the macro step's terms (step_terms): drift
        in v_c + v_c^t, the advective source and
        R^t - G = R(n^s + n^t) - (G + R(n^s)), all in one pass.  It is the
        explicit part of the IMEX DD step; the diffusion matrix is its
        implicit part (diffusion_solve)."""
        bg = self._transient_background()
        n = bg.n_s + state
        r = ph.srh_recombination(n[0], n[1], self)
        return self.drift(state, terms.v, terms.v_traces) + terms.source \
            - (r - terms.gain)

    def diffusion_solve(self, c):
        """b -> (I - c M)^-1 b for the transient diffusion matrix M, b of
        shape (2, K, Np).  The sparse LU is built on first use and kept
        while the stationary state and c stay the same."""
        bg = self._transient_background()
        if bg.lu is None or bg.lu[0] != c:
            eye = sp.identity(bg.matrix.shape[0], format="csc")
            bg = self._background = bg._replace(
                lu=(c, spla.splu((eye - c * bg.matrix).tocsc())))
        lu = bg.lu[1]
        return lambda b: lu.solve(b.reshape(-1)).reshape(b.shape)

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
