"""Semi-discrete nodal-DG Maxwell solver: 1D (Ex, Hz along y) and 2D TE_z
(Ex, Ey, Hz), upwind fluxes, PEC/ABC boundaries, uniaxial PML via auxiliary
D/B fields, Drude metals via an auxiliary current ODE, and the optical
aperture source."""

from dataclasses import dataclass, field

import numpy as np

from . import physics as ph
from .mesh import BOUNDARY_TAGS, INTERIOR
from .physics import EPS0, MU0, PhysicsError

# state component layout
COMP_1D = ("ex", "hz", "dx", "bz", "jpx")
COMP_2D = ("ex", "ey", "hz", "dx", "dy", "bz", "jpx", "jpy")

_PEC_LIKE = {"PEC", "ELECTRODE_D", "SOURCE_APERTURE"}
_ABC_LIKE = {"ABC", "PML_interface"}


def drude_ade_rhs(e, j_p, mat):
    """dJ_p/dt = eps0 wp^2 E - gamma J_p."""
    co = ph.drude_coefficients(mat)
    return EPS0 * mat.drude.omega_p ** 2 * np.asarray(e) - co["gamma"] * np.asarray(j_p)


@dataclass
class PmlSpec:
    """Polynomial-graded uniaxial PML attached to selected domain sides."""
    thickness: dict              # side in {xlo,xhi,ylo,yhi} -> depth (m)
    order: int = 3
    r_target: float = 1e-8      # normal-incidence reflection design target

    def __post_init__(self):
        for side, d in self.thickness.items():
            if side not in ("xlo", "xhi", "ylo", "yhi"):
                raise PhysicsError(f"unknown PML side {side!r}")
            if d < 0:
                raise PhysicsError("PML thickness must be nonnegative")


def _pml_sigma_profiles(disc, pml):
    """Nodal damping rates sigma_x/eps0 and sigma_y/eps0, zero outside layers."""
    dim = disc.ref.dim
    sx = np.zeros((disc.K, disc.Np))
    sy = np.zeros((disc.K, disc.Np))
    if pml is None:
        return sx, sy
    lo = disc.mesh.vertices.min(axis=0)
    hi = disc.mesh.vertices.max(axis=0)
    for side, d in pml.thickness.items():
        if d == 0:
            continue
        axis = 0 if side[0] == "x" else 1
        if dim == 1 and axis == 0:
            raise PhysicsError("1D meshes only carry y-direction PML sides "
                               "(use ylo/yhi)")
        coord = disc.x[:, :, 0] if dim == 1 else disc.x[:, :, axis]
        if side.endswith("lo"):
            depth = (lo[0 if dim == 1 else axis] + d) - coord
        else:
            depth = coord - (hi[0 if dim == 1 else axis] - d)
        depth = np.clip(depth, 0.0, d)
        smax = -(pml.order + 1) * np.log(pml.r_target) * ph.C0 / (2.0 * d)
        prof = smax * (depth / d) ** pml.order
        if dim == 1 or axis == 1:
            sy += prof
        else:
            sx += prof
    return sx, sy


class MaxwellSolver:
    """Maxwell rhs evaluation on a Discretization with per-region materials.

    State is a (ncomp, K, Np) array in the order of COMP_1D / COMP_2D: the
    fields (E components, then Hz), their PML auxiliaries (D components,
    then Bz) and the Drude currents (one per E component).
    rhs(state, t, j_carrier) returns the same shape.

    Everything the rhs needs besides the state is built here as a
    contiguous array, so that each elementwise op runs one flat loop:

    - face coefficients, (K, Nfaces*Nfp), in jump form with fscale and the
      impedances folded in.  With [[u]] = u^- - g u^+ and w = n x [[E]]
      (its z component), fscale (H* - H^-) = cb (w - Z^+ [[H]]) and
      fscale n x (E^- - E*) = ca (Y^+ w - [[H]]), where
      cb = fscale / (Z^- + Z^+) and ca = fscale / (Y^- + Y^+).  The lifted
      flux of every D/B row is _lift_w * w - _lift_h * [[H]];
    - ghost multipliers g, (nfield, K, Nfaces*Nfp): 1 on interior faces,
      -1 for E and +1 for H on PEC-like faces, 0 on ABC-like faces;
    - the curl terms (metric factor per reference direction), 1/eps, 1/mu,
      the PML rates and the Drude coefficients, each (K, Np) or stacked
      per component.

    Workspace ownership: the trace, jump, flux, derivative and current
    buffers belong to the solver and are overwritten by every rhs call, so
    one solver evaluates one rhs at a time.  The array rhs returns is
    allocated fresh on each call and aliases no workspace; callers may keep
    or modify it.  The sigma=0 PML path is the plain Maxwell path, so runs
    without PML and with zero-conductivity PML are bitwise identical.
    """

    def __init__(self, disc, materials, source=None, pml=None):
        self.disc = disc
        self.materials = materials
        self.source = source
        dim = disc.ref.dim
        K, Np, nfp = disc.K, disc.Np, disc.nfp_tot
        self.comp = COMP_1D if dim == 1 else COMP_2D
        self.idx = {c: i for i, c in enumerate(self.comp)}
        nf = dim + 1                    # field components: E..., Hz

        mesh = disc.mesh
        mats = [materials.region(mesh.region_names[mesh.region_id[k]])
                for k in disc.elems]
        eps_r = np.array([m.drude.eps_inf if m.drude else m.eps_r for m in mats])
        mu_r = np.array([m.mu_r for m in mats])
        if not (np.all(eps_r > 0) and np.all(mu_r > 0)):
            raise PhysicsError("wave impedance must be positive")
        self.eps = (eps_r * EPS0)[:, None]
        self.mu = (mu_r * MU0)[:, None]

        def nodal(per_elem):
            return np.repeat(np.asarray(per_elem, dtype=float)[:, None], Np, axis=1)

        # face coefficients in jump form
        z_elem = np.sqrt(self.mu[:, 0] / self.eps[:, 0])
        zm = z_elem[:, None]
        zp = z_elem[disc.vmapP // Np]
        ca = disc.fscale / (1.0 / zm + 1.0 / zp)
        cb = disc.fscale / (zm + zp)
        # D rows take t_e * fscale (H* - H^-), with w = -sum_e t_e [[E_e]]
        tang = [disc.nhat[:, :, dim - 1]]
        if dim == 2:
            tang.append(-disc.nhat[:, :, 0])
        self._w_coef = -np.array(tang)
        self._lift_w = np.array([t * cb for t in tang] + [ca / zp])
        self._lift_h = np.array([t * cb * zp for t in tang] + [ca])

        pec = np.isin(disc.face_tag, [BOUNDARY_TAGS.index(t) for t in _PEC_LIKE])
        abc = np.isin(disc.face_tag, [BOUNDARY_TAGS.index(t) for t in _ABC_LIKE])
        other = (disc.face_tag != INTERIOR) & ~pec & ~abc
        if np.any(other):
            k, f = np.argwhere(other)[0]
            raise PhysicsError("no EM boundary rule for tag "
                               f"{BOUNDARY_TAGS[disc.face_tag[k, f]]!r}")
        ghost_e = disc.face_expand(np.where(pec, -1.0, np.where(abc, 0.0, 1.0)))
        ghost_h = disc.face_expand(np.where(abc, 0.0, 1.0))
        self._ghost = np.array([ghost_e] * dim + [ghost_h])

        # curl terms (row of dD/dt, dB/dt; field; reference direction;
        # metric factor): the 1D mesh coordinate is y
        metric = disc.metric
        terms = []
        for d in range(dim):
            dy = nodal(metric[:, dim - 1, d])
            terms += [(0, nf - 1, d, dy), (nf - 1, 0, d, dy)]
            if dim == 2:
                minus_dx = nodal(-metric[:, 0, d])
                terms += [(1, nf - 1, d, minus_dx), (nf - 1, 1, d, minus_dx)]
        self._curl_terms = terms
        self._diff_t = [np.ascontiguousarray(dr.T) for dr in disc.ref.diff]
        self._lift_t = np.ascontiguousarray(disc.ref.lift_ref.T)

        # PML: D_x, B_z decay with sigma_y and D_y with sigma_x; E_e is
        # restored with its own sigma; Hz decays with sigma_x
        sx, sy = _pml_sigma_profiles(disc, pml)
        zero = np.zeros((K, Np))
        if dim == 1:
            self._sig_aux = np.array([sy, sy])
            self._sig_field = np.array([sx, zero])
            self._sig_h = np.array([zero, sx])
        else:
            self._sig_aux = np.array([sy, sx, sy])
            self._sig_field = np.array([sx, sy, zero])
            self._sig_h = np.array([zero, zero, sx])
        self._inv_em = np.array([nodal(1.0 / self.eps[:, 0])] * dim
                                + [nodal(1.0 / self.mu[:, 0])])
        self._drude_a = nodal([EPS0 * m.drude.omega_p ** 2 if m.drude else 0.0
                               for m in mats])
        self._drude_g = nodal([m.drude.gamma if m.drude else 0.0 for m in mats])

        self._src_profile = None
        self._src_amp = 0.0
        if source is not None:
            self._build_source(source)

        # gather indices of both traces of every field into the flat state,
        # and the workspaces every rhs call overwrites
        n = K * Np
        self._gather = np.array([[c * n + vmap for c in range(nf)]
                                 for vmap in (disc.vmapM, disc.vmapP)])
        self._trace_buf = np.empty((2, nf, K, nfp))
        self._jump = np.empty((nf, K, nfp))
        self._w = np.empty((K, nfp))
        self._flux = np.empty((nf, K, nfp))
        self._ref_grad = np.empty((dim, nf, K, Np))
        self._vol = np.empty((K, Np))
        self._cur = np.empty((dim, K, Np))
        self._tmp = np.empty((nf, K, Np))

    # -- source ----------------------------------------------------------
    def _build_source(self, spec):
        disc = self.disc
        mask = disc.tag_face_mask("SOURCE_APERTURE")
        if not np.any(mask):
            raise PhysicsError("optical source requested but no face is tagged "
                               "SOURCE_APERTURE")
        xf = disc.x.reshape(-1, disc.ref.dim)[disc.vmapM]
        pts = xf[mask]
        center = pts.mean(axis=0)
        if disc.ref.dim == 2:
            span = pts - center
            # aperture tangent from the dominant spread direction
            _, _, vt = np.linalg.svd(span - span.mean(axis=0), full_matrices=False)
            that = vt[0]
            xi = (disc.x[:, :, :] - center) @ that
            nrm = np.array([-that[1], that[0]])
            zeta = (disc.x[:, :, :] - center) @ nrm
        else:
            xi = np.zeros((disc.K, disc.Np))
            zeta = disc.x[:, :, 0] - center[0]
        ksel = np.unique(np.nonzero(mask)[0])
        depth = 0.5 * float(np.mean(disc.h_elem[ksel]))
        prof = np.exp(-(xi / spec.beam_width) ** 2) * \
            np.exp(-(zeta / depth) ** 2) / (depth * np.sqrt(np.pi))
        # keep the footprint local to the aperture neighborhood
        prof[np.abs(zeta) > 4 * depth] = 0.0
        self._src_profile = prof
        z_ap = float(np.sqrt(self.mu[ksel, 0].mean() / self.eps[ksel, 0].mean()))
        if spec.peak_field is not None:
            sheet = 2.0 * spec.peak_field / z_ap
        else:
            # peak power through the aperture; sheet radiates S = Z K^2/4 per
            # side over an effective depth equal to the beam width
            p_lin = spec.power / spec.beam_width
            sheet = np.sqrt(4.0 * p_lin / (z_ap * spec.beam_width * np.sqrt(np.pi / 2.0)))
        self._src_amp = sheet
        self._src_spec = spec
        pol = getattr(spec, "polarization", "x")
        self._src_row = 1 if pol == "y" and disc.ref.dim == 2 else 0

    def _src_scale(self, t):
        return self._src_amp * self._src_spec.envelope(t)

    def optical_source(self, t):
        """Nodal source current density at time t (component along polarization)."""
        if self._src_profile is None:
            return None
        return self._src_scale(t) * self._src_profile

    # -- state helpers ---------------------------------------------------
    def zero_state(self):
        return np.zeros((len(self.comp), self.disc.K, self.disc.Np))

    def energy(self, state):
        """Discrete EM energy 0.5 int (eps E^2 + mu H^2)."""
        d = self.disc
        i = self.idx
        u = self.eps * state[i["ex"]] ** 2 + self.mu * state[i["hz"]] ** 2
        if "ey" in i:
            u = u + self.eps * state[i["ey"]] ** 2
        return 0.5 * d.integrate(u)

    # -- rhs -------------------------------------------------------------
    def rhs(self, state, t=0.0, j_carrier=None):
        """d(state)/dt at time t; j_carrier holds the carrier current
        density per E component ((K, Np) arrays, None to skip one).
        Returns a fresh array; see the class docstring for workspaces."""
        d = self.disc
        dim = d.ref.dim
        nf = dim + 1
        K, Np, nfp = d.K, d.Np, d.nfp_tot
        state = np.ascontiguousarray(state, dtype=float)
        out = np.empty_like(state)
        fields, aux, drude = state[:nf], state[nf:2 * nf], state[2 * nf:]
        r_field, r_aux, r_drude = out[:nf], out[nf:2 * nf], out[2 * nf:]

        # upwind fluxes from one gather of both traces of every field
        tr, jump, w = self._trace_buf, self._jump, self._w
        np.take(state.reshape(-1), self._gather, out=tr, mode="clip")
        np.multiply(tr[1], self._ghost, out=tr[1])
        np.subtract(tr[0], tr[1], out=jump)
        # the traces are spent: tr[0] and tr[1] serve as scratch below
        np.multiply(self._w_coef, jump[:dim], out=tr[0, :dim])
        np.add.reduce(tr[0, :dim], axis=0, out=w)
        flux = self._flux
        np.multiply(self._lift_w, w, out=flux)
        np.multiply(self._lift_h, jump[dim], out=tr[1])
        flux -= tr[1]
        np.matmul(flux.reshape(nf * K, nfp), self._lift_t,
                  out=r_aux.reshape(nf * K, Np))

        # curl from one matmul per reference direction
        grad, vol = self._ref_grad, self._vol
        for r, diff_t in enumerate(self._diff_t):
            np.matmul(fields.reshape(nf * K, Np), diff_t,
                      out=grad[r].reshape(nf * K, Np))
        for row, comp, r, coef in self._curl_terms:
            np.multiply(coef, grad[r, comp], out=vol)
            r_aux[row] += vol

        # Drude, optical source and carrier currents
        cur = self._cur
        np.copyto(cur, drude)
        if self._src_profile is not None:
            np.multiply(self._src_profile, self._src_scale(t), out=vol)
            cur[self._src_row] += vol
        if j_carrier is not None:
            for e, jc in enumerate(j_carrier[:dim]):
                if jc is not None:
                    cur[e] += jc
        r_aux[:dim] -= cur

        # PML damping, then E = D / eps and H = B / mu
        tmp = self._tmp
        np.multiply(self._sig_aux, aux, out=tmp)
        r_aux -= tmp
        np.multiply(self._sig_field, aux, out=tmp)
        tmp += r_aux
        np.multiply(tmp, self._inv_em, out=r_field)
        np.multiply(self._sig_h, fields, out=tmp)
        r_field -= tmp

        np.multiply(self._drude_a, fields[:dim], out=r_drude)
        np.multiply(self._drude_g, drude, out=cur)
        r_drude -= cur
        return out
