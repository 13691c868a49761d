"""Stationary Poisson / drift-diffusion solve by Gummel iteration.

Poisson and both carriers use one LDG diffusion kernel
(dgops.LDGDiffusion): Poisson is the kernel with coefficient eps on the
non-metal elements; the two continuity equations are the transient
carrier solver's LDG convection-diffusion rhs with the opposite carrier
lagged.  Dirichlet face values and the Dirichlet penalty are arguments of
each call: the stationary solves pass a penalty, the transient never does.
Sparse operators are assembled by probing these matrix-free kernels with
colored unit vectors (dgops.assemble_affine_operator), so the assembled
systems are exactly the kernels the transient solver runs.  The Poisson
matrix depends on eps, the mesh and the penalty only: each problem probes
it once, on first use, and a Newton-Poisson step forms only the offset of
its Dirichlet data and adds the charge derivative to the diagonal of a
copy of its CSC data (newton_jacobian).

The stationary state is (phi, n_e, n_h).  StationaryProblem._finalize is
the one place a StationarySolution is built: it derives E = -grad phi at
the contact potentials, the conduction current and the DD solver's
stationary state from the three arrays.  A checkpoint (format v3) stores
only those arrays per Poisson node, so a loaded solution is bitwise the
solved one, current included.
"""

import dataclasses
import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import output
from . import physics as ph
from .physics import PhysicsError, Q
from .dd_dg import DDSolver
from .dgops import (LDGDiffusion, assemble_affine_operator,
                    build_discretization)
from .mesh import TAG_INDEX
from .refelem import build_reference_element

_ANDERSON_DEPTH = 4      # iterates kept by the Gummel acceleration
_GUMMEL_TOL = 1e-6       # stop below this potential update, in V_T
_GUMMEL_MAX_ITER = 200   # Gummel sweeps per ramp stage
_RAMP_STEP = 10.0        # largest bias-ramp stage, in V_T
_NEWTON_MAX_ITER = 30    # Newton-Poisson steps per Gummel sweep
_NEWTON_CLAMP = 5.0      # largest Newton-Poisson step, in V_T
_PENALTY = 10.0          # Dirichlet penalty scale (LDGDiffusion.penalty)


class ConvergenceError(RuntimeError):
    """Stationary solver failed to converge; carries the iteration history."""

    def __init__(self, msg, history=None):
        super().__init__(msg)
        self.history = history or []


@dataclass
class Contact:
    name: str
    lo: np.ndarray
    hi: np.ndarray
    voltage: float


def face_centroids(disc):
    xf = disc.x.reshape(-1, disc.ref.dim)[disc.vmapM]
    xf = xf.reshape(disc.K, disc.ref.Nfaces, disc.ref.Nfp, -1)
    return xf.mean(axis=2)


def contact_face_index(disc, contacts):
    """(K, Nfaces) contact index for Dirichlet faces, -1 elsewhere.  Every
    electrode face must lie in a contact box, and every contact must hold
    an electrode face."""
    out = -np.ones((disc.K, disc.ref.Nfaces), dtype=int)
    cent = face_centroids(disc)
    dirf = disc.face_tag == TAG_INDEX["ELECTRODE_D"]
    for k, f in np.argwhere(dirf):
        c = cent[k, f]
        hit = [i for i, ct in enumerate(contacts)
               if np.all(ct.lo - 1e-12 <= c) and np.all(c <= ct.hi + 1e-12)]
        if not hit:
            raise PhysicsError(
                f"electrode face at {c} matches no declared contact")
        out[k, f] = hit[0]
    for i, ct in enumerate(contacts):
        if not np.any(out == i):
            raise PhysicsError(f"contact {ct.name!r} matches no electrode face")
    return out


@dataclass
class StationarySolution:
    """(phi, n_e, n_h) and what StationaryProblem._finalize derives from
    them."""
    phi: np.ndarray                  # (Kp, Np) on the Poisson subdomain
    e_s: tuple                       # field components, same layout
    n_e: np.ndarray                  # (Kd, Np) on the semiconductor subdomain
    n_h: np.ndarray
    j: tuple                         # conduction-current components (Kd, Np)
    gummel_history: list             # max|dphi|/V_T per sweep; [] if loaded


def solve_sparse(a, b):
    x = spla.spsolve(a.tocsc(), b)
    if not np.all(np.isfinite(x)):
        raise ConvergenceError("sparse solve produced non-finite values")
    return x


# ---------------------------------------------------------------------------

class StationaryProblem:
    """Two-subdomain stationary problem on a shared mesh.

    Poisson lives on every non-metal element; the continuity equations live
    on the semiconductor elements.  Metal-adjacent faces become Dirichlet
    contacts, semiconductor/dielectric interfaces become Robin walls.
    """

    def __init__(self, mesh, materials, contacts, p=2):
        self.mesh = mesh
        self.materials = materials
        self.contacts = contacts
        ref = build_reference_element(mesh.dim, p)
        mats, mat_idx = materials.element_materials(mesh)

        def per_elem(values, elems=slice(None)):
            return np.array(values)[mat_idx[elems]]

        is_metal = per_elem([m.drude is not None for m in mats])
        is_semi = per_elem([m.semiconductor for m in mats])
        if not np.any(is_semi):
            raise PhysicsError("stationary problem needs a semiconductor region")
        self.pdisc = build_discretization(
            mesh, ref, element_mask=~is_metal,
            cut_face_tag=lambda k, f, n: "ELECTRODE_D")
        self.ddisc = build_discretization(
            mesh, ref, element_mask=is_semi,
            cut_face_tag=lambda k, f, n:
                "ELECTRODE_D" if is_metal[n] else "INSULATOR_R")
        # semiconductor rows inside the Poisson subdomain
        p2s = {g: i for i, g in enumerate(self.pdisc.elems)}
        self.semi_in_p = np.array([p2s[g] for g in self.ddisc.elems])

        self.eps_p = per_elem([m.eps_r * ph.EPS0 for m in mats],
                              self.pdisc.elems)[:, None]
        self.doping = per_elem([m.doping for m in mats], self.ddisc.elems)[:, None]
        self.n_i = per_elem([m.n_i for m in mats], self.ddisc.elems)[:, None]
        self.dd = DDSolver(self.ddisc, materials)

        self._setup_poisson_bc()
        self._setup_dd_bc()

    # -- boundary plumbing ----------------------------------------------
    def _setup_poisson_bc(self):
        d = self.pdisc
        self.p_contact = contact_face_index(d, self.contacts)
        self.poisson = LDGDiffusion(d)
        if not np.any(self.poisson.dir_mask):
            raise PhysicsError("all-Neumann Poisson problem: no electrode "
                               "faces to gauge the potential")
        v_t = self.materials.v_t
        volt = np.zeros(d.face_tag.shape)
        built_in = np.zeros(d.face_tag.shape)
        g2d = {g: i for i, g in enumerate(self.ddisc.elems)}
        for k, f in np.argwhere(self.p_contact >= 0):
            volt[k, f] = self.contacts[self.p_contact[k, f]].voltage
            g = d.elems[k]
            if g in g2d:    # semiconductor contact: add the built-in offset
                kd = g2d[g]
                ne, _ = ph.ohmic_contact_densities(self.doping[kd, 0],
                                                   self.n_i[kd, 0])
                built_in[k, f] = v_t * np.log(ne / self.n_i[kd, 0])
        self._volt_face = d.face_expand(volt)
        self._built_in_face = d.face_expand(built_in)
        self.phi_dirichlet = self._volt_face + self._built_in_face
        self.tau = self.poisson.penalty(self.eps_p, _PENALTY)

    def _setup_dd_bc(self):
        d = self.ddisc
        self.d_contact = contact_face_index(d, self.contacts)
        ne_c, nh_c = ph.ohmic_contact_densities(self.doping, self.n_i)
        self.fd_ne = np.repeat(ne_c, d.nfp_tot, axis=1)
        self.fd_nh = np.repeat(nh_c, d.nfp_tot, axis=1)

    # -- Poisson ---------------------------------------------------------
    def poisson_apply(self, phi, dirichlet_vals=None):
        """Nodal values of -div(eps grad phi): the LDG kernel with penalty
        tau; dirichlet_vals defaults to the contact potentials."""
        g = self.phi_dirichlet if dirichlet_vals is None else dirichlet_vals
        volume, surface = self.poisson.diffusion(phi, self.eps_p, g, self.tau)
        return -(volume + surface)

    @cached_property
    def poisson_matrix(self):
        """Sparse A with poisson_apply(u, g) = A u + poisson_apply(0, g) for
        every Dirichlet data g; probed on first use, not at set-up."""
        return assemble_affine_operator(lambda u: self.poisson_apply(u, 0.0),
                                        self.pdisc)

    @cached_property
    def _poisson_csc(self):
        """poisson_matrix in CSC form with its whole diagonal stored (an
        explicit 0 where it has none), and the positions of the diagonal in
        its data: a Newton-Poisson Jacobian A + diag(d) adds d to a copy of
        that data."""
        a = self.poisson_matrix.tocoo()
        i = np.arange(a.shape[0])
        csc = sp.csc_matrix((np.concatenate([a.data, np.zeros(len(i))]),
                             (np.concatenate([a.row, i]),
                              np.concatenate([a.col, i]))), shape=a.shape)
        cols = np.repeat(i, np.diff(csc.indptr))
        return csc, np.flatnonzero(csc.indices == cols)

    def newton_jacobian(self, d):
        """A + diag(d) in CSC form, array for array the matrix scipy forms
        as (A + sp.diags(d)).tocsc(): entries that sum to 0 are dropped."""
        csc, diag = self._poisson_csc
        data = csc.data.copy()
        data[diag] += d
        jac = sp.csc_matrix((data, csc.indices.copy(), csc.indptr.copy()),
                            shape=csc.shape)
        jac.eliminate_zeros()
        return jac

    def charge_density(self, n_e, n_h):
        """rho = q (n_h - n_e + C) on semiconductor rows of the Poisson grid."""
        rho = np.zeros((self.pdisc.K, self.pdisc.Np))
        rho[self.semi_in_p] = Q * (n_h - n_e + self.doping)
        return rho

    def poisson_densities(self, sol):
        """(n_e, n_h) of sol on the Poisson grid, 0 off the semiconductor."""
        dens = np.zeros((2, self.pdisc.K, self.pdisc.Np))
        dens[:, self.semi_in_p] = sol.n_e, sol.n_h
        return dens

    # -- continuity ------------------------------------------------------
    def _carrier_system(self, carrier, n_other, lagged):
        """Affine kernel of the steady continuity equation of one carrier at
        Dirichlet data f_d (default 0) in the solver's stationary state, and
        the carrier's contact densities; SRH is linearized with its
        denominator at the lagged (n_e, n_h)."""
        dd = self.dd
        if carrier == "e":
            v, dc, fd = dd.v_e, dd.d_e, self.fd_ne
        else:
            v, dc, fd = dd.v_h, dd.d_h, self.fd_nh
        tau = dd.penalty(dc, _PENALTY)

        def kernel(n, f_d=0.0):
            rhs = dd.scalar_rhs(n, v, dc, f_d=f_d, penalty=tau)
            n_e, n_h = (n, n_other) if carrier == "e" else (n_other, n)
            return rhs - ph.srh_recombination(n_e, n_h, dd, lagged=lagged)
        return kernel, fd

    def continuity_solve(self, carrier, n_self, n_other):
        """One lagged-R linear solve for n_c^s in the field of the last
        dd.set_stationary."""
        lagged = (n_self, n_other) if carrier == "e" else (n_other, n_self)
        kernel, fd = self._carrier_system(carrier, n_other, lagged)
        c = kernel(np.zeros_like(n_self), fd).reshape(-1)
        a = assemble_affine_operator(kernel, self.ddisc)
        n = solve_sparse(a, -c).reshape(n_self.shape)
        # transient sweeps may undershoot near contacts; clip and let the
        # iteration self-correct, but abort on a wholesale sign flip
        peak = np.abs(n).max()
        if n.min() < -peak:
            raise ConvergenceError(
                f"continuity solve lost positivity (min {n.min():.3e})")
        return np.maximum(n, 0.0)

    def e_on_dd(self, e_s):
        return tuple(c[self.semi_in_p] for c in e_s)

    # -- Gummel ----------------------------------------------------------
    def equilibrium_initial_guess(self):
        """(phi, n_e, n_h) of local charge neutrality at zero bias."""
        ne, nh = ph.ohmic_contact_densities(self.doping, self.n_i)
        v_t = self.materials.v_t
        n_e = np.broadcast_to(ne, (self.ddisc.K, self.ddisc.Np)).copy()
        n_h = np.broadcast_to(nh, (self.ddisc.K, self.ddisc.Np)).copy()
        phi = np.zeros((self.pdisc.K, self.pdisc.Np))
        phi[self.semi_in_p] = v_t * np.log(n_e / self.n_i)
        return phi, n_e, n_h

    def _newton_poisson(self, phi, n_e, n_h, g_dir):
        """Damped Newton on the nonlinear Poisson equation with Boltzmann-
        linearized charge and Dirichlet data g_dir, each step clamped to
        _NEWTON_CLAMP V_T; returns updated phi and the carrier
        multipliers."""
        v_t = self.materials.v_t
        a = self.poisson_matrix
        c = self.poisson_apply(np.zeros_like(phi), g_dir).reshape(-1)
        ne, nh = n_e.copy(), n_h.copy()
        for it in range(_NEWTON_MAX_ITER):
            resid = a @ phi.reshape(-1) + c - self.charge_density(ne, nh).reshape(-1)
            dcharge = np.zeros((self.pdisc.K, self.pdisc.Np))
            dcharge[self.semi_in_p] = Q * (ne + nh) / v_t
            dphi = solve_sparse(self.newton_jacobian(dcharge.reshape(-1)),
                                -resid)
            step = np.clip(dphi.reshape(phi.shape), -_NEWTON_CLAMP * v_t,
                           _NEWTON_CLAMP * v_t)
            phi = phi + step
            upd = step[self.semi_in_p] / v_t
            ne = ne * np.exp(upd)
            nh = nh * np.exp(-upd)
            if np.max(np.abs(dphi)) / v_t < 1e-8:
                break
        return phi, ne, nh

    def gummel_solve(self, verbose=False):
        """Gummel iteration with bias-ramp continuation: the applied contact
        voltages are scaled up in increments of at most _RAMP_STEP V_T,
        each stage warm-started from the previous one."""
        v_max = max((abs(ct.voltage) for ct in self.contacts), default=0.0)
        n_stage = max(1, int(np.ceil(v_max / (_RAMP_STEP
                                              * self.materials.v_t))))
        phi, n_e, n_h = self.equilibrium_initial_guess()
        history = []
        for stage in range(1, n_stage + 1):
            scale = stage / n_stage
            g_dir = scale * self._volt_face + self._built_in_face
            phi, n_e, n_h = self._gummel_sweeps(
                g_dir, phi, n_e, n_h, history, verbose,
                label=f"ramp {scale:.3f}")
        return self._finalize(phi, n_e, n_h, history)

    def _sweep(self, g_dir, phi, n_e, n_h):
        """One Gummel sweep: nonlinear Poisson, then the two continuity
        solves in its field; returns the updated state."""
        phi, n_e_b, n_h_b = self._newton_poisson(phi, n_e, n_h, g_dir)
        e_s = tuple(-q for q in self.poisson.gradient(phi, g_dir))
        self.dd.set_stationary(self.e_on_dd(e_s), n_e_b, n_h_b)
        n_e = self.continuity_solve("e", n_e_b, n_h_b)
        n_h = self.continuity_solve("h", n_h, n_e)
        return phi, n_e, n_h

    def _pack(self, phi, n_e, n_h):
        v_t = self.materials.v_t
        nref = np.abs(self.doping) + self.n_i
        le = v_t * np.log(np.maximum(n_e, 1.0) / nref)
        lh = v_t * np.log(np.maximum(n_h, 1.0) / nref)
        return np.concatenate([phi.ravel(), le.ravel(), lh.ravel()])

    def _unpack(self, s):
        np_p = self.pdisc.K * self.pdisc.Np
        nd = self.ddisc.K * self.ddisc.Np
        v_t = self.materials.v_t
        nref = np.abs(self.doping) + self.n_i
        phi = s[:np_p].reshape(self.pdisc.K, self.pdisc.Np)
        n_e = nref * np.exp(s[np_p:np_p + nd].reshape(nref.shape[0], -1) / v_t)
        n_h = nref * np.exp(s[np_p + nd:].reshape(nref.shape[0], -1) / v_t)
        return phi, n_e, n_h

    def _gummel_sweeps(self, g_dir, phi, n_e, n_h, history, verbose,
                       label=""):
        """Fixed-point iteration on the Gummel sweep, Anderson-accelerated
        over the last _ANDERSON_DEPTH iterates."""
        v_t = self.materials.v_t
        np_p = self.pdisc.K * self.pdisc.Np
        s = self._pack(phi, n_e, n_h)
        s_hist, f_hist = [], []
        for it in range(_GUMMEL_MAX_ITER):
            phi, n_e, n_h = self._unpack(s)
            phi, n_e, n_h = self._sweep(g_dir, phi, n_e, n_h)
            if not np.all(np.isfinite(phi)):
                bad = np.argwhere(~np.isfinite(phi))[0]
                raise ConvergenceError(f"non-finite potential at element "
                                       f"{bad[0]}, node {bad[1]}", history)
            g = self._pack(phi, n_e, n_h)
            f = g - s
            update = float(np.max(np.abs(f[:np_p])) / v_t)
            history.append(update)
            if verbose:
                print(f"gummel {label} iter {it:3d}: "
                      f"max|dphi|/V_T = {update:.3e}")
            if update < _GUMMEL_TOL:
                return phi, n_e, n_h
            s_hist.append(s)
            f_hist.append(f)
            if len(s_hist) > _ANDERSON_DEPTH:
                s_hist.pop(0)
                f_hist.pop(0)
            m = len(s_hist)
            if m > 1:
                df = np.column_stack([f_hist[i] - f_hist[-1]
                                      for i in range(m - 1)])
                try:
                    gamma, *_ = np.linalg.lstsq(df, -f_hist[-1], rcond=1e-10)
                except np.linalg.LinAlgError:
                    gamma = np.zeros(m - 1)
                s = g + sum(gamma[i] * ((s_hist[i] + f_hist[i]) - g)
                            for i in range(m - 1))
            else:
                s = g
        raise ConvergenceError(
            f"Gummel iteration did not reach {_GUMMEL_TOL} in "
            f"{_GUMMEL_MAX_ITER} sweeps (last update {history[-1]:.3e})",
            history)

    def _finalize(self, phi, n_e, n_h, history):
        """The solution of the state (phi, n_e, n_h): E = -grad phi at the
        contact potentials and the conduction current; the DD solver's
        stationary state is set to it."""
        e_s = tuple(-q for q in self.poisson.gradient(phi, self.phi_dirichlet))
        e_dd = self.e_on_dd(e_s)
        self.dd.set_stationary(e_dd, n_e, n_h)
        j = self.dd.conduction_current(n_e, n_h, e_dd, self.fd_ne, self.fd_nh)
        return StationarySolution(phi=phi, e_s=e_s, n_e=n_e, n_h=n_h, j=j,
                                  gummel_history=history)

    def state_key(self):
        """Hash of every input the stationary state depends on: the mesh,
        the order, the Dirichlet penalty, the temperature, the contacts and
        every material parameter."""
        inputs = (
            self.mesh.content_hash(), self.pdisc.ref.p, _PENALTY,
            self.materials.temperature,
            [(c.name, c.lo.tolist(), c.hi.tolist(), c.voltage)
             for c in self.contacts],
            sorted((name, dataclasses.asdict(m))
                   for name, m in self.materials.materials.items()))
        return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]

    # -- observables -----------------------------------------------------
    def stationary_current(self, sol):
        """Terminal current per contact, I = contour integral of (J_e+J_h).n."""
        return contact_currents(self.ddisc, sol.j, self.d_contact, self.contacts)


def contact_currents(disc, j, contact_idx, contacts):
    """Terminal current per contact: the integral of n . j^- over the faces
    whose contact_idx (K, Nfaces) is the contact's index; j holds the current
    density components on disc."""
    jn = sum(disc.nhat[:, :, nu] * disc.face_minus(j[nu])
             for nu in range(disc.ref.dim))
    return {ct.name: _face_integral(disc, jn, disc.face_expand(contact_idx == i))
            for i, ct in enumerate(contacts)}


def _face_integral(disc, face_vals, mask):
    ref = disc.ref
    w = np.concatenate([fm.sum(axis=0) for fm in ref.face_mass])
    wfull = np.repeat(disc.sjac, ref.Nfp, axis=1) * w[None, :]
    return float(np.sum(face_vals * wfull * mask))


# ---------------------------------------------------------------------------
# checkpoint I/O

CHECKPOINT_FORMAT = "# pcddg stationary checkpoint v3"


def save_checkpoint(path, problem, sol):
    """Write phi, n_e and n_h per Poisson node (densities 0 off the
    semiconductor) under the problem's mesh hash and state key, atomically:
    a killed run leaves the old file or the new one, never a torn one."""
    cols = np.concatenate([sol.phi[None], problem.poisson_densities(sol)])
    lines = [CHECKPOINT_FORMAT, f"# mesh_hash {problem.mesh.content_hash()}",
             f"# state_key {problem.state_key()}", "# phi n_e n_h"]
    lines += [" ".join(format(v, ".17g") for v in row)
              for row in cols.reshape(3, -1).T]
    output._atomic_write(path, "\n".join(lines) + "\n")


def load_checkpoint(path, problem):
    """Read a checkpoint, validate it against the problem's mesh hash and
    state key, and build its solution from (phi, n_e, n_h): bitwise the
    solution that was saved."""
    d = problem.pdisc
    with open(path) as fh:
        fmt, mesh_line, key_line = (fh.readline().rstrip("\n")
                                    for _ in range(3))
    if fmt != CHECKPOINT_FORMAT:
        raise PhysicsError(f"not a {CHECKPOINT_FORMAT[2:]} file")
    mesh_hash = problem.mesh.content_hash()
    if mesh_line != f"# mesh_hash {mesh_hash}":
        raise PhysicsError("checkpoint mesh hash does not match the mesh "
                           f"({mesh_line!r}, expected {mesh_hash})")
    if key_line != f"# state_key {problem.state_key()}":
        raise PhysicsError("checkpoint was written for other stationary inputs "
                           "(contacts, materials, temperature, order or penalty)")
    data = np.loadtxt(path, ndmin=2)
    if data.shape != (d.K * d.Np, 3):
        raise PhysicsError("checkpoint node count does not match discretization")
    phi, n_e, n_h = np.ascontiguousarray(data.T).reshape(3, d.K, d.Np)
    return problem._finalize(phi, n_e[problem.semi_in_p],
                             n_h[problem.semi_in_p], [])
