"""Semi-discrete nodal-DG Maxwell solver: 1D (Ex, Hz along y) and 2D TE_z
(Ex, Ey, Hz), upwind fluxes, PEC/ABC boundaries, uniaxial PML via auxiliary
D/B fields, Drude metals via an auxiliary current ODE, and the optical
aperture source."""

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp

from . import physics as ph
from .dgops import assemble_affine_operator
from .mesh import BOUNDARY_TAGS, INTERIOR, TAG_INDEX
from .physics import EPS0, MU0, PhysicsError

# state rows per dimension: fields, PML auxiliaries, Drude currents
_ROWS = {1: (("ex", "hz"), ("dx", "bz"), ("jpx",)),
         2: (("ex", "ey", "hz"), ("dx", "dy", "bz"), ("jpx", "jpy"))}

_PEC_LIKE = {"PEC", "ELECTRODE_D", "SOURCE_APERTURE"}
_ABC_LIKE = {"ABC", "PML_INTERFACE"}
_PML_ORDER = 3              # polynomial grading of the PML rates
_PML_R_TARGET = 1e-8        # normal-incidence reflection design target


@dataclass
class PmlSpec:
    """Polynomial-graded uniaxial PML attached to selected domain sides."""
    thickness: dict              # side in {xlo,xhi,ylo,yhi} -> depth (m)

    def __post_init__(self):
        for side, d in self.thickness.items():
            if side not in ("xlo", "xhi", "ylo", "yhi"):
                raise PhysicsError(f"unknown PML side {side!r}")
            if d < 0:
                raise PhysicsError("PML thickness must be nonnegative")


def pml_sigma_profiles(disc, pml):
    """Damping rates sigma_x/eps0 and sigma_y/eps0 at the nodes, zero
    outside layers and constant on each element: the nodal mean of the
    polynomial grading.  A rate that varies inside an element gives a 2D
    layer a growing mode: on a 0.4 um box with a 0.2 um layer, max
    Re(lambda) dt at the stable step is 5.8e-4 at p = 2 with the nodal
    grading and below 3e-13 for p = 1..4 with its element mean."""
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
        col = axis if dim == 2 else 0       # the 1D mesh coordinate is y
        coord = disc.x[:, :, col]
        if side.endswith("lo"):
            depth = (lo[col] + d) - coord
        else:
            depth = coord - (hi[col] - d)
        depth = np.clip(depth, 0.0, d)
        smax = -(_PML_ORDER + 1) * np.log(_PML_R_TARGET) * ph.C0 / (2.0 * d)
        prof = smax * (depth / d) ** _PML_ORDER
        if axis == 1:
            sy += prof.mean(axis=1, keepdims=True)
        else:
            sx += prof.mean(axis=1, keepdims=True)
    return sx, sy


class MaxwellSolver:
    """Maxwell rhs evaluation on a Discretization with per-region materials.

    State is a (ncomp, K, Np) array whose rows (comp, idx) are only those
    the physics needs: the fields (E components, then Hz) always; their PML
    auxiliaries (D components, then Bz) only when some PML rate sigma > 0;
    the Drude currents (one per E component) only when some element is a
    Drude metal.  rhs(state, t, current) returns the same shape, with the
    carrier current J = sigma E + j0 of current = (sigma, j0), sigma (K, Np)
    and j0 (dim, K, Np), zero outside the carriers' subdomain.  Without PML
    rows, dE/dt and dH/dt are (lift + curl - currents) / (eps, mu), which is
    the sigma = 0 arithmetic, so runs without PML and with zero-conductivity
    PML are bitwise identical.

    Everything the rhs needs besides the state is built here:

    - the face operator S (_face_op): a CSR matrix over the field rows of
      the flat state, in jump form with the impedances and the ghost
      traces folded in.  Every field row's face flux is a multiple of one
      scalar per face node, q = w - Z^+ [[H]]: S gives q, and the rhs
      multiplies it by each row's coefficient (_flux_coef, fscale folded
      in) and lifts the fluxes with one matmul.  With [[u]] = u^- - g u^+
      and w = n x [[E]] (its z component), fscale (H* - H^-) =
      cb (w - Z^+ [[H]]) = cb q and
      fscale n x (E^- - E*) = ca (Y^+ w - [[H]]) = (ca / Z^+) q, where
      cb = fscale / (Z^- + Z^+) and ca = fscale / (Y^- + Y^+); the ghost
      multiplier g is 1 on interior faces, -1 for E and +1 for H on
      PEC-like faces, 0 on ABC-like faces;
    - the curl terms (metric factor per reference direction), 1/eps, 1/mu
      and the PML rates, each (K, Np) or stacked per component, the PML
      rates only when their rows exist;
    - the Drude coefficients on the metal's nodes alone, with the flat
      state indices of those nodes' E and jp entries: the Drude rows are
      zero elsewhere.

    The assembled operator (operator) and the responses held_rhs adds the
    carrier current and the source through are probed from the kernel on
    first use, not here.

    Workspace ownership: the accumulator, derivative, current and PML
    buffers belong to the solver and are overwritten by every rhs call, so
    one solver evaluates one rhs at a time.  The array rhs returns is
    allocated fresh on each call and aliases no workspace; callers may keep
    or modify it.
    """

    def __init__(self, disc, materials, source=None, pml=None):
        self.disc = disc
        self.materials = materials
        self.source = source
        dim = disc.ref.dim
        K, Np, nfp = disc.K, disc.Np, disc.nfp_tot
        nf = dim + 1                    # field components: E..., Hz
        n = K * Np

        mats, mat_idx = materials.element_materials(disc.mesh, disc.elems)

        def per_elem(values):
            return np.array(values)[mat_idx]

        eps_r = per_elem([m.drude.eps_inf if m.drude else m.eps_r for m in mats])
        mu_r = per_elem([m.mu_r for m in mats])
        if not (np.all(eps_r > 0) and np.all(mu_r > 0)):
            raise PhysicsError("wave impedance must be positive")
        self.eps = (eps_r * EPS0)[:, None]
        self.mu = (mu_r * MU0)[:, None]

        def nodal(per_elem):
            return np.repeat(np.asarray(per_elem, dtype=float)[:, None], Np, axis=1)

        # state rows, and the slices of the optional ones
        has_pml = False
        if pml is not None:
            sx, sy = pml_sigma_profiles(disc, pml)
            has_pml = bool(np.any(sx > 0) or np.any(sy > 0))
        has_drude = any(m.drude for m in mats)
        field_rows, aux_rows, drude_rows = _ROWS[dim]
        self.comp = (field_rows + (aux_rows if has_pml else ())
                     + (drude_rows if has_drude else ()))
        self.idx = {c: i for i, c in enumerate(self.comp)}
        self._aux = slice(nf, 2 * nf) if has_pml else None
        self._jp = slice(len(self.comp) - dim, None) if has_drude else None

        # face coefficients in jump form: w = sum_e w_coef_e [[E_e]], and
        # field row c takes lift_w_c w - lift_h_c [[H]] = lift_w_c q, one
        # scalar q = w - Z^+ [[H]] per face node (lift_h = lift_w Z^+)
        z_elem = np.sqrt(self.mu[:, 0] / self.eps[:, 0])
        zm = z_elem[:, None]
        zp = z_elem[disc.vmapP // Np]
        ca = disc.fscale / (1.0 / zm + 1.0 / zp)
        cb = disc.fscale / (zm + zp)
        tang = [disc.nhat[:, :, dim - 1]]
        if dim == 2:
            tang.append(-disc.nhat[:, :, 0])
        w_coef = -np.array(tang)
        lift_w = np.array([t * cb for t in tang] + [ca / zp])

        pec = np.isin(disc.face_tag, [TAG_INDEX[t] for t in _PEC_LIKE])
        abc = np.isin(disc.face_tag, [TAG_INDEX[t] for t in _ABC_LIKE])
        other = (disc.face_tag != INTERIOR) & ~pec & ~abc
        if np.any(other):
            k, f = np.argwhere(other)[0]
            raise PhysicsError("no EM boundary rule for tag "
                               f"{BOUNDARY_TAGS[disc.face_tag[k, f]]!r}")
        ghost_e = disc.face_expand(np.where(pec, -1.0, np.where(abc, 0.0, 1.0)))
        ghost_h = disc.face_expand(np.where(abc, 0.0, 1.0))
        ghost = np.array([ghost_e] * dim + [ghost_h])

        # the rhs multiplies q by lift_w (_flux_coef) into a workspace
        self._flux_coef = lift_w.reshape(nf, K * nfp)
        self._flux = np.empty((nf, K * nfp))

        # S[(k, j), (f, node)]: coefficient of field f's jump in q, on the
        # minus trace and times -g on the plus trace.  Each row gets its
        # 2 nf entries in place (the build's temporaries set the solver's
        # peak memory); coinciding minus and plus nodes (boundary faces)
        # are then summed and zeros dropped
        data = np.empty((K, nfp, 2, nf))                # (k, j, trace, f)
        minus = np.moveaxis(data[..., 0, :], -1, 0)
        minus[...] = list(w_coef) + [-zp]
        np.multiply(minus, -ghost, out=np.moveaxis(data[..., 1, :], -1, 0))
        cols = np.empty((K, nfp, 2, nf), dtype=np.int32)
        for f in range(nf):
            cols[..., 0, f] = f * n + disc.vmapM
            cols[..., 1, f] = f * n + disc.vmapP
        # (flatten copies: sum_duplicates sorts the indices in place)
        face_op = sp.csr_matrix(
            (data.ravel(), np.broadcast_to(cols, data.shape).flatten(),
             np.arange(0, data.size + 1, 2 * nf, dtype=np.int32)),
            shape=(K * nfp, nf * n))
        face_op.sum_duplicates()
        face_op.eliminate_zeros()
        self._face_op = face_op

        # workspaces every rhs call overwrites: lift + curl - currents of
        # the field rows (the D/B rows with PML, else eps dE/dt, mu dH/dt),
        # the reference gradients of the fields, one curl term, the
        # carrier current
        self._acc = np.empty((nf, K, Np))
        grad = np.empty((dim, nf, K, Np))
        self._grad_out = [g.reshape(nf * K, Np) for g in grad]
        self._vol = np.empty((K, Np))
        self._cur = np.empty((dim, K, Np))

        # curl terms as views bound once (acc row, gradient of a field
        # along a reference direction, metric factor): the 1D mesh
        # coordinate is y
        metric = disc.metric
        terms = []
        for d in range(dim):
            dy = nodal(metric[:, dim - 1, d])
            terms += [(0, nf - 1, d, dy), (nf - 1, 0, d, dy)]
            if dim == 2:
                minus_dx = nodal(-metric[:, 0, d])
                terms += [(1, nf - 1, d, minus_dx), (nf - 1, 1, d, minus_dx)]
        self._curl_terms = [(self._acc[row], grad[d, comp], coef)
                            for row, comp, d, coef in terms]
        self._diff_t = [np.ascontiguousarray(dr.T) for dr in disc.ref.diff]
        self._lift_t = np.ascontiguousarray(disc.ref.lift_ref.T)
        self._inv_em = np.array([nodal(1.0 / self.eps[:, 0])] * dim
                                + [nodal(1.0 / self.mu[:, 0])])

        # PML: D_x, B_z decay with sigma_y and D_y with sigma_x; E_e is
        # restored with its own sigma; Hz decays with sigma_x.  The rows of
        # the TE_z tables this dimension carries: E..., Hz
        if has_pml:
            zero = np.zeros((K, Np))
            rows = [0, 1, 2][:dim] + [2]
            self._sig_aux = np.array([sy, sx, sy])[rows]
            self._sig_field = np.array([sx, sy, zero])[rows]
            self._sig_h = np.array([zero, zero, sx])[rows]
            self._tmp = np.empty((nf, K, Np))
        if has_drude:
            # the Drude nodes, flat over the state: E rows, then jp rows
            metal = np.flatnonzero(per_elem([bool(m.drude) for m in mats]))
            nodes = (metal[:, None] * Np + np.arange(Np)).reshape(-1)
            self._drude_e = (np.arange(dim)[:, None] * n + nodes).reshape(-1)
            self._drude_jp = self._drude_e + self._jp.start * n
            a = per_elem([EPS0 * m.drude.omega_p ** 2 if m.drude else 0.0
                          for m in mats])
            g = per_elem([m.drude.gamma if m.drude else 0.0 for m in mats])
            self._drude_a = np.tile(np.repeat(a[metal], Np), dim)
            self._drude_g = np.tile(np.repeat(g[metal], Np), dim)

        if source is not None:
            self._build_source(source)

    # -- source ----------------------------------------------------------
    def _build_source(self, spec):
        disc = self.disc
        # the source current drives one E component: a 1D mesh carries Ex
        # alone
        allowed = ("x", "y")[:disc.ref.dim]
        if spec.polarization not in allowed:
            raise PhysicsError(
                f"source polarization must be {' or '.join(allowed)} on a "
                f"{disc.ref.dim}D discretization, got {spec.polarization!r}")
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
        # the source current is added on the nonzero nodes only
        self._src_nodes = np.flatnonzero(prof)
        self._src_values = prof.reshape(-1)[self._src_nodes]
        z_ap = float(np.sqrt(self.mu[ksel, 0].mean() / self.eps[ksel, 0].mean()))
        if spec.peak_field is not None:
            sheet = 2.0 * spec.peak_field / z_ap
        else:
            # peak power through the aperture; sheet radiates S = Z K^2/4 per
            # side over an effective depth equal to the beam width
            p_lin = spec.power / spec.beam_width
            sheet = np.sqrt(4.0 * p_lin / (z_ap * spec.beam_width * np.sqrt(np.pi / 2.0)))
        self._src_amp = sheet
        # the source current enters the acc row of its E component
        self._src_acc = self._acc[allowed.index(spec.polarization)].reshape(-1)

    def _src_scale(self, t):
        return self._src_amp * self.source.envelope(t)

    # -- state helpers ---------------------------------------------------
    def zero_state(self):
        return np.zeros((len(self.comp), self.disc.K, self.disc.Np))

    def energy(self, state):
        """Discrete EM energy 0.5 int (eps E^2 + mu H^2)."""
        e2 = np.sum(state[:self.disc.ref.dim] ** 2, axis=0)
        u = self.eps * e2 + self.mu * state[self.idx["hz"]] ** 2
        return 0.5 * self.disc.integrate(u)

    # -- rhs -------------------------------------------------------------
    def rhs(self, state, t=0.0, current=None):
        """d(state)/dt at time t, with the carrier current sigma E + j0 of
        current = (sigma, j0) on this mesh (None: no carriers).  Returns a
        fresh array; see the class docstring for workspaces."""
        return self._kernel(state, current, None if self.source is None
                            else self._src_scale(t))

    def _kernel(self, state, current=None, src=None):
        """rhs with the optical source current src times the source profile
        (None: no source)."""
        d = self.disc
        dim = d.ref.dim
        nf = dim + 1
        K, Np, nfp = d.K, d.Np, d.nfp_tot
        state = np.ascontiguousarray(state, dtype=float)
        out = np.empty_like(state)
        fields, r_field = state[:nf], out[:nf]
        acc, vol = self._acc, self._vol

        # upwind fluxes: q from one sparse product over the fields, times
        # each field row's coefficient, lifted with one matmul
        q = self._face_op @ state.reshape(-1)[:nf * K * Np]
        np.multiply(self._flux_coef, q, out=self._flux)
        np.matmul(self._flux.reshape(nf * K, nfp), self._lift_t,
                  out=acc.reshape(nf * K, Np))

        # curl from one matmul per reference direction
        flat_fields = fields.reshape(nf * K, Np)
        for diff_t, grad in zip(self._diff_t, self._grad_out):
            np.matmul(flat_fields, diff_t, out=grad)
        for acc_row, grad, coef in self._curl_terms:
            np.multiply(coef, grad, out=vol)
            acc_row += vol

        # carrier, Drude and optical source currents
        acc_e = acc[:dim]
        if current is not None:
            cur = self._cur
            np.multiply(fields[:dim], current[0], out=cur)
            cur += current[1]
            acc_e -= cur
        if self._jp is not None:
            acc_e -= state[self._jp]
        if src is not None:
            self._src_acc[self._src_nodes] -= self._src_values * src

        if self._aux is None:
            np.multiply(acc, self._inv_em, out=r_field)
        else:
            # PML damping into the D/B rows, then E = D / eps and H = B / mu
            aux, tmp, r_aux = state[self._aux], self._tmp, out[self._aux]
            np.multiply(self._sig_aux, aux, out=tmp)
            np.subtract(acc, tmp, out=r_aux)
            np.multiply(self._sig_field, aux, out=tmp)
            tmp += r_aux
            np.multiply(tmp, self._inv_em, out=r_field)
            np.multiply(self._sig_h, fields, out=tmp)
            r_field -= tmp

        if self._jp is not None:
            # zero off the metal, a E - g jp on its nodes
            out[self._jp] = 0.0
            flat_in, flat_out = state.reshape(-1), out.reshape(-1)
            flat_out[self._drude_jp] = (self._drude_a * flat_in[self._drude_e]
                                        - self._drude_g
                                        * flat_in[self._drude_jp])
        return out

    # -- assembled operator and the held-current rhs ---------------------
    @cached_property
    def operator(self):
        """The state-linear part of rhs, without carrier current or source,
        as a CSR matrix over the flat state (field, PML and Drude rows):
        rhs(u) = operator @ u for a solver without a source.  Probed from
        the kernel on first use, one probe per kernel call: the kernel's
        workspaces hold one state."""
        return assemble_affine_operator(
            lambda u: np.stack([self._kernel(v) for v in u]), self.disc,
            ncomp=len(self.comp))

    @cached_property
    def _current_entry(self):
        """Where a current density J enters the 1D rhs: the kernel's
        response to j0 = 1 on its nonzero rows, and the E column of the
        same node (in 1D the E rows and their D rows share the node
        index)."""
        entry = self._kernel(self.zero_state(), (0.0, 1.0)).reshape(-1)
        rows = np.flatnonzero(entry)
        return rows, rows % (self.disc.K * self.disc.Np), entry[rows]

    @cached_property
    def _held_pattern(self):
        """The CSR pattern of the operator plus the current entries: the
        operator's data placed in it (0 elsewhere), its indices and row
        pointer, and the positions of the current entries in it."""
        op = self.operator
        rows, cols, _ = self._current_entry
        n = op.shape[1]
        op_keys = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr)) * n \
            + op.indices
        keys = np.union1d(op_keys, rows * n + cols)
        base = np.zeros(len(keys))
        base[np.searchsorted(keys, op_keys)] = op.data
        indptr = np.searchsorted(keys, np.arange(op.shape[0] + 1) * n)
        return (base, (keys % n).astype(op.indices.dtype),
                indptr.astype(op.indptr.dtype),
                np.searchsorted(keys, rows * n + cols))

    @cached_property
    def _source_entry(self):
        """The kernel's response to a unit source current, on its nonzero
        entries."""
        q = self._kernel(self.zero_state(), None, 1.0).reshape(-1)
        nodes = np.flatnonzero(q)
        return nodes, q[nodes]

    def held_rhs(self, current):
        """rhs(state, t) in the carrier current current = (sigma, j0) held
        over a macro step.  In 1D, u -> A_sigma u + c + s(t) q, from the
        kernel's responses r to a unit current density (on the rows where J
        enters) and q to a unit source current: A_sigma is the operator
        plus r sigma at the E column of each row's node and c = r j0, so a
        call is one sparse product and two small updates.  In 2D, rhs with
        the current bound: there the operator has more than twice the
        entries per row, and its product is slower than the kernel
        (measured in the README's package layout)."""
        if self.disc.ref.dim != 1:
            return partial(self.rhs, current=current)
        rows, cols, resp = self._current_entry
        base, indices, indptr, at = self._held_pattern
        sigma, j0 = (np.reshape(a, -1) for a in current)
        data = base.copy()
        data[at] += resp * sigma[cols]
        a_sigma = sp.csr_matrix((data, indices, indptr),
                                shape=self.operator.shape)
        c = np.zeros(a_sigma.shape[0])
        c[rows] = resp * j0[cols]
        source = None if self.source is None else self._source_entry

        def rhs(state, t=0.0):
            out = a_sigma @ state.reshape(-1)
            out += c
            if source is not None:
                out[source[0]] += self._src_scale(t) * source[1]
            return out.reshape(state.shape)
        return rhs
