"""Mesh-level nodal DG data: physical nodes, metric factors, face node maps,
lift operators, and boundary classification, optionally restricted to an
element subset (the DD/Poisson subdomains); the shared LDG diffusion
kernel; and the sparse assembly of a matrix-free kernel by probing it
with colored unit vectors (Curtis-Powell-Reid), stacked in batches, from
a plan kept per discretization, which the stationary operators, the
transient carrier diffusion matrix and the Maxwell operator are built
with.

Set-up is array-based: the plus-side face node of every interior face node
is found by one batched nearest-coordinate match over all interior face
pairs, and each matched pair must coincide within NODETOL (relative to
the coordinate size, at least 1)."""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import INTERIOR, TAG_INDEX
from .refelem import MeshError, modal_basis

NODETOL = 1e-9


@dataclass
class Discretization:
    ref: object
    mesh: object
    elems: np.ndarray            # global element ids in this subdomain
    x: np.ndarray                # (K, Np, dim) node coordinates
    jac: np.ndarray              # (K,)
    metric: np.ndarray           # (K, dim, dim): metric[k, nu, d] = d r_d / d x_nu
    sjac: np.ndarray             # (K, Nfaces)
    fscale: np.ndarray           # (K, Nfaces*Nfp)
    nhat: np.ndarray             # (K, Nfaces*Nfp, dim)
    vmapM: np.ndarray            # (K, Nfaces*Nfp) flat indices into (K*Np)
    vmapP: np.ndarray
    face_tag: np.ndarray         # (K, Nfaces): INTERIOR or a TAG_INDEX value
    beta_sign: np.ndarray        # (K, Nfaces): LDG orientation sign of n_hat
    h_elem: np.ndarray           # (K,) shortest edge
    # ProbePlan per component count, built on first assembly
    probe_plans: dict = field(default_factory=dict, repr=False,
                              compare=False)

    @property
    def K(self):
        return len(self.elems)

    @property
    def Np(self):
        return self.ref.Np

    @property
    def nfp_tot(self):
        return self.ref.Nfaces * self.ref.Nfp

    # -- derivative / surface helpers ------------------------------------
    def ddx(self, u, nu):
        out = np.zeros_like(u)
        for d in range(self.ref.dim):
            out += self.metric[:, nu, d][:, None] * (u @ self.ref.diff[d].T)
        return out

    def face_minus(self, u):
        """Interior traces (..., K, Nfaces*Nfp) of nodal u (..., K, Np); a
        leading axis stacks fields."""
        return np.take(u.reshape(u.shape[:-2] + (-1,)), self.vmapM, axis=-1)

    def face_plus(self, u):
        """Exterior traces, as face_minus."""
        return np.take(u.reshape(u.shape[:-2] + (-1,)), self.vmapP, axis=-1)

    def lift(self, face_flux):
        """M^-1 times the surface integral of face_flux (K, Nfaces*Nfp)."""
        return (self.fscale * face_flux) @ self.ref.lift_ref.T

    def face_expand(self, per_face):
        """(K, Nfaces) -> (K, Nfaces*Nfp)."""
        return np.repeat(per_face, self.ref.Nfp, axis=1)

    # -- integrals -------------------------------------------------------
    def integrate(self, u):
        w = self.ref.mass_ref.sum(axis=0)
        return float(np.sum(self.jac * (u @ w)))

    def l2_norm(self, u):
        mu = u @ self.ref.mass_ref.T
        return float(np.sqrt(np.sum(self.jac * np.sum(u * mu, axis=1))))

    def tag_face_mask(self, tag):
        """(K, Nfaces*Nfp) bool mask of face nodes on faces with this tag."""
        return self.face_expand(self.face_tag == TAG_INDEX[tag])


class LDGDiffusion:
    """The LDG gradient q = grad u and diffusion div(c q) on a
    Discretization, shared by the Poisson and the carrier solvers.

    Alternating fluxes: u* upwinds along beta and (c q)* takes the other
    side.  Faces tagged ELECTRODE_D are Dirichlet: u* = f_D and (c q)* =
    (c q)^- + tau (f_D - u^-); every other boundary face is Neumann:
    u* = u^- and (c q)* = 0.  f_D is a (K, Nfaces*Nfp) array (or a scalar)
    read on Dirichlet faces only, default 0; tau is passed per call, and
    None means no penalty.  traces, when given, is (u^-, u^+).
    """

    def __init__(self, disc):
        self.disc = disc
        self.dir_mask = disc.tag_face_mask("ELECTRODE_D")
        self.neu_mask = disc.face_expand(disc.face_tag >= 0) & ~self.dir_mask
        self.bs = disc.face_expand(disc.beta_sign)

    def traces(self, u):
        return self.disc.face_minus(u), self.disc.face_plus(u)

    def normal_traces(self, comp):
        """(n.c^-, n.c^+) of a vector field given by its components."""
        d = self.disc
        nhat = [d.nhat[:, :, nu] for nu in range(d.ref.dim)]
        return (sum(n * d.face_minus(c) for n, c in zip(nhat, comp)),
                sum(n * d.face_plus(c) for n, c in zip(nhat, comp)))

    def gradient(self, u, f_d=0.0, traces=None):
        """q = grad u, exact for degree <= p."""
        d = self.disc
        um, up = self.traces(u) if traces is None else traces
        star = 0.5 * (um + up) + 0.5 * self.bs * (um - up)
        star = np.where(self.dir_mask, f_d, star)
        corr = np.where(self.neu_mask, um, star) - um
        return tuple(d.ddx(u, nu) + d.lift(d.nhat[:, :, nu] * corr)
                     for nu in range(d.ref.dim))

    def diffusion(self, u, coef, f_d=0.0, penalty=None, traces=None):
        """div(coef grad u) as (volume, surface) terms, whose sum it is;
        they are returned apart so that callers fold them into their own
        sums in a fixed order."""
        d = self.disc
        um, up = self.traces(u) if traces is None else traces
        cq = tuple(coef * q for q in self.gradient(u, f_d, (um, up)))
        fm, fp = self.normal_traces(cq)
        star = 0.5 * (fm + fp) - 0.5 * self.bs * (fm - fp)
        f_dir = fm if penalty is None else fm + penalty * (f_d - um)
        star = np.where(self.dir_mask, f_dir, star)
        star = np.where(self.neu_mask, 0.0, star)
        volume = sum(d.ddx(c, nu) for nu, c in enumerate(cq))
        return volume, d.lift(star - fm)

    def penalty(self, coef, scale):
        """Dirichlet penalty scale * coef^- (p+1)^2 / h per face node;
        coef is nodal (K, Np) or per element (K, 1)."""
        d = self.disc
        h = np.repeat(d.h_elem[:, None], d.nfp_tot, axis=1)
        c = d.face_minus(np.broadcast_to(coef, (d.K, d.Np)))
        return scale * c * (d.ref.p + 1) ** 2 / h


# ---------------------------------------------------------------------------
# sparse assembly of matrix-free kernels

# State entries per kernel call: probes are stacked on a leading axis up to
# this many entries.  Batches of a few 10^4 entries keep a call's arrays in
# cache; larger ones lose most of the gain on 2D subdomains.
_PROBE_BATCH = 20_000


@dataclass
class ProbePlan:
    """What probing a (Discretization, ncomp) needs besides the kernel.

    batches holds one (probes, on, take) per kernel call: the number of
    probes stacked, the flat indices of their unit entries, and the flat
    indices of the responses kept, in probe order.  order sorts those
    responses by (row, col), and indices and indptr are the CSR pattern of
    the result."""
    batches: list
    order: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def _build_probe_plan(disc, nc):
    """With E the element adjacency of the subdomain, column block k of A
    lives on the rows of reach = (I + E)^2, the elements within two faces
    of k: LDG's reach, gradient then divergence, which holds the one face
    of an upwind flux.  Elements outside the pattern of reach^2 have
    disjoint reaches and are probed together; the greedy coloring takes
    the smallest free color in element order.  Each color gives one probe
    per component and node."""
    K, Np = disc.K, disc.Np
    n = K * Np
    glob2sub = -np.ones(disc.mesh.K, dtype=int)
    glob2sub[disc.elems] = np.arange(K)
    nbr = glob2sub[disc.mesh.etoe[disc.elems]]
    own = np.broadcast_to(np.arange(K)[:, None], nbr.shape)
    inner = (nbr >= 0) & (nbr != own)
    step = sp.identity(K, format="csr") + sp.csr_matrix(
        (np.ones(inner.sum()), (own[inner], nbr[inner])), shape=(K, K))
    reach = step @ step
    conflict = reach @ reach
    colors = -np.ones(K, dtype=int)
    for k in range(K):
        taken = set(colors[conflict.indices[
            conflict.indptr[k]:conflict.indptr[k + 1]]].tolist())
        color = 0
        while color in taken:
            color += 1
        colors[k] = color
    on, rows, cols = [], [], []
    for color in range(colors.max() + 1):
        ks = np.flatnonzero(colors == color)
        blocks = reach[ks].tocoo()      # (probe, element it reaches) pairs
        hit = blocks.col
        hit_rows = (np.arange(nc)[:, None] * n
                    + (hit[:, None] * Np + np.arange(Np)).ravel()).ravel()
        for comp in range(nc):
            for j in range(Np):
                on.append(comp * n + ks * Np + j)
                rows.append(hit_rows)
                cols.append(np.tile(np.repeat(ks[blocks.row] * Np + j, Np),
                                    nc) + comp * n)
    size = nc * n
    per_call = max(1, _PROBE_BATCH // size)
    batches = []
    for lo in range(0, len(on), per_call):
        chunk = range(lo, min(lo + per_call, len(on)))
        batches.append((len(chunk),
                        np.concatenate([b * size + on[i]
                                        for b, i in enumerate(chunk)]),
                        np.concatenate([b * size + rows[i]
                                        for b, i in enumerate(chunk)])))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows,
                                                        minlength=size))])
    idx = np.int32 if max(len(cols), size) < 2 ** 31 else np.int64
    return ProbePlan(batches, order, cols[order].astype(idx),
                     indptr.astype(idx))


def assemble_affine_operator(fn, disc, *, ncomp=None):
    """A of the matrix-free kernel fn(u) = A u + fn(0), probed as
    fn(e_j) - fn(0) with the colored probes of the ProbePlan of (disc,
    ncomp), built at the first assembly and kept on disc.

    Callers pass the kernel at zero boundary data, so that the unit probes
    are not lost to cancellation against large data.  A state u is
    (K, Np), or (ncomp, K, Np) with A over the flat state; fn takes states
    stacked on a leading axis and returns their images stacked the same
    way.  A call stacks at most _PROBE_BATCH state entries (and at least
    one probe), and fn(0) is a stack of one.
    """
    nc = 1 if ncomp is None else ncomp
    shape = (disc.K, disc.Np) if ncomp is None else (nc, disc.K, disc.Np)
    plan = disc.probe_plans.get(nc)
    if plan is None:
        plan = disc.probe_plans[nc] = _build_probe_plan(disc, nc)
    f0 = fn(np.zeros((1,) + shape)).reshape(-1)
    vals = []
    for count, on, take in plan.batches:
        u = np.zeros(count * f0.size)
        u[on] = 1.0
        r = fn(u.reshape((count,) + shape)).reshape(count, -1) - f0
        vals.append(r.reshape(-1)[take])
    # copies of the pattern: eliminate_zeros compacts it in place
    a = sp.csr_matrix((np.concatenate(vals)[plan.order], plan.indices.copy(),
                       plan.indptr.copy()), shape=(f0.size, f0.size))
    a.eliminate_zeros()
    return a


def build_discretization(mesh, ref, element_mask=None, cut_face_tag=None):
    """Assemble DG arrays for a mesh (or an element subset).

    cut_face_tag(k_global, face, nbr_global) names the boundary tag for faces
    whose neighbor falls outside the subset; required when element_mask cuts
    interior faces.
    """
    if ref.dim != mesh.dim:
        raise MeshError("reference element dim does not match mesh dim")
    if element_mask is None:
        elems = np.arange(mesh.K)
    else:
        elems = np.flatnonzero(element_mask)
    glob2sub = -np.ones(mesh.K, dtype=int)
    glob2sub[elems] = np.arange(len(elems))
    K = len(elems)
    Np, Nfp, Nfaces, dim = ref.Np, ref.Nfp, ref.Nfaces, ref.dim

    verts = mesh.vertices[mesh.elements[elems]]          # (K, dim+1, dim)
    if dim == 1:
        h = verts[:, 1, 0] - verts[:, 0, 0]
        if np.any(h <= 0):
            raise MeshError("degenerate 1D element")
        jac = h / 2.0
        metric = (2.0 / h)[:, None, None]
        r = ref.nodes[:, 0]
        x = (verts[:, 0, 0][:, None] + (1 + r)[None, :] * (h[:, None] / 2.0))[:, :, None]
        normals = np.tile(np.array([[[-1.0], [1.0]]]), (K, 1, 1))
        sjac = np.ones((K, 2))
        h_min = h
    else:
        xr = (verts[:, 1] - verts[:, 0]) / 2.0
        xs = (verts[:, 2] - verts[:, 0]) / 2.0
        jac = xr[:, 0] * xs[:, 1] - xs[:, 0] * xr[:, 1]
        if np.any(jac <= 0):
            raise MeshError(f"inverted triangle {elems[int(np.argmin(jac))]}")
        metric = np.empty((K, 2, 2))
        metric[:, 0, 0] = xs[:, 1] / jac      # rx
        metric[:, 0, 1] = -xr[:, 1] / jac     # sx
        metric[:, 1, 0] = -xs[:, 0] / jac     # ry
        metric[:, 1, 1] = xr[:, 0] / jac      # sy
        r = ref.nodes[:, 0]
        s = ref.nodes[:, 1]
        lam = np.stack([-(r + s) / 2.0, (1 + r) / 2.0, (1 + s) / 2.0], axis=1)
        x = np.einsum("pv,kvd->kpd", lam, verts)
        normals = np.empty((K, 3, 2))
        sjac = np.empty((K, 3))
        for f, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
            e = verts[:, b] - verts[:, a]
            ln = np.hypot(e[:, 0], e[:, 1])
            normals[:, f, 0] = e[:, 1] / ln
            normals[:, f, 1] = -e[:, 0] / ln
            sjac[:, f] = ln / 2.0
        h_min = 2.0 * sjac.min(axis=1)

    fscale = np.repeat(sjac / jac[:, None], Nfp, axis=1)
    nhat = np.repeat(normals, Nfp, axis=1)

    # face node maps
    fnodes = np.array(ref.face_nodes)                     # (Nfaces, Nfp)
    vmapM = (np.arange(K)[:, None] * Np + fnodes.reshape(-1)[None, :])
    vmapP = vmapM.copy()
    kg = np.repeat(elems[:, None], Nfaces, axis=1)
    nbr_g = mesh.etoe[elems]
    nbr_s = glob2sub[nbr_g]
    bnd = nbr_g == kg                                     # mesh boundary
    cut = ~bnd & (nbr_s < 0)                              # cut by the subset
    inner = ~bnd & ~cut
    btag = mesh.boundary_tag[elems]
    face_tag = np.full((K, Nfaces), INTERIOR, dtype=int)
    face_tag[bnd] = btag[bnd]
    beta_sign = np.ones((K, Nfaces))
    beta_sign[inner] = np.where(kg[inner] < nbr_g[inner], 1.0, -1.0)

    # each interior face node takes the neighbor face node nearest to it;
    # the pair must coincide within NODETOL
    xflat = x.reshape(K * Np, dim)
    mine = xflat[vmapM.reshape(K, Nfaces, Nfp)[inner]]    # (I, Nfp, dim)
    theirs_idx = (nbr_s[inner] * Np)[:, None] + fnodes[mesh.etof[elems][inner]]
    theirs = xflat[theirs_idx]
    d2 = sum((mine[:, :, None, d] - theirs[:, None, :, d]) ** 2
             for d in range(dim))                         # (I, Nfp, Nfp)
    match = np.argmin(d2, axis=2)
    vmapP.reshape(K, Nfaces, Nfp)[inner] = np.take_along_axis(theirs_idx, match, 1)
    tol = NODETOL * np.fmax(1.0, np.max(np.abs(mine), axis=(1, 2)))
    mismatch = np.zeros((K, Nfaces), dtype=bool)
    mismatch[inner] = np.max(np.sqrt(d2.min(axis=2)), axis=1) > tol

    # errors name the first bad face in (element, face) order; the cut
    # rule is called once per cut face in that order, up to that face
    untagged = bnd & (btag < 0)
    bad = untagged | mismatch
    if cut_face_tag is None:
        bad |= cut
    first_bad = np.flatnonzero(bad)[0] if np.any(bad) else bad.size
    if cut_face_tag is not None:
        for ks, f in np.argwhere(cut):
            if ks * Nfaces + f >= first_bad:
                break
            face_tag[ks, f] = TAG_INDEX[cut_face_tag(elems[ks], int(f),
                                                     nbr_g[ks, f])]
    if first_bad < bad.size:
        ks, f = divmod(int(first_bad), Nfaces)
        if untagged[ks, f]:
            raise MeshError(f"untagged boundary face ({elems[ks]},{f})")
        if cut[ks, f]:
            raise MeshError("element subset cuts an interior face and "
                            "no cut_face_tag rule was given")
        raise MeshError(f"face node mismatch between elements {elems[ks]} "
                        f"and {nbr_g[ks, f]}")

    return Discretization(
        ref=ref, mesh=mesh, elems=elems, x=x, jac=jac, metric=metric,
        sjac=sjac, fscale=fscale, nhat=nhat,
        vmapM=vmapM, vmapP=vmapP, face_tag=face_tag, beta_sign=beta_sign,
        h_elem=h_min)


def locate_points(disc, points):
    """Element index and reference coordinates for each query point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = []
    verts = disc.mesh.vertices[disc.mesh.elements[disc.elems]]
    for pt in points:
        if disc.ref.dim == 1:
            inside = (verts[:, 0, 0] - 1e-12 <= pt[0]) & (pt[0] <= verts[:, 1, 0] + 1e-12)
            cand = np.flatnonzero(inside)
            if len(cand) == 0:
                raise MeshError(f"point {pt} outside the mesh")
            k = int(cand[0])
            h = verts[k, 1, 0] - verts[k, 0, 0]
            out.append((k, np.array([2 * (pt[0] - verts[k, 0, 0]) / h - 1.0])))
        else:
            v0 = verts[:, 0]
            a = np.stack([verts[:, 1] - v0, verts[:, 2] - v0], axis=2)
            rhs = pt[None, :] - v0
            det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
            l1 = (rhs[:, 0] * a[:, 1, 1] - rhs[:, 1] * a[:, 0, 1]) / det
            l2 = (rhs[:, 1] * a[:, 0, 0] - rhs[:, 0] * a[:, 1, 0]) / det
            ok = (l1 >= -1e-10) & (l2 >= -1e-10) & (l1 + l2 <= 1 + 1e-10)
            cand = np.flatnonzero(ok)
            if len(cand) == 0:
                raise MeshError(f"point {pt} outside the mesh")
            k = int(cand[0])
            out.append((k, np.array([2 * l1[k] - 1.0, 2 * l2[k] - 1.0])))
    return out


def interpolation_rows(disc, points):
    """Element index and interpolation row basis(r) @ inv(V) of each point:
    a nodal field u takes the value rows[i] @ u[elems[i]] at point i."""
    locs = locate_points(disc, points)
    ref = disc.ref
    modes, _grads = modal_basis(ref.dim, ref.p,
                                np.array([rc for _, rc in locs]))
    Vinv = np.linalg.inv(ref.vandermonde)
    # one vector-matrix product per point, which rounds as the probe rows
    # always have (one matrix product does not)
    rows = np.array([m @ Vinv for m in np.ascontiguousarray(modes)])
    return np.array([k for k, _ in locs], dtype=int), rows


def interpolate(u, elems, rows):
    """Values of the nodal field u at the points of interpolation_rows."""
    vals = np.zeros(len(elems))
    for i, (k, row) in enumerate(zip(elems, rows)):
        vals[i] = row @ u[k]
    return vals
