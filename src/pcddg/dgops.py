"""Mesh-level nodal DG data: physical nodes, metric factors, face node maps,
lift operators, and boundary classification, optionally restricted to an
element subset (the DD/Poisson subdomains)."""

from dataclasses import dataclass

import numpy as np

from .mesh import BOUNDARY_TAGS, INTERIOR
from .refelem import MeshError

NODETOL = 1e-9

_TAG_IDX = {t: i for i, t in enumerate(BOUNDARY_TAGS)}


@dataclass
class Discretization:
    ref: object
    mesh: object
    elems: np.ndarray            # global element ids in this subdomain
    x: np.ndarray                # (K, Np, dim) node coordinates
    jac: np.ndarray              # (K,)
    metric: np.ndarray           # (K, dim, dim): metric[k, nu, d] = d r_d / d x_nu
    normals: np.ndarray          # (K, Nfaces, dim)
    sjac: np.ndarray             # (K, Nfaces)
    fscale: np.ndarray           # (K, Nfaces*Nfp)
    nhat: np.ndarray             # (K, Nfaces*Nfp, dim)
    vmapM: np.ndarray            # (K, Nfaces*Nfp) flat indices into (K*Np)
    vmapP: np.ndarray
    face_tag: np.ndarray         # (K, Nfaces): INTERIOR or BOUNDARY_TAGS index
    beta_sign: np.ndarray        # (K, Nfaces): LDG orientation sign of n_hat
    h_elem: np.ndarray           # (K,) shortest edge

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
        return u.reshape(-1)[self.vmapM]

    def face_plus(self, u):
        return u.reshape(-1)[self.vmapP]

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
        return self.face_expand(self.face_tag == _TAG_IDX[tag])


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
    fidx = np.concatenate(ref.face_nodes)                 # (Nfaces*Nfp,)
    vmapM = (np.arange(K)[:, None] * Np + fidx[None, :])
    vmapP = vmapM.copy()
    face_tag = np.full((K, Nfaces), INTERIOR, dtype=int)
    beta_sign = np.ones((K, Nfaces))
    xflat = x.reshape(K * Np, dim)
    for ks in range(K):
        kg = elems[ks]
        for f in range(Nfaces):
            nbr_g = mesh.etoe[kg, f]
            sl = slice(f * Nfp, (f + 1) * Nfp)
            if nbr_g == kg:                               # mesh boundary
                tag = mesh.boundary_tag[kg, f]
                if tag < 0:
                    raise MeshError(f"untagged boundary face ({kg},{f})")
                face_tag[ks, f] = tag
                continue
            nbr_s = glob2sub[nbr_g]
            if nbr_s < 0:                                 # cut by the subset
                if cut_face_tag is None:
                    raise MeshError("element subset cuts an interior face and "
                                    "no cut_face_tag rule was given")
                face_tag[ks, f] = _TAG_IDX[cut_face_tag(kg, f, nbr_g)]
                continue
            f2 = mesh.etof[kg, f]
            mine = xflat[vmapM[ks, sl]]
            theirs_idx = nbr_s * Np + np.asarray(ref.face_nodes[f2])
            theirs = xflat[theirs_idx]
            d2 = ((mine[:, None, :] - theirs[None, :, :]) ** 2).sum(axis=2)
            match = np.argmin(d2, axis=1)
            if np.max(np.sqrt(d2[np.arange(Nfp), match])) > NODETOL * max(1.0, np.max(np.abs(mine))):
                raise MeshError(f"face node mismatch between elements {kg} and {nbr_g}")
            vmapP[ks, sl] = theirs_idx[match]
            beta_sign[ks, f] = 1.0 if kg < nbr_g else -1.0

    return Discretization(
        ref=ref, mesh=mesh, elems=elems, x=x, jac=jac, metric=metric,
        normals=normals, sjac=sjac, fscale=fscale, nhat=nhat,
        vmapM=vmapM, vmapP=vmapP, face_tag=face_tag, beta_sign=beta_sign,
        h_elem=h_min)


def nodal_field(disc, fn):
    """Sample fn(x[, y]) at the discretization nodes -> (K, Np)."""
    coords = [disc.x[:, :, d] for d in range(disc.ref.dim)]
    return np.asarray(fn(*coords), dtype=float)


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
    from .refelem import jacobi_p, _rstoab, _simplex2dp
    locs = locate_points(disc, points)
    Vinv = np.linalg.inv(disc.ref.vandermonde)
    p = disc.ref.p
    rows = np.zeros((len(locs), disc.Np))
    for i, (k, rc) in enumerate(locs):
        if disc.ref.dim == 1:
            basis = np.array([jacobi_p(rc[:1], 0, 0, j)[0] for j in range(p + 1)])
        else:
            a, b = _rstoab(rc[:1], rc[1:2])
            basis = []
            for ii in range(p + 1):
                for jj in range(p + 1 - ii):
                    basis.append(_simplex2dp(a, b, ii, jj)[0])
            basis = np.array(basis)
        rows[i] = basis @ Vinv
    return np.array([k for k, _ in locs], dtype=int), rows


def interpolate(u, elems, rows):
    """Values of the nodal field u at the points of interpolation_rows."""
    vals = np.zeros(len(elems))
    for i, (k, row) in enumerate(zip(elems, rows)):
        vals[i] = row @ u[k]
    return vals


def evaluate_at_points(disc, u, points):
    """Polynomial evaluation of a nodal field at arbitrary physical points."""
    return interpolate(u, *interpolation_rows(disc, points))
