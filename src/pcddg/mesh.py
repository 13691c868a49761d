"""Interval and triangle meshes: generation, face connectivity, boundary
tags, and space-scale resolution diagnostics.

Set-up is array-based: the element list, the region of each element, the
face connectivity (faces keyed by their sorted vertex ids, matched with
np.unique) and the boundary tags (the first tag box holding a face
centroid wins) are numpy operations over all elements at once."""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import physics as ph
from .refelem import MeshError

BOUNDARY_TAGS = ("PEC", "ABC", "PML_INTERFACE", "ELECTRODE_D",
                 "INSULATOR_R", "SOURCE_APERTURE")
TAG_INDEX = {t: i for i, t in enumerate(BOUNDARY_TAGS)}
INTERIOR = -1

_FACE_VERTS_2D = ((0, 1), (1, 2), (2, 0))


@dataclass
class Mesh:
    dim: int
    vertices: np.ndarray          # (Nv, dim)
    elements: np.ndarray          # (K, dim+1) vertex indices
    region_id: np.ndarray         # (K,)
    region_names: dict = field(default_factory=dict)   # id -> name
    etoe: np.ndarray = None       # (K, Nfaces) neighbor element (self if none)
    etof: np.ndarray = None       # (K, Nfaces) neighbor local face
    boundary_tag: np.ndarray = None  # (K, Nfaces) tag index, INTERIOR inside

    @property
    def K(self):
        return self.elements.shape[0]

    @property
    def Nfaces(self):
        return self.dim + 1

    def volumes(self):
        if self.dim == 1:
            return self.vertices[self.elements[:, 1], 0] - self.vertices[self.elements[:, 0], 0]
        v = self.vertices[self.elements]
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        # signed area: negative flags an inverted triangle
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])

    def edge_lengths(self):
        """Shortest and longest edge per element."""
        if self.dim == 1:
            h = self.volumes()
            return h, h
        v = self.vertices[self.elements]
        e = np.stack([np.linalg.norm(v[:, b] - v[:, a], axis=1)
                      for a, b in _FACE_VERTS_2D], axis=1)
        return e.min(axis=1), e.max(axis=1)

    def centroids(self):
        return self.vertices[self.elements].mean(axis=1)

    def content_hash(self):
        hsh = hashlib.sha256()
        hsh.update(np.ascontiguousarray(self.vertices).tobytes())
        hsh.update(np.ascontiguousarray(self.elements).tobytes())
        hsh.update(np.ascontiguousarray(self.region_id).tobytes())
        hsh.update(np.ascontiguousarray(self.boundary_tag).tobytes())
        return hsh.hexdigest()[:16]


def _face_vertices(mesh):
    """(K, Nfaces, dim) vertex ids of every face, sorted within a face."""
    if mesh.dim == 1:
        return mesh.elements[:, :, None]
    return np.sort(mesh.elements[:, np.array(_FACE_VERTS_2D)], axis=2)


def build_face_connectivity(mesh):
    """Fill etoe/etof by matching face vertex sets; errors on non-manifold faces."""
    K, nf = mesh.K, mesh.Nfaces
    fv = _face_vertices(mesh).reshape(K * nf, -1)
    key = fv[:, 0].astype(np.int64)
    if mesh.dim == 2:
        key = key * (int(mesh.elements.max()) + 1) + fv[:, 1]
    _, first, inv, count = np.unique(key, return_index=True,
                                     return_inverse=True, return_counts=True)
    inv = inv.reshape(-1)
    if np.any(count > 2):
        # the first face, in element order, of a key with too many elements
        i = np.argmin(np.where(count > 2, first, K * nf))
        raise MeshError(f"non-manifold face {tuple(fv[first[i]])}: "
                        f"{count[i]} incident elements")
    mesh.etoe = np.tile(np.arange(K)[:, None], (1, nf))
    mesh.etof = np.tile(np.arange(nf)[None, :], (K, 1))
    # faces grouped by key, each group in element order: a shared key's
    # two faces are adjacent
    order = np.argsort(inv, kind="stable")
    start = np.cumsum(count) - count
    a = order[start[count == 2]]
    b = order[start[count == 2] + 1]
    etoe, etof = mesh.etoe.reshape(-1), mesh.etof.reshape(-1)
    etoe[a], etof[a] = b // nf, b % nf
    etoe[b], etof[b] = a // nf, a % nf
    if mesh.boundary_tag is None:
        mesh.boundary_tag = np.full((K, nf), INTERIOR, dtype=int)
    return mesh


def validate_mesh(mesh):
    vols = mesh.volumes()
    if np.any(vols <= 0):
        k = int(np.argmin(vols))
        raise MeshError(f"inverted element {k} (volume {vols[k]:.3e})")
    used = np.unique(mesh.elements)
    if len(used) != mesh.vertices.shape[0]:
        orphan = sorted(set(range(mesh.vertices.shape[0])) - set(used.tolist()))
        raise MeshError(f"orphan vertices {orphan[:5]}")
    interior = mesh.etoe != np.arange(mesh.K)[:, None]
    both = interior & (mesh.boundary_tag >= 0)
    if np.any(both):
        k, f = np.argwhere(both)[0]
        raise MeshError(f"interior face ({k},{f}) carries a boundary tag")
    missing = (~interior) & (mesh.boundary_tag < 0)
    if np.any(missing):
        k, f = np.argwhere(missing)[0]
        raise MeshError(f"boundary face (element {k}, face {f}) has no tag")
    return mesh


# ---------------------------------------------------------------------------
# generation

@dataclass
class RegionBox:
    name: str
    lo: np.ndarray
    hi: np.ndarray
    h: float


@dataclass
class MeshSpec:
    dim: int
    lo: np.ndarray
    hi: np.ndarray
    regions: list                     # of RegionBox
    tag_boxes: list = field(default_factory=list)   # (tag_name, lo, hi)
    default_tag: str = "PEC"


def make_spec(dim, lo, hi, regions, tag_boxes=(), default_tag="PEC"):
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    regs = [RegionBox(name, np.atleast_1d(np.asarray(a, dtype=float)),
                      np.atleast_1d(np.asarray(b, dtype=float)), float(h))
            for name, a, b, h in regions]
    tags = [(t, np.atleast_1d(np.asarray(a, dtype=float)),
             np.atleast_1d(np.asarray(b, dtype=float))) for t, a, b in tag_boxes]
    return MeshSpec(dim, lo, hi, regs, tags, default_tag)


def _axis_breaks(spec, axis):
    cuts = {spec.lo[axis], spec.hi[axis]}
    for r in spec.regions:
        cuts.add(r.lo[axis])
        cuts.add(r.hi[axis])
    cuts = sorted(c for c in cuts if spec.lo[axis] - 1e-15 <= c <= spec.hi[axis] + 1e-15)
    pts = [cuts[0]]
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a < 1e-15:
            continue
        mid = 0.5 * (a + b)
        hs = [r.h for r in spec.regions
              if r.lo[axis] - 1e-12 <= mid <= r.hi[axis] + 1e-12]
        h = min(hs) if hs else (b - a)
        n = max(1, int(np.ceil((b - a) / h - 1e-9)))
        pts.extend(np.linspace(a, b, n + 1)[1:])
    return np.array(pts)


def _in_boxes(points, lo, hi):
    """(n, nbox) bool: point i lies in box j, with a 1e-12 tolerance."""
    pts = points[:, None, :]
    return np.all((lo[None] - 1e-12 <= pts) & (pts <= hi[None] + 1e-12), axis=2)


def _region_of(spec, points):
    """Region index of each point; every point must lie in exactly one box."""
    hits = _in_boxes(points, np.array([r.lo for r in spec.regions]),
                     np.array([r.hi for r in spec.regions]))
    n_hit = hits.sum(axis=1)
    if np.any(n_hit != 1):
        i = int(np.argmax(n_hit != 1))
        if n_hit[i] == 0:
            raise MeshError(f"point {points[i]} not covered by any region box")
        names = [r.name for r, hit in zip(spec.regions, hits[i]) if hit]
        raise MeshError(f"overlapping region boxes {names} at {points[i]}")
    return np.argmax(hits, axis=1)


def generate_structured_mesh(spec):
    """Structured mesh from a box spec: intervals in 1D, diagonally split
    right triangles in 2D, with per-region target edge lengths."""
    if np.any(spec.hi <= spec.lo):
        raise MeshError("domain extents must be positive")
    if spec.dim == 1:
        x = _axis_breaks(spec, 0)
        verts = x.reshape(-1, 1)
        K = len(x) - 1
        elems = np.column_stack([np.arange(K), np.arange(1, K + 1)])
    else:
        x = _axis_breaks(spec, 0)
        y = _axis_breaks(spec, 1)
        nx, ny = len(x), len(y)
        xx, yy = np.meshgrid(x, y, indexing="ij")
        verts = np.column_stack([xx.ravel(), yy.ravel()])
        # two triangles per grid cell, cells in (i, j) order
        v00 = (np.arange(nx - 1)[:, None] * ny + np.arange(ny - 1)).ravel()
        v10, v01, v11 = v00 + ny, v00 + 1, v00 + ny + 1
        elems = np.stack([np.stack([v00, v10, v11], axis=1),
                          np.stack([v00, v11, v01], axis=1)],
                         axis=1).reshape(-1, 3)
    mesh = Mesh(dim=spec.dim, vertices=verts, elements=np.asarray(elems),
                region_id=np.zeros(len(elems), dtype=int))
    mesh.region_id = _region_of(spec, mesh.centroids())
    mesh.region_names = {i: r.name for i, r in enumerate(spec.regions)}
    build_face_connectivity(mesh)
    _apply_boundary_tags(mesh, spec)
    return validate_mesh(mesh)


def _apply_boundary_tags(mesh, spec):
    for t, _, _ in spec.tag_boxes:
        if t not in TAG_INDEX:
            raise MeshError(f"unknown boundary tag {t!r}")
    if spec.default_tag not in TAG_INDEX:
        raise MeshError(f"unknown boundary tag {spec.default_tag!r}")
    on_boundary = mesh.etoe == np.arange(mesh.K)[:, None]
    fv = _face_vertices(mesh)[on_boundary]
    if mesh.dim == 1:
        cent = mesh.vertices[fv[:, 0]]
    else:
        cent = 0.5 * (mesh.vertices[fv[:, 0]] + mesh.vertices[fv[:, 1]])
    # the first tag box holding the face centroid wins
    tags = np.array([TAG_INDEX[t] for t, _, _ in spec.tag_boxes]
                    + [TAG_INDEX[spec.default_tag]])
    hits = np.ones((len(cent), len(tags)), dtype=bool)
    if spec.tag_boxes:
        hits[:, :-1] = _in_boxes(cent, np.array([b[1] for b in spec.tag_boxes]),
                                 np.array([b[2] for b in spec.tag_boxes]))
    mesh.boundary_tag[on_boundary] = tags[np.argmax(hits, axis=1)]


# ---------------------------------------------------------------------------
# resolution diagnostics

@dataclass
class ResolutionReport:
    per_region: dict              # name -> dict of length scales (m)
    peclet_flags: np.ndarray      # element indices violating Delta_d * C_P < 1
    text: str

    def __str__(self):
        return self.text


def resolution_report(mesh, materials, n_est, e_est, p=2, wavelength=None):
    """Length-scale diagnostics: Debye length, inverse Peclet bound, skin
    depth, wavelength-per-order, and per-region edge-length ranges."""
    hmin, hmax = mesh.edge_lengths()
    vt = ph.thermal_voltage(materials.temperature)
    per_region = {}
    flags = []
    lines = ["region        h_min(nm)  h_max(nm)  l_D(nm)  C_P^-1(nm)  l_skin(nm)  lam/(2p+1)(nm)"]
    for rid, name in sorted(mesh.region_names.items()):
        sel = mesh.region_id == rid
        if not np.any(sel):
            continue
        mat = materials.region(name)
        entry = {"h_min": float(hmin[sel].min()), "h_max": float(hmax[sel].max())}
        debye = peclet_inv = skin = lam_p = None
        if mat.semiconductor:
            eps = mat.eps_r * ph.EPS0
            debye = np.sqrt(2.0 * eps * vt / (ph.Q * n_est))
            peclet_inv = 2.0 * vt / e_est if e_est > 0 else np.inf
            entry["debye"] = debye
            entry["inv_peclet"] = peclet_inv
            bad = sel & (hmax > peclet_inv)
            flags.extend(np.flatnonzero(bad).tolist())
        if mat.drude is not None and wavelength is not None:
            om = 2 * np.pi * ph.C0 / wavelength
            epsw = mat.drude.eps_inf - mat.drude.omega_p ** 2 / (om ** 2 + 1j * mat.drude.gamma * om)
            kap = np.imag(np.sqrt(epsw + 0j)) * om / ph.C0
            skin = 1.0 / kap if kap > 0 else np.inf
            entry["skin_depth"] = skin
        if wavelength is not None:
            lam_p = wavelength / np.sqrt(max(mat.eps_r, 1.0)) / (2 * p + 1)
            entry["wavelength_per_order"] = lam_p
        per_region[name] = entry
        fmt = lambda v: f"{v * 1e9:9.1f}" if v is not None and np.isfinite(v) else "        -"
        lines.append(f"{name:12s} {fmt(entry['h_min'])} {fmt(entry['h_max'])}"
                     f" {fmt(debye)} {fmt(peclet_inv)} {fmt(skin)} {fmt(lam_p)}")
    flags = np.array(sorted(set(flags)), dtype=int)
    if len(flags):
        lines.append(f"WARNING: {len(flags)} elements violate the Peclet bound"
                     f" (longest edge * C_P >= 1)")
    return ResolutionReport(per_region=per_region, peclet_flags=flags,
                            text="\n".join(lines))


def unit_interval_mesh(n, left="ELECTRODE_D", right="ELECTRODE_D",
                       region="semi"):
    """Uniform mesh of n elements on [0, 1] with endpoint tags."""
    spec = make_spec(1, [0.0], [1.0], [(region, [0.0], [1.0], 1.0 / n)],
                     tag_boxes=[(left, [0.0], [0.0]), (right, [1.0], [1.0])],
                     default_tag=left)
    return generate_structured_mesh(spec)
