"""Array-based set-up against the per-element loops it replaced.

The reference functions below are the loop implementations of mesh
generation, face connectivity, boundary tagging, the discretization's face
maps, the stable step and the checkpoint parse, kept verbatim.  Every array
the array-based code builds must equal theirs, value and dtype, and every
error path must keep its exception type and message.
"""

import os

import numpy as np
import pytest

from pcddg import physics as ph
from pcddg.config import parse_config
from pcddg.coupler import stable_timestep
from pcddg.dgops import NODETOL, Discretization, build_discretization
from pcddg.em_dg import MaxwellSolver
from pcddg.mesh import (BOUNDARY_TAGS, INTERIOR, Mesh, _axis_breaks,
                        build_face_connectivity, generate_structured_mesh,
                        make_spec, validate_mesh)
from pcddg.physics import PhysicsError
from pcddg.refelem import MeshError, build_reference_element
from pcddg.stationary import (StationaryProblem, load_checkpoint,
                              save_checkpoint)

from helpers import make_contacts

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_DECK = os.path.join(REPO, "configs", "conventional_pcd.cfg")
LOWBIAS_DECK = os.path.join(REPO, "perfbench", "decks", "pcd1d_lowbias.cfg")

_TAG_IDX = {t: i for i, t in enumerate(BOUNDARY_TAGS)}
_FACE_VERTS_2D = ((0, 1), (1, 2), (2, 0))


# ---------------------------------------------------------------------------
# reference: the loop implementations

def _face_key(mesh, k, f):
    if mesh.dim == 1:
        return (mesh.elements[k, f],)
    a, b = _FACE_VERTS_2D[f]
    return tuple(sorted((mesh.elements[k, a], mesh.elements[k, b])))


def reference_face_connectivity(mesh):
    """Fill etoe/etof by matching face vertex sets; errors on non-manifold faces."""
    K, nf = mesh.K, mesh.Nfaces
    faces = {}
    for k in range(K):
        for f in range(nf):
            faces.setdefault(_face_key(mesh, k, f), []).append((k, f))
    mesh.etoe = np.tile(np.arange(K)[:, None], (1, nf))
    mesh.etof = np.tile(np.arange(nf)[None, :], (K, 1))
    for key, inc in faces.items():
        if len(inc) > 2:
            raise MeshError(f"non-manifold face {key}: {len(inc)} incident elements")
        if len(inc) == 2:
            (k1, f1), (k2, f2) = inc
            mesh.etoe[k1, f1] = k2
            mesh.etof[k1, f1] = f2
            mesh.etoe[k2, f2] = k1
            mesh.etof[k2, f2] = f1
    if mesh.boundary_tag is None:
        mesh.boundary_tag = np.full((K, nf), INTERIOR, dtype=int)
    return mesh


def _region_of(spec, point):
    hits = [i for i, r in enumerate(spec.regions)
            if np.all(r.lo - 1e-12 <= point) and np.all(point <= r.hi + 1e-12)]
    if len(hits) == 0:
        raise MeshError(f"point {point} not covered by any region box")
    if len(hits) > 1:
        names = [spec.regions[i].name for i in hits]
        raise MeshError(f"overlapping region boxes {names} at {point}")
    return hits[0]


def reference_generate_structured_mesh(spec):
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
        elems = []
        for i in range(nx - 1):
            for j in range(ny - 1):
                v00 = i * ny + j
                v10 = (i + 1) * ny + j
                v01 = i * ny + j + 1
                v11 = (i + 1) * ny + j + 1
                elems.append([v00, v10, v11])
                elems.append([v00, v11, v01])
        elems = np.asarray(elems)
    mesh = Mesh(dim=spec.dim, vertices=verts, elements=np.asarray(elems),
                region_id=np.zeros(len(elems), dtype=int))
    cent = mesh.centroids()
    mesh.region_id = np.array([_region_of(spec, c) for c in cent])
    mesh.region_names = {i: r.name for i, r in enumerate(spec.regions)}
    reference_face_connectivity(mesh)
    reference_apply_boundary_tags(mesh, spec)
    return validate_mesh(mesh)


def _face_centroid(mesh, k, f):
    if mesh.dim == 1:
        return mesh.vertices[mesh.elements[k, f]]
    a, b = _FACE_VERTS_2D[f]
    return 0.5 * (mesh.vertices[mesh.elements[k, a]] + mesh.vertices[mesh.elements[k, b]])


def reference_apply_boundary_tags(mesh, spec):
    tag_idx = {t: i for i, t in enumerate(BOUNDARY_TAGS)}
    for t, _, _ in spec.tag_boxes:
        if t not in tag_idx:
            raise MeshError(f"unknown boundary tag {t!r}")
    if spec.default_tag not in tag_idx:
        raise MeshError(f"unknown boundary tag {spec.default_tag!r}")
    on_boundary = mesh.etoe == np.arange(mesh.K)[:, None]
    for k, f in np.argwhere(on_boundary):
        c = _face_centroid(mesh, k, f)
        tag = spec.default_tag
        for t, lo, hi in spec.tag_boxes:
            if np.all(lo - 1e-12 <= c) and np.all(c <= hi + 1e-12):
                tag = t
                break
        mesh.boundary_tag[k, f] = tag_idx[tag]


def reference_build_discretization(mesh, ref, element_mask=None, cut_face_tag=None):
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
        sjac=sjac, fscale=fscale, nhat=nhat,
        vmapM=vmapM, vmapP=vmapP, face_tag=face_tag, beta_sign=beta_sign,
        h_elem=h_min)


def reference_stable_timestep(system, disc, materials, state_estimate=None,
                              safety=0.8, detail=False):
    """Largest stable explicit step for 'maxwell' or 'dd'.

    state_estimate for the DD bound is a dict with 'e_mag' (V/m); v = mu|E|
    per carrier (the DD step takes diffusion implicitly).  Returns +inf
    when no term limits the step.
    """
    p, dim = disc.ref.p, disc.ref.dim
    mesh = disc.mesh
    mats = [materials.region(mesh.region_names[mesh.region_id[k]])
            for k in disc.elems]
    h = disc.h_elem
    bounds = []   # (dt, label, element)
    if system == "maxwell":
        # LSRK45 on the upwind operator: in 1D F = (2p+1)(0.42 + 0.081 p),
        # fitted above the PEC limit; in 2D F = 2p+1
        factor = (2 * p + 1) * (0.42 + 0.081 * p) if dim == 1 else 2 * p + 1
        for k, m in enumerate(mats):
            eps_r = m.drude.eps_inf if m.drude else m.eps_r
            c = ph.C0 / np.sqrt(eps_r * m.mu_r)
            bounds.append((h[k] / (c * factor), "maxwell_cfl", k))
            if m.drude:
                # the plasma frequency over 3.3, in quadrature
                bounds.append((h[k] / np.hypot(c * factor,
                                               m.drude.omega_p * h[k] / 3.3),
                               "drude_plasma", k))
    elif system == "dd":
        e_mag = 0.0 if state_estimate is None else float(state_estimate.get("e_mag", 0.0))
        for k, m in enumerate(mats):
            if not m.semiconductor:
                continue
            for carrier in ("e", "h"):
                v = ph.parallel_field_mobility(e_mag, carrier, m) * e_mag
                if v > 0:
                    bounds.append((h[k] / (v * (2 * p + 1)), f"drift_{carrier}", k))
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


def reference_checkpoint_data(lines):
    return np.array([[float(v) for v in ln.split()]
                     for ln in lines if not ln.startswith("#")])


# ---------------------------------------------------------------------------
# cases

UM = 1e-6


def grating_case():
    """The grated Maxwell benchmark case: K = 880, a Drude gold bar."""
    width, h, bar_w, bar_t = 0.5e-6, 5e-8, 0.2e-6, 0.1e-6
    y_semi, height = 1.0e-6, 2.2e-6
    x0 = 0.5 * (width - bar_w)
    regions = [("semi", [0.0, 0.0], [width, y_semi], h),
               ("au", [x0, y_semi], [x0 + bar_w, y_semi + bar_t], h),
               ("vacL", [0.0, y_semi], [x0, y_semi + bar_t], h),
               ("vacR", [x0 + bar_w, y_semi], [width, y_semi + bar_t], h),
               ("vacT", [0.0, y_semi + bar_t], [width, height], h)]
    table = ph.MaterialTable({"semi": ph.lt_gaas(), "au": ph.gold(),
                              "vacL": ph.vacuum(), "vacR": ph.vacuum(),
                              "vacT": ph.vacuum()})
    spec = make_spec(2, [0.0, 0.0], [width, height], regions,
                     tag_boxes=[("SOURCE_APERTURE", [0.0, height], [width, height])],
                     default_tag="PEC")
    return spec, table


def electrodes_case():
    """Two gold electrodes on LT-GaAs with vacuum between them; the last
    tag box overlaps the others, which take precedence."""
    spec = make_spec(
        2, [0, 0], [2 * UM, 1.2 * UM],
        [("semi", [0, 0], [2 * UM, 1 * UM], 0.1 * UM),
         ("auL", [0, 1 * UM], [0.5 * UM, 1.2 * UM], 0.1 * UM),
         ("auR", [1.5 * UM, 1 * UM], [2 * UM, 1.2 * UM], 0.1 * UM),
         ("vac", [0.5 * UM, 1 * UM], [1.5 * UM, 1.2 * UM], 0.1 * UM)],
        tag_boxes=[("ELECTRODE_D", [0, 1.2 * UM], [0.5 * UM, 1.2 * UM]),
                   ("ELECTRODE_D", [1.5 * UM, 1.2 * UM], [2 * UM, 1.2 * UM]),
                   ("ABC", [0, 0], [2 * UM, 0]),
                   ("INSULATOR_R", [0, 0], [2 * UM, 1.2 * UM])],
        default_tag="PEC")
    table = ph.MaterialTable({"semi": ph.lt_gaas(), "auL": ph.gold(),
                              "auR": ph.gold(), "vac": ph.vacuum()})
    return spec, table


def deck_case(path):
    cfg = parse_config(path)
    return cfg.mesh_spec(), cfg.material_table()


CASES = {"shipped": lambda: deck_case(SHIPPED_DECK),
         "lowbias": lambda: deck_case(LOWBIAS_DECK),
         "grating": grating_case,
         "electrodes": electrodes_case}

MESH_ARRAYS = ("vertices", "elements", "region_id", "etoe", "etof",
               "boundary_tag")
DISC_ARRAYS = ("elems", "x", "jac", "metric", "sjac", "fscale", "nhat",
               "vmapM", "vmapP", "face_tag", "beta_sign", "h_elem")


def assert_same_arrays(got, want, names):
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name


def subset_masks(mesh, table):
    """The Poisson (non-metal) and DD (semiconductor) element masks and the
    cut rules StationaryProblem gives them."""
    mats = [table.region(mesh.region_names[r]) for r in mesh.region_id]
    metal = np.array([m.drude is not None for m in mats])
    semi = np.array([m.semiconductor for m in mats])
    return {"full": (None, None),
            "poisson": (~metal, lambda k, f, n: "ELECTRODE_D"),
            "dd": (semi, lambda k, f, n:
                   "ELECTRODE_D" if metal[n] else "INSULATOR_R")}


def recorded(rule, calls):
    def wrapped(k, f, n):
        calls.append((type(k), k, type(f), f, type(n), n))
        return rule(k, f, n)
    return wrapped


def error_of(fn, *args, **kw):
    with pytest.raises(Exception) as info:
        fn(*args, **kw)
    return type(info.value), str(info.value)


# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", sorted(CASES))
class TestMeshOracle:
    def test_mesh_arrays(self, case):
        spec, _ = CASES[case]()
        got = generate_structured_mesh(spec)
        want = reference_generate_structured_mesh(spec)
        assert_same_arrays(got, want, MESH_ARRAYS)
        assert got.region_names == want.region_names
        assert got.content_hash() == want.content_hash()

    def test_connectivity_of_any_element_order(self, case):
        # shuffled elements and rotated vertex lists: no structured order
        # to lean on
        spec, _ = CASES[case]()
        base = generate_structured_mesh(spec)
        rng = np.random.default_rng(7)
        perm = rng.permutation(base.K)
        elems = base.elements[perm]
        if base.dim == 2:
            shift = rng.integers(0, 3, base.K)
            elems = np.take_along_axis(
                elems, (np.arange(3)[None, :] + shift[:, None]) % 3, axis=1)
        meshes = [Mesh(dim=base.dim, vertices=base.vertices, elements=elems,
                       region_id=base.region_id[perm]) for _ in range(2)]
        build_face_connectivity(meshes[0])
        reference_face_connectivity(meshes[1])
        assert_same_arrays(meshes[0], meshes[1], ("etoe", "etof", "boundary_tag"))


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_discretization_arrays(case, p):
    spec, table = CASES[case]()
    mesh = generate_structured_mesh(spec)
    ref = build_reference_element(mesh.dim, p)
    for name, (mask, rule) in subset_masks(mesh, table).items():
        calls_got, calls_want = [], []
        got = build_discretization(
            mesh, ref, element_mask=mask,
            cut_face_tag=None if rule is None else recorded(rule, calls_got))
        want = reference_build_discretization(
            mesh, ref, element_mask=mask,
            cut_face_tag=None if rule is None else recorded(rule, calls_want))
        assert_same_arrays(got, want, DISC_ARRAYS)
        assert calls_got == calls_want, name
        if case == "electrodes" and name != "full":
            assert calls_got, "the subset cuts faces"


def test_electrodes_exercise_both_cut_rules():
    spec, table = electrodes_case()
    mesh = generate_structured_mesh(spec)
    dd = build_discretization(mesh, build_reference_element(2, 1),
                              *subset_masks(mesh, table)["dd"])
    tags = set(dd.face_tag[dd.face_tag >= 0].tolist())
    assert {_TAG_IDX["ELECTRODE_D"], _TAG_IDX["INSULATOR_R"]} <= tags


class TestStableTimestepOracle:
    def test_grating_maxwell(self):
        spec, table = grating_case()
        disc = build_discretization(generate_structured_mesh(spec),
                                    build_reference_element(2, 2))
        got = stable_timestep("maxwell", disc, table, detail=True)
        want = reference_stable_timestep("maxwell", disc, table, detail=True)
        assert got == want
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()]

    def test_gold_layer_1d(self):
        # 1D gold at h = 50 nm: the plasma frequency limits the step
        spec = make_spec(1, [0.0], [1e-6],
                         [("vac", [0.0], [0.2e-6], 5e-8),
                          ("au", [0.2e-6], [1e-6], 5e-8)])
        table = ph.MaterialTable({"vac": ph.vacuum(), "au": ph.gold()})
        disc = build_discretization(generate_structured_mesh(spec),
                                    build_reference_element(1, 1))
        got = stable_timestep("maxwell", disc, table, detail=True)
        assert got == reference_stable_timestep("maxwell", disc, table,
                                                detail=True)
        assert got["bound"] == "drude_plasma"

    @pytest.mark.parametrize("e_mag", [0.0, 1e5, 3e7])
    def test_lowbias_both_systems(self, e_mag):
        cfg = parse_config(LOWBIAS_DECK)
        mesh, table = cfg.build_mesh(), cfg.material_table()
        em = build_discretization(mesh, build_reference_element(1, cfg.p_em))
        prob = StationaryProblem(mesh, table, cfg.contacts, p=cfg.p_em)
        for system, disc, est in (("maxwell", em, None),
                                  ("dd", prob.ddisc, {"e_mag": e_mag}),
                                  ("dd", em, {"e_mag": e_mag})):
            got = stable_timestep(system, disc, table, state_estimate=est,
                                  safety=cfg.safety, detail=True)
            want = reference_stable_timestep(system, disc, table,
                                             state_estimate=est,
                                             safety=cfg.safety, detail=True)
            assert got == want
            assert ([type(v) for v in got.values()]
                    == [type(v) for v in want.values()])

    def test_no_semiconductor_has_no_dd_bound(self):
        spec, table = grating_case()
        mesh = generate_structured_mesh(spec)
        mask = mesh.region_id != 0
        disc = build_discretization(mesh, build_reference_element(2, 1),
                                    element_mask=mask,
                                    cut_face_tag=lambda k, f, n: "PEC")
        got = stable_timestep("dd", disc, table, detail=True)
        assert got == reference_stable_timestep("dd", disc, table, detail=True)
        assert got["bound"] == "none" and got["element"] == -1


def test_checkpoint_parse_matches_float(tmp_path):
    cfg = parse_config(LOWBIAS_DECK)
    mesh, table = cfg.build_mesh(), cfg.material_table()
    prob = StationaryProblem(mesh, table, cfg.contacts, p=2)
    rng = np.random.default_rng(3)
    phi, n_e, n_h = prob.equilibrium_initial_guess()
    phi = phi * (1.0 + 1e-3 * rng.standard_normal(phi.shape))
    path = tmp_path / "s.chk"
    save_checkpoint(path, prob, prob._finalize(phi, n_e, n_h, []))
    with open(path) as fh:
        data = reference_checkpoint_data(fh.readlines())
    got = load_checkpoint(path, prob)
    d = prob.pdisc
    assert np.array_equal(got.phi, data[:, 0].reshape(d.K, d.Np))
    assert np.array_equal(got.n_e, data[:, 1].reshape(d.K, d.Np)[prob.semi_in_p])
    assert np.array_equal(got.n_h, data[:, 2].reshape(d.K, d.Np)[prob.semi_in_p])


# ---------------------------------------------------------------------------
# error paths keep their type and message

class TestErrorPaths:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_uncovered_point(self, dim):
        lo, hi = [0.0] * dim, [1.0] * dim
        spec = make_spec(dim, lo, hi,
                         regions=[("a", lo, [0.5] + [1.0] * (dim - 1), 0.25)])
        got = error_of(generate_structured_mesh, spec)
        assert got == error_of(reference_generate_structured_mesh, spec)
        assert got[0] is MeshError and "not covered" in got[1]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_overlapping_boxes(self, dim):
        lo, hi = [0.0] * dim, [1.0] * dim
        spec = make_spec(dim, lo, hi,
                         regions=[("a", lo, [0.7] + [1.0] * (dim - 1), 0.25),
                                  ("b", [0.3] + [0.0] * (dim - 1), hi, 0.25),
                                  ("c", lo, hi, 0.25)])
        got = error_of(generate_structured_mesh, spec)
        assert got == error_of(reference_generate_structured_mesh, spec)
        assert got[0] is MeshError and "overlapping region boxes ['a', 'c']" in got[1]

    def test_non_manifold_face(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                          [1.0, 1.0], [2.0, 2.0]])
        elems = np.array([[4, 5, 2], [0, 1, 2], [0, 3, 1], [1, 0, 4]])

        def mesh():
            return Mesh(dim=2, vertices=verts, elements=elems,
                        region_id=np.zeros(4, dtype=int))
        got = error_of(build_face_connectivity, mesh())
        assert got == error_of(reference_face_connectivity, mesh())
        assert got[0] is MeshError and "3 incident elements" in got[1]

    def test_face_node_mismatch(self):
        # neighbor faces paired the wrong way round
        spec, table = electrodes_case()
        ref = build_reference_element(2, 2)
        meshes = []
        for _ in range(2):
            m = generate_structured_mesh(spec)
            k = 57
            f = int(np.flatnonzero(m.etoe[k] != k)[0])
            m.etof[k, f] = (m.etof[k, f] + 1) % 3
            meshes.append(m)
        mask, rule = subset_masks(meshes[0], table)["dd"]
        calls_got, calls_want = [], []
        got = error_of(build_discretization, meshes[0], ref, mask,
                       recorded(rule, calls_got))
        want = error_of(reference_build_discretization, meshes[1], ref, mask,
                        recorded(rule, calls_want))
        assert got == want
        assert got[0] is MeshError and "face node mismatch" in got[1]
        assert calls_got == calls_want

    def test_untagged_boundary_face(self):
        spec, _ = grating_case()
        ref = build_reference_element(2, 1)
        meshes = []
        for _ in range(2):
            m = generate_structured_mesh(spec)
            k, f = np.argwhere(m.boundary_tag >= 0)[5]
            m.boundary_tag[k, f] = INTERIOR
            meshes.append(m)
        got = error_of(build_discretization, meshes[0], ref)
        assert got == error_of(reference_build_discretization, meshes[1], ref)
        assert got[0] is MeshError and "untagged boundary face" in got[1]

    def test_cut_face_without_rule(self):
        spec, table = electrodes_case()
        mesh = generate_structured_mesh(spec)
        ref = build_reference_element(2, 1)
        mask, _ = subset_masks(mesh, table)["dd"]
        got = error_of(build_discretization, mesh, ref, mask)
        assert got == error_of(reference_build_discretization, mesh, ref, mask)
        assert got[0] is MeshError and "no cut_face_tag rule" in got[1]

    @pytest.mark.parametrize("gap", [1e-12, 1e-8])
    def test_node_tolerance(self, gap):
        # two triangles paired by hand, their shared edge apart by gap; at
        # micrometre coordinates the tolerance is NODETOL itself
        verts = UM * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                               [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        verts[3:] += gap
        mesh = Mesh(dim=2, vertices=verts, elements=np.array([[0, 1, 2], [3, 4, 5]]),
                    region_id=np.zeros(2, dtype=int),
                    etoe=np.array([[0, 1, 0], [1, 1, 0]]),
                    etof=np.array([[0, 2, 2], [0, 1, 1]]),
                    boundary_tag=np.array([[0, -1, 0], [0, 0, -1]]))
        ref = build_reference_element(2, 3)
        if gap < NODETOL:
            got = build_discretization(mesh, ref)
            want = reference_build_discretization(mesh, ref)
            assert_same_arrays(got, want, DISC_ARRAYS)
            assert not np.array_equal(got.vmapP, got.vmapM)
        else:
            got = error_of(build_discretization, mesh, ref)
            assert got == error_of(reference_build_discretization, mesh, ref)
            assert got[0] is MeshError and "face node mismatch" in got[1]

    def test_unknown_regions_named_in_element_order(self):
        # the first element's region is the first one looked up
        spec, table = grating_case()
        mesh = generate_structured_mesh(spec)
        partial = ph.MaterialTable({k: v for k, v in table.materials.items()
                                    if k not in ("semi", "vacT")})
        disc = build_discretization(mesh, build_reference_element(2, 1))
        assert mesh.region_names[mesh.region_id[0]] == "semi"
        for fn in (lambda: stable_timestep("maxwell", disc, partial),
                   lambda: MaxwellSolver(disc, partial)):
            with pytest.raises(PhysicsError, match="unknown material region 'semi'"):
                fn()
        mats, idx = table.element_materials(mesh, disc.elems[::-1])
        assert mats[0].name == table.region(
            mesh.region_names[mesh.region_id[-1]]).name
        assert [mats[i] for i in idx] == [
            table.region(mesh.region_names[r]) for r in mesh.region_id[::-1]]

    def test_first_error_in_face_order(self):
        # a mismatch, an untagged face and a cut face without a rule in one
        # subset: both name the same first face
        spec, table = electrodes_case()
        ref = build_reference_element(2, 1)
        meshes = []
        for _ in range(2):
            m = generate_structured_mesh(spec)
            m.boundary_tag[np.argwhere(m.boundary_tag >= 0)[-1][0], :] = INTERIOR
            f = int(np.flatnonzero(m.etoe[300] != 300)[0])
            m.etof[300, f] = (m.etof[300, f] + 1) % 3
            meshes.append(m)
        mask, _ = subset_masks(meshes[0], table)["dd"]
        for args in ((), (mask,)):
            got = error_of(build_discretization, meshes[0], ref, *args)
            assert got == error_of(reference_build_discretization, meshes[1],
                                   ref, *args)


# ---------------------------------------------------------------------------
# compatibility pins: mesh hashes of checkpoints written before array set-up

class TestMeshHashPins:
    @pytest.mark.parametrize("deck", [SHIPPED_DECK, LOWBIAS_DECK])
    def test_decks(self, deck):
        assert parse_config(deck).build_mesh().content_hash() == "1ddff9d3b4c8abe7"

    def test_grating(self):
        spec, _ = grating_case()
        assert generate_structured_mesh(spec).content_hash() == "7707bbd16743df06"


def test_electrode_problem_builds():
    # the two-electrode device is a valid stationary problem: both cut
    # rules feed its Poisson and DD subdomains
    spec, table = electrodes_case()
    contacts = make_contacts([("anode", [0, UM], [0.5 * UM, 1.2 * UM], 1.0),
                              ("cathode", [1.5 * UM, UM], [2 * UM, 1.2 * UM], 0.0)])
    prob = StationaryProblem(generate_structured_mesh(spec), table, contacts, p=2)
    assert prob.ddisc.K == 400 and prob.pdisc.K == 440
