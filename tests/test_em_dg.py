import numpy as np
import pytest

from pcddg import physics as ph
from pcddg.coupler import lsrk45_step, stable_timestep
from pcddg.dgops import build_discretization, nodal_field
from pcddg.em_dg import MaxwellSolver, PmlSpec, drude_ade_rhs
from pcddg.mesh import generate_structured_mesh, make_spec, unit_interval_mesh
from pcddg.refelem import build_reference_element

C0, EPS0, MU0 = ph.C0, ph.EPS0, ph.MU0
Z0 = np.sqrt(MU0 / EPS0)


def vac_table():
    return ph.MaterialTable(materials={"vac": ph.vacuum(), "metal": ph.gold()})


def interval_solver(n, p, left="PEC", right="PEC", pml=None, hi=1.0):
    mesh = unit_interval_mesh(n, hi=hi, left=left, right=right, region="vac")
    disc = build_discretization(mesh, build_reference_element(1, p))
    return MaxwellSolver(disc, vac_table(), pml=pml), disc


def square_solver(n, p):
    spec = make_spec(2, [0, 0], [1.0, 1.0],
                     regions=[("vac", [0, 0], [1, 1], 1.0 / n)],
                     default_tag="PEC")
    mesh = generate_structured_mesh(spec)
    disc = build_discretization(mesh, build_reference_element(2, p))
    return MaxwellSolver(disc, vac_table()), disc


def face_stars_1d(solver, u):
    """Numerical fluxes (E*, H*) at every face node of a 1D solver, recovered
    from its rhs: the D/B rows minus the volume derivatives are the lifted
    face terms, which the two-column 1D lift determines exactly.  u must
    carry no current and the solver no PML or source."""
    d = solver.disc
    i = solver.idx
    r = solver.rhs(u, 0.0)
    ex, hz = u[i["ex"]], u[i["hz"]]
    lifted = {"hz": r[i["dx"]] - d.ddx(hz, 0), "ex": r[i["bz"]] - d.ddx(ex, 0)}
    ny = d.nhat[:, :, 0]
    star = {}
    for c, trace in (("ex", ex), ("hz", hz)):
        flux = np.linalg.lstsq(d.ref.lift_ref, lifted[c].T, rcond=None)[0].T
        star[c] = flux / (d.fscale * ny) + d.face_minus(trace)
    return star


def layered_interval_solver(eps_left, eps_right, left="PEC", right="PEC"):
    """Two unit elements of different permittivity."""
    spec = make_spec(1, [0.0], [2.0],
                     [("a", [0.0], [1.0], 1.0), ("b", [1.0], [2.0], 1.0)],
                     tag_boxes=[(left, [0.0], [0.0]), (right, [2.0], [2.0])],
                     default_tag=left)
    mesh = generate_structured_mesh(spec)
    disc = build_discretization(mesh, build_reference_element(1, 2))
    table = ph.MaterialTable({"a": ph.Material(name="a", eps_r=eps_left),
                              "b": ph.Material(name="b", eps_r=eps_right)})
    return MaxwellSolver(disc, table), disc


class TestUpwindFlux:
    def test_continuous_identity(self):
        # continuous fields give zero jumps (PEC keeps H, E = 0), so the
        # rhs is the exact curl of a linear Hz across a material interface
        spec = make_spec(2, [0, 0], [1.0, 1.0],
                         regions=[("vac", [0, 0], [1, 0.5], 0.25),
                                  ("die", [0, 0.5], [1, 1], 0.25)],
                         default_tag="PEC")
        disc = build_discretization(generate_structured_mesh(spec),
                                    build_reference_element(2, 2))
        table = ph.MaterialTable({"vac": ph.vacuum(),
                                  "die": ph.Material(name="die", eps_r=4.0)})
        solver = MaxwellSolver(disc, table)
        i = solver.idx
        u = solver.zero_state()
        u[i["hz"]] = nodal_field(disc, lambda x, y: 0.3 + 1.7 * x - 2.9 * y)
        r = solver.rhs(u, 0.0)
        scale = 3.0 / EPS0
        assert np.allclose(r[i["ex"]], -2.9 / solver.eps, rtol=0, atol=1e-12 * scale)
        assert np.allclose(r[i["ey"]], -1.7 / solver.eps, rtol=0, atol=1e-12 * scale)
        assert np.allclose(r[i["dx"]], -2.9, rtol=0, atol=1e-11)
        assert np.allclose(r[i["dy"]], -1.7, rtol=0, atol=1e-11)
        for c in ("hz", "bz"):
            assert np.max(np.abs(r[i[c]])) < 1e-11 * scale

    def test_equal_impedance_formula(self):
        # E* = {E} - (Z/2) n x [[H]], H* = {H} + (1/(2Z)) (n x [[E]])_z,
        # assembled from the discretization's own trace and lift helpers
        solver, disc = square_solver(3, 2)
        i = solver.idx
        rng = np.random.default_rng(3)
        u = rng.normal(size=solver.zero_state().shape)
        u[i["jpx"]] = u[i["jpy"]] = 0.0
        ex, ey, hz = u[i["ex"]], u[i["ey"]], u[i["hz"]]
        nx, ny = disc.nhat[:, :, 0], disc.nhat[:, :, 1]
        exm, eym, hzm = (disc.face_minus(f) for f in (ex, ey, hz))
        exp_, eyp, hzp = -exm, -eym, hzm.copy()       # all faces are PEC
        interior = disc.vmapP != disc.vmapM
        for plus, f in ((exp_, ex), (eyp, ey), (hzp, hz)):
            plus[interior] = disc.face_plus(f)[interior]
        dhz = hzm - hzp
        ex_s = 0.5 * (exm + exp_) - 0.5 * Z0 * ny * dhz
        ey_s = 0.5 * (eym + eyp) + 0.5 * Z0 * nx * dhz
        hz_s = 0.5 * (hzm + hzp) + (nx * (eym - eyp) - ny * (exm - exp_)) / (2 * Z0)
        r_dx = disc.ddx(hz, 1) + disc.lift(ny * (hz_s - hzm))
        r_dy = -disc.ddx(hz, 0) - disc.lift(nx * (hz_s - hzm))
        r_bz = (disc.ddx(ex, 1) - disc.ddx(ey, 0)
                + disc.lift(nx * (eym - ey_s) - ny * (exm - ex_s)))
        r = solver.rhs(u, 0.0)
        for c, ref in (("dx", r_dx), ("dy", r_dy), ("bz", r_bz),
                       ("ex", r_dx / EPS0), ("ey", r_dy / EPS0), ("hz", r_bz / MU0)):
            assert np.allclose(r[i[c]], ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))

    def test_1d_example(self):
        # Ex = 1 on the side whose outward normal is ny, zero elsewhere:
        # E* = 1/2 and H* = -ny / (2 Z0) on the shared face
        for ny, k, f in ((1.0, 0, 1), (-1.0, 1, 0)):
            solver, disc = layered_interval_solver(1.0, 1.0)
            u = solver.zero_state()
            u[solver.idx["ex"], k] = 1.0
            star = face_stars_1d(solver, u)
            other = 1 - k
            for kk, ff in ((k, f), (other, 1 - f)):
                assert star["ex"][kk, ff] == pytest.approx(0.5)
                assert star["hz"][kk, ff] == pytest.approx(-0.5 * ny / Z0)

    def test_reciprocity(self):
        # the flux seen from either side of an impedance jump is one value
        solver, disc = layered_interval_solver(1.0, 6.5)
        rng = np.random.default_rng(7)
        for _ in range(4):
            u = rng.normal(size=solver.zero_state().shape)
            u[solver.idx["jpx"]] = 0.0
            star = face_stars_1d(solver, u)
            for c in ("ex", "hz"):
                a, b = star[c][0, 1], star[c][1, 0]
                scale = np.abs(star[c]).max()
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12 * scale)

    def test_bad_impedance(self):
        bad = ph.Material(name="bad", drude=ph.DrudeParams(
            eps_inf=-1.0, omega_p=1e15, gamma=1e13))
        mesh = unit_interval_mesh(2, left="PEC", right="PEC", region="m")
        disc = build_discretization(mesh, build_reference_element(1, 1))
        with pytest.raises(ph.PhysicsError, match="impedance"):
            MaxwellSolver(disc, ph.MaterialTable({"m": bad}))


class TestBoundaryFlux:
    def random_state(self, solver, seed):
        u = np.random.default_rng(seed).normal(size=solver.zero_state().shape)
        u[solver.idx["jpx"]] = 0.0
        return u

    def test_pec_doubles_tangential_jump(self):
        # [[E]] = 2 E^-, [[H]] = 0: E* = 0 and H* = H^- - ny E^- / Z
        solver, disc = interval_solver(3, 2, left="PEC", right="PEC")
        u = self.random_state(solver, 1)
        i = solver.idx
        star = face_stars_1d(solver, u)
        exm, hzm = disc.face_minus(u[i["ex"]]), disc.face_minus(u[i["hz"]])
        ny = disc.nhat[:, :, 0]
        for k, f in ((0, 0), (2, 1)):
            assert abs(star["ex"][k, f]) < 1e-12 * np.abs(exm).max()
            assert star["hz"][k, f] == pytest.approx(
                hzm[k, f] - ny[k, f] * exm[k, f] / Z0, rel=1e-12)

    def test_abc_jumps_equal_minus(self):
        # ghost traces are zero: E* = (E^- - ny Z H^-)/2, H* = (H^- - ny E^-/Z)/2
        solver, disc = interval_solver(3, 2, left="ABC", right="ABC")
        u = self.random_state(solver, 2)
        i = solver.idx
        star = face_stars_1d(solver, u)
        exm, hzm = disc.face_minus(u[i["ex"]]), disc.face_minus(u[i["hz"]])
        ny = disc.nhat[:, :, 0]
        for k, f in ((0, 0), (2, 1)):
            assert star["ex"][k, f] == pytest.approx(
                0.5 * (exm[k, f] - ny[k, f] * Z0 * hzm[k, f]), rel=1e-12)
            assert star["hz"][k, f] == pytest.approx(
                0.5 * (hzm[k, f] - ny[k, f] * exm[k, f] / Z0), rel=1e-12)

    def test_zero_fields(self):
        for tag in ("PEC", "ABC"):
            solver, _ = interval_solver(3, 2, left=tag, right=tag)
            assert not np.any(solver.rhs(solver.zero_state(), 0.0))
        solver, _ = square_solver(2, 2)
        assert not np.any(solver.rhs(solver.zero_state(), 0.0))

    def test_unknown_tag(self):
        mesh = unit_interval_mesh(2, left="INSULATOR_R", right="PEC", region="vac")
        disc = build_discretization(mesh, build_reference_element(1, 1))
        with pytest.raises(ph.PhysicsError, match="INSULATOR_R"):
            MaxwellSolver(disc, vac_table())


# ---------------------------------------------------------------------------
# The unfused Maxwell rhs this package shipped before the fused kernel,
# kept verbatim as the reference the fused rhs must reproduce.

def _ref_upwind_flux(minus, plus, z_minus, z_plus, nhat):
    z_minus = np.asarray(z_minus, dtype=float)
    z_plus = np.asarray(z_plus, dtype=float)
    if np.any(z_minus <= 0) or np.any(z_plus <= 0):
        raise ph.PhysicsError("wave impedance must be positive")
    ym, yp = 1.0 / z_minus, 1.0 / z_plus
    nhat = np.asarray(nhat, dtype=float)
    two_d = "ey" in minus
    ny = nhat[..., 1] if two_d else nhat[..., 0]
    nx = nhat[..., 0] if two_d else 0.0
    dhz = minus["hz"] - plus["hz"]
    dex = minus["ex"] - plus["ex"]
    out = {"ex": (ym * minus["ex"] + yp * plus["ex"] - ny * dhz) / (ym + yp)}
    if two_d:
        dey = minus["ey"] - plus["ey"]
        out["ey"] = (ym * minus["ey"] + yp * plus["ey"] + nx * dhz) / (ym + yp)
        out["hz"] = (z_minus * minus["hz"] + z_plus * plus["hz"]
                     + nx * dey - ny * dex) / (z_minus + z_plus)
    else:
        out["hz"] = (z_minus * minus["hz"] + z_plus * plus["hz"]
                     - ny * dex) / (z_minus + z_plus)
    return out


class ReferenceMaxwell:
    """Per-call traces, dict fluxes and (K, 1) coefficient columns."""

    def __init__(self, solver, pml=None):
        from pcddg.em_dg import _ABC_LIKE, _PEC_LIKE, _pml_sigma_profiles
        from pcddg.mesh import BOUNDARY_TAGS
        disc = self.disc = solver.disc
        self.idx = solver.idx
        self.optical_source = solver.optical_source
        self._src_spec = getattr(solver, "_src_spec", None)
        mesh = disc.mesh
        mats = [solver.materials.region(mesh.region_names[mesh.region_id[k]])
                for k in disc.elems]
        eps_r = np.array([m.drude.eps_inf if m.drude else m.eps_r for m in mats])
        mu_r = np.array([m.mu_r for m in mats])
        self.eps = (eps_r * EPS0)[:, None]
        self.mu = (mu_r * MU0)[:, None]
        z_elem = np.sqrt(self.mu[:, 0] / self.eps[:, 0])
        znod = np.repeat(z_elem[:, None], disc.Np, axis=1).reshape(-1)
        self.zm = znod[disc.vmapM]
        self.zp = znod[disc.vmapP]
        self.drude_a = np.array([EPS0 * m.drude.omega_p ** 2 if m.drude else 0.0
                                 for m in mats])[:, None]
        self.drude_g = np.array([m.drude.gamma if m.drude else 0.0
                                 for m in mats])[:, None]
        self.sx, self.sy = _pml_sigma_profiles(disc, pml)
        tags = np.array([[BOUNDARY_TAGS[t] if t >= 0 else "" for t in row]
                         for row in disc.face_tag], dtype=object)
        self.pec_mask = disc.face_expand(np.isin(tags, list(_PEC_LIKE)))
        self.abc_mask = disc.face_expand(np.isin(tags, list(_ABC_LIKE)))

    def _traces(self, u, pec_sign):
        d = self.disc
        um = d.face_minus(u)
        up = d.face_plus(u)
        up = np.where(self.pec_mask, pec_sign * um, up)
        up = np.where(self.abc_mask, 0.0, up)
        return um, up

    def rhs(self, state, t=0.0, j_carrier=None):
        d = self.disc
        i = self.idx
        out = np.zeros_like(state)
        ex, hz = state[i["ex"]], state[i["hz"]]
        exm, exp_ = self._traces(ex, -1.0)
        hzm, hzp = self._traces(hz, +1.0)
        minus = {"ex": exm, "hz": hzm}
        plus = {"ex": exp_, "hz": hzp}
        if d.ref.dim == 2:
            ey = state[i["ey"]]
            eym, eyp = self._traces(ey, -1.0)
            minus["ey"] = eym
            plus["ey"] = eyp
        star = _ref_upwind_flux(minus, plus, self.zm, self.zp, d.nhat)

        jx = state[i["jpx"]].copy()
        jy = state[i["jpy"]].copy() if d.ref.dim == 2 else None
        src = self.optical_source(t)
        if src is not None:
            pol = getattr(self._src_spec, "polarization", "x")
            if pol == "y" and jy is not None:
                jy += src
            else:
                jx += src
        if j_carrier is not None:
            jx = jx + j_carrier[0]
            if jy is not None and len(j_carrier) > 1 and j_carrier[1] is not None:
                jy = jy + j_carrier[1]

        if d.ref.dim == 1:
            ny = d.nhat[:, :, 0]
            r_dx = d.ddx(hz, 0) + d.lift(ny * (star["hz"] - hzm)) - jx
            r_bz = d.ddx(ex, 0) + d.lift(ny * (star["ex"] - exm))
            r_dx = r_dx - self.sy * state[i["dx"]]
            r_bz = r_bz - self.sy * state[i["bz"]]
            out[i["dx"]] = r_dx
            out[i["bz"]] = r_bz
            out[i["ex"]] = (r_dx + self.sx * state[i["dx"]]) / self.eps
            out[i["hz"]] = r_bz / self.mu - self.sx * state[i["hz"]]
        else:
            nx = d.nhat[:, :, 0]
            ny = d.nhat[:, :, 1]
            dhz = star["hz"] - hzm
            r_dx = d.ddx(hz, 1) + d.lift(ny * dhz) - jx
            r_dy = -d.ddx(hz, 0) - d.lift(nx * dhz) - jy
            r_bz = (d.ddx(ex, 1) - d.ddx(ey, 0)
                    + d.lift(nx * (eym - star["ey"]) - ny * (exm - star["ex"])))
            r_dx = r_dx - self.sy * state[i["dx"]]
            r_dy = r_dy - self.sx * state[i["dy"]]
            r_bz = r_bz - self.sy * state[i["bz"]]
            out[i["dx"]] = r_dx
            out[i["dy"]] = r_dy
            out[i["bz"]] = r_bz
            out[i["ex"]] = (r_dx + self.sx * state[i["dx"]]) / self.eps
            out[i["ey"]] = (r_dy + self.sy * state[i["dy"]]) / self.eps
            out[i["hz"]] = r_bz / self.mu - self.sx * state[i["hz"]]

        out[i["jpx"]] = self.drude_a * state[i["ex"]] - self.drude_g * state[i["jpx"]]
        if d.ref.dim == 2:
            out[i["jpy"]] = self.drude_a * state[i["ey"]] - self.drude_g * state[i["jpy"]]
        return out


def layered_case(dim, p, boundary, polarization="x"):
    """Vacuum / dielectric / Drude-gold layers along y with an aperture at
    y = 0; 'ABC' cases also carry a graded PML."""
    um = 1e-6
    width, height = 2 * um, 3 * um
    h = 0.5 * um
    layers = [("vac", 0.0, 1 * um), ("die", 1 * um, 2 * um), ("au", 2 * um, 3 * um)]
    if dim == 1:
        regions = [(n, [a], [b], h) for n, a, b in layers]
        spec = make_spec(1, [0.0], [height], regions,
                         tag_boxes=[("SOURCE_APERTURE", [0.0], [0.0])],
                         default_tag=boundary)
    else:
        regions = [(n, [0.0, a], [width, b], h) for n, a, b in layers]
        spec = make_spec(2, [0.0, 0.0], [width, height], regions,
                         tag_boxes=[("SOURCE_APERTURE", [0.0, 0.0], [width, 0.0])],
                         default_tag=boundary)
    disc = build_discretization(generate_structured_mesh(spec),
                                build_reference_element(dim, p))
    table = ph.MaterialTable({"vac": ph.vacuum(), "au": ph.gold(),
                              "die": ph.Material(name="die", eps_r=13.26)})
    source = ph.OpticalSourceSpec(f_c=375e12, f_w=25e12, beam_width=1 * um,
                                  power=0.63e-3, polarization=polarization)
    pml = None
    if boundary == "ABC":
        pml = PmlSpec(thickness={"yhi": 1 * um} if dim == 1
                      else {"xlo": 0.5 * um, "yhi": 1 * um})
    solver = MaxwellSolver(disc, table, source=source, pml=pml)
    return solver, ReferenceMaxwell(solver, pml), disc


class TestFusedRhs:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("boundary", ["PEC", "ABC"])
    def test_matches_reference(self, dim, p, boundary):
        rng = np.random.default_rng(100 * dim + 10 * p + len(boundary))
        for pol in ("x", "y") if dim == 2 else ("x",):
            solver, ref, disc = layered_case(dim, p, boundary, pol)
            shape = solver.zero_state().shape
            if boundary == "ABC":
                assert np.any(solver._sig_aux > 0)
            u = rng.normal(size=shape) * np.array(
                [1.0] * dim + [1.0 / Z0] + [EPS0] * dim + [MU0 / Z0] + [1e-3] * dim
            )[:, None, None]
            j = tuple(rng.normal(size=(disc.K, disc.Np)) for _ in range(dim))
            spec = solver._src_spec
            t = spec.delay + 0.3 / spec.f_c
            assert np.any(solver.optical_source(t))
            for args in ((u, 0.0), (u, t), (u, t, j), (u, t, j[:1])):
                got = solver.rhs(*args)
                want = ref.rhs(*args)
                for c, name in enumerate(solver.comp):
                    tol = 1e-13 * np.max(np.abs(want[c]))
                    assert np.max(np.abs(got[c] - want[c])) <= tol, (name, args[1:])

    def test_results_are_fresh_arrays(self):
        solver, _, _ = layered_case(2, 2, "ABC")
        u = np.random.default_rng(5).normal(size=solver.zero_state().shape)
        r1 = solver.rhs(u, 1e-14)
        keep = r1.copy()
        r2 = solver.rhs(2.0 * u, 2e-14)
        assert r1 is not r2 and not np.shares_memory(r1, r2)
        assert np.array_equal(r1, keep)
        arrays = [v for v in vars(solver).values() if isinstance(v, np.ndarray)]
        arrays += [term[-1] for term in solver._curl_terms] + solver._diff_t
        for r in (r1, r2):
            assert not any(np.shares_memory(r, a) for a in arrays)
            assert not np.shares_memory(r, u)

    def test_lsrk45_leaves_inputs_unmodified(self):
        solver, _, _ = layered_case(2, 2, "PEC")
        u = np.random.default_rng(6).normal(size=solver.zero_state().shape)
        u0 = u.copy()
        returned = []

        def rhs(s, t):
            r = solver.rhs(s, t)
            returned.append((r, r.copy()))
            return r

        out = lsrk45_step(u, rhs, 1e-18, 0.0)
        assert np.array_equal(u, u0)
        assert len(returned) == 5
        for r, copy in returned:
            assert np.array_equal(r, copy)
            assert not np.shares_memory(out, r)
        assert not np.shares_memory(out, u)


class TestDrudeADE:
    def test_homogeneous_decay(self):
        m = ph.gold()
        r = drude_ade_rhs(np.zeros(3), np.full(3, 2.0), m)
        assert np.allclose(r, -m.drude.gamma * 2.0)

    def test_forcing_term(self):
        m = ph.gold()
        r = drude_ade_rhs(np.ones(2), np.zeros(2), m)
        assert np.allclose(r, EPS0 * m.drude.omega_p ** 2)


class TestMaxwellRhs:
    def test_uniform_field_pec_cavity(self):
        solver, disc = square_solver(4, 2)
        u = solver.zero_state()
        u[solver.idx["hz"]] = 3.7   # uniform H, zero E: PEC-compatible
        r = solver.rhs(u, 0.0)
        # rhs units carry a 1/eps0 ~ 1e11 scale; compare against it
        assert np.max(np.abs(r)) < 1e-10 * C0 ** 2 * 3.7

    def test_current_sinks_energy(self):
        # injecting J antiparallel... energy derivative = -int E.J dV
        solver, disc = square_solver(4, 2)
        u = solver.zero_state()
        u[solver.idx["ex"]] = nodal_field(disc, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        jx = 2.0 * u[solver.idx["ex"]]
        r0 = solver.rhs(u, 0.0)
        rj = solver.rhs(u, 0.0, j_carrier=(jx, None))
        ex = u[solver.idx["ex"]]
        # dE/dt difference contributes dW/dt = int eps E . (rj-r0)_E = -int E.J
        diff = disc.integrate(solver.eps * ex * (rj[solver.idx["ex"]] - r0[solver.idx["ex"]]))
        assert diff == pytest.approx(-disc.integrate(ex * jx), rel=1e-12)


def cavity_error_1d(n, p, t_end=None):
    solver, disc = interval_solver(n, p)
    k = np.pi
    om = k * C0
    y = disc.x[:, :, 0]
    u = solver.zero_state()
    u[solver.idx["ex"]] = np.sin(k * y)
    if t_end is None:
        t_end = 0.25 * 2 * np.pi / om
    dt = stable_timestep("maxwell", disc, vac_table(), safety=0.3)
    nsteps = int(np.ceil(t_end / dt))
    dt = t_end / nsteps
    t = 0.0
    for _ in range(nsteps):
        u = lsrk45_step(u, solver.rhs, dt, t)
        t += dt
    ex_exact = np.sin(k * y) * np.cos(om * t)
    hz_exact = k / (MU0 * om) * np.cos(k * y) * np.sin(om * t)
    return np.sqrt(disc.l2_norm(u[solver.idx["ex"]] - ex_exact) ** 2
                   + Z0 ** 2 * disc.l2_norm(u[solver.idx["hz"]] - hz_exact) ** 2)


class TestCavity1D:
    @pytest.mark.parametrize("p,order_min", [(1, 1.5), (2, 2.5), (3, 3.5)])
    def test_convergence(self, p, order_min):
        errs = [cavity_error_1d(n, p) for n in (4, 8, 16)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert orders[-1] > order_min

    def test_energy_monotone_decay(self):
        solver, disc = interval_solver(8, 3)
        y = disc.x[:, :, 0]
        u = solver.zero_state()
        u[solver.idx["ex"]] = np.sin(np.pi * y) + 0.3 * np.sin(3 * np.pi * y)
        dt = stable_timestep("maxwell", disc, vac_table())
        energies = [solver.energy(u)]
        for s in range(60):
            u = lsrk45_step(u, solver.rhs, dt, s * dt)
            energies.append(solver.energy(u))
        e = np.array(energies)
        # nonincreasing up to RK truncation wiggle
        assert np.all(np.diff(e) <= 1e-7 * e[0])
        assert e[-1] < e[0]


class TestCavity2D:
    def cavity_error(self, n, p):
        solver, disc = square_solver(n, p)
        kx = ky = np.pi
        om = C0 * np.sqrt(kx ** 2 + ky ** 2)
        x, y = disc.x[:, :, 0], disc.x[:, :, 1]
        u = solver.zero_state()
        u[solver.idx["hz"]] = np.cos(kx * x) * np.cos(ky * y)
        t_end = 0.3 * 2 * np.pi / om
        dt = stable_timestep("maxwell", disc, vac_table(), safety=0.3)
        nsteps = int(np.ceil(t_end / dt))
        dt = t_end / nsteps
        t = 0.0
        for _ in range(nsteps):
            u = lsrk45_step(u, solver.rhs, dt, t)
            t += dt
        e = EPS0
        hz_ex = np.cos(kx * x) * np.cos(ky * y) * np.cos(om * t)
        ex_ex = -ky / (e * om) * np.cos(kx * x) * np.sin(ky * y) * np.sin(om * t)
        ey_ex = kx / (e * om) * np.sin(kx * x) * np.cos(ky * y) * np.sin(om * t)
        return np.sqrt(
            Z0 ** -2 * disc.l2_norm(u[solver.idx["ex"]] - ex_ex) ** 2
            + Z0 ** -2 * disc.l2_norm(u[solver.idx["ey"]] - ey_ex) ** 2
            + disc.l2_norm(u[solver.idx["hz"]] - hz_ex) ** 2)

    @pytest.mark.parametrize("p,order_min", [(1, 1.5), (2, 2.5)])
    def test_convergence(self, p, order_min):
        errs = [self.cavity_error(n, p) for n in (4, 8, 16)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert orders[-1] > order_min


class TestPML:
    def run_pulse(self, pml, n=50, p=3):
        solver, disc = interval_solver(n, p, left="PEC", right="ABC",
                                       pml=pml, hi=1.25)
        y = disc.x[:, :, 0]
        u = solver.zero_state()
        f = np.exp(-((y - 0.4) / 0.06) ** 2)
        u[solver.idx["ex"]] = f
        u[solver.idx["hz"]] = -f / Z0          # rightward-moving pulse
        e0 = solver.energy(u)
        dt = stable_timestep("maxwell", disc, vac_table())
        t_end = 1.6 / C0
        t = 0.0
        while t < t_end:
            u = lsrk45_step(u, solver.rhs, dt, t)
            t += dt
        inner = disc.x[:, :, 0].mean(axis=1) < 1.0
        i = solver.idx
        w = (solver.eps * u[i["ex"]] ** 2 + solver.mu * u[i["hz"]] ** 2)
        w[~inner] = 0.0
        return 0.5 * disc.integrate(w) / e0

    def test_sigma_zero_is_bitwise_plain_maxwell(self):
        zero_pml = PmlSpec(thickness={"yhi": 0.25}, r_target=1.0)
        s1, disc = interval_solver(10, 2)
        s2, _ = interval_solver(10, 2, pml=zero_pml)
        rng = np.random.default_rng(0)
        u = rng.normal(size=s1.zero_state().shape)
        r1 = s1.rhs(u, 0.0)
        r2 = s2.rhs(u, 0.0)
        assert np.array_equal(r1, r2)

    def test_reflection_below_1e6(self):
        refl = self.run_pulse(PmlSpec(thickness={"yhi": 0.25}))
        assert refl < 1e-6

    def test_deeper_pml_not_worse(self):
        shallow = self.run_pulse(PmlSpec(thickness={"yhi": 0.15}))
        deep = self.run_pulse(PmlSpec(thickness={"yhi": 0.3}))
        assert deep <= shallow * 1.5

    def test_negative_thickness_rejected(self):
        with pytest.raises(ph.PhysicsError):
            PmlSpec(thickness={"yhi": -0.1})

    def test_unknown_side_rejected(self):
        with pytest.raises(ph.PhysicsError):
            PmlSpec(thickness={"zlo": 0.1})


class TestOpticalSource:
    def spec(self):
        return ph.OpticalSourceSpec(f_c=375e12, f_w=25e12, beam_width=3e-6,
                                    power=0.63e-3)

    def test_envelope_vanishes_far_away(self):
        s = self.spec()
        assert abs(s.envelope(s.delay + 20 * s.sigma_t)) < 1e-30
        assert abs(s.envelope(0.0)) < 1e-3

    def test_spectrum_center_and_fwhm(self):
        s = self.spec()
        dt = 1.0 / (40 * s.f_c)
        t = np.arange(0.0, 2 * s.delay, dt)
        g = s.envelope(t)
        nfft = 1 << 16        # zero-pad for frequency resolution
        spec = np.abs(np.fft.rfft(g, n=nfft))
        f = np.fft.rfftfreq(nfft, dt)
        pk = np.argmax(spec)
        assert abs(f[pk] - s.f_c) / s.f_c < 0.01
        half = spec >= 0.5 * spec[pk]
        fwhm = f[half].max() - f[half].min()
        assert abs(fwhm - s.f_w) / s.f_w < 0.05

    def test_beam_profile_efold(self):
        n = 64
        spec = make_spec(2, [0, 0], [8e-6, 4e-6],
                         regions=[("vac", [0, 0], [8e-6, 4e-6], 8e-6 / n)],
                         tag_boxes=[("SOURCE_APERTURE", [0, 0], [8e-6, 0])],
                         default_tag="ABC")
        mesh = generate_structured_mesh(spec)
        disc = build_discretization(mesh, build_reference_element(2, 2))
        solver = MaxwellSolver(disc, vac_table(), source=self.spec())
        prof = solver._src_profile
        xf = disc.x[:, :, 0]
        yf = disc.x[:, :, 1]
        near = yf < 1e-8
        center_val = prof[near & (np.abs(xf - 4e-6) < 1e-7)].max()
        edge_val = prof[near & (np.abs(xf - (4e-6 + 3e-6)) < 1e-7)].max()
        assert edge_val / center_val == pytest.approx(np.e ** -1, rel=0.05)

    def test_missing_aperture_raises(self):
        mesh = unit_interval_mesh(4, left="PEC", right="PEC", region="vac")
        disc = build_discretization(mesh, build_reference_element(1, 1))
        with pytest.raises(ph.PhysicsError, match="SOURCE_APERTURE"):
            MaxwellSolver(disc, vac_table(), source=self.spec())

    def test_spec_validation(self):
        with pytest.raises(ph.PhysicsError):
            ph.OpticalSourceSpec(f_c=100.0, f_w=200.0, beam_width=1.0, power=1.0)
        with pytest.raises(ph.PhysicsError):
            ph.OpticalSourceSpec(f_c=100.0, f_w=10.0, beam_width=1.0)
