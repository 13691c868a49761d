import numpy as np
import pytest
import scipy.sparse as sp

from pcddg import convergence as cv
from pcddg import coupler, em_dg, physics as ph
from pcddg.coupler import lsrk45_step, stable_timestep
from pcddg.dgops import build_discretization
from pcddg.em_dg import MaxwellSolver, PmlSpec
from pcddg.mesh import generate_structured_mesh, make_spec, unit_interval_mesh
from pcddg.refelem import build_reference_element

from helpers import (five_pass_lsrk45_step, interval_mesh, nodal_field,
                     observed_orders, optical_source, pml_round_trip,
                     rhs_spectrum, source_profile)

C0, EPS0, MU0 = ph.C0, ph.EPS0, ph.MU0
Z0 = np.sqrt(MU0 / EPS0)


def vac_table():
    return ph.MaterialTable(materials={"vac": ph.vacuum(), "metal": ph.gold()})


def interval_solver(n, p, left="PEC", right="PEC", pml=None, hi=1.0):
    mesh = interval_mesh(n, hi, left=left, right=right, region="vac")
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
    from its rhs: eps dE/dt and mu dH/dt minus the volume derivatives are
    the lifted face terms, which the two-column 1D lift determines exactly.
    u must carry no current and the solver no PML or source."""
    d = solver.disc
    i = solver.idx
    r = solver.rhs(u, 0.0)
    ex, hz = u[i["ex"]], u[i["hz"]]
    lifted = {"hz": solver.eps * r[i["ex"]] - d.ddx(hz, 0),
              "ex": solver.mu * r[i["hz"]] - d.ddx(ex, 0)}
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
        assert np.allclose(solver.eps * r[i["ex"]], -2.9, rtol=0, atol=1e-11)
        assert np.allclose(solver.eps * r[i["ey"]], -1.7, rtol=0, atol=1e-11)
        for r_h in (r[i["hz"]], solver.mu * r[i["hz"]]):
            assert np.max(np.abs(r_h)) < 1e-11 * scale

    def test_equal_impedance_formula(self):
        # E* = {E} - (Z/2) n x [[H]], H* = {H} + (1/(2Z)) (n x [[E]])_z,
        # assembled from the discretization's own trace and lift helpers
        solver, disc = square_solver(3, 2)
        i = solver.idx
        rng = np.random.default_rng(3)
        u = rng.normal(size=solver.zero_state().shape)
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
        r_ex, r_ey, r_hz = r[i["ex"]], r[i["ey"]], r[i["hz"]]
        for got, ref in ((EPS0 * r_ex, r_dx), (EPS0 * r_ey, r_dy), (MU0 * r_hz, r_bz),
                         (r_ex, r_dx / EPS0), (r_ey, r_dy / EPS0), (r_hz, r_bz / MU0)):
            assert np.allclose(got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))

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
        return np.random.default_rng(seed).normal(size=solver.zero_state().shape)

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
# kept as the reference the fused rhs must reproduce; it always carries
# every row, and the tests map its rows to the solver's by name.

FULL_ROWS = {1: ("ex", "hz", "dx", "bz", "jpx"),
             2: ("ex", "ey", "hz", "dx", "dy", "bz", "jpx", "jpy")}


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
    """Per-call traces, dict fluxes and (K, 1) coefficient columns, on the
    full state layout (every field, PML and Drude row)."""

    def __init__(self, solver, pml=None):
        from pcddg.em_dg import _ABC_LIKE, _PEC_LIKE, pml_sigma_profiles
        from pcddg.mesh import BOUNDARY_TAGS
        disc = self.disc = solver.disc
        self.comp = FULL_ROWS[disc.ref.dim]
        self.idx = {c: i for i, c in enumerate(self.comp)}
        self.optical_source = lambda t: optical_source(solver, t)
        self.source = solver.source
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
        self.sx, self.sy = pml_sigma_profiles(disc, pml)
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
            if self.source.polarization == "y" and jy is not None:
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
    y = 0; 'ABC' cases also carry a graded PML.  'vacuum' is the same
    geometry with every layer vacuum, ABC walls and no PML."""
    um = 1e-6
    width, height = 2 * um, 3 * um
    h = 0.5 * um
    layers = [("vac", 0.0, 1 * um), ("die", 1 * um, 2 * um), ("au", 2 * um, 3 * um)]
    vacuum = boundary == "vacuum"
    if vacuum:
        boundary = "ABC"
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
    if vacuum:
        table = ph.MaterialTable({n: ph.vacuum() for n in ("vac", "die", "au")})
    source = ph.OpticalSourceSpec(f_c=375e12, f_w=25e12, beam_width=1 * um,
                                  power=0.63e-3, polarization=polarization)
    pml = None
    if boundary == "ABC" and not vacuum:
        pml = PmlSpec(thickness={"yhi": 1 * um} if dim == 1
                      else {"xlo": 0.5 * um, "yhi": 1 * um})
    solver = MaxwellSolver(disc, table, source=source, pml=pml)
    return solver, ReferenceMaxwell(solver, pml), disc


class TestFusedRhs:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("boundary", ["PEC", "ABC", "vacuum"])
    def test_matches_reference(self, dim, p, boundary):
        rng = np.random.default_rng(100 * dim + 10 * p + len(boundary))
        rows = {"PEC": ("ex", "jpx"), "ABC": ("ex", "dx", "jpx"),
                "vacuum": ("ex",)}[boundary]
        for pol in ("x", "y") if dim == 2 else ("x",):
            solver, ref, disc = layered_case(dim, p, boundary, pol)
            assert {"ex", "dx", "jpx"} & set(solver.comp) == set(rows)
            # the reference's full state holds zeros in the rows the solver
            # does not carry
            u_ref = rng.normal(size=(len(ref.comp), disc.K, disc.Np)) * np.array(
                [1.0] * dim + [1.0 / Z0] + [EPS0] * dim + [MU0 / Z0] + [1e-3] * dim
            )[:, None, None]
            for name in ref.comp:
                if name not in solver.idx:
                    u_ref[ref.idx[name]] = 0.0
            u = np.array([u_ref[ref.idx[name]] for name in solver.comp])
            # carrier current (sigma, j0); the reference takes J = sigma E + j0
            j0 = rng.normal(size=(dim, disc.K, disc.Np))
            sigma = rng.uniform(0.0, 2.0, size=(disc.K, disc.Np))
            zero = np.zeros_like(sigma)
            x_only = np.concatenate([j0[:1], np.zeros_like(j0[1:])])
            e = u[:dim]
            # the held current is zero off one layer, as the march passes it
            layer = np.array([disc.mesh.region_names[disc.mesh.region_id[k]]
                              == "die" for k in disc.elems])[:, None]
            sigma_l, j0_l = sigma * layer, j0 * layer
            spec = solver.source
            t = spec.delay + 0.3 / spec.f_c
            assert np.any(optical_source(solver, t))
            # the march's path, (sigma, j0) held over a macro step (the
            # assembled operator in 1D); and the assembled operator alone,
            # at a time where the source envelope is exactly 0
            t_off = spec.delay + 40 * spec.sigma_t
            assert spec.envelope(t_off) == 0.0
            cases = ((0.0, None, None), (t, None, None),
                     (t, (zero, j0), tuple(j0)),
                     (t, (zero, x_only), tuple(j0[:1])),
                     (t, (sigma, j0), tuple(sigma * e + j0)),
                     (t, "held", tuple(sigma_l * e + j0_l)),
                     (t_off, "operator", None))
            for case, (t_, current, j) in enumerate(cases):
                if current == "held":
                    got = solver.held_rhs((sigma_l, j0_l))(u, t_)
                elif current == "operator":
                    got = (solver.operator @ u.reshape(-1)).reshape(u.shape)
                else:
                    got = solver.rhs(u, t_, current)
                want = ref.rhs(u_ref, t_, j)
                for c, name in enumerate(solver.comp):
                    w = want[ref.idx[name]]
                    tol = 1e-13 * np.max(np.abs(w))
                    assert np.max(np.abs(got[c] - w)) <= tol, (name, case)

    @pytest.mark.parametrize("boundary", ["PEC", "ABC"])
    def test_held_rhs_without_source_1d(self, boundary):
        # a solver without a source has no source response: the held rhs
        # is the operator with the carrier current folded in, at any time
        with_source, _, disc = layered_case(1, 2, boundary)
        pml = PmlSpec(thickness={"yhi": 1e-6}) if boundary == "ABC" else None
        solver = MaxwellSolver(disc, with_source.materials, pml=pml)
        assert ("dx" in solver.idx) == (pml is not None)
        rng = np.random.default_rng(7)
        u = rng.normal(size=solver.zero_state().shape) * np.array(
            [{"ex": 1.0, "hz": 1.0 / Z0, "dx": EPS0, "bz": MU0 / Z0,
              "jpx": 1e-3}[c] for c in solver.comp])[:, None, None]
        y = disc.x[:, :, 0].mean(axis=1, keepdims=True)
        layer = (y > 1e-6) & (y < 2e-6)         # the dielectric elements
        current = (rng.uniform(0.0, 2.0, size=(disc.K, disc.Np)) * layer,
                   rng.normal(size=(1, disc.K, disc.Np)) * layer)
        for t in (0.0, 1e-14):
            got = solver.held_rhs(current)(u, t)
            want = solver.rhs(u, t, current)
            for c, name in enumerate(solver.comp):
                tol = 1e-13 * np.max(np.abs(want[c]))
                assert np.max(np.abs(got[c] - want[c])) <= tol, name

    @pytest.mark.parametrize("boundary", ["PEC", "ABC"])
    def test_held_operator_is_the_scipy_sum(self, boundary):
        # the held rhs adds the current entries into a pattern fixed per
        # solver: bitwise the product of scipy's operator + current sum
        solver, _, disc = layered_case(1, 2, boundary)
        rng = np.random.default_rng(11)
        u = rng.normal(size=solver.zero_state().shape)
        y = disc.x[:, :, 0].mean(axis=1, keepdims=True)
        layer = (y > 1e-6) & (y < 2e-6)
        sigma = rng.uniform(0.0, 2.0, size=(disc.K, disc.Np)) * layer
        j0 = rng.normal(size=(1, disc.K, disc.Np)) * layer
        rows, cols, resp = solver._current_entry
        a_sigma = solver.operator + sp.csr_matrix(
            (resp * sigma.reshape(-1)[cols], (rows, cols)),
            shape=solver.operator.shape)
        nodes, q = solver._source_entry
        t = solver.source.delay
        c = np.zeros(a_sigma.shape[0])
        c[rows] = resp * j0.reshape(-1)[cols]
        want = a_sigma @ u.reshape(-1) + c
        want[nodes] += solver._src_scale(t) * q
        got = solver.held_rhs((sigma, j0))(u, t)
        assert np.array_equal(got.reshape(-1), want)

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

    def test_drude_march_matches_reference(self, monkeypatch):
        # 200 LSRK45 steps of a 2D Drude case, the source on, from a state
        # with current in every jp row: the solver's rhs in the two-register
        # step against the reference's in the five-pass step, at the
        # stable step (its drude_plasma bound)
        solver, ref, disc = layered_case(2, 2, "PEC")
        updated = []

        def spy(x, y, a):
            out = real_daxpy(x, y, a=a)
            updated.append(out is y)
            return out

        real_daxpy = coupler.daxpy
        monkeypatch.setattr(coupler, "daxpy", spy)
        dt = stable_timestep("maxwell", disc, solver.materials)
        u = np.random.default_rng(3).normal(
            size=solver.zero_state().shape) * np.array(
            [1.0, 1.0, 1.0 / Z0, 1e-3, 1e-3])[:, None, None]
        u_ref = np.zeros((len(ref.comp),) + u.shape[1:])
        for c, name in enumerate(solver.comp):
            u_ref[ref.idx[name]] = u[c]
        t = solver.source.delay - 100 * dt
        for _ in range(200):
            u = lsrk45_step(u, solver.rhs, dt, t)
            u_ref = five_pass_lsrk45_step(u_ref, ref.rhs, dt, t)
            t += dt
        assert len(updated) == 1000 and all(updated)
        for c, name in enumerate(solver.comp):
            w = u_ref[ref.idx[name]]
            assert np.max(np.abs(u[c] - w)) <= 1e-12 * np.max(np.abs(w)), name


class TestStateRows:
    """State rows exist only for the physics present: PML auxiliaries when
    some sigma > 0, Drude currents when some element is a Drude metal."""

    @pytest.mark.parametrize("dim,case,comp", [
        (1, "vacuum", ("ex", "hz")),
        (1, "drude", ("ex", "hz", "jpx")),
        (1, "pml", ("ex", "hz", "dx", "bz")),
        (1, "pml_sigma0", ("ex", "hz")),
        (2, "vacuum", ("ex", "ey", "hz")),
        (2, "drude", ("ex", "ey", "hz", "jpx", "jpy")),
        (2, "pml", ("ex", "ey", "hz", "dx", "dy", "bz")),
        (2, "pml_sigma0", ("ex", "ey", "hz")),
    ])
    def test_layout(self, dim, case, comp, monkeypatch):
        region = "metal" if case == "drude" else "vac"
        if case == "pml_sigma0":
            # a reflection target of 1 makes every PML rate zero
            monkeypatch.setattr(em_dg, "_PML_R_TARGET", 1.0)
        pml = PmlSpec(thickness={"yhi": 0.25}) if "pml" in case else None
        if dim == 1:
            mesh = unit_interval_mesh(4, left="PEC", right="ABC", region=region)
        else:
            mesh = generate_structured_mesh(make_spec(
                2, [0, 0], [1.0, 1.0], regions=[(region, [0, 0], [1, 1], 0.5)],
                default_tag="PEC"))
        disc = build_discretization(mesh, build_reference_element(dim, 1))
        solver = MaxwellSolver(disc, vac_table(), pml=pml)
        assert solver.comp == comp
        assert solver.idx == {c: i for i, c in enumerate(comp)}
        assert solver.zero_state().shape == (len(comp), disc.K, disc.Np)
        assert solver.rhs(solver.zero_state()).shape == (len(comp), disc.K, disc.Np)


class TestDrudeADE:
    """dJ_p/dt = eps0 wp^2 E - gamma J_p, read off the rhs of a gold
    interval."""

    def _gold(self):
        mesh = unit_interval_mesh(3, left="PEC", right="PEC", region="metal")
        disc = build_discretization(mesh, build_reference_element(1, 2))
        return MaxwellSolver(disc, vac_table())

    def test_homogeneous_decay(self):
        solver = self._gold()
        u = solver.zero_state()
        u[solver.idx["jpx"]] = 2.0
        r = solver.rhs(u)[solver.idx["jpx"]]
        assert np.allclose(r, -ph.gold().drude.gamma * 2.0, rtol=1e-14)

    def test_forcing_term(self):
        solver = self._gold()
        u = solver.zero_state()
        u[solver.idx["ex"]] = 1.0
        r = solver.rhs(u)[solver.idx["jpx"]]
        assert np.allclose(r, EPS0 * ph.gold().drude.omega_p ** 2, rtol=1e-14)


class TestMaxwellRhs:
    def test_uniform_field_pec_cavity(self):
        solver, disc = square_solver(4, 2)
        u = solver.zero_state()
        u[solver.idx["hz"]] = 3.7   # uniform H, zero E: PEC-compatible
        r = solver.rhs(u, 0.0)
        # rhs units carry a 1/eps0 ~ 1e11 scale; compare against it
        assert np.max(np.abs(r)) < 1e-10 * C0 ** 2 * 3.7

    def test_current_sinks_energy(self):
        # a conduction current J = sigma E: energy derivative = -int E.J dV
        solver, disc = square_solver(4, 2)
        u = solver.zero_state()
        u[solver.idx["ex"]] = nodal_field(disc, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        jx = 2.0 * u[solver.idx["ex"]]
        sigma = np.full((disc.K, disc.Np), 2.0)
        r0 = solver.rhs(u, 0.0)
        rj = solver.rhs(u, 0.0, current=(sigma, np.zeros((2, disc.K, disc.Np))))
        ex = u[solver.idx["ex"]]
        # dE/dt difference contributes dW/dt = int eps E . (rj-r0)_E = -int E.J
        diff = disc.integrate(solver.eps * ex * (rj[solver.idx["ex"]] - r0[solver.idx["ex"]]))
        assert diff == pytest.approx(-disc.integrate(ex * jx), rel=1e-12)


class TestCavity1D:
    @pytest.mark.parametrize("p,order_min", [(1, 1.5), (2, 2.5), (3, 3.5)])
    def test_convergence(self, p, order_min):
        rows = cv.order_table("maxwell", orders=(p,), levels=3)
        assert observed_orders(rows)[p] >= order_min, cv.format_table(rows)

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


class TestDrudeStepBound:
    @pytest.mark.parametrize("safety", [0.8, 1.0])
    def test_coarse_gold_2d_does_not_grow(self, safety):
        # h = 0.5 um over 1 um of gold at p = 2: without its drude_plasma
        # bound the 2D step puts omega_p dt at 3.66, past LSRK45's 3.34 on
        # the imaginary axis, and 200 steps grow the energy 6e216-fold
        solver, _, disc = layered_case(2, 2, "PEC")
        em = MaxwellSolver(disc, solver.materials)
        dt = stable_timestep("maxwell", disc, em.materials, safety=safety)
        u = np.random.default_rng(0).normal(size=em.zero_state().shape)
        energies = [em.energy(u)]
        for i in range(200):
            u = lsrk45_step(u, em.rhs, dt, i * dt)
            energies.append(em.energy(u))
        assert max(energies) <= energies[0]


class TestPML:
    def test_sigma_zero_is_bitwise_plain_maxwell(self, monkeypatch):
        s1, disc = interval_solver(10, 2)
        monkeypatch.setattr(em_dg, "_PML_R_TARGET", 1.0)
        s2, _ = interval_solver(10, 2, pml=PmlSpec(thickness={"yhi": 0.25}))
        rng = np.random.default_rng(0)
        u = rng.normal(size=s1.zero_state().shape)
        r1 = s1.rhs(u, 0.0)
        r2 = s2.rhs(u, 0.0)
        assert np.array_equal(r1, r2)

    def test_reflection_below_1e6(self):
        # PEC-backed round trip (helpers.pml_round_trip) through a 0.25 m
        # layer at p = 2: 1.3e-16 measured; no layer returns 0.999
        assert pml_round_trip(10, p=2) < 1e-6

    def test_deeper_pml_not_worse(self):
        # 0.3 m against 0.15 m of layer at p = 2: 1.0e-16 against 5.6e-15
        assert pml_round_trip(12, p=2) <= pml_round_trip(6, p=2)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("sides", [("yhi",), ("xhi", "yhi")],
                             ids=["yhi", "xhi_yhi"])
    def test_2d_layer_does_not_grow(self, sides, p):
        # a 0.4 um ABC box (h = 100 nm, K = 32) with 0.2 um layers, two of
        # them overlapping in a corner: no eigenvalue of the rhs grows at
        # the stable step.  A rate graded inside each element gave
        # Re(lambda) dt = 5.8e-4 at p = 2 on the one-sided layer
        mesh = generate_structured_mesh(make_spec(
            2, [0.0, 0.0], [0.4e-6, 0.4e-6],
            [("vac", [0.0, 0.0], [0.4e-6, 0.4e-6], 1e-7)],
            default_tag="ABC"))
        disc = build_discretization(mesh, build_reference_element(2, p))
        pml = PmlSpec(thickness={side: 0.2e-6 for side in sides})
        table = vac_table()
        dt = stable_timestep("maxwell", disc, table, safety=1.0, pml=pml)
        lam = rhs_spectrum(MaxwellSolver(disc, table, pml=pml))
        assert np.max(lam.real) * dt <= 1e-10

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
        prof = source_profile(solver)
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

    @pytest.mark.parametrize("dim,pol", [(1, "y"), (2, "z")])
    def test_polarization_off_the_mesh_rejected(self, dim, pol):
        # the source drives one E component of the discretization: a 1D
        # mesh carries Ex alone, a 2D mesh Ex and Ey
        with pytest.raises(ph.PhysicsError,
                           match=f"on a {dim}D discretization, got '{pol}'"):
            layered_case(dim, 1, "PEC", polarization=pol)

    def test_spec_validation(self):
        with pytest.raises(ph.PhysicsError):
            ph.OpticalSourceSpec(f_c=100.0, f_w=200.0, beam_width=1.0, power=1.0)
        with pytest.raises(ph.PhysicsError):
            ph.OpticalSourceSpec(f_c=100.0, f_w=10.0, beam_width=1.0)
