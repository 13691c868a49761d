import numpy as np
import pytest

from pcddg import physics as ph
from pcddg.coupler import tvd_rk3_step
from pcddg.dd_dg import (
    DDSolver,
    build_drift_velocity,
    lax_friedrichs_flux,
    ldg_diffusion_fluxes,
)
from pcddg.dgops import build_discretization, nodal_field
from pcddg.mesh import generate_structured_mesh, make_spec, unit_interval_mesh
from pcddg.refelem import MeshError, build_reference_element


def semi_table(**over):
    mat = ph.lt_gaas()
    for k, v in over.items():
        setattr(mat, k, v)
    return ph.MaterialTable(materials={"semi": mat})


def interval_dd(n, p, left="ELECTRODE_D", right="ELECTRODE_D", **kw):
    mesh = unit_interval_mesh(n, left=left, right=right, region="semi")
    disc = build_discretization(mesh, build_reference_element(1, p))
    return DDSolver(disc, semi_table(), **kw), disc


class TestFluxFunctions:
    def test_ldg_scalar_upwinds_minus(self):
        f = ldg_diffusion_fluxes(2.0, 4.0, 0.0, 0.0, None, 1.0)
        assert f["n_star"] == pytest.approx(2.0)

    def test_ldg_vector_takes_plus(self):
        f = ldg_diffusion_fluxes(0.0, 0.0, 5.0, -1.0, None, 1.0)
        assert f["dq_star"] == pytest.approx(-1.0)

    def test_ldg_continuous_identity(self):
        f = ldg_diffusion_fluxes(3.0, 3.0, 1.5, 1.5, None, -1.0)
        assert f["n_star"] == pytest.approx(3.0)
        assert f["dq_star"] == pytest.approx(1.5)

    def test_lf_alpha(self):
        # alpha = max(|1|, |-3|)/2 = 1.5
        got = lax_friedrichs_flux(np.array([1.0]), np.array([-3.0]),
                                  np.array([2.0]), np.array([1.0]))
        assert got[0] == pytest.approx(0.5 * (2.0 - 3.0) + 1.5 * 1.0)

    def test_lf_continuous(self):
        got = lax_friedrichs_flux(2.0, 2.0, 5.0, 5.0)
        assert got == pytest.approx(10.0)

    def test_lf_zero_velocity(self):
        assert lax_friedrichs_flux(0.0, 0.0, 1.0, 7.0) == pytest.approx(0.0)

    def test_lf_is_upwind_for_constant_v(self):
        got = lax_friedrichs_flux(3.0, 3.0, 2.0, 9.0)
        assert got == pytest.approx(3.0 * 2.0)   # takes the minus side


class TestDriftVelocity:
    def test_et_zero(self):
        es = (np.full((2, 3), 5.0),)
        mu = np.full((2, 3), 0.1)
        d = build_drift_velocity(es, None, mu, "e")
        assert np.allclose(d["v"][0], -0.5)
        assert np.allclose(d["v_src"][0], 0.0)

    def test_carrier_signs_opposite(self):
        es = (np.ones((1, 2)),)
        mu = np.ones((1, 2))
        ve = build_drift_velocity(es, None, mu, "e")["v"][0]
        vh = build_drift_velocity(es, None, mu, "h")["v"][0]
        assert np.allclose(ve, -vh)

    def test_src_uses_only_et(self):
        es = (np.full((1, 2), 2.0),)
        et = (np.full((1, 2), 0.5),)
        mu = np.full((1, 2), 2.0)
        d = build_drift_velocity(es, et, mu, "h")
        assert np.allclose(d["v"][0], 2.0 * 2.5)
        assert np.allclose(d["v_src"][0], 2.0 * 0.5)

    def test_bad_carrier(self):
        with pytest.raises(ph.PhysicsError):
            build_drift_velocity((np.ones((1, 1)),), None, np.ones((1, 1)), "q")


class TestGradient:
    def test_constant_gives_zero(self):
        solver, disc = interval_dd(4, 2)
        q = solver.gradient(np.full((disc.K, disc.Np), 3.0),
                            f_d=lambda x, t: 3.0)
        assert np.max(np.abs(q[0])) < 1e-12

    def test_linear_exact(self):
        solver, disc = interval_dd(2, 1)
        n = nodal_field(disc, lambda x: x)
        q = solver.gradient(n, f_d=lambda x, t: x[:, 0])
        assert np.allclose(q[0], 1.0, atol=1e-10)

    def test_quadratic_exact_p2(self):
        solver, disc = interval_dd(3, 2)
        n = nodal_field(disc, lambda x: x ** 2)
        q = solver.gradient(n, f_d=lambda x, t: x[:, 0] ** 2)
        assert np.allclose(q[0], 2.0 * disc.x[:, :, 0], atol=1e-10)

    def test_2d_exact(self):
        spec = make_spec(2, [0, 0], [1, 1], [("semi", [0, 0], [1, 1], 0.25)],
                         default_tag="ELECTRODE_D")
        mesh = generate_structured_mesh(spec)
        disc = build_discretization(mesh, build_reference_element(2, 2))
        solver = DDSolver(disc, semi_table())
        n = nodal_field(disc, lambda x, y: x * y + y ** 2)
        q = solver.gradient(n, f_d=lambda x, t: x[:, 0] * x[:, 1] + x[:, 1] ** 2)
        assert np.allclose(q[0], disc.x[:, :, 1], atol=1e-10)
        assert np.allclose(q[1], disc.x[:, :, 0] + 2 * disc.x[:, :, 1], atol=1e-10)

    def test_non_semiconductor_rejected(self):
        mesh = unit_interval_mesh(3, region="vac")
        disc = build_discretization(mesh, build_reference_element(1, 1))
        table = ph.MaterialTable(materials={"vac": ph.vacuum()})
        with pytest.raises(ph.PhysicsError, match="not a semiconductor"):
            DDSolver(disc, table)


def diffusion_error(n_el, p, d_val=1.0):
    solver, disc = interval_dd(n_el, p)
    x = disc.x[:, :, 0]
    d_nod = np.full_like(x, d_val)
    zero_v = (np.zeros_like(x),)
    lam = d_val * np.pi ** 2
    t_end = 0.02
    dt = 0.2 * (1.0 / n_el) ** 2 / (d_val * (2 * p + 1) ** 2)
    nsteps = int(np.ceil(t_end / dt))
    dt = t_end / nsteps
    u = np.sin(np.pi * x)
    rhs = lambda nn, t: solver.scalar_rhs(nn, zero_v, d_nod, t)
    t = 0.0
    for _ in range(nsteps):
        u = tvd_rk3_step(u, rhs, dt, t)
        t += dt
    return disc.l2_norm(u - np.sin(np.pi * x) * np.exp(-lam * t))


def advection_error(n_el, p):
    solver, disc = interval_dd(n_el, p)
    x = disc.x[:, :, 0]
    v = (np.ones_like(x),)
    d_nod = np.zeros_like(x)
    t_end = 0.25
    dt = 0.2 / (n_el * (2 * p + 1))
    nsteps = int(np.ceil(t_end / dt))
    dt = t_end / nsteps
    pulse = lambda y: np.exp(-((y - 0.3) / 0.1) ** 2)
    u = pulse(x)
    rhs = lambda nn, t: solver.scalar_rhs(nn, v, d_nod, t)
    t = 0.0
    for _ in range(nsteps):
        u = tvd_rk3_step(u, rhs, dt, t)
        t += dt
    return disc.l2_norm(u - pulse(x - t))


class TestMMS:
    @pytest.mark.parametrize("p,order_min", [(1, 1.5), (2, 2.5)])
    def test_diffusion_convergence(self, p, order_min):
        errs = [diffusion_error(n, p) for n in (4, 8, 16)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert orders[-1] > order_min

    @pytest.mark.parametrize("p,order_min", [(1, 1.5), (2, 2.5)])
    def test_advection_convergence(self, p, order_min):
        errs = [advection_error(n, p) for n in (8, 16, 32)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert orders[-1] > order_min


class TestInvariants:
    def test_conservation_all_robin(self):
        solver, disc = interval_dd(16, 2, left="INSULATOR_R", right="INSULATOR_R")
        x = disc.x[:, :, 0]
        v = (np.sin(2 * np.pi * x),)
        d_nod = np.full_like(x, 0.05)
        u = 1.0 + 0.5 * np.sin(np.pi * x) ** 2
        m0 = disc.integrate(u)
        dt = 0.1 * (1.0 / 16) ** 2 / (0.05 * 25)
        rhs = lambda nn, t: solver.scalar_rhs(nn, v, d_nod, t)
        for s in range(1000):
            u = tvd_rk3_step(u, rhs, dt, s * dt)
        assert abs(disc.integrate(u) - m0) / m0 < 1e-8

    def test_maximum_principle_surrogate(self):
        solver, disc = interval_dd(16, 1, left="INSULATOR_R", right="INSULATOR_R")
        x = disc.x[:, :, 0]
        d_nod = np.ones_like(x)
        zero_v = (np.zeros_like(x),)
        u = np.maximum(0.0, np.sin(np.pi * x)) ** 4
        dt = 0.2 * (1.0 / 16) ** 2 / 9.0
        rhs = lambda nn, t: solver.scalar_rhs(nn, zero_v, d_nod, t)
        for s in range(200):
            u = tvd_rk3_step(u, rhs, dt, s * dt)
        assert u.min() >= -1e-10 * 1.0

    def test_diffusion_operator_symmetric_negative(self):
        solver, disc = interval_dd(4, 2, left="INSULATOR_R", right="INSULATOR_R")
        x = disc.x[:, :, 0]
        d_nod = np.ones_like(x)
        zero_v = (np.zeros_like(x),)
        ndof = disc.K * disc.Np
        a = np.zeros((ndof, ndof))
        for j in range(ndof):
            e = np.zeros(ndof)
            e[j] = 1.0
            a[:, j] = solver.scalar_rhs(e.reshape(disc.K, disc.Np),
                                        zero_v, d_nod).reshape(-1)
        # symmetrize in the mass inner product
        import scipy.linalg as sla
        mglob = np.kron(np.diag(disc.jac), disc.ref.mass_ref)
        b = mglob @ a
        assert np.allclose(b, b.T, atol=1e-10)
        ev = sla.eigvalsh(0.5 * (b + b.T))
        assert ev.max() <= 1e-10

    def test_electron_hole_symmetry(self):
        table = semi_table(mu_h0=0.8, v_sat_h=1.725e5, beta_h=1.82,
                           tau_h=0.3e-12, tau_e=0.3e-12)
        mesh = unit_interval_mesh(6, region="semi")
        disc = build_discretization(mesh, build_reference_element(1, 2))
        s1 = DDSolver(disc, table)
        s2 = DDSolver(disc, table)
        x = disc.x[:, :, 0]
        e_field = 1e5 * np.sin(np.pi * x)
        ns = np.full_like(x, 1e18)
        s1.set_stationary((e_field,), ns, ns)
        s2.set_stationary((-e_field,), ns, ns)
        state = np.stack([1e16 * np.exp(-((x - 0.5) / 0.2) ** 2)] * 2)
        r1 = s1.carrier_rhs(state)
        r2 = s2.carrier_rhs(state)
        assert np.allclose(r1[0], r2[1], rtol=1e-12, atol=1e-3)
        assert np.allclose(r1[1], r2[0], rtol=1e-12, atol=1e-3)


class TestCarrierRhs:
    def test_zero_state_zero_rhs(self):
        solver, disc = interval_dd(6, 2)
        x = disc.x[:, :, 0]
        solver.set_stationary((1e5 * np.ones_like(x),),
                              np.full_like(x, 1e20), np.full_like(x, 1e12))
        state = np.zeros((2, disc.K, disc.Np))
        r = solver.carrier_rhs(state)
        assert np.max(np.abs(r)) < 1e-20

    def test_generation_enters_positively(self):
        solver, disc = interval_dd(6, 2)
        state = np.zeros((2, disc.K, disc.Np))
        g = np.full((disc.K, disc.Np), 1e30)
        r = solver.carrier_rhs(state, g=g)
        assert np.allclose(r[0], 1e30)
        assert np.allclose(r[1], 1e30)

    def test_transient_recombination_decomposition(self):
        solver, disc = interval_dd(4, 1)
        ns = np.full((disc.K, disc.Np), 1e20)
        solver.set_stationary((np.zeros_like(ns),), ns, ns)
        nt = np.full_like(ns, 1e19)
        mat = solver.mats[0]
        expect = ph.srh_recombination(1.1e20, 1.1e20, mat) \
            - ph.srh_recombination(1e20, 1e20, mat)
        assert np.allclose(solver.transient_recombination(nt, nt), expect, rtol=1e-12)

    def test_background_rate_follows_set_stationary(self):
        # R(n^s) is stored per stationary state: a second set_stationary
        # with other densities must change R^t, bitwise as if recomputed
        solver, disc = interval_dd(4, 1)
        zero = np.zeros((disc.K, disc.Np))
        nt = np.full_like(zero, 1e19)
        rates = []
        for level in (1e20, 3e18):
            ns = np.full_like(zero, level)
            solver.set_stationary((zero,), ns, 0.5 * ns)
            got = solver.transient_recombination(nt, nt)
            fresh = ph.srh_recombination(ns + nt, 0.5 * ns + nt, solver) \
                - ph.srh_recombination(ns, 0.5 * ns, solver)
            assert np.array_equal(got, fresh)
            rates.append(got)
        assert not np.allclose(rates[0], rates[1], rtol=1e-3)


class TestBoundaryFlux:
    """The boundary rules of DDSolver, read off integrals of its kernels:
    the gradient integrates to the jump of n* between the two ends, and the
    rhs to the net boundary flux sum(f_diff - f_adv) over the end faces."""

    def _case(self, left, right, f_d=None):
        solver, disc = interval_dd(3, 2, left=left, right=right, dirichlet=f_d)
        x = disc.x[:, :, 0]
        n = 2.0 + np.sin(2.0 * x) + x ** 2
        v = (np.full_like(x, 1.5),)
        return solver, disc, n, v, 0.5

    def test_dirichlet_zero(self):
        # n* = f_D in the gradient, (v n)* = (n.v) f_D and (n.d grad n)* is
        # the inner trace; f_D defaults to 0
        for f_d in (0.0, 3.0):
            fn = None if f_d == 0.0 else (lambda pts, t: np.full(len(pts), 3.0))
            solver, disc, n, v, d = self._case("ELECTRODE_D", "INSULATOR_R", fn)
            q = solver.gradient(n)[0]
            assert disc.integrate(q) == pytest.approx(n[-1, -1] - f_d,
                                                      rel=1e-12)
            rhs = solver.scalar_rhs(n, v, d)
            # left face: n_hat = -1, so f_adv = -v f_D and f_diff = -d q^-
            assert disc.integrate(rhs) == pytest.approx(
                v[0][0, 0] * f_d - d * q[0, 0], rel=1e-12)

    def test_robin_total_flux_zero(self):
        # n* = n^- in the gradient, and the total flux (drift, diffusion and
        # the advective source) through a Robin wall is zero
        solver, disc, n, v, d = self._case("INSULATOR_R", "INSULATOR_R")
        q = solver.gradient(n)[0]
        assert disc.integrate(q) == pytest.approx(n[-1, -1] - n[0, 0],
                                                  rel=1e-12)
        rhs = solver.scalar_rhs(n, v, d, v_src=(-v[0],), n_src=2.0 * n)
        assert abs(disc.integrate(rhs)) < 1e-12 * disc.integrate(np.abs(rhs))

    def test_unknown_tag(self):
        # every tag a mesh can carry is a Dirichlet contact or a Robin wall
        # for DD; any other tag is rejected when the mesh is built
        with pytest.raises(MeshError, match="unknown boundary tag"):
            unit_interval_mesh(3, left="NOPE", region="semi")
