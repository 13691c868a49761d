import numpy as np
import pytest

from pcddg import physics as ph
from pcddg.coupler import tvd_rk3_step
from pcddg.dd_dg import DDSolver, lax_friedrichs_flux
from pcddg.dgops import LDGDiffusion, build_discretization
from pcddg.mesh import generate_structured_mesh, make_spec, unit_interval_mesh
from pcddg.refelem import MeshError, build_reference_element

from helpers import nodal_field


def semi_table(**over):
    mat = ph.lt_gaas()
    for k, v in over.items():
        setattr(mat, k, v)
    return ph.MaterialTable(materials={"semi": mat})


def interval_dd(n, p, left="ELECTRODE_D", right="ELECTRODE_D"):
    mesh = unit_interval_mesh(n, left=left, right=right, region="semi")
    disc = build_discretization(mesh, build_reference_element(1, p))
    return DDSolver(disc, semi_table()), disc


def contact_and_walls_dd(dim, p):
    """A DD solver with an ELECTRODE_D contact on the left and Robin walls
    on every other boundary face."""
    if dim == 1:
        return interval_dd(5, p, right="INSULATOR_R")
    spec = make_spec(2, [0, 0], [1, 1], [("semi", [0, 0], [1, 1], 0.25)],
                     tag_boxes=[("ELECTRODE_D", [0, 0], [0, 1])],
                     default_tag="INSULATOR_R")
    disc = build_discretization(generate_structured_mesh(spec),
                                build_reference_element(2, p))
    return DDSolver(disc, semi_table()), disc


def scalar_rhs_composition(solver, state, e_t=None, g=None):
    """The transient rhs of each carrier composed from the one-carrier
    kernel: drift in v_c + v_c^t with diffusion, plus the drift of n_c^s in
    v_c^t (its contact flux is its own trace), minus R^t - G."""
    r_t = ph.srh_recombination(solver.n_e_s + state[0],
                               solver.n_h_s + state[1], solver) \
        - ph.srh_recombination(solver.n_e_s, solver.n_h_s, solver)
    if g is not None:
        r_t = r_t - g
    out = np.empty_like(state)
    for i, (sgn, mu, dc, v_s, ns) in enumerate(
            ((-1.0, solver.mu_e, solver.d_e, solver.v_e, solver.n_e_s),
             (1.0, solver.mu_h, solver.d_h, solver.v_h, solver.n_h_s))):
        if e_t is None:
            out[i] = solver.scalar_rhs(state[i], v_s, dc) - r_t
            continue
        v_t = tuple(sgn * mu * c for c in e_t)
        v = tuple(a + b for a, b in zip(v_s, v_t))
        source = solver.scalar_rhs(ns, v_t, 0.0,
                                   f_d=solver.disc.face_minus(ns))
        out[i] = solver.scalar_rhs(state[i], v, dc) + source - r_t
    return out


def full_rhs(solver, state, terms):
    """carrier_rhs plus the diffusion matrix: the whole transient rhs."""
    diff = solver._transient_background().matrix @ state.reshape(-1)
    return solver.carrier_rhs(state, terms) + diff.reshape(state.shape)


def element_integrals(disc, u):
    return disc.jac * (u @ disc.ref.mass_ref.sum(axis=0))


class TestFluxFunctions:
    """The LDG fluxes of the shared kernel, read off element integrals on
    [0, 1/2] + [1/2, 1] with Neumann walls: the integral of q over an
    element is the jump of u* across it, and that of div(c q) the net
    normal flux (c q)*.  beta points from element 0 into element 1."""

    def _kernel(self, p=1):
        mesh = unit_interval_mesh(2, left="INSULATOR_R", right="INSULATOR_R",
                                  region="semi")
        disc = build_discretization(mesh, build_reference_element(1, p))
        return LDGDiffusion(disc), disc

    def test_ldg_scalar_upwinds_minus(self):
        # u = 2 | 4: u* at the middle face is element 0's trace, 2
        kern, disc = self._kernel()
        u = np.array([[2.0, 2.0], [4.0, 4.0]])
        q = kern.gradient(u)[0]
        assert element_integrals(disc, q) == pytest.approx([0.0, 2.0],
                                                           abs=1e-12)

    def test_ldg_vector_takes_plus(self):
        # u = x, c = 5 | -1: (c q)* at the middle face is element 1's, -1
        kern, disc = self._kernel()
        u = disc.x[:, :, 0]
        coef = np.array([[5.0], [-1.0]])
        div = sum(kern.diffusion(u, coef))
        assert element_integrals(disc, div) == pytest.approx([-1.0, 1.0],
                                                             rel=1e-12)

    def test_ldg_continuous_identity(self):
        # continuous u and c q: both stars are the common trace, so the
        # gradient and the diffusion of u = x^2 are exact, with exact
        # Dirichlet data on the walls
        mesh = unit_interval_mesh(3, region="semi")
        disc = build_discretization(mesh, build_reference_element(1, 2))
        kern = LDGDiffusion(disc)
        x = disc.x[:, :, 0]
        f_d = disc.face_minus(x) ** 2
        assert np.allclose(kern.gradient(x ** 2, f_d)[0], 2.0 * x, atol=1e-12)
        div = sum(kern.diffusion(x ** 2, 1.5, f_d))
        assert np.allclose(div, 3.0, atol=1e-10)

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
    """The drift velocities of DDSolver: v_c = -+mu_c E^s is built by
    set_stationary, and step_terms adds only the E^t part."""

    def test_et_zero(self):
        solver, disc = interval_dd(4, 2)
        e_s = np.full((disc.K, disc.Np), 5e4)
        ns = np.full_like(e_s, 1e20)
        solver.set_stationary((e_s,), ns, ns)
        assert np.array_equal(solver.v_e[0], -solver.mu_e * e_s)
        state = np.stack([1e18 * np.sin(np.pi * disc.x[:, :, 0])] * 2)
        assert np.array_equal(
            solver.carrier_rhs(state, solver.step_terms(e_t=(0.0 * e_s,))),
            solver.carrier_rhs(state, solver.step_terms()))

    def test_carrier_signs_opposite(self):
        solver, disc = interval_dd(4, 2)
        e_s = 1e5 * np.cos(disc.x[:, :, 0])
        solver.set_stationary((e_s,), e_s ** 2, e_s ** 2)
        assert np.allclose(solver.v_e[0] / solver.mu_e,
                           -solver.v_h[0] / solver.mu_h, rtol=1e-15, atol=0)

    def test_src_uses_only_et(self):
        # zero transient state in uniform E^s and E^t over n^s = N (1 + x):
        # only -div(v^t n^s) remains, with v^t = -+mu E^t
        solver, disc = interval_dd(4, 2)
        x = disc.x[:, :, 0]
        ns = 1e20 * (1.0 + x)
        solver.set_stationary((np.full_like(x, 1e5),), ns, ns)
        e_t = (np.full_like(x, 2e3),)
        r = solver.carrier_rhs(np.zeros((2,) + x.shape),
                               solver.step_terms(e_t=e_t))
        assert np.allclose(r[0], solver.mu_e * 2e3 * 1e20, rtol=1e-10, atol=0)
        assert np.allclose(r[1], -solver.mu_h * 2e3 * 1e20, rtol=1e-10, atol=0)

    def test_total_velocity_sums_parts(self):
        # with E^t the drift is v_c + v_c^t, within round-off of the
        # velocity of the total field, and the source carries n^s in v_c^t
        solver, disc = interval_dd(5, 2, right="INSULATOR_R")
        x = disc.x[:, :, 0]
        e_s, e_t = 1e5 * np.cos(3 * x), 4e4 * np.sin(5 * x)
        ns = 1e20 * (1.0 + x ** 2)
        solver.set_stationary((e_s,), ns, 0.5 * ns)
        state = np.stack([1e19 * np.exp(-x), 1e19 * x])
        got = full_rhs(solver, state, solver.step_terms(e_t=(e_t,)))
        want = scalar_rhs_composition(solver, state, (e_t,))
        for i in range(2):
            assert np.allclose(got[i], want[i], rtol=0,
                               atol=1e-13 * np.abs(want[i]).max())

    @pytest.mark.parametrize("with_et", [False, True])
    @pytest.mark.parametrize("with_g", [False, True])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_stage_rhs_is_scalar_rhs_composition(self, dim, p, with_g,
                                                 with_et):
        # both carriers in one pass, with the diffusion matrix and the step's
        # frozen terms, equal the per-carrier kernels within round-off, on
        # a mesh with a Dirichlet contact and Robin walls
        rng = np.random.default_rng(10 * dim + p)
        solver, disc = contact_and_walls_dd(dim, p)
        x = disc.x[:, :, 0]
        y = disc.x[:, :, dim - 1]
        e_s = tuple(1e5 * np.cos(3 * x + nu * y) for nu in range(dim))
        ns = 1e20 * (1.0 + x ** 2 + 0.5 * y)
        solver.set_stationary(e_s, ns, 0.5 * ns)
        state = 1e19 * rng.uniform(size=(2,) + x.shape)
        g = 1e30 * rng.uniform(size=x.shape) if with_g else None
        e_t = tuple(4e4 * np.sin(5 * x - nu * y)
                    for nu in range(dim)) if with_et else None
        got = full_rhs(solver, state, solver.step_terms(g=g, e_t=e_t))
        want = scalar_rhs_composition(solver, state, e_t, g)
        for i in range(2):
            assert np.allclose(got[i], want[i], rtol=0,
                               atol=1e-13 * np.abs(want[i]).max())

    def test_bad_carrier(self):
        # the mobility of the solver's columns names the carrier
        solver, _ = interval_dd(2, 1)
        with pytest.raises(ph.PhysicsError):
            ph.parallel_field_mobility(0.0, "q", solver)


class TestGradient:
    def test_constant_gives_zero(self):
        solver, disc = interval_dd(4, 2)
        q = solver.gradient(np.full((disc.K, disc.Np), 3.0), 3.0)
        assert np.max(np.abs(q[0])) < 1e-12

    def test_linear_exact(self):
        solver, disc = interval_dd(2, 1)
        n = nodal_field(disc, lambda x: x)
        q = solver.gradient(n, disc.face_minus(n))
        assert np.allclose(q[0], 1.0, atol=1e-10)

    def test_quadratic_exact_p2(self):
        solver, disc = interval_dd(3, 2)
        n = nodal_field(disc, lambda x: x ** 2)
        q = solver.gradient(n, disc.face_minus(n))
        assert np.allclose(q[0], 2.0 * disc.x[:, :, 0], atol=1e-10)

    def test_2d_exact(self):
        spec = make_spec(2, [0, 0], [1, 1], [("semi", [0, 0], [1, 1], 0.25)],
                         default_tag="ELECTRODE_D")
        mesh = generate_structured_mesh(spec)
        disc = build_discretization(mesh, build_reference_element(2, 2))
        solver = DDSolver(disc, semi_table())
        n = nodal_field(disc, lambda x, y: x * y + y ** 2)
        q = solver.gradient(n, disc.face_minus(n))
        assert np.allclose(q[0], disc.x[:, :, 1], atol=1e-10)
        assert np.allclose(q[1], disc.x[:, :, 0] + 2 * disc.x[:, :, 1], atol=1e-10)

    def test_non_semiconductor_rejected(self):
        mesh = unit_interval_mesh(3, region="vac")
        disc = build_discretization(mesh, build_reference_element(1, 1))
        table = ph.MaterialTable(materials={"vac": ph.vacuum()})
        with pytest.raises(ph.PhysicsError, match="not a semiconductor"):
            DDSolver(disc, table)


class TestInvariants:
    def test_conservation_all_robin(self):
        solver, disc = interval_dd(16, 2, left="INSULATOR_R", right="INSULATOR_R")
        x = disc.x[:, :, 0]
        v = (np.sin(2 * np.pi * x),)
        d_nod = np.full_like(x, 0.05)
        u = 1.0 + 0.5 * np.sin(np.pi * x) ** 2
        m0 = disc.integrate(u)
        dt = 0.1 * (1.0 / 16) ** 2 / (0.05 * 25)
        rhs = lambda nn, t: solver.scalar_rhs(nn, v, d_nod)
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
        rhs = lambda nn, t: solver.scalar_rhs(nn, zero_v, d_nod)
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
        r1 = s1.carrier_rhs(state, s1.step_terms())
        r2 = s2.carrier_rhs(state, s2.step_terms())
        assert np.allclose(r1[0], r2[1], rtol=1e-12, atol=1e-3)
        assert np.allclose(r1[1], r2[0], rtol=1e-12, atol=1e-3)


class TestCarrierRhs:
    def test_zero_state_zero_rhs(self):
        solver, disc = interval_dd(6, 2)
        x = disc.x[:, :, 0]
        solver.set_stationary((1e5 * np.ones_like(x),),
                              np.full_like(x, 1e20), np.full_like(x, 1e12))
        state = np.zeros((2, disc.K, disc.Np))
        r = solver.carrier_rhs(state, solver.step_terms())
        assert np.max(np.abs(r)) < 1e-20

    def test_generation_enters_positively(self):
        solver, disc = interval_dd(6, 2)
        state = np.zeros((2, disc.K, disc.Np))
        g = np.full((disc.K, disc.Np), 1e30)
        r = solver.carrier_rhs(state, solver.step_terms(g=g))
        assert np.allclose(r[0], 1e30)
        assert np.allclose(r[1], 1e30)

    def test_transient_recombination_decomposition(self):
        # R^t = R(n^s + n^t) - R(n^s): with no field, a uniform state and
        # Robin walls nothing moves the carriers, so the rhs is -R^t
        solver, disc = interval_dd(4, 1, left="INSULATOR_R",
                                   right="INSULATOR_R")
        ns = np.full((disc.K, disc.Np), 1e20)
        solver.set_stationary((np.zeros_like(ns),), ns, ns)
        nt = np.full_like(ns, 1e19)
        mat = solver.mats[0]
        expect = ph.srh_recombination(1.1e20, 1.1e20, mat) \
            - ph.srh_recombination(1e20, 1e20, mat)
        r = solver.carrier_rhs(np.stack([nt, nt]), solver.step_terms())
        assert np.allclose(-r, expect, rtol=1e-12)

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
            gain = solver.step_terms().gain
            assert np.array_equal(gain, ph.srh_recombination(ns, 0.5 * ns,
                                                             solver))
            got = ph.srh_recombination(ns + nt, 0.5 * ns + nt, solver) - gain
            fresh = ph.srh_recombination(ns + nt, 0.5 * ns + nt, solver) \
                - ph.srh_recombination(ns, 0.5 * ns, solver)
            assert np.array_equal(got, fresh)
            rates.append(solver.carrier_rhs(np.stack([nt, nt]),
                                            solver.step_terms()))
        assert not np.allclose(rates[0], rates[1], rtol=1e-3)

    def test_second_set_stationary_changes_result(self):
        # the diffusion matrix is built on first use and dropped by
        # set_stationary: after a second stationary state the rhs is,
        # bitwise, that of a solver that only ever saw the second
        solver, disc = interval_dd(6, 2, right="INSULATOR_R")
        fresh, _ = interval_dd(6, 2, right="INSULATOR_R")
        x = disc.x[:, :, 0]
        state = np.stack([1e19 * np.exp(-x), 1e19 * x])
        ns = np.full_like(x, 1e20)
        e_t = (np.full_like(x, 3e3),)
        first = solver.carrier_rhs(state, solver.step_terms(e_t=e_t))
        second = (3e6 * np.sin(2 * x),)
        solver.set_stationary(second, ns, 0.5 * ns)
        fresh.set_stationary(second, ns, 0.5 * ns)
        got = solver.carrier_rhs(state, solver.step_terms(e_t=e_t))
        assert not np.allclose(got, first, rtol=1e-3)
        assert np.array_equal(
            got, fresh.carrier_rhs(state, fresh.step_terms(e_t=e_t)))


class TestBoundaryFlux:
    """The boundary rules of DDSolver, read off integrals of its kernels:
    the gradient integrates to the jump of n* between the two ends, and the
    rhs to the net boundary flux sum(f_diff - f_adv) over the end faces."""

    def _case(self, left, right):
        solver, disc = interval_dd(3, 2, left=left, right=right)
        x = disc.x[:, :, 0]
        n = 2.0 + np.sin(2.0 * x) + x ** 2
        v = (np.full_like(x, 1.5),)
        return solver, disc, n, v, 0.5

    def test_dirichlet_zero(self):
        # n* = f_D in the gradient, (v n)* = (n.v) f_D and (n.d grad n)* is
        # the inner trace; f_D is a face array and defaults to 0
        for f_d in (0.0, 3.0):
            solver, disc, n, v, d = self._case("ELECTRODE_D", "INSULATOR_R")
            kw = {} if f_d == 0.0 else \
                {"f_d": np.full((disc.K, disc.nfp_tot), f_d)}
            q = solver.gradient(n, **kw)[0]
            assert disc.integrate(q) == pytest.approx(n[-1, -1] - f_d,
                                                      rel=1e-12)
            rhs = solver.scalar_rhs(n, v, d, **kw)
            # left face: n_hat = -1, so f_adv = -v f_D and f_diff = -d q^-
            assert disc.integrate(rhs) == pytest.approx(
                v[0][0, 0] * f_d - d * q[0, 0], rel=1e-12)

    def test_dirichlet_penalty(self):
        # a penalty tau adds tau (f_D - n^-) to the outward diffusion flux on
        # Dirichlet faces only; without one the rhs is unchanged
        solver, disc, n, v, d = self._case("ELECTRODE_D", "INSULATOR_R")
        f_d = np.full((disc.K, disc.nfp_tot), 3.0)
        tau = solver.penalty(np.full_like(n, d), 10.0)
        plain = solver.scalar_rhs(n, v, d, f_d=f_d)
        pen = solver.scalar_rhs(n, v, d, f_d=f_d, penalty=tau)
        assert disc.integrate(pen - plain) == pytest.approx(
            tau[0, 0] * (3.0 - n[0, 0]), rel=1e-12)
        off_dirichlet = np.where(solver.dir_mask, tau, np.nan)
        assert np.array_equal(
            solver.scalar_rhs(n, v, d, f_d=f_d, penalty=off_dirichlet), pen)

    def test_robin_total_flux_zero(self):
        # n* = n^- in the gradient, and the total flux (drift, diffusion and
        # the advective source) through a Robin wall is zero
        solver, disc, n, v, d = self._case("INSULATOR_R", "INSULATOR_R")
        q = solver.gradient(n)[0]
        assert disc.integrate(q) == pytest.approx(n[-1, -1] - n[0, 0],
                                                  rel=1e-12)
        v_src = (-v[0],)
        rhs = solver.scalar_rhs(n, v, d) \
            + solver.drift(2.0 * n, v_src, solver.normal_traces(v_src))
        assert abs(disc.integrate(rhs)) < 1e-12 * disc.integrate(np.abs(rhs))

    def test_unknown_tag(self):
        # every tag a mesh can carry is a Dirichlet contact or a Robin wall
        # for DD; any other tag is rejected when the mesh is built
        with pytest.raises(MeshError, match="unknown boundary tag"):
            unit_interval_mesh(3, left="NOPE", region="semi")
