"""Stationary Gummel solver: Poisson operator, oracle equivalence, I/O."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from pcddg import dgops, stationary
from pcddg.dgops import interpolate, interpolation_rows
from pcddg.mesh import make_spec, generate_structured_mesh
from pcddg.refelem import build_reference_element
from pcddg.physics import (MaterialTable, PhysicsError, gold, lt_gaas, vacuum,
                           EPS0, Q)
from pcddg.stationary import (StationaryProblem, assemble_affine_operator,
                              solve_sparse, save_checkpoint, load_checkpoint)

from helpers import interval_mesh, make_contacts
from sg_oracle import SGProblem, lt_gaas_params
from test_em_dg import layered_case

L = 1e-6
C = 1.3e22


def resistor_problem(n=60, p=2, v_bias=0.0, length=L):
    mesh = interval_mesh(n, length, region="semi")
    mats = MaterialTable({"semi": lt_gaas()})
    contacts = make_contacts([("left", [0.0], [0.0], v_bias),
                              ("right", [length], [length], 0.0)])
    return StationaryProblem(mesh, mats, contacts, p=p)


def diode_problem(h=2e-8, p=2, v_bias=0.0, length=2e-6):
    spec = make_spec(1, [0.0], [length],
                     [("p", [0.0], [length / 2], h),
                      ("n", [length / 2], [length], h)],
                     tag_boxes=[("ELECTRODE_D", [0.0], [0.0]),
                                ("ELECTRODE_D", [length], [length])],
                     default_tag="ELECTRODE_D")
    mesh = generate_structured_mesh(spec)
    mats = MaterialTable({"p": replace(lt_gaas(), doping=-C),
                          "n": replace(lt_gaas(), doping=C)})
    contacts = make_contacts([("left", [0.0], [0.0], v_bias),
                              ("right", [length], [length], 0.0)])
    return StationaryProblem(mesh, mats, contacts, p=p)


def electrodes_problem(p=1, h=0.25e-6):
    """Coarse two-electrode device: gold electrodes on LT-GaAs, vacuum in
    the gap, 1 V across."""
    um = 1e-6
    spec = make_spec(
        2, [0, 0], [2 * um, 1.2 * um],
        [("semi", [0, 0], [2 * um, 1 * um], h),
         ("auL", [0, 1 * um], [0.5 * um, 1.2 * um], h),
         ("auR", [1.5 * um, 1 * um], [2 * um, 1.2 * um], h),
         ("vac", [0.5 * um, 1 * um], [1.5 * um, 1.2 * um], h)],
        tag_boxes=[("ELECTRODE_D", [0, 1.2 * um], [0.5 * um, 1.2 * um]),
                   ("ELECTRODE_D", [1.5 * um, 1.2 * um], [2 * um, 1.2 * um]),
                   ("ABC", [0, 0], [2 * um, 0]),
                   ("INSULATOR_R", [0, 0], [2 * um, 1.2 * um])],
        default_tag="PEC")
    mats = MaterialTable({"semi": lt_gaas(), "auL": gold(), "auR": gold(),
                          "vac": vacuum()})
    contacts = make_contacts([("anode", [0, um], [0.5 * um, 1.2 * um], 1.0),
                              ("cathode", [1.5 * um, um], [2 * um, 1.2 * um],
                               0.0)])
    return StationaryProblem(generate_structured_mesh(spec), mats, contacts,
                             p=p)


class TestEquilibrium:
    def test_initial_guess_builtin_potential(self):
        prob = resistor_problem(n=20)
        phi, n_e, _ = prob.equilibrium_initial_guess()
        v_t = prob.materials.v_t
        expected = v_t * np.log(C / 9e12)
        assert phi == pytest.approx(expected, rel=1e-12)
        assert n_e == pytest.approx(C, rel=1e-9)

    def test_zero_bias_converges_immediately(self):
        prob = resistor_problem(n=40)
        sol = prob.gummel_solve()
        assert len(sol.gummel_history) <= 3
        v_t = prob.materials.v_t
        expected = v_t * np.log(C / 9e12)
        assert np.max(np.abs(sol.phi - expected)) < 1e-6
        assert sol.n_e == pytest.approx(C, rel=1e-8)
        # equilibrium field is numerically zero
        assert np.max(np.abs(sol.e_s[0])) < 1.0

    def test_history_recorded(self):
        prob = resistor_problem(n=20, v_bias=0.1)
        sol = prob.gummel_solve()
        assert len(sol.gummel_history) >= 2
        assert sol.gummel_history[-1] < 1e-6

    def test_problems_share_one_reference_element(self):
        # the reference element is built once per (dim, p)
        a, b = resistor_problem(n=8), resistor_problem(n=12, v_bias=0.1)
        assert a.pdisc.ref is b.pdisc.ref is b.ddisc.ref \
            is build_reference_element(1, 2)


class TestPoisson:
    @pytest.mark.parametrize("p", [1, 2])
    def test_mms_convergence(self, p):
        k = 2 * np.pi / L
        eps = 13.26 * EPS0
        errs = []
        hs = []
        for n in (8, 16, 32, 64):
            prob = resistor_problem(n=n, p=p)
            d = prob.pdisc
            xf = d.x.reshape(-1, 1)[d.vmapM].reshape(d.K, d.nfp_tot)
            g = np.sin(k * xf)
            rho = eps * k ** 2 * np.sin(k * d.x[:, :, 0])
            c = prob.poisson_apply(np.zeros((d.K, d.Np)), g).reshape(-1)
            phi = solve_sparse(prob.poisson_matrix,
                               rho.reshape(-1) - c).reshape(d.K, d.Np)
            err = d.l2_norm(phi - np.sin(k * d.x[:, :, 0]))
            errs.append(err)
            hs.append(L / n)
        orders = np.diff(np.log(errs)) / np.diff(np.log(hs))
        assert orders[-1] > p + 0.5

    def test_linear_solve_residual(self):
        prob = resistor_problem(n=30)
        a = assemble_affine_operator(
            lambda u: prob.poisson_apply(u, np.zeros_like(prob.phi_dirichlet)),
            prob.pdisc)
        c = prob.poisson_apply(np.zeros((30, 3))).reshape(-1)
        rho = prob.charge_density(np.full((30, 3), C),
                                  np.full((30, 3), 9e12 ** 2 / C)).reshape(-1)
        phi = solve_sparse(a, rho - c)
        resid = np.linalg.norm(a @ phi + c - rho)
        assert resid <= 1e-10 * max(np.linalg.norm(rho), np.linalg.norm(c))

    def test_matrix_probed_once_per_problem(self, monkeypatch):
        # A depends on eps, the mesh and the penalty, not on the Dirichlet
        # data: two ramp stages probe it once, on first use, not at set-up
        calls = []
        real = stationary.assemble_affine_operator

        def counted(apply_fn, disc, **kw):
            calls.append(disc)
            return real(apply_fn, disc, **kw)
        monkeypatch.setattr(stationary, "assemble_affine_operator", counted)
        prob = resistor_problem(n=12, v_bias=0.5)
        assert calls == []
        sol = prob.gummel_solve()
        assert sum(d is prob.pdisc for d in calls) == 1
        assert sum(d is prob.ddisc for d in calls) \
            == 2 * len(sol.gummel_history)

    def test_poisson_is_the_carrier_diffusion_kernel(self):
        # one LDG kernel: -poisson_apply is, bitwise, the carrier rhs with
        # no drift, diffusivity eps and the Poisson penalty
        prob = resistor_problem(n=12, v_bias=0.3)
        u = np.random.default_rng(5).normal(size=(12, prob.pdisc.Np))
        zero_v = (np.zeros_like(u),)
        eps = np.broadcast_to(prob.eps_p, u.shape)
        got = prob.dd.scalar_rhs(u, zero_v, eps, f_d=prob.phi_dirichlet,
                                 penalty=prob.tau)
        assert np.array_equal(got, -prob.poisson_apply(u))

    def test_all_neumann_raises_gauge_error(self):
        mesh = interval_mesh(10, L, region="semi",
                             left="INSULATOR_R", right="INSULATOR_R")
        mats = MaterialTable({"semi": lt_gaas()})
        with pytest.raises(PhysicsError, match="gauge"):
            StationaryProblem(mesh, mats, contacts=[], p=2)

    def test_electrode_outside_declared_contacts(self):
        mesh = interval_mesh(10, L, region="semi")
        mats = MaterialTable({"semi": lt_gaas()})
        contacts = make_contacts([("left", [0.0], [0.0], 0.0)])
        with pytest.raises(PhysicsError, match="contact"):
            StationaryProblem(mesh, mats, contacts, p=2)

    def test_contact_without_electrode_face_rejected(self):
        # a cathode box on the interior point L/2 holds no electrode face:
        # rejected, not solved with a current of 0
        mesh = interval_mesh(10, L, region="semi",
                             right="INSULATOR_R")
        mats = MaterialTable({"semi": lt_gaas()})
        contacts = make_contacts([("anode", [0.0], [0.0], 0.1),
                                  ("cathode", [L / 2], [L / 2], 0.0)])
        with pytest.raises(PhysicsError,
                           match="'cathode' matches no electrode face"):
            StationaryProblem(mesh, mats, contacts, p=2)


def affine_system(prob, name):
    """(kernel, f_d, disc) of the Poisson or one continuity system, at the
    field of one Newton-Poisson step at full bias: kernel(u, f_d) is the
    system at Dirichlet data f_d, kernel(u) at zero data."""
    g = prob._volt_face + prob._built_in_face
    if name == "poisson":
        return (lambda u, f_d=0.0: prob.poisson_apply(u, f_d), g, prob.pdisc)
    phi, n_e, n_h = prob._newton_poisson(*prob.equilibrium_initial_guess(), g)
    e_s = tuple(-q for q in prob.poisson.gradient(phi, g))
    prob.dd.set_stationary(prob.e_on_dd(e_s), n_e, n_h)
    n_other = n_h if name == "e" else n_e
    return prob._carrier_system(name, n_other, (n_e, n_h)) + (prob.ddisc,)


def probe_each_column(fn, shape):
    """Dense matrix of the linear part of fn on states of this shape: one
    unit probe per column, one kernel call each."""
    f0 = fn(np.zeros(shape))
    n = int(np.prod(shape))
    cols = []
    for i in range(n):
        u = np.zeros(n)
        u[i] = 1.0
        cols.append((fn(u.reshape(shape)) - f0).reshape(-1))
    return np.column_stack(cols)


ASSEMBLY_CASES = ([("resistor", p) for p in (1, 2, 3)]
                  + [("electrodes", p) for p in (1, 2)])


class TestAssembly:
    @pytest.mark.parametrize("system", ["poisson", "e", "h"])
    @pytest.mark.parametrize("device,p", ASSEMBLY_CASES)
    def test_matches_column_probing(self, device, p, system):
        # colored probing reads each column exactly as a lone unit probe
        # does: A is bitwise that of K*Np single-column probes of the
        # zero-data kernel, and the problem solves with that A and the
        # kernel at zero with its Dirichlet data as the offset
        if device == "resistor":
            prob = resistor_problem(n=12, p=p, v_bias=0.5)
        else:
            prob = electrodes_problem(p=p)
        kernel, f_d, disc = affine_system(prob, system)
        a = assemble_affine_operator(kernel, disc)
        assert a.dtype == np.float64 and a.has_canonical_format
        assert np.all(a.data != 0)
        assert np.array_equal(a.toarray(),
                              probe_each_column(kernel, (disc.K, disc.Np)))
        if system == "poisson":
            assert np.array_equal(prob.poisson_matrix.toarray(), a.toarray())
            return
        c = kernel(np.zeros((disc.K, disc.Np)), f_d).reshape(-1)
        dens = {"e": prob.dd.n_e_s, "h": prob.dd.n_h_s}
        n = prob.continuity_solve(system, dens[system],
                                  dens["h" if system == "e" else "e"])
        assert np.array_equal(n.reshape(-1),
                              np.maximum(solve_sparse(a, -c), 0.0))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_multicomponent_matches_column_probing(self, dim):
        # the Maxwell operator over field, PML and Drude rows (ncomp > 1):
        # bitwise the matrix of one probe of the kernel per column of the
        # flat state
        solver, _, _ = layered_case(dim, 2, "ABC")
        assert {"dx", "jpx"} <= set(solver.comp)
        a = solver.operator
        assert a.dtype == np.float64 and a.has_canonical_format
        assert np.all(a.data != 0)
        assert np.array_equal(a.toarray(), probe_each_column(
            solver._kernel, solver.zero_state().shape))

    def test_kernel_takes_stacked_probes(self):
        # 12 elements, p = 2: every probe of a matrix fits in one kernel
        # call, after the zero probe, a stack of one
        prob = resistor_problem(n=12, v_bias=0.5)
        for system in ("poisson", "e"):
            kernel, _, disc = affine_system(prob, system)
            shapes = []

            def recorded(u, kernel=kernel):
                shapes.append(u.shape)
                return kernel(u)
            assemble_affine_operator(recorded, disc)
            assert len(shapes) == 2
            assert shapes[0] == (1, 12, 3)
            assert shapes[1][0] > 1 and shapes[1][1:] == (12, 3)

    def test_gummel_reuses_one_plan_per_subdomain(self, monkeypatch):
        # set-up builds no probe plan; a Gummel solve of several sweeps
        # (1 + 2 sweeps assemblies, test_matrix_probed_once_per_problem)
        # builds one for the Poisson subdomain and one for the DD
        # subdomain, and every later assembly reads them
        built = []
        real_build = dgops._build_probe_plan

        def build(disc, nc):
            built.append(disc)
            return real_build(disc, nc)
        monkeypatch.setattr(dgops, "_build_probe_plan", build)
        prob = resistor_problem(n=12, v_bias=0.5)
        assert built == [] and prob.pdisc.probe_plans == {} \
            and prob.ddisc.probe_plans == {}
        sol = prob.gummel_solve()
        assert len(sol.gummel_history) > 1
        assert len(built) == 2
        assert built[0] is prob.pdisc and built[1] is prob.ddisc
        assert list(prob.pdisc.probe_plans) == [1]
        assert list(prob.ddisc.probe_plans) == [1]

    @pytest.mark.parametrize("device", ["resistor", "electrodes"])
    def test_newton_jacobian_is_the_scipy_sum(self, device):
        # A + diag(d) formed in place is array for array scipy's
        # (A + sp.diags(d)).tocsc(), also where a diagonal entry cancels
        if device == "resistor":
            prob = resistor_problem(n=12, v_bias=0.5)
        else:
            prob = electrodes_problem()
        d = prob.pdisc
        dcharge = np.zeros((d.K, d.Np))
        dcharge[prob.semi_in_p] = np.random.default_rng(2).uniform(
            1.0, 2.0, size=(prob.ddisc.K, d.Np)) * 1e3
        a = prob.poisson_matrix
        dcharge = dcharge.reshape(-1)
        cancel = dcharge.copy()
        cancel[3] = -a[3, 3]
        assert cancel[3] != 0
        for dd in (dcharge, cancel):
            want = (a + sp.diags(dd)).tocsc()
            got = prob.newton_jacobian(dd)
            assert got.format == "csc" and got.shape == want.shape
            for name in ("data", "indices", "indptr"):
                x, y = getattr(got, name), getattr(want, name)
                assert x.dtype == y.dtype and np.array_equal(x, y), name
        assert want.nnz == a.nnz - 1


class TestOracleEquivalence:
    def test_resistor_matches_sg_oracle(self):
        v_bias = 0.2
        xo = np.linspace(0.0, L, 601)
        ref = SGProblem(xo, C, lt_gaas_params()).solve(v_bias, 0.0)
        prob = resistor_problem(n=60, v_bias=v_bias)
        sol = prob.gummel_solve()
        pts = xo.reshape(-1, 1)
        phi = interpolate(sol.phi, *interpolation_rows(prob.pdisc, pts))
        n_e = interpolate(sol.n_e, *interpolation_rows(prob.ddisc, pts))
        assert np.max(np.abs(phi - ref["phi"])) < 0.01 * v_bias
        inner = slice(2, -2)
        rel = np.abs(n_e[inner] - ref["n_e"][inner]) / ref["n_e"][inner]
        assert np.max(rel) < 0.05
        cur = prob.stationary_current(sol)
        assert -cur["left"] == pytest.approx(ref["current"], rel=0.01)

    def test_resistor_current_is_drift_dominated(self):
        v_bias = 0.1
        prob = resistor_problem(n=60, v_bias=v_bias)
        sol = prob.gummel_solve()
        m = prob.materials.region("semi")
        e_mag = v_bias / L
        mu = m.mu_e0 / (1.0 + (m.mu_e0 * e_mag / m.v_sat_e) ** m.beta_e) \
            ** (1.0 / m.beta_e)
        j_drift = Q * C * mu * e_mag
        cur = prob.stationary_current(sol)
        assert -cur["left"] == pytest.approx(j_drift, rel=0.01)

    def test_contact_currents_balance(self):
        prob = resistor_problem(n=60, v_bias=0.2)
        sol = prob.gummel_solve()
        cur = prob.stationary_current(sol)
        total = cur["left"] + cur["right"]
        assert abs(total) < 1e-6 * abs(cur["left"])

    def test_diode_matches_sg_oracle(self):
        length = 2e-6
        v_bias = 0.3
        xo = np.linspace(0.0, length, 2001)
        dop = np.where(xo < length / 2, -C, C)
        ref = SGProblem(xo, dop, lt_gaas_params()).solve(v_bias, 0.0)
        prob = diode_problem(v_bias=v_bias)
        sol = prob.gummel_solve()
        pts = xo.reshape(-1, 1)
        phi = interpolate(sol.phi, *interpolation_rows(prob.pdisc, pts))
        v_t = prob.materials.v_t
        v_bi = 2.0 * v_t * np.log(C / 9e12)
        assert np.max(np.abs(phi - ref["phi"])) < 0.01 * (v_bias + v_bi)
        # majority densities away from the junction and contacts
        n_e = interpolate(sol.n_e, *interpolation_rows(prob.ddisc, pts))
        maj = ref["n_e"] > 0.1 * C
        maj[:3] = maj[-3:] = False
        rel = np.abs(n_e[maj] - ref["n_e"][maj]) / ref["n_e"][maj]
        assert np.max(rel) < 0.05
        cur = prob.stationary_current(sol)
        assert -cur["left"] == pytest.approx(ref["current"], rel=0.02)


class TestRobustness:
    def test_bias_ramp_path_independence(self, monkeypatch):
        v_bias = 0.3
        prob = resistor_problem(n=40, v_bias=v_bias)
        sol_a = prob.gummel_solve()
        v_t = prob.materials.v_t
        prob2 = resistor_problem(n=40, v_bias=v_bias)
        # ramp stages of 0.06 V, against 10 V_T (about 0.26 V)
        monkeypatch.setattr(stationary, "_RAMP_STEP", 0.06 / v_t)
        sol_b = prob2.gummel_solve()
        assert np.max(np.abs(sol_a.phi - sol_b.phi)) / v_t < 1e-4
        assert sol_a.n_e == pytest.approx(sol_b.n_e, rel=1e-4)

    def test_tolerance_and_flag(self, monkeypatch):
        prob = resistor_problem(n=30, v_bias=0.1)
        monkeypatch.setattr(stationary, "_GUMMEL_TOL", 1e-7)
        sol = prob.gummel_solve()
        assert sol.gummel_history[-1] < 1e-7


def assert_same_solution(prob, got, want):
    """Bitwise equal state, field, current and terminal currents."""
    for name in ("phi", "n_e", "n_h"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for a, b in zip(got.e_s + got.j, want.e_s + want.j, strict=True):
        assert np.array_equal(a, b)
    assert prob.stationary_current(got) == prob.stationary_current(want)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        # two ramp stages; the loaded solution is the solved one, bitwise
        prob = resistor_problem(n=30, v_bias=0.5)
        sol = prob.gummel_solve()
        path = tmp_path / "stationary.chk"
        save_checkpoint(path, prob, sol)
        header = path.read_text().splitlines()
        assert header[0] == "# pcddg stationary checkpoint v3"
        assert header[1] == f"# mesh_hash {prob.mesh.content_hash()}"
        assert header[2] == f"# state_key {prob.state_key()}"
        assert header[3] == "# phi n_e n_h"
        assert len(header) == 4 + prob.pdisc.K * prob.pdisc.Np
        back = load_checkpoint(path, prob)
        assert_same_solution(prob, back, sol)
        assert back.gummel_history == []

    def test_mesh_hash_mismatch(self, tmp_path):
        prob = resistor_problem(n=30)
        sol = prob.gummel_solve()
        path = tmp_path / "stationary.chk"
        save_checkpoint(path, prob, sol)
        other = resistor_problem(n=31)
        with pytest.raises(PhysicsError, match="hash"):
            load_checkpoint(path, other)

    def test_other_bias_rejected(self, tmp_path):
        # same mesh, other contact voltage: the state key differs
        prob = resistor_problem(n=30, v_bias=0.0)
        path = tmp_path / "stationary.chk"
        save_checkpoint(path, prob, prob.gummel_solve())
        with pytest.raises(PhysicsError, match="other stationary inputs"):
            load_checkpoint(path, resistor_problem(n=30, v_bias=0.1))

    def test_other_material_rejected(self, tmp_path):
        prob = resistor_problem(n=30)
        path = tmp_path / "stationary.chk"
        save_checkpoint(path, prob, prob.gummel_solve())
        other = resistor_problem(n=30)
        other.materials.materials["semi"].tau_e *= 2.0
        with pytest.raises(PhysicsError, match="other stationary inputs"):
            load_checkpoint(path, other)

    def test_v1_rejected(self, tmp_path):
        # earlier formats (v2 stored E and node coordinates) are rejected
        prob = resistor_problem(n=30)
        path = tmp_path / "stationary.chk"
        save_checkpoint(path, prob, prob.gummel_solve())
        text = path.read_text()
        for old in ("v1", "v2"):
            path.write_text(text.replace("checkpoint v3", f"checkpoint {old}"))
            with pytest.raises(PhysicsError, match="v3"):
                load_checkpoint(path, prob)

    def test_loaded_solution_carries_current(self, tmp_path):
        # 2D two-electrode device: the state after one Gummel sweep at full
        # bias (the coarse device does not converge without a ramp
        # predictor) goes through the checkpoint bitwise, field and
        # terminal currents included
        prob = electrodes_problem(p=1)
        state = prob._sweep(prob.phi_dirichlet,
                            *prob.equilibrium_initial_guess())
        sol = prob._finalize(*state, [])
        path = tmp_path / "stationary.chk"
        save_checkpoint(path, prob, sol)
        back = load_checkpoint(path, prob)
        assert_same_solution(prob, back, sol)
        assert all(v != 0.0 for v in prob.stationary_current(back).values())
