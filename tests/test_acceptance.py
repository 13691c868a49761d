"""End-to-end acceptance checks: convergence orders, conservation and
stability properties, oracle equivalence, material-model validation, and
coupled-run consistency."""

import numpy as np
import pytest

from pcddg import convergence as cv
from pcddg import physics as ph
from pcddg.coupler import (CoupledSystem, MultirateSchedule, ProbeSet,
                           lsrk45_step, run_coupled, stable_timestep,
                           tvd_rk3_step)
from pcddg.dd_dg import DDSolver
from pcddg.dgops import build_discretization
from pcddg.em_dg import MaxwellSolver
from pcddg.mesh import generate_structured_mesh, make_spec, unit_interval_mesh
from pcddg.physics import MaterialTable, OpticalSourceSpec
from pcddg.refelem import build_reference_element
from pcddg.stationary import Contact, StationaryProblem

from helpers import interval_mesh, observed_orders, pml_round_trip

from sg_oracle import SGProblem, lt_gaas_params

C0, EPS0, MU0 = ph.C0, ph.EPS0, ph.MU0
Z0 = np.sqrt(MU0 / EPS0)


def vac_table():
    return MaterialTable(materials={"vac": ph.vacuum()})


# -- 1: Maxwell 2D TE_z convergence -----------------------------------------

class TestMaxwell2DOrders:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_orders(self, p):
        rows = cv.order_table("maxwell2d", orders=(p,), levels=4)
        order = observed_orders(rows)[p]
        assert order >= p + 0.5, cv.format_table(rows)


# -- 2: LDG diffusion / advection convergence --------------------------------

class TestDDOrders:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_diffusion(self, p):
        rows = cv.order_table("dd_diffusion", orders=(p,), levels=3)
        order = observed_orders(rows)[p]
        assert order >= p + 0.5, cv.format_table(rows)

    @pytest.mark.parametrize("p", [1, 2])
    def test_advection(self, p):
        rows = cv.order_table("dd_advection", orders=(p,), levels=3)
        order = observed_orders(rows)[p]
        assert order >= p + 0.5, cv.format_table(rows)


# -- 3: energy decay ----------------------------------------------------------

def _cavity_energies(n, p, k, nsteps=None, t_end=None, safety=0.6):
    mesh = unit_interval_mesh(n, region="vac", left="PEC", right="PEC")
    disc = build_discretization(mesh, build_reference_element(1, p))
    solver = MaxwellSolver(disc, vac_table())
    x = disc.x[:, :, 0]
    u = solver.zero_state()
    u[solver.idx["ex"]] = np.sin(k * np.pi * x)
    dt = stable_timestep("maxwell", disc, vac_table(), safety=safety)
    if t_end is not None:
        nsteps = int(np.ceil(t_end / dt))
        dt = t_end / nsteps
    energies = np.empty(nsteps + 1)
    energies[0] = solver.energy(u)
    t = 0.0
    for i in range(nsteps):
        u = tvd_rk3_step(u, solver.rhs, dt, t)
        t += dt
        energies[i + 1] = solver.energy(u)
    return energies


class TestEnergyDecay:
    def test_nonincreasing_10k_steps(self):
        e = _cavity_energies(8, 2, 1, nsteps=10_000)
        assert np.all(np.diff(e) <= 0.0)
        assert e[-1] < e[0]

    def test_decay_shrinks_with_refinement(self):
        t_end = 2.0 / C0
        deficits = [1.0 - (lambda e: e[-1] / e[0])(
            _cavity_energies(n, 2, 3, t_end=t_end)) for n in (4, 8, 16)]
        assert deficits[0] / deficits[1] >= 2.0
        assert deficits[1] / deficits[2] >= 2.0


# -- 4: charge conservation ---------------------------------------------------

class TestChargeConservation:
    def test_robin_walls_conserve_mass(self):
        mesh = unit_interval_mesh(16, left="INSULATOR_R", right="INSULATOR_R",
                                  region="semi")
        disc = build_discretization(mesh, build_reference_element(1, 2))
        table = MaterialTable(materials={"semi": ph.lt_gaas()})
        solver = DDSolver(disc, table)
        x = disc.x[:, :, 0]
        u = np.exp(-((x - 0.4) / 0.12) ** 2)
        v = (np.full_like(x, 0.35),)
        d_nod = np.full_like(x, 1e-3)
        rhs = lambda n, t: solver.scalar_rhs(n, v, d_nod)
        h = 1.0 / 16
        dt = 0.25 * min(h ** 2 / (1e-3 * 25), h / (0.35 * 5))
        m0 = disc.integrate(u)
        t = 0.0
        for _ in range(1000):
            u = tvd_rk3_step(u, rhs, dt, t)
            t += dt
        drift = abs(disc.integrate(u) - m0) / m0
        assert drift < 1e-8


# -- 5: stationary oracle equivalence ----------------------------------------

class TestStationaryOracle:
    def test_resistor_matches_sg_oracle(self):
        v_bias = 0.2
        n_el, p, length = 40, 2, 1e-6
        mesh = interval_mesh(n_el, length, region="semi")
        table = MaterialTable(materials={"semi": ph.lt_gaas()})
        contacts = (Contact("left", np.array([0.0]), np.array([0.0]), 0.0),
                    Contact("right", np.array([length]), np.array([length]),
                            v_bias))
        prob = StationaryProblem(mesh, table, contacts, p=p)
        sol = prob.gummel_solve()

        oracle = SGProblem(np.linspace(0.0, length, 601),
                           np.full(601, 1.3e22), lt_gaas_params())
        ref = oracle.solve(0.0, v_bias)

        xg = prob.pdisc.x[:, :, 0].reshape(-1)
        phi_ref = np.interp(xg, oracle.x, ref["phi"])
        assert np.max(np.abs(sol.phi.reshape(-1) - phi_ref)) < 0.01 * v_bias

        h = length / n_el
        interior = (xg > 2 * h) & (xg < length - 2 * h)
        for key, num in (("n_e", sol.n_e), ("n_h", sol.n_h)):
            dref = np.interp(xg, oracle.x, ref[key])
            rel = np.abs(num.reshape(-1) - dref)[interior] / dref[interior]
            assert np.max(rel) < 0.05


# -- 6: ohmic boundary algebra ------------------------------------------------

class TestOhmicAlgebra:
    def test_densities_and_neutrality(self):
        c, n_i = 1.3e22, 9e12
        n_e, n_h = ph.ohmic_contact_densities(c, n_i)
        exact = 0.5 * (c + np.sqrt(c * c + 4 * n_i * n_i))
        assert abs(n_e - exact) / exact < 1e-6
        assert abs(n_e - c) / c < 1e-6          # C >> n_i regime
        assert abs(n_e - n_h - c) / c < 1e-10   # exact charge neutrality
        assert n_e * n_h == pytest.approx(n_i * n_i, rel=1e-10)


# -- 7: Drude-Fresnel reflection ----------------------------------------------

def _reflection_trace(metal, nst=None):
    """Ex at 13 um over nst equal steps to 90 fs (by default, the count the
    stable step gives)."""
    lam = C0 / 375e12
    mat2 = "au" if metal else "vac2"
    spec = make_spec(1, [0.0], [18e-6],
                     regions=[("vac", [0.0], [16e-6], 50e-9),
                              (mat2, [16e-6], [18e-6], 15e-9)],
                     default_tag="ABC")
    mesh = generate_structured_mesh(spec)
    disc = build_discretization(mesh, build_reference_element(1, 3))
    table = MaterialTable(materials={"vac": ph.vacuum(), "au": ph.gold(),
                                     "vac2": ph.vacuum()})
    solver = MaxwellSolver(disc, table)
    x = disc.x[:, :, 0]
    f = np.exp(-((x - 6e-6) / 1.5e-6) ** 2) * np.sin(2 * np.pi * (x - 6e-6) / lam)
    u = solver.zero_state()
    u[solver.idx["ex"]] = f
    u[solver.idx["hz"]] = -f / Z0             # rightward-moving pulse
    kk, jj = np.unravel_index(np.argmin(np.abs(x - 13e-6)), x.shape)
    t_end = 90e-15
    if nst is None:
        nst = int(np.ceil(t_end / stable_timestep("maxwell", disc, table)))
    dt = t_end / nst
    trace = np.empty(nst + 1)
    trace[0] = u[solver.idx["ex"]][kk, jj]
    t = 0.0
    for s in range(nst):
        u = lsrk45_step(u, solver.rhs, dt, t)
        t += dt
        trace[s + 1] = u[solver.idx["ex"]][kk, jj]
    return np.arange(nst + 1) * dt, trace


class TestDrudeReflection:
    def test_fresnel_at_375thz(self):
        # the gold run's drude_plasma bound sets the step of both runs, so
        # the traces share one time grid
        t, gold_tr = _reflection_trace(True)
        _, ref_tr = _reflection_trace(False, nst=len(t) - 1)
        om = 2 * np.pi * 375e12
        dt = t[1] - t[0]
        phase = np.exp(-1j * om * t)
        r_num = abs(np.sum((gold_tr - ref_tr) * phase) /
                    np.sum(ref_tr * phase))
        drude = ph.gold().drude
        eps = drude.eps_inf - drude.omega_p ** 2 / (om ** 2 + 1j * drude.gamma * om)
        n = np.sqrt(eps)
        if n.imag < 0:
            n = -n
        r_exact = abs((1 - n) / (1 + n))
        assert abs(r_num - r_exact) / r_exact < 0.02


# -- 8: time-scale ordering: test_coupler.py, TestStableTimestep

# -- 9/10: coupled toy device -------------------------------------------------

def _toy_device(p=2, h=5e-8, right_tag="ELECTRODE_D"):
    length = 2e-6
    spec = make_spec(1, [0.0], [length],
                     [("vac", [0.0], [1e-6], h), ("semi", [1e-6], [length], h)],
                     tag_boxes=[("SOURCE_APERTURE", [0.0], [0.0]),
                                (right_tag, [length], [length])],
                     default_tag="PEC")
    mesh = generate_structured_mesh(spec)
    mats = MaterialTable({"vac": ph.vacuum(), "semi": ph.lt_gaas()})
    ref = build_reference_element(1, p)
    em_disc = build_discretization(mesh, ref)
    src = OpticalSourceSpec(f_c=375e12, f_w=25e12, beam_width=1e-6,
                            peak_field=1e7)
    em = MaxwellSolver(em_disc, mats, source=src)
    is_semi = mesh.centroids()[:, 0] > 1e-6
    dd_disc = build_discretization(mesh, ref, element_mask=is_semi,
                                   cut_face_tag=lambda k, f, nb: "INSULATOR_R")
    dd = DDSolver(dd_disc, mats)
    zeros = np.zeros((dd_disc.K, dd_disc.Np))
    c = 1.3e22
    dd.set_stationary((zeros,), np.full_like(zeros, c),
                      np.full_like(zeros, 9e12 ** 2 / c))
    contacts = ()
    if right_tag == "ELECTRODE_D":
        contacts = (Contact("right", np.array([length]), np.array([length]),
                            0.0),)
    cs = CoupledSystem(em, dd, wavelength=800e-9, contacts=contacts)
    dt_em = stable_timestep("maxwell", em_disc, mats)
    return cs, dt_em, src


class TestMultirateConsistency:
    def test_m5_matches_m1_currents(self):
        # the Maxwell step 0.8 h / (5 c) of the vacuum elements, below the
        # stable bound, keeps the macro step this 1e-3 gate was set for
        t_end = 150e-15
        traces = {}
        dt_em = 0.8 * 5e-8 / (5 * C0)
        for m in (5, 1):
            cs, _dt_em, _src = _toy_device()
            n_macro = int(round(t_end / (5 * dt_em)))  # shared sync grid
            sched = MultirateSchedule(dt_em=dt_em, m=m,
                                      t_end=n_macro * 5 * dt_em)
            probes = ProbeSet(contacts=cs.contacts, cadence=5 // m)
            run_coupled(cs, sched, probes=probes)
            traces[m] = (np.array(probes.times),
                         np.array(probes.columns["I_right"]))
        t5, i5 = traces[5]
        t1, i1 = traces[1]
        n = min(len(i5), len(i1))
        assert np.max(np.abs(t5[:n] - t1[:n])) < 1e-25
        rel = np.linalg.norm(i5[:n] - i1[:n]) / np.linalg.norm(i1[:n])
        assert rel < 1e-3


class TestCarrierLifecycle:
    def test_rise_and_srh_decay(self):
        cs, dt_em, src = _toy_device(right_tag="ABC")
        m = 10
        t_end = 0.8e-12
        n_macro = int(round(t_end / (m * dt_em)))
        sched = MultirateSchedule(dt_em=dt_em, m=m, t_end=n_macro * m * dt_em)
        probes = ProbeSet(cadence=10)
        run_coupled(cs, sched, probes=probes)
        t = np.array(probes.times)
        n_e = np.array(probes.columns["N_e"])
        assert n_e.max() > 0

        # monotone rise while the pulse envelope is above 20 percent of peak
        travel = 1e-6 / C0
        t_cut = src.delay + travel + src.sigma_t * np.sqrt(2 * np.log(5))
        rising = n_e[t < t_cut]
        assert np.all(np.diff(rising) >= -1e-9 * n_e.max())

        # post-pulse decay time constant vs the SRH rate at that density
        window = (t > 0.35e-12) & (t < 0.75e-12)
        slope = np.polyfit(t[window], np.log(n_e[window]), 1)[0]
        tau_fit = -1.0 / slope
        volume = 1e-6
        delta = n_e[np.argmin(np.abs(t - 0.55e-12))] / volume
        mat = ph.lt_gaas()
        c, n_i = 1.3e22, 9e12
        nh0 = n_i ** 2 / c
        rate = ((c + delta) * (nh0 + delta) - n_i ** 2) / (
            mat.tau_e * (mat.n_h1 + nh0 + delta)
            + mat.tau_h * (mat.n_e1 + c + delta))
        tau_srh = delta / rate
        assert abs(tau_fit - tau_srh) / tau_srh < 0.2


# -- 11: PML quality ----------------------------------------------------------

# the reflection the PML grading is designed for (em_dg._PML_R_TARGET): a
# PEC-backed layer returns R^2 of a normally incident pulse's energy
PML_DESIGN_R = 1e-8


class TestPmlQuality:
    """A pulse into a PEC-backed 1D layer and back (helpers.pml_round_trip).
    A 1D ABC absorbs exactly, so only a reflecting backing measures the
    layer: with no layer the wall returns the whole pulse."""

    def test_pec_backing_returns_the_pulse(self):
        assert pml_round_trip(0) > 0.99

    @pytest.mark.parametrize("depth_elems", [8, 10, 14])
    def test_round_trip_at_design_value(self, depth_elems):
        assert 0.5 * PML_DESIGN_R ** 2 <= pml_round_trip(depth_elems) \
            <= 2.0 * PML_DESIGN_R ** 2

    def test_ten_element_layer_below_1e6(self):
        # p = 1 resolves the grading least (2.9e-17 measured; no layer
        # returns 0.91)
        assert pml_round_trip(10, p=1) < 1e-6

    def test_deeper_layer_not_worse(self):
        # four elements do not resolve the grading, which then reflects
        assert pml_round_trip(10) < pml_round_trip(4)


# -- 12: grating generation-enhancement smoke test ---------------------------

def _total_generation(grating, width=0.5e-6, h=5e-8, p=2, bar_w=0.2e-6,
                      bar_t=0.1e-6, t_end=1.3e-13):
    """Time-integrated optical generation in a 2D semiconductor slab,
    optionally with a metal bar on the surface (mirror side walls emulate
    a periodic bar array)."""
    y_semi, height = 1.0e-6, 2.2e-6
    regions = [("semi", [0.0, 0.0], [width, y_semi], h)]
    table = {"semi": ph.lt_gaas()}
    if grating:
        x0 = 0.5 * (width - bar_w)
        regions += [("au", [x0, y_semi], [x0 + bar_w, y_semi + bar_t], h),
                    ("vacL", [0.0, y_semi], [x0, y_semi + bar_t], h),
                    ("vacR", [x0 + bar_w, y_semi], [width, y_semi + bar_t], h),
                    ("vacT", [0.0, y_semi + bar_t], [width, height], h)]
        table.update({"au": ph.gold(), "vacL": ph.vacuum(),
                      "vacR": ph.vacuum(), "vacT": ph.vacuum()})
    else:
        regions.append(("vacT", [0.0, y_semi], [width, height], h))
        table["vacT"] = ph.vacuum()
    spec = make_spec(2, [0.0, 0.0], [width, height], regions,
                     tag_boxes=[("SOURCE_APERTURE", [0.0, height],
                                 [width, height])],
                     default_tag="PEC")
    mesh = generate_structured_mesh(spec)
    mats = MaterialTable(table)
    disc = build_discretization(mesh, build_reference_element(2, p))
    src = OpticalSourceSpec(f_c=375e12, f_w=25e12, beam_width=3e-6,
                            peak_field=1e7)
    em = MaxwellSolver(disc, mats, source=src)
    semi = np.array([mesh.region_names[mesh.region_id[k]] == "semi"
                     for k in disc.elems])
    gcoef = ph.generation_coefficient(ph.lt_gaas(), 800e-9)
    dt = stable_timestep("maxwell", disc, mats)
    nst = int(np.ceil(t_end / dt))
    dt = t_end / nst
    u = em.zero_state()
    idx = em.idx
    total = 0.0
    t = 0.0
    for _ in range(nst):
        u = lsrk45_step(u, em.rhs, dt, t)
        t += dt
        g = gcoef * ph.poynting_magnitude((u[idx["ex"]], u[idx["ey"]]),
                                          (u[idx["hz"]],))
        g[~semi] = 0.0
        total += disc.integrate(g) * dt
    return total


class TestGratingSmoke:
    def test_metal_bar_increases_generation(self):
        bare = _total_generation(False)
        grated = _total_generation(True)
        assert grated > bare
