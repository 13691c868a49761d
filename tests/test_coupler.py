"""Time steppers, stable-step estimation, and the multirate protocol."""

import numpy as np
import pytest

from pcddg import coupler
from pcddg.coupler import (ARS_GAMMA, MultirateSchedule, ProbeSet,
                           CoupledSystem, ars343_step, tvd_rk3_step,
                           lsrk45_step, stable_timestep, dd_step_bound,
                           multirate_advance, terminal_current_probe,
                           run_coupled)
from pcddg.dd_dg import DDSolver
from pcddg.dgops import build_discretization
from pcddg.em_dg import MaxwellSolver, PmlSpec
from pcddg.mesh import make_spec, generate_structured_mesh
from pcddg.physics import (MaterialTable, OpticalSourceSpec, PhysicsError,
                           gold, lt_gaas, parallel_field_mobility, vacuum,
                           C0, Q)
from pcddg.refelem import build_reference_element
from pcddg.stationary import Contact, StationaryProblem

from helpers import (five_pass_lsrk45_step, interval_mesh,
                     lsrk45_amplification, rhs_spectrum)


class TestSteppers:
    def test_rk3_identity_on_zero_rhs(self):
        u = np.array([1.0, -2.0, 3.0])
        out = tvd_rk3_step(u, lambda s, t: np.zeros_like(s), 0.1)
        assert out == pytest.approx(u, abs=0.0)

    def test_rk3_stability_function(self):
        lam = -0.37
        dt = 0.2
        z = lam * dt
        out = tvd_rk3_step(np.array([1.0]), lambda s, t: lam * s, dt)
        expected = 1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0
        assert abs(out[0] - expected) < 1e-14

    def test_rk3_order_three(self):
        errs = []
        for nsteps in (10, 20, 40):
            u = np.array([1.0])
            dt = 1.0 / nsteps
            for i in range(nsteps):
                u = tvd_rk3_step(u, lambda s, t: -s, dt, i * dt)
            errs.append(abs(u[0] - np.exp(-1.0)))
        orders = np.diff(np.log(errs)) / np.log(0.5)
        assert np.all(orders > 2.9)

    def test_lsrk45_identity_on_zero_rhs(self):
        u = np.array([4.0, 5.0])
        out = lsrk45_step(u, lambda s, t: np.zeros_like(s), 0.3)
        assert out == pytest.approx(u, abs=0.0)

    def test_lsrk45_order_four(self):
        errs = []
        for nsteps in (5, 10, 20):
            u = np.array([1.0])
            dt = 1.0 / nsteps
            for i in range(nsteps):
                u = lsrk45_step(u, lambda s, t: -s, dt, i * dt)
            errs.append(abs(u[0] - np.exp(-1.0)))
        orders = np.diff(np.log(errs)) / np.log(0.5)
        assert np.all(orders > 3.9)

    def test_lsrk45_matches_five_pass_form(self):
        # keeping the residual in units of 1/dt changes only round-off
        rng = np.random.default_rng(11)
        a = rng.normal(size=(40, 40)) - 8.0 * np.eye(40)
        b = rng.normal(size=40)

        def rhs(s, t):
            return a @ s + np.cos(3.0 * t) * b

        for dt, t in ((0.05, 0.0), (0.02, 1.7), (1e-3, -0.4)):
            u = rng.normal(size=40)
            got = lsrk45_step(u, rhs, dt, t)
            want = five_pass_lsrk45_step(u, rhs, dt, t)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_lsrk45_blocks_cover_the_state(self):
        # a state longer than one daxpy block is updated block by block,
        # every entry once
        n = 2 * coupler._AXPY_BLOCK + 7
        rng = np.random.default_rng(12)
        lam = -rng.uniform(1.0, 50.0, size=n)
        b = rng.normal(size=n)

        def rhs(s, t):
            return lam * s + np.sin(t) * b

        u = rng.normal(size=(1, n))
        got = lsrk45_step(u, rhs, 0.01, 0.3)
        want = five_pass_lsrk45_step(u, rhs, 0.01, 0.3)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @staticmethod
    def _diffusion_reaction(n=12):
        # u' = -r u + A u: A the periodic second difference (a real
        # spectrum in [-4 n^2, 0]), r = 0.3 explicit, A implicit
        a = n * n * (np.roll(np.eye(n), 1, axis=1) - 2 * np.eye(n)
                     + np.roll(np.eye(n), -1, axis=1))
        return a, -0.3

    def _ars_solve(self, a, dt):
        lu = np.linalg.inv(np.eye(len(a)) - ARS_GAMMA * dt * a)
        return lambda b: lu @ b

    def test_ars343_order_three(self):
        # third order on a linear diffusion-reaction problem whose stiff
        # part (|lambda| dt up to 58) is implicit
        import scipy.linalg as sla
        a, r = self._diffusion_reaction()
        u0 = np.sin(2 * np.pi * np.arange(12) / 12) + 0.5
        exact = sla.expm(a + r * np.eye(12)) @ u0
        errs = []
        for nsteps in (10, 20, 40):
            u, dt = u0.copy(), 1.0 / nsteps
            solve = self._ars_solve(a, dt)
            for i in range(nsteps):
                u = ars343_step(u, lambda s, t: r * s, solve, dt, i * dt)
            errs.append(np.max(np.abs(u - exact)))
        orders = np.diff(np.log(errs)) / np.log(0.5)
        assert np.all(orders >= 2.8)

    def test_ars343_bounded_when_stiff(self):
        # the implicit part is L-stable: at rho dt = 1e3 a stiff mode is
        # damped within a few steps, not amplified, while the constant
        # mode decays at its own rate
        a, r = self._diffusion_reaction()
        dt = 1e3 / np.max(np.abs(np.linalg.eigvalsh(a)))
        u = np.cos(2 * np.pi * np.arange(12) * 5 / 12) + 1.0
        solve = self._ars_solve(a, dt)
        for i in range(4):
            u = ars343_step(u, lambda s, t: r * s, solve, dt, i * dt)
        mean = np.exp(r * 4 * dt)
        assert np.max(np.abs(u - u.mean())) <= 1e-4
        assert u.mean() == pytest.approx(mean, rel=1e-2, abs=0)

    def test_ars343_explicit_part_is_rk4_polynomial(self):
        # without an implicit part the step is a four-stage explicit RK
        # whose stability polynomial is classical RK4's: it holds the
        # imaginary axis up to 2.83, past TVD-RK3's 1.73, so the drift bound
        # that TVD-RK3 set keeps holding
        def amplification(z):
            return ars343_step(np.array([1.0 + 0j]), lambda s, t: z * s,
                               lambda b: b, 1.0)[0]

        for z in (-0.37, 1.5j, 2.8j, -2.0 + 1.0j):
            assert amplification(z) == pytest.approx(
                1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24, rel=1e-12,
                abs=0)
        assert abs(amplification(1.8j)) <= 1.0
        assert abs(amplification(2.8j)) <= 1.0
        assert abs(amplification(2.9j)) > 1.0

    def test_nonautonomous_rhs(self):
        # u' = t, u(0)=0 -> u(1) = 1/2; both schemes integrate it exactly
        u = np.array([0.0])
        for i in range(10):
            u = lsrk45_step(u, lambda s, t: np.array([t]), 0.1, i * 0.1)
        assert u[0] == pytest.approx(0.5, rel=1e-12)


def maxwell_case_1d(case, p, pml=None):
    """A 1 um 1D Maxwell case at h = 50 nm: vacuum between PEC or ABC
    walls, a vacuum|LT-GaAs interface, a 0.6 um Drude gold layer (also at
    h = 100 nm), or h graded 10/30/100 nm.  Returns (solver, disc,
    table)."""
    mats = {"vac": vacuum(), "semi": lt_gaas(), "au": gold()}
    regions = {
        "pec": [("vac", 0.0, 1.0, 50)],
        "abc": [("vac", 0.0, 1.0, 50)],
        "interface": [("vac", 0.0, 0.5, 50), ("semi", 0.5, 1.0, 50)],
        "drude": [("vac", 0.0, 0.2, 50), ("au", 0.2, 0.8, 50),
                  ("vac", 0.8, 1.0, 50)],
        "drude_coarse": [("vac", 0.0, 0.2, 100), ("au", 0.2, 0.8, 100),
                         ("vac", 0.8, 1.0, 100)],
        "graded": [("vac", 0.0, 0.2, 10), ("vac", 0.2, 0.5, 30),
                   ("vac", 0.5, 1.0, 100)]}[case]
    names = [f"{name}{i}" for i, (name, *_rest) in enumerate(regions)]
    mesh = generate_structured_mesh(make_spec(
        1, [0.0], [1e-6],
        [(n, [a * 1e-6], [b * 1e-6], h * 1e-9)
         for n, (_m, a, b, h) in zip(names, regions)],
        default_tag="ABC" if case == "abc" else "PEC"))
    table = MaterialTable({n: mats[name]
                           for n, (name, *_rest) in zip(names, regions)})
    disc = build_discretization(mesh, build_reference_element(1, p))
    return MaxwellSolver(disc, table, pml=pml), disc, table


class TestStableTimestep:
    def _disc(self, n=20, p=2, length=1e-6):
        mesh = interval_mesh(n, length, region="semi")
        return build_discretization(mesh, build_reference_element(1, p))

    def test_maxwell_homogeneity(self):
        mats = MaterialTable({"semi": lt_gaas()})
        d1 = self._disc(length=1e-6)
        d2 = self._disc(length=3e-6)
        dt1 = stable_timestep("maxwell", d1, mats)
        dt2 = stable_timestep("maxwell", d2, mats)
        assert dt2 == pytest.approx(3.0 * dt1, rel=1e-12, abs=0.0)

    def test_maxwell_value(self):
        # 1D: h / (c F), F = (2p+1)(0.42 + 0.081 p) = 5 x 0.582 at p = 2;
        # abs=0, because approx's default abs of 1e-12 s passes any step
        mats = MaterialTable({"semi": lt_gaas()})
        d = self._disc(n=20, p=2)
        h = 5e-8
        c = C0 / np.sqrt(13.26)
        assert stable_timestep("maxwell", d, mats, safety=1.0) == \
            pytest.approx(h / (c * 2.91), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("case", ["pec", "abc", "interface", "drude",
                                      "drude_coarse", "graded"])
    def test_maxwell_bound_is_stable_1d(self, case, p):
        # every eigenvalue z = lam dt of the Maxwell rhs at safety 1 inside
        # LSRK45's stability region; PEC walls set the limit, and the bound
        # sits within 5 % of it there.  In thick gold the plasma frequency
        # adds to the wave rate (drude_plasma bound)
        solver, disc, table = maxwell_case_1d(case, p)
        z = rhs_spectrum(solver) * stable_timestep("maxwell", disc, table,
                                                   safety=1.0)
        assert np.all(lsrk45_amplification(z) <= 1.0 + 1e-9)
        if case == "pec":
            assert np.any(lsrk45_amplification(1.05 * z) > 1.0 + 1e-9)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("depth", [5e-8, 1e-7, 4e-7])
    def test_pml_bound_is_stable_1d(self, depth, p):
        # vacuum, h = 50 nm, ABC walls and a yhi PML 1 to 8 elements deep:
        # the damping rate sigma, not the wave speed, limits the step.
        # Without its bound, the 0.1 um PML at p = 1 blows up even at the
        # default safety 0.8
        pml = PmlSpec({"yhi": depth})
        solver, disc, table = maxwell_case_1d("abc", p, pml=pml)
        info = stable_timestep("maxwell", disc, table, safety=1.0,
                               detail=True, pml=pml)
        assert info["bound"] == "pml_damping"
        assert disc.x[info["element"], :, 0].max() > 1e-6 - depth
        z = rhs_spectrum(solver) * info["dt"]
        assert np.all(lsrk45_amplification(z) <= 1.0 + 1e-9)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("wall", ["PEC", "ABC"])
    def test_maxwell_bound_is_stable_2d(self, wall, p):
        # the 2D factor 2p+1 is not fitted: at safety 1 it leaves the
        # stability region at p = 4, so this pins the default's margin
        mesh = generate_structured_mesh(make_spec(
            2, [0.0, 0.0], [0.3e-6, 0.3e-6],
            [("vac", [0.0, 0.0], [0.3e-6, 0.3e-6], 1e-7)], default_tag=wall))
        disc = build_discretization(mesh, build_reference_element(2, p))
        table = MaterialTable({"vac": vacuum()})
        z = rhs_spectrum(MaxwellSolver(disc, table)) * \
            stable_timestep("maxwell", disc, table)
        assert np.all(lsrk45_amplification(z) <= 1.0 + 1e-9)

    def test_dd_inf_sentinel_without_semiconductor(self):
        mesh = interval_mesh(10, 1e-6, region="vac")
        mats = MaterialTable({"vac": vacuum()})
        d = build_discretization(mesh, build_reference_element(1, 2))
        assert stable_timestep("dd", d, mats) == np.inf

    def test_detail_mode(self):
        mats = MaterialTable({"semi": lt_gaas()})
        d = self._disc()
        info = stable_timestep("dd", d, mats, state_estimate={"e_mag": 1e6},
                               detail=True)
        assert set(info) == {"dt", "bound", "element", "safety"}
        assert info["dt"] > 0

    def test_dd_bound_is_drift_only(self):
        # diffusion is implicit in the DD step, so only the drift CFL
        # h / (v (2p+1)) bounds it: none at zero field
        mats = MaterialTable({"semi": lt_gaas()})
        d = self._disc(n=20, p=2)
        assert stable_timestep("dd", d, mats) == np.inf
        info = stable_timestep("dd", d, mats, state_estimate={"e_mag": 1e5},
                               safety=1.0, detail=True)
        v = parallel_field_mobility(1e5, "e", lt_gaas()) * 1e5
        assert info["bound"] == "drift_e"
        assert info["dt"] == pytest.approx(5e-8 / (5 * v), rel=1e-12, abs=0)

    def test_timescale_ordering(self):
        # desk-scale 1D semiconductor mesh at zero field: a quarter of the
        # shorter SRH lifetime (tau_e = 0.3 ps) sets the DD step, about
        # 1 800 Maxwell steps
        mats = MaterialTable({"semi": lt_gaas()})
        d = self._disc(n=50, p=3)        # h = 20 nm
        dt_em = stable_timestep("maxwell", d, mats)
        info = dd_step_bound(d, mats, None, 0.0)
        assert (info["bound"], info["element"]) == ("timescale_tau_e", -1)
        assert info["dt"] == pytest.approx(0.075e-12, rel=1e-12, abs=0)
        assert info["dt"] / dt_em == pytest.approx(1791.0, rel=1e-3)

    def test_dd_step_bound_takes_the_shortest_scale(self):
        # the pulse's sigma_t (15 fs here) under the lifetimes; on a 2 nm
        # mesh a saturating field brings the drift bound under both, and
        # the drift record is kept whichever term limits the step
        mats = MaterialTable({"semi": lt_gaas()})
        d = self._disc(n=500, p=2)
        src = OpticalSourceSpec(f_c=375e12, f_w=25e12, beam_width=1e-6,
                                peak_field=1e7)
        info = dd_step_bound(d, mats, src, 0.0)
        assert info["bound"] == "timescale_pulse"
        assert info["dt"] == pytest.approx(src.sigma_t / 4, rel=1e-15, abs=0)
        assert info["drift"]["dt"] == np.inf
        strong = dd_step_bound(d, mats, src, 1e7)
        assert strong["bound"] == "drift_e" and strong["element"] >= 0
        assert strong["dt"] < src.sigma_t / 4
        assert strong["drift"] == {k: strong[k] for k in strong["drift"]}


class TestSchedule:
    def test_ratio_must_be_integer(self):
        with pytest.raises(PhysicsError, match="integer"):
            MultirateSchedule(dt_em=1e-17, m=2.5, t_end=1e-15)
        with pytest.raises(PhysicsError, match="integer"):
            MultirateSchedule(dt_em=1e-17, m=0, t_end=1e-15)

    def test_dt_dd_is_exact_multiple(self):
        s = MultirateSchedule(dt_em=1e-17, m=7, t_end=1e-15)
        assert s.dt_dd == 7e-17

    @pytest.mark.parametrize("dt_dd_max", [1e-14, 3.7e-15, 4.2e-17, np.inf])
    def test_from_bounds_lands_on_t_end(self, dt_dd_max):
        # n_macro = ceil(t_end / dt_dd_max) DD steps of m substeps: both
        # steps within their bounds, and the rounding adds fewer than
        # n_macro EM steps to ceil(t_end / dt_em_max)
        dt_em_max, t_end = 2.29e-17, 5e-14
        s = MultirateSchedule.from_bounds(dt_em_max, dt_dd_max, t_end)
        assert s.dt_dd <= dt_dd_max
        assert s.dt_em <= dt_em_max
        assert s.m * s.dt_em == pytest.approx(s.dt_dd, rel=1e-15, abs=0)
        assert s.n_macro * s.dt_dd == pytest.approx(t_end, rel=1e-12, abs=0)
        em_steps = s.n_macro * s.m
        assert 0 <= em_steps - np.ceil(t_end / dt_em_max) < s.n_macro
        if np.isfinite(dt_dd_max):
            assert s.n_macro == int(np.ceil(t_end / dt_dd_max))
        else:
            assert s.n_macro == 1

    def test_from_bounds_with_given_ratio(self):
        # a deck's m keeps its ratio: n_macro = ceil(t_end / (m dt_em_max))
        s = MultirateSchedule.from_bounds(1e-17, 1e-20, 1e-15, m=7)
        assert (s.m, s.n_macro) == (7, 15)
        assert s.dt_em <= 1e-17


def toy_pcd(p=2, h=5e-8, source=True, m=2, n_macro=10):
    """1D vacuum/semiconductor stack, aperture at the vacuum end."""
    length = 2e-6
    spec = make_spec(1, [0.0], [length],
                     [("vac", [0.0], [1e-6], h), ("semi", [1e-6], [length], h)],
                     tag_boxes=[("SOURCE_APERTURE", [0.0], [0.0]),
                                ("ELECTRODE_D", [length], [length])],
                     default_tag="PEC")
    mesh = generate_structured_mesh(spec)
    mats = MaterialTable({"vac": vacuum(), "semi": lt_gaas()})
    ref = build_reference_element(1, p)
    em_disc = build_discretization(mesh, ref)
    src = None
    if source:
        src = OpticalSourceSpec(f_c=375e12, f_w=25e12, beam_width=1e-6,
                                peak_field=1e7)
    em = MaxwellSolver(em_disc, mats, source=src)
    is_semi = mesh.centroids()[:, 0] > 1e-6
    dd_disc = build_discretization(mesh, ref, element_mask=is_semi,
                                   cut_face_tag=lambda k, f, n: "INSULATOR_R")
    dd = DDSolver(dd_disc, mats)
    zeros = np.zeros((dd_disc.K, dd_disc.Np))
    dd.set_stationary((zeros,), np.full_like(zeros, 1.3e22),
                      np.full_like(zeros, 9e12 ** 2 / 1.3e22))
    contacts = (Contact("right", np.array([length]), np.array([length]), 0.0),)
    cs = CoupledSystem(em, dd, wavelength=800e-9, contacts=contacts)
    dt_em = stable_timestep("maxwell", em_disc, mats)
    sched = MultirateSchedule(dt_em=dt_em, m=m, t_end=n_macro * m * dt_em)
    return cs, sched


class TestMultirate:
    def test_event_log_sequence_m2(self, monkeypatch):
        # per macro step: the m Maxwell substeps, then one DD step over the
        # whole macro step, then the record; each stamped with the time of
        # the state it acts on
        cs, sched = toy_pcd(m=2, n_macro=3)
        events = []
        real_ars, real_lsrk = coupler.ars343_step, coupler.lsrk45_step
        real_record = ProbeSet.record

        def ars(state, rhs, solve, dt, t=0.0):
            events.append(("ars", t))
            assert dt == sched.dt_dd
            return real_ars(state, rhs, solve, dt, t)

        def lsrk(state, rhs, dt, t=0.0):
            events.append(("lsrk", t))
            return real_lsrk(state, rhs, dt, t)

        def record(self, cs, em_state, dd_state, current, t):
            events.append(("record", t))
            return real_record(self, cs, em_state, dd_state, current, t)

        monkeypatch.setattr(coupler, "ars343_step", ars)
        monkeypatch.setattr(coupler, "lsrk45_step", lsrk)
        monkeypatch.setattr(ProbeSet, "record", record)
        run_coupled(cs, sched, probes=ProbeSet())
        per_macro = ["lsrk", "lsrk", "ars", "record"]
        assert [name for name, _t in events] == ["record"] + per_macro * 3
        dt = sched.dt_em
        expected = [0.0]
        for k in range(3):
            t = 2 * k * dt
            expected += [t, t + dt, t, t + 2 * dt]
        assert [t for _name, t in events] == pytest.approx(expected,
                                                           abs=1e-25)

    def test_substeps_hold_the_midpoint_current(self, monkeypatch):
        # the Maxwell substeps of a macro step share one carrier current,
        # 1.5 c_k - 0.5 c_(k-1) from those of the last two DD states: the
        # march binds it once (held_rhs) and passes that one rhs to every
        # substep; and the march hands each step the two currents it needs
        cs, sched = toy_pcd(m=2, n_macro=1)
        rng = np.random.default_rng(5)
        shape = (2, cs.dd.disc.K, cs.dd.disc.Np)
        c0, c1 = (cs.transient_current(rng.uniform(0, 1e20, size=shape))
                  for _ in range(2))
        held, rhs_of = [], {}
        real_held, real_lsrk = cs.em.held_rhs, coupler.lsrk45_step

        def held_rhs(current):
            rhs = real_held(current)
            rhs_of[id(rhs)] = current
            return rhs

        def lsrk(state, rhs, dt, t=0.0):
            held.append(rhs_of[id(rhs)])
            return real_lsrk(state, rhs, dt, t)

        with monkeypatch.context() as patch:
            patch.setattr(cs.em, "held_rhs", held_rhs)
            patch.setattr(coupler, "lsrk45_step", lsrk)
            multirate_advance(cs, cs.em.zero_state(), np.zeros(shape), 0.0,
                              sched, c1, c0)
        assert len(rhs_of) == 1 and len(held) == 2 and held[0] is held[1]
        for part in range(2):
            assert np.array_equal(held[0][part], 1.5 * c1[part] - 0.5 * c0[part])

        calls = []
        real_advance = coupler.multirate_advance

        def advance(cs, em_state, dd_state, t, schedule, current, last):
            calls.append((current, last))
            out = real_advance(cs, em_state, dd_state, t, schedule, current,
                               last)
            calls[-1] += (out[2],)
            return out

        monkeypatch.setattr(coupler, "multirate_advance", advance)
        run_coupled(*toy_pcd(m=2, n_macro=3))
        assert calls[0][1] is None
        for k in (1, 2):
            assert calls[k][0] is calls[k - 1][2]
            assert calls[k][1] is calls[k - 1][0]

    def test_dd_step_takes_trapezoid_means(self, monkeypatch):
        # the DD step is fed (1/m) (G_0/2 + G_1 + ... + G_m/2) of the
        # substep boundaries, and the same mean of E^t on the DD subdomain
        cs, sched = toy_pcd(m=4, n_macro=1)
        em = cs.em.zero_state()
        em[cs.em.idx["ex"]] = 3e6
        em[cs.em.idx["hz"]] = 2e3
        states = [em]
        real_lsrk = coupler.lsrk45_step

        def lsrk(state, rhs, dt, t=0.0):
            states.append(real_lsrk(state, rhs, dt, t))
            return states[-1]

        fed = []
        real_terms = cs.dd.step_terms
        monkeypatch.setattr(coupler, "lsrk45_step", lsrk)
        monkeypatch.setattr(cs.dd, "step_terms",
                            lambda g, e_t: fed.append((g, e_t))
                            or real_terms(g=g, e_t=e_t))
        dd = np.zeros((2, cs.dd.disc.K, cs.dd.disc.Np))
        multirate_advance(cs, em, dd, 0.0, sched, cs.transient_current(dd))
        w = np.array([0.5, 1.0, 1.0, 1.0, 0.5]) / 4
        g_want = sum(wi * cs.generation(s)[cs.dd_in_em]
                     for wi, s in zip(w, states))
        e_want = sum(wi * s[0, cs.dd_in_em] for wi, s in zip(w, states))
        (g, e_t), = fed
        assert np.allclose(g, g_want, rtol=1e-13, atol=0)
        assert np.allclose(e_t[0], e_want, rtol=1e-13, atol=0)
        assert np.ptp(g) > 0.01 * np.max(g)     # the fields moved

    def test_carrier_current_built_once_per_state(self, monkeypatch):
        # a probed march builds (sigma, j0) once per DD state: once per
        # macro step, shared by the Maxwell substeps and the probe, plus
        # once for the record at t = 0
        calls = []
        real = DDSolver.conduction_current

        def counted(self, *args, **kw):
            calls.append(1)
            return real(self, *args, **kw)

        monkeypatch.setattr(DDSolver, "conduction_current", counted)
        cs, sched = toy_pcd(m=2, n_macro=4)
        probes = ProbeSet(contacts=cs.contacts, points=np.array([[1.5e-6]]))
        run_coupled(cs, sched, probes=probes)
        assert len(probes.times) == 5
        assert len(calls) == 5

    def test_second_run_matches_fresh_system(self):
        # the march keeps its clock and the carrier currents it carries
        # between macro steps to itself: a second run on the same system and
        # schedule is, bitwise, a run on a fresh one
        def record(cs, sched):
            probes = ProbeSet(contacts=cs.contacts,
                              points=np.array([[1.5e-6]]))
            run_coupled(cs, sched, probes=probes)
            assert list(probes.columns) == ["I_right", "Ex_p0", "N_e", "N_h",
                                            "W_em"]
            return np.column_stack([probes.times, *probes.columns.values()])

        cs, sched = toy_pcd(m=2, n_macro=30)
        record(cs, sched)
        again = record(cs, sched)
        fresh = record(*toy_pcd(m=2, n_macro=30))
        assert np.all(fresh[-1, 3:5] > 0)      # carriers were generated
        assert np.array_equal(again, fresh)

    def test_static_generation_average_is_identity(self, monkeypatch):
        # fields that do not change over the substeps: the mean generation
        # and mean E^t fed to the DD step are, bitwise, those of the one
        # state, and the step is one ARS(3,4,3) step driven by them
        cs, sched = toy_pcd(m=2, n_macro=1, source=False)
        em = cs.em.zero_state()
        em[cs.em.idx["ex"]] = 2e6
        em[cs.em.idx["hz"]] = 5e3
        monkeypatch.setattr(coupler, "lsrk45_step",
                            lambda state, rhs, dt, t=0.0: state)
        dd = np.zeros((2, cs.dd.disc.K, cs.dd.disc.Np))
        _, dd_out, _ = multirate_advance(cs, em, dd, 0.0, sched,
                                         cs.transient_current(dd))
        g0 = cs.generation(em)[cs.dd_in_em]
        assert np.all(g0 > 0)
        terms = cs.dd.step_terms(g=g0, e_t=(em[0, cs.dd_in_em],))
        dd_ref = ars343_step(
            dd, lambda s, t: cs.dd.carrier_rhs(s, terms),
            cs.dd.diffusion_solve(ARS_GAMMA * sched.dt_dd), sched.dt_dd)
        assert np.any(dd_ref != 0)
        assert np.array_equal(dd_out, dd_ref)

    def test_m1_lockstep_runs(self):
        cs, sched = toy_pcd(m=1, n_macro=5)
        em, dd, t = run_coupled(cs, sched)
        assert t == pytest.approx(sched.t_end, rel=1e-12, abs=0)
        assert np.all(np.isfinite(em)) and np.all(np.isfinite(dd))

    def test_determinism(self):
        traces = []
        for _ in range(2):
            cs, sched = toy_pcd(m=2, n_macro=8)
            probes = ProbeSet(contacts=cs.contacts)
            run_coupled(cs, sched, probes=probes)
            traces.append(np.array(probes.columns["I_right"]))
        assert np.array_equal(traces[0], traces[1])

    def test_causality_at_far_contact(self):
        # light from the aperture needs ~6.9 fs (1 um vacuum + 0.5 um GaAs)
        # to reach the probe point; the pulse peaks later still
        cs, sched = toy_pcd(m=2, h=2.5e-8, n_macro=40)
        probes = ProbeSet(contacts=cs.contacts,
                          points=np.array([[1.5e-6]]))
        run_coupled(cs, sched, probes=probes)
        assert sched.t_end < 5e-15      # well inside the light-travel time
        peak_src = 1e7
        vals = np.array(probes.columns["Ex_p0"])
        assert np.max(np.abs(vals)) <= 1e-14 * peak_src

    def test_zero_state_probe_is_zero(self):
        cs, sched = toy_pcd(m=1, n_macro=1, source=False)
        em = cs.em.zero_state()
        dd = np.zeros((2, cs.dd.disc.K, cs.dd.disc.Np))
        cur = terminal_current_probe(cs, em, cs.transient_current(dd))
        assert cur["right"] == 0.0

    def test_probe_point_outside_domain(self):
        cs, sched = toy_pcd(m=1, n_macro=1)
        probes = ProbeSet(contacts=cs.contacts, points=np.array([[5e-6]]))
        with pytest.raises(Exception):
            run_coupled(cs, sched, probes=probes)


class TestCoupledSystem:
    def test_contact_without_electrode_face_rejected(self):
        cs, _ = toy_pcd(source=False)
        ghost = Contact("ghost", np.array([0.5e-6]), np.array([0.5e-6]), 0.0)
        with pytest.raises(PhysicsError, match="'ghost' matches no electrode"):
            CoupledSystem(cs.em, cs.dd, wavelength=800e-9,
                          contacts=cs.contacts + (ghost,))

    def test_setup_probes_nothing(self, monkeypatch):
        # constructing the solvers and setting a stationary state build no
        # matrix; the march probes the two carrier diffusion blocks once, in
        # its first DD stage, and never through the stationary assembly
        from pcddg import dd_dg, dgops, stationary
        calls = []
        for module in (dgops, dd_dg, stationary):
            def counted(apply_fn, disc, *, _real=module.assemble_affine_operator,
                        _name=module.__name__, **kw):
                calls.append(_name)
                return _real(apply_fn, disc, **kw)
            monkeypatch.setattr(module, "assemble_affine_operator", counted)
        cs, sched = toy_pcd(n_macro=3)
        prob = StationaryProblem(cs.em.disc.mesh, cs.dd.materials,
                                 cs.contacts, p=2)
        prob.dd.set_stationary((np.zeros_like(cs.dd.n_e_s),), cs.dd.n_e_s,
                               cs.dd.n_h_s)
        CoupledSystem(cs.em, prob.dd, wavelength=800e-9, contacts=cs.contacts)
        assert calls == []
        run_coupled(cs, sched)
        assert calls == ["pcddg.dd_dg"] * 2

    def test_em_rhs_carries_transient_current(self):
        # transient_current scatters (sigma, j0) of the DD state onto the EM
        # mesh, zero outside the DD subdomain, and the EM rhs forms
        # sigma E^t + j0 from the state it is given: bitwise the rhs driven
        # by that current with sigma = 0
        cs, _ = toy_pcd()
        dd = cs.dd
        rng = np.random.default_rng(3)
        em_state = rng.normal(size=cs.em.zero_state().shape) * 1e5
        dd_state = rng.uniform(0.0, 1e20, size=(2, dd.disc.K, dd.disc.Np))
        sigma, j0 = cs.transient_current(dd_state)
        K, Np = cs.em.disc.K, cs.em.disc.Np
        assert sigma.shape == (K, Np) and j0.shape == (1, K, Np)
        outside = np.setdiff1d(np.arange(K), cs.dd_in_em)
        assert len(outside) > 0
        assert not np.any(sigma[outside]) and not np.any(j0[:, outside])
        assert np.array_equal(
            sigma[cs.dd_in_em],
            Q * (dd.mu_e * (dd.n_e_s + dd_state[0])
                 + dd.mu_h * (dd.n_h_s + dd_state[1])))
        assert np.array_equal(
            j0[:, cs.dd_in_em],
            np.array(dd.conduction_current(dd_state[0], dd_state[1], dd.e_s)))
        j_full = j0 + sigma * em_state[cs.em.idx["ex"]]
        for t in (0.0, 3e-15):
            assert np.array_equal(
                cs.em.rhs(em_state, t, current=(sigma, j0)),
                cs.em.rhs(em_state, t, current=(np.zeros_like(sigma), j_full)))
