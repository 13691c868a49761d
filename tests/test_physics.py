import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcddg import physics as ph
from pcddg.coupler import CoupledSystem
from pcddg.dd_dg import DDSolver
from pcddg.dgops import build_discretization
from pcddg.em_dg import MaxwellSolver
from pcddg.mesh import generate_structured_mesh, make_spec
from pcddg.refelem import build_reference_element

from helpers import interval_mesh


class TestMaterials:
    def test_ltgaas_values(self):
        m = ph.lt_gaas()
        assert m.eps_r == pytest.approx(13.26)
        assert m.doping == pytest.approx(1.3e22)       # 1.3e16 cm^-3
        assert m.n_i == pytest.approx(9e12)            # 9e6 cm^-3
        assert m.mu_e0 == pytest.approx(0.8)           # 8000 cm^2/V/s
        assert m.mu_h0 == pytest.approx(0.04)
        assert m.tau_e + m.tau_h == pytest.approx(0.7e-12, abs=0)
        assert m.alpha_abs == pytest.approx(1e6)       # 1/um

    def test_validation(self):
        with pytest.raises(ph.PhysicsError):
            ph.Material(name="bad", eps_r=-1.0)
        with pytest.raises(ph.PhysicsError):
            ph.Material(name="bad", semiconductor=True, n_i=1e12, tau_e=1e-12,
                        tau_h=1e-12, mu_e0=0.1, mu_h0=0.1, v_sat_e=1e5,
                        v_sat_h=1e5, beta_e=5.0)

    def test_unknown_region(self):
        with pytest.raises(ph.PhysicsError, match="unknown material region"):
            ph.MaterialTable({"vacuum": ph.vacuum()}).region("unobtanium")

    def test_thermal_voltage(self):
        assert ph.thermal_voltage(300.0) == pytest.approx(0.02585, rel=1e-3)
        with pytest.raises(ph.PhysicsError):
            ph.thermal_voltage(-5.0)


class TestSRH:
    def test_known_value(self):
        # n_e = n_h = 1e12 cm^-3 >> n_1: R ~ dn^2/((tau_e+tau_h) dn) = dn/0.7ps
        m = ph.lt_gaas()
        r = ph.srh_recombination(1e18, 1e18, m)
        assert r == pytest.approx(1e18 / 0.7e-12, rel=1e-4)

    def test_equilibrium_is_zero(self):
        m = ph.lt_gaas()
        assert ph.srh_recombination(m.n_i, m.n_i, m) == pytest.approx(0.0, abs=1e-20)

    def test_sign_below_equilibrium(self):
        m = ph.lt_gaas()
        assert ph.srh_recombination(0.1 * m.n_i, 0.1 * m.n_i, m) < 0

    def test_lagged_denominator(self):
        # lagged at the densities themselves it is the rate; lagged
        # elsewhere it is affine in either density
        m = ph.lt_gaas()
        ne, nh = np.array([1e20, 3e21]), np.array([2e19, 5e18])
        assert np.array_equal(ph.srh_recombination(ne, nh, m, lagged=(ne, nh)),
                              ph.srh_recombination(ne, nh, m))
        lag = (np.array([1e18, 1e22]), np.array([1e17, 1e19]))
        r = [ph.srh_recombination(ne * s, nh, m, lagged=lag) for s in (0, 1, 2)]
        assert r[2] - r[1] == pytest.approx(r[1] - r[0], rel=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ph.PhysicsError):
            ph.srh_recombination(np.nan, 1e18, ph.lt_gaas())

    @given(ne=st.floats(1e6, 1e26), nh=st.floats(1e6, 1e26))
    @settings(max_examples=60, deadline=None)
    def test_sign_matches_mass_action(self, ne, nh):
        m = ph.lt_gaas()
        r = ph.srh_recombination(ne, nh, m)
        assert np.sign(r) == np.sign(ne * nh - m.n_i ** 2) or r == 0


class TestMobility:
    def test_low_field_limit(self):
        m = ph.lt_gaas()
        assert ph.parallel_field_mobility(0.0, "e", m) == pytest.approx(m.mu_e0)

    def test_known_value_10kvcm(self):
        # 10 kV/cm: electron mobility drops to ~1.67e3 cm^2/V/s
        m = ph.lt_gaas()
        mu = ph.parallel_field_mobility(1e6, "e", m)
        assert mu == pytest.approx(0.167, rel=0.01)

    def test_velocity_saturates(self):
        m = ph.lt_gaas()
        e = 1e9
        v = ph.parallel_field_mobility(e, "e", m) * e
        assert v == pytest.approx(m.v_sat_e, rel=1e-3)

    def test_bad_carrier(self):
        with pytest.raises(ph.PhysicsError):
            ph.parallel_field_mobility(0.0, "x", ph.lt_gaas())

    @given(e=st.floats(0, 1e9))
    @settings(max_examples=60, deadline=None)
    def test_monotone_decreasing_and_bounded(self, e):
        m = ph.lt_gaas()
        mu = ph.parallel_field_mobility(e, "h", m)
        assert 0 < mu <= m.mu_h0
        assert mu * e <= m.v_sat_h * (1 + 1e-12)


class TestGeneration:
    def test_coefficient_value(self):
        # eta*alpha*lambda/(hc) at 800 nm with alpha = 1/um: 4.027e24 J^-1 m^-1...
        m = ph.lt_gaas()
        assert ph.generation_coefficient(m, 800e-9) == pytest.approx(4.027e24, rel=1e-3)

    def test_poynting_1d_and_2d(self):
        assert ph.poynting_magnitude([2.0], [3.0]) == pytest.approx(6.0)
        assert ph.poynting_magnitude([np.array(3.0), np.array(4.0)],
                                     [np.array(2.0)]) == pytest.approx(10.0)

    def test_poynting_2d_matches_hypot_form(self):
        rng = np.random.default_rng(11)
        ex, ey, hz = (s * rng.standard_normal((400, 6))
                      for s in (1e7, 3e6, 2.6e4))
        ey[:10] = 0.0
        got = ph.poynting_magnitude((ex, ey), (hz,))
        want = np.abs(hz) * np.hypot(ex, ey)
        assert np.max(np.abs(got - want) / want) <= 4e-16

    def test_zero_outside_semiconductor(self):
        # G is nodal on the EM mesh and zero off the DD subdomain: fields
        # in the vacuum do not enter it
        cs = vacuum_semi_system()
        state = cs.em.zero_state()
        vac = np.setdiff1d(np.arange(cs.em.disc.K), cs.dd_in_em)
        state[cs.em.idx["ex"], vac] = 1.0
        state[cs.em.idx["hz"], vac] = 1.0
        g = cs.generation(state)
        assert g.shape == (cs.em.disc.K, cs.em.disc.Np)
        assert np.all(g == 0)

    def test_semiconductor_value(self):
        cs = vacuum_semi_system()
        state = cs.em.zero_state()
        state[cs.em.idx["ex"]] = 2.0
        state[cs.em.idx["hz"]] = 5.0
        g = cs.generation(state)[cs.dd_in_em]
        assert g == pytest.approx(10.0 * ph.generation_coefficient(
            ph.lt_gaas(), 800e-9), rel=1e-15)


def vacuum_semi_system():
    """Coupled system on a 1D vacuum / LT-GaAs stack (DD on the GaAs)."""
    spec = make_spec(1, [0.0], [2e-6], [("vac", [0.0], [1e-6], 2.5e-7),
                                        ("semi", [1e-6], [2e-6], 2.5e-7)],
                     default_tag="PEC")
    mesh = generate_structured_mesh(spec)
    mats = ph.MaterialTable({"vac": ph.vacuum(), "semi": ph.lt_gaas()})
    ref = build_reference_element(1, 2)
    em = MaxwellSolver(build_discretization(mesh, ref), mats)
    is_semi = mesh.centroids()[:, 0] > 1e-6
    dd = DDSolver(build_discretization(
        mesh, ref, element_mask=is_semi,
        cut_face_tag=lambda k, f, n: "INSULATOR_R"), mats)
    return CoupledSystem(em, dd, wavelength=800e-9)


class TestContacts:
    def test_intrinsic(self):
        ne, nh = ph.ohmic_contact_densities(0.0, 9e12)
        assert ne == pytest.approx(9e12)
        assert nh == pytest.approx(9e12)

    def test_strong_n_doping(self):
        ne, nh = ph.ohmic_contact_densities(1.3e22, 9e12)
        assert ne == pytest.approx(1.3e22, rel=1e-12)
        assert nh == pytest.approx(9e12 ** 2 / 1.3e22, rel=1e-9)

    def test_strong_p_doping_no_cancellation(self):
        ne, nh = ph.ohmic_contact_densities(-1.3e22, 9e12)
        assert nh == pytest.approx(1.3e22, rel=1e-12)
        assert ne == pytest.approx(9e12 ** 2 / 1.3e22, rel=1e-9)
        assert ne > 0

    @given(c=st.floats(-1e25, 1e25))
    @settings(max_examples=80, deadline=None)
    def test_neutrality_and_mass_action(self, c):
        ni = 9e12
        ne, nh = ph.ohmic_contact_densities(c, ni)
        assert ne > 0 and nh > 0
        assert float(ne * nh) == pytest.approx(ni * ni, rel=1e-6)
        assert float(ne - nh) == pytest.approx(c, rel=1e-6, abs=1e-3 * ni)


class TestDrude:
    def test_gold_parameters(self):
        g = ph.gold()
        assert g.drude.omega_p == pytest.approx(1.372e16, rel=1e-3)
        assert g.drude.gamma == pytest.approx(8.05e13, rel=1e-3)

    def test_permittivity_near_dc_is_metallic(self):
        # eps_inf - wp^2/(w^2 + i gamma w) with the forcing eps0 wp^2 and the
        # decay gamma that the Maxwell rhs applies to a gold element
        mesh = interval_mesh(1, 1e-7, left="PEC", right="PEC",
                             region="metal")
        em = MaxwellSolver(build_discretization(mesh, build_reference_element(1, 1)),
                           ph.MaterialTable({"metal": ph.gold()}))
        state = em.zero_state()
        state[em.idx["ex"]] = 1.0
        forcing = em.rhs(state)[em.idx["jpx"]][0, 0]
        state = em.zero_state()
        state[em.idx["jpx"]] = 1.0
        gamma = -em.rhs(state)[em.idx["jpx"]][0, 0]
        omega = 2 * np.pi * 1e12
        eps = ph.gold().drude.eps_inf \
            - forcing / ph.EPS0 / (omega ** 2 + 1j * gamma * omega)
        assert eps.real < -1e3


class TestSource:
    @pytest.mark.parametrize("t0", [None, 30e-15])
    def test_envelope_closed_form(self, t0):
        s = ph.OpticalSourceSpec(f_c=375e12, f_w=25e12, beam_width=1e-6,
                                 peak_field=1e7, t0=t0)
        sigma = np.sqrt(2 * np.log(2)) / (np.pi * 25e12)
        delay = 4 * sigma if t0 is None else t0
        t = np.linspace(0.0, 2 * delay, 7)
        expect = np.exp(-(t - delay) ** 2 / (2 * sigma ** 2)) \
            * np.sin(2 * np.pi * 375e12 * (t - delay))
        assert s.envelope(t) == pytest.approx(expect, rel=1e-12, abs=1e-15)
        for ti, ei in zip(t, expect):
            assert s.envelope(float(ti)) == pytest.approx(ei, rel=1e-12,
                                                          abs=1e-15)


def test_einstein_relation():
    assert ph.einstein_diffusivity(0.8, 0.025852) == pytest.approx(0.0206816)
