import numpy as np
import pytest

from pcddg.dgops import build_discretization, interpolate, interpolation_rows
from pcddg.mesh import generate_structured_mesh, make_spec, unit_interval_mesh
from pcddg.refelem import MeshError, build_reference_element

from helpers import nodal_field


def square_mesh(h, tags=None, lo=(0.0, 0.0), hi=(1.0, 1.0)):
    spec = make_spec(2, lo, hi, regions=[("vac", lo, hi, h)],
                     tag_boxes=tags or [], default_tag="PEC")
    return generate_structured_mesh(spec)


class TestBuild1D:
    def test_nodes_and_metric(self):
        mesh = unit_interval_mesh(5)
        ref = build_reference_element(1, 3)
        d = build_discretization(mesh, ref)
        assert d.x.shape == (5, 4, 1)
        assert np.allclose(d.jac, 0.1)
        assert np.allclose(d.metric[:, 0, 0], 10.0)
        assert d.x.min() == pytest.approx(0.0)
        assert d.x.max() == pytest.approx(1.0)

    def test_derivative_exact(self):
        mesh = unit_interval_mesh(4)
        ref = build_reference_element(1, 3)
        d = build_discretization(mesh, ref)
        u = nodal_field(d, lambda x: x ** 3 - 2 * x)
        assert np.allclose(d.ddx(u, 0), 3 * d.x[:, :, 0] ** 2 - 2, atol=1e-10)

    def test_face_maps_continuous_field(self):
        mesh = unit_interval_mesh(6)
        ref = build_reference_element(1, 2)
        d = build_discretization(mesh, ref)
        u = nodal_field(d, lambda x: np.sin(7 * x))
        jump = d.face_minus(u) - d.face_plus(u)
        inter = d.face_expand(d.face_tag < 0)
        assert np.max(np.abs(jump[inter])) < 1e-13
        # boundary faces map to themselves
        assert np.all(d.vmapM[~inter] == d.vmapP[~inter])


class TestBuild2D:
    def test_metric_identities(self):
        mesh = square_mesh(0.25)
        ref = build_reference_element(2, 3)
        d = build_discretization(mesh, ref)
        # geometric factors: rx*xr + sx*xs = 1 etc. via exact derivatives
        x = d.x[:, :, 0]
        y = d.x[:, :, 1]
        assert np.allclose(d.ddx(x, 0), 1.0, atol=1e-12)
        assert np.allclose(d.ddx(y, 0), 0.0, atol=1e-12)
        assert np.allclose(d.ddx(x, 1), 0.0, atol=1e-12)
        assert np.allclose(d.ddx(y, 1), 1.0, atol=1e-12)

    def test_derivative_exact_poly(self):
        mesh = square_mesh(0.5)
        ref = build_reference_element(2, 4)
        d = build_discretization(mesh, ref)
        u = nodal_field(d, lambda x, y: x ** 2 * y + y ** 3)
        assert np.allclose(d.ddx(u, 0), 2 * d.x[:, :, 0] * d.x[:, :, 1], atol=1e-10)
        assert np.allclose(d.ddx(u, 1), d.x[:, :, 0] ** 2 + 3 * d.x[:, :, 1] ** 2, atol=1e-10)

    def test_face_maps_and_normals(self):
        mesh = square_mesh(0.25)
        ref = build_reference_element(2, 3)
        d = build_discretization(mesh, ref)
        u = nodal_field(d, lambda x, y: np.cos(3 * x) * y + x)
        jump = d.face_minus(u) - d.face_plus(u)
        inter = d.face_expand(d.face_tag < 0)
        assert np.max(np.abs(jump[inter])) < 1e-12
        # unit outward normals, opposite across a shared face
        assert np.allclose(np.hypot(d.nhat[:, :, 0], d.nhat[:, :, 1]), 1.0)

    def test_normals_antisymmetric_across_faces(self):
        mesh = square_mesh(0.5)
        ref = build_reference_element(2, 2)
        d = build_discretization(mesh, ref)
        nfp = ref.Nfp
        for k in range(d.K):
            for f in range(3):
                k2, f2 = mesh.etoe[k, f], mesh.etof[k, f]
                if k2 == k:
                    continue
                assert np.allclose(d.nhat[k, f * nfp], -d.nhat[k2, f2 * nfp],
                                   atol=1e-13)

    def test_surface_divergence_identity(self):
        # int_K div F dV = oint_dK F.n dS elementwise for linear F
        mesh = square_mesh(0.5)
        ref = build_reference_element(2, 2)
        d = build_discretization(mesh, ref)
        fx = nodal_field(d, lambda x, y: 2 * x + y)
        fy = nodal_field(d, lambda x, y: x - 3 * y)
        div = d.ddx(fx, 0) + d.ddx(fy, 1)
        lhs = d.jac * (div @ ref.mass_ref.sum(axis=0))
        fdotn = d.nhat[:, :, 0] * d.face_minus(fx) + d.nhat[:, :, 1] * d.face_minus(fy)
        # oint via lift: 1^T M (lift applied) = surface integral
        rhs = d.jac * (d.lift(fdotn) @ ref.mass_ref.sum(axis=0))
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_integrate_and_norm(self):
        mesh = square_mesh(0.25)
        ref = build_reference_element(2, 4)
        d = build_discretization(mesh, ref)
        one = np.ones((d.K, d.Np))
        assert d.integrate(one) == pytest.approx(1.0, abs=1e-12)
        u = nodal_field(d, lambda x, y: x)
        assert d.integrate(u) == pytest.approx(0.5, abs=1e-12)
        # ||x||_L2 over unit square = 1/sqrt(3)
        assert d.l2_norm(u) == pytest.approx(1 / np.sqrt(3), abs=1e-12)

    def test_beta_sign_antisymmetric(self):
        mesh = square_mesh(0.5)
        ref = build_reference_element(2, 1)
        d = build_discretization(mesh, ref)
        for k in range(d.K):
            for f in range(3):
                k2, f2 = mesh.etoe[k, f], mesh.etof[k, f]
                if k2 != k:
                    assert d.beta_sign[k, f] == -d.beta_sign[k2, f2]


class TestSubdomain:
    def test_cut_faces_tagged(self):
        mesh = square_mesh(0.25)
        ref = build_reference_element(2, 2)
        upper = mesh.centroids()[:, 1] > 0.5
        d = build_discretization(mesh, ref, element_mask=upper,
                                 cut_face_tag=lambda k, f, n: "INSULATOR_R")
        assert d.K == int(np.sum(upper))
        assert np.any(d.tag_face_mask("INSULATOR_R"))
        # cut faces sit on y = 0.5
        mask = d.tag_face_mask("INSULATOR_R")
        yfc = d.x.reshape(-1, 2)[d.vmapM][:, :, 1]
        assert np.allclose(yfc[mask], 0.5, atol=1e-12)

    def test_cut_without_rule_raises(self):
        mesh = square_mesh(0.5)
        ref = build_reference_element(2, 1)
        upper = mesh.centroids()[:, 1] > 0.5
        with pytest.raises(MeshError, match="cut"):
            build_discretization(mesh, ref, element_mask=upper)


class TestPointEvaluation:
    def test_eval_1d(self):
        mesh = unit_interval_mesh(5)
        ref = build_reference_element(1, 3)
        d = build_discretization(mesh, ref)
        u = nodal_field(d, lambda x: x ** 3 + x)
        pts = np.array([[0.11], [0.5], [0.93]])
        vals = interpolate(u, *interpolation_rows(d, pts))
        assert np.allclose(vals, pts[:, 0] ** 3 + pts[:, 0], atol=1e-12)

    def test_eval_2d(self):
        mesh = square_mesh(0.25)
        ref = build_reference_element(2, 3)
        d = build_discretization(mesh, ref)
        u = nodal_field(d, lambda x, y: x * y ** 2 + 2 * x)
        pts = np.array([[0.3, 0.7], [0.05, 0.05], [0.99, 0.5]])
        vals = interpolate(u, *interpolation_rows(d, pts))
        assert np.allclose(vals, pts[:, 0] * pts[:, 1] ** 2 + 2 * pts[:, 0], atol=1e-11)

    def test_outside_raises(self):
        mesh = unit_interval_mesh(3)
        ref = build_reference_element(1, 2)
        d = build_discretization(mesh, ref)
        with pytest.raises(MeshError, match="outside"):
            interpolation_rows(d, [[1.5]])
