"""Reference elements, and the element operators a Discretization builds
from them."""

import numpy as np
import pytest

from pcddg import physics as ph
from pcddg.dd_dg import DDSolver
from pcddg.dgops import build_discretization
from pcddg.mesh import (Mesh, build_face_connectivity, generate_structured_mesh,
                        make_spec, unit_interval_mesh)
from pcddg.refelem import (
    ConfigurationError,
    build_reference_element,
    gauss_lobatto_nodes,
    grad_jacobi_p,
    jacobi_p,
    modal_basis,
    triangle_nodes,
)


def gauss_nodes_weights(n):
    return np.polynomial.legendre.leggauss(n)


def one_element_disc(verts, p):
    """Discretization of a single interval or triangle with PEC faces."""
    verts = np.asarray(verts, dtype=float)
    dim = verts.shape[1]
    mesh = Mesh(dim=dim, vertices=verts, elements=np.arange(dim + 1)[None, :],
                region_id=np.zeros(1, dtype=int), region_names={0: "r"},
                boundary_tag=np.zeros((1, dim + 1), dtype=int))
    build_face_connectivity(mesh)
    return build_discretization(mesh, build_reference_element(dim, p))


def mass_matrix(disc):
    """Mass matrix of the first element: jac * reference mass."""
    return disc.jac[0] * disc.ref.mass_ref


def diff_matrix(disc, nu):
    """d/dx_nu on the first element, as applied by disc.ddx."""
    return disc.ddx(np.eye(disc.Np), nu).T


class TestJacobi:
    def test_orthonormality(self):
        x, w = gauss_nodes_weights(20)
        for i in range(6):
            for j in range(6):
                val = np.sum(w * jacobi_p(x, 0, 0, i) * jacobi_p(x, 0, 0, j))
                assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_weighted_orthonormality(self):
        x, w = gauss_nodes_weights(30)
        wt = (1 - x) ** 2
        for i in range(5):
            for j in range(5):
                val = np.sum(w * wt * jacobi_p(x, 2, 0, i) * jacobi_p(x, 2, 0, j))
                assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-11)

    def test_gradient(self):
        x = np.linspace(-0.95, 0.95, 7)
        eps = 1e-6
        for n in range(1, 6):
            fd = (jacobi_p(x + eps, 0, 0, n) - jacobi_p(x - eps, 0, 0, n)) / (2 * eps)
            assert np.allclose(grad_jacobi_p(x, 0, 0, n), fd, atol=1e-6)


class TestNodes:
    def test_gauss_lobatto_p2(self):
        assert np.allclose(gauss_lobatto_nodes(2), [-1.0, 0.0, 1.0])

    def test_gauss_lobatto_p4(self):
        r = gauss_lobatto_nodes(4)
        ref = np.sqrt(3.0 / 7.0)
        assert np.allclose(r, [-1.0, -ref, 0.0, ref, 1.0], atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_triangle_node_count_and_symmetry(self, p):
        rs = np.stack(triangle_nodes(p), axis=1)
        assert rs.shape == ((p + 1) * (p + 2) // 2, 2)
        # vertices present
        for v in ([-1, -1], [1, -1], [-1, 1]):
            assert np.min(np.sum((rs - v) ** 2, axis=1)) < 1e-20
        # symmetric under swapping r <-> s
        sw = rs[:, ::-1]
        for q in sw:
            assert np.min(np.sum((rs - q) ** 2, axis=1)) < 1e-16


class TestOperators1D:
    def test_analytic_p1_matrices(self):
        disc = one_element_disc([[0.0], [1.0]], 1)
        assert np.allclose(mass_matrix(disc), np.array([[2, 1], [1, 2]]) / 6.0)
        assert np.allclose(diff_matrix(disc, 0), [[-1, 1], [-1, 1]])

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_differentiation_exact(self, p):
        ref = build_reference_element(1, p)
        r = ref.nodes[:, 0]
        assert np.allclose(ref.diff[0] @ r ** p, p * r ** (p - 1), atol=1e-10)

    @pytest.mark.parametrize("p", [1, 3, 5])
    def test_mass_integrates_polynomials(self, p):
        ref = build_reference_element(1, p)
        w = ref.mass_ref.sum(axis=0)
        r = ref.nodes[:, 0]
        for q in range(p + 1):
            exact = (1 - (-1) ** (q + 1)) / (q + 1)
            assert np.sum(w * r ** q) == pytest.approx(exact, abs=1e-12)

    def test_lift_is_inverse_mass_times_face(self):
        ref = build_reference_element(1, 3)
        e = np.zeros((ref.Np, 2))
        e[0, 0] = 1.0
        e[-1, 1] = 1.0
        assert np.allclose(ref.lift_ref, np.linalg.solve(ref.mass_ref, e))


class TestOperators2D:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_differentiation_exact(self, p):
        ref = build_reference_element(2, p)
        r, s = ref.nodes[:, 0], ref.nodes[:, 1]
        for i in range(p + 1):
            for j in range(p + 1 - i):
                u = r ** i * s ** j
                dr = (i * r ** (i - 1) * s ** j) if i else np.zeros_like(r)
                ds = (j * r ** i * s ** (j - 1)) if j else np.zeros_like(r)
                assert np.allclose(ref.diff[0] @ u, dr, atol=1e-9)
                assert np.allclose(ref.diff[1] @ u, ds, atol=1e-9)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_mass_integrates_constants(self, p):
        ref = build_reference_element(2, p)
        # reference triangle area is 2
        assert ref.mass_ref.sum() == pytest.approx(2.0, abs=1e-12)

    def test_mass_integrates_monomials(self):
        ref = build_reference_element(2, 4)
        w = ref.mass_ref.sum(axis=0)
        r, s = ref.nodes[:, 0], ref.nodes[:, 1]
        # exact integrals over the reference triangle
        assert np.sum(w * r) == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert np.sum(w * r * s) == pytest.approx(0.0, abs=1e-12)
        assert np.sum(w * r ** 2) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_face_nodes_lie_on_faces(self):
        ref = build_reference_element(2, 4)
        r, s = ref.nodes[:, 0], ref.nodes[:, 1]
        assert np.allclose(s[ref.face_nodes[0]], -1)
        assert np.allclose(r[ref.face_nodes[1]] + s[ref.face_nodes[1]], 0)
        assert np.allclose(r[ref.face_nodes[2]], -1)

    def test_lift_constant_flux(self):
        # M^-1 B 1 integrates to total surface length of the element
        disc = one_element_disc([[0.0, 0], [1, 0], [0, 1]], 3)
        lifted = disc.lift(np.ones((1, disc.nfp_tot)))[0]
        assert np.ones(disc.Np) @ mass_matrix(disc) @ lifted == \
            pytest.approx(2 + np.sqrt(2), abs=1e-10)


class TestGeometry:
    def test_triangle_normals_outward_unit(self):
        disc = one_element_disc([[0.0, 0], [2, 0], [0, 1]], 2)
        c = np.array([2.0 / 3, 1.0 / 3])
        mids = np.array([[1, 0], [1, 0.5], [0, 0.5]])
        for f in range(3):
            n = disc.nhat[0, f * disc.ref.Nfp]
            assert np.hypot(*n) == pytest.approx(1.0)
            assert np.dot(n, mids[f] - c) > 0
        assert disc.integrate(np.ones((1, disc.Np))) == pytest.approx(1.0)

    def test_1d_geometry(self):
        disc = one_element_disc([[1.0], [3.0]], 2)
        assert disc.jac[0] == pytest.approx(1.0)
        assert disc.metric[0, 0, 0] == pytest.approx(1.0)
        assert disc.integrate(np.ones((1, disc.Np))) == pytest.approx(2.0)


class TestLDGOperators:
    @pytest.mark.parametrize("dim,p", [(1, 2), (1, 4), (2, 2), (2, 3)])
    def test_divergence_is_negative_adjoint(self, dim, p):
        # the DD solver's LDG divergence is minus the adjoint of its gradient
        # in the mass inner product: with unit diffusivity and no drift its
        # operator L satisfies M L = -G^T M G, on Dirichlet contacts and on
        # Robin walls alike
        for tag in ("ELECTRODE_D", "INSULATOR_R"):
            if dim == 1:
                mesh = unit_interval_mesh(4, left=tag, right=tag, region="semi")
            else:
                mesh = generate_structured_mesh(make_spec(
                    2, [0, 0], [1, 1], [("semi", [0, 0], [1, 1], 0.5)],
                    default_tag=tag))
            disc = build_discretization(mesh, build_reference_element(dim, p))
            dd = DDSolver(disc, ph.MaterialTable({"semi": ph.lt_gaas()}))
            n = disc.K * disc.Np
            no_drift = tuple(np.zeros((disc.K, disc.Np)) for _ in range(dim))
            grad = np.zeros((dim * n, n))
            lap = np.zeros((n, n))
            for j in range(n):
                u = np.eye(n)[j].reshape(disc.K, disc.Np)
                grad[:, j] = np.concatenate([g.ravel() for g in dd.gradient(u)])
                lap[:, j] = dd.scalar_rhs(u, no_drift, 1.0).ravel()
            m = np.kron(np.diag(disc.jac), disc.ref.mass_ref)
            m_vec = np.kron(np.eye(dim), m)
            assert np.allclose(m @ lap, -grad.T @ m_vec @ grad,
                               rtol=0.0, atol=1e-12 * np.abs(m @ lap).max())

    def test_stiffness_integration_by_parts(self):
        # S + S^T equals the boundary mass term: exact DG summation identity,
        # with the boundary term M lift(n_nu u^-) of the Discretization
        disc = one_element_disc([[0.0, 0], [1, 0], [0.3, 0.8]], 3)
        m = mass_matrix(disc)
        for nu in range(2):
            stiff = m @ diff_matrix(disc, nu)
            bnd = np.column_stack([
                m @ disc.lift(disc.nhat[:, :, nu] * disc.face_minus(u))[0]
                for u in np.eye(disc.Np)])
            assert np.allclose(stiff + stiff.T, bnd, atol=1e-12)


def test_bad_order_raises():
    with pytest.raises(ConfigurationError):
        build_reference_element(1, 0)
    with pytest.raises(ConfigurationError):
        build_reference_element(2, 7)
    with pytest.raises(ConfigurationError):
        build_reference_element(3, 2)


def test_built_once_per_order():
    assert build_reference_element(2, 3) is build_reference_element(2, 3)
    assert build_reference_element(2, 3) is not build_reference_element(2, 2)


@pytest.mark.parametrize("dim", [1, 2])
def test_modal_basis_at_nodes_is_the_vandermonde(dim):
    ref = build_reference_element(dim, 3)
    modes, grads = modal_basis(dim, 3, ref.nodes)
    assert np.array_equal(modes, ref.vandermonde)
    vinv = np.linalg.inv(ref.vandermonde)
    for grad, diff in zip(grads, ref.diff):
        assert np.array_equal(grad @ vinv, diff)


@pytest.mark.parametrize("dim,face_length", [(1, 1.0), (2, 2.0)])
def test_face_mass_integrates_constants(dim, face_length):
    # unit face Jacobian: a point face in 1D, the parameter [-1, 1] in 2D
    ref = build_reference_element(dim, 3)
    assert len(ref.face_mass) == ref.Nfaces
    for fm in ref.face_mass:
        assert fm.shape == (ref.Nfp, ref.Nfp)
        assert fm.sum() == pytest.approx(face_length, abs=1e-12)
