"""Reference elements on the interval and the triangle.

Nodal Lagrange bases built on orthonormal Jacobi/Dubiner modal bases: the
nodes, the Vandermonde matrix, the differentiation, mass and face mass
matrices and the lift, all on the reference element.  Physical elements
(metric, Jacobians, normals, face maps) live in dgops.Discretization.
"""

from dataclasses import dataclass
from functools import cache
from math import gamma

import numpy as np
from numpy.polynomial import legendre as npleg

NODETOL = 1e-10
MAX_ORDER = 6

# warp & blend parameters for triangle nodes (orders 1..7)
_WARP_ALPHA = [0.0, 0.0, 1.4152, 0.1001, 0.2751, 0.9800, 1.0999]


class ConfigurationError(ValueError):
    """Unsupported discretization parameters."""


class MeshError(ValueError):
    """Degenerate or inconsistent element geometry."""


def jacobi_p(x, alpha, beta, n):
    """Orthonormal Jacobi polynomial P_n^(alpha,beta) evaluated at x."""
    x = np.asarray(x, dtype=float)
    pl = np.zeros((n + 1,) + x.shape)
    g0 = (2.0 ** (alpha + beta + 1) / (alpha + beta + 1)
          * _fact(alpha) * _fact(beta) / _fact(alpha + beta))
    pl[0] = 1.0 / np.sqrt(g0)
    if n == 0:
        return pl[0]
    g1 = (alpha + 1) * (beta + 1) / (alpha + beta + 3) * g0
    pl[1] = ((alpha + beta + 2) * x / 2 + (alpha - beta) / 2) / np.sqrt(g1)
    aold = 2.0 / (2 + alpha + beta) * np.sqrt(
        (alpha + 1) * (beta + 1) / (alpha + beta + 3))
    for i in range(1, n):
        h1 = 2 * i + alpha + beta
        anew = 2.0 / (h1 + 2) * np.sqrt(
            (i + 1) * (i + 1 + alpha + beta) * (i + 1 + alpha) * (i + 1 + beta)
            / (h1 + 1) / (h1 + 3))
        bnew = -(alpha ** 2 - beta ** 2) / (h1 * (h1 + 2))
        pl[i + 1] = (-aold * pl[i - 1] + (x - bnew) * pl[i]) / anew
        aold = anew
    return pl[n]


def _fact(a):
    return gamma(a + 1)


def grad_jacobi_p(x, alpha, beta, n):
    if n == 0:
        return np.zeros_like(np.asarray(x, dtype=float))
    return np.sqrt(n * (n + alpha + beta + 1)) * jacobi_p(x, alpha + 1, beta + 1, n - 1)


def gauss_lobatto_nodes(p):
    """p+1 Gauss-Lobatto points on [-1, 1]."""
    if p == 1:
        return np.array([-1.0, 1.0])
    c = np.zeros(p + 1)
    c[p] = 1.0
    interior = npleg.legroots(npleg.legder(c))
    return np.concatenate(([-1.0], np.sort(interior), [1.0]))


def _rstoab(r, s):
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(np.abs(s - 1.0) > 1e-12, 2.0 * (1.0 + r) / (1.0 - s) - 1.0, -1.0)
    return a, s.copy()


def _simplex2dp(a, b, i, j):
    h1 = jacobi_p(a, 0, 0, i)
    h2 = jacobi_p(b, 2 * i + 1, 0, j)
    return np.sqrt(2.0) * h1 * h2 * (1 - b) ** i


def _grad_simplex2dp(a, b, i, j):
    fa = jacobi_p(a, 0, 0, i)
    dfa = grad_jacobi_p(a, 0, 0, i)
    gb = jacobi_p(b, 2 * i + 1, 0, j)
    dgb = grad_jacobi_p(b, 2 * i + 1, 0, j)
    # d/dr = da/dr d/da, da/dr = 2/(1-b)
    dmodedr = dfa * gb
    if i > 0:
        dmodedr *= (0.5 * (1 - b)) ** (i - 1)
    # d/ds = (1+a)/2 * 2/(1-b) d/da + d/db
    dmodeds = dfa * (gb * (0.5 * (1 + a)))
    if i > 0:
        dmodeds *= (0.5 * (1 - b)) ** (i - 1)
    tmp = dgb * (0.5 * (1 - b)) ** i
    if i > 0:
        tmp -= 0.5 * i * gb * (0.5 * (1 - b)) ** (i - 1)
    dmodeds += fa * tmp
    return np.sqrt(2.0) * 2 ** i * dmodedr, np.sqrt(2.0) * 2 ** i * dmodeds


def _warp_factor(p, rout):
    """Warp function mapping equispaced 1D nodes toward Gauss-Lobatto."""
    lgl = gauss_lobatto_nodes(p)
    req = np.linspace(-1, 1, p + 1)
    veq = _legendre_modes(req, p)
    pmat = np.linalg.solve(veq.T, _legendre_modes(rout, p).T)
    lmat = pmat.T
    warp = lmat @ (lgl - req)
    zerof = (np.abs(rout) < 1.0 - 1e-10).astype(float)
    sf = 1.0 - (zerof * rout) ** 2
    return warp / sf + warp * (zerof - 1)


def triangle_nodes(p):
    """Nodes on the reference triangle: equispaced for p<=2, warp&blend above."""
    n = p
    np_ = (n + 1) * (n + 2) // 2
    l1 = np.zeros(np_)
    l3 = np.zeros(np_)
    sk = 0
    for i in range(n + 1):
        for j in range(n + 1 - i):
            l1[sk] = i / n
            l3[sk] = j / n
            sk += 1
    l2 = 1.0 - l1 - l3
    x = -l2 + l3
    y = (-l2 - l3 + 2 * l1) / np.sqrt(3.0)
    if p > 2:
        alpha = _WARP_ALPHA[n - 1] if n <= len(_WARP_ALPHA) else 5.0 / 3.0
        blend1 = 4 * l2 * l3
        blend2 = 4 * l1 * l3
        blend3 = 4 * l1 * l2
        warpf1 = _warp_factor(n, l3 - l2)
        warpf2 = _warp_factor(n, l1 - l3)
        warpf3 = _warp_factor(n, l2 - l1)
        w1 = blend1 * warpf1 * (1 + (alpha * l1) ** 2)
        w2 = blend2 * warpf2 * (1 + (alpha * l2) ** 2)
        w3 = blend3 * warpf3 * (1 + (alpha * l3) ** 2)
        x = x + 1 * w1 + np.cos(2 * np.pi / 3) * w2 + np.cos(4 * np.pi / 3) * w3
        y = y + 0 * w1 + np.sin(2 * np.pi / 3) * w2 + np.sin(4 * np.pi / 3) * w3
    # map equilateral (x, y) to reference right triangle (r, s)
    l1e = (np.sqrt(3.0) * y + 1.0) / 3.0
    l2e = (-3.0 * x - np.sqrt(3.0) * y + 2.0) / 6.0
    l3e = (3.0 * x - np.sqrt(3.0) * y + 2.0) / 6.0
    r = -l2e + l3e - l1e
    s = -l2e - l3e + l1e
    return r, s


@dataclass(frozen=True, eq=False)
class ReferenceElement:
    dim: int
    p: int
    Np: int
    Nfp: int
    Nfaces: int
    nodes: np.ndarray            # (Np, dim) reference coordinates
    vandermonde: np.ndarray      # (Np, Np) modal-to-nodal
    diff: list                   # per direction (Np, Np)
    face_nodes: list             # per face, index arrays of length Nfp
    face_mass: list              # per face (Nfp, Nfp), unit face Jacobian
    mass_ref: np.ndarray         # reference mass inv(V V^T)
    lift_ref: np.ndarray         # Np x (Nfaces*Nfp), unit face Jacobian

    def __post_init__(self):
        # one element is shared by every caller, so its arrays are read-only
        for a in (self.nodes, self.vandermonde, *self.diff, *self.face_nodes,
                  *self.face_mass, self.mass_ref, self.lift_ref):
            a.flags.writeable = False


def _legendre_modes(x, p):
    """Orthonormal Legendre modes 0..p at the points x -> (len(x), p+1)."""
    return np.array([jacobi_p(x, 0, 0, j) for j in range(p + 1)]).T


def modal_basis(dim, p, points):
    """The orthonormal modes of order <= p (Jacobi on the interval, Dubiner
    on the triangle) at reference points (n, dim): their values (n, Np)
    and their gradients, one (n, Np) array per reference direction."""
    if dim == 1:
        r = points[:, 0]
        return (_legendre_modes(r, p),
                [np.array([grad_jacobi_p(r, 0, 0, j)
                           for j in range(p + 1)]).T])
    a, b = _rstoab(points[:, 0], points[:, 1])
    modes = [(i, j) for i in range(p + 1) for j in range(p + 1 - i)]
    grads = [_grad_simplex2dp(a, b, i, j) for i, j in modes]
    return (np.array([_simplex2dp(a, b, i, j) for i, j in modes]).T,
            [np.array([g[d] for g in grads]).T for d in range(2)])


@cache
def build_reference_element(dim, p):
    """Nodal reference element of order p on the interval (dim=1) or
    triangle.  Built once per (dim, p) and shared by every caller."""
    if dim not in (1, 2):
        raise ConfigurationError(f"unsupported dim {dim}")
    if not (1 <= p <= MAX_ORDER):
        raise ConfigurationError(f"order p={p} outside supported range [1, {MAX_ORDER}]")
    if dim == 1:
        nodes = gauss_lobatto_nodes(p).reshape(-1, 1)
        face_nodes = [np.array([0]), np.array([p])]
        face_mass = [np.array([[1.0]])] * 2
    else:
        r, s = triangle_nodes(p)
        nodes = np.column_stack([r, s])
        fn1 = np.flatnonzero(np.abs(s + 1) < NODETOL)
        fn2 = np.flatnonzero(np.abs(r + s) < NODETOL)
        fn3 = np.flatnonzero(np.abs(r + 1) < NODETOL)
        face_nodes = [fn1[np.argsort(r[fn1])], fn2[np.argsort(s[fn2])],
                      fn3[np.argsort(-s[fn3])]]
        # reference face mass from the trace basis on each face
        face_mass = []
        for fn in face_nodes:
            v1 = _legendre_modes(_face_parameter(nodes[fn]), p)
            face_mass.append(np.linalg.inv(v1 @ v1.T))
    V, grads = modal_basis(dim, p, nodes)
    Vinv = np.linalg.inv(V)
    # Lagrange property via Vandermonde conditioning
    if np.max(np.abs(V @ Vinv - np.eye(len(V)))) > 1e-9:
        raise ConfigurationError(f"ill-conditioned basis at p={p}")
    Np, Nfp, Nfaces = len(nodes), len(face_nodes[0]), len(face_nodes)
    # lift: the face mass matrices with unit surface Jacobian, premultiplied
    # by inv(mass_ref) = V V^T
    emat = np.zeros((Np, Nfaces * Nfp))
    for f, (fn, fm) in enumerate(zip(face_nodes, face_mass)):
        emat[np.ix_(fn, np.arange(f * Nfp, (f + 1) * Nfp))] = fm
    return ReferenceElement(
        dim=dim, p=p, Np=Np, Nfp=Nfp, Nfaces=Nfaces, nodes=nodes,
        vandermonde=V, diff=[g @ Vinv for g in grads], face_nodes=face_nodes,
        face_mass=face_mass, mass_ref=np.linalg.inv(V @ V.T),
        lift_ref=V @ (V.T @ emat))


def _face_parameter(pts):
    """Arclength-like parameter in [-1,1] along the points of a triangle face."""
    d = pts[-1] - pts[0]
    t = (pts - pts[0]) @ d / (d @ d)
    return 2.0 * t - 1.0
