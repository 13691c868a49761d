"""Small test-side helpers: building inputs the way a deck would, sampling
fields and reading what the CLI writes.  No solver calls them."""

import json
import re

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigs

from pcddg import physics as ph
from pcddg.coupler import RK4A, RK4B, RK4C, lsrk45_step, stable_timestep
from pcddg.dgops import build_discretization
from pcddg.em_dg import MaxwellSolver, PmlSpec
from pcddg.mesh import generate_structured_mesh, make_spec
from pcddg.refelem import ConfigurationError, build_reference_element
from pcddg.stationary import Contact


def make_contacts(specs):
    """Contacts from (name, lo, hi, voltage) tuples."""
    return [Contact(name, np.atleast_1d(np.asarray(lo, dtype=float)),
                    np.atleast_1d(np.asarray(hi, dtype=float)), float(v))
            for name, lo, hi, v in specs]


def interval_mesh(n, hi, left="ELECTRODE_D", right="ELECTRODE_D",
                  region="semi"):
    """Uniform 1D mesh of n elements on [0, hi] with endpoint tags: the
    mesh.unit_interval_mesh of an interval of length hi."""
    spec = make_spec(1, [0.0], [hi], [(region, [0.0], [hi], hi / n)],
                     tag_boxes=[(left, [0.0], [0.0]), (right, [hi], [hi])],
                     default_tag=left)
    return generate_structured_mesh(spec)


def nodal_field(disc, fn):
    """Sample fn(x[, y]) at the discretization nodes -> (K, Np)."""
    coords = [disc.x[:, :, d] for d in range(disc.ref.dim)]
    return np.asarray(fn(*coords), dtype=float)


def observed_orders(rows):
    """Final-level observed order per polynomial degree of a
    convergence.order_table -> {p: order}."""
    out = {}
    for p, _n, _h, _err, order in rows:
        if not np.isnan(order):
            out[p] = order
    return out


def optical_source(solver, t):
    """Nodal source current density of a MaxwellSolver at time t (the
    component along the polarization); None without a source."""
    if solver.source is None:
        return None
    return solver._src_scale(t) * source_profile(solver)


def source_profile(solver):
    """Nodal profile (K, Np) of a MaxwellSolver's source current: its
    values on the source nodes, zero elsewhere."""
    prof = np.zeros((solver.disc.K, solver.disc.Np))
    prof.reshape(-1)[solver._src_nodes] = solver._src_values
    return prof


def five_pass_lsrk45_step(state, rhs, dt, t=0.0):
    """The low-storage RK45 step with its residual in state units
    (res = a res + dt F(u), u += b res): five state-sized passes per
    stage."""
    u, res, tmp = np.empty((3,) + np.shape(state))
    np.copyto(u, state)
    res.fill(0.0)
    for a, b, c in zip(RK4A, RK4B, RK4C):
        res *= a
        np.multiply(rhs(u, t + c * dt), dt, out=tmp)
        res += tmp
        np.multiply(res, b, out=tmp)
        u += tmp
    return u


def lsrk45_amplification(z):
    """|R(z)| of one LSRK45 step on u' = lam u, z = lam dt, from the
    scheme's own coefficients; the step is stable where |R| <= 1."""
    u, res = np.ones_like(z), np.zeros_like(z)
    for a, b in zip(RK4A, RK4B):
        res = a * res + z * u
        u = u + b * res
    return np.abs(u)


def rhs_spectrum(solver):
    """Dense eigenvalues of a MaxwellSolver's assembled operator, the
    source-free, current-free part of its rhs that the 1D march applies."""
    return np.linalg.eigvals(solver.operator.toarray())


def rhs_ritz(solver, k=30):
    """The k largest-modulus Ritz values of a MaxwellSolver's source-free,
    current-free rhs: ARPACK on the kernel, with no assembly, to a relative
    tolerance of 1e-3 (on one thread of a 2-core VM, grating2d's took
    0.75 s; at full precision 12 s, for a largest modulus within 1e-13)."""
    shape = solver.zero_state().shape
    n = int(np.prod(shape))

    def matvec(v):
        return solver._kernel(v.reshape(shape)).reshape(-1)

    return eigs(LinearOperator((n, n), matvec=matvec, dtype=float), k=k,
                which="LM", v0=np.random.default_rng(0).normal(size=n),
                tol=1e-3, return_eigenvectors=False)


def pml_round_trip(depth_elems, n=50, p=3):
    """Share of a pulse's EM energy that comes back out of a yhi PML
    depth_elems elements deep, on a 1.25 m vacuum interval of n elements
    (degree p) with PEC walls at both ends.  The layer is backed by PEC, so
    what returns is its round-trip attenuation (R_target^2 by design) plus
    whatever its grading reflects; with no layer the whole pulse returns.
    The energy is read outside the layer once the reflected pulse is back
    in the middle of the interval."""
    length = 1.25
    mesh = interval_mesh(n, length, left="PEC", right="PEC", region="vac")
    disc = build_discretization(mesh, build_reference_element(1, p))
    table = ph.MaterialTable({"vac": ph.vacuum()})
    depth = depth_elems * length / n
    pml = PmlSpec(thickness={"yhi": depth})
    solver = MaxwellSolver(disc, table, pml=pml)
    y = disc.x[:, :, 0]
    u = solver.zero_state()
    f = np.exp(-((y - 0.4) / 0.06) ** 2)
    u[solver.idx["ex"]] = f
    u[solver.idx["hz"]] = -f * np.sqrt(ph.EPS0 / ph.MU0)    # moving to +y
    e0 = solver.energy(u)
    dt = stable_timestep("maxwell", disc, table, pml=pml)
    t, t_end = 0.0, 1.6 / ph.C0
    while t < t_end:
        u = lsrk45_step(u, solver.rhs, dt, t)
        t += dt
    u[:, y.mean(axis=1) > length - depth] = 0.0
    return solver.energy(u) / e0


def read_probe_csv(path):
    """Header and data rows of a probes.csv."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def read_info(text):
    """The cfl record and n_macro (None without a schedule) that
    `pcd-dg info` prints, one `cfl.<key> = <json>` line per key."""
    cfl = {key: json.loads(val) for key, val
           in re.findall(r"^cfl\.(\w+) = (.*)$", text, re.M)}
    n_macro = re.search(r"^n_macro = (\d+)$", text, re.M)
    return cfl, None if n_macro is None else int(n_macro.group(1))


def read_vtk(path):
    """Round-trip reader for output.write_vtk files -> (points,
    {name: array})."""
    with open(path) as fh:
        tokens = fh.read().split("\n")
    it = iter(tokens)
    for line in it:
        if line.startswith("POINTS"):
            npts = int(line.split()[1])
            break
    else:
        raise ConfigurationError(f"{path}: no POINTS block")
    pts = np.array([[float(v) for v in next(it).split()] for _ in range(npts)])
    data = {}
    for line in it:
        if line.startswith("SCALARS"):
            name = line.split()[1]
            next(it)                      # LOOKUP_TABLE line
            data[name] = np.array([float(next(it)) for _ in range(npts)])
        elif line.startswith("VECTORS"):
            name = line.split()[1]
            data[name] = np.array([[float(v) for v in next(it).split()]
                                   for _ in range(npts)])
    return pts, data
