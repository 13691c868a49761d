"""Command-line front end: stationary, transient, convergence, info.

Exit codes: 0 on success, 1 for configuration errors, 2 for solver
failures.  The default output directory comes from --out, then the
PCDDG_OUT environment variable, then the current directory.
"""

import argparse
import os
import sys
import time
from importlib.metadata import PackageNotFoundError
from importlib.metadata import version as _pkg_version

import numpy as np

from . import __version__
from . import convergence as cv
from . import output as out_mod
from . import physics as ph
from .config import parse_config
from .coupler import (CoupledSystem, MultirateSchedule, ProbeSet,
                      run_coupled, stable_timestep)
from .dgops import build_discretization
from .em_dg import MaxwellSolver
from .mesh import MeshFormatError, resolution_report
from .physics import PhysicsError
from .refelem import ConfigurationError, build_reference_element
from .stationary import (ConvergenceError, StationaryProblem,
                         load_checkpoint, save_checkpoint)


def code_version():
    """Version of the installed distribution, else of the package itself
    (a source checkout on the path has no distribution metadata)."""
    try:
        return _pkg_version("pcddg")
    except PackageNotFoundError:
        return __version__


CODE_VERSION = code_version()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pcd-dg",
        description="photoconductive device simulator (DG Maxwell + drift-diffusion)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("stationary", "solve the biased stationary device"),
                       ("transient", "run the coupled optical transient"),
                       ("convergence", "grid-convergence order tables"),
                       ("info", "mesh and resolution diagnostics")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="device config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="BLAS/OpenMP thread cap")
        p.add_argument("--strict", action="store_true",
                       help="reject unknown config keys")
    return parser


def _out_dir(args):
    d = args.out or os.environ.get("PCDDG_OUT") or "."
    os.makedirs(d, exist_ok=True)
    return d


def _limit_threads(n):
    if n is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, str(n))
    try:
        import threadpoolctl
        threadpoolctl.threadpool_limits(n)
    except ImportError:
        pass


def _stationary_problem(cfg, mesh, p):
    table = cfg.material_table()
    return StationaryProblem(mesh, table, cfg.contacts, p=p)


def _solve_stationary(cfg, mesh, p, verbose=True):
    prob = _stationary_problem(cfg, mesh, p)
    sol = prob.gummel_solve(verbose=verbose)
    return prob, sol


def run_stationary(cfg, out_dir):
    t0 = time.perf_counter()
    mesh = cfg.build_mesh()
    prob, sol = _solve_stationary(cfg, mesh, cfg.p_dd)
    save_checkpoint(os.path.join(out_dir, "stationary.chk"), prob, sol)

    currents = prob.stationary_current(sol)
    lines = ["contact,I"]
    lines += [f"{name},{val:.17g}" for name, val in currents.items()]
    out_mod._atomic_write(os.path.join(out_dir, "stationary_currents.csv"),
                          "\n".join(lines) + "\n")

    dim = prob.pdisc.ref.dim
    n_e = np.zeros((prob.pdisc.K, prob.pdisc.Np))
    n_h = np.zeros_like(n_e)
    n_e[prob.semi_in_p] = sol.n_e
    n_h[prob.semi_in_p] = sol.n_h
    e_vec = sol.e_s if dim == 2 else (sol.e_s[0],)
    out_mod.write_vtk(os.path.join(out_dir, "stationary.vtk"), prob.pdisc,
                      {"phi": sol.phi, "n_e": n_e, "n_h": n_h, "E": e_vec})

    manifest = out_mod.RunManifest(
        command="stationary", config_hash=cfg.config_hash,
        mesh_hash=mesh.content_hash(), code_version=CODE_VERSION,
        wall_time_s=time.perf_counter() - t0,
        extra={"gummel_iterations": len(sol.gummel_history),
               "currents": {k: float(v) for k, v in currents.items()},
               "contact_voltages": {c.name: c.voltage for c in cfg.contacts}})
    out_mod.write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    print(f"stationary solve converged in {len(sol.gummel_history)} sweeps")
    for name, val in currents.items():
        print(f"  I[{name}] = {val:.6e} A")
    return 0


def run_transient(cfg, out_dir):
    t0 = time.perf_counter()
    if cfg.t_end <= 0:
        raise ConfigurationError("run.t_end must be > 0 for a transient run")
    mesh = cfg.build_mesh()
    table = cfg.material_table()

    # stationary seed at the EM order so both solvers share nodal layouts;
    # fall back to a fresh solve when no compatible checkpoint exists
    prob = _stationary_problem(cfg, mesh, cfg.p_em)
    chk = os.path.join(out_dir, "stationary.chk")
    sol = None
    if os.path.exists(chk):
        try:
            sol = load_checkpoint(chk, prob)
            print(f"loaded stationary checkpoint {chk}")
        except (PhysicsError, ValueError, IndexError):
            print(f"checkpoint {chk} incompatible; recomputing stationary state")
    if sol is None:
        sol = prob.gummel_solve(verbose=True)
        save_checkpoint(chk, prob, sol)

    em_disc = build_discretization(mesh,
                                   build_reference_element(mesh.dim, cfg.p_em))
    em = MaxwellSolver(em_disc, table, source=cfg.source, pml=cfg.pml)
    dd = prob.dd
    dd.set_stationary(prob.e_on_dd(sol.e_s), sol.n_e, sol.n_h)
    cs = CoupledSystem(em, dd, wavelength=cfg.wavelength,
                       contacts=tuple(cfg.contacts))

    e_mag = float(max(np.max(np.abs(c)) for c in sol.e_s))
    em_info = stable_timestep("maxwell", em_disc, table,
                              safety=cfg.safety, detail=True)
    dd_info = stable_timestep("dd", prob.ddisc, table,
                              state_estimate={"e_mag": e_mag},
                              safety=cfg.safety, detail=True)
    if cfg.m_override is not None:
        sched = MultirateSchedule(em_info["dt"], cfg.m_override, cfg.t_end)
    else:
        sched = MultirateSchedule.from_bounds(em_info["dt"], dd_info["dt"],
                                              cfg.t_end)
    # shrink dt_em so an integer number of macro steps lands exactly on t_end
    n_macro = max(1, int(np.ceil(cfg.t_end / sched.dt_dd)))
    sched = MultirateSchedule(cfg.t_end / (n_macro * sched.m), sched.m,
                              cfg.t_end)
    print(f"multirate schedule: dt_em={sched.dt_em:.3e} s, m={sched.m}, "
          f"{n_macro} macro steps")

    probes = ProbeSet(contacts=tuple(cfg.contacts), points=cfg.probe_points,
                      cadence=cfg.cadence)
    em_state, dd_state, t = run_coupled(cs, sched, probes=probes)

    columns = {}
    for name, vals in probes.currents.items():
        columns[f"I_{name}"] = vals
    if probes.points is not None:
        px = np.array(probes.point_ex)
        for i in range(px.shape[1]):
            columns[f"Ex_p{i}"] = px[:, i]
    carr = np.array(probes.carriers)
    columns["N_e"] = carr[:, 0]
    columns["N_h"] = carr[:, 1]
    columns["W_em"] = probes.em_energy
    out_mod.write_probe_csv(os.path.join(out_dir, "probes.csv"),
                            probes.times, columns)
    if probes.currents:
        first = next(iter(probes.currents))
        out_mod.write_spectrum_csv(os.path.join(out_dir, "spectrum.csv"),
                                   probes.times, probes.currents[first])
        out_mod.write_svg_lineplot(
            os.path.join(out_dir, "currents.svg"), probes.times,
            {f"I_{k}": v for k, v in probes.currents.items()},
            title="terminal currents")

    fields = {}
    dim = mesh.dim
    e_comp = [em_state[em.idx["ex"]]]
    if dim == 2:
        e_comp.append(em_state[em.idx["ey"]])
    fields["E"] = tuple(e_comp)
    fields["H"] = em_state[em.idx["hz"]]
    for label, row in (("n_e", 0), ("n_h", 1)):
        full = np.zeros((em_disc.K, em_disc.Np))
        full[cs.dd_in_em] = dd_state[row]
        fields[label] = full
    out_mod.write_vtk(os.path.join(out_dir, "fields.vtk"), em_disc, fields)

    manifest = out_mod.RunManifest(
        command="transient", config_hash=cfg.config_hash,
        mesh_hash=mesh.content_hash(), code_version=CODE_VERSION,
        wall_time_s=time.perf_counter() - t0,
        em_steps=n_macro * sched.m, dd_steps=n_macro,
        cfl={"dt_em": sched.dt_em, "dt_dd": sched.dt_dd, "m": sched.m,
             "em_bound": em_info["bound"], "dd_bound": dd_info["bound"],
             "safety": cfg.safety},
        extra={"t_end": t, "probe_cadence": cfg.cadence})
    out_mod.write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    print(f"transient complete: t = {t:.3e} s, "
          f"{n_macro} DD steps / {n_macro * sched.m} EM substeps")
    return 0


def run_convergence(cfg, out_dir):
    conv = cfg.convergence or {}
    system = conv.get("system", "maxwell")
    rows = cv.order_table(system, orders=conv.get("orders", [1, 2]),
                          levels=conv.get("levels", 3))
    print(f"convergence study: {system}")
    print(cv.format_table(rows))
    lines = ["p,n,h,error,order"]
    for p, n, h, err, order in rows:
        o = "" if np.isnan(order) else format(order, ".17g")
        lines.append(f"{p},{n},{h:.17g},{err:.17g},{o}")
    out_mod._atomic_write(os.path.join(out_dir, "convergence.csv"),
                          "\n".join(lines) + "\n")
    return 0


def run_info(cfg, out_dir):
    mesh = cfg.build_mesh()
    table = cfg.material_table()
    semis = [m for m in cfg.materials.values() if m.semiconductor]
    n_est = max((abs(m.doping) + m.n_i for m in semis), default=1e18)
    extent = float(np.max(np.asarray(cfg.hi) - np.asarray(cfg.lo)))
    v_max = max((abs(c.voltage) for c in cfg.contacts), default=0.0)
    e_est = v_max / extent if extent > 0 else 0.0
    rep = resolution_report(mesh, table, n_est, e_est, p=cfg.p_dd,
                            wavelength=cfg.wavelength)
    print(f"mesh: dim={mesh.dim} K={mesh.K} hash={mesh.content_hash()}")
    print(rep)
    disc = build_discretization(mesh,
                                build_reference_element(mesh.dim, cfg.p_em))
    em_info = stable_timestep("maxwell", disc, table, safety=cfg.safety,
                              detail=True)
    print(f"dt_em <= {em_info['dt']:.3e} s  (bound: {em_info['bound']})")
    ddisc = build_discretization(
        mesh, build_reference_element(mesh.dim, cfg.p_dd),
        element_mask=np.array(
            [table.region(mesh.region_names[mesh.region_id[k]]).semiconductor
             for k in range(mesh.K)]),
        cut_face_tag=lambda k, f, nbr: "INSULATOR_R")
    dd_info = stable_timestep("dd", ddisc, table,
                              state_estimate={"e_mag": e_est},
                              safety=cfg.safety, detail=True)
    print(f"dt_dd <= {dd_info['dt']:.3e} s  (bound: {dd_info['bound']})")
    return 0


_RUNNERS = {"stationary": run_stationary, "transient": run_transient,
            "convergence": run_convergence, "info": run_info}


def main(argv=None):
    args = build_parser().parse_args(argv)
    _limit_threads(args.threads)
    try:
        cfg = parse_config(args.config, strict=args.strict)
        out_dir = _out_dir(args)
    except (ConfigurationError, MeshFormatError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        return _RUNNERS[args.command](cfg, out_dir)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (PhysicsError, ConvergenceError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
