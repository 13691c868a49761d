"""Command-line front end: stationary, transient, convergence, info.

Exit codes: 0 on success, 1 for configuration errors, 2 for solver
failures; a solver failure still writes manifest.json, with status
"failed", the error and the Gummel history.  The default output directory
comes from --out, then the PCDDG_OUT environment variable, then the
current directory.
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
from .config import parse_config
from .coupler import (CoupledSystem, MultirateSchedule, ProbeSet,
                      dd_step_bound, run_coupled, stable_timestep)
from .dgops import build_discretization
from .em_dg import MaxwellSolver
from .mesh import resolution_report
from .physics import PhysicsError
from .refelem import ConfigurationError, MeshError, build_reference_element
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
    return parser


def _out_dir(args):
    d = args.out or os.environ.get("PCDDG_OUT") or "."
    os.makedirs(d, exist_ok=True)
    return d


def _stationary_problem(cfg, mesh):
    """The stationary problem at run.p_dd, which parse_config makes equal
    to run.p_em: the transient's DD solver shares the EM nodes."""
    return StationaryProblem(mesh, cfg.material_table(), cfg.contacts,
                             p=cfg.p_dd)


def run_stationary(cfg, out_dir):
    t0 = time.perf_counter()
    mesh = cfg.build_mesh()
    prob = _stationary_problem(cfg, mesh)
    sol = prob.gummel_solve(verbose=True)
    save_checkpoint(os.path.join(out_dir, "stationary.chk"), prob, sol)

    currents = prob.stationary_current(sol)
    lines = ["contact,I"]
    lines += [f"{name},{val:.17g}" for name, val in currents.items()]
    out_mod._atomic_write(os.path.join(out_dir, "stationary_currents.csv"),
                          "\n".join(lines) + "\n")

    n_e, n_h = prob.poisson_densities(sol)
    out_mod.write_vtk(os.path.join(out_dir, "stationary.vtk"), prob.pdisc,
                      {"phi": sol.phi, "n_e": n_e, "n_h": n_h, "E": sol.e_s})

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


def _global_element(disc, info):
    """The global id of the element whose bound limits the step (None when
    no bound applies)."""
    return None if info["element"] < 0 else int(disc.elems[info["element"]])


def run_transient(cfg, out_dir):
    t0 = time.perf_counter()
    if cfg.t_end <= 0:
        raise ConfigurationError("run.t_end must be > 0 for a transient run")
    mesh = cfg.build_mesh()
    table = cfg.material_table()

    # stationary seed from the checkpoint; a fresh solve when no compatible
    # checkpoint exists
    prob = _stationary_problem(cfg, mesh)
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
    cs = CoupledSystem(em, prob.dd, wavelength=cfg.wavelength,
                       contacts=tuple(cfg.contacts))

    e_mag = float(max(np.max(np.abs(c)) for c in sol.e_s))
    em_info = stable_timestep("maxwell", em_disc, table,
                              safety=cfg.safety, detail=True, pml=cfg.pml)
    dd_info = dd_step_bound(prob.ddisc, table, cfg.source, e_mag,
                            safety=cfg.safety)
    sched = MultirateSchedule.from_bounds(em_info["dt"], dd_info["dt"],
                                          cfg.t_end, m=cfg.m_override)
    n_macro = sched.n_macro
    em_element = _global_element(em_disc, em_info)
    dd_element = _global_element(prob.ddisc, dd_info)
    # a deck's m may trade accuracy for speed; only the drift bound, the
    # stability limit of the IMEX DD step, rejects it
    drift = dd_info["drift"]
    if cfg.m_override is not None and sched.dt_dd > drift["dt"]:
        raise ConfigurationError(
            f"run.m = {sched.m} gives a DD step of {sched.dt_dd:.3e} s, above "
            f"the stable bound {drift['dt']:.3e} s ({drift['bound']}, "
            f"element {_global_element(prob.ddisc, drift)})")
    print(f"multirate schedule: dt_em={sched.dt_em:.3e} s, m={sched.m}, "
          f"{n_macro} macro steps")

    probes = ProbeSet(contacts=tuple(cfg.contacts), points=cfg.probe_points,
                      cadence=cfg.cadence)
    em_state, dd_state, t = run_coupled(cs, sched, probes=probes)

    out_mod.write_probe_csv(os.path.join(out_dir, "probes.csv"),
                            probes.times, probes.columns)
    currents = {k: v for k, v in probes.columns.items() if k.startswith("I_")}
    if currents:
        out_mod.write_spectrum_csv(os.path.join(out_dir, "spectrum.csv"),
                                   probes.times, next(iter(currents.values())))
        out_mod.write_svg_lineplot(os.path.join(out_dir, "currents.svg"),
                                   probes.times, currents,
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
             "dt_em_max": em_info["dt"], "em_bound": em_info["bound"],
             "em_element": em_element, "dt_dd_max": dd_info["dt"],
             "dd_bound": dd_info["bound"], "dd_element": dd_element,
             "safety": cfg.safety},
        extra={"t_end": t, "probe_cadence": cfg.cadence})
    out_mod.write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    print(f"transient complete: t = {t:.3e} s, "
          f"{n_macro} DD steps / {n_macro * sched.m} EM substeps")
    return 0


def run_convergence(cfg, out_dir):
    conv = cfg.convergence
    rows = cv.order_table(conv["system"], orders=conv["orders"],
                          levels=conv["levels"])
    print(f"convergence study: {conv['system']}")
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
                              detail=True, pml=cfg.pml)
    print(f"dt_em <= {em_info['dt']:.3e} s  (bound: {em_info['bound']})")
    mats, mat_idx = table.element_materials(mesh)
    ddisc = build_discretization(
        mesh, build_reference_element(mesh.dim, cfg.p_dd),
        element_mask=np.array([m.semiconductor for m in mats])[mat_idx],
        cut_face_tag=lambda k, f, nbr: "INSULATOR_R")
    dd_info = dd_step_bound(ddisc, table, cfg.source, e_est,
                            safety=cfg.safety)
    print(f"dt_dd <= {dd_info['dt']:.3e} s  (bound: {dd_info['bound']})")
    return 0


_RUNNERS = {"stationary": run_stationary, "transient": run_transient,
            "convergence": run_convergence, "info": run_info}


def main(argv=None):
    t0 = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        out_dir = _out_dir(args)
    except (ConfigurationError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        return _RUNNERS[args.command](cfg, out_dir)
    except (ConfigurationError, MeshError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (PhysicsError, ConvergenceError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        # the diagnosis: the error and, for a Gummel failure, the update
        # of every sweep
        history = getattr(exc, "history", [])
        manifest = out_mod.RunManifest(
            command=args.command, config_hash=cfg.config_hash, mesh_hash="",
            code_version=CODE_VERSION, status="failed",
            wall_time_s=time.perf_counter() - t0,
            extra={"error": str(exc),
                   "gummel_history": [float(h) for h in history]})
        out_mod.write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
        return 2


if __name__ == "__main__":
    sys.exit(main())
