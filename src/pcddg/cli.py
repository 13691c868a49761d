"""Command-line front end: stationary, transient, convergence, info.

Exit codes: 0 on success, 1 for configuration errors, 2 for solver
failures; a solver failure still writes manifest.json, with status
"failed", the error and the Gummel history.  The default output directory
comes from --out, then the PCDDG_OUT environment variable, then the
current directory.
"""

import argparse
import json
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


def _stationary(cfg, mesh, out_dir, reuse):
    """The stationary problem on mesh at run.p_dd (equal to run.p_em: the
    transient's DD solver shares the EM nodes) and its solution: with
    reuse, out_dir's stationary.chk if it matches the deck, else solved
    and checkpointed."""
    prob = StationaryProblem(mesh, cfg.material_table(), cfg.contacts,
                             p=cfg.p_dd)
    chk = os.path.join(out_dir, "stationary.chk")
    if reuse and os.path.exists(chk):
        try:
            sol = load_checkpoint(chk, prob)
        except (PhysicsError, ValueError, IndexError):
            print(f"checkpoint {chk} incompatible; recomputing stationary state")
        else:
            print(f"loaded stationary checkpoint {chk}")
            return prob, sol
    sol = prob.gummel_solve(verbose=True)
    save_checkpoint(chk, prob, sol)
    return prob, sol


def run_stationary(cfg, out_dir):
    t0 = time.perf_counter()
    mesh = cfg.build_mesh()
    prob, sol = _stationary(cfg, mesh, out_dir, reuse=False)

    currents = prob.stationary_current(sol)
    out_mod.write_csv(os.path.join(out_dir, "stationary_currents.csv"),
                      ["contact", "I"], currents.items())

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
    # a contact integral over points in 1D, over lines in 2D
    unit = "A/m^2" if mesh.dim == 1 else "A/m"
    for name, val in currents.items():
        print(f"  I[{name}] = {val:.6e} {unit}")
    return 0


def _schedule(cfg, disc, table, e_mag):
    """The deck's MultirateSchedule on the EM discretization disc at the
    field e_mag (V/m), and the manifest's cfl record: both steps and m,
    then the bound of each step, the term that sets it and its global
    element.  With no horizon (run.t_end = 0) the schedule is None and
    the record holds the bounds alone."""
    def element(info):      # global id of the limiting element, if any
        k = info["element"]
        return None if k < 0 else int(disc.elems[k])

    em_info = stable_timestep("maxwell", disc, table, safety=cfg.safety,
                              detail=True, pml=cfg.pml)
    dd_info = dd_step_bound(disc, table, cfg.source, e_mag, safety=cfg.safety)
    cfl = {"dt_em_max": em_info["dt"], "em_bound": em_info["bound"],
           "em_element": element(em_info),
           "dt_dd_max": dd_info["dt"], "dd_bound": dd_info["bound"],
           "dd_element": element(dd_info), "safety": cfg.safety}
    if cfg.t_end <= 0:
        return None, cfl
    sched = MultirateSchedule.from_bounds(em_info["dt"], dd_info["dt"],
                                          cfg.t_end, m=cfg.m_override)
    # a deck's m may trade accuracy for speed; only the drift bound, the
    # stability limit of the IMEX DD step, rejects it
    drift = dd_info["drift"]
    if cfg.m_override is not None and sched.dt_dd > drift["dt"]:
        raise ConfigurationError(
            f"run.m = {sched.m} gives a DD step of {sched.dt_dd:.3e} s, above "
            f"the stable bound {drift['dt']:.3e} s ({drift['bound']}, "
            f"element {element(drift)})")
    # a record at t = 0 alone has no current trace to transform
    if cfg.cadence > sched.n_macro:
        raise ConfigurationError(
            f"probes.cadence = {cfg.cadence} is above n_macro = "
            f"{sched.n_macro}: no probe would be recorded after t = 0")
    return sched, {"dt_em": sched.dt_em, "dt_dd": sched.dt_dd, "m": sched.m,
                   **cfl}


def run_transient(cfg, out_dir):
    t0 = time.perf_counter()
    if cfg.t_end <= 0:
        raise ConfigurationError("run.t_end must be > 0 for a transient run")
    # the EM solver first: a source or PML fault ends the run before the
    # stationary solve
    mesh = cfg.build_mesh()
    em_disc = build_discretization(mesh,
                                   build_reference_element(mesh.dim, cfg.p_em))
    em = MaxwellSolver(em_disc, cfg.material_table(), source=cfg.source,
                       pml=cfg.pml)
    prob, sol = _stationary(cfg, mesh, out_dir, reuse=True)
    cs = CoupledSystem(em, prob.dd, wavelength=cfg.wavelength,
                       contacts=tuple(cfg.contacts))

    e_mag = float(max(np.max(np.abs(c)) for c in sol.e_s))
    sched, cfl = _schedule(cfg, em_disc, prob.materials, e_mag)
    n_macro = sched.n_macro
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

    # the state's first rows are ex (and ey), then hz
    fields = {"E": tuple(em_state[:mesh.dim]), "H": em_state[em.idx["hz"]]}
    for label, row in (("n_e", 0), ("n_h", 1)):
        full = np.zeros((em_disc.K, em_disc.Np))
        full[cs.dd_in_em] = dd_state[row]
        fields[label] = full
    out_mod.write_vtk(os.path.join(out_dir, "fields.vtk"), em_disc, fields)

    manifest = out_mod.RunManifest(
        command="transient", config_hash=cfg.config_hash,
        mesh_hash=mesh.content_hash(), code_version=CODE_VERSION,
        wall_time_s=time.perf_counter() - t0,
        em_steps=n_macro * sched.m, dd_steps=n_macro, cfl=cfl,
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
    out_mod.write_csv(os.path.join(out_dir, "convergence.csv"),
                      ["p", "n", "h", "error", "order"],
                      ((p, n, h, err, "" if np.isnan(order) else order)
                       for p, n, h, err, order in rows))
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
    # the transient's EM solver: a source or PML fault fails info as it
    # fails the transient
    MaxwellSolver(disc, table, source=cfg.source, pml=cfg.pml)
    sched, cfl = _schedule(cfg, disc, table, e_est)
    print(f"step bounds at |E| = {e_est:.3e} V/m (max|V| / extent), as "
          "manifest.json's cfl:")
    for key, val in cfl.items():
        print(f"cfl.{key} = {json.dumps(val)}")
    if sched is not None:
        print(f"n_macro = {sched.n_macro}")
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
