"""Workload inputs, operations and output checks of the pcddg benchmark.

Decks run through ``pcddg.cli.main``; the Maxwell-only grating case runs
through the library API.  Every operation returns the wall times of the
commands that passed and records each command, passed or failed, in an
``Outcome``.
"""

import contextlib
import io
import json
import os
import random
import re
import shutil
import statistics
import time

import numpy as np

from pcddg import cli, coupler, dgops, mesh as mesh_mod
from pcddg import physics as ph
from pcddg.config import parse_config
from pcddg.coupler import CoupledSystem, ProbeSet
from pcddg.em_dg import MaxwellSolver
from pcddg.physics import MaterialTable, OpticalSourceSpec
from pcddg.refelem import build_reference_element
from pcddg.stationary import StationaryProblem, load_checkpoint

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHIPPED_DECK = os.path.join(ROOT, "configs", "conventional_pcd.cfg")
LOWBIAS_DECK = os.path.join(HERE, "decks", "pcd1d_lowbias.cfg")

# Baselines of the seed code (2 cores, Python 3.11, numpy 2.4, scipy 1.17).
# The stationary state is converged to max|dphi|/V_T < 1e-6; 1e-4 leaves
# room for a different iteration reaching the same discrete solution.
ANODE_CURRENT_A = 8.399207e-04
ANODE_CURRENT_RTOL = 1e-4
# N_e(t) at m = 10 differs from m = 1 by 1.20 % (I_anode by 0.03 %); the
# ceiling lets coupling changes move it but catches a broken exchange.
CARRIER_ERR_CEILING = 0.03
# time-integrated generation of the grated case at peak_field = 1e7 V/m;
# it scales with the square of the peak field (linear Maxwell, G ~ |S|)
GRATING_GENERATION = 4.03376e8
GRATING_RTOL = 1e-5

SOURCE_POWER_MW = 0.63
PROBE_POINT_UM = 3.0
GRATING_PEAK_FIELD = 1e7

STATIONARY_FILES = ("stationary.chk", "stationary_currents.csv",
                    "stationary.vtk", "manifest.json")
TRANSIENT_FILES = ("probes.csv", "spectrum.csv", "currents.svg",
                   "fields.vtk", "manifest.json")


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# inputs from the seed

def lowbias_inputs(seed):
    """Source power (mW, +-10 %) and probe point (um, inside the
    photoconductor) for a seed.  Nothing that sets a step, a sweep or a
    call count depends on them."""
    rng = random.Random(seed)
    return (SOURCE_POWER_MW * (1.0 + rng.uniform(-0.1, 0.1)),
            PROBE_POINT_UM + rng.uniform(-0.5, 0.5))


def grating_peak_field(seed):
    return GRATING_PEAK_FIELD * (1.0 + random.Random(seed).uniform(-0.1, 0.1))


def lowbias_deck_text(seed, m=None):
    power, probe = lowbias_inputs(seed)
    with open(LOWBIAS_DECK) as fh:
        text = fh.read()
    subs = [(r"(?m)^power = .*$", f"power = {power!r} mW"),
            (r"(?m)^points = .*$", f"points = {probe!r} um")]
    if m is not None:
        subs.append((r"(?m)^m = .*$", f"m = {m}"))
    for pattern, repl in subs:
        text, n = re.subn(pattern, repl, text)
        if n != 1:
            raise CheckFailed(f"deck template: {pattern!r} matched {n} lines")
    return text


# ---------------------------------------------------------------------------
# output checks

_NONFINITE = re.compile(r"(?i)(?<![a-z_])[+-]?(nan|inf|infinity)(?![a-z_])")


def check_finite_text(path):
    with open(path) as fh:
        text = fh.read()
    if _NONFINITE.search(text):
        raise CheckFailed(f"{os.path.basename(path)}: non-finite value")


def read_csv(path, expect_rows=None):
    """Header and data of a numeric CSV; rejects ragged, empty or
    non-finite rows."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    name = os.path.basename(path)
    if len(lines) < 2:
        raise CheckFailed(f"{name}: no data rows")
    header = lines[0].split(",")
    try:
        data = np.array([[float(v) for v in ln.split(",")]
                         for ln in lines[1:]])
    except ValueError as exc:
        raise CheckFailed(f"{name}: {exc}") from None
    if data.ndim != 2 or data.shape[1] != len(header):
        raise CheckFailed(f"{name}: rows do not match the header")
    if not np.all(np.isfinite(data)):
        raise CheckFailed(f"{name}: non-finite value")
    if expect_rows is not None and data.shape[0] != expect_rows:
        raise CheckFailed(f"{name}: {data.shape[0]} rows, "
                          f"expected {expect_rows}")
    return header, data


def require_files(out, names):
    missing = [n for n in names if not os.path.isfile(os.path.join(out, n))]
    if missing:
        raise CheckFailed(f"missing output {', '.join(missing)}")


def check_stationary(out):
    """Returns the stationary contact currents by name."""
    require_files(out, STATIONARY_FILES)
    for name in ("stationary.chk", "stationary.vtk"):
        check_finite_text(os.path.join(out, name))
    with open(os.path.join(out, "stationary_currents.csv")) as fh:
        rows = [ln.split(",") for ln in fh.read().splitlines()[1:]]
    try:
        currents = {name: float(val) for name, val in rows}
    except ValueError as exc:
        raise CheckFailed(f"stationary_currents.csv: {exc}") from None
    if not currents or not np.all(np.isfinite(list(currents.values()))):
        raise CheckFailed("stationary_currents.csv: no finite currents")
    return currents


def check_transient(out, n_macro):
    """probes.csv must hold the t = 0 row plus one row per macro step."""
    require_files(out, TRANSIENT_FILES)
    check_finite_text(os.path.join(out, "fields.vtk"))
    read_csv(os.path.join(out, "spectrum.csv"))
    return read_csv(os.path.join(out, "probes.csv"), expect_rows=n_macro + 1)


def carrier_err(probes, ref_probes):
    """Relative L2 difference of N_e(t) against the m = 1 trace, which is
    interpolated onto this run's sync times."""
    (h, d), (hr, dr) = probes, ref_probes
    n_e = d[:, h.index("N_e")]
    ref = np.interp(d[:, 0], dr[:, 0], dr[:, hr.index("N_e")])
    return float(np.linalg.norm(n_e - ref) / np.linalg.norm(ref))


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))


# ---------------------------------------------------------------------------
# operations

def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_command(command, deck, out, rec=None):
    """One ``pcd-dg`` command in-process; returns (exit code, wall s,
    stdout, stderr).  With a recorder, the command is one span."""
    sout, serr = io.StringIO(), io.StringIO()
    if rec is not None:
        rec.open(f"command.{command}")
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sout), contextlib.redirect_stderr(serr):
        rc = cli.main([command, "--config", deck, "--out", out])
    wall = time.perf_counter() - t0
    if rec is not None:
        rec.close()
    return rc, wall, sout.getvalue(), serr.getvalue()


class Outcome:
    """Operations attempted and failed in one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, label, problem):
        self.attempted += 1
        if problem:
            self.failures.append(f"{label}: {problem}")
        return not problem


def _manifest(out):
    with open(os.path.join(out, "manifest.json")) as fh:
        return json.load(fh)


def pcd1d_op(deck, out, outcome, label, rec=None, ref_probes=None,
             check_current=True):
    """`stationary`, then `transient` reusing its checkpoint.  Returns a
    dict with the wall time of each command that passed, the parsed probes
    and, given the m = 1 reference probes, carrier_err."""
    fresh_dir(out)
    res = {"probes": None}
    if rec is not None:
        rec.run_id = f"{label}/stationary"
    rc, wall, _, err = run_command("stationary", deck, out, rec)
    problem = f"exit {rc}: {err.strip()}" if rc else ""
    if not problem:
        try:
            cur = check_stationary(out).get("anode", np.nan)
            if check_current and \
                    abs(cur / ANODE_CURRENT_A - 1.0) > ANODE_CURRENT_RTOL:
                raise CheckFailed(f"I_anode {cur:.7e} A, expected "
                                  f"{ANODE_CURRENT_A:.7e} A")
        except CheckFailed as exc:
            problem = str(exc)
    if not outcome.record(f"{label} stationary", problem):
        outcome.record(f"{label} transient", "skipped: stationary failed")
        return res
    res["stationary_s"] = wall

    if rec is not None:
        rec.run_id = f"{label}/transient"
    rc, wall, out_text, err = run_command("transient", deck, out, rec)
    problem = f"exit {rc}: {err.strip()}" if rc else ""
    if not problem:
        try:
            if "loaded stationary checkpoint" not in out_text:
                raise CheckFailed("stationary checkpoint was not reused")
            res["probes"] = check_transient(out, _manifest(out)["dd_steps"])
            if ref_probes is not None:
                res["carrier_err"] = carrier_err(res["probes"], ref_probes)
                if res["carrier_err"] > CARRIER_ERR_CEILING:
                    raise CheckFailed(
                        f"carrier_err {res['carrier_err']:.4f} above "
                        f"{CARRIER_ERR_CEILING}")
        except CheckFailed as exc:
            problem = str(exc)
    if outcome.record(f"{label} transient", problem):
        res["transient_s"] = wall
    return res


def pcd1d_setup(deck, chk):
    """The set-up path of `stationary` and of `transient` (parse, mesh,
    discretizations, solver constructors, checkpoint load), called through
    the same public functions the CLI calls, up to each command's first
    solver iteration.  Returns the seconds of both, summed."""
    t0 = time.perf_counter()
    cfg = parse_config(deck)
    mesh = cfg.build_mesh()
    StationaryProblem(mesh, cfg.material_table(), cfg.contacts, p=cfg.p_dd)
    if chk is None:
        return time.perf_counter() - t0

    cfg = parse_config(deck)
    mesh = cfg.build_mesh()
    table = cfg.material_table()
    prob = StationaryProblem(mesh, table, cfg.contacts, p=cfg.p_em)
    sol = load_checkpoint(chk, prob)
    em_disc = dgops.build_discretization(
        mesh, build_reference_element(mesh.dim, cfg.p_em))
    em = MaxwellSolver(em_disc, table, source=cfg.source, pml=cfg.pml)
    prob.dd.set_stationary(prob.e_on_dd(sol.e_s), sol.n_e, sol.n_h)
    CoupledSystem(em, prob.dd, wavelength=cfg.wavelength,
                  contacts=tuple(cfg.contacts))
    e_mag = float(max(np.max(np.abs(c)) for c in sol.e_s))
    coupler.stable_timestep("maxwell", em_disc, table, safety=cfg.safety)
    coupler.stable_timestep("dd", prob.ddisc, table,
                            state_estimate={"e_mag": e_mag},
                            safety=cfg.safety)
    ProbeSet(contacts=tuple(cfg.contacts), points=cfg.probe_points,
             cadence=cfg.cadence).validate(em_disc)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# grating2d: the grated case of the acceptance suite's generation test
# (0.5 um period, 1 um LT-GaAs under a 0.2 x 0.1 um Drude gold bar,
# h = 50 nm, K = 880, p = 2), marched to 0.13 ps, Maxwell only.

GRATING_T_END = 1.3e-13
GRATING_CHUNKS = 24


def grating_build(peak_field):
    """Mesh, discretization and solver of the grated case; returns what the
    march needs."""
    width, h, p, bar_w, bar_t = 0.5e-6, 5e-8, 2, 0.2e-6, 0.1e-6
    y_semi, height = 1.0e-6, 2.2e-6
    x0 = 0.5 * (width - bar_w)
    regions = [("semi", [0.0, 0.0], [width, y_semi], h),
               ("au", [x0, y_semi], [x0 + bar_w, y_semi + bar_t], h),
               ("vacL", [0.0, y_semi], [x0, y_semi + bar_t], h),
               ("vacR", [x0 + bar_w, y_semi], [width, y_semi + bar_t], h),
               ("vacT", [0.0, y_semi + bar_t], [width, height], h)]
    mats = MaterialTable({"semi": ph.lt_gaas(), "au": ph.gold(),
                          "vacL": ph.vacuum(), "vacR": ph.vacuum(),
                          "vacT": ph.vacuum()})
    spec = mesh_mod.make_spec(
        2, [0.0, 0.0], [width, height], regions,
        tag_boxes=[("SOURCE_APERTURE", [0.0, height], [width, height])],
        default_tag="PEC")
    mesh = mesh_mod.generate_structured_mesh(spec)
    disc = dgops.build_discretization(mesh, build_reference_element(2, p))
    em = MaxwellSolver(disc, mats, source=OpticalSourceSpec(
        f_c=375e12, f_w=25e12, beam_width=3e-6, peak_field=peak_field))
    semi = np.array([mesh.region_names[mesh.region_id[k]] == "semi"
                     for k in disc.elems])
    dt = coupler.stable_timestep("maxwell", disc, mats)
    n_steps = int(np.ceil(GRATING_T_END / dt))
    return {"disc": disc, "em": em, "semi": semi, "n_steps": n_steps,
            "gcoef": ph.generation_coefficient(ph.lt_gaas(), 800e-9)}


def grating_march(case, rec=None):
    """LSRK45 march of the case.  Returns the time integral of the optical
    generation over the semiconductor, the final state, and the march's
    wall time taken as n_steps x the median per-step time of
    GRATING_CHUNKS equal chunks: every step does the same work, and the
    median drops chunks slowed by other tenants of the machine."""
    disc, em, semi = case["disc"], case["em"], case["semi"]
    n_steps = case["n_steps"]
    dt = GRATING_T_END / n_steps
    idx = em.idx

    def generation_integral(u):
        g = case["gcoef"] * ph.poynting_magnitude(
            (u[idx["ex"]], u[idx["ey"]]), (u[idx["hz"]],))
        g[~semi] = 0.0
        return disc.integrate(g) * dt

    if rec is not None:
        generation_integral = rec.timed("bench.generation_integral",
                                        generation_integral)
    u = em.zero_state()
    total, t = 0.0, 0.0
    ends = np.linspace(0, n_steps, GRATING_CHUNKS + 1).astype(int)
    per_step = []
    for a, b in zip(ends[:-1], ends[1:]):
        t0 = time.perf_counter()
        for _ in range(b - a):
            u = coupler.lsrk45_step(u, em.rhs, dt, t)
            t += dt
            total += generation_integral(u)
        per_step.append((time.perf_counter() - t0) / (b - a))
    return total, u, statistics.median(per_step) * n_steps


def grating_op(peak_field, outcome, label, rec=None):
    """Build and march the case; returns wall times or {} on failure."""
    if rec is not None:
        rec.run_id = f"{label}/march"
        rec.open("command.march")
    t0 = time.perf_counter()
    case = grating_build(peak_field)
    t1 = time.perf_counter()
    total, u, march_s = grating_march(case, rec)
    if rec is not None:
        rec.close()
    expect = GRATING_GENERATION * (peak_field / GRATING_PEAK_FIELD) ** 2
    problem = ""
    if not np.all(np.isfinite(u)):
        problem = "non-finite field"
    elif abs(total / expect - 1.0) > GRATING_RTOL:
        problem = f"generation integral {total:.6e}, expected {expect:.6e}"
    if not outcome.record(f"{label} march", problem):
        return {}
    return {"run_s": t1 - t0 + march_s, "setup_s": t1 - t0,
            "transient_s": march_s}


def grating_setup(peak_field):
    t0 = time.perf_counter()
    grating_build(peak_field)
    return time.perf_counter() - t0
