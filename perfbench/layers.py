"""Which pcddg names the traced run wraps, and the per-layer metrics that
the recorded spans give.

Each name is patched where its caller resolves it: the CLI imported
``parse_config``, ``build_discretization``, ``run_coupled``,
``stable_timestep`` and the checkpoint functions into its own namespace;
``StationaryProblem`` calls ``build_discretization``,
``assemble_affine_operator`` and ``solve_sparse`` through the globals of
``pcddg.stationary``; ``run_coupled`` and ``multirate_advance`` resolve
the steppers in ``pcddg.coupler``; the CLI writes files through the
``pcddg.output`` module.  Methods are patched on their classes.
"""

import statistics

from pcddg import cli, config, coupler, dd_dg, dgops, em_dg, mesh, output
from pcddg import stationary

from spans import (END, NAME, START, children_of, coverage, has_ancestor,
                   outermost, self_time)

OUTPUT_FUNCTIONS = ("_atomic_write", "write_manifest", "write_probe_csv",
                    "write_spectrum_csv", "write_vtk", "write_svg_lineplot")
OUTPUT_SPANS = frozenset(f"output.{f}" for f in OUTPUT_FUNCTIONS)


def patch_targets():
    """(owner, attribute, span name) for every wrapped name."""
    sp = stationary.StationaryProblem
    targets = [
        (cli, "parse_config", "config.parse"),
        (cli, "build_discretization", "dgops.build_discretization"),
        (cli, "save_checkpoint", "output.checkpoint"),
        (cli, "load_checkpoint", "stationary.checkpoint_load"),
        (cli, "run_coupled", "coupler.run"),
        (cli, "stable_timestep", "coupler.stable_timestep"),
        (config, "generate_structured_mesh", "mesh.generate"),
        (mesh, "generate_structured_mesh", "mesh.generate"),
        (dgops, "build_discretization", "dgops.build_discretization"),
        (stationary, "build_discretization", "dgops.build_discretization"),
        (stationary, "assemble_affine_operator", "stationary.assemble"),
        (stationary, "solve_sparse", "stationary.solve"),
        (coupler, "multirate_advance", "coupler.advance"),
        (coupler, "lsrk45_step", "coupler.lsrk"),
        (coupler, "tvd_rk3_step", "coupler.tvd"),
        (coupler, "stable_timestep", "coupler.stable_timestep"),
        (sp, "__init__", "stationary.init"),
        (sp, "gummel_solve", "stationary.gummel"),
        (sp, "_gummel_sweeps", "stationary.stage"),
        (sp, "_sweep", "stationary.sweep"),
        (sp, "continuity_solve", "stationary.continuity"),
        (em_dg.MaxwellSolver, "__init__", "em_dg.init"),
        (em_dg.MaxwellSolver, "rhs", "em_dg.rhs"),
        (dd_dg.DDSolver, "carrier_rhs", "dd_dg.rhs"),
        (coupler.CoupledSystem, "__init__", "coupler.init"),
        (coupler.CoupledSystem, "generation", "coupler.generation"),
        (coupler.CoupledSystem, "transient_current",
         "coupler.transient_current"),
        (coupler.ProbeSet, "record", "coupler.probe"),
    ]
    targets += [(output, f, f"output.{f}") for f in OUTPUT_FUNCTIONS]
    return targets


def install(rec):
    """Wrap every target; counters ride on the assembly, solve, Gummel and
    rhs wrappers."""
    def assemble_before(args, kwargs):
        def counted(fn):
            def kernel(u):
                rec.count("assemble.kernel_calls")
                return fn(u)
            return kernel
        args = (counted(args[0]),) + tuple(args[1:])
        if kwargs.get("homogeneous_fn") is not None:
            kwargs = dict(kwargs, homogeneous_fn=counted(
                kwargs["homogeneous_fn"]))
        return args, kwargs

    def solve_before(args, kwargs):
        rec.count("solve.n", args[0].shape[0])
        rec.count("solve.nnz", args[0].nnz)
        return args, kwargs

    def gummel_after(args, outcome):
        hist = getattr(outcome, "gummel_history", None)
        if hist is None:
            hist = getattr(outcome, "history", [])
        rec.count("sweeps", len(hist))
        if hist:
            rec.counters["last_update"] = hist[-1]

    def dof_before(key):
        def before(args, kwargs):
            rec.count(key, args[1].size)       # args[0] is the solver
            return args, kwargs
        return before

    hooks = {"stationary.assemble": (assemble_before, None),
             "stationary.solve": (solve_before, None),
             "stationary.gummel": (None, gummel_after),
             "em_dg.rhs": (dof_before("em_dg.dof"), None),
             "dd_dg.rhs": (dof_before("dd_dg.dof"), None)}
    for owner, attr, name in patch_targets():
        before, after = hooks.get(name, (None, None))
        rec.patch(owner, attr, name, before, after)


def layer_metrics(rec):
    """Per-layer figures of one traced operation, as {name: (value, unit)}.
    Layers a workload does not run read 0."""
    spans = rec.spans
    kids = children_of(spans)
    c = rec.counters
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def n(name):
        return len(idx(name))

    def total(*names):
        return sum(spans[i][END] - spans[i][START]
                   for name in names for i in idx(name))

    def self_total(name):
        return sum(self_time(spans, kids, i) for i in idx(name))

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    sweeps = [spans[i][END] - spans[i][START] for i in idx("stationary.sweep")]
    rhs_s, dd_s = total("em_dg.rhs"), total("dd_dg.rhs")
    macro, em_steps = n("coupler.advance"), n("coupler.lsrk")
    probe_s = total("coupler.probe")
    commands = [i for i, s in enumerate(spans)
                if s[NAME].startswith("command.")]
    m = {
        "config.parse_s": (total("config.parse"), "s"),
        "mesh.generate_s": (total("mesh.generate"), "s"),
        "dgops.build_discretization_s":
            (total("dgops.build_discretization"), "s"),
        "stationary.init_s": (total("stationary.init"), "s"),
        "em_dg.init_s": (total("em_dg.init"), "s"),
        "stationary.checkpoint_load_s":
            (total("stationary.checkpoint_load"), "s"),
        "stationary.stages": (n("stationary.stage"), "count"),
        "stationary.sweeps": (c.get("sweeps", 0), "count"),
        "stationary.sweep_s":
            (statistics.median(sweeps) if sweeps else 0.0, "s"),
        "stationary.last_update": (c.get("last_update", 0.0), "V_T"),
        "stationary.assemble.calls": (n("stationary.assemble"), "count"),
        "stationary.assemble.s": (total("stationary.assemble"), "s"),
        "stationary.assemble.kernel_calls":
            (c.get("assemble.kernel_calls", 0), "count"),
        "stationary.solve.calls": (n("stationary.solve"), "count"),
        "stationary.solve.s": (total("stationary.solve"), "s"),
        "stationary.solve.n":
            (ratio(c.get("solve.n", 0), n("stationary.solve")), "count"),
        "stationary.solve.nnz":
            (ratio(c.get("solve.nnz", 0), n("stationary.solve")), "count"),
        "stationary.continuity.s": (total("stationary.continuity"), "s"),
        "em_dg.rhs.calls": (n("em_dg.rhs"), "count"),
        "em_dg.rhs.s": (rhs_s, "s"),
        "em_dg.rhs.us_per_call": (ratio(rhs_s, n("em_dg.rhs"), 1e6), "us"),
        "em_dg.rhs.mdof_per_s":
            (ratio(c.get("em_dg.dof", 0), rhs_s, 1e-6), "Mdof/s"),
        "em_dg.rhs.probe_calls":
            (sum(has_ancestor(spans, i, "coupler.probe")
                 for i in idx("em_dg.rhs")), "count"),
        "dd_dg.rhs.calls": (n("dd_dg.rhs"), "count"),
        "dd_dg.rhs.s": (dd_s, "s"),
        "dd_dg.rhs.mdof_per_s":
            (ratio(c.get("dd_dg.dof", 0), dd_s, 1e-6), "Mdof/s"),
        "coupler.macro_steps": (macro, "count"),
        "coupler.em_steps": (em_steps, "count"),
        "coupler.m": (ratio(sum(has_ancestor(spans, i, "coupler.advance")
                                for i in idx("coupler.lsrk")), macro),
                      "count"),
        "coupler.self_s": (self_total("coupler.advance"), "s"),
        "coupler.lsrk.self_s": (self_total("coupler.lsrk"), "s"),
        "coupler.exchange_s":
            (total("coupler.generation", "coupler.transient_current"), "s"),
        "coupler.probe.records": (n("coupler.probe"), "count"),
        "coupler.probe.s": (probe_s, "s"),
        "coupler.probe.ms_per_record":
            (ratio(probe_s, n("coupler.probe"), 1e3), "ms"),
        "output.s": (sum(spans[i][END] - spans[i][START]
                         for i in outermost(spans, OUTPUT_SPANS)), "s"),
        "output.checkpoint_s": (total("output.checkpoint"), "s"),
        "trace.coverage": (min((coverage(spans, kids, i) for i in commands),
                               default=0.0), "ratio"),
    }
    return m
