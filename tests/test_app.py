import contextlib
import csv
import glob
import io
import json
import os
import re
import shutil
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

import pcddg
from pcddg import cli
from pcddg import output as out_mod
from pcddg.cli import main
from pcddg.config import _SECTIONS, parse_box, parse_config, parse_quantity
from pcddg.dgops import build_discretization
from pcddg.em_dg import MaxwellSolver
from pcddg.mesh import unit_interval_mesh
from pcddg.physics import C0, EPS0, Q, thermal_voltage
from pcddg.refelem import ConfigurationError, build_reference_element
from pcddg.stationary import ConvergenceError, StationaryProblem

from helpers import read_info, read_probe_csv, read_vtk

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = os.path.join(REPO, "configs", "conventional_pcd.cfg")
LOWBIAS = os.path.join(REPO, "perfbench", "decks", "pcd1d_lowbias.cfg")
DEVICE2D = os.path.join(REPO, "tests", "decks", "device2d.cfg")
PML_DRUDE1D = os.path.join(REPO, "tests", "decks", "pml_drude1d.cfg")

DEVICE_CFG = """\
[mesh]
dim = 1
domain = 0 um -> 1 um

[region.air]
material = vacuum
box = 0 um -> 0.5 um
h = 50 nm

[region.semi]
material = lt_gaas
box = 0.5 um -> 1 um
h = 50 nm

[boundary]
default = PEC
source_aperture = 0 um -> 0 um

[contact.anode]
box = 1 um -> 1 um
voltage = 0.05 V

[source]
f_c = 375 THz
f_w = 25 THz
peak_field = 1e7
beam_width = 1 um

[run]
p_em = 2
p_dd = 2
t_end = 0.5 fs
m = 2

[probes]
points = 0.75 um
"""


# a two-contact LT-GaAs resistor with no source: its field sets a drift
# bound of about 0.3 ps, and the deck's m asks for a DD step above it
DRIFT_BOUND_CFG = """\
[mesh]
dim = 1
domain = 0 um -> 6 um

[region.pcd]
material = lt_gaas
box = 0 um -> 6 um
h = 25 nm

[boundary]
default = PEC

[contact.cathode]
box = 0 um -> 0 um
voltage = 0 V

[contact.anode]
box = 6 um -> 6 um
voltage = 0.1 V

[run]
t_end = 1 ps
m = 40000
"""


@pytest.fixture
def device_cfg(tmp_path):
    path = tmp_path / "dev.cfg"
    path.write_text(DEVICE_CFG)
    return str(path)


class TestQuantityParsing:
    @pytest.mark.parametrize("text,si", [
        ("10 V", 10.0), ("800 nm", 8e-7), ("2 um", 2e-6), ("0.3 ps", 3e-13),
        ("0.5 fs", 5e-16), ("375 THz", 3.75e14), ("1.3e16 cm^-3", 1.3e22),
        ("42", 42.0), ("-5 mV", -5e-3), ("300 K", 300.0),
    ])
    def test_unit_suffixes(self, text, si):
        # abs=0: pytest's default abs=1e-12 would pass any value below 1e-12
        assert parse_quantity(text) == pytest.approx(si, rel=1e-12, abs=0)

    def test_unknown_unit_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown unit"):
            parse_quantity("3 furlongs", "run.t_end")

    def test_error_carries_context(self):
        with pytest.raises(ConfigurationError, match="run.t_end"):
            parse_quantity("abc def ghi", "run.t_end")

    def test_box(self):
        lo, hi = parse_box("0 um -> 2 um", 1)
        assert lo[0] == 0.0 and hi[0] == pytest.approx(2e-6)
        with pytest.raises(ConfigurationError, match="lo -> hi"):
            parse_box("0, 2", 1)


class TestShippedConfig:
    def test_parses_strict(self):
        cfg = parse_config(SHIPPED)
        assert cfg.contacts[0].voltage == pytest.approx(10.0)
        mat = cfg.materials["pcd"]
        assert mat.doping == pytest.approx(1.3e22)
        assert mat.n_i == pytest.approx(9e12)
        assert mat.tau_e == pytest.approx(0.3e-12, abs=0)
        assert cfg.source.f_c == pytest.approx(375e12)
        assert cfg.source.power == pytest.approx(0.63e-3)

    def test_mesh_builds(self):
        mesh = parse_config(SHIPPED).build_mesh()
        assert mesh.K > 0

    def test_stationary_then_transient_exit_0(self, tmp_path):
        # the paper's 10 V deck as shipped: the stationary solve converges
        # (from the Laplace predictor) and the transient marches from its
        # checkpoint, one finite probes.csv row per sync point
        out = str(tmp_path)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["stationary", "--config", SHIPPED, "--out", out]) == 0
            assert main(["transient", "--config", SHIPPED, "--out", out]) == 0
        man = json.loads((tmp_path / "manifest.json").read_text())
        _header, data = read_probe_csv(str(tmp_path / "probes.csv"))
        assert data.shape[0] == man["dd_steps"] + 1
        assert np.all(np.isfinite(data))


def _readme_decks():
    with open(os.path.join(REPO, "README.md")) as fh:
        return re.findall(r"```ini\n(.*?)```", fh.read(), flags=re.S)


DOCUMENTED_DECKS = ([f"README.md#{i}" for i in range(len(_readme_decks()))]
                    + sorted(os.path.relpath(p, REPO) for p in
                             glob.glob(os.path.join(REPO, "configs", "*.cfg"))))


@pytest.mark.parametrize("deck", DOCUMENTED_DECKS)
def test_documented_decks_parse_strict(deck, tmp_path):
    if deck.startswith("README.md#"):
        path = tmp_path / "readme.cfg"
        path.write_text(_readme_decks()[int(deck.split("#")[1])])
    else:
        path = os.path.join(REPO, deck)
    cfg = parse_config(str(path))
    assert cfg.build_mesh().K > 0


def test_readme_has_a_deck():
    assert _readme_decks()


def _add(after, line):
    return lambda deck: deck.replace(after, after + line)


def _override(key):
    return lambda deck: deck.replace("material = lt_gaas", "material = ltg") \
        + f"\n[material.ltg]\nbase = lt_gaas\n{key}\n"


# (deck edit, how its error begins: the section or section.key it names,
# or the mesh fault)
MALFORMED_DECKS = [
    (lambda deck: deck.replace("[source]", "[Source]"), "[Source]"),
    (lambda deck: deck.replace("[source]", "[sources]"), "[sources]"),
    (lambda deck: deck + "\n[region]\nmaterial = vacuum\n", "[region]"),
    (lambda deck: deck + "\n[material.spare]\nbase = gold\n",
     "[material.spare]"),
    (lambda deck: deck.replace("dim = 1", "dim = one"), "mesh.dim"),
    (lambda deck: deck.replace("p_em = 2", "p_em = two"), "run.p_em"),
    (lambda deck: deck.replace("\nm = 2", "\nm = 1.5"), "run.m"),
    (_add("t_end = 0.5 fs\n", "safety = fast\n"), "run.safety"),
    (_add("t_end = 0.5 fs\n", "safety = 1.5\n"),
     "run.safety must be in (0, 1]"),
    (_add("points = 0.75 um\n", "cadence = x\n"), "probes.cadence"),
    (lambda deck: deck + "\n[convergence]\nlevels = x\n",
     "convergence.levels"),
    (_override("n_i = 0"), "material.ltg: n_i"),
    (_override("mu_r = -1"), "material.ltg: eps_r/mu_r"),
    (_add("beam_width = 1 um\n", "polarization = z\n"),
     "source.polarization"),
    (_add("beam_width = 1 um\n", "polarization = y\n"),
     "source.polarization must be x on a 1D mesh, got 'y'"),
    (lambda deck: deck.replace("source_aperture = 0 um -> 0 um\n", ""),
     "[source]: no boundary key names SOURCE_APERTURE"),
    (lambda deck: deck.replace("0.5 um -> 1 um", "0.4 um -> 1 um"),
     "overlapping region boxes"),
    (lambda deck: deck.replace("points = 0.75 um", "points = 10 um"),
     "probes.points"),
]


class TestConfigValidation:
    def test_unknown_key_strict(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(DEVICE_CFG + "\nwibble = 3\n")
        with pytest.raises(ConfigurationError, match="probes.wibble"):
            parse_config(str(path))
        # every section rejects a key it does not read
        for sec in ("mesh", "region.semi", "contact.anode"):
            path.write_text(DEVICE_CFG.replace(f"[{sec}]\n",
                                               f"[{sec}]\nwibble = 3\n"))
            with pytest.raises(ConfigurationError, match=f"{sec}.wibble"):
                parse_config(str(path))
        path.write_text(DEVICE_CFG + "\n[convergence]\nwibble = 3\n")
        with pytest.raises(ConfigurationError, match="convergence.wibble"):
            parse_config(str(path))

    def test_negative_lifetime_message(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(DEVICE_CFG.replace(
            "material = lt_gaas",
            "material = ltg") + "\n[material.ltg]\nbase = lt_gaas\n"
            "tau_e = -0.3 ps\n")
        with pytest.raises(ConfigurationError, match=r"tau_e must be > 0"):
            parse_config(str(path))

    def test_override_error_names_the_section_only(self, tmp_path):
        # the error names the deck's section, not the base material; the
        # material keeps the base's name, which the checkpoint key hashes,
        # so the low-bias deck's stationary key is the one its checkpoints
        # were written under
        path = tmp_path / "bad.cfg"
        path.write_text(_override("n_i = 0")(DEVICE_CFG))
        with pytest.raises(ConfigurationError) as exc:
            parse_config(str(path))
        assert str(exc.value) == "material.ltg: n_i must be > 0"
        cfg = parse_config(os.path.join(REPO, "perfbench", "decks",
                                        "pcd1d_lowbias.cfg"))
        table = cfg.material_table()
        assert table.region("pcd").name == "ltgaas"
        prob = StationaryProblem(cfg.build_mesh(), table, cfg.contacts,
                                 p=cfg.p_dd)
        assert prob.state_key() == "01920db0963d3621"

    def test_missing_mesh_section(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\np_em = 2\n")
        with pytest.raises(ConfigurationError, match=r"\[mesh\]"):
            parse_config(str(path))

    def test_order_range(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(DEVICE_CFG.replace("p_em = 2", "p_em = 7"))
        with pytest.raises(ConfigurationError, match=r"p_em must be in \[1, 6\]"):
            parse_config(str(path))

    def test_unequal_orders_rejected(self, tmp_path):
        # the transient seeds the DD solver with the stationary state on the
        # EM nodes: one order for both
        path = tmp_path / "bad.cfg"
        path.write_text(DEVICE_CFG.replace("p_dd = 2", "p_dd = 1"))
        with pytest.raises(ConfigurationError,
                           match=r"run.p_dd = 1 and run.p_em = 2"):
            parse_config(str(path))

    def test_run_threads_is_unknown(self, tmp_path):
        # BLAS threads are set in the environment before the process
        # starts; the deck has no such key
        path = tmp_path / "bad.cfg"
        path.write_text(DEVICE_CFG.replace("t_end = 0.5 fs\n",
                                          "t_end = 0.5 fs\nthreads = 2\n"))
        with pytest.raises(ConfigurationError, match="run.threads: unknown key"):
            parse_config(str(path))

    def test_unknown_boundary_tag(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(DEVICE_CFG.replace("source_aperture =", "slippery ="))
        with pytest.raises(ConfigurationError, match="unknown tag"):
            parse_config(str(path))

    @pytest.mark.parametrize("edit,where", MALFORMED_DECKS,
                             ids=[where for _edit, where in MALFORMED_DECKS])
    def test_malformed_deck_exit_1(self, edit, where, tmp_path, capsys):
        # every malformed deck ends in one line naming where it went wrong
        path = tmp_path / "bad.cfg"
        path.write_text(edit(DEVICE_CFG))
        assert main(["info", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {where}")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_sections_table_documented(self):
        # the README table lists every section kind and key of _SECTIONS,
        # with the defaults of the optional keys
        with open(os.path.join(REPO, "README.md")) as fh:
            rows = re.findall(r"^\| `\[(\S+)\]` \| (.*?) \| (.*?) \|",
                              fh.read(), flags=re.M)
        documented = {}
        for kind, keys, default in rows:
            sec = documented.setdefault(kind.replace("<name>", "*"), ({}, {}))
            for key in re.findall(r"`([a-z_0-9]+)`", keys):
                if default == "required":
                    sec[0][key] = None
                else:
                    sec[1][key] = re.fullmatch(r"`(.*)`|", default).group(1)
        assert documented == {kind: (dict.fromkeys(req), opt)
                              for kind, (req, opt) in _SECTIONS.items()}


class TestOutputs:
    def test_probe_csv_roundtrip(self, tmp_path):
        path = tmp_path / "probes.csv"
        t = np.array([0.0, 1e-15, 2e-15])
        cols = {"I_a": np.array([0.1, -0.25, 1.0 / 3.0]),
                "W": np.array([1e-30, 2e-30, 3e-30])}
        out_mod.write_probe_csv(str(path), t, cols)
        header, data = read_probe_csv(str(path))
        assert header == ["t", "I_a", "W"]
        assert np.array_equal(data[:, 0], t)     # full double precision
        assert np.array_equal(data[:, 1], cols["I_a"])

    def test_write_csv_format(self, tmp_path):
        # strings as they are, numbers (numpy scalars and ints too) as .17g;
        # one header line and a trailing newline
        path = tmp_path / "t.csv"
        out_mod.write_csv(str(path), ["name", "x", "n"],
                          [("a", np.float64(0.1), 3),
                           ("", 1.0 / 3.0, np.int64(-7))])
        assert path.read_text() == ("name,x,n\n"
                                    "a,0.10000000000000001,3\n"
                                    ",0.33333333333333331,-7\n")

    def test_vtk_roundtrip(self, tmp_path):
        mesh = unit_interval_mesh(4, region="semi")
        disc = build_discretization(mesh, build_reference_element(1, 2))
        rng = np.random.default_rng(7)
        n_e = rng.uniform(size=(disc.K, disc.Np))
        ex = rng.normal(size=(disc.K, disc.Np))
        path = tmp_path / "f.vtk"
        out_mod.write_vtk(str(path), disc, {"n_e": n_e, "E": (ex,)})
        pts, data = read_vtk(str(path))
        assert pts.shape == (disc.K * disc.Np, 3)
        assert np.array_equal(data["n_e"], n_e.reshape(-1))
        assert np.array_equal(data["E"][:, 0], ex.reshape(-1))
        assert np.all(data["E"][:, 2] == 0.0)

    def test_spectrum_peak_at_1thz(self, tmp_path):
        f0 = 1e12
        t = np.arange(4096) * 2.5e-14       # 40 THz sampling
        y = np.sin(2 * np.pi * f0 * t)
        path = tmp_path / "s.csv"
        out_mod.write_spectrum_csv(str(path), t, y)
        assert path.read_text().startswith("f,abs,real,imag\n")
        freq, mag = np.loadtxt(path, delimiter=",", skiprows=1,
                               usecols=(0, 1), unpack=True)
        assert freq[np.argmax(mag)] == pytest.approx(f0, rel=0.01)

    def test_spectrum_rejects_nonuniform(self, tmp_path):
        with pytest.raises(ConfigurationError, match="uniform"):
            out_mod.write_spectrum_csv(str(tmp_path / "s.csv"),
                                       [0.0, 1.0, 2.5], [0, 1, 0])

    def test_code_version_from_source_checkout(self, monkeypatch):
        assert cli.CODE_VERSION == pcddg.__version__

        def not_installed(name):
            raise cli.PackageNotFoundError(name)
        monkeypatch.setattr(cli, "_pkg_version", not_installed)
        assert cli.code_version() == pcddg.__version__

    def test_manifest_is_valid_json(self, tmp_path):
        path = tmp_path / "m.json"
        out_mod.write_manifest(str(path), out_mod.RunManifest(
            command="stationary", config_hash="ab", mesh_hash="cd",
            code_version="x", cfl={"dt_em": 1e-17}))
        data = json.loads(path.read_text())
        assert data["command"] == "stationary"
        assert data["cfl"]["dt_em"] == 1e-17
        assert not list(tmp_path.glob("*.tmp"))

    def test_svg_emitter(self, tmp_path):
        path = tmp_path / "p.svg"
        out_mod.write_svg_lineplot(str(path), [0, 1, 2],
                                   {"I": [0.0, 1.0, 0.5]}, title="t")
        text = path.read_text()
        assert text.startswith("<svg") and "polyline" in text


class TestCli:
    def test_console_script_registered(self):
        # the child imports pcddg from where this process found it
        src = os.path.dirname(os.path.dirname(os.path.abspath(pcddg.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "pcddg.cli", "--help"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "stationary" in proc.stdout and "transient" in proc.stdout

    def test_multirate_ratio_above_dd_bound_exit_1(self, tmp_path, capsys):
        # a 6 um LT-GaAs resistor at 0.1 V, where the drift bound (about
        # 0.3 ps) is the DD step's stability limit: run.m = 40000 puts the
        # DD step above it, and the run is rejected before the march,
        # naming the bound and element
        path = tmp_path / "m40000.cfg"
        path.write_text(DRIFT_BOUND_CFG)
        out = tmp_path / "out"
        assert main(["transient", "--config", str(path),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"configuration error: run\.m = 40000 gives a "
                            r"DD step of \S+ s, above the stable bound \S+ s "
                            r"\(drift_e, element \d+\)\n", err)
        assert not (out / "probes.csv").exists()
        # info checks the deck's m by the same rule, at its field estimate
        # V / extent, which gives the same drift record here
        assert main(["info", "--config", str(path)]) == 1
        assert capsys.readouterr().err == err

    def test_probe_cadence_above_n_macro_exit_1(self, tmp_path, capsys):
        # the low-bias deck marches 14 DD steps: probes.cadence = 100 would
        # record t = 0 alone, so the run is rejected before the march, and
        # info checks the deck's cadence by the same rule
        with open(LOWBIAS) as fh:
            deck = fh.read()
        assert "\ncadence = 1\n" in deck
        path = tmp_path / "cadence100.cfg"
        path.write_text(deck.replace("\ncadence = 1\n", "\ncadence = 100\n"))
        out = tmp_path / "out"
        assert main(["transient", "--config", str(path),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("configuration error: probes.cadence = 100 is above "
                       "n_macro = 14: no probe would be recorded after "
                       "t = 0\n")
        assert not (out / "probes.csv").exists()
        assert main(["info", "--config", str(path)]) == 1
        assert capsys.readouterr().err == err

    def test_config_error_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[mesh]\ndim = 3\ndomain = 0 -> 1\n")
        assert main(["stationary", "--config", str(path)]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_exit_1(self, capsys):
        assert main(["info", "--config", "/does/not/exist.cfg"]) == 1

    def test_solver_failure_exit_2(self, tmp_path, capsys):
        # no electrodes anywhere: the Poisson problem has no gauge
        bad = DEVICE_CFG.split("[contact.anode]")[0]
        path = tmp_path / "dev.cfg"
        path.write_text(bad)
        out = tmp_path / "out"
        assert main(["stationary", "--config", str(path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "solver failure" in err
        # a failed run leaves its diagnosis
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "failed"
        assert man["command"] == "stationary"
        assert man["extra"]["error"] in err
        assert man["extra"]["gummel_history"] == []

    def test_untagged_aperture_fails_before_stationary(self, tmp_path,
                                                       capsys):
        # an aperture box on an interior point tags no face: the transient
        # builds its EM solver first and fails before any Gummel sweep,
        # leaving no checkpoint
        path = tmp_path / "dev.cfg"
        path.write_text(DEVICE_CFG.replace("source_aperture = 0 um -> 0 um",
                                           "source_aperture = 0.25 um -> "
                                           "0.25 um"))
        out = tmp_path / "out"
        assert main(["transient", "--config", str(path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "no face is tagged SOURCE_APERTURE" in err
        assert not (out / "stationary.chk").exists()
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "failed"
        assert man["extra"]["gummel_history"] == []

    def test_untagged_aperture_fails_info_as_transient(self, tmp_path,
                                                      capsys):
        # info builds the transient's EM solver: the same deck fails both
        # commands with exit 2 and the same solver-failure line
        path = tmp_path / "dev.cfg"
        path.write_text(DEVICE_CFG.replace("source_aperture = 0 um -> 0 um",
                                           "source_aperture = 0.25 um -> "
                                           "0.25 um"))
        errs = []
        for cmd in ("info", "transient"):
            out = tmp_path / cmd
            assert main([cmd, "--config", str(path), "--out", str(out)]) == 2
            errs.append(capsys.readouterr().err)
            assert not (out / "stationary.chk").exists()
        assert errs[0] == errs[1]
        assert errs[0].startswith("solver failure: ")
        assert errs[0].count("\n") == 1

    def test_2d_pml_over_gold_fails_before_stationary(self, tmp_path,
                                                      capsys):
        # a 2D PML grows over a Drude metal: device2d.cfg with a 0.2 um
        # layer at xlo reaches its anode's gold, and info and the
        # transient each exit 2 with the same line, naming the region,
        # before any solve
        path = tmp_path / "dev.cfg"
        with open(DEVICE2D) as fh:
            path.write_text(fh.read() + "\n[pml]\nxlo = 0.2 um\n")
        errs = []
        for cmd in ("info", "transient"):
            out = tmp_path / cmd
            assert main([cmd, "--config", str(path), "--out", str(out)]) == 2
            errs.append(capsys.readouterr().err)
            assert not (out / "stationary.chk").exists()
            assert not (out / "probes.csv").exists()
        assert errs[0] == errs[1]
        assert re.fullmatch(r"solver failure: a 2D PML must stay off Drude "
                            r"metals: it reaches region 'left' at element "
                            r"\d+\n", errs[0])

    def test_gummel_failure_manifest_has_history(self, device_cfg, tmp_path,
                                                 capsys, monkeypatch):
        def fail(self, **_kwargs):
            raise ConvergenceError("Gummel iteration did not converge",
                                   [3.5, 1.25, 0.5])
        monkeypatch.setattr(StationaryProblem, "gummel_solve", fail)
        out = tmp_path / "out"
        assert main(["transient", "--config", device_cfg,
                     "--out", str(out)]) == 2
        assert "did not converge" in capsys.readouterr().err
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "failed"
        assert man["command"] == "transient"
        assert man["extra"]["gummel_history"] == [3.5, 1.25, 0.5]

    def test_stationary_outputs(self, device_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["stationary", "--config", device_cfg,
                     "--out", str(out)]) == 0
        for fname in ("stationary.chk", "stationary.vtk",
                      "stationary_currents.csv", "manifest.json"):
            assert (out / fname).exists()
        man = json.loads((out / "manifest.json").read_text())
        assert man["command"] == "stationary"
        assert man["status"] == "ok"
        assert man["extra"]["gummel_iterations"] > 0

    def test_transient_runs_stationary_first(self, device_cfg, tmp_path,
                                             capsys):
        out = tmp_path / "out"
        assert main(["transient", "--config", device_cfg,
                     "--out", str(out)]) == 0
        assert (out / "stationary.chk").exists()
        header, data = read_probe_csv(str(out / "probes.csv"))
        assert header[0] == "t" and "I_anode" in header
        assert data.shape[0] > 2
        man = json.loads((out / "manifest.json").read_text())
        assert man["em_steps"] == man["dd_steps"] * man["cfl"]["m"]
        # the bounds that limit dt: the fastest wave (vacuum), with its
        # global element id, and a quarter of the pulse's sigma_t, which
        # belongs to no element
        cfl = man["cfl"]
        assert (cfl["em_bound"], cfl["dd_bound"]) == ("maxwell_cfl",
                                                      "timescale_pulse")
        mesh = parse_config(device_cfg).build_mesh()
        assert mesh.region_names[mesh.region_id[cfl["em_element"]]] == "air"
        assert cfl["dd_element"] is None
        _pts, fields = read_vtk(str(out / "fields.vtk"))
        assert {"E", "H", "n_e", "n_h"} <= set(fields)

    def test_transient_reuses_checkpoint(self, device_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["stationary", "--config", device_cfg,
                     "--out", str(out)]) == 0
        mtime = (out / "stationary.chk").stat().st_mtime_ns
        assert main(["transient", "--config", device_cfg,
                     "--out", str(out)]) == 0
        assert (out / "stationary.chk").stat().st_mtime_ns == mtime

    def test_transient_recomputes_stale_checkpoint(self, device_cfg, tmp_path,
                                                   capsys):
        out = tmp_path / "out"
        assert main(["stationary", "--config", device_cfg,
                     "--out", str(out)]) == 0
        old = (out / "stationary.chk").read_text()
        cfg = tmp_path / "biased.cfg"
        cfg.write_text(DEVICE_CFG.replace("voltage = 0.05 V", "voltage = 0.1 V"))
        capsys.readouterr()
        assert main(["transient", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert "incompatible; recomputing" in capsys.readouterr().out
        assert (out / "stationary.chk").read_text() != old

    def test_transient_recomputes_v2_checkpoint(self, device_cfg, tmp_path,
                                                capsys):
        out = tmp_path / "out"
        assert main(["stationary", "--config", device_cfg,
                     "--out", str(out)]) == 0
        chk = out / "stationary.chk"
        v3 = chk.read_text()
        chk.write_text(v3.replace("checkpoint v3", "checkpoint v2"))
        capsys.readouterr()
        assert main(["transient", "--config", device_cfg,
                     "--out", str(out)]) == 0
        assert "incompatible; recomputing" in capsys.readouterr().out
        assert chk.read_text() == v3

    def test_transient_same_after_solve_or_checkpoint(self, tmp_path, capsys):
        # a transient seeded by an in-process Gummel solve and one seeded by
        # the checkpoint that solve wrote get the same physics: the
        # stationary solves leave nothing (such as a Dirichlet penalty) on
        # the shared carrier solver.  Short gap so that light and carriers
        # reach the contact within 3 fs.
        cfg = tmp_path / "short.cfg"
        text = DEVICE_CFG
        for old, new in (("0 um -> 1 um", "0 um -> 0.6 um"),
                         ("0 um -> 0.5 um", "0 um -> 0.3 um"),
                         ("0.5 um -> 1 um", "0.3 um -> 0.6 um"),
                         ("1 um -> 1 um", "0.6 um -> 0.6 um"),
                         ("t_end = 0.5 fs", "t_end = 3 fs"),
                         ("points = 0.75 um", "points = 0.45 um")):
            assert old in text
            text = text.replace(old, new)
        cfg.write_text(text)
        solved, loaded = tmp_path / "solved", tmp_path / "loaded"
        assert main(["transient", "--config", str(cfg),
                     "--out", str(solved)]) == 0
        assert main(["stationary", "--config", str(cfg),
                     "--out", str(loaded)]) == 0
        capsys.readouterr()
        assert main(["transient", "--config", str(cfg),
                     "--out", str(loaded)]) == 0
        assert "loaded stationary checkpoint" in capsys.readouterr().out
        header, data = read_probe_csv(str(solved / "probes.csv"))
        assert np.all(data[-1, header.index("I_anode")] != 0.0)
        assert (solved / "probes.csv").read_bytes() \
            == (loaded / "probes.csv").read_bytes()

    def test_end_to_end_determinism(self, device_cfg, tmp_path, capsys):
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["transient", "--config", device_cfg,
                         "--out", str(out)]) == 0
            blobs.append((out / "probes.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_out_dir_env_var(self, device_cfg, tmp_path, capsys, monkeypatch):
        out = tmp_path / "envout"
        monkeypatch.setenv("PCDDG_OUT", str(out))
        assert main(["stationary", "--config", device_cfg]) == 0
        assert (out / "manifest.json").exists()

    def test_info_reports_scales(self, capsys):
        # the shipped deck at its field estimate 10 V / 6 um: the LT-GaAs
        # Debye length and lambda/(2p+1), the vacuum CFL step, a quarter of
        # the pulse's sigma_t, and the schedule from_bounds makes of them
        assert main(["info", "--config", SHIPPED]) == 0
        text = capsys.readouterr().out
        cfg = parse_config(SHIPPED)
        assert re.search(r"^mesh: dim=1 K=240 ", text, re.M)
        l_d = np.sqrt(2 * 13.26 * EPS0 * thermal_voltage(300.0)
                      / (Q * (1.3e22 + 9e12)))
        lam_p = 800e-9 / np.sqrt(13.26) / 5
        assert re.search(rf"^pcd +25\.0 +25\.0 +{l_d * 1e9:.1f} +\S+ +- "
                         rf"+{lam_p * 1e9:.1f}$", text, re.M)
        assert "|E| = 1.667e+06 V/m" in text
        cfl, n_macro = read_info(text)
        assert cfl["dt_em_max"] == pytest.approx(
            0.8 * 25e-9 / (C0 * 5 * (0.42 + 0.081 * 2)), rel=1e-12, abs=0)
        # the vacuum layer is the first 40 elements
        assert cfl["em_bound"] == "maxwell_cfl" and cfl["em_element"] < 40
        assert cfl["dt_dd_max"] == pytest.approx(cfg.source.sigma_t / 4,
                                                 rel=1e-12, abs=0)
        assert (cfl["dd_bound"], cfl["dd_element"]) == ("timescale_pulse",
                                                        None)
        assert n_macro == np.ceil(cfg.t_end / cfl["dt_dd_max"]) == 14
        assert cfl["m"] == np.ceil(np.ceil(cfg.t_end / cfl["dt_em_max"])
                                   / n_macro)
        assert cfl["dt_em"] == cfg.t_end / (n_macro * cfl["m"])
        assert cfl["dt_dd"] == cfl["m"] * cfl["dt_em"]
        assert cfl["safety"] == 0.8

    def test_pml_interface_tag_nameable(self, tmp_path, capsys):
        # every boundary tag is upper case, so a deck can name each one
        with open(SHIPPED) as fh:
            deck = fh.read()
        path = tmp_path / "pml.cfg"
        path.write_text(deck.replace("default = PEC", "default = PML_INTERFACE"))
        assert main(["info", "--config", str(path)]) == 0
        assert "dt_em" in capsys.readouterr().out

    def test_convergence_subcommand(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("[mesh]\ndim = 1\ndomain = 0 -> 1\n"
                        "[region.semi]\nmaterial = lt_gaas\nbox = 0 -> 1\n"
                        "h = 0.25\n[convergence]\nsystem = dd_diffusion\n"
                        "orders = 1\nlevels = 2\n")
        out = tmp_path / "out"
        assert main(["convergence", "--config", str(path),
                     "--out", str(out)]) == 0
        lines = (out / "convergence.csv").read_text().strip().splitlines()
        assert lines[0] == "p,n,h,error,order"
        assert len(lines) == 3
        # no run.t_end, so no schedule: info prints the two bounds alone
        capsys.readouterr()
        assert main(["info", "--config", str(path)]) == 0
        cfl, n_macro = read_info(capsys.readouterr().out)
        assert n_macro is None
        assert list(cfl) == ["dt_em_max", "em_bound", "em_element",
                             "dt_dd_max", "dd_bound", "dd_element", "safety"]
        assert cfl["dd_bound"] == "timescale_tau_e"


@pytest.fixture(scope="module")
def lowbias_runs(tmp_path_factory):
    """The low-bias deck: one stationary solve, then transients from its
    checkpoint, by name: 'auto' (the deck), 'auto_20fs' and 'm1_20fs'
    (t_end = 0.02 ps at m = auto and m = 1); and the stdout of the
    deck's `stationary` and `info`."""
    with open(LOWBIAS) as fh:
        deck = fh.read()
    root = tmp_path_factory.mktemp("lowbias")
    base = root / "stationary"
    with contextlib.redirect_stdout(io.StringIO()) as stationary:
        assert main(["stationary", "--config", LOWBIAS,
                     "--out", str(base)]) == 0
    with contextlib.redirect_stdout(io.StringIO()) as info:
        assert main(["info", "--config", LOWBIAS]) == 0
    runs = {"stationary": stationary.getvalue(), "info": info.getvalue()}
    for name, subs in (("auto", ()),
                       ("auto_20fs", (("t_end = 0.05 ps", "t_end = 0.02 ps"),)),
                       ("m1_20fs", (("t_end = 0.05 ps", "t_end = 0.02 ps"),
                                    ("\nm = auto\n", "\nm = 1\n")))):
        text = deck
        for old, new in subs:
            assert old in text
            text = text.replace(old, new)
        out = root / name
        out.mkdir()
        (out / "deck.cfg").write_text(text)
        shutil.copy(base / "stationary.chk", out / "stationary.chk")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["transient", "--config", str(out / "deck.cfg"),
                         "--out", str(out)]) == 0
        runs[name] = (json.loads((out / "manifest.json").read_text()),
                      read_probe_csv(str(out / "probes.csv")))
    return runs


class TestLowBiasMultirate:
    """The low-bias deck at m = auto: one DD step per quarter of the pulse's
    sigma_t, and carriers that follow the m = 1 march."""

    def test_schedule(self, lowbias_runs):
        # dt_dd <= t_c / 4 with t_c = sigma_t of the pulse (the shortest
        # scale), m dt_em = dt_dd, and the rounding adds fewer than n_macro
        # EM steps
        man, (_header, data) = lowbias_runs["auto"]
        cfl, n_macro = man["cfl"], man["dd_steps"]
        t_end = parse_config(LOWBIAS).t_end
        sigma_t = parse_config(LOWBIAS).source.sigma_t
        assert cfl["dt_dd"] <= sigma_t / 4
        assert cfl["m"] * cfl["dt_em"] == pytest.approx(cfl["dt_dd"],
                                                        rel=1e-14, abs=0)
        assert man["em_steps"] == n_macro * cfl["m"]
        assert 0 <= man["em_steps"] - np.ceil(t_end / cfl["dt_em_max"]) \
            < n_macro
        assert cfl["m"] > 10
        assert data.shape[0] == n_macro + 1

    def test_info_and_transient_share_the_dd_bound(self, lowbias_runs):
        # both commands take the schedule from one rule, and on this deck a
        # quarter of the pulse's sigma_t limits dt_dd at either field, so
        # info prints the whole cfl record the transient's manifest holds
        man = lowbias_runs["auto"][0]
        cfl, n_macro = read_info(lowbias_runs["info"])
        assert cfl == man["cfl"]
        assert n_macro == man["dd_steps"]
        assert cfl["dd_bound"] == "timescale_pulse"

    def test_stationary_prints_current_density(self, lowbias_runs):
        # a 1D contact current is a density: A/m^2, not A
        assert printed_currents(lowbias_runs["stationary"]) == \
            [("anode", "A/m^2")]

    def test_auto_keeps_carriers_of_m1(self, lowbias_runs):
        # N_e(t) of the m = auto run within 2e-3 (relative L2) of the m = 1
        # march, interpolated onto the auto run's sync times
        (man, (h, d)), (man1, (h1, d1)) = (lowbias_runs["auto_20fs"],
                                           lowbias_runs["m1_20fs"])
        assert man["cfl"]["m"] > 10 and man1["cfl"]["m"] == 1
        n_e = d[:, h.index("N_e")]
        ref = np.interp(d[:, 0], d1[:, 0], d1[:, h1.index("N_e")])
        assert np.max(ref) > 0
        assert np.linalg.norm(n_e - ref) / np.linalg.norm(ref) <= 2e-3


def printed_currents(text):
    """(contact, unit) of each `I[<contact>] = <value> <unit>` line that
    `pcd-dg stationary` prints."""
    return re.findall(r"^  I\[(\w+)\] = \S+ (\S+)$", text, re.M)


@pytest.fixture(scope="module")
def device2d_runs(tmp_path_factory):
    """The 2D deck through info, stationary, then transient from the
    checkpoint: (exit code, stdout) of each command, by name, and the
    output directory."""
    out = tmp_path_factory.mktemp("device2d")
    runs = {}
    for command in ("info", "stationary", "transient"):
        with contextlib.redirect_stdout(io.StringIO()) as text:
            rc = main([command, "--config", DEVICE2D, "--out", str(out)])
        runs[command] = (rc, text.getvalue())
    return runs, out


class TestDevice2D:
    """A 2D gap under two gold contacts end to end: 480 elements, 400 of
    them LT-GaAs, at p = 2.  Its stationary contact currents do not
    balance yet (ROADMAP item 5): test_stationary_currents_balance is a
    strict xfail until they do."""

    def test_commands_exit_0(self, device2d_runs):
        runs, _out = device2d_runs
        assert {name: rc for name, (rc, _text) in runs.items()} \
            == {"info": 0, "stationary": 0, "transient": 0}

    def test_transient_reuses_checkpoint(self, device2d_runs):
        runs, out = device2d_runs
        chk = out / "stationary.chk"
        assert f"loaded stationary checkpoint {chk}" in runs["transient"][1]
        assert "gummel" not in runs["transient"][1]

    def test_probes_one_row_per_sync_point(self, device2d_runs):
        _runs, out = device2d_runs
        man = json.loads((out / "manifest.json").read_text())
        header, data = read_probe_csv(str(out / "probes.csv"))
        assert {"I_anode", "I_cathode", "N_e", "W_em"} <= set(header)
        assert data.shape[0] == man["dd_steps"] + 1
        assert np.all(np.isfinite(data))

    def test_info_and_transient_share_the_cfl(self, device2d_runs):
        # the same schedule from the field estimate V / extent and from
        # max|E^s|: a quarter of the pulse's sigma_t limits dt_dd at both
        runs, out = device2d_runs
        man = json.loads((out / "manifest.json").read_text())
        cfl, n_macro = read_info(runs["info"][1])
        assert cfl == man["cfl"]
        assert n_macro == man["dd_steps"]
        assert cfl["dd_bound"] == "timescale_pulse"

    def test_stationary_prints_current_per_depth(self, device2d_runs):
        # a 2D contact current is per unit depth: A/m, not A
        runs, _out = device2d_runs
        assert printed_currents(runs["stationary"][1]) == \
            [("anode", "A/m"), ("cathode", "A/m")]

    @pytest.mark.xfail(strict=True, reason=(
        "contact_currents integrates n.j of the interior trace, which is "
        "not the flux LDG conserves: -14.920 and +2.558 A/m at 0.01 V"))
    def test_stationary_currents_balance(self, device2d_runs):
        # the currents into the two contacts sum to zero
        _runs, out = device2d_runs
        with open(out / "stationary_currents.csv") as fh:
            currents = {row["contact"]: float(row["I"])
                        for row in csv.DictReader(fh)}
        assert set(currents) == {"anode", "cathode"}
        total = currents["anode"] + currents["cathode"]
        assert abs(total) <= 1e-9 * max(map(abs, currents.values()))


@pytest.fixture(scope="module")
def pml_drude_runs(tmp_path_factory):
    """The 1D deck with PML and Drude rows: stationary, then the transient
    from its checkpoint twice, by name: 'held' (the march as it runs, with
    the solver state rows of each held_rhs call) and 'matrix_free' (every
    substep through MaxwellSolver.rhs)."""
    root = tmp_path_factory.mktemp("pml_drude1d")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["stationary", "--config", PML_DRUDE1D,
                     "--out", str(root / "stationary")]) == 0
    real_held = MaxwellSolver.held_rhs
    comps = []

    def held(solver, current):
        comps.append(solver.comp)
        return real_held(solver, current)

    def matrix_free(solver, current):
        return partial(solver.rhs, current=current)

    runs = {}
    for name, held_rhs in (("held", held), ("matrix_free", matrix_free)):
        out = root / name
        out.mkdir()
        shutil.copy(root / "stationary" / "stationary.chk", out)
        with pytest.MonkeyPatch.context() as patch, \
                contextlib.redirect_stdout(io.StringIO()):
            patch.setattr(MaxwellSolver, "held_rhs", held_rhs)
            assert main(["transient", "--config", PML_DRUDE1D,
                         "--out", str(out)]) == 0
        runs[name] = (json.loads((out / "manifest.json").read_text()),
                      read_probe_csv(str(out / "probes.csv")))
    runs["comps"] = comps
    return runs


class TestPmlDrude1D:
    """The assembled 1D Maxwell path on a state with PML and Drude rows."""

    def test_march_takes_the_assembled_path(self, pml_drude_runs):
        man = pml_drude_runs["held"][0]
        assert pml_drude_runs["comps"] == \
            [("ex", "hz", "dx", "bz", "jpx")] * man["dd_steps"]

    def test_probes_match_the_matrix_free_march(self, pml_drude_runs):
        # every probes.csv column within 1e-12 of its largest value
        (h, d), (h0, d0) = (pml_drude_runs[name][1]
                            for name in ("held", "matrix_free"))
        assert h == h0 and d.shape == d0.shape
        assert d.shape[0] == pml_drude_runs["held"][0]["dd_steps"] + 1
        assert np.all(np.isfinite(d))
        for j, name in enumerate(h):
            scale = np.max(np.abs(d0[:, j]))
            assert scale > 0
            assert np.max(np.abs(d[:, j] - d0[:, j])) <= 1e-12 * scale, name


def test_benchmark_patch_targets_resolve(monkeypatch):
    # the traced benchmark wraps each target through vars(owner)[attr], so
    # every patched name must be defined on its owner itself
    monkeypatch.syspath_prepend(os.path.join(REPO, "perfbench"))
    import layers
    targets = layers.patch_targets()
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _span in targets if attr not in vars(owner)]
    assert missing == []
