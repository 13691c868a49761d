import glob
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import pcddg
from pcddg import cli
from pcddg import output as out_mod
from pcddg.cli import main
from pcddg.config import parse_box, parse_config, parse_quantity
from pcddg.dgops import build_discretization
from pcddg.mesh import unit_interval_mesh
from pcddg.refelem import ConfigurationError, build_reference_element

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = os.path.join(REPO, "configs", "conventional_pcd.cfg")

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


@pytest.fixture
def device_cfg(tmp_path):
    path = tmp_path / "dev.cfg"
    path.write_text(DEVICE_CFG)
    return str(path)


class TestQuantityParsing:
    @pytest.mark.parametrize("text,si", [
        ("10 V", 10.0), ("800 nm", 8e-7), ("2 um", 2e-6), ("0.3 ps", 3e-13),
        ("375 THz", 3.75e14), ("1.3e16 cm^-3", 1.3e22), ("42", 42.0),
        ("-5 mV", -5e-3), ("300 K", 300.0),
    ])
    def test_unit_suffixes(self, text, si):
        assert parse_quantity(text) == pytest.approx(si, rel=1e-12)

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
        cfg = parse_config(SHIPPED, strict=True)
        assert cfg.contacts[0].voltage == pytest.approx(10.0)
        mat = cfg.materials["pcd"]
        assert mat.doping == pytest.approx(1.3e22)
        assert mat.n_i == pytest.approx(9e12)
        assert mat.tau_e == pytest.approx(0.3e-12)
        assert cfg.source.f_c == pytest.approx(375e12)
        assert cfg.source.power == pytest.approx(0.63e-3)

    def test_mesh_builds(self):
        mesh = parse_config(SHIPPED).build_mesh()
        assert mesh.K > 0


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
    cfg = parse_config(str(path), strict=True)
    assert cfg.build_mesh().K > 0


def test_readme_has_a_deck():
    assert _readme_decks()


class TestConfigValidation:
    def test_unknown_key_strict(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(DEVICE_CFG + "\nwibble = 3\n")
        with pytest.raises(ConfigurationError, match="wibble"):
            parse_config(str(path), strict=True)
        parse_config(str(path))   # lax mode tolerates it

    def test_negative_lifetime_message(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(DEVICE_CFG.replace(
            "material = lt_gaas",
            "material = ltg") + "\n[material.ltg]\nbase = lt_gaas\n"
            "tau_e = -0.3 ps\n")
        with pytest.raises(ConfigurationError, match=r"tau_e must be > 0"):
            parse_config(str(path))

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

    def test_unknown_boundary_tag(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(DEVICE_CFG.replace("source_aperture =", "slippery ="))
        with pytest.raises(ConfigurationError, match="unknown tag"):
            parse_config(str(path))


class TestOutputs:
    def test_probe_csv_roundtrip(self, tmp_path):
        path = tmp_path / "probes.csv"
        t = np.array([0.0, 1e-15, 2e-15])
        cols = {"I_a": np.array([0.1, -0.25, 1.0 / 3.0]),
                "W": np.array([1e-30, 2e-30, 3e-30])}
        out_mod.write_probe_csv(str(path), t, cols)
        header, data = out_mod.read_probe_csv(str(path))
        assert header == ["t", "I_a", "W"]
        assert np.array_equal(data[:, 0], t)     # full double precision
        assert np.array_equal(data[:, 1], cols["I_a"])

    def test_vtk_roundtrip(self, tmp_path):
        mesh = unit_interval_mesh(4, region="semi")
        disc = build_discretization(mesh, build_reference_element(1, 2))
        rng = np.random.default_rng(7)
        n_e = rng.uniform(size=(disc.K, disc.Np))
        ex = rng.normal(size=(disc.K, disc.Np))
        path = tmp_path / "f.vtk"
        out_mod.write_vtk(str(path), disc, {"n_e": n_e, "E": (ex,)})
        pts, data = out_mod.read_vtk(str(path))
        assert pts.shape == (disc.K * disc.Np, 3)
        assert np.array_equal(data["n_e"], n_e.reshape(-1))
        assert np.array_equal(data["E"][:, 0], ex.reshape(-1))
        assert np.all(data["E"][:, 2] == 0.0)

    def test_spectrum_peak_at_1thz(self, tmp_path):
        f0 = 1e12
        t = np.arange(4096) * 2.5e-14       # 40 THz sampling
        y = np.sin(2 * np.pi * f0 * t)
        freq, mag = out_mod.write_spectrum_csv(str(tmp_path / "s.csv"), t, y)
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
        assert "solver failure" in capsys.readouterr().err

    def test_stationary_outputs(self, device_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["stationary", "--config", device_cfg,
                     "--out", str(out)]) == 0
        for fname in ("stationary.chk", "stationary.vtk",
                      "stationary_currents.csv", "manifest.json"):
            assert (out / fname).exists()
        man = json.loads((out / "manifest.json").read_text())
        assert man["command"] == "stationary"
        assert man["extra"]["gummel_iterations"] > 0

    def test_transient_runs_stationary_first(self, device_cfg, tmp_path,
                                             capsys):
        out = tmp_path / "out"
        assert main(["transient", "--config", device_cfg,
                     "--out", str(out)]) == 0
        assert (out / "stationary.chk").exists()
        header, data = out_mod.read_probe_csv(str(out / "probes.csv"))
        assert header[0] == "t" and "I_anode" in header
        assert data.shape[0] > 2
        man = json.loads((out / "manifest.json").read_text())
        assert man["em_steps"] == man["dd_steps"] * man["cfl"]["m"]
        _pts, fields = out_mod.read_vtk(str(out / "fields.vtk"))
        assert {"E", "H", "n_e", "n_h"} <= set(fields)

    def test_transient_reuses_checkpoint(self, device_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["stationary", "--config", device_cfg,
                     "--out", str(out)]) == 0
        mtime = (out / "stationary.chk").stat().st_mtime_ns
        assert main(["transient", "--config", device_cfg,
                     "--out", str(out)]) == 0
        assert (out / "stationary.chk").stat().st_mtime_ns == mtime

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
        assert main(["info", "--config", SHIPPED]) == 0
        text = capsys.readouterr().out
        assert "l_D" in text and "dt_em" in text and "dt_dd" in text

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
