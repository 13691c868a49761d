"""Plain-text device configuration: sectioned key = value decks with unit
suffixes, normalized to SI on parse.

Sections: [mesh], one [region.<name>] per material region, [material.<name>]
for parameter overrides, [boundary], one [contact.<name>] per electrode,
[source], [pml], [run], [probes], [convergence].  Box values use
``lo -> hi`` with one coordinate per dimension on each side.
"""

import configparser
import dataclasses
import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

from . import physics as ph
from .em_dg import PmlSpec
from .mesh import BOUNDARY_TAGS, make_spec, generate_structured_mesh
from .physics import MaterialTable, OpticalSourceSpec
from .refelem import ConfigurationError
from .stationary import Contact

_UNIT_FACTORS = {
    "": 1.0, "m": 1.0, "s": 1.0, "V": 1.0, "Hz": 1.0, "K": 1.0, "W": 1.0,
    "nm": 1e-9, "um": 1e-6, "mm": 1e-3,
    "fs": 1e-15, "ps": 1e-12, "ns": 1e-9,
    "THz": 1e12, "GHz": 1e9,
    "mV": 1e-3, "kV": 1e3, "mW": 1e-3,
    "cm^-3": 1e6, "m^-3": 1.0,
}

_BASE_MATERIALS = {
    "lt_gaas": ph.lt_gaas, "si_gaas": ph.si_gaas,
    "vacuum": ph.vacuum, "gold": ph.gold,
}

# material override keys and the unit family they carry
_MATERIAL_KEYS = {
    "doping": "density", "n_i": "density", "n_e1": "density",
    "n_h1": "density", "tau_e": "time", "tau_h": "time",
    "mu_e0": "plain", "mu_h0": "plain", "v_sat_e": "plain",
    "v_sat_h": "plain", "beta_e": "plain", "beta_h": "plain",
    "eps_r": "plain", "mu_r": "plain", "alpha_abs": "plain", "eta": "plain",
}


def parse_quantity(text, where=""):
    """'10 V', '800 nm', '1.3e16 cm^-3' or a bare number -> SI float."""
    s = str(text).strip()
    m = re.fullmatch(r"([+-]?[0-9.eE+-]+)\s*([A-Za-z^\-0-9]*)", s)
    if not m:
        raise ConfigurationError(f"{where}: cannot parse quantity {text!r}")
    try:
        val = float(m.group(1))
    except ValueError:
        raise ConfigurationError(
            f"{where}: cannot parse number in {text!r}") from None
    unit = m.group(2)
    if unit not in _UNIT_FACTORS:
        raise ConfigurationError(f"{where}: unknown unit {unit!r} in {text!r}")
    return val * _UNIT_FACTORS[unit]


def parse_point(text, dim, where=""):
    parts = [p for p in re.split(r"[,\s]+", str(text).strip()) if p]
    # units may follow numbers; re-pair tokens "0 um 1 um" -> ["0 um", "1 um"]
    vals = []
    i = 0
    while i < len(parts):
        if i + 1 < len(parts) and not re.match(r"^[+-]?[0-9.]", parts[i + 1]):
            vals.append(parse_quantity(parts[i] + " " + parts[i + 1], where))
            i += 2
        else:
            vals.append(parse_quantity(parts[i], where))
            i += 1
    if len(vals) != dim:
        raise ConfigurationError(
            f"{where}: expected {dim} coordinate(s), got {len(vals)}")
    return np.array(vals)


def parse_box(text, dim, where=""):
    if "->" not in str(text):
        raise ConfigurationError(f"{where}: box value needs 'lo -> hi'")
    lo_s, hi_s = str(text).split("->", 1)
    lo = parse_point(lo_s, dim, where)
    hi = parse_point(hi_s, dim, where)
    if np.any(hi < lo):
        raise ConfigurationError(f"{where}: box hi must be >= lo")
    return lo, hi


@dataclass
class DeviceConfig:
    dim: int
    lo: np.ndarray
    hi: np.ndarray
    regions: list                      # (name, material_name, lo, hi, h)
    materials: dict                    # region name -> Material
    default_tag: str
    tag_boxes: list                    # (TAG, lo, hi)
    contacts: list                     # Contact
    source: OpticalSourceSpec = None
    pml: PmlSpec = None
    p_em: int = 2
    p_dd: int = 2
    t_end: float = 0.0
    safety: float = 0.8
    m_override: int = None
    temperature: float = 300.0
    wavelength: float = 800e-9
    probe_points: np.ndarray = None
    cadence: int = 1
    convergence: dict = field(default_factory=dict)
    config_hash: str = ""

    def material_table(self):
        return MaterialTable(dict(self.materials), temperature=self.temperature)

    def mesh_spec(self):
        regions = [(name, lo, hi, h) for name, _mat, lo, hi, h in self.regions]
        return make_spec(self.dim, self.lo, self.hi, regions,
                         tag_boxes=self.tag_boxes, default_tag=self.default_tag)

    def build_mesh(self):
        return generate_structured_mesh(self.mesh_spec())


def _resolve_material(name, parser, where):
    sec = f"material.{name}"
    if parser.has_section(sec):
        items = dict(parser.items(sec))
        base_name = items.pop("base", None)
        if base_name is None:
            raise ConfigurationError(f"{sec}.base: missing required key")
        if base_name not in _BASE_MATERIALS:
            raise ConfigurationError(
                f"{sec}.base: unknown base material {base_name!r}")
        mat = _BASE_MATERIALS[base_name]()
        overrides = {}
        for key, raw in items.items():
            if key not in _MATERIAL_KEYS:
                raise ConfigurationError(f"{sec}.{key}: unknown material key")
            val = parse_quantity(raw, f"{sec}.{key}")
            overrides[key] = val
            if key.startswith("tau") and val <= 0:
                raise ConfigurationError(f"{sec}.{key} must be > 0")
        return dataclasses.replace(mat, **overrides)
    if name in _BASE_MATERIALS:
        return _BASE_MATERIALS[name]()
    raise ConfigurationError(
        f"{where}: unknown material {name!r} (no [material.{name}] section)")


_KNOWN_RUN_KEYS = {"p_em", "p_dd", "t_end", "safety", "m", "temperature",
                   "wavelength"}
_KNOWN_SOURCE_KEYS = {"f_c", "f_w", "beam_width", "power", "peak_field",
                      "polarization", "t0"}


def parse_config(path):
    """Parse and validate a device deck; errors carry section.key context,
    and a key that no section reads is an error."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path) as fh:
        text = fh.read()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config syntax error: {exc}") from None

    if not parser.has_section("mesh"):
        raise ConfigurationError("missing required [mesh] section")
    mesh = dict(parser.items("mesh"))
    try:
        dim = int(mesh.pop("dim"))
    except KeyError:
        raise ConfigurationError("mesh.dim: missing required key") from None
    if dim not in (1, 2):
        raise ConfigurationError(f"mesh.dim must be 1 or 2, got {dim}")
    lo, hi = parse_box(mesh.pop("domain", None) or _missing("mesh.domain"),
                       dim, "mesh.domain")
    if mesh:
        raise ConfigurationError(f"mesh.{next(iter(mesh))}: unknown key")

    regions = []
    materials = {}
    for sec in parser.sections():
        if not sec.startswith("region."):
            continue
        name = sec[len("region."):]
        items = dict(parser.items(sec))
        for req in ("material", "box", "h"):
            if req not in items:
                raise ConfigurationError(f"{sec}.{req}: missing required key")
        rlo, rhi = parse_box(items.pop("box"), dim, f"{sec}.box")
        h = parse_quantity(items.pop("h"), f"{sec}.h")
        if h <= 0:
            raise ConfigurationError(f"{sec}.h must be > 0")
        mat_name = items.pop("material").strip()
        if items:
            raise ConfigurationError(f"{sec}.{next(iter(items))}: unknown key")
        materials[name] = _resolve_material(mat_name, parser, f"{sec}.material")
        regions.append((name, mat_name, rlo, rhi, h))
    if not regions:
        raise ConfigurationError("no [region.*] sections defined")

    default_tag = "PEC"
    tag_boxes = []
    if parser.has_section("boundary"):
        for key, raw in parser.items("boundary"):
            if key == "default":
                default_tag = raw.strip().upper()
                if default_tag not in BOUNDARY_TAGS:
                    raise ConfigurationError(
                        f"boundary.default: unknown tag {raw!r}")
                continue
            tag = key.split(".")[0].upper()
            if tag not in BOUNDARY_TAGS:
                raise ConfigurationError(f"boundary.{key}: unknown tag")
            blo, bhi = parse_box(raw, dim, f"boundary.{key}")
            tag_boxes.append((tag, blo, bhi))

    contacts = []
    for sec in parser.sections():
        if not sec.startswith("contact."):
            continue
        name = sec[len("contact."):]
        items = dict(parser.items(sec))
        for req in ("box", "voltage"):
            if req not in items:
                raise ConfigurationError(f"{sec}.{req}: missing required key")
        clo, chi = parse_box(items.pop("box"), dim, f"{sec}.box")
        volt = parse_quantity(items.pop("voltage"), f"{sec}.voltage")
        if items:
            raise ConfigurationError(f"{sec}.{next(iter(items))}: unknown key")
        contacts.append(Contact(name, clo, chi, volt))
        tag_boxes.append(("ELECTRODE_D", clo, chi))

    source = None
    if parser.has_section("source"):
        items = dict(parser.items("source"))
        unknown = set(items) - _KNOWN_SOURCE_KEYS
        if unknown:
            raise ConfigurationError(f"source.{sorted(unknown)[0]}: unknown key")
        kw = {}
        for key in ("f_c", "f_w", "beam_width", "power", "peak_field", "t0"):
            if key in items:
                kw[key] = parse_quantity(items[key], f"source.{key}")
        if "polarization" in items:
            kw["polarization"] = items["polarization"].strip()
        try:
            source = OpticalSourceSpec(**kw)
        except Exception as exc:
            raise ConfigurationError(f"source: {exc}") from None

    pml = None
    if parser.has_section("pml"):
        thickness = {}
        for key, raw in parser.items("pml"):
            if key not in ("xlo", "xhi", "ylo", "yhi"):
                raise ConfigurationError(f"pml.{key}: unknown side")
            thickness[key] = parse_quantity(raw, f"pml.{key}")
        pml = PmlSpec(thickness=thickness)

    run = dict(parser.items("run")) if parser.has_section("run") else {}
    unknown = set(run) - _KNOWN_RUN_KEYS
    if unknown:
        raise ConfigurationError(f"run.{sorted(unknown)[0]}: unknown key")
    p_em = int(run.get("p_em", 2))
    p_dd = int(run.get("p_dd", 2))
    for label, p in (("p_em", p_em), ("p_dd", p_dd)):
        if not 1 <= p <= 6:
            raise ConfigurationError(f"run.{label} must be in [1, 6], got {p}")
    if p_dd != p_em:
        # the transient seeds the DD solver with the stationary state on
        # the nodes of the EM order
        raise ConfigurationError(f"run.p_dd = {p_dd} and run.p_em = {p_em} "
                                 "must be equal")
    m_override = None
    if "m" in run and run["m"].strip() != "auto":
        m_override = int(run["m"])
        if m_override < 1:
            raise ConfigurationError("run.m must be >= 1 or 'auto'")

    probe_points = None
    cadence = 1
    if parser.has_section("probes"):
        items = dict(parser.items("probes"))
        if "points" in items:
            rows = [p.strip() for p in items.pop("points").split(";")
                    if p.strip()]
            probe_points = np.array([parse_point(r, dim, "probes.points")
                                     for r in rows])
        if "cadence" in items:
            cadence = int(items.pop("cadence"))
            if cadence < 1:
                raise ConfigurationError("probes.cadence must be >= 1")
        if items:
            raise ConfigurationError(
                f"probes.{next(iter(items))}: unknown key")

    conv = {}
    if parser.has_section("convergence"):
        items = dict(parser.items("convergence"))
        conv["system"] = items.pop("system", "maxwell").strip()
        conv["orders"] = [int(x) for x in
                          items.pop("orders", "1,2").split(",")]
        conv["levels"] = int(items.pop("levels", "3"))
        if items:
            raise ConfigurationError(
                f"convergence.{next(iter(items))}: unknown key")

    cfg = DeviceConfig(
        dim=dim, lo=lo, hi=hi, regions=regions, materials=materials,
        default_tag=default_tag, tag_boxes=tag_boxes, contacts=contacts,
        source=source, pml=pml, p_em=p_em, p_dd=p_dd,
        t_end=parse_quantity(run["t_end"], "run.t_end") if "t_end" in run else 0.0,
        safety=float(run.get("safety", 0.8)),
        m_override=m_override,
        temperature=parse_quantity(run.get("temperature", "300 K"),
                                   "run.temperature"),
        wavelength=parse_quantity(run.get("wavelength", "800 nm"),
                                  "run.wavelength"),
        probe_points=probe_points, cadence=cadence,
        convergence=conv,
        config_hash=hashlib.sha256(text.encode()).hexdigest()[:16])
    _validate(cfg)
    return cfg


def _missing(key):
    raise ConfigurationError(f"{key}: missing required key")


def _validate(cfg):
    for name, mat in cfg.materials.items():
        if mat.semiconductor:
            for key in ("n_i", "tau_e", "tau_h", "mu_e0", "mu_h0"):
                if getattr(mat, key) <= 0:
                    raise ConfigurationError(
                        f"material {name!r}: {key} must be > 0")
    for tag, _lo, _hi in cfg.tag_boxes:
        if tag not in BOUNDARY_TAGS:
            raise ConfigurationError(f"unknown boundary tag {tag!r}")
    if cfg.source is not None and cfg.wavelength <= 0:
        raise ConfigurationError("run.wavelength must be > 0")
