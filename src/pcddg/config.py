"""Plain-text device configuration: sectioned key = value decks with unit
suffixes, normalized to SI on parse.

One table, ``_SECTIONS``, names every section kind and its required and
optional keys (with the defaults of the optional ones): [mesh], one
[region.<name>] per material region, [material.<name>] for parameter
overrides, [boundary] (``default`` plus free ``<tag>[.<label>]`` keys), one
[contact.<name>] per electrode, [source], [pml], [run], [probes] and
[convergence].  An unknown section or key, a missing required key and a
malformed or out-of-range value are each a ConfigurationError that names
``section.key`` (or ``[section]``).  Box values use ``lo -> hi`` with one
coordinate per dimension on each side.
"""

import configparser
import dataclasses
import hashlib
import re
from dataclasses import dataclass

import numpy as np

from . import physics as ph
from .em_dg import PmlSpec
from .mesh import BOUNDARY_TAGS, make_spec, generate_structured_mesh
from .physics import MaterialTable, OpticalSourceSpec, PhysicsError
from .refelem import MAX_ORDER, ConfigurationError
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

_MATERIAL_KEYS = ("doping", "n_i", "n_e1", "n_h1", "tau_e", "tau_h",
                  "mu_e0", "mu_h0", "v_sat_e", "v_sat_h", "beta_e", "beta_h",
                  "eps_r", "mu_r", "alpha_abs", "eta")

# section kind -> (required keys, optional keys with their defaults); a
# None default means the key is unset unless the deck gives it.  "*" kinds
# are labelled sections such as [region.air]; [boundary] also takes free
# "<tag>[.<label>] = box" keys.
_SECTIONS = {
    "mesh": (("dim", "domain"), {}),
    "region.*": (("material", "box", "h"), {}),
    "material.*": (("base",), dict.fromkeys(_MATERIAL_KEYS)),
    "boundary": ((), {"default": "PEC"}),
    "contact.*": (("box", "voltage"), {}),
    "source": (("f_c", "f_w", "beam_width"),
               {"power": None, "peak_field": None, "polarization": "x",
                "t0": None}),
    "pml": ((), dict.fromkeys(("xlo", "xhi", "ylo", "yhi"))),
    "run": ((), {"p_em": "2", "p_dd": "2", "t_end": "0", "safety": "0.8",
                 "m": "auto", "temperature": "300 K",
                 "wavelength": "800 nm"}),
    "probes": ((), {"points": None, "cadence": "1"}),
    "convergence": ((), {"system": "maxwell", "orders": "1, 2",
                         "levels": "3"}),
}
_FREE_KEYS = {"boundary"}

# value rules: (description, predicate)
_POSITIVE = ("> 0", lambda v: v > 0)
_COUNT = (">= 1", lambda v: v >= 1)
# the step bounds are stability limits: a safety above 1 asks for more
_FRACTION = ("in (0, 1]", lambda v: 0 < v <= 1)
_ORDER = (f"in [1, {MAX_ORDER}]", lambda v: 1 <= v <= MAX_ORDER)
_DIM = ("1 or 2", lambda v: v in (1, 2))


def parse_quantity(text, where=""):
    """'10 V', '800 nm', '1.3e16 cm^-3' or a bare number -> finite SI float."""
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
    val *= _UNIT_FACTORS[unit]
    if not np.isfinite(val):
        raise ConfigurationError(f"{where}: {text!r} is not finite")
    return val


def _number(where, text, integer=False, rule=None):
    """A quantity (or, with integer, a plain integer) that obeys rule; a
    failed parse or a value out of range is an error naming where."""
    if integer:
        try:
            val = int(text)
        except ValueError:
            raise ConfigurationError(
                f"{where}: expected an integer, got {text!r}") from None
    else:
        val = parse_quantity(text, where)
    if rule is not None and not rule[1](val):
        raise ConfigurationError(f"{where} must be {rule[0]}, got {text}")
    return val


def _build(where, make, *args, **kwargs):
    """make(*args, **kwargs), its PhysicsError re-raised naming where."""
    try:
        return make(*args, **kwargs)
    except PhysicsError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None


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
    regions: list                      # (name, lo, hi, h)
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
    convergence: dict = None           # system, orders, levels
    config_hash: str = ""

    def material_table(self):
        return MaterialTable(dict(self.materials), temperature=self.temperature)

    def mesh_spec(self):
        return make_spec(self.dim, self.lo, self.hi, self.regions,
                         tag_boxes=self.tag_boxes, default_tag=self.default_tag)

    def build_mesh(self):
        return generate_structured_mesh(self.mesh_spec())


def _read(text):
    """Deck text -> {section name: {key: raw value}}, every section name
    and key checked against _SECTIONS; optional keys the deck leaves out
    take their defaults, after the keys it gives."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config syntax error: {exc}") from None
    deck = {}
    for name in parser.sections():
        prefix, dot, label = name.partition(".")
        kind = prefix + ".*" if dot and label else name
        if kind not in _SECTIONS:
            raise ConfigurationError(f"[{name}]: unknown section")
        required, optional = _SECTIONS[kind]
        items = dict(parser.items(name))
        for key in items:
            if key not in required and key not in optional \
                    and kind not in _FREE_KEYS:
                raise ConfigurationError(f"{name}.{key}: unknown key")
        for key in required:
            if key not in items:
                raise ConfigurationError(f"{name}.{key}: missing required key")
        for key, default in optional.items():
            items.setdefault(key, default)
        deck[name] = items
    return deck


def _labelled(deck, kind):
    """(label, keys) of every [kind.<label>] section, in deck order."""
    return [(name.split(".", 1)[1], keys) for name, keys in deck.items()
            if name.startswith(kind + ".")]


def _material(name, deck, where):
    sec = f"material.{name}"
    if sec not in deck:
        if name in _BASE_MATERIALS:
            return _BASE_MATERIALS[name]()
        raise ConfigurationError(
            f"{where}: unknown material {name!r} (no [{sec}] section)")
    keys = deck[sec]
    if keys["base"] not in _BASE_MATERIALS:
        raise ConfigurationError(
            f"{sec}.base: unknown base material {keys['base']!r}")
    overrides = {key: _number(f"{sec}.{key}", raw)
                 for key, raw in keys.items()
                 if key != "base" and raw is not None}
    return _build(sec, dataclasses.replace,
                  _BASE_MATERIALS[keys["base"]](), **overrides)


def parse_config(path):
    """Parse and validate a device deck; errors name section.key."""
    with open(path) as fh:
        text = fh.read()
    deck = _read(text)

    def section(name):
        return deck.get(name, dict(_SECTIONS[name][1]))

    if "mesh" not in deck:
        raise ConfigurationError("[mesh]: missing required section")
    dim = _number("mesh.dim", deck["mesh"]["dim"], integer=True, rule=_DIM)
    lo, hi = parse_box(deck["mesh"]["domain"], dim, "mesh.domain")

    regions = []
    materials = {}
    for name, keys in _labelled(deck, "region"):
        sec = f"region.{name}"
        rlo, rhi = parse_box(keys["box"], dim, f"{sec}.box")
        h = _number(f"{sec}.h", keys["h"], rule=_POSITIVE)
        materials[name] = _material(keys["material"], deck, f"{sec}.material")
        regions.append((name, rlo, rhi, h))
    if not regions:
        raise ConfigurationError("[region.*]: no region sections defined")
    used = {keys["material"] for _name, keys in _labelled(deck, "region")}
    for label, _keys in _labelled(deck, "material"):
        if label not in used:
            raise ConfigurationError(
                f"[material.{label}]: no region uses this material")

    boundary = section("boundary")
    default_tag = boundary.pop("default").upper()
    if default_tag not in BOUNDARY_TAGS:
        raise ConfigurationError(
            f"boundary.default: unknown tag {default_tag!r}")
    tag_boxes = []
    for key, raw in boundary.items():
        tag = key.split(".")[0].upper()
        if tag not in BOUNDARY_TAGS:
            raise ConfigurationError(f"boundary.{key}: unknown tag")
        tag_boxes.append((tag, *parse_box(raw, dim, f"boundary.{key}")))

    contacts = []
    for name, keys in _labelled(deck, "contact"):
        sec = f"contact.{name}"
        clo, chi = parse_box(keys["box"], dim, f"{sec}.box")
        contacts.append(Contact(name, clo, chi,
                                _number(f"{sec}.voltage", keys["voltage"])))
        tag_boxes.append(("ELECTRODE_D", clo, chi))

    source = None
    if "source" in deck:
        keys = dict(deck["source"])
        pol = keys.pop("polarization")
        # a 1D mesh carries Ex alone
        allowed = ("x", "y")[:dim]
        if pol not in allowed:
            raise ConfigurationError(
                f"source.polarization must be {' or '.join(allowed)} on a "
                f"{dim}D mesh, got {pol!r}")
        if "SOURCE_APERTURE" not in {default_tag, *(b[0] for b in tag_boxes)}:
            raise ConfigurationError(
                "[source]: no boundary key names SOURCE_APERTURE, the faces "
                "the source enters through")
        source = _build("source", OpticalSourceSpec, polarization=pol,
                        **{key: _number(f"source.{key}", raw)
                           for key, raw in keys.items() if raw is not None})

    pml = None
    if "pml" in deck:
        pml = _build("pml", PmlSpec, thickness={
            key: _number(f"pml.{key}", raw)
            for key, raw in deck["pml"].items() if raw is not None})

    run = section("run")
    p_em = _number("run.p_em", run["p_em"], integer=True, rule=_ORDER)
    p_dd = _number("run.p_dd", run["p_dd"], integer=True, rule=_ORDER)
    if p_dd != p_em:
        # the transient seeds the DD solver with the stationary state on
        # the nodes of the EM order
        raise ConfigurationError(f"run.p_dd = {p_dd} and run.p_em = {p_em} "
                                 "must be equal")
    m_override = None if run["m"] == "auto" else \
        _number("run.m", run["m"], integer=True, rule=_COUNT)

    probes = section("probes")
    probe_points = None
    if probes["points"] is not None:
        rows = [p.strip() for p in probes["points"].split(";") if p.strip()]
        probe_points = np.array([parse_point(r, dim, "probes.points")
                                 for r in rows])
        # the structured mesh covers exactly mesh.domain
        outside = np.any((probe_points < lo) | (probe_points > hi), axis=1)
        if np.any(outside):
            raise ConfigurationError(
                f"probes.points: {probe_points[np.argmax(outside)]} lies "
                "outside mesh.domain")

    conv = section("convergence")
    convergence = {
        "system": conv["system"],
        "orders": [_number("convergence.orders", x, integer=True, rule=_ORDER)
                   for x in conv["orders"].split(",")],
        "levels": _number("convergence.levels", conv["levels"], integer=True,
                          rule=_COUNT)}

    return DeviceConfig(
        dim=dim, lo=lo, hi=hi, regions=regions, materials=materials,
        default_tag=default_tag, tag_boxes=tag_boxes, contacts=contacts,
        source=source, pml=pml, p_em=p_em, p_dd=p_dd,
        t_end=_number("run.t_end", run["t_end"]),
        safety=_number("run.safety", run["safety"], rule=_FRACTION),
        m_override=m_override,
        temperature=_number("run.temperature", run["temperature"],
                            rule=_POSITIVE),
        wavelength=_number("run.wavelength", run["wavelength"],
                           rule=_POSITIVE),
        probe_points=probe_points,
        cadence=_number("probes.cadence", probes["cadence"], integer=True,
                        rule=_COUNT),
        convergence=convergence,
        config_hash=hashlib.sha256(text.encode()).hexdigest()[:16])
