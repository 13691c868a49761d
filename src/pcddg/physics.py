"""Constitutive models and parameter handling: SRH recombination, the
optical generation coefficient, Caughey-Thomas field-dependent mobility,
Ohmic contact densities, Drude metal parameters and the optical source."""

from dataclasses import dataclass

import numpy as np

# CODATA SI constants
Q = 1.602176634e-19
KB = 1.380649e-23
H = 6.62607015e-34
HBAR = H / (2.0 * np.pi)
C0 = 299792458.0
EPS0 = 8.8541878128e-12
MU0 = 1.25663706212e-6


class PhysicsError(ValueError):
    pass


@dataclass
class DrudeParams:
    eps_inf: float
    omega_p: float      # rad/s
    gamma: float        # rad/s


@dataclass
class Material:
    name: str
    eps_r: float = 1.0
    mu_r: float = 1.0
    semiconductor: bool = False
    doping: float = 0.0          # signed, m^-3
    n_i: float = 0.0             # m^-3
    tau_e: float = 0.0           # s
    tau_h: float = 0.0
    n_e1: float = 0.0            # m^-3
    n_h1: float = 0.0
    mu_e0: float = 0.0           # m^2/V/s
    mu_h0: float = 0.0
    v_sat_e: float = 0.0         # m/s
    v_sat_h: float = 0.0
    beta_e: float = 2.0
    beta_h: float = 2.0
    alpha_abs: float = 0.0       # m^-1
    eta: float = 1.0
    drude: DrudeParams = None

    def __post_init__(self):
        if self.eps_r <= 0 or self.mu_r <= 0:
            raise PhysicsError("eps_r/mu_r must be positive")
        if self.semiconductor:
            for key in ("n_i", "tau_e", "tau_h", "mu_e0", "mu_h0",
                        "v_sat_e", "v_sat_h"):
                if getattr(self, key) <= 0:
                    raise PhysicsError(f"{key} must be > 0")
            for key in ("beta_e", "beta_h"):
                b = getattr(self, key)
                if not 1.0 <= b <= 3.0:
                    raise PhysicsError(f"{key}={b} outside [1, 3]")


@dataclass
class MaterialTable:
    materials: dict                     # name -> Material
    temperature: float = 300.0

    def region(self, name):
        try:
            return self.materials[name]
        except KeyError:
            raise PhysicsError(f"unknown material region {name!r}") from None

    def element_materials(self, mesh, elems=None):
        """The materials of the regions that elems (default: every element
        of the mesh) lie in, one per region in order of first appearance,
        and per element the index of its material in that list."""
        rid = mesh.region_id if elems is None else mesh.region_id[elems]
        ids, first, inv = np.unique(rid, return_index=True,
                                    return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        return ([self.region(mesh.region_names[i]) for i in ids[order]],
                rank[inv.reshape(-1)])

    @property
    def v_t(self):
        return thermal_voltage(self.temperature)


def thermal_voltage(temperature):
    if temperature <= 0:
        raise PhysicsError(f"temperature must be > 0, got {temperature}")
    return KB * temperature / Q


def srh_recombination(n_e, n_h, mat, lagged=None):
    """Trap-assisted recombination rate; sign follows n_e*n_h - n_i^2.

    mat supplies n_i, tau_e, tau_h, n_e1 and n_h1: a Material, or an object
    holding them as arrays that broadcast with the densities (DDSolver).
    lagged=(n_e0, n_h0) takes the denominator there instead, which makes
    the rate affine in each density (the stationary continuity solves)."""
    n_e = np.asarray(n_e, dtype=float)
    n_h = np.asarray(n_h, dtype=float)
    if not (np.all(np.isfinite(n_e)) and np.all(np.isfinite(n_h))):
        raise PhysicsError("non-finite carrier density passed to SRH")
    d_e, d_h = (n_e, n_h) if lagged is None else lagged
    excess = n_e * n_h - mat.n_i ** 2
    denom = mat.tau_e * (mat.n_h1 + d_h) + mat.tau_h * (mat.n_e1 + d_e)
    return excess / denom


def generation_coefficient(mat, wavelength):
    """eta * alpha * lambda / (h c): carriers per joule of absorbed-flux proxy."""
    return mat.eta * mat.alpha_abs * wavelength / (H * C0)


def poynting_magnitude(e_fields, h_fields):
    """|E x H| for 1D (Ex, Hz) or 2D TE_z ((Ex, Ey), Hz) nodal arrays."""
    if len(e_fields) == 1:
        return np.abs(e_fields[0] * h_fields[0])
    ex, ey = e_fields
    hz = h_fields[0]
    return np.abs(hz) * np.sqrt(ex * ex + ey * ey)


def parallel_field_mobility(e_mag, carrier, mat):
    """Caughey-Thomas parallel-field mobility; velocity saturates at V^sat.

    mat supplies mu_c0, v_sat_c and beta_c of the carrier: a Material, or an
    object holding them as per-element (K, 1) columns (DDSolver)."""
    e_mag = np.asarray(e_mag, dtype=float)
    if carrier == "e":
        mu0, vsat, beta = mat.mu_e0, mat.v_sat_e, mat.beta_e
    elif carrier == "h":
        mu0, vsat, beta = mat.mu_h0, mat.v_sat_h, mat.beta_h
    else:
        raise PhysicsError(f"carrier must be 'e' or 'h', got {carrier!r}")
    return mu0 / (1.0 + (mu0 * np.abs(e_mag) / vsat) ** beta) ** (1.0 / beta)


def einstein_diffusivity(mu_c, v_t):
    return v_t * np.asarray(mu_c, dtype=float)


def ohmic_contact_densities(doping, n_i):
    """Charge-neutral contact densities for doping C: n_e*(n_e - C) = n_i^2."""
    if np.any(np.asarray(n_i) <= 0):
        raise PhysicsError("n_i must be > 0")
    c = np.asarray(doping, dtype=float)
    root = np.sqrt(c * c + 4.0 * n_i ** 2)
    # evaluate the larger carrier via the radical to avoid cancellation
    with np.errstate(divide="ignore"):
        n_e = np.where(c >= 0, (c + root) / 2.0, 2.0 * n_i ** 2 / (root - c))
    n_h = n_i ** 2 / n_e
    return n_e, n_h


def ev_to_angular_frequency(e_ev):
    """Energy in eV (the Table-style omega_p entries) to rad/s."""
    return e_ev * Q / HBAR


_SQRT_2LN2 = np.sqrt(2.0 * np.log(2.0))


@dataclass
class OpticalSourceSpec:
    """Gaussian-modulated optical beam entering through a tagged aperture."""
    f_c: float                   # center frequency (Hz)
    f_w: float                   # spectral FWHM (Hz)
    beam_width: float            # transverse 1/e field half-width (m)
    power: float = None          # peak optical power (W)
    peak_field: float = None     # alternative: peak E amplitude (V/m)
    polarization: str = "x"
    t0: float = None             # envelope delay; default 4 sigma_t

    def __post_init__(self):
        if not 0 < self.f_w < self.f_c:
            raise PhysicsError("need 0 < f_w < f_c for the optical source")
        if self.beam_width <= 0:
            raise PhysicsError("beam width must be positive")
        if (self.power is None) == (self.peak_field is None):
            raise PhysicsError("give exactly one of power or peak_field")

    @property
    def sigma_t(self):
        # amplitude spectrum |g^(f)| has FWHM f_w
        return _SQRT_2LN2 / (np.pi * self.f_w)

    @property
    def delay(self):
        return 4.0 * self.sigma_t if self.t0 is None else self.t0

    def envelope(self, t):
        """Gaussian-modulated carrier at time t (a float or an array)."""
        s = self.sigma_t
        u = t - self.delay
        return (np.exp(-u * u / (2.0 * s ** 2))
                * np.sin(2 * np.pi * self.f_c * u))


# ---------------------------------------------------------------------------
# Table-style default materials for the PCD examples

def vacuum():
    return Material(name="vacuum")


def lt_gaas():
    return Material(
        name="ltgaas", eps_r=13.26, mu_r=1.0, semiconductor=True,
        doping=1.3e22, n_i=9e12, tau_e=0.3e-12, tau_h=0.4e-12,
        n_e1=4.5e12, n_h1=4.5e12, mu_e0=0.8, mu_h0=0.04,
        v_sat_e=1.725e5, v_sat_h=0.9e5, beta_e=1.82, beta_h=1.75,
        alpha_abs=1e6, eta=1.0)


def si_gaas():
    return Material(name="sigaas", eps_r=13.26, mu_r=1.0)


def gold():
    return Material(
        name="gold", eps_r=1.0, mu_r=1.0,
        drude=DrudeParams(eps_inf=1.0,
                          omega_p=ev_to_angular_frequency(9.03),
                          gamma=ev_to_angular_frequency(0.053)))
