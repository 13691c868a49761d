"""Multiphysics simulation of photoconductive terahertz devices.

Couples a nodal discontinuous-Galerkin time-domain Maxwell solver to a
local-DG drift-diffusion solver, seeded by a stationary Poisson /
drift-diffusion solve of the biased device.
"""

__version__ = "0.1.0"

from .refelem import ConfigurationError, MeshError, build_reference_element
from .mesh import Mesh, generate_structured_mesh
from .physics import Material, MaterialTable, PhysicsError
