import numpy as np
import pytest

from pcddg import physics
from pcddg.mesh import (
    BOUNDARY_TAGS,
    INTERIOR,
    TAG_INDEX,
    Mesh,
    build_face_connectivity,
    generate_structured_mesh,
    make_spec,
    resolution_report,
    unit_interval_mesh,
    validate_mesh,
)
from pcddg.refelem import MeshError

from helpers import interval_mesh


def material_table():
    return physics.MaterialTable(materials={
        "semi": physics.lt_gaas(),
        "vac": physics.vacuum(),
        "metal": physics.gold()})


def two_region_2d():
    return make_spec(
        2, [0, 0], [1e-6, 0.5e-6],
        regions=[("vac", [0, 0], [1e-6, 0.25e-6], 0.25e-6),
                 ("semi", [0, 0.25e-6], [1e-6, 0.5e-6], 0.125e-6)],
        tag_boxes=[("ABC", [0, 0.5e-6], [1e-6, 0.5e-6])],
        default_tag="PEC")


class TestGeneration1D:
    def test_unit_interval(self):
        m = unit_interval_mesh(10)
        assert m.K == 10
        assert np.allclose(m.volumes(), 0.1)
        assert m.boundary_tag[0, 0] == TAG_INDEX["ELECTRODE_D"]
        assert m.boundary_tag[-1, 1] == TAG_INDEX["ELECTRODE_D"]
        assert np.sum(m.boundary_tag >= 0) == 2

    def test_region_breaks_align(self):
        spec = make_spec(1, [0], [10e-9],
                         regions=[("vac", [0], [4e-9], 1.5e-9),
                                  ("semi", [4e-9], [10e-9], 1.0e-9)],
                         tag_boxes=[("ABC", [0], [0]), ("PEC", [10e-9], [10e-9])])
        m = generate_structured_mesh(spec)
        # the 4 nm material interface must be a mesh vertex
        assert np.min(np.abs(m.vertices[:, 0] - 4e-9)) < 1e-20
        names = [m.region_names[r] for r in m.region_id]
        cents = m.centroids()[:, 0]
        for c, nm in zip(cents, names):
            assert nm == ("vac" if c < 4e-9 else "semi")

    def test_uncovered_point_raises(self):
        spec = make_spec(1, [0], [1.0], regions=[("a", [0], [0.5], 0.1)])
        with pytest.raises(MeshError, match="not covered"):
            generate_structured_mesh(spec)

    def test_overlap_raises(self):
        spec = make_spec(1, [0], [1.0],
                         regions=[("a", [0], [0.7], 0.1), ("b", [0.3], [1.0], 0.1)])
        with pytest.raises(MeshError, match="overlapping"):
            generate_structured_mesh(spec)


class TestGeneration2D:
    def test_counts_and_areas(self):
        m = generate_structured_mesh(two_region_2d())
        assert np.all(m.volumes() > 0)
        assert m.volumes().sum() == pytest.approx(0.5e-12, rel=1e-12, abs=0)

    def test_connectivity_reciprocal(self):
        m = generate_structured_mesh(two_region_2d())
        for k in range(m.K):
            for f in range(3):
                k2, f2 = m.etoe[k, f], m.etof[k, f]
                if k2 == k:
                    assert m.boundary_tag[k, f] >= 0
                else:
                    assert m.etoe[k2, f2] == k
                    assert m.etof[k2, f2] == f
                    assert m.boundary_tag[k, f] == INTERIOR

    def test_boundary_tags_by_box(self):
        m = generate_structured_mesh(two_region_2d())
        for k, f in np.argwhere(m.boundary_tag >= 0):
            tag = BOUNDARY_TAGS[m.boundary_tag[k, f]]
            a, b = ((0, 1), (1, 2), (2, 0))[f]
            ymid = 0.5 * (m.vertices[m.elements[k, a], 1] + m.vertices[m.elements[k, b], 1])
            assert tag == ("ABC" if ymid > 0.5e-6 - 1e-12 else "PEC")


class TestValidation:
    def test_inverted_element(self):
        m = Mesh(dim=2,
                 vertices=np.array([[0.0, 0], [1, 0], [0, 1]]),
                 elements=np.array([[0, 2, 1]]),
                 region_id=np.zeros(1, dtype=int))
        build_face_connectivity(m)
        with pytest.raises(MeshError, match="inverted"):
            validate_mesh(m)

    def test_orphan_vertex(self):
        m = Mesh(dim=1, vertices=np.array([[0.0], [1.0], [2.0]]),
                 elements=np.array([[0, 1]]), region_id=np.zeros(1, dtype=int))
        build_face_connectivity(m)
        m.boundary_tag[:] = 0
        with pytest.raises(MeshError, match="orphan"):
            validate_mesh(m)

    def test_untagged_boundary(self):
        m = unit_interval_mesh(4)
        m.boundary_tag[0, 0] = INTERIOR
        with pytest.raises(MeshError, match="no tag"):
            validate_mesh(m)

    def test_nonmanifold(self):
        m = Mesh(dim=1, vertices=np.array([[0.0], [1.0], [2.0]]),
                 elements=np.array([[0, 1], [1, 2], [1, 2]]),
                 region_id=np.zeros(3, dtype=int))
        with pytest.raises(MeshError, match="non-manifold"):
            build_face_connectivity(m)


class TestFileFormat:
    """The mesh content hash that checkpoints record."""

    def test_content_hash_changes(self, tmp_path):
        m = unit_interval_mesh(5)
        h1 = m.content_hash()
        m.vertices[2, 0] += 1e-3
        assert m.content_hash() != h1


class TestResolutionReport:
    def test_debye_length_value(self):
        # sqrt(2 eps V_T / (q n)): GaAs at n = 1e16 cm^-3 gives ~61.6 nm
        m = interval_mesh(10, 1e-6, region="semi")
        rep = resolution_report(m, material_table(), n_est=1e22, e_est=1e6, p=2)
        assert rep.per_region["semi"]["debye"] == pytest.approx(61.6e-9, rel=0.02)

    def test_peclet_flags(self):
        m = interval_mesh(4, 1e-6, region="semi")   # h = 250 nm
        mats = material_table()
        # C_P^-1 = 2 V_T / E ~ 52 nm at 1e6 V/m -> every element flagged
        rep = resolution_report(m, mats, n_est=1e22, e_est=1e6)
        assert len(rep.peclet_flags) == 4
        rep2 = resolution_report(m, mats, n_est=1e22, e_est=1e2)
        assert len(rep2.peclet_flags) == 0

    def test_skin_depth_reported(self):
        spec = make_spec(1, [0], [1e-6],
                         regions=[("metal", [0], [1e-6], 0.5e-6)],
                         tag_boxes=[("PEC", [0], [0]), ("PEC", [1e-6], [1e-6])])
        m = generate_structured_mesh(spec)
        rep = resolution_report(m, material_table(), n_est=1e22, e_est=0.0,
                                wavelength=800e-9)
        # Drude gold near 800 nm: skin depth of a few tens of nm
        d = rep.per_region["metal"]["skin_depth"]
        assert 5e-9 < d < 100e-9
