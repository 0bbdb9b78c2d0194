import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyfem.mesh import (BoundaryPart, affine_map, build_structured,
                            from_triangles, mesh_size, tag_boundary,
                            unit_square_mesh)
from cauchyfem.spaces import build_space

from .oracles import (face_geometry, loop_tag_boundary, min_angle_deg, signed_areas,
                      structured_triangles, walk_faces)


def brute_force_edges(triangles):
    """Independent edge enumeration straight from the connectivity."""
    edges = set()
    for a, b, c in triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            edges.add((min(u, v), max(u, v)))
    return edges


def test_single_cell_counts(mesh1):
    assert mesh1.num_vertices == 4
    assert mesh1.num_triangles == 2
    assert len(mesh1.face_vertices) == 5
    assert len(mesh1.boundary_faces()) == 4
    assert len(mesh1.interior_faces()) == 1


def test_n2_counts_against_enumeration_oracle(mesh2):
    assert mesh2.num_vertices == 9
    assert mesh2.num_triangles == 8
    edges = brute_force_edges(mesh2.triangles)
    assert len(mesh2.face_vertices) == len(edges) == 16
    assert len(mesh2.boundary_faces()) == 8
    assert len(mesh2.interior_faces()) == 8
    # Euler formula with the outer face included
    assert mesh2.num_vertices - len(edges) + (mesh2.num_triangles + 1) == 2


def test_jitter_preserves_topology():
    flat = build_structured(2, jitter=0.0)
    bumpy = build_structured(2, jitter=0.1)
    assert bumpy.num_vertices == flat.num_vertices
    assert bumpy.num_triangles == flat.num_triangles
    assert len(bumpy.face_vertices) == len(flat.face_vertices)
    assert np.all(signed_areas(bumpy) > 0)
    assert np.array_equal(bumpy.triangles, flat.triangles)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        build_structured(0)
    with pytest.raises(ValueError):
        build_structured(2, jitter=0.3)
    # a clockwise triangle must be rejected
    with pytest.raises(ValueError):
        from_triangles([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])


def test_non_manifold_edge_rejected():
    with pytest.raises(ValueError, match="more than two triangles"):
        from_triangles([(0, 0), (1, 0), (0, 1), (1, 1), (-1, -1)],
                       [(0, 1, 2), (1, 3, 2), (4, 1, 2)])


def test_overlapping_triangles_rejected():
    # both triangles walk the edge (0, 1) from 0 to 1: the second one lies on
    # the same side of it as the first
    with pytest.raises(ValueError, match=r"triangles 0 and 1 overlap: both walk edge \(0, 1\)"):
        from_triangles([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5)],
                       [(0, 1, 2), (0, 1, 3)])


@pytest.mark.parametrize("n", [3, 7])
def test_face_numbering_matches_triangle_walk(n):
    mesh = build_structured(n, jitter=0.2, seed=n)
    assert np.array_equal(mesh.triangles, structured_triangles(n))
    face_vertices, face_tris, tri_faces = walk_faces(mesh.triangles)
    assert np.array_equal(mesh.face_vertices, face_vertices)
    assert np.array_equal(mesh.face_tris, face_tris)
    assert np.array_equal(mesh.tri_faces, tri_faces)


def test_tagging_n1(mesh1):
    assert len(mesh1.faces_of_part(BoundaryPart.DATA)) == 2
    assert len(mesh1.faces_of_part(BoundaryPart.FREE)) == 2


def test_tagging_n4(mesh4):
    assert len(mesh4.faces_of_part(BoundaryPart.DATA)) == 8
    assert len(mesh4.faces_of_part(BoundaryPart.FREE)) == 8


def test_bottom_face_is_data(mesh1):
    for f in mesh1.faces_of_part(BoundaryPart.DATA):
        a, b = mesh1.face_vertices[f]
        mid = 0.5 * (mesh1.vertices[a] + mesh1.vertices[b])
        if np.allclose(mid, (0.5, 0.0)):
            return
    raise AssertionError("face with midpoint (0.5, 0) not tagged as data")


@pytest.mark.parametrize("data_sides", [("bottom", "right"), ("top", "left")])
@pytest.mark.parametrize("n, jitter, seed", [(1, 0.0, 0), (5, 0.2, 3), (8, 0.25, 7)])
def test_tagging_matches_face_by_face_reference(n, jitter, seed, data_sides):
    mesh = build_structured(n, jitter, seed)
    tagged = tag_boundary(mesh, data_sides)
    assert np.array_equal(tagged.face_part, loop_tag_boundary(mesh, data_sides))
    assert tagged.face_part.dtype == mesh.face_part.dtype


def test_tagging_rejects_off_boundary_midpoints():
    tri = from_triangles([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    with pytest.raises(ValueError, match=r"boundary face 0 with midpoint \(0\.5, 0\.5\)"):
        tag_boundary(tri)


@pytest.mark.parametrize("data_sides, bad", [(("bottom", "rigth"), "'rigth'"),
                                             ("bottom", "'bottom'")],
                         ids=["misspelt", "bare string"])
def test_unknown_or_bare_string_data_side_is_rejected(data_sides, bad):
    # a misspelt side used to tag only the other side's faces, and a bare
    # string matched every side named by one of its substrings
    with pytest.raises(ValueError, match="the sides are") as info:
        unit_square_mesh(4, data_sides=data_sides)
    message = str(info.value)
    assert bad in message
    assert all(repr(side) in message for side in ("bottom", "right", "top", "left"))


def test_face_geometry(mesh2):
    # horizontal boundary face from (0,0) to (0.5,0)
    for f in mesh2.boundary_faces():
        a, b = mesh2.face_vertices[f]
        pts = {tuple(mesh2.vertices[a]), tuple(mesh2.vertices[b])}
        if pts == {(0.0, 0.0), (0.5, 0.0)}:
            h, normal, (left, right) = face_geometry(mesh2, f)
            assert h == pytest.approx(0.5)
            assert normal == pytest.approx([0.0, -1.0])
            assert right == -1 and left >= 0
            break
    else:
        raise AssertionError("expected boundary face not found")


def test_diagonal_face_length(mesh1):
    (f,) = mesh1.interior_faces()
    h, _, tris = face_geometry(mesh1, f)
    assert h == pytest.approx(np.sqrt(2.0))
    assert sorted(tris) == [0, 1]


def test_mesh_size(mesh1, mesh8):
    assert mesh_size(mesh1) == pytest.approx(np.sqrt(2.0))
    assert mesh_size(mesh8) == pytest.approx(np.sqrt(2.0) / 8)
    ref = from_triangles([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    assert mesh_size(ref) == pytest.approx(np.sqrt(2.0))


def test_mesh_size_rejects_a_mesh_without_triangles():
    with pytest.raises(ValueError, match="empty mesh"):
        mesh_size(from_triangles(np.zeros((0, 2)), np.zeros((0, 3), dtype=int)))


def test_adjacency_is_involutive(mesh4):
    for f in range(len(mesh4.face_vertices)):
        for t in mesh4.face_tris[f]:
            if t >= 0:
                assert f in mesh4.tri_faces[t]


def test_boundary_partition(mesh4):
    data = set(mesh4.faces_of_part(BoundaryPart.DATA))
    free = set(mesh4.faces_of_part(BoundaryPart.FREE))
    assert not data & free
    assert data | free == set(mesh4.boundary_faces())


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 6), jitter=st.floats(0.0, 0.2), seed=st.integers(0, 5))
def test_structured_mesh_invariants(n, jitter, seed):
    mesh = unit_square_mesh(n, jitter, seed)
    assert mesh.num_vertices == (n + 1) ** 2
    assert mesh.num_triangles == 2 * n * n
    assert len(mesh.boundary_faces()) == 4 * n
    assert abs(signed_areas(mesh).sum() - 1.0) < 1e-12
    assert np.all(signed_areas(mesh) > 0)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_shape_regularity_under_jitter(n):
    mesh = unit_square_mesh(n, jitter=0.2, seed=0)
    assert min_angle_deg(mesh) > 10.0


def test_vtk_dump(tmp_path, mesh2):
    from cauchyfem.vtk_io import write_vtk

    path = tmp_path / "mesh.vtk"
    write_vtk(path, mesh2, {"height": mesh2.vertices[:, 1]})
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert f"POINTS {mesh2.num_vertices} double" in text
    assert f"CELL_TYPES {mesh2.num_triangles}" in text
    assert "SCALARS height double 1" in text


def test_mesh_carries_the_affine_maps_of_its_triangles():
    mesh = unit_square_mesh(5, jitter=0.25, seed=3)
    jac, det, jinv = affine_map(mesh.vertices[mesh.triangles])
    assert np.array_equal(mesh.jac, jac)
    assert np.array_equal(mesh.det, det)
    assert np.array_equal(mesh.jinv, jinv)
    assert np.allclose(mesh.det, 2.0 * signed_areas(mesh), rtol=1e-14, atol=0)
    assert np.allclose(mesh.jinv @ mesh.jac, np.eye(2), rtol=0, atol=1e-13)


@pytest.mark.parametrize("untagged", [
    lambda: build_structured(2),
    lambda: from_triangles([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2), (1, 3, 2)])],
    ids=["build_structured", "from_triangles"])
def test_untagged_boundary_is_named(untagged):
    # a mesh made without tag_boundary has no boundary parts to read
    mesh = untagged()
    with pytest.raises(ValueError, match="mesh boundary has not been tagged"):
        mesh.faces_of_part(BoundaryPart.DATA)
    with pytest.raises(ValueError, match="mesh boundary has not been tagged"):
        build_space(mesh, 2, BoundaryPart.FREE)


def test_degenerate_triangle_is_rejected_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="triangle 1 has non-positive area 0"):
            from_triangles([(0, 0), (1, 0), (0, 1), (2, 0)], [(0, 1, 2), (0, 1, 3)])
