"""Legacy-VTK (ASCII) unstructured grid writer for meshes and vertex data."""

from __future__ import annotations

import numpy as np

VTK_TRIANGLE = 5


def write_vtk(path, mesh, point_data=None):
    """Write the mesh and optional per-vertex scalar arrays.

    point_data maps array names to vectors of length mesh.num_vertices.
    """
    point_data = point_data or {}
    for name, values in point_data.items():
        if len(values) != mesh.num_vertices:
            raise ValueError(f"point array {name!r} has {len(values)} entries "
                             f"for {mesh.num_vertices} vertices")

    lines = ["# vtk DataFile Version 3.0", "cauchyfem fields", "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.num_vertices} double"]
    lines += [f"{x:.16g} {y:.16g} 0" for x, y in mesh.vertices]
    nt = mesh.num_triangles
    lines.append(f"CELLS {nt} {4 * nt}")
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    lines.append(f"CELL_TYPES {nt}")
    lines.extend([str(VTK_TRIANGLE)] * nt)
    if point_data:
        lines.append(f"POINT_DATA {mesh.num_vertices}")
        for name, values in point_data.items():
            lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
            lines.extend(f"{v:.16g}" for v in np.asarray(values, dtype=float))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
