import numpy as np
import pytest

from cauchyfem.mesh import BoundaryPart
from cauchyfem.spaces import segment_rule, triangle_rule


def fd_laplacian(u, x, y, step=0.05):
    """Second-difference Laplacian; exact for polynomials of degree <= 3
    per variable, so it is an independent check for the quartic bump."""
    return (u(x + step, y) - 2 * u(x, y) + u(x - step, y)
            + u(x, y + step) - 2 * u(x, y) + u(x, y - step)) / step ** 2


def test_point_values(problem):
    assert problem.exact_u(0.5, 0.5) == pytest.approx(1.875)
    assert problem.f(0.5, 0.5) == pytest.approx(30.0)
    assert problem.psi(0.5, 0.0, 0.0, -1.0) == pytest.approx(-7.5)


def test_solution_vanishes_on_data_boundary(problem):
    ts = np.linspace(0.0, 1.0, 17)
    assert np.allclose(problem.exact_u(ts, 0.0 * ts), 0.0)
    assert np.allclose(problem.exact_u(np.ones_like(ts), ts), 0.0)
    # and on the whole square boundary for this instance
    assert np.allclose(problem.exact_u(ts, np.ones_like(ts)), 0.0)
    assert np.allclose(problem.exact_u(0.0 * ts, ts), 0.0)


def test_gradient_vanishes_at_center(problem):
    gx, gy = problem.exact_grad(0.5, 0.5)
    assert gx == pytest.approx(0.0)
    assert gy == pytest.approx(0.0)


def test_source_is_minus_laplacian(problem):
    rng = np.random.default_rng(3)
    rule = triangle_rule(2)
    for _ in range(20):
        # random small triangle inside the square
        p0 = rng.uniform(0.2, 0.8, 2)
        tri = np.vstack([p0, p0 + rng.uniform(0.01, 0.1, 2) * [1, 0.2],
                         p0 + rng.uniform(0.01, 0.1, 2) * [0.1, 1]])
        jac = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
        det = abs(np.linalg.det(jac))
        phys = tri[0] + rule.points @ jac.T
        resid = sum(w * (-fd_laplacian(problem.exact_u, x, y) - problem.f(x, y))
                    for (x, y), w in zip(phys, rule.weights)) * det
        assert abs(resid) < 1e-12


def test_flux_matches_normal_trace(problem, mesh4):
    rule = segment_rule(9)
    for f in mesh4.faces_of_part(BoundaryPart.DATA):
        a, b = mesh4.face_vertices[f]
        pa, pb = mesh4.vertices[a], mesh4.vertices[b]
        tang = pb - pa
        normal = np.array([tang[1], -tang[0]]) / np.hypot(*tang)
        for s in rule.points:
            x, y = pa + s * tang
            gx, gy = problem.exact_grad(x, y)
            assert problem.psi(x, y, *normal) == pytest.approx(
                gx * normal[0] + gy * normal[1], abs=1e-12)


def test_flux_undefined_off_data_boundary(problem):
    with pytest.raises(ValueError):
        problem.psi(0.5, 1.0, 0.0, 1.0)


def test_flux_accepts_array_normals(problem):
    x = np.array([[0.25, 0.5], [1.0, 1.0]])
    y = np.array([[0.0, 0.0], [0.25, 0.5]])
    nx = np.array([[0.0], [1.0]])
    ny = np.array([[-1.0], [0.0]])
    values = problem.psi(x, y, nx, ny)
    assert values.shape == (2, 2)
    for i in range(2):
        for j in range(2):
            assert values[i, j] == problem.psi(x[i, j], y[i, j], nx[i, 0], ny[i, 0])


def test_flux_names_first_off_data_normal(problem):
    with pytest.raises(ValueError, match=r"\(-1, 0\)"):
        problem.psi(np.zeros(3), np.ones(3), np.array([1.0, -1.0, 0.0]),
                    np.array([0.0, 0.0, 1.0]))
