import numpy as np
import pytest

from cauchyfem.mesh import unit_square_mesh
from cauchyfem.problem import CauchyProblem, quartic_example


@pytest.fixture(scope="session")
def mesh1():
    return unit_square_mesh(1)


@pytest.fixture(scope="session")
def mesh2():
    return unit_square_mesh(2)


@pytest.fixture(scope="session")
def mesh4():
    return unit_square_mesh(4)


@pytest.fixture(scope="session")
def mesh8():
    return unit_square_mesh(8)


@pytest.fixture(scope="session")
def problem():
    return quartic_example()


@pytest.fixture(scope="session")
def mirrored_problem():
    """The quartic bump mirrored through (1/2, 1/2): data on top and left."""
    base = quartic_example()

    def psi(x, y, nx, ny):
        if ny > 0.5:
            return -30.0 * x * (1.0 - x)
        if nx < -0.5:
            return -30.0 * y * (1.0 - y)
        raise ValueError(f"no flux at normal ({nx:g}, {ny:g})")

    return CauchyProblem(f=base.f, psi=np.vectorize(psi), exact_u=base.exact_u,
                         exact_grad=base.exact_grad, data_sides=("top", "left"))
