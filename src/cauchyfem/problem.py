"""Cauchy problem instances: -Δu = f in Ω, u = 0 and ∂u/∂n = ψ on the data boundary.

Fields are closed-form callables (polynomials here), so the data pipeline is
free of interpolation error.  All callables accept numpy arrays elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class CauchyProblem:
    """Source f, normal flux psi on the data boundary, optional exact solution.

    f          f(x, y) -> value
    psi        psi(x, y, nx, ny) -> normal flux at a point of the data
               boundary with outward unit normal (nx, ny)
    exact_u    exact solution u(x, y), if known
    exact_grad gradient (ux, uy) of the exact solution, if known
    data_sides sides of the unit square making up the data boundary
    """

    f: Callable
    psi: Callable
    exact_u: Optional[Callable] = None
    exact_grad: Optional[Callable] = None
    data_sides: tuple = ("bottom", "right")


def quartic_example():
    """Manufactured instance with exact solution u = 30 x(1-x) y(1-y).

    The flux is prescribed on bottom (y=0) and right (x=1):
    psi = -30 x(1-x) on the bottom, psi = -30 y(1-y) on the right.
    """

    def u(x, y):
        return 30.0 * x * (1.0 - x) * y * (1.0 - y)

    def grad_u(x, y):
        return (30.0 * (1.0 - 2.0 * x) * y * (1.0 - y),
                30.0 * x * (1.0 - x) * (1.0 - 2.0 * y))

    def f(x, y):
        # -Δu for the quartic bump above
        return 60.0 * (x * (1.0 - x) + y * (1.0 - y))

    def psi(x, y, nx, ny):
        bottom = np.less(ny, -0.5)     # n = (0, -1)
        right = np.greater(nx, 0.5)    # n = (1, 0)
        off = ~(bottom | right)
        if np.any(off):
            nx, ny = (a.flat[np.flatnonzero(off)[0]]
                      for a in np.broadcast_arrays(nx, ny))
            raise ValueError("flux is prescribed on the data boundary only "
                             f"(asked at normal ({nx:g}, {ny:g}))")
        # [()] turns the 0-d result of scalar arguments back into a scalar
        return np.where(bottom, -30.0 * x * (1.0 - x), -30.0 * y * (1.0 - y))[()]

    return CauchyProblem(f=f, psi=psi, exact_u=u, exact_grad=grad_u,
                         data_sides=("bottom", "right"))
