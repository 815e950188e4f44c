"""Hypothesis strategies shared by several test modules."""

import numpy as np
from hypothesis import strategies as st

from svkit.mesh import FluxCoefficient, build_mesh


@st.composite
def meshes(draw):
    """A periodic mesh of 4 to 24 elements with up to 35% jitter."""
    n = draw(st.integers(4, 24))
    return build_mesh(n, draw(st.floats(0.0, 0.35)), seed=draw(st.integers(0, 2**16)))


@st.composite
def constant_coefficients(draw):
    """A drawn mesh and a constant alpha of either sign, |alpha| in [0.1, 4]."""
    mesh = draw(meshes())
    value = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 4.0))
    return mesh, FluxCoefficient(lambda x: np.full_like(x, value), mesh)


@st.composite
def breakpoint_zero_coefficients(draw):
    """A jittered mesh and a trigonometric alpha that vanishes exactly on some breakpoints.

    alpha = amp * prod_j sin((x - z_j) / 2) over an even number of breakpoints
    z_j, so it is 2*pi-periodic and x - z_j is exactly zero at x = z_j.  A
    breakpoint drawn twice is a double zero, where alpha touches 0 without
    changing sign.
    """
    mesh = draw(meshes())
    n = mesh.n_elements
    pairs = draw(st.integers(1, 2))
    idx = draw(st.lists(st.integers(0, n - 1), min_size=2 * pairs, max_size=2 * pairs))
    zeros = mesh.breakpoints[idx]
    amp = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 2.0))

    def alpha(x):
        x = np.asarray(x, dtype=float)
        return amp * np.prod([np.sin(0.5 * (x - z)) for z in zeros], axis=0)

    coeff = FluxCoefficient(alpha, mesh)
    assert np.all(coeff.interface_values[idx] == 0.0)
    return mesh, coeff
