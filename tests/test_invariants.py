"""The operators' invariants on drawn meshes and coefficients, on both apply paths.

Each draw builds an operator and applies it to random coefficients once
through its dense matrix and once through its compact stencil, whichever
path its size would pick.  An element's residuals are measured against the
largest entry of |A|·|c| in its rows, the size of the flux terms that the
rounding acts on; its mean-mode row alone can cancel to nearly zero, as
when alpha vanishes on every breakpoint.  The bounds sit more than ten
times above the largest residuals of 1,500 random draws of both kinds of
alpha (k up to 12, n up to 24).
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from svkit.dg import DGOperator
from svkit.mesh import Scheme, build_partition
from svkit.sv import SchemeConfig, SVOperator, _dense_matrix

from strategies import breakpoint_zero_coefficients, constant_coefficients

ORDERS = st.integers(1, 12)


def _operator(scheme, mesh, coeff, k):
    if scheme == "dg":
        return DGOperator(mesh, k, coeff)
    variant = Scheme(scheme)
    return SVOperator(SchemeConfig(k, variant), build_partition(mesh, k, variant, coeff), coeff)


def _on_both_paths(op, c):
    """A c by the dense matrix and by the stencil, each (N, k+1), and the (N, 1) scale."""
    dense = _dense_matrix(op._stencil)
    outs = []
    for path in (dense, None):
        twin = copy.copy(op)
        twin._dense = path
        outs.append(twin.apply(c, 0.0))
    scale = (np.abs(dense) @ np.abs(c.ravel())).reshape(c.shape)
    return outs, scale.max(axis=1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(
    drawn=breakpoint_zero_coefficients() | constant_coefficients(),
    k=ORDERS,
    scheme=st.sampled_from(["rsv", "lsv", "dg"]),
    seed=st.integers(0, 2**16),
)
def test_mean_mode_rows_conserve_mass(drawn, k, scheme, seed):
    # The upwind flux is one value per interface, so sum_i h_i (A c)_{i,0}
    # telescopes to zero on the periodic mesh.
    mesh, coeff = drawn
    op = _operator(scheme, mesh, coeff, k)
    c = np.random.default_rng(seed).standard_normal((mesh.n_elements, k + 1))
    outs, scale = _on_both_paths(op, c)
    for out in outs:
        assert abs(mesh.sizes @ out[:, 0]) <= 1e-14 * (mesh.sizes @ scale[:, 0])


@settings(max_examples=60, deadline=None)
@given(drawn=constant_coefficients(), k=ORDERS, seed=st.integers(0, 2**16))
def test_rsv_equals_dg_at_constant_alpha(drawn, k, seed):
    # A constant alpha of either sign puts one Radau kind on every element,
    # the upwind one, and RSV then is the upwind DG scheme.
    mesh, coeff = drawn
    c = np.random.default_rng(seed).standard_normal((mesh.n_elements, k + 1))
    rsv, _ = _on_both_paths(_operator("rsv", mesh, coeff, k), c)
    dg, scale = _on_both_paths(_operator("dg", mesh, coeff, k), c)
    for got, ref in zip(rsv, dg):
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)
