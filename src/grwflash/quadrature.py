"""Adaptive 2D quadrature with local error control.

The kernel integrals this package needs are axially symmetric, so every 3D
integral reduces to the (z, rho) half-plane, and the decoherence kernel,
even in z, to z >= 0.  Bounded integrands with unbounded phase gradients
near isolated singular points call for heavy local refinement in patches.

Each patch is evaluated with a tensor Gauss-Kronrod 15x15 rule (QUADPACK's
qk15 pair, Piessens et al. 1983).  The Gauss 7-point nodes are the odd
Kronrod nodes, so the tensor G7 value reuses the same 225 samples and
|Q_K15 - Q_G7| is the patch's error estimate.  Nodes are strictly interior,
so integrable singular points placed on patch corners or edges are never
sampled.

Patches live in flat arrays and are refined in rounds (vectorized h-adaptive
bisection, Berntsen, Espelid & Genz 1991): the worst patches are bisected
until the unsplit rest carries at most half the tolerance, and all children
of a round are evaluated together, a chunk of patches per integrand call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# QUADPACK qk15 abscissae (non-negative half) and weights; the Gauss
# 7-point nodes are entries 1, 3, 5 and 7 of the half.
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_W15 = np.concatenate([_WGK, _WGK[-2::-1]])
_W7 = np.zeros(15)
_W7[1::2] = np.concatenate([_WG, _WG[-2::-1]])
# Tensor weights of both rules on the flattened 15x15 sample block.
_TENSOR_WEIGHTS = np.stack([np.outer(_W15, _W15).ravel(),
                            np.outer(_W7, _W7).ravel()], axis=1)
_POINTS_PER_PATCH = 15 * 15
_CHUNK = 64  # patches per integrand call; bounds the sample block's memory


class QuadratureError(RuntimeError):
    """The error bound stayed above the requested tolerance at max_evals."""


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    error: float
    n_evals: int
    n_patches: int


def _eval_patches(f, boxes):
    """K15 values and |K15 - G7| estimates on rows (x0, x1, y0, y1) of boxes."""
    centers = 0.5 * (boxes[:, 0::2] + boxes[:, 1::2])
    halves = 0.5 * (boxes[:, 1::2] - boxes[:, 0::2])
    xs = centers[:, :1] + halves[:, :1] * _NODES
    ys = centers[:, 1:] + halves[:, 1:] * _NODES
    q = np.empty((len(boxes), 2), dtype=complex)
    for s in range(0, len(boxes), _CHUNK):
        x, y = xs[s:s + _CHUNK, :, None], ys[s:s + _CHUNK, None, :]
        vals = np.broadcast_to(f(x, y), (len(x), 15, 15))
        q[s:s + _CHUNK] = vals.reshape(len(x), -1) @ _TENSOR_WEIGHTS
    q *= (halves[:, 0] * halves[:, 1])[:, None]
    return q[:, 0], np.abs(q[:, 0] - q[:, 1])


def _split(boxes):
    """Bisect each row of boxes along its longer side; return both halves."""
    x0, x1, y0, y1 = boxes.T
    along_x = (x1 - x0) >= (y1 - y0)
    xm = np.where(along_x, 0.5 * (x0 + x1), x1)
    ym = np.where(along_x, y1, 0.5 * (y0 + y1))
    low = np.stack([x0, xm, y0, ym], axis=1)
    high = np.stack([np.where(along_x, xm, x0), x1,
                     np.where(along_x, y0, ym), y1], axis=1)
    return low, high


def geometric_cuts(center: float, inner: float, outer: float, ratio: float = 4.0):
    """Cut positions center +- inner*ratio^j for refinement toward a point."""
    cuts = []
    s = inner
    while s < outer:
        cuts.extend([center - s, center + s])
        s *= ratio
    cuts.append(center)
    return cuts


def integrate_adaptive(
    f,
    x_cuts,
    y_cuts,
    rel_tol: float = 1e-6,
    abs_tol: float = 1e-12,
    max_evals: int = 3_000_000,
    extra_error: float = 0.0,
):
    """Integrate f over the box spanned by the outermost cuts.

    ``f(x, y)`` is elementwise and must accept broadcastable arrays: it is
    called with x of shape (P, 15, 1) and y of shape (P, 1, 15) for a chunk
    of P patches, and its result is broadcast to (P, 15, 15).

    ``x_cuts``/``y_cuts`` give the initial patch boundaries (duplicates are
    dropped); singular points should sit on cut lines.  ``extra_error`` is
    added to the reported bound (domain truncation).  At most ``max_evals``
    points are sampled; raises QuadratureError if the bound cannot be pushed
    below max(abs_tol, rel_tol * |value|) within that budget.
    """
    xs = np.unique(np.asarray(x_cuts, dtype=float))
    ys = np.unique(np.asarray(y_cuts, dtype=float))
    if len(xs) < 2 or len(ys) < 2:
        raise ValueError("need at least two distinct cuts per axis")

    nx, ny = len(xs) - 1, len(ys) - 1
    boxes = np.stack([np.repeat(xs[:-1], ny), np.repeat(xs[1:], ny),
                      np.tile(ys[:-1], nx), np.tile(ys[1:], nx)], axis=1)
    n_evals = len(boxes) * _POINTS_PER_PATCH
    if n_evals > max_evals:
        raise QuadratureError(
            f"the {len(boxes)} initial patches need {n_evals} evaluations, "
            f"above the budget of {max_evals}"
        )
    values, errors = _eval_patches(f, boxes)

    while True:
        total = values.sum()
        total_err = errors.sum() + extra_error
        tol = max(abs_tol, rel_tol * abs(total))
        if total_err <= tol:
            break
        # Split the worst patches until the unsplit rest carries at most
        # half of what the tolerance leaves after extra_error.
        order = np.argsort(-errors, kind="stable")
        rest = np.cumsum(errors[order][::-1])[::-1]
        n_split = int(np.count_nonzero(rest > 0.5 * max(tol - extra_error, 0.0)))
        n_split = min(n_split, (max_evals - n_evals) // (2 * _POINTS_PER_PATCH))
        if n_split == 0:
            raise QuadratureError(
                f"error bound {total_err:.3e} above tolerance {tol:.3e} "
                f"after {n_evals} evaluations"
            )
        picked = order[:n_split]
        low, high = _split(boxes[picked])
        child_values, child_errors = _eval_patches(f, np.concatenate([low, high]))
        n_evals += 2 * n_split * _POINTS_PER_PATCH
        boxes[picked] = low
        values[picked] = child_values[:n_split]
        errors[picked] = child_errors[:n_split]
        boxes = np.concatenate([boxes, high])
        values = np.concatenate([values, child_values[n_split:]])
        errors = np.concatenate([errors, child_errors[n_split:]])

    return IntegralResult(
        value=complex(total),
        error=float(total_err),
        n_evals=n_evals,
        n_patches=len(boxes),
    )


def gaussian_tail_mass(radius: float) -> float:
    """Mass of the normalized 3D Gaussian pi^(-3/2) exp(-u^2) beyond |u| = radius."""
    r = float(radius)
    return (2.0 / np.sqrt(np.pi)) * r * np.exp(-(r**2)) + math.erfc(r)
