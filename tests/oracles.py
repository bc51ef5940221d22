"""Reference implementations the tests compare the library against.

The central-difference editor approximates the editing gradient
grad_x ||g(x) - d||^2 by differencing the input gradient through a
parameter perturbation. ``emgd.net.edit_direction`` computes the same
quantity exactly; these slower approximations pin it down.
"""

import numpy as np

from emgd.net import Batch, Network, backward, input_gradient


def directional_edit_gradient(input_grad_at, theta: np.ndarray, v: np.ndarray, eps: float):
    """Core of the editing direction: gradient of ||g(x) - d||^2 w.r.t. x.

    ``v = g(x) - d`` in the negative-gradient convention. Since
    dg/dx = -d2(loss)/dtheta dx, the chain rule gives
    grad_x ||v||^2 = 2 * (d2l/dtheta dx)^T (-v), evaluated by a central
    difference of the input gradient through a parameter perturbation along
    u = -v. ``input_grad_at(theta')`` must return the input gradient of the
    loss at parameters ``theta'``. Returns None when ``v`` is (near) zero.
    """
    norm_v = float(np.linalg.norm(v))
    if norm_v < 1e-12:
        return None
    u = -v / norm_v
    plus = input_grad_at(theta + eps * u)
    minus = input_grad_at(theta - eps * u)
    return (plus - minus) * (norm_v / eps)


def central_difference_edit(net: Network, batch: Batch, target_d: np.ndarray,
                            fd_eps: float = 1e-4) -> np.ndarray:
    """Editing gradient of one task's batch by a directional central
    difference, with the step scaled relative to the parameter magnitude.
    The backbone is restored afterwards."""
    v = -backward(net, batch).backbone_grad - target_d
    theta = net.flatten_backbone()
    eps = fd_eps * (1.0 + float(np.sqrt(np.mean(theta * theta))))

    def input_grad_at(theta_prime):
        net.set_backbone_flat(theta_prime)
        return input_gradient(net, batch)

    try:
        delta = directional_edit_gradient(input_grad_at, theta, v, eps)
    finally:
        net.set_backbone_flat(theta)
    return np.zeros_like(batch.inputs) if delta is None else delta
