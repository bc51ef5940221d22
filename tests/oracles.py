"""Reference implementations the tests compare the library against.

The central-difference editor approximates the editing gradient
grad_x ||g(x) - d||^2 by differencing the input gradient through a
parameter perturbation. ``emgd.net.edit_direction`` computes the same
quantity exactly; these slower approximations pin it down.

``per_stream_gradients`` is the per-stream training path that
``emgd.net.stream_gradients`` replaced: one forward and one backward per
stream, one softmax per head group, then ``np.stack``.
"""

import numpy as np

from emgd.net import Batch, Network, _activations, _head, _layers, backward, input_gradient


def _head_pass(feats, labels, W_h, b_h):
    """dlogits, flat head gradient and mean cross-entropy of one head group."""
    logits = feats @ W_h + b_h
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=1, keepdims=True)
    logp = shifted - np.log(expz.sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(labels.size), labels].mean())
    dlogits = probs.copy()
    dlogits[np.arange(labels.size), labels] -= 1.0
    dlogits /= labels.size
    head_grad = np.concatenate([(feats.T @ dlogits).ravel(), dlogits.sum(axis=0)])
    return dlogits, head_grad, loss


def grouped_backward(net: Network, inputs, labels, groups, head_step: float = 0.0):
    """One stream's backbone gradient, loss and weighted head gradients.

    ``groups`` holds ``(task_id, rows)`` pairs covering the rows once; a group
    of n_g of the N rows has weight n_g / N. With ``head_step > 0`` each head
    steps by ``head_step`` times its weighted gradient before its gradient
    is read again.
    """
    activations = _activations(net, inputs)
    feats = activations[-1]
    delta = np.empty_like(feats)
    head_grads, loss = {}, 0.0
    for task_id, rows in groups:
        group_labels = labels[rows]
        W_h, b_h = _head(net, task_id, group_labels)
        weight = group_labels.size / labels.size
        dlogits, head_grad, group_loss = _head_pass(feats[rows], group_labels, W_h, b_h)
        if head_step > 0:
            net.heads[task_id] -= head_step * (weight * head_grad)
            dlogits, head_grad, group_loss = _head_pass(feats[rows], group_labels, W_h, b_h)
        delta[rows] = (weight * dlogits) @ W_h.T
        head_grads[task_id] = weight * head_grad
        loss += weight * group_loss
    grad = np.empty(net.backbone_dim)
    grad_layers = _layers(grad, net.layer_sizes)
    for i in range(len(net.backbone) - 1, -1, -1):
        a_out = activations[i + 1]
        dz = delta * (1.0 - a_out * a_out)
        gW, gb = grad_layers[i]
        np.matmul(activations[i].T, dz, out=gW)
        dz.sum(axis=0, out=gb)
        if i > 0:
            delta = dz @ net.backbone[i][0].T
    return grad, float(loss), head_grads


def per_stream_gradients(net: Network, streams):
    """``stream_gradients``' results, one ``grouped_backward`` per stream."""
    grads, losses, head_grads = [], [], {}
    for inputs, labels, task_ids, head_step in streams:
        if np.ndim(task_ids) == 0:
            groups = [(int(task_ids), slice(None))]
        else:
            groups = [(int(t), task_ids == t) for t in np.unique(task_ids)]
        grad, loss, heads = grouped_backward(net, inputs, labels, groups, head_step)
        grads.append(grad)
        losses.append(loss)
        head_grads.update(heads)
    return np.stack(grads), losses, head_grads


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
