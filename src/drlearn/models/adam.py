"""Adam optimizer over lists of parameter arrays."""

from __future__ import annotations

import numpy as np


class Adam:
    """Adaptive moment estimation with bias correction.

    Parameters are updated in place; one Adam instance owns one model's
    moment buffers, so training stays deterministic for a fixed call order.
    """

    def __init__(
        self,
        params: list[np.ndarray],
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / (1.0 - self.beta1**self.t)
            v_hat = self.v[i] / (1.0 - self.beta2**self.t)
            p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


def clip_global_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale grads in place to a joint L2 norm of at most max_norm; return the norm before."""
    norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return float(norm)
