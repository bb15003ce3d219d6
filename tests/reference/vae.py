"""The per-model VAE training loop the fused flat-buffer loop is checked against.

:meth:`~repro.core.vae.tvae.TabularVAE.fit` trains a fleet of one through
:class:`~repro.core.vae.tvae.VAEFleet`: flat parameter buffers, one in-place
Adam, one softmax/cross-entropy pass per categorical block width.  This
module keeps the original solo loop with its arithmetic unchanged — a
per-array :class:`Adam`, the masked :func:`sigmoid`, one loss pass per
categorical block — so every fleet member must end bitwise identical to
:func:`fit` on an identically seeded VAE: weights, trace, RNG state and
samples.
"""

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.vae.tvae import TabularVAE, TrainingTrace

__all__ = ["Adam", "fit", "parameters", "sigmoid"]


class Adam:
    """Adam over ``(parameter, gradient)`` pairs, one array at a time."""

    def __init__(
        self,
        parameters: Sequence[Tuple[np.ndarray, np.ndarray]],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: List[np.ndarray] = [np.zeros_like(p) for p, _ in self.parameters]
        self._v: List[np.ndarray] = [np.zeros_like(p) for p, _ in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for i, (param, grad) in enumerate(self.parameters):
            self._m[i] = b1 * self._m[i] + (1 - b1) * grad
            self._v[i] = b2 * self._v[i] + (1 - b2) * grad**2
            m_hat = self._m[i] / (1 - b1**self._t)
            v_hat = self._v[i] / (1 - b2**self._t)
            param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The masked logistic: ``1/(1+e^-x)`` where ``x >= 0``, ``e^x/(1+e^x)`` elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def parameters(vae: TabularVAE) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Every ``(parameter, gradient)`` pair of ``vae``, encoder first."""
    return (
        vae.encoder.parameters()
        + vae.mu_head.parameters()
        + vae.logvar_head.parameters()
        + vae.decoder.parameters()
    )


def decode_activations(vae: TabularVAE, logits: np.ndarray) -> np.ndarray:
    out = np.empty_like(logits)
    if vae.numeric_columns:
        cols = vae.numeric_columns
        out[:, cols] = sigmoid(logits[:, cols])
    for start, stop in vae.categorical_blocks:
        out[:, start:stop] = softmax(logits[:, start:stop])
    return out


def loss_and_grad(vae: TabularVAE, X: np.ndarray):
    """Forward pass: losses and the gradients wrt decoder logits and latent stats."""
    n = X.shape[0]
    h = vae.encoder.forward(X)
    mu = vae.mu_head.forward(h)
    logvar = np.clip(vae.logvar_head.forward(h), -10.0, 10.0)
    eps = vae.rng.standard_normal(mu.shape)
    std = np.exp(0.5 * logvar)
    z = mu + eps * std

    logits = vae.decoder.forward(z)
    recon = decode_activations(vae, logits)

    recon_loss = 0.0
    grad_logits = np.zeros_like(logits)
    if vae.numeric_columns:
        cols = vae.numeric_columns
        diff = recon[:, cols] - X[:, cols]
        recon_loss += float(0.5 * np.sum((diff / vae.numeric_sigma) ** 2)) / n
        grad_logits[:, cols] = (
            diff / (vae.numeric_sigma**2) * recon[:, cols] * (1.0 - recon[:, cols])
        ) / n
    for start, stop in vae.categorical_blocks:
        probs = recon[:, start:stop]
        target = X[:, start:stop]
        recon_loss += float(-np.sum(target * np.log(np.clip(probs, 1e-12, None)))) / n
        grad_logits[:, start:stop] = (probs - target) / n

    kl = float(-0.5 * np.sum(1.0 + logvar - mu**2 - np.exp(logvar))) / n
    return recon_loss, kl, grad_logits, mu, logvar, eps, std


def fit(
    vae: TabularVAE,
    X: np.ndarray,
    epochs: int = 300,
    batch_size: int = 64,
    lr: float = 1e-3,
) -> TrainingTrace:
    """Train ``vae`` on ``X`` with the per-model loop (same contract as ``vae.fit``)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    optimizer = Adam(parameters(vae), lr=lr)
    n = X.shape[0]
    batch_size = max(1, min(batch_size, n))
    trace = TrainingTrace(loss=[], reconstruction=[], kl=[])
    batch_buf = np.empty((batch_size, X.shape[1]), dtype=float)

    for _ in range(epochs):
        order = vae.rng.permutation(n)
        epoch_recon, epoch_kl, batches = 0.0, 0.0, 0
        for start in range(0, n, batch_size):
            rows = min(batch_size, n - start)
            batch = batch_buf[:rows]
            np.take(X, order[start : start + rows], axis=0, out=batch)
            for _, grad in parameters(vae):
                grad[...] = 0.0
            recon_loss, kl, grad_logits, mu, logvar, eps, std = loss_and_grad(vae, batch)

            grad_z = vae.decoder.backward(grad_logits)
            grad_mu = grad_z + vae.beta * mu / rows
            grad_logvar = (
                grad_z * eps * 0.5 * std + vae.beta * 0.5 * (np.exp(logvar) - 1.0) / rows
            )
            grad_h = vae.mu_head.backward(grad_mu) + vae.logvar_head.backward(grad_logvar)
            vae.encoder.backward(grad_h)
            optimizer.step()

            epoch_recon += recon_loss
            epoch_kl += kl
            batches += 1
        trace.reconstruction.append(epoch_recon / batches)
        trace.kl.append(epoch_kl / batches)
        trace.loss.append(trace.reconstruction[-1] + vae.beta * trace.kl[-1])

    vae.fitted = True
    vae.trace = trace
    return trace
