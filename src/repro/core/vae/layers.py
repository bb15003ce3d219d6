"""Dense layers, activations and MLP container with manual backpropagation.

The networks used by the tabular VAE are small (two hidden layers of 64-128
units, a few thousand training rows at most), so a straightforward NumPy
implementation with explicit forward/backward methods is both sufficient and
easy to verify — the test suite checks the analytic gradients against finite
differences.

Two families of layers live here:

* the scalar family (:class:`Dense`, :class:`MLP`) — one network, 2-D
  activations ``(batch, features)``;
* the fleet family (:class:`DenseFleet`, :class:`MLPFleet`) — ``K``
  independent networks advanced in lock step, with stacked ``(K, in, out)``
  weights driven by one batched contraction (``np.matmul`` over the stacked
  operands) per layer.  Each stacked slice sees exactly the 2-D problem a
  solo layer would, so fleet activations and gradients are **bitwise
  identical** per member to running the members one by one — the property
  the fused :class:`~repro.core.vae.tvae.VAEFleet` training relies on.
  :func:`flatten_parameters` re-homes a fleet's weights and gradients in one
  flat buffer pair, so one optimiser call and one ``fill`` serve every
  layer.

The elementwise activations (:class:`ReLU`, :class:`Tanh`) are shape-agnostic
and shared by both families.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Layer", "Dense", "ReLU", "Tanh", "MLP", "DenseFleet", "MLPFleet", "flatten_parameters",
]


class Layer:
    """Base class: a differentiable transformation with learnable parameters."""

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def parameters(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """List of ``(parameter, gradient)`` array pairs (updated in place)."""
        return []

    def zero_grad(self) -> None:
        """Reset accumulated gradients to zero."""
        for _, grad in self.parameters():
            grad[...] = 0.0


class Dense(Layer):
    """Affine layer ``y = x W + b`` with Xavier/Glorot initialisation."""

    def __init__(self, in_dim: int, out_dim: int, rng: Optional[np.random.Generator] = None):
        if in_dim < 1 or out_dim < 1:
            raise ValueError("layer dimensions must be positive")
        rng = rng or np.random.default_rng()
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        self.W = rng.uniform(-limit, limit, size=(in_dim, out_dim))
        self.b = np.zeros(out_dim)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.W + self.b

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.dW += self._x.T @ grad_output
        self.db += grad_output.sum(axis=0)
        return grad_output @ self.W.T

    def parameters(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        return [(self.W, self.dW), (self.b, self.db)]


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


class Tanh(Layer):
    """Hyperbolic tangent activation."""

    def __init__(self) -> None:
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_output * (1.0 - self._out**2)


class MLP(Layer):
    """A simple sequential stack of layers."""

    def __init__(self, layers: Sequence[Layer]):
        self.layers = list(layers)

    @classmethod
    def build(
        cls,
        in_dim: int,
        hidden: Sequence[int],
        out_dim: int,
        rng: Optional[np.random.Generator] = None,
        activation: str = "relu",
    ) -> "MLP":
        """Construct ``in_dim → hidden… → out_dim`` with the given activation."""
        act = {"relu": ReLU, "tanh": Tanh}[activation]
        layers: List[Layer] = []
        prev = in_dim
        for width in hidden:
            layers.append(Dense(prev, width, rng))
            layers.append(act())
            prev = width
        layers.append(Dense(prev, out_dim, rng))
        return cls(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        params: List[Tuple[np.ndarray, np.ndarray]] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params


# --------------------------------------------------------------------- fleets
class DenseFleet(Layer):
    """``K`` independent :class:`Dense` layers with stacked weights.

    The weights live in one ``(K, in, out)`` array (bias ``(K, out)``) and a
    forward pass contracts the whole fleet at once:
    ``y = matmul(x, W) + b[:, None, :]`` over activations of shape
    ``(K, batch, in)``.  NumPy's stacked ``matmul`` runs the same 2-D kernel
    per slice as ``x[k] @ W[k]``, so every member's outputs and gradients are
    bitwise identical to a solo :class:`Dense` seeing the same inputs.
    """

    def __init__(self, W: np.ndarray, b: np.ndarray):
        W = np.asarray(W, dtype=float)
        b = np.asarray(b, dtype=float)
        if W.ndim != 3 or b.ndim != 2 or W.shape[0] != b.shape[0] or W.shape[2] != b.shape[1]:
            raise ValueError("DenseFleet needs W of shape (K, in, out) and b of shape (K, out)")
        self.W = W
        self.b = b
        self.dW = np.zeros_like(W)
        self.db = np.zeros_like(b)
        self._x: Optional[np.ndarray] = None

    @classmethod
    def from_members(cls, members: Sequence[Dense]) -> "DenseFleet":
        """Stack the weights of ``K`` compatible :class:`Dense` layers."""
        if not members:
            raise ValueError("need at least one member layer")
        shape = members[0].W.shape
        if any(m.W.shape != shape for m in members):
            raise ValueError("all member layers must share the same (in, out) shape")
        return cls(np.stack([m.W for m in members]), np.stack([m.b for m in members]))

    def write_back(self, members: Sequence[Dense]) -> None:
        """Copy the trained stacked weights back into the member layers."""
        if len(members) != self.W.shape[0]:
            raise ValueError("member count does not match the fleet size")
        for k, member in enumerate(members):
            member.W[...] = self.W[k]
            member.b[...] = self.b[k]
            member.dW[...] = self.dW[k]
            member.db[...] = self.db[k]

    @property
    def fleet_size(self) -> int:
        """Number of member layers."""
        return self.W.shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return np.matmul(x, self.W) + self.b[:, None, :]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.dW += np.matmul(self._x.transpose(0, 2, 1), grad_output)
        self.db += grad_output.sum(axis=1)
        return np.matmul(grad_output, self.W.transpose(0, 2, 1))

    def parameters(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        return [(self.W, self.dW), (self.b, self.db)]


class MLPFleet(Layer):
    """``K`` independent :class:`MLP` stacks advanced in lock step.

    Built from member MLPs of identical structure: every :class:`Dense` level
    becomes one :class:`DenseFleet`, elementwise activations are shared as-is
    (they are shape-agnostic and stateless between members).
    """

    def __init__(self, layers: Sequence[Layer]):
        self.layers = list(layers)

    @classmethod
    def from_members(cls, members: Sequence[MLP]) -> "MLPFleet":
        """Stack ``K`` structurally identical member MLPs."""
        if not members:
            raise ValueError("need at least one member MLP")
        depth = len(members[0].layers)
        if any(len(m.layers) != depth for m in members):
            raise ValueError("all member MLPs must have the same depth")
        layers: List[Layer] = []
        for level in range(depth):
            level_layers = [m.layers[level] for m in members]
            kinds = {type(layer) for layer in level_layers}
            if len(kinds) != 1:
                raise ValueError(f"mixed layer types at level {level}: {sorted(k.__name__ for k in kinds)}")
            if isinstance(level_layers[0], Dense):
                layers.append(DenseFleet.from_members(level_layers))
            else:
                # Elementwise activation: stateless between calls, reuse the type.
                layers.append(type(level_layers[0])())
        return cls(layers)

    def write_back(self, members: Sequence[MLP]) -> None:
        """Copy the trained stacked weights back into the member MLPs."""
        for level, layer in enumerate(self.layers):
            if isinstance(layer, DenseFleet):
                layer.write_back([m.layers[level] for m in members])

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        params: List[Tuple[np.ndarray, np.ndarray]] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params


def flatten_parameters(layers: Sequence[DenseFleet]) -> Tuple[np.ndarray, np.ndarray]:
    """Lay the layers' weights and gradients out in one flat buffer pair.

    Every layer's ``W``, ``b``, ``dW`` and ``db`` become views into one
    parameter buffer and one gradient buffer, in layer order.  Each array
    keeps its own contiguous ``(K, in, out)``/``(K, out)`` block, the layout
    ``np.stack`` gives, so the stacked contractions see the same operands.
    The current weights are copied in and the gradients start at zero.

    Returns ``(params, grads)``: one optimiser call over the pair updates
    every layer, and ``grads.fill(0.0)`` zeroes every gradient.
    """
    size = sum(layer.W.size + layer.b.size for layer in layers)
    params = np.empty(size)
    grads = np.zeros(size)
    offset = 0
    for layer in layers:
        views = []
        for array in (layer.W, layer.b):
            end = offset + array.size
            view = params[offset:end].reshape(array.shape)
            view[...] = array
            views.append((view, grads[offset:end].reshape(array.shape)))
            offset = end
        (layer.W, layer.dW), (layer.b, layer.db) = views
    return params, grads
