"""The tabular variational autoencoder.

Architecture (following the TVAE of Xu et al., scaled to the size of the
autotuning histories):

* encoder: MLP ``input → hidden → hidden``, then two linear heads producing
  the latent mean ``µ`` and log-variance ``log σ²``;
* latent space: diagonal Gaussian with the reparameterisation trick;
* decoder: MLP ``latent → hidden → hidden → input``; numeric columns go
  through a sigmoid (they live in ``[0, 1]`` after the tabular transform) and
  are scored with a Gaussian reconstruction loss, categorical blocks go
  through a softmax and are scored with cross-entropy;
* loss: reconstruction + β · KL(q(z|x) ‖ N(0, I)), optimised with Adam.

Everything — forward pass, backward pass, training loop, sampling — is
implemented with NumPy; the gradients are verified against finite differences
in the test suite.

There is one training loop, :meth:`VAEFleet.fit`: ``K`` structurally
identical models trained in fused lock-step epochs over stacked
``(K, batch, dim)`` activations, one batched contraction per layer, with
every weight and gradient laid out in one flat buffer pair that one in-place
:class:`~repro.core.vae.optim.Adam` updates.  The categorical loss runs one
softmax/cross-entropy pass per distinct block width.  :meth:`TabularVAE.fit`
is a fleet of one.  Every member's weights, training trace and RNG state end
up **bitwise identical** to the per-model reference loop the test suite
keeps (``tests/reference/vae.py``) run with the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.vae.layers import Dense, DenseFleet, MLP, MLPFleet, flatten_parameters
from repro.core.vae.optim import Adam

__all__ = ["TabularVAE", "TrainingTrace", "VAEFleet", "vae_fleet_key"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Branch-free form of the overflow-safe logistic: 1/(1+e^-x) for x >= 0
    # and e^x/(1+e^x) below, both through e = exp(-|x|).  minimum(x, -x) is
    # -|x| that keeps a NaN's sign (minimum returns its first NaN operand).
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _softmax(x: np.ndarray) -> np.ndarray:
    # Normalise along the last axis, whatever the leading axes: per-row
    # arithmetic is the same for (batch, block) and stacked layouts.
    shifted = x - x.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def _loss_gathers(
    numeric: Sequence[int], blocks: Sequence[Tuple[int, int]], rows: int, dim: int
) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
    """Flat gather indices that lay a ``(rows, dim)`` minibatch out for the loss.

    ``np.take`` with these indices along a flattened ``(K, rows * dim)`` axis
    puts every member's loss operands in the order a per-model loop sums
    them, each as one contiguous run, so one reduction over the run's axis
    gives the per-model sum bit for bit:

    * the numeric index is ``[column, row]``: per member, column by column,
      the memory order of the ``X[:, numeric]`` operand a per-model loop
      sums;
    * each distinct categorical block width gets ``(positions, index)``:
      the block numbers of that width in block order, and
      ``index[block, row, column]``, one ``rows × width`` run per block.
    """
    row_offsets = dim * np.arange(rows)
    numeric_index = np.asarray(numeric, dtype=np.intp)[:, None] + row_offsets[None, :]
    gathers = []
    for width in dict.fromkeys(stop - start for start, stop in blocks):
        positions = [j for j, (start, stop) in enumerate(blocks) if stop - start == width]
        starts = np.array([blocks[j][0] for j in positions])
        index = (
            starts[:, None, None]
            + row_offsets[None, :, None]
            + np.arange(width)[None, None, :]
        )
        gathers.append((np.array(positions), index))
    return numeric_index, gathers


@dataclass
class TrainingTrace:
    """Per-epoch training diagnostics."""

    loss: List[float]
    reconstruction: List[float]
    kl: List[float]

    @property
    def final_loss(self) -> float:
        """Loss of the last epoch (inf if training never ran)."""
        return self.loss[-1] if self.loss else float("inf")


class TabularVAE:
    """A VAE over tabular rows produced by
    :class:`~repro.core.vae.transforms.TabularTransform`.

    Parameters
    ----------
    input_dim:
        Number of input columns.
    numeric_columns:
        Indices of the numeric (unit-interval) columns.
    categorical_blocks:
        ``(start, stop)`` ranges of the categorical one-hot blocks.
    latent_dim:
        Dimensionality of the latent Gaussian.
    hidden:
        Hidden-layer widths shared by encoder and decoder.
    beta:
        Weight of the KL term.
    numeric_sigma:
        Standard deviation of the Gaussian reconstruction model for numeric
        columns (smaller = sharper reconstructions).
    seed:
        Seed for weight initialisation, the reparameterisation noise and
        mini-batch shuffling.
    """

    def __init__(
        self,
        input_dim: int,
        numeric_columns: Sequence[int],
        categorical_blocks: Sequence[Tuple[int, int]],
        latent_dim: int = 8,
        hidden: Sequence[int] = (64, 64),
        beta: float = 1.0,
        numeric_sigma: float = 0.15,
        seed: int = 0,
    ):
        if input_dim < 1 or latent_dim < 1:
            raise ValueError("dimensions must be positive")
        if numeric_sigma <= 0:
            raise ValueError("numeric_sigma must be positive")
        self.input_dim = int(input_dim)
        self.latent_dim = int(latent_dim)
        self.numeric_columns = list(numeric_columns)
        self.categorical_blocks = [tuple(b) for b in categorical_blocks]
        self.beta = float(beta)
        self.numeric_sigma = float(numeric_sigma)
        self.rng = np.random.default_rng(seed)

        self.encoder = MLP.build(input_dim, hidden, hidden[-1], rng=self.rng)
        self.mu_head = Dense(hidden[-1], latent_dim, rng=self.rng)
        self.logvar_head = Dense(hidden[-1], latent_dim, rng=self.rng)
        self.decoder = MLP.build(latent_dim, hidden, input_dim, rng=self.rng)
        self.fitted = False
        self.trace: Optional[TrainingTrace] = None

    def _decode_activations(self, logits: np.ndarray) -> np.ndarray:
        """Apply sigmoid to numeric columns and softmax to categorical blocks."""
        out = np.empty_like(logits)
        if self.numeric_columns:
            cols = self.numeric_columns
            out[:, cols] = _sigmoid(logits[:, cols])
        for start, stop in self.categorical_blocks:
            out[:, start:stop] = _softmax(logits[:, start:stop])
        return out

    # -------------------------------------------------------------------- fit
    def fit(
        self,
        X: np.ndarray,
        epochs: int = 300,
        batch_size: int = 64,
        lr: float = 1e-3,
    ) -> TrainingTrace:
        """Train the VAE on the transformed rows ``X`` (a :class:`VAEFleet` of one)."""
        return VAEFleet([self]).fit([X], epochs=epochs, batch_size=batch_size, lr=lr)[0]

    # ----------------------------------------------------------------- sample
    def sample(self, n: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw ``n`` rows from the learned distribution (decoded activations)."""
        if not self.fitted:
            raise RuntimeError("the VAE has not been fitted")
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = rng or self.rng
        z = rng.standard_normal((n, self.latent_dim))
        logits = self.decoder.forward(z)
        return self._decode_activations(logits)

    def reconstruct(self, X: np.ndarray) -> np.ndarray:
        """Encode-decode ``X`` using the latent mean (no sampling noise)."""
        if not self.fitted:
            raise RuntimeError("the VAE has not been fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        h = self.encoder.forward(X)
        mu = self.mu_head.forward(h)
        logits = self.decoder.forward(mu)
        return self._decode_activations(logits)


# -------------------------------------------------------------------- fleets
def vae_fleet_key(
    vae: TabularVAE,
    n_rows: int,
    epochs: int,
    batch_size: int,
    lr: float = 1e-3,
) -> Tuple:
    """The training configuration a fused :class:`VAEFleet` pass must share.

    Fleet members stack their activations, so they need identical network
    structure, loss layout and per-epoch batch schedule.  Batch drivers
    (:class:`~repro.service.runner.CampaignRunner`) group due VAE refits by
    this key; :class:`VAEFleet` itself re-validates and rejects mixed fleets,
    so the two can never silently drift apart.
    """
    return (
        vae.input_dim,
        vae.latent_dim,
        tuple(layer.W.shape for layer in vae.encoder.layers if isinstance(layer, Dense)),
        tuple(layer.W.shape for layer in vae.decoder.layers if isinstance(layer, Dense)),
        tuple(type(layer).__name__ for layer in vae.encoder.layers),
        tuple(type(layer).__name__ for layer in vae.decoder.layers),
        tuple(vae.numeric_columns),
        tuple(vae.categorical_blocks),
        vae.beta,
        vae.numeric_sigma,
        int(n_rows),
        int(epochs),
        max(1, min(int(batch_size), int(n_rows))),
        float(lr),
    )


#: The member networks a fleet stacks, in the order it lays them out.
_NETWORKS = ("encoder", "mu_head", "logvar_head", "decoder")


class VAEFleet:
    """Train ``K`` independent :class:`TabularVAE`\\ s in fused lock-step epochs.

    The members' encoder/decoder stacks are fused into
    :class:`~repro.core.vae.layers.MLPFleet`\\ s (one stacked ``(K, in, out)``
    contraction per layer per step), every weight and gradient lives in one
    flat buffer pair, and one :class:`~repro.core.vae.optim.Adam` updates it;
    per-member RNG draws (epoch permutations, reparameterisation noise) come
    from each member's own generator in the member's own order.  Every
    member therefore finishes with weights, :class:`TrainingTrace` and RNG
    state bitwise identical to training it alone — the fleet only amortises
    the Python and NumPy dispatch overhead of the small per-layer operations
    across ``K`` models.

    Members must be structurally identical (architecture, loss layout) and
    train on datasets of equal shape with the same epochs/batch-size/learning
    rate — group heterogeneous refits with :func:`vae_fleet_key` first.

    Parameters
    ----------
    members:
        The (distinct, unfitted or refittable) member VAEs.
    """

    def __init__(self, members: Sequence[TabularVAE]):
        if not members:
            raise ValueError("need at least one member VAE")
        if len({id(m) for m in members}) != len(members):
            raise ValueError("each VAE may appear only once per fleet")
        self.members = list(members)
        first = self.members[0]
        for member in self.members[1:]:
            if (
                member.input_dim != first.input_dim
                or member.latent_dim != first.latent_dim
                or member.numeric_columns != first.numeric_columns
                or member.categorical_blocks != first.categorical_blocks
                or member.beta != first.beta
                or member.numeric_sigma != first.numeric_sigma
            ):
                raise ValueError("incompatible fleet member: architectures and loss layouts must match")

    @property
    def fleet_size(self) -> int:
        """Number of member VAEs."""
        return len(self.members)

    # -------------------------------------------------------------------- fit
    def fit(
        self,
        datasets: Sequence[np.ndarray],
        epochs: int = 300,
        batch_size: int = 64,
        lr: float = 1e-3,
    ) -> List[TrainingTrace]:
        """Train every member on its own dataset, in fused lock-step epochs.

        A pass that raises leaves every member as it found it: weights,
        RNG state, ``fitted`` and ``trace``.  A retry, fused or solo, then
        trains exactly as the first attempt would have.

        Parameters
        ----------
        datasets:
            One training matrix per member, all of equal shape
            ``(n, input_dim)``.
        epochs:
            Passes over each dataset.
        batch_size:
            Minibatch rows (capped at ``n``).
        lr:
            Adam learning rate.
        """
        if len(datasets) != len(self.members):
            raise ValueError(f"need {len(self.members)} datasets, got {len(datasets)}")
        mats = [np.atleast_2d(np.asarray(X, dtype=float)) for X in datasets]
        shape = mats[0].shape
        if any(X.shape != shape for X in mats):
            raise ValueError("fused fleet training requires datasets of equal shape")
        if shape[1] != self.members[0].input_dim:
            raise ValueError(f"expected {self.members[0].input_dim} columns, got {shape[1]}")
        if shape[0] < 1:
            raise ValueError("cannot train on an empty dataset")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        states = [member.rng.bit_generator.state for member in self.members]
        try:
            networks, traces = self._train(mats, epochs, batch_size, lr)
        except BaseException:
            for member, state in zip(self.members, states):
                member.rng.bit_generator.state = state
            raise
        # Member weights change only once the whole pass has succeeded.
        for name, fused in zip(_NETWORKS, networks):
            fused.write_back([getattr(member, name) for member in self.members])
        for member, trace in zip(self.members, traces):
            member.fitted = True
            member.trace = trace
        return traces

    def _train(
        self, mats: List[np.ndarray], epochs: int, batch_size: int, lr: float
    ) -> Tuple[List, List[TrainingTrace]]:
        """The fused training loop; returns the trained fleet networks and traces."""
        members = self.members
        K = len(members)
        n, dim = mats[0].shape
        first = members[0]
        latent = first.latent_dim
        batch_size = max(1, min(batch_size, n))
        numeric = first.numeric_columns
        beta = first.beta
        sigma = first.numeric_sigma
        num_blocks = len(first.categorical_blocks)

        encoder = MLPFleet.from_members([m.encoder for m in members])
        mu_head = DenseFleet.from_members([m.mu_head for m in members])
        logvar_head = DenseFleet.from_members([m.logvar_head for m in members])
        decoder = MLPFleet.from_members([m.decoder for m in members])
        dense = (
            [layer for layer in encoder.layers if isinstance(layer, DenseFleet)]
            + [mu_head, logvar_head]
            + [layer for layer in decoder.layers if isinstance(layer, DenseFleet)]
        )
        params, grads = flatten_parameters(dense)
        optimizer = Adam(params, grads, lr=lr)
        traces = [TrainingTrace(loss=[], reconstruction=[], kl=[]) for _ in members]

        # Flat per-step buffers: the stacked minibatch and the
        # reparameterisation noise stay C-contiguous for every batch length.
        batch_buf = np.empty(K * batch_size * dim)
        eps_buf = np.empty(K * batch_size * latent)
        # The loss gathers of each batch length.  A batch's reconstruction
        # terms sit in one row per member: the running total's 0.0 start
        # (column 0), the numeric term (column 1), then one column per block.
        layouts: Dict[int, Tuple] = {}
        for rows in {min(batch_size, n - start) for start in range(0, n, batch_size)}:
            numeric_index, gathers = _loss_gathers(numeric, first.categorical_blocks, rows, dim)
            layouts[rows] = (numeric_index, [(2 + positions, index) for positions, index in gathers])

        for _ in range(epochs):
            # Per-member draws in each member's own stream order (permutation
            # first, then one noise draw per minibatch).
            orders = [member.rng.permutation(n) for member in members]
            epoch_recon = np.zeros(K)
            epoch_kl = np.zeros(K)
            batches = 0
            for start in range(0, n, batch_size):
                rows = min(batch_size, n - start)
                xb = batch_buf[: K * rows * dim].reshape(K, rows, dim)
                eps = eps_buf[: K * rows * latent].reshape(K, rows, latent)
                for k, member in enumerate(members):
                    np.take(mats[k], orders[k][start : start + rows], axis=0, out=xb[k])
                for k, member in enumerate(members):
                    member.rng.standard_normal(out=eps[k])

                grads.fill(0.0)
                h = encoder.forward(xb)
                mu = mu_head.forward(h)
                logvar = np.clip(logvar_head.forward(h), -10.0, 10.0)
                std = np.exp(0.5 * logvar)
                z = mu + eps * std
                logits = decoder.forward(z)

                # Each batch's loss terms are summed per member in the order a
                # per-model loop adds its float scalars: numeric term, then one
                # per categorical block.  np.add.accumulate adds strictly left
                # to right, so the traces stay bit-identical.
                numeric_index, gathers = layouts[rows]
                terms = np.zeros((K, 2 + num_blocks))
                grad_logits = np.zeros_like(logits)
                flat_logits = logits.reshape(K, rows * dim)
                flat_x = xb.reshape(K, rows * dim)
                flat_grad = grad_logits.reshape(K, rows * dim)
                if numeric:
                    # (K, columns, rows).  d/dlogit of 0.5*((sigmoid(l)-x)/s)^2
                    # is (sigmoid-x)/s^2 * sigmoid'.
                    rec_num = _sigmoid(np.take(flat_logits, numeric_index, axis=1))
                    diff = rec_num - np.take(flat_x, numeric_index, axis=1)
                    flat_grad[:, numeric_index] = (
                        diff / (sigma**2) * rec_num * (1.0 - rec_num)
                    ) / rows
                    squares = ((diff / sigma) ** 2).reshape(K, -1)
                    terms[:, 1] = (0.5 * squares.sum(axis=1)) / rows
                for columns, index in gathers:
                    # (K, blocks, rows, width)
                    probs = _softmax(np.take(flat_logits, index, axis=1))
                    target = np.take(flat_x, index, axis=1)
                    flat_grad[:, index] = (probs - target) / rows
                    logp = np.log(np.clip(probs, 1e-12, None))
                    cross = (target * logp).reshape(K, len(columns), -1).sum(axis=2)
                    terms[:, columns] = -cross / rows
                kl_terms = (1.0 + logvar - mu**2 - np.exp(logvar)).reshape(K, -1)
                epoch_recon += np.add.accumulate(terms, axis=1)[:, -1]
                epoch_kl += (-0.5 * kl_terms.sum(axis=1)) / rows

                grad_z = decoder.backward(grad_logits)
                grad_mu = grad_z + beta * mu / rows
                grad_logvar = (
                    grad_z * eps * 0.5 * std
                    + beta * 0.5 * (np.exp(logvar) - 1.0) / rows
                )
                grad_h = mu_head.backward(grad_mu) + logvar_head.backward(grad_logvar)
                encoder.backward(grad_h)
                optimizer.step()
                batches += 1
            for k, trace in enumerate(traces):
                trace.reconstruction.append(float(epoch_recon[k]) / batches)
                trace.kl.append(float(epoch_kl[k]) / batches)
                trace.loss.append(trace.reconstruction[-1] + beta * trace.kl[-1])
        return [encoder, mu_head, logvar_head, decoder], traces
