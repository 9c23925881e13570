"""A reference for what a run records, written with plain numpy and sharing
no code with the engine in fedper.nn: one client, one set, one batch, one
2-D array at a time.  Training takes its gradients from its own backward
pass, in the engine's order of operations, and its batches from
helpers.minibatch_indices on each client's own rng substream; from fedper
it imports only fedper.rng, for those streams."""

from __future__ import annotations

import hashlib

import numpy as np

import fedper.rng as rngmod
from helpers import minibatch_indices


def forward(layers, activations, x: np.ndarray) -> list[np.ndarray]:
    """x, then each layer's output, of the model whose layers are the (W, b)
    pairs of layers, each followed by its activation ("relu" or
    "identity"): z @ W.T + b, then max(z, 0) under a relu."""
    out = [x]
    for (w, b), activation in zip(layers, activations):
        z = out[-1] @ w.T + b
        out.append(np.maximum(z, 0.0) if activation == "relu" else z)
    return out


def gradients(layers, activations, x: np.ndarray, y: np.ndarray, first: int = 0) -> list:
    """(dW, db) of the batch's mean cross-entropy for layers[first:]: the
    delta is exp(z - max), divided by its row sums, minus the one-hot
    label, divided by the batch size; then, from the last layer back, it is
    masked by a > 0 under a relu, gives delta.T @ (the layer's input) and
    delta.sum(axis=0), and becomes delta @ W for the layer below."""
    a = forward(layers, activations, x)
    e = np.exp(a[-1] - a[-1].max(axis=1, keepdims=True))
    delta = (e / e.sum(axis=1, keepdims=True) - np.eye(e.shape[1])[y]) / len(x)
    grads = []
    for i in range(len(layers) - 1, first - 1, -1):
        if activations[i] == "relu":
            delta = delta * (a[i + 1] > 0.0)
        grads.append((delta.T @ a[i], delta.sum(axis=0)))
        delta = delta @ layers[i][0]
    return grads[::-1]


def score(layers, activations, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Accuracy and mean cross-entropy of the model forward() runs, on the
    rows x with labels y.  Accuracy takes the argmax of the logits (the
    lowest class on a tie); the loss of a row is
    log(sum(exp(z - max))) + max - z[label]."""
    z = forward(layers, activations, x)[-1]
    top = z.max(axis=1)
    losses = np.log(np.exp(z - top[:, None]).sum(axis=1)) + top - z[np.arange(len(y)), y]
    return float((np.argmax(z, axis=1) == y).mean()), float(losses.mean())


def init(layer_specs, gen: np.random.Generator) -> list:
    """Per layer, W uniform on +-sqrt(6 / (fan_in + fan_out)) and b zero."""
    out = []
    for s in layer_specs:
        limit = np.sqrt(6.0 / (s.in_dim + s.out_dim))
        out.append((gen.uniform(-limit, limit, size=(s.out_dim, s.in_dim)), np.zeros(s.out_dim)))
    return out


def local_sgd(spec, base, personal, data, eta, epochs, batch_size, gen, personal_only=False):
    """Copies of base and personal after epochs of mini-batch SGD on data,
    one batch at a time: per epoch the batches of minibatch_indices on gen,
    each a step w -= eta * g of the layers it trains (the personal ones
    only, if personal_only) with g from gradients()."""
    layers = [(w.copy(), b.copy()) for w, b in base + personal]
    activations = [s.activation for s in spec.layers]
    first = spec.k_base if personal_only else 0
    for _ in range(epochs):
        for idx in minibatch_indices(len(data), batch_size, gen):
            grads = gradients(layers, activations, data.X[idx], data.y[idx], first)
            for (w, b), (gw, gb) in zip(layers[first:], grads):
                w -= eta * gw
                b -= eta * gb
    return layers[: spec.k_base], layers[spec.k_base :]


def checksum(layers) -> str:
    """SHA-256 of each layer's W then b, as little-endian float64."""
    return hashlib.sha256(b"".join(np.asarray(a, dtype="<f8").tobytes() for wb in layers for a in wb)).hexdigest()


def aggregate(updates, gammas):
    """w_0 + sum_j g_j (w_j - w_0) over the updates w_j, weight lists given
    in client order with their weights g_j: a copy of w_0, then update by
    update from j = 1 on, each array += g_j * (w_j - w_0)."""
    out = [(w.copy(), b.copy()) for w, b in updates[0]]
    for update, g in zip(updates[1:], gammas[1:]):
        for (w, b), (wj, bj), (w0, b0) in zip(out, update, updates[0]):
            w += g * (wj - w0)
            b += g * (bj - b0)
    return out


def federation(cfg, client_data):
    """A run of cfg on client_data, the (train, test) sets of each client,
    one client at a time.  Each round every client fine-tunes its personal
    layers for one epoch (if cfg.fine_tune and it has any) and then trains
    base and personal layers, each pass on its own stream; the new base is
    aggregate of the clients' updates with g_j = n_j / sum(n); then each
    client is scored with it.  Returns per round (base checksum, per
    client (test accuracy, training loss)), and each client's final
    personal layers."""
    spec, seed, sgd = cfg.spec, cfg.master_seed, cfg.sgd
    sizes = [len(train) for train, _ in client_data]
    gammas = [n / sum(sizes) for n in sizes]
    base = init(spec.base_layers, rngmod.substream(seed, rngmod.SERVER_PARTY, 0, rngmod.INIT))
    personals = [
        init(spec.personal_layers, rngmod.substream(seed, rngmod.client_party(j), 0, rngmod.INIT))
        for j in range(len(client_data))
    ]
    activations = [s.activation for s in spec.layers]
    records = []
    for round_idx in range(1, cfg.rounds + 1):
        updates = []
        for j, (train, _) in enumerate(client_data):
            def stream(purpose):
                return rngmod.substream(seed, rngmod.client_party(j), round_idx, purpose)

            if cfg.fine_tune and spec.k_personal >= 1:
                _, personals[j] = local_sgd(
                    spec, base, personals[j], train, sgd.eta, 1, sgd.batch_size, stream(rngmod.FINE_TUNE), True
                )
            update, personals[j] = local_sgd(
                spec, base, personals[j], train, sgd.eta, sgd.epochs, sgd.batch_size, stream(rngmod.SGD)
            )
            updates.append(update)
        base = aggregate(updates, gammas)
        scores = [
            (score(base + p, activations, test.X, test.y)[0], score(base + p, activations, train.X, train.y)[1])
            for p, (train, test) in zip(personals, client_data)
        ]
        records.append((checksum(base), scores))
    return records, personals
