"""Minimal MLP with exact reverse-mode gradients, SGD/Adam, and a binary
serialization format for trained policies.

Layers store (w, b, activation) with w shaped (out, in); batches are rows.
Forward caches pre-activations and activations for backward, which returns
per-layer (dw, db) for whatever upstream dLoss/dyhat the caller supplies.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

ACT_TAGS = {"linear": 0, "relu": 1, "tanh": 2, "sigmoid": 3}
TAG_ACTS = {v: k for k, v in ACT_TAGS.items()}
MAGIC = b"AVCB1"


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "linear":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    raise ValueError(f"unknown activation {kind!r}")


def _activate_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "linear":
        return np.ones_like(z)
    if kind == "relu":
        return (z > 0.0).astype(z.dtype)
    if kind == "tanh":
        return 1.0 - a * a
    if kind == "sigmoid":
        return a * (1.0 - a)
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class ForwardCache:
    x: np.ndarray
    zs: list[np.ndarray]
    acts: list[np.ndarray]


class Mlp:
    """Fully connected net; weights uniform +-1/sqrt(fan_in), biases zero."""

    def __init__(
        self,
        sizes: list[int],
        activations: list[str],
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if len(sizes) < 2:
            raise ValueError("need at least an input and an output size")
        if len(activations) != len(sizes) - 1:
            raise ValueError("need one activation per layer")
        for act in activations:
            if act not in ACT_TAGS:
                raise ValueError(f"unknown activation {act!r}")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self.sizes = list(sizes)
        self.activations = list(activations)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.parameters()])

    def set_flat(self, vec: np.ndarray) -> None:
        if vec.size != self.param_count():
            raise ValueError("flat vector size mismatch")
        pos = 0
        for p in self.parameters():
            p[...] = vec[pos : pos + p.size].reshape(p.shape)
            pos += p.size

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.sizes[0]:
            raise ValueError(f"expected input width {self.sizes[0]}, got {x.shape[1]}")
        a = x
        zs: list[np.ndarray] = []
        acts: list[np.ndarray] = []
        for w, b, kind in zip(self.weights, self.biases, self.activations):
            z = a @ w.T + b
            a = _activate(z, kind)
            zs.append(z)
            acts.append(a)
        return a, ForwardCache(x=x, zs=zs, acts=acts)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, cache: ForwardCache, dy: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (dw, db) for upstream gradient dy = dLoss/dyhat."""
        dy = np.atleast_2d(np.asarray(dy, dtype=np.float64))
        if len(cache.zs) != self.n_layers or dy.shape != cache.acts[-1].shape:
            raise ValueError("cache does not match this network/upstream gradient")
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * self.n_layers  # type: ignore
        da = dy
        for l in range(self.n_layers - 1, -1, -1):
            dz = da * _activate_grad(cache.zs[l], cache.acts[l], self.activations[l])
            a_prev = cache.acts[l - 1] if l > 0 else cache.x
            dw = dz.T @ a_prev
            db = dz.sum(axis=0)
            grads[l] = (dw, db)
            if l > 0:
                da = dz @ self.weights[l]
        return grads

    def clone(self) -> "Mlp":
        other = Mlp(self.sizes, self.activations, rng=0)
        for i in range(self.n_layers):
            other.weights[i] = self.weights[i].copy()
            other.biases[i] = self.biases[i].copy()
        return other


# ----------------------------------------------------------------- losses

_CE_CLIP = 1e-12


def loss(yhat: np.ndarray, y: np.ndarray, kind: str = "mse") -> float:
    """mse: mean squared error over elements.  cross_entropy: binary form
    for 1-wide outputs, multiclass -sum(y log yhat)/n for wider ones."""
    yhat = np.asarray(yhat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if yhat.shape != y.shape:
        raise ValueError(f"shape mismatch {yhat.shape} vs {y.shape}")
    if kind == "mse":
        d = yhat - y
        return float(np.mean(d * d))
    if kind == "cross_entropy":
        q = np.clip(yhat, _CE_CLIP, 1.0 - _CE_CLIP)
        if q.ndim == 2 and q.shape[1] > 1:
            return float(-np.sum(y * np.log(q)) / q.shape[0])
        return float(-np.mean(y * np.log(q) + (1.0 - y) * np.log(1.0 - q)))
    raise ValueError(f"unknown loss kind {kind!r}")


def loss_grad(yhat: np.ndarray, y: np.ndarray, kind: str = "mse") -> np.ndarray:
    yhat = np.asarray(yhat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if yhat.shape != y.shape:
        raise ValueError(f"shape mismatch {yhat.shape} vs {y.shape}")
    if kind == "mse":
        return 2.0 * (yhat - y) / yhat.size
    if kind == "cross_entropy":
        q = np.clip(yhat, _CE_CLIP, 1.0 - _CE_CLIP)
        if q.ndim == 2 and q.shape[1] > 1:
            return -(y / q) / q.shape[0]
        return (-(y / q) + (1.0 - y) / (1.0 - q)) / q.size
    raise ValueError(f"unknown loss kind {kind!r}")


# ------------------------------------------------------------- optimizers


def grad_list(layer_grads: list[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """Flatten backward()'s per-layer (dw, db) pairs into parameters() order."""
    return [g for pair in layer_grads for g in pair]


class AdamState:
    """Adam with bias correction; t increments before each update."""

    def __init__(
        self,
        params: list[np.ndarray],
        alpha: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        self.alpha = alpha
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.v = [np.zeros_like(p) for p in params]
        self.s = [np.zeros_like(p) for p in params]


def adam_step(state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
    """In-place four-equation update: EMAs, bias correction, scaled step."""
    if len(params) != len(state.v) or len(params) != len(grads):
        raise ValueError("parameter list does not match optimizer state")
    state.t += 1
    b1 = state.beta1
    b2 = state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for p, g, v, s in zip(params, grads, state.v, state.s):
        v *= b1
        v += (1.0 - b1) * g
        s *= b2
        s += (1.0 - b2) * g * g
        p -= state.alpha * (v / c1) / (np.sqrt(s / c2) + state.epsilon)


# ---------------------------------------------------------- serialization


def save_mlp(mlp: Mlp, path) -> None:
    """AVCB1 container: magic, layer count, per-layer (in, out, activation
    tag), then per-layer w and b as little-endian float64, row-major."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", mlp.n_layers))
        for i in range(mlp.n_layers):
            fh.write(struct.pack("<IIB", mlp.sizes[i], mlp.sizes[i + 1],
                                 ACT_TAGS[mlp.activations[i]]))
        for w, b in zip(mlp.weights, mlp.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_mlp(path) -> Mlp:
    with open(path, "rb") as fh:
        magic = fh.read(5)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        (n_layers,) = struct.unpack("<I", fh.read(4))
        if not 1 <= n_layers <= 64:
            raise ValueError(f"{path}: implausible layer count {n_layers}")
        dims: list[tuple[int, int]] = []
        acts: list[str] = []
        for _ in range(n_layers):
            fan_in, fan_out, tag = struct.unpack("<IIB", fh.read(9))
            if tag not in TAG_ACTS:
                raise ValueError(f"{path}: unknown activation tag {tag}")
            dims.append((fan_in, fan_out))
            acts.append(TAG_ACTS[tag])
        sizes = [dims[0][0]] + [d[1] for d in dims]
        for (fi, _), si in zip(dims, sizes):
            if fi != si:
                raise ValueError(f"{path}: inconsistent layer dimensions")
        mlp = Mlp(sizes, acts, rng=0)
        for i, (fan_in, fan_out) in enumerate(dims):
            w = np.frombuffer(fh.read(8 * fan_in * fan_out), dtype="<f8")
            if w.size != fan_in * fan_out:
                raise ValueError(f"{path}: truncated weight block")
            b = np.frombuffer(fh.read(8 * fan_out), dtype="<f8")
            if b.size != fan_out:
                raise ValueError(f"{path}: truncated bias block")
            mlp.weights[i] = w.reshape(fan_out, fan_in).astype(np.float64)
            mlp.biases[i] = b.astype(np.float64)
        return mlp
