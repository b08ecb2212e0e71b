"""Quantile convolutional network: dilated causal convolutions trained with
the pinball loss so every output position estimates a conditional quantile
of the next step.

The reference architecture has 6 hidden causal layers (8 filters, kernel 2,
rectifier, dilations 1,2,4,8,16,32) and a kernel-1 linear head, giving a
receptive field of 64 steps. Gradients are exact reverse-mode derivatives
specific to this architecture; at rectifier and pinball kinks the
zero/left-branch subgradient is used. Everything runs in double precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DEFAULT_WINDOW, Scaler, WindowSet, invert_scaler
from .errors import DomainError, InsufficientDataError, ShapeError

RECTIFIER = "rectifier"
IDENTITY = "identity"

CHECKPOINT_FORMAT = "qvar-qcnn"
CHECKPOINT_VERSION = 1


@dataclass
class ConvLayer:
    """One causal convolution: weights (out_channels, in_channels, kernel_size)."""

    weights: np.ndarray
    biases: np.ndarray
    dilation: int
    activation: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.biases = np.asarray(self.biases, dtype=float)
        if self.weights.ndim != 3:
            raise ShapeError(f"weights must be 3-d, got shape {self.weights.shape}")
        if self.weights.shape[2] < 1:
            raise DomainError("kernel size must be >= 1")
        if self.dilation < 1:
            raise DomainError("dilation must be >= 1")
        if self.biases.shape != (self.weights.shape[0],):
            raise ShapeError(
                f"biases shape {self.biases.shape} does not match "
                f"{self.weights.shape[0]} output channels"
            )
        if self.activation not in (RECTIFIER, IDENTITY):
            raise DomainError(f"unknown activation {self.activation!r}")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[2]


@dataclass
class QcnnModel:
    """A stack of causal conv layers plus a single-channel head, for one theta."""

    hidden_layers: list[ConvLayer]
    head: ConvLayer
    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise DomainError("quantile level must lie strictly inside (0, 1)")
        layers = [*self.hidden_layers, self.head]
        if layers[0].in_channels != 1:
            raise ShapeError("first layer must take a single input channel")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.in_channels != prev.out_channels:
                raise ShapeError(
                    f"layer expects {nxt.in_channels} input channels, "
                    f"previous layer emits {prev.out_channels}"
                )
        if self.head.out_channels != 1:
            raise ShapeError("head must emit a single channel")

    @property
    def layers(self) -> list[ConvLayer]:
        return [*self.hidden_layers, self.head]

    @property
    def receptive_field(self) -> int:
        return 1 + sum(l.dilation * (l.kernel_size - 1) for l in self.layers)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 128
    batch_size: int = 128
    seed: int = 0
    rho: float = 0.95
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise DomainError("epochs and batch_size must be >= 1")
        if not 0.0 < self.rho < 1.0:
            raise DomainError("rho must lie strictly inside (0, 1)")
        if not self.epsilon > 0:
            raise DomainError("epsilon must be positive")


def build_model(
    theta: float,
    rng: np.random.Generator | None = None,
    seed: int = 0,
    hidden_layers: int = 6,
    filters: int = 8,
    kernel_size: int = 2,
) -> QcnnModel:
    """The reference architecture with seeded uniform(+-sqrt(6/(fan_in+fan_out))) weights.

    Dilations double per layer (1, 2, 4, ...); the head is a kernel-1 linear
    filter. Biases start at zero.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    layers = []
    in_ch = 1
    for level in range(hidden_layers):
        layers.append(
            ConvLayer(
                weights=_glorot(rng, filters, in_ch, kernel_size),
                biases=np.zeros(filters),
                dilation=2**level,
                activation=RECTIFIER,
            )
        )
        in_ch = filters
    head = ConvLayer(
        weights=_glorot(rng, 1, in_ch, 1),
        biases=np.zeros(1),
        dilation=1,
        activation=IDENTITY,
    )
    return QcnnModel(hidden_layers=layers, head=head, theta=theta)


def _glorot(rng: np.random.Generator, out_ch: int, in_ch: int, kernel: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_ch * kernel + out_ch * kernel))
    return rng.uniform(-limit, limit, size=(out_ch, in_ch, kernel))


def model_parameters(model: QcnnModel) -> list[np.ndarray]:
    """Live parameter arrays in layer order: weights then biases per layer, head last."""
    params: list[np.ndarray] = []
    for layer in model.layers:
        params.append(layer.weights)
        params.append(layer.biases)
    return params


# ---------------------------------------------------------------------------
# forward / loss / backward
# ---------------------------------------------------------------------------


def causal_conv_forward(x, layer: ConvLayer):
    """Reference single-sequence causal convolution over (in_channels, T).

    output[t] uses inputs at t, t-d, ..., t-d(k-1); positions before the
    start count as zeros, so the output has the same length as the input.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[0] != layer.in_channels:
        raise ShapeError(
            f"expected input with {layer.in_channels} channels, got shape {x.shape}"
        )
    T = x.shape[1]
    k = layer.kernel_size
    z = np.zeros((layer.out_channels, T))
    for j in range(k):
        lag = (k - 1 - j) * layer.dilation
        if lag == 0:
            z += layer.weights[:, :, j] @ x
        elif lag < T:
            z[:, lag:] += layer.weights[:, :, j] @ x[:, :-lag]
    z += layer.biases[:, None]
    if layer.activation == RECTIFIER:
        return np.maximum(z, 0.0)
    return z


class _Workspace:
    """Preallocated buffers for one batch geometry; reused across steps."""

    def __init__(self, model: QcnnModel, batch: int, time: int):
        self.batch = batch
        self.time = time
        self.xcat: list[np.ndarray] = []
        self.act: list[np.ndarray] = []
        self.dxcat: list[np.ndarray] = []
        self.dz: list[np.ndarray] = []
        for layer in model.layers:
            k, cin, cout = layer.kernel_size, layer.in_channels, layer.out_channels
            self.xcat.append(np.zeros((k * cin, batch, time)))
            self.act.append(np.empty((cout, batch, time)))
            self.dxcat.append(np.empty((k * cin, batch, time)))
            self.dz.append(np.empty((cout, batch, time)))
        self.wcat: list[np.ndarray | None] = [None] * len(model.layers)


def _forward_batch(
    model: QcnnModel, X: np.ndarray, ws: _Workspace, stable: bool = False
) -> np.ndarray:
    """Batched forward over (batch, T) single-channel sequences; returns (batch, T).

    With stable=True the channel reduction runs through einsum, whose
    per-column summation order does not depend on the sequence length, so
    outputs at a given position are bitwise identical no matter how much
    future input follows. BLAS matmul (the fast default for training) may
    flip last bits in the final columns when lengths differ.
    """
    T = ws.time
    x = X[None]  # (1, batch, T)
    for i, layer in enumerate(model.layers):
        k, cin, cout = layer.kernel_size, layer.in_channels, layer.out_channels
        xc = ws.xcat[i]
        for j in range(k):
            lag = (k - 1 - j) * layer.dilation
            block = xc[j * cin : (j + 1) * cin]
            if lag == 0:
                block[:] = x
            elif lag >= T:
                block[:] = 0.0
            else:
                block[:, :, :lag] = 0.0
                block[:, :, lag:] = x[:, :, :-lag]
        wcat = layer.weights.transpose(0, 2, 1).reshape(cout, k * cin)
        ws.wcat[i] = wcat
        a = ws.act[i]
        if stable:
            np.einsum("oc,cn->on", wcat, xc.reshape(k * cin, -1), out=a.reshape(cout, -1))
        else:
            np.matmul(wcat, xc.reshape(k * cin, -1), out=a.reshape(cout, -1))
        a += layer.biases[:, None, None]
        if layer.activation == RECTIFIER:
            np.maximum(a, 0.0, out=a)
        x = a
    return x[0]


def pinball_loss(y, q, theta: float) -> float:
    """Mean quantile loss: theta*(y-q) where y >= q, (theta-1)*(y-q) where y < q."""
    if not 0.0 < theta < 1.0:
        raise DomainError("quantile level must lie strictly inside (0, 1)")
    y = np.asarray(y, dtype=float)
    q = np.asarray(q, dtype=float)
    if y.shape != q.shape:
        raise ShapeError(f"targets {y.shape} and forecasts {q.shape} differ in shape")
    diff = y - q
    return float(np.mean(np.where(diff >= 0, theta * diff, (theta - 1.0) * diff)))


def _loss_and_grads(model, X, Y, ws) -> tuple[float, list[np.ndarray]]:
    """Mean pinball loss over a batch and its exact parameter gradients."""
    theta = model.theta
    q = _forward_batch(model, X, ws)
    diff = Y - q
    loss = float(np.mean(np.where(diff >= 0, theta * diff, (theta - 1.0) * diff)))
    n = diff.size
    # left-branch subgradient at the kink: diff == 0 takes the theta branch
    dact = (np.where(diff >= 0, -theta, 1.0 - theta) / n)[None]

    layers = model.layers
    grads: list[np.ndarray | None] = [None] * (2 * len(layers))
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        k, cin, cout = layer.kernel_size, layer.in_channels, layer.out_channels
        if layer.activation == RECTIFIER:
            dz = ws.dz[i]
            np.multiply(dact, ws.act[i] > 0, out=dz)
        else:
            dz = dact
        dz2 = dz.reshape(cout, -1)
        dwcat = dz2 @ ws.xcat[i].reshape(k * cin, -1).T
        grads[2 * i] = np.ascontiguousarray(dwcat.reshape(cout, k, cin).transpose(0, 2, 1))
        grads[2 * i + 1] = dz2.sum(axis=1)
        if i == 0:
            break
        dxc = ws.dxcat[i]
        np.matmul(ws.wcat[i].T, dz2, out=dxc.reshape(k * cin, -1))
        # fold the taps back onto the previous layer's activations
        dprev = dxc[(k - 1) * cin : k * cin]
        T = ws.time
        for j in range(k - 1):
            lag = (k - 1 - j) * layer.dilation
            if lag < T:
                dprev[:, :, :-lag] += dxc[j * cin : (j + 1) * cin][:, :, lag:]
        dact = dprev
    return loss, grads


def _as_batch(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 2 and x.shape[0] == 1:
        x = x[0]
    if x.ndim != 1 or x.size < 1:
        raise ShapeError(f"expected a single-channel sequence, got shape {x.shape}")
    return x[None, :]


def _stable_forward(model: QcnnModel, X: np.ndarray) -> np.ndarray:
    # einsum dispatches a different kernel for single-column inputs, so pad
    # length-1 sequences with a trailing zero (causally invisible) and slice
    T = X.shape[1]
    if T == 1:
        X = np.concatenate([X, np.zeros((X.shape[0], 1))], axis=1)
    ws = _Workspace(model, X.shape[0], X.shape[1])
    return _forward_batch(model, X, ws, stable=True)[:, :T]


def forward(model: QcnnModel, x):
    """Per-timestep quantile forecasts for one sequence; output[t] targets step t+1.

    Accepts shape (T,) or (1, T) and returns (1, T).
    """
    X = _as_batch(x)
    return _stable_forward(model, X)[0][None, :]


def backward(model: QcnnModel, x, y) -> list[np.ndarray]:
    """Exact gradients of the mean pinball loss, ordered like model_parameters."""
    X = _as_batch(x)
    Y = _as_batch(y)
    if X.shape != Y.shape:
        raise ShapeError(f"input {X.shape} and target {Y.shape} lengths differ")
    ws = _Workspace(model, 1, X.shape[1])
    _, grads = _loss_and_grads(model, X[0][None], Y[0][None], ws)
    return grads


# ---------------------------------------------------------------------------
# adadelta
# ---------------------------------------------------------------------------


@dataclass
class AdadeltaState:
    """Exponential accumulators of squared gradients and squared updates."""

    sq_grad: list[np.ndarray]
    sq_update: list[np.ndarray]
    rho: float = 0.95
    epsilon: float = 1e-6

    @classmethod
    def for_params(cls, params, rho: float = 0.95, epsilon: float = 1e-6) -> "AdadeltaState":
        return cls(
            sq_grad=[np.zeros_like(p) for p in params],
            sq_update=[np.zeros_like(p) for p in params],
            rho=rho,
            epsilon=epsilon,
        )


def adadelta_step(params, grads, state: AdadeltaState):
    """One in-place update: delta = -sqrt(E[dx^2]+eps)/sqrt(E[g^2]+eps) * g.

    The squared-gradient accumulator is refreshed before the step and the
    squared-update accumulator after it, both with decay rho.
    """
    if not (len(params) == len(grads) == len(state.sq_grad) == len(state.sq_update)):
        raise ShapeError("parameter, gradient and accumulator counts differ")
    rho, eps = state.rho, state.epsilon
    for p, g, eg, ex in zip(params, grads, state.sq_grad, state.sq_update):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        eg *= rho
        eg += (1.0 - rho) * g * g
        delta = -np.sqrt(ex + eps) / np.sqrt(eg + eps) * g
        p += delta
        ex *= rho
        ex += (1.0 - rho) * delta * delta
    return params, state


# ---------------------------------------------------------------------------
# training and prediction
# ---------------------------------------------------------------------------


def train(
    windows: WindowSet,
    theta: float,
    cfg: TrainConfig,
    model: QcnnModel | None = None,
) -> QcnnModel:
    """Train a model on windowed sequences; deterministic for a fixed seed.

    Initialization and epoch shuffling both draw from one seeded generator.
    Batches of cfg.batch_size are cut from a fresh permutation each epoch and
    a final partial batch is used as-is.
    """
    inputs = np.ascontiguousarray(windows.inputs, dtype=float)
    targets = np.ascontiguousarray(windows.targets, dtype=float)
    n = len(inputs)
    if n == 0:
        raise InsufficientDataError("cannot train on an empty window set")
    rng = np.random.default_rng(cfg.seed)
    if model is None:
        model = build_model(theta, rng=rng)
    elif model.theta != theta:
        raise DomainError(f"model targets theta={model.theta}, asked to train at {theta}")
    params = model_parameters(model)
    state = AdadeltaState.for_params(params, cfg.rho, cfg.epsilon)
    time = inputs.shape[1]
    workspaces: dict[int, _Workspace] = {}
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo : lo + cfg.batch_size]
            batch = len(idx)
            ws = workspaces.get(batch)
            if ws is None:
                ws = workspaces.setdefault(batch, _Workspace(model, batch, time))
            _, grads = _loss_and_grads(model, inputs[idx], targets[idx], ws)
            adadelta_step(params, grads, state)
    return model


def quantile_path(model: QcnnModel, scaled_series):
    """Forward the whole scaled series once; element t forecasts step t+1.

    Uses the length-stable kernel, so truncating the series never changes
    earlier outputs, bit for bit.
    """
    return _stable_forward(model, _as_batch(scaled_series))[0]


def predict_var(model: QcnnModel, recent_scaled, scaler: Scaler, window: int = DEFAULT_WINDOW) -> float:
    """One-day-ahead VaR from the last `window` scaled returns.

    VaR = -(scaled quantile forecast at the last position, unscaled); the
    value can come out negative when the forecast return quantile is
    positive.
    """
    recent = np.asarray(recent_scaled, dtype=float)
    if recent.ndim == 2 and recent.shape[0] == 1:
        recent = recent[0]
    if recent.shape != (window,):
        raise ShapeError(f"expected the last {window} scaled returns, got shape {recent.shape}")
    q = quantile_path(model, recent)[-1]
    return float(-invert_scaler(q, scaler))


def predict_var_series(model: QcnnModel, scaled_returns, scaler: Scaler, start: int):
    """VaR forecasts for days start..n-1 from one causal pass over the series.

    The forecast for day t only sees scaled returns up to t-1, so truncating
    the series after any day leaves earlier forecasts unchanged.
    """
    scaled = np.asarray(scaled_returns, dtype=float)
    if not 0 < start < scaled.size + 1:
        raise DomainError(f"start index {start} outside (0, {scaled.size}]")
    q = quantile_path(model, scaled)
    return -invert_scaler(q[start - 1 : scaled.size - 1], scaler)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_model(model: QcnnModel, path: str | Path) -> None:
    """Write a versioned JSON checkpoint; byte-stable for a given model.

    Layers are stored in order with their dilation schedule and row-major
    flattened weights; floats round-trip exactly through their shortest
    decimal representation.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "theta": model.theta,
        "layers": [
            {
                "kind": "hidden" if i < len(model.hidden_layers) else "head",
                "out_channels": layer.out_channels,
                "in_channels": layer.in_channels,
                "kernel_size": layer.kernel_size,
                "dilation": layer.dilation,
                "activation": layer.activation,
                "weights": layer.weights.ravel().tolist(),
                "biases": layer.biases.tolist(),
            }
            for i, layer in enumerate(model.layers)
        ],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_model(path: str | Path) -> QcnnModel:
    """Read a checkpoint written by save_model."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise DomainError(f"{path}: not a {CHECKPOINT_FORMAT} checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise DomainError(f"{path}: unsupported checkpoint version {payload.get('version')}")
    hidden = []
    head = None
    for spec in payload["layers"]:
        layer = ConvLayer(
            weights=np.array(spec["weights"], dtype=float).reshape(
                spec["out_channels"], spec["in_channels"], spec["kernel_size"]
            ),
            biases=np.array(spec["biases"], dtype=float),
            dilation=spec["dilation"],
            activation=spec["activation"],
        )
        if spec["kind"] == "head":
            head = layer
        else:
            hidden.append(layer)
    if head is None:
        raise DomainError(f"{path}: checkpoint has no head layer")
    return QcnnModel(hidden_layers=hidden, head=head, theta=payload["theta"])
