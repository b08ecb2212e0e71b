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

from .config import TrainConfig, check_quantile_level
from .data import Scaler, WindowSet, invert_scaler
from .errors import DomainError, InsufficientDataError, ShapeError

RECTIFIER = "rectifier"
IDENTITY = "identity"
HIDDEN_LAYERS = 6
FILTERS = 8
KERNEL_SIZE = 2

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
        check_quantile_level(self.theta)
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


def build_model(
    theta: float, rng: np.random.Generator | None = None, seed: int = 0
) -> QcnnModel:
    """The reference architecture with seeded uniform(+-sqrt(6/(fan_in+fan_out))) weights.

    Dilations double per layer (1, 2, 4, ...); the head is a kernel-1 linear
    filter. Biases start at zero.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    layers = []
    in_ch = 1
    for level in range(HIDDEN_LAYERS):
        layers.append(
            ConvLayer(
                weights=_glorot(rng, FILTERS, in_ch, KERNEL_SIZE),
                biases=np.zeros(FILTERS),
                dilation=2**level,
                activation=RECTIFIER,
            )
        )
        in_ch = FILTERS
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


# A training step runs forward and backward over consecutive sub-batches of
# this many sequence positions (at least one whole sequence). Each layer's
# buffers then stay in L2 cache instead of streaming a whole batch through L3
# on every pass, and each product stays small enough that OpenBLAS runs it on
# one thread even where a caller leaves OpenBLAS threaded (the `qvar` command
# pins it to one); threading whole-batch products doubled CPU time for no gain.
SUB_BATCH_COLUMNS = 2048


class _Buffers:
    """Per-layer buffers for up to size[i] columns of layer i, viewed by lay.

    lay(model, m, widths) views them for m sequences in which layer i
    computes positions 0..widths[i]-1, position-major: column t*m + w holds
    position t of sequence w, so a lag of d positions is a shift of d*m
    columns that never crosses into another sequence. Layer i reads xin[i],
    shape (k*cin + 1, widths[i]*m): its k taps, oldest first and the current
    one last, then a constant row of ones that adds the bias through the
    matmul with wfull[i] = [weights by tap | biases]. It writes its output
    straight into out[i], the first widths[i]*m columns of layer i+1's
    current tap (the head writes into q), so a rectifier layer's activations
    are the next layer's current tap. Where layer i+1 has no more positions,
    out[i] is its whole current tap and stays contiguous: numpy's elementwise
    loops run about three times slower on a column slice of a wider buffer.
    The first lag*m columns of a lagged tap are zeroed by lay and never written.
    Backward passes write input gradients into the workspace's shared dx pair.
    """

    def __init__(self, model: QcnnModel, size: list[int]):
        self.shape = None
        taps = [l.kernel_size * l.in_channels for l in model.layers]
        self.flat = [np.empty((kc + 1) * c) for kc, c in zip(taps, size)]
        self.q = np.empty(size[-1])

    def lay(self, model: QcnnModel, m: int, widths: tuple[int, ...]) -> None:
        """View the buffers for m sequences of these widths (a no-op if they already are)."""
        if self.shape == (m, widths):
            return
        self.xin: list[np.ndarray] = []
        self.cur: list[np.ndarray] = []
        for layer, n, flat in zip(model.layers, widths, self.flat):
            k, cin = layer.kernel_size, layer.in_channels
            xin = flat[: (k * cin + 1) * n * m].reshape(k * cin + 1, n * m)
            xin[-1] = 1.0
            for j in range(k - 1):
                xin[j * cin : (j + 1) * cin, : (k - 1 - j) * layer.dilation * m] = 0.0
            self.xin.append(xin)
            self.cur.append(xin[(k - 1) * cin : k * cin])
        self.out = [cur[:, : n * m] for cur, n in zip(self.cur[1:], widths)]
        self.out.append(self.q[: widths[-1] * m].reshape(1, -1))
        self.shape = (m, widths)


class _Workspace:
    """Preallocated buffers for sub-batches of up to `cols` sequence positions,
    reused across training steps and sequence lengths.

    wfull[i] holds layer i's parameters packed as [weights by tap | biases],
    copied from the model once, here, and grad[i] their gradient. The wfull[i]
    lie end to end in packed and the grad[i] in packed_grad, so training
    updates packed in place and the model's arrays go untouched.
    `main` runs whole windows and series passes: a sub-batch of sequences of
    length T <= cols holds cols // T of them, and every layer computes all T
    positions. `prefix` runs the prefix of a two-pass step (see _step_blocks)
    and keeps the series pass's activations in `main` alive. Layer i's
    output in a zero-padded window differs from the series pass's only at
    positions 0..reach[i]-1, so there layer i computes reach[i] positions.
    The prefix runs in groups of at most prefix_group windows, which compute
    no more layer-columns than a sub-batch. shared[i] collects the prefix's
    gradient on the series pass's input to layer i, laid out like that
    input's (cin, cols) rows. dx is the pair of input-gradient buffers that
    main and prefix share: layer i's backward writes its taps' gradient into
    dx[i % 2] while its incoming gradient, from layer i+1, lies in the
    other, and a prefix's backward ends before main's begins. Each holds the
    largest k*cin*columns of its layers in either pass.
    """

    def __init__(self, model: QcnnModel, cols: int):
        layers = model.layers
        self.cols = cols
        shapes = [(l.out_channels, l.kernel_size * l.in_channels + 1) for l in layers]
        self.packed = np.empty(sum(a * b for a, b in shapes))
        self.packed_grad = np.empty_like(self.packed)
        self.wfull, self.grad, at = [], [], 0
        for layer, shape in zip(layers, shapes):
            w = self.packed[at : at + shape[0] * shape[1]].reshape(shape)
            w[:, :-1] = layer.weights.transpose(0, 2, 1).reshape(shape[0], -1)
            w[:, -1] = layer.biases
            self.wfull.append(w)
            self.grad.append(self.packed_grad[at : at + w.size].reshape(shape))
            at += w.size
        self.reach = tuple(np.cumsum([l.dilation * (l.kernel_size - 1) for l in layers]).tolist())
        self.prefix_group = max(len(layers) * cols // max(sum(self.reach), 1), 1)
        self.shared = [np.empty(l.in_channels * cols) for l in layers]
        self.main = _Buffers(model, [cols] * len(layers))
        self.prefix = _Buffers(model, [n * self.prefix_group for n in self.reach])
        sizes = [max(cols, n * self.prefix_group) for n in self.reach]
        need = [l.kernel_size * l.in_channels * c for l, c in zip(layers, sizes)]
        self.dx = [np.empty(max(need[parity::2])) for parity in (0, 1)]


def _unpacked(model: QcnnModel, per_layer_packed) -> list[np.ndarray]:
    """New C-contiguous arrays shaped like model_parameters(model), in its
    order, from per-layer packed rows [weights by tap | biases]."""
    params = []
    for layer, w in zip(model.layers, per_layer_packed):
        cout, cin, k = layer.weights.shape
        params.append(w[:, :-1].reshape(cout, k, cin).transpose(0, 2, 1).copy())
        params.append(w[:, -1].copy())
    return params


def _forward(model, ws, buf, m, widths, x=None, stable=False, at=None) -> np.ndarray:
    """Forward m sequences through buf, laid out for widths; returns the head's (1, widths[-1]*m).

    The input is x, shape (m, widths[0]), or with `at`, gathered from
    ws.main: from position widths[i-1] on (every position for layer 0),
    column c of layer i's input is column at[c] of the main pass's input to
    layer i. Reads the parameters from ws.wfull. With stable=True the
    channel reduction runs through einsum, whose per-column summation order
    does not depend on the sequence length, so outputs at a given position
    are bitwise identical no matter how much future input follows;
    prediction uses it. Training uses BLAS matmul, which may flip last bits
    in the final columns when lengths differ.
    """
    buf.lay(model, m, widths)
    if x is not None:
        buf.cur[0].reshape(-1, m)[:] = x.T
    n0 = 0
    for i, (layer, n1) in enumerate(zip(model.layers, widths)):
        k, cin = layer.kernel_size, layer.in_channels
        xin, cur = buf.xin[i], buf.cur[i]
        if at is not None:
            cur[:, n0 * m : n1 * m] = np.take(ws.main.cur[i], at[n0 * m : n1 * m], axis=1)
        for j in range(k - 1):
            lag = (k - 1 - j) * layer.dilation
            if lag < n1:
                xin[j * cin : (j + 1) * cin, lag * m :] = cur[:, : (n1 - lag) * m]
        out = buf.out[i]
        if stable:
            np.einsum("oc,cn->on", ws.wfull[i], xin, out=out)
        else:
            np.matmul(ws.wfull[i], xin, out=out)
        if layer.activation == RECTIFIER:
            np.maximum(out, 0.0, out=out)
        n0 = n1
    return buf.out[-1]


def pinball_loss(y, q, theta: float) -> float:
    """Mean quantile loss: theta*(y-q) where y >= q, (theta-1)*(y-q) where y < q."""
    check_quantile_level(theta)
    y = np.asarray(y, dtype=float)
    q = np.asarray(q, dtype=float)
    if y.shape != q.shape:
        raise ShapeError(f"targets {y.shape} and forecasts {q.shape} differ in shape")
    diff = y - q
    return float(np.mean(np.where(diff >= 0, theta * diff, (theta - 1.0) * diff)))


def _pinball_terms(diff, w, theta: float, n: int):
    """sum(w * pinball(diff)) and its gradient with respect to the forecasts, divided by n."""
    loss = float(np.sum(w * np.where(diff >= 0, theta * diff, (theta - 1.0) * diff)))
    # left-branch subgradient at the kink: diff == 0 takes the theta branch
    return loss, np.where(diff >= 0, -theta, 1.0 - theta) * w / n


def _backward(model, ws, buf, m, widths, dact, at=None, shared=False) -> None:
    """Backpropagate dact, the loss gradient on the head's output in buf, through every layer.

    Layer i's weight gradient is added to ws.grad[i]. With `shared`, the
    gradient on each layer's input adds ws.shared[i] before the mask of the
    layer that output it. With `at` (see _forward), the gradient on the
    gathered columns is scattered into ws.shared for the main pass's
    backward to add.
    """
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        k, cin = layer.kernel_size, layer.in_channels
        cols = widths[i] * m
        if layer.activation == RECTIFIER:
            np.multiply(dact, buf.out[i] > 0, out=dact)
        ws.grad[i] += dact @ buf.xin[i].T
        if i == 0:
            break
        # one flat row per tap, so that the fold below adds contiguous runs
        dx = ws.dx[i % 2][: k * cin * cols].reshape(k, cin * cols)
        np.matmul(ws.wfull[i][:, :-1].T, dact, out=dx.reshape(k * cin, cols))
        # fold the lagged taps back onto the previous layer's activations: zero
        # each tap's gradient at its padded columns, then a single shifted add
        # over the flattened rows carries the rest and adds only zeros across
        # rows; an add over a 2-d column slice of the rows ran about 4x slower
        dprev = dx[k - 1]
        for j in range(k - 1):
            lag = (k - 1 - j) * layer.dilation * m
            if lag < cols:
                dx[j].reshape(cin, cols)[:, :lag] = 0.0
                dprev[:-lag] += dx[j, lag:]
        if shared:
            dprev += ws.shared[i][: cin * cols]
        dact = dprev.reshape(cin, cols)
        if at is not None:
            n0 = widths[i - 1] * m
            # windows start at distinct columns, but one series column can be
            # several windows' positions, so repeated indices must add up
            spots = at[n0:cols] + ws.main.cur[i].shape[1] * np.arange(cin)[:, None]
            np.add.at(ws.shared[i], spots.ravel(), dact[:, n0:].ravel())
            dact = dact[:, :n0]


def _loss_and_grads(model, blocks, n, ws) -> float:
    """Weighted pinball loss over blocks of sequences, divided by n, at the
    parameters in ws.packed; its exact gradient is left in ws.packed_grad.

    Each block is (X, Y, W, heads): inputs and targets of shape (m, T),
    per-position weights broadcastable to them, and heads, None or the
    columns at which windows start in a single-sequence block. The loss is
    sum(W * pinball(Y - q)) / n over every block, plus, for each head h, the
    pinball sum over positions 0..R-2 of the zero-padded window starting at
    X[0, h] (see _step_blocks); W = 1 with n = X.size and no heads is the
    batch mean. Blocks run forward and backward in ws.main, in consecutive
    sub-batches of ws.cols // T sequences laid out position-major, and each
    backward pass adds its gradient, in order, to ws.packed_grad, zeroed
    first. A block with heads runs in four parts: the series pass forward;
    the prefix forward and backward in ws.prefix for each group of at most
    ws.prefix_group heads; then the series pass backward, which adds the
    prefix's gradient on each layer's input before the mask of the layer
    that output it.
    """
    theta = model.theta
    layers = model.layers
    ws.packed_grad[:] = 0.0
    loss = 0.0
    for X, Y, W, heads in blocks:
        T = X.shape[1]
        widths = (T,) * len(layers)
        W = np.broadcast_to(W, X.shape)
        step = ws.cols // T
        for lo in range(0, len(X), step):
            rows = slice(lo, lo + step)
            m = len(X[rows])
            q = _forward(model, ws, ws.main, m, widths, x=X[rows])
            # transposed like q: row t holds position t of every sequence
            part, dact = _pinball_terms(Y[rows].T - q.reshape(T, m), W[rows].T, theta, n)
            loss += part
            if heads is not None:
                for layer, shared in zip(layers[1:], ws.shared[1:]):
                    shared[: layer.in_channels * T] = 0.0
                for few in np.array_split(heads, -(-heads.size // ws.prefix_group)):
                    # column t*m + w is position t of window w; `at` is its series column
                    at = (np.arange(ws.reach[-1])[:, None] + few).ravel()
                    q = _forward(model, ws, ws.prefix, few.size, ws.reach, at=at)
                    part, pdact = _pinball_terms(Y[0, at] - q, 1.0, theta, n)
                    loss += part
                    _backward(model, ws, ws.prefix, few.size, ws.reach, pdact, at=at)
            dact = dact.reshape(1, -1)
            _backward(model, ws, ws.main, m, widths, dact, shared=heads is not None)
    return loss / n


def _concat_series(windows: WindowSet):
    """The set's series laid end to end, with each window's group and start in them.

    Window w is days[start[w] : start[w] + T], its targets one day later,
    and group[w] numbers its asset's series in the set's order.
    """
    number = {asset: g for g, asset in enumerate(windows.series)}
    offsets = np.cumsum([0, *(len(values) for values in windows.series.values())])
    group = np.array([number[asset] for asset, _ in windows.origins], dtype=np.intp)
    start = offsets[group] + np.array([s for _, s in windows.origins], dtype=np.int64)
    return np.concatenate([*windows.series.values()]), group, start


def _step_blocks(idx, days, group, start, T, R, cols):
    """The kernel blocks of one training step over the windows idx.

    Per asset, the batch's windows either run whole (k*T columns) or are
    split, whichever takes fewer columns: positions 0..R-2 of each window,
    plus one causal pass over the part of the asset's series they cover
    (its span plus R-1 leading columns), where position t of window s is day
    s+t. From position R-1 on a window sees no padding, so there every
    window's output is the series pass's output at that day, and the series
    pass weights each day by the windows covering it there. Windows of at
    most R-1 positions always run whole. Passes longer than `cols` are cut
    into chunks overlapping by R-1 columns, the overlap weighted zero.

    Blocks are (X, Y, W, heads) for _loss_and_grads: the whole windows
    first, with no heads, then one single-sequence block per chunk. Its
    heads are the columns at which the split windows that start in its first
    cols-(R-1) columns begin; positions 0..R-2 of those windows lie inside
    the chunk, and their prefix reads that chunk's pass.
    """
    g, s = group[idx], start[idx]
    k = np.bincount(g)
    lo = np.full(k.size, s.max())
    np.minimum.at(lo, g, s)
    hi = np.zeros(k.size, dtype=np.int64)
    np.maximum.at(hi, g, s + T)
    split = (k > 0) & (k * (R - 1) + hi - lo < k * T)
    on = split[g]
    rows = np.lib.stride_tricks.sliding_window_view(days, T)
    blocks = []
    if not on.all():
        blocks.append((rows[s[~on]], rows[s[~on] + 1], 1.0, None))
    stride = cols - (R - 1)
    for a in np.flatnonzero(split):
        part, length = days[lo[a] :], hi[a] - lo[a]
        first = s[g == a] - lo[a]
        cover = np.bincount(first + R - 1, minlength=length + 1) - np.bincount(
            first + T, minlength=length + 1
        )
        weight = np.cumsum(cover[:length]).astype(float)
        # a chunk starts R-1 columns before the previous one ends
        for begin in range(0, length - (R - 1), stride):
            end = min(begin + cols, length)
            w = weight[None, begin:end].copy()
            w[:, : R - 1] = 0.0
            heads = first[first // stride == begin // stride] - begin
            X, Y = part[None, begin:end], part[None, begin + 1 : end + 1]
            blocks.append((X, Y, w, heads if heads.size else None))
    return blocks


def _as_batch(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 2 and x.shape[0] == 1:
        x = x[0]
    if x.ndim != 1 or x.size < 1:
        raise ShapeError(f"expected a single-channel sequence, got shape {x.shape}")
    return x[None, :]


def forward(model: QcnnModel, x):
    """Per-timestep quantile forecasts for one sequence; output[t] targets step t+1.

    Accepts shape (T,) or (1, T) and returns (1, T). Runs the length-stable
    kernel, so truncating the sequence never changes earlier outputs.
    """
    X = _as_batch(x)
    T = X.shape[1]
    # einsum takes another kernel for one column, so every sequence gets a
    # trailing zero that no earlier output reads; from two columns on, its
    # per-column summation order does not depend on the length, so the pad
    # moves no earlier output's bits
    X = np.concatenate([X, np.zeros((1, 1))], axis=1)
    ws = _Workspace(model, T + 1)
    return _forward(model, ws, ws.main, 1, (T + 1,) * len(model.layers), x=X, stable=True)[:, :T]


def backward(model: QcnnModel, x, y) -> list[np.ndarray]:
    """Exact gradients of the mean pinball loss, ordered like model_parameters."""
    X = _as_batch(x)
    Y = _as_batch(y)
    if X.shape != Y.shape:
        raise ShapeError(f"input {X.shape} and target {Y.shape} lengths differ")
    ws = _Workspace(model, X.shape[1])
    _loss_and_grads(model, [(X, Y, 1.0, None)], X.size, ws)
    return _unpacked(model, ws.grad)


# ---------------------------------------------------------------------------
# adadelta
# ---------------------------------------------------------------------------


@dataclass
class AdadeltaState:
    """Exponential accumulators of squared gradients and squared updates,
    each an array shaped like the parameters."""

    sq_grad: np.ndarray
    sq_update: np.ndarray
    rho: float
    epsilon: float

    @classmethod
    def for_params(cls, params: np.ndarray, rho: float, epsilon: float) -> "AdadeltaState":
        return cls(np.zeros_like(params), np.zeros_like(params), rho, epsilon)


def adadelta_step(params: np.ndarray, grad: np.ndarray, state: AdadeltaState) -> None:
    """One in-place update: delta = -sqrt(E[dx^2]+eps)/sqrt(E[g^2]+eps) * g.

    The squared-gradient accumulator is refreshed before the step and the
    squared-update accumulator after it, both with decay rho.
    """
    if not params.shape == grad.shape == state.sq_grad.shape == state.sq_update.shape:
        raise ShapeError(f"gradient or accumulators do not match parameter shape {params.shape}")
    rho, eps, eg, ex = state.rho, state.epsilon, state.sq_grad, state.sq_update
    eg *= rho
    eg += (1.0 - rho) * grad * grad
    delta = -np.sqrt(ex + eps) / np.sqrt(eg + eps) * grad
    params += delta
    ex *= rho
    ex += (1.0 - rho) * delta * delta


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
    a final partial batch is used as-is. Each step minimizes the batch-mean
    pinball loss; where a batch's windows overlap enough, they are computed
    by one pass over their asset's series plus, for each window, only the
    positions of each layer that its zero padding reaches (see _step_blocks
    and _loss_and_grads). Every pass, whole windows included, runs through
    the same forward and backward layer loop in one position-major layout.
    Adadelta updates the workspace's packed parameter vector in place; the
    model's layers get new weights and biases arrays from it once, at the
    end, and the arrays they held before are left as they were.
    """
    n, T = len(windows), windows.window
    if n == 0:
        raise InsufficientDataError("cannot train on an empty window set")
    rng = np.random.default_rng(cfg.seed)
    if model is None:
        model = build_model(theta, rng=rng)
    elif model.theta != theta:
        raise DomainError(f"model targets theta={model.theta}, asked to train at {theta}")
    ws = _Workspace(model, max(T, SUB_BATCH_COLUMNS))
    state = AdadeltaState.for_params(ws.packed, cfg.rho, cfg.epsilon)
    days, group, start = _concat_series(windows)
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo : lo + cfg.batch_size]
            blocks = _step_blocks(idx, days, group, start, T, model.receptive_field, ws.cols)
            _loss_and_grads(model, blocks, idx.size * T, ws)
            adadelta_step(ws.packed, ws.packed_grad, state)
    params = _unpacked(model, ws.wfull)
    for layer, weights, biases in zip(model.layers, params[::2], params[1::2]):
        layer.weights, layer.biases = weights, biases
    return model


def predict_var_series(model: QcnnModel, scaled_history, scaler: Scaler, start: int):
    """VaR forecasts for days start..len(history) from one causal pass over the history.

    Element i uses only scaled_history[:start + i]; the last element forecasts
    the day after the history. The pass uses the length-stable kernel, so
    truncating the history leaves earlier forecasts unchanged, bit for bit.
    """
    scaled = np.asarray(scaled_history, dtype=float)
    if not 0 < start <= scaled.size:
        raise DomainError(f"start index {start} outside (0, {scaled.size}]")
    q = forward(model, scaled)[0]
    return -invert_scaler(q[start - 1 :], scaler)


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
