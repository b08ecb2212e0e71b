import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvar.data import ReturnSeries, Scaler, WindowSet, fit_scaler, make_windows, pool_windows
from qvar.errors import DomainError, InsufficientDataError, ShapeError
from qvar.qcnn import (
    IDENTITY,
    RECTIFIER,
    SUB_BATCH_COLUMNS,
    AdadeltaState,
    ConvLayer,
    QcnnModel,
    TrainConfig,
    adadelta_step,
    backward,
    build_model,
    causal_conv_forward,
    forward,
    load_model,
    model_parameters,
    pinball_loss,
    predict_var_series,
    save_model,
    train,
)
from qvar.qcnn import (
    _concat_series,
    _loss_and_grads,
    _step_blocks,
    _unpacked,
    _Workspace,
)


def small_model(rng, theta=0.2, channels=2, depth=2, kernel=2):
    layers = []
    in_ch = 1
    for level in range(depth):
        layers.append(
            ConvLayer(
                weights=rng.uniform(-0.6, 0.6, (channels, in_ch, kernel)),
                biases=rng.uniform(-0.2, 0.2, channels),
                dilation=2**level,
                activation=RECTIFIER,
            )
        )
        in_ch = channels
    head = ConvLayer(
        weights=rng.uniform(-0.6, 0.6, (1, in_ch, 1)),
        biases=rng.uniform(-0.2, 0.2, 1),
        dilation=1,
        activation=IDENTITY,
    )
    return QcnnModel(hidden_layers=layers, head=head, theta=theta)


def kernel(model, blocks, n, ws):
    """_loss_and_grads on ws; the loss and new gradient arrays split like
    model_parameters."""
    loss = _loss_and_grads(model, blocks, n, ws)
    return loss, _unpacked(model, ws.grad)


def zero_out(model):
    for p in model_parameters(model):
        p[:] = 0.0
    return model


def kink_distance(model, x, y):
    """Smallest distance of any pre-activation or loss residual from a kink."""
    smallest = math.inf
    a = np.asarray(x, dtype=float)[None, :]
    for layer in model.hidden_layers:
        pre = causal_conv_forward(
            a, ConvLayer(layer.weights, layer.biases, layer.dilation, IDENTITY)
        )
        smallest = min(smallest, float(np.min(np.abs(pre))))
        a = np.maximum(pre, 0.0)
    q = causal_conv_forward(a, model.head)
    smallest = min(smallest, float(np.min(np.abs(np.asarray(y) - q[0]))))
    return smallest


class TestCausalConv:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).standard_normal(20)
        layer = ConvLayer(np.ones((1, 1, 1)), np.zeros(1), dilation=1, activation=IDENTITY)
        assert np.array_equal(causal_conv_forward(x, layer), x[None, :])

    def test_current_tap_only(self):
        x = np.random.default_rng(1).standard_normal(50)
        layer = ConvLayer(np.array([[[0.0, 1.0]]]), np.zeros(1), dilation=32, activation=IDENTITY)
        assert np.array_equal(causal_conv_forward(x, layer), x[None, :])

    def test_pure_dilated_lag(self):
        layer = ConvLayer(np.array([[[1.0, 0.0]]]), np.zeros(1), dilation=2, activation=IDENTITY)
        out = causal_conv_forward(np.array([1.0, 2.0, 3.0, 4.0]), layer)
        assert out.tolist() == [[0.0, 0.0, 1.0, 2.0]]

    def test_channel_mismatch(self):
        layer = ConvLayer(np.ones((1, 2, 1)), np.zeros(1), dilation=1, activation=IDENTITY)
        with pytest.raises(ShapeError):
            causal_conv_forward(np.ones(5), layer)

    def test_engine_matches_reference(self):
        # the batched training path must agree with the plain per-layer stack
        rng = np.random.default_rng(42)
        for _ in range(10):
            model = small_model(rng, channels=3, depth=3)
            x = rng.standard_normal(40)
            a = x[None, :]
            for layer in model.layers:
                a = causal_conv_forward(a, layer)
            assert np.allclose(forward(model, x), a, atol=1e-12)


class TestForward:
    def test_all_zero_weights(self):
        model = zero_out(build_model(0.05, seed=0))
        out = forward(model, np.random.default_rng(2).standard_normal(128))
        assert out.shape == (1, 128)
        assert np.all(out == 0.0)

    def test_causality_bitwise(self):
        model = build_model(0.05, seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(128)
        base = forward(model, x)
        bumped = x.copy()
        bumped[100] += 1.0
        assert np.array_equal(forward(model, bumped)[0, :100], base[0, :100])

    @pytest.mark.parametrize("seed", range(8))
    def test_every_prefix_gives_the_whole_sequences_bits(self, seed):
        # down to one column, where einsum would take another kernel
        rng = np.random.default_rng(seed)
        model = build_model(0.05, seed=seed)
        for layer in model.layers:
            layer.biases[:] = rng.uniform(-0.2, 0.2, layer.biases.shape)
        x = rng.standard_normal(70)
        whole = forward(model, x)
        for T in range(1, 71):
            assert forward(model, x[:T]).tobytes() == whole[:, :T].tobytes(), T

    def test_receptive_field_64(self):
        model = build_model(0.05, seed=5)
        assert model.receptive_field == 64
        rng = np.random.default_rng(6)
        x = rng.standard_normal(128)
        base = forward(model, x)
        bumped = x.copy()
        bumped[0] += 1.0
        out = forward(model, bumped)
        assert np.array_equal(out[0, 64:], base[0, 64:])
        assert out[0, 63] != base[0, 63]

    def test_spec_architecture(self):
        model = build_model(0.05, seed=1)
        assert len(model.hidden_layers) == 6
        assert [l.dilation for l in model.hidden_layers] == [1, 2, 4, 8, 16, 32]
        assert all(l.weights.shape == (8, l.in_channels, 2) for l in model.hidden_layers)
        assert model.head.weights.shape == (1, 8, 1)
        assert model.head.activation == IDENTITY

    def test_wrong_shape(self):
        model = build_model(0.05, seed=1)
        with pytest.raises(ShapeError):
            forward(model, np.ones((2, 128)))


class TestPinball:
    def test_examples(self):
        assert pinball_loss([1.0], [0.0], 0.05) == pytest.approx(0.05)
        assert pinball_loss([0.0], [1.0], 0.05) == pytest.approx(0.95)
        assert pinball_loss([1.0, -1.0], [1.0, -1.0], 0.3) == 0.0

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            y = rng.standard_normal(10)
            q = rng.standard_normal(10)
            loss = pinball_loss(y, q, float(rng.uniform(0.01, 0.99)))
            assert loss >= 0.0
            assert (loss == 0.0) == bool(np.all(y == q))

    def test_convexity_in_q(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            y = rng.standard_normal(6)
            q1 = rng.standard_normal(6)
            q2 = rng.standard_normal(6)
            theta = float(rng.uniform(0.01, 0.99))
            mid = pinball_loss(y, (q1 + q2) / 2, theta)
            avg = (pinball_loss(y, q1, theta) + pinball_loss(y, q2, theta)) / 2
            assert mid <= avg + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            pinball_loss([1.0, 2.0], [1.0], 0.5)


class TestBackward:
    def test_calls_return_arrays_that_do_not_alias(self):
        rng = np.random.default_rng(10)
        model = build_model(0.05, rng=rng)
        x, y = rng.standard_normal((2, 100))
        first = backward(model, x, y)
        second = backward(model, y, x)
        for a in first:
            assert a.flags.c_contiguous
            assert not any(np.shares_memory(a, b) for b in second)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        pairs = 0
        h = 1e-5
        while pairs < 20:
            model = small_model(rng, theta=float(rng.uniform(0.05, 0.95)))
            x = rng.standard_normal(12)
            y = rng.standard_normal(12)
            if kink_distance(model, x, y) < 1e-3:
                continue
            pairs += 1
            grads = backward(model, x, y)
            for p, g in zip(model_parameters(model), grads):
                flat, gflat = p.ravel(), np.asarray(g).ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    up = pinball_loss(y[None, :], forward(model, x), model.theta)
                    flat[i] = orig - h
                    down = pinball_loss(y[None, :], forward(model, x), model.theta)
                    flat[i] = orig
                    fd = (up - down) / (2 * h)
                    assert gflat[i] == pytest.approx(fd, rel=1e-4, abs=1e-10)

    def test_dead_network_masked_gradients(self):
        # hidden biases push every rectifier below zero and the head reads
        # nothing, so all weight gradients vanish; only the head bias moves
        rng = np.random.default_rng(12)
        model = small_model(rng)
        for layer in model.hidden_layers:
            layer.biases[:] = -10.0
        model.head.weights[:] = 0.0
        model.head.biases[:] = 0.0
        x = rng.uniform(-0.1, 0.1, 16)
        y = np.full(16, 5.0)  # far above q = 0
        grads = backward(model, x, y)
        params = model_parameters(model)
        for p, g in zip(params[:-1], grads[:-1]):
            assert np.all(np.asarray(g) == 0.0), "masked parameter moved"
        assert np.any(np.asarray(grads[-1]) != 0.0)

    def test_mean_vs_sum_scaling(self):
        # gradients of the mean loss are exactly 1/n of the sum-loss gradients
        rng = np.random.default_rng(13)
        model = small_model(rng)
        x = rng.standard_normal(10)
        y = rng.standard_normal(10)
        grads = backward(model, x, y)
        h = 1e-6
        p = model_parameters(model)[0]
        orig = p[0, 0, 0]
        theta = model.theta

        def sum_loss():
            q = forward(model, x)[0]
            diff = y - q
            return float(np.sum(np.where(diff >= 0, theta * diff, (theta - 1) * diff)))

        p[0, 0, 0] = orig + h
        up = sum_loss()
        p[0, 0, 0] = orig - h
        down = sum_loss()
        p[0, 0, 0] = orig
        fd_sum = (up - down) / (2 * h)
        assert grads[0][0, 0, 0] * len(y) == pytest.approx(fd_sum, rel=1e-3, abs=1e-9)


class TestTrainingKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        batch=st.integers(1, 40),
        time=st.one_of(
            st.integers(1, 63),  # below the receptive field, and below 32 the largest dilation
            st.integers(64, SUB_BATCH_COLUMNS),
            st.integers(SUB_BATCH_COLUMNS + 1, SUB_BATCH_COLUMNS + 100),  # one sequence per sub-batch
        ),
        theta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(batch=30, time=100, theta=0.05, seed=1)  # sub-batches of 20 and 10
    @example(batch=3, time=SUB_BATCH_COLUMNS + 1, theta=0.5, seed=2)
    @example(batch=1, time=1, theta=0.01, seed=3)
    # edges of the position-major fold: the dilation-32 tap holds no column
    # inside the window, then exactly one; one exactly full sub-batch
    @example(batch=40, time=32, theta=0.05, seed=4)
    @example(batch=40, time=33, theta=0.05, seed=5)
    @example(batch=32, time=64, theta=0.05, seed=6)
    def test_batch_gradients_are_weighted_sequence_gradients(self, batch, time, theta, seed):
        # the sub-batched kernel must give the batch-mean loss and gradient:
        # each sequence's mean-loss gradient weighted by its share of elements
        rng = np.random.default_rng(seed)
        model = build_model(theta, rng=rng)
        for biases in model_parameters(model)[1::2]:
            biases[:] = rng.uniform(-0.1, 0.1, biases.shape)
        X = rng.standard_normal((batch, time))
        Y = rng.standard_normal((batch, time))
        ws = _Workspace(model, max(time, SUB_BATCH_COLUMNS))
        loss, grads = kernel(model, [(X, Y, 1.0, None)], X.size, ws)

        share = time / X.size
        per_sequence = [backward(model, x, y) for x, y in zip(X, Y)]
        for k, got in enumerate(grads):
            expected = sum(share * g[k] for g in per_sequence)
            scale = max(float(np.max(np.abs(expected))), 1e-300)
            assert np.max(np.abs(got - expected)) <= 1e-12 * scale
        q = np.vstack([forward(model, x)[0] for x in X])
        assert loss == pytest.approx(pinball_loss(Y, q, theta), rel=1e-12)


    def test_gradients_outlive_the_next_call_on_the_workspace(self):
        rng = np.random.default_rng(5)
        model = build_model(0.05, rng=rng)
        ws = _Workspace(model, SUB_BATCH_COLUMNS)
        X, Y = rng.standard_normal((2, 4, 128))
        _, grads = kernel(model, [(X, Y, 1.0, None)], X.size, ws)
        kept = [g.copy() for g in grads]
        kernel(model, [(Y, X, 1.0, None)], X.size, ws)
        for got, expected in zip(grads, kept):
            assert np.array_equal(got, expected)

def pooled_windows(assets, length, window, stride, seed):
    """Windows of `assets` seeded random-return series, pooled in asset order."""
    rng = np.random.default_rng(seed)
    sets = []
    for a in range(assets):
        returns = 0.01 * rng.standard_normal(length)
        series = ReturnSeries(f"a{a}", returns, int(0.7 * length))
        sets.append(make_windows(series, fit_scaler(series), window=window, stride=stride))
    return pool_windows(sets)


FULL_BATCH = {"batch": 128, "cols": SUB_BATCH_COLUMNS}


class TestTwoPassStep:
    @settings(max_examples=40, deadline=None)
    @given(
        assets=st.sampled_from((1, 2, 20)),
        window=st.one_of(st.integers(8, 63), st.integers(64, 160)),  # below and above R = 64
        stride=st.integers(1, 4),
        extra=st.integers(0, 1500),
        batch=st.integers(1, 160),
        cols=st.one_of(st.just(SUB_BATCH_COLUMNS), st.integers(64, 600)),  # small: many chunks
        seed=st.integers(0, 2**32 - 1),
    )
    @example(assets=1, window=128, stride=1, extra=3000, seed=1, **FULL_BATCH)
    @example(assets=2, window=128, stride=1, extra=1500, seed=2, **FULL_BATCH)
    @example(assets=20, window=128, stride=1, extra=1500, seed=3, **FULL_BATCH)
    @example(assets=2, window=100, stride=2, extra=600, batch=64, cols=200, seed=4)
    # edges of the prefix's gathers and scatters: a window of R never splits,
    # one of R + 1 just does; two abutting series with every start in the
    # batch, their first and last included; spans over many short chunks
    @example(assets=1, window=64, stride=1, extra=100, batch=160, cols=2048, seed=5)
    @example(assets=1, window=65, stride=1, extra=150, batch=160, cols=2048, seed=6)
    @example(assets=2, window=100, stride=2, extra=400, batch=160, cols=2048, seed=7)
    @example(assets=1, window=80, stride=1, extra=400, batch=160, cols=100, seed=8)
    def test_matches_per_window_kernel(self, assets, window, stride, extra, batch, cols, seed):
        # the two-pass step must give the per-window kernel's batch-mean loss
        # and gradients, and take the split exactly where it costs fewer columns
        rng = np.random.default_rng(seed)
        length = int((window + 2) / 0.7) + 2 + extra // assets
        windows = pooled_windows(assets, length, window, stride, seed)
        inputs, targets = windows.inputs, windows.targets
        model = build_model(0.05, rng=rng)
        for biases in model_parameters(model)[1::2]:
            biases[:] = rng.uniform(-0.1, 0.1, biases.shape)
        R = model.receptive_field
        idx = rng.permutation(len(inputs))[:batch]
        n = idx.size * window
        ws = _Workspace(model, max(window, cols))

        blocks = _step_blocks(idx, *_concat_series(windows), window, R, ws.cols)
        loss, grads = kernel(model, blocks, n, ws)
        whole_batch = [(inputs[idx], targets[idx], 1.0, None)]
        ref_loss, ref_grads = kernel(model, whole_batch, n, ws)
        for got, expected in zip(grads, ref_grads):
            scale = max(float(np.max(np.abs(expected))), 1e-300)
            assert np.max(np.abs(got - expected)) <= 1e-12 * scale
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-300)

        again = _step_blocks(idx, *_concat_series(windows), window, R, ws.cols)
        assert len(again) == len(blocks)
        for block, same in zip(blocks, again):
            for a, b in zip(block, same):
                assert np.array_equal(a, b)

        # an asset's windows run whole unless k*(R-1) + span + R-1 < k*T columns
        by_asset = {}
        for w in idx:
            by_asset.setdefault(windows.origins[w][0], []).append(windows.origins[w][1])
        split = {
            a: len(s) * (R - 1) + max(s) - min(s) + window < len(s) * window
            for a, s in by_asset.items()
        }
        whole = [w for w in idx if not split[windows.origins[w][0]]]
        if window <= R - 1 or not any(split.values()):
            assert len(blocks) == 1
        if whole:
            assert np.array_equal(blocks[0][0], inputs[whole])
            assert blocks[0][3] is None
        # every split window's positions 0..R-2 ride on exactly one chunk of
        # its asset's series pass, inside it
        passes = blocks[1:] if whole else blocks
        heads = [h for _, _, _, h in passes if h is not None]
        assert sum(h.size for h in heads) == idx.size - len(whole)
        for X, _, _, h in passes:
            assert X.shape[0] == 1
            assert h is None or h.max() + R - 1 <= X.shape[1]

    def test_reused_workspace_gives_a_fresh_workspaces_gradient(self):
        # every call must zero the gradient its passes add to: a second call
        # on the same blocks and workspace gives the same bits as a new one
        rng = np.random.default_rng(9)
        windows = pooled_windows(2, 700, 100, 1, seed=9)
        model = build_model(0.05, rng=rng)
        idx = rng.permutation(len(windows))[:128]
        n = idx.size * windows.window

        def gradient(ws):
            blocks = _step_blocks(
                idx, *_concat_series(windows), windows.window, model.receptive_field, ws.cols
            )
            assert any(heads is not None for *_, heads in blocks)  # prefix passes run
            loss = _loss_and_grads(model, blocks, n, ws)
            return loss, ws.packed_grad.tobytes()

        ws = _Workspace(model, SUB_BATCH_COLUMNS)
        first = gradient(ws)
        assert gradient(ws) == first == gradient(_Workspace(model, SUB_BATCH_COLUMNS))


class TestAdadelta:
    def test_zero_gradient(self):
        params = np.array([1.0, -2.0])
        state = AdadeltaState.for_params(params, rho=0.9, epsilon=1e-6)
        state.sq_grad[:] = 4.0
        state.sq_update[:] = 9.0
        adadelta_step(params, np.zeros(2), state)
        assert params.tolist() == [1.0, -2.0]
        assert np.allclose(state.sq_grad, 0.9 * 4.0)
        assert np.allclose(state.sq_update, 0.9 * 9.0)

    def test_first_step_formula(self):
        rho, eps, g = 0.95, 1e-6, 0.3
        params = np.array([0.5])
        state = AdadeltaState.for_params(params, rho=rho, epsilon=eps)
        adadelta_step(params, np.array([g]), state)
        expected_delta = -g * math.sqrt(eps) / math.sqrt((1 - rho) * g * g + eps)
        assert params[0] == pytest.approx(0.5 + expected_delta, abs=1e-15)

    def test_two_identical_steps(self):
        # hand trace: the second update magnitude reflects accumulator growth
        rho, eps, g = 0.9, 1e-6, 0.5
        eg = (1 - rho) * g * g
        d1 = -math.sqrt(eps) / math.sqrt(eg + eps) * g
        ex = (1 - rho) * d1 * d1
        eg2 = rho * eg + (1 - rho) * g * g
        d2 = -math.sqrt(ex + eps) / math.sqrt(eg2 + eps) * g
        params = np.array([0.0])
        state = AdadeltaState.for_params(params, rho=rho, epsilon=eps)
        adadelta_step(params, np.array([g]), state)
        adadelta_step(params, np.array([g]), state)
        assert params[0] == pytest.approx(d1 + d2, abs=1e-15)
        assert abs(d2) != abs(d1)

    def test_shape_mismatch(self):
        # a gradient or accumulators shaped unlike the parameters
        params = np.zeros(3)
        for grad_size, state_size in [(2, 3), (3, 2)]:
            state = AdadeltaState.for_params(np.zeros(state_size), rho=0.95, epsilon=1e-6)
            with pytest.raises(ShapeError):
                adadelta_step(params, np.zeros(grad_size), state)
        assert params.tolist() == [0.0, 0.0, 0.0]


def make_window_set(series):
    """One window per row of `series`, each row its own asset's series: the
    window is the row's first len-1 days, its targets the last len-1."""
    series = np.asarray(series, dtype=float)
    return WindowSet(
        series={f"a{i}": row for i, row in enumerate(series)},
        origins=tuple((f"a{i}", 0) for i in range(len(series))),
        window=series.shape[1] - 1,
    )


def assert_training_replays(windows, batch_size, epochs):
    """train's parameters equal, bit for bit, a replay of backward and
    adadelta_step over one vector in model_parameters order."""
    rng = np.random.default_rng(20)
    ws = make_window_set(rng.standard_normal((windows, 17)))
    cfg = TrainConfig(epochs=epochs, batch_size=batch_size, seed=99)
    trained = train(ws, 0.1, cfg)

    # same generator order: init, then one permutation per epoch
    rng2 = np.random.default_rng(99)
    model = build_model(0.1, rng=rng2)
    params = model_parameters(model)
    flat = np.concatenate([p.ravel() for p in params])
    state = AdadeltaState.for_params(flat, cfg.rho, cfg.epsilon)
    for _ in range(epochs):
        perm = rng2.permutation(windows)
        for lo in range(0, windows, batch_size):
            idx = perm[lo : lo + batch_size]
            assert idx.size == 1  # backward takes one sequence
            grads = backward(model, ws.inputs[idx[0]], ws.targets[idx[0]])
            adadelta_step(flat, np.concatenate([g.ravel() for g in grads]), state)
            at = 0
            for p in params:
                p.ravel()[:] = flat[at : at + p.size]
                at += p.size
    got = np.concatenate([p.ravel() for p in model_parameters(trained)])
    assert np.array_equal(got, flat)


class TestTrain:
    def test_single_window_single_epoch_is_one_step(self):
        assert_training_replays(windows=1, batch_size=128, epochs=1)

    def test_every_step_is_backward_then_adadelta(self):
        assert_training_replays(windows=6, batch_size=1, epochs=3)

    def test_parameters_are_new_contiguous_arrays(self):
        # criterion 1 and TestBackward perturb a parameter through p.ravel(),
        # which must then be a view of p; the caller's arrays stay as they were
        rng = np.random.default_rng(23)
        windows = make_window_set(rng.standard_normal((6, 40)))
        model = build_model(0.05, seed=4)
        before = model_parameters(model)
        kept = [p.copy() for p in before]
        trained = train(windows, 0.05, TrainConfig(epochs=2, batch_size=4, seed=4), model=model)
        assert trained is model
        for p in model_parameters(model):
            assert p.flags.c_contiguous and p.base is None
            assert np.shares_memory(p.ravel(), p)
        for p, copy in zip(before, kept):
            assert np.array_equal(p, copy)
        assert not all(np.array_equal(p, copy) for p, copy in zip(model_parameters(model), kept))

    def test_seeded_determinism(self):
        rng = np.random.default_rng(21)
        ws = make_window_set(rng.standard_normal((12, 21)))
        cfg = TrainConfig(epochs=3, batch_size=5, seed=7)
        a = train(ws, 0.05, cfg)
        b = train(ws, 0.05, cfg)
        for pa, pb in zip(model_parameters(a), model_parameters(b)):
            assert np.array_equal(pa, pb)

    def test_constant_target_convergence(self):
        rng = np.random.default_rng(22)
        series = np.full((8, 33), 0.7)
        series[:, 0] = rng.standard_normal(8)
        ws = make_window_set(series)
        inputs, targets = ws.inputs, ws.targets
        cfg = TrainConfig(epochs=128, batch_size=128, seed=5)
        init = build_model(0.5, seed=5)
        initial_loss = pinball_loss(targets, np.vstack([forward(init, x)[0] for x in inputs]), 0.5)
        model = train(ws, 0.5, cfg)
        final_loss = pinball_loss(targets, np.vstack([forward(model, x)[0] for x in inputs]), 0.5)
        assert final_loss < 0.5 * initial_loss
        # predictions move toward the constant target (its every quantile)
        preds = forward(model, inputs[0])[0]
        assert abs(np.median(preds[8:]) - 0.7) < 0.2

    def test_empty_window_set(self):
        ws = make_window_set(np.empty((0, 17)))
        with pytest.raises(InsufficientDataError):
            train(ws, 0.1, TrainConfig(epochs=1))

    def test_final_loss_not_above_initial(self):
        rng = np.random.default_rng(23)
        series = np.empty((6, 25))
        series[:, 0] = rng.standard_normal(6)
        for t in range(24):
            series[:, t + 1] = series[:, t] * 0.4 + 0.1
        ws = make_window_set(series)
        inputs, targets = ws.inputs, ws.targets
        cfg = TrainConfig(epochs=16, batch_size=4, seed=3)
        init = build_model(0.25, seed=3)
        loss0 = pinball_loss(targets, np.vstack([forward(init, x)[0] for x in inputs]), 0.25)
        model = train(ws, 0.25, cfg)
        loss1 = pinball_loss(targets, np.vstack([forward(model, x)[0] for x in inputs]), 0.25)
        assert loss1 <= loss0


class TestPredict:
    def constant_output_model(self, value):
        model = zero_out(build_model(0.05, seed=0))
        model.head.biases[:] = value
        return model

    def test_sign_flip_and_unscale(self):
        model = self.constant_output_model(-1.0)
        var = predict_var_series(model, np.zeros(128), Scaler(mean=0.0, std=0.02), 128)[-1]
        assert var == pytest.approx(0.02)

    def test_zero_output(self):
        model = self.constant_output_model(0.0)
        assert predict_var_series(model, np.zeros(128), Scaler(mean=0.0, std=1.0), 128)[-1] == 0.0

    def test_negative_quantile_with_mean(self):
        model = self.constant_output_model(-2.0)
        var = predict_var_series(model, np.zeros(128), Scaler(mean=0.001, std=0.01), 128)[-1]
        assert var == pytest.approx(0.019)

    def test_series_matches_windowed_prediction(self):
        model = build_model(0.05, seed=9)
        rng = np.random.default_rng(10)
        scaled = rng.standard_normal(400)
        scaler = Scaler(mean=0.001, std=0.015)
        start = 300
        path = predict_var_series(model, scaled, scaler, start)
        assert path.shape == (101,)
        for day in (300, 333, 399, 400):
            # oracle: the last forward output over the 128 days before `day`, unscaled
            q = forward(model, scaled[day - 128 : day])[0, -1]
            windowed = -(q * scaler.std + scaler.mean)
            assert path[day - start] == pytest.approx(windowed, abs=1e-12)

    def test_series_no_lookahead(self):
        model = build_model(0.05, seed=9)
        rng = np.random.default_rng(10)
        scaled = rng.standard_normal(400)
        scaler = Scaler(mean=0.0, std=1.0)
        full = predict_var_series(model, scaled, scaler, 300)
        truncated = predict_var_series(model, scaled[:350], scaler, 300)
        assert np.array_equal(full[:51], truncated)


class TestCheckpoint:
    def test_round_trip_and_byte_stability(self, tmp_path):
        model = build_model(0.01, seed=31)
        train(
            make_window_set(np.random.default_rng(1).standard_normal((4, 17))),
            0.01,
            TrainConfig(epochs=2, batch_size=2, seed=31),
            model=model,
        )
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = load_model(p1)
        assert loaded.theta == model.theta
        assert [l.dilation for l in loaded.layers] == [l.dilation for l in model.layers]
        for a, b in zip(model_parameters(loaded), model_parameters(model)):
            assert np.array_equal(a, b)
        x = np.random.default_rng(3).standard_normal(64)
        assert np.array_equal(forward(loaded, x), forward(model, x))

    def test_rejects_foreign_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "something-else"}')
        with pytest.raises(DomainError):
            load_model(bad)


def test_train_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(epochs=0)
    with pytest.raises(DomainError):
        TrainConfig(rho=1.5)


@pytest.mark.parametrize("epsilon", [math.inf, math.nan, 0.0, -1e-6])
def test_train_config_rejects_epsilon_not_positive_and_finite(epsilon):
    with pytest.raises(DomainError, match="epsilon"):
        TrainConfig(epsilon=epsilon)
