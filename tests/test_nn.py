import math
import struct

import numpy as np
import pytest

from trackbench.nn import (
    AdamState,
    Mlp,
    adam_step,
    grad_list,
    load_mlp,
    loss,
    loss_grad,
    save_mlp,
)


def linear_net(w, b):
    w = np.atleast_2d(np.asarray(w, dtype=np.float64))
    net = Mlp([w.shape[1], w.shape[0]], ["linear"])
    net.weights[0][...] = w
    net.biases[0][...] = np.asarray(b, dtype=np.float64)
    return net


def test_forward_hand_value():
    net = linear_net([[1.0, 2.0]], [0.5])
    out = net(np.array([[1.0, 1.0]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(3.5, rel=1e-12)


def test_forward_relu_zeroes_negative_preactivation():
    net = linear_net([[1.0]], [-2.0])
    net.activations[0] = "relu"
    assert net(np.array([[1.0]]))[0, 0] == 0.0
    assert net(np.array([[5.0]]))[0, 0] == pytest.approx(3.0)


def test_forward_rejects_wrong_width():
    net = Mlp([3, 2], ["linear"], rng=0)
    with pytest.raises(ValueError):
        net(np.zeros((1, 4)))


def test_constructor_validation():
    with pytest.raises(ValueError):
        Mlp([4], ["linear"])
    with pytest.raises(ValueError):
        Mlp([4, 2], ["linear", "relu"])
    with pytest.raises(ValueError):
        Mlp([4, 2], ["softplus"])


def test_init_bounds_and_zero_bias(rng):
    net = Mlp([9, 7, 3], ["tanh", "linear"], rng=rng)
    assert np.all(np.abs(net.weights[0]) <= 1.0 / 3.0)
    assert np.all(np.abs(net.weights[1]) <= 1.0 / np.sqrt(7.0))
    assert np.all(net.biases[0] == 0.0)
    assert np.all(net.biases[1] == 0.0)


def test_loss_zero_at_target():
    y = np.array([[0.3, -1.2]])
    assert loss(y, y, "mse") == 0.0


def test_loss_mse_hand_value():
    assert loss(np.array([1.0, 2.0]), np.array([0.0, 0.0]), "mse") == pytest.approx(2.5)


def test_loss_cross_entropy_hand_value():
    out = loss(np.array([[0.5]]), np.array([[1.0]]), "cross_entropy")
    assert out == pytest.approx(0.6931471805599453, rel=1e-12)


def test_loss_validation():
    with pytest.raises(ValueError):
        loss(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        loss(np.zeros(3), np.zeros(3), "hinge")
    with pytest.raises(ValueError):
        loss_grad(np.zeros(3), np.zeros(2))


def test_backward_zero_upstream_gives_zero_grads(rng):
    net = Mlp([4, 6, 2], ["relu", "linear"], rng=rng)
    out, cache = net.forward(rng.normal(size=(5, 4)))
    grads = net.backward(cache, np.zeros_like(out))
    for dw, db in grads:
        assert np.all(dw == 0.0)
        assert np.all(db == 0.0)


def test_backward_hand_value_single_linear_layer():
    net = linear_net([[0.0, 0.0]], [0.0])
    x = np.array([[1.0, 2.0]])
    y = np.array([[1.0]])
    out, cache = net.forward(x)
    grads = net.backward(cache, loss_grad(out, y, "mse"))
    dw, db = grads[0]
    assert np.allclose(dw, [[-2.0, -4.0]], atol=1e-15)
    assert np.allclose(db, [-2.0], atol=1e-15)


def test_backward_rejects_mismatched_cache(rng):
    net = Mlp([3, 2], ["linear"], rng=rng)
    _, cache = net.forward(rng.normal(size=(4, 3)))
    with pytest.raises(ValueError):
        net.backward(cache, np.zeros((4, 3)))


def _fd_gradient(net, x, y, h=1e-6):
    flat = net.get_flat()
    out = np.empty_like(flat)
    for i in range(flat.size):
        probe = flat.copy()
        probe[i] = flat[i] + h
        net.set_flat(probe)
        up = loss(net(x), y, "mse")
        probe[i] = flat[i] - h
        net.set_flat(probe)
        down = loss(net(x), y, "mse")
        out[i] = (up - down) / (2.0 * h)
    net.set_flat(flat)
    return out


def _clear_of_relu_kinks(net, cache, margin=1e-4):
    for z, kind in zip(cache.zs, net.activations):
        if kind == "relu" and np.any(np.abs(z) < margin):
            return False
    return True


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(23)
    shapes = [([2, 4, 1], ["relu", "linear"]),
              ([3, 5, 2], ["tanh", "linear"]),
              ([4, 6, 6, 1], ["relu", "tanh", "linear"]),
              ([1, 3, 1], ["sigmoid", "linear"])]
    for sizes, acts in shapes:
        for _ in range(3):
            net = Mlp(sizes, acts, rng=rng)
            while True:
                x = rng.normal(size=(4, sizes[0]))
                y = rng.normal(size=(4, sizes[-1]))
                out, cache = net.forward(x)
                if _clear_of_relu_kinks(net, cache):
                    break
            analytic = np.concatenate(
                [g.ravel() for g in grad_list(net.backward(cache, loss_grad(out, y, "mse")))]
            )
            numeric = _fd_gradient(net, x, y)
            err = np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric)))
            assert err < 1e-5


def test_adam_first_step_magnitude(rng):
    for _ in range(100):
        p = [rng.normal(size=(4, 3))]
        g = [np.where(rng.random((4, 3)) < 0.5, -1.0, 1.0) * rng.uniform(0.5, 2.0, (4, 3))]
        before = p[0].copy()
        st = AdamState(p, alpha=1e-3)
        adam_step(st, p, g)
        step = np.abs(p[0] - before)
        assert np.allclose(step, 1e-3, rtol=1e-6)
        assert np.all(np.sign(before - p[0]) == np.sign(g[0]))


def test_adam_first_step_never_exceeds_alpha(rng):
    for _ in range(100):
        p = [rng.normal(size=5)]
        g = [rng.normal(size=5) * 10.0 ** rng.integers(-4, 4)]
        before = p[0].copy()
        st = AdamState(p, alpha=0.01)
        adam_step(st, p, g)
        assert np.all(np.abs(p[0] - before) <= 0.01 + 1e-15)


def test_adam_two_steps_constant_gradient_hand_execution():
    alpha, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    p = [np.array([1.0])]
    st = AdamState(p, alpha=alpha, beta1=b1, beta2=b2, epsilon=eps)
    v = s = 0.0
    expect = 1.0
    for t in (1, 2):
        adam_step(st, p, [np.array([1.0])])
        v = b1 * v + (1.0 - b1) * 1.0
        s = b2 * s + (1.0 - b2) * 1.0
        vhat = v / (1.0 - b1 ** t)
        shat = s / (1.0 - b2 ** t)
        expect -= alpha * vhat / (math.sqrt(shat) + eps)
        assert p[0][0] == pytest.approx(expect, rel=1e-14)


def test_adam_defaults():
    st = AdamState([np.zeros(1)])
    assert (st.alpha, st.beta1, st.beta2, st.epsilon) == (0.001, 0.9, 0.999, 1e-8)
    assert st.t == 0


def test_adam_optimizes_quadratic():
    p = [np.array([3.0])]
    st = AdamState(p, alpha=0.05)
    for _ in range(500):
        adam_step(st, p, [2.0 * p[0]])
    assert abs(p[0][0]) < 0.1


def test_adam_rejects_mismatched_lists():
    p = [np.zeros(2)]
    st = AdamState(p)
    with pytest.raises(ValueError):
        adam_step(st, p, [np.zeros(2), np.zeros(2)])


def test_save_load_round_trip(tmp_path, rng):
    net = Mlp([6, 16, 16, 1], ["relu", "tanh", "linear"], rng=rng)
    path = tmp_path / "net.bin"
    save_mlp(net, path)
    back = load_mlp(path)
    assert back.sizes == net.sizes
    assert back.activations == net.activations
    for a, b in zip(net.parameters(), back.parameters()):
        assert np.array_equal(a, b)
    x = rng.normal(size=(8, 6))
    assert np.array_equal(net(x), back(x))


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE!" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_mlp(path)


def test_load_rejects_truncated_file(tmp_path, rng):
    net = Mlp([4, 3], ["linear"], rng=rng)
    path = tmp_path / "net.bin"
    save_mlp(net, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(ValueError):
        load_mlp(path)


def test_load_rejects_unknown_activation_tag(tmp_path, rng):
    net = Mlp([4, 3], ["linear"], rng=rng)
    path = tmp_path / "net.bin"
    save_mlp(net, path)
    blob = bytearray(path.read_bytes())
    blob[5 + 4 + 8] = 200  # activation tag of the first layer header
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_mlp(path)


def test_load_rejects_implausible_layer_count(tmp_path, rng):
    net = Mlp([4, 3], ["linear"], rng=rng)
    path = tmp_path / "net.bin"
    save_mlp(net, path)
    blob = bytearray(path.read_bytes())
    blob[5:9] = struct.pack("<I", 10_000)
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_mlp(path)


def test_clone_is_independent(rng):
    net = Mlp([3, 4, 2], ["tanh", "linear"], rng=rng)
    twin = net.clone()
    x = rng.normal(size=(5, 3))
    assert np.array_equal(net(x), twin(x))
    twin.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != twin.weights[0][0, 0]


def test_flat_round_trip(rng):
    net = Mlp([5, 8, 2], ["relu", "linear"], rng=rng)
    flat = net.get_flat()
    other = Mlp([5, 8, 2], ["relu", "linear"], rng=12345)
    other.set_flat(flat)
    assert np.array_equal(other.get_flat(), flat)
    x = rng.normal(size=(4, 5))
    assert np.array_equal(net(x), other(x))
    with pytest.raises(ValueError):
        net.set_flat(flat[:-1])
