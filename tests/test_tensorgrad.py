"""Autodiff engine checks: every gradient is pinned to central finite differences."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from astro import flowgen
from astro import tensorgrad as tg


def numeric_grad(build_loss, params: dict[str, np.ndarray], name: str, h: float = 1e-5):
    """Central-difference gradient of build_loss() w.r.t. params[name].

    build_loss must construct a fresh graph from the current parameter values
    and return the scalar loss value.
    """
    base = params[name]
    out = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = base[idx]
        base[idx] = orig + h
        f_plus = build_loss()
        base[idx] = orig - h
        f_minus = build_loss()
        base[idx] = orig
        out[idx] = (f_plus - f_minus) / (2.0 * h)
    return out


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


def two_layer_forward(params, x, graph=None):
    """tanh MLP expressed through the primitive set; numpy fallback mirrors it."""
    if graph is None:
        h = np.tanh(x @ params["w1"] + params["b1"])
        out = h @ params["w2"] + params["b2"]
        return float(np.mean(out * out))
    p = graph.parameters(params)
    xn = graph.constant(x)
    h = (xn @ p["w1"] + p["b1"]).tanh()
    out = h @ p["w2"] + p["b2"]
    return out.square().mean()


def make_net(rng, d_in, hidden, d_out):
    return {
        "w1": rng.standard_normal((d_in, hidden)) / np.sqrt(d_in),
        "b1": rng.standard_normal((1, hidden)) * 0.1,
        "w2": rng.standard_normal((hidden, d_out)) / np.sqrt(hidden),
        "b2": rng.standard_normal((1, d_out)) * 0.1,
    }


# --- primitive forward values ---


def test_primitive_forward_values():
    g = tg.GradGraph()
    a = g.constant([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(tg.apply_primitive("tanh", [g.constant(0.0)], g).value, 0.0)
    assert float(tg.apply_primitive("mean", [g.constant([2.0, 4.0, 6.0])], g).value) == 4.0
    assert float(tg.apply_primitive("sum", [g.constant([1.0, 2.0, 3.0])], g).value) == 6.0
    eye = g.constant(np.eye(2))
    assert np.array_equal(tg.apply_primitive("matmul", [eye, a], g).value, a.value)
    assert np.array_equal(tg.apply_primitive("square", [a], g).value, a.value ** 2)
    assert np.array_equal(
        tg.apply_primitive("scalar_mul", [a], g, scalar=-2.0).value, -2.0 * a.value)


def test_shape_validation_errors():
    g = tg.GradGraph()
    a = g.constant(np.ones((2, 3)))
    b = g.constant(np.ones((3, 2)))
    with pytest.raises(tg.ShapeError):
        tg.apply_primitive("add", [a, b], g)
    with pytest.raises(tg.ShapeError):
        tg.apply_primitive("matmul", [a, a], g)
    with pytest.raises(ValueError):
        tg.apply_primitive("exp", [a], g)


def test_nonfinite_output_raises():
    g = tg.GradGraph()
    big = g.parameter("p", np.full((1, 1), 1e308))
    with pytest.raises(tg.NonFiniteError):
        tg.apply_primitive("add", [big, g.constant(np.full((1, 1), 1e308))], g)


def test_foreign_graph_nodes_rejected():
    g1, g2 = tg.GradGraph(), tg.GradGraph()
    a = g1.parameter("a", np.ones((1, 2)))
    b = g2.parameter("b", np.ones((1, 2)))
    with pytest.raises(tg.GraphError):
        tg.apply_primitive("add", [a, b], g1)


def test_node_that_outlived_its_graph_is_rejected():
    node = tg.GradGraph().parameter("a", np.ones((1, 2)))
    with pytest.raises(tg.GraphError):
        node.tanh()


def test_detached_inputs_fold_to_constant():
    g = tg.GradGraph()
    a = g.constant([[1.0, 2.0]])
    b = g.constant([[3.0, 4.0]])
    out = tg.apply_primitive("add", [a, b], g)
    assert out.detached
    assert out.parents == ()
    assert len(g) == 0


# --- backward correctness ---


def test_gradient_matches_finite_differences_small_nets():
    rng = np.random.default_rng(7)
    for trial in range(5):
        d_in, hidden, d_out = rng.integers(2, 6), rng.integers(2, 8), rng.integers(1, 4)
        params = make_net(rng, d_in, hidden, d_out)
        x = rng.standard_normal((3, d_in))

        graph = tg.GradGraph()
        loss = two_layer_forward(params, x, graph)
        grads = tg.backward(graph, loss)

        for name in params:
            fd = numeric_grad(lambda: two_layer_forward(params, x), params, name)
            assert rel_err(grads[name], fd) <= 1e-7, f"trial {trial} param {name}"


def test_gradients_through_every_primitive():
    # One expression whose tape records every primitive, pinned to finite
    # differences. A primitive added without coverage here fails the test.
    rng = np.random.default_rng(11)
    params = {"w": rng.standard_normal((4, 3)), "c": rng.standard_normal((2, 3))}
    x = rng.standard_normal((2, 4))

    def build(graph=None):
        if graph is None:
            h = np.tanh(x @ params["w"])
            piece = (h + params["c"] * h - 0.25) * 0.5
            return float(np.sum(piece ** 2)) + float(np.mean(h))
        p = graph.parameters(params)
        h = (graph.constant(x) @ p["w"]).tanh()
        piece = (h + p["c"] * h - graph.constant(0.25)) * 0.5
        return piece.square().sum() + h.mean()

    graph = tg.GradGraph()
    loss = build(graph)
    assert {node.op for node in graph.nodes} - {"param"} == set(tg.PRIMITIVES)
    grads = tg.backward(graph, loss)
    for name in params:
        fd = numeric_grad(build, params, name)
        assert rel_err(grads[name], fd) <= 1e-7, name


def test_row_broadcast_bias_gradient():
    rng = np.random.default_rng(3)
    params = {"b": rng.standard_normal((1, 5))}
    x = rng.standard_normal((7, 5))

    def build(graph=None):
        if graph is None:
            return float(np.mean((x + params["b"]) ** 2))
        p = graph.parameters(params)
        return (graph.constant(x) + p["b"]).square().mean()

    graph = tg.GradGraph()
    grads = tg.backward(graph, build(graph))
    fd = numeric_grad(build, params, "b")
    assert grads["b"].shape == (1, 5)
    assert rel_err(grads["b"], fd) <= 1e-7


def test_backward_is_linear_in_the_loss():
    rng = np.random.default_rng(5)
    params = make_net(rng, 3, 4, 2)
    x = rng.standard_normal((2, 3))
    graph = tg.GradGraph()
    p = graph.parameters(params)
    h = (graph.constant(x) @ p["w1"] + p["b1"]).tanh()
    out = h @ p["w2"] + p["b2"]
    l1 = out.square().mean()
    l2 = out.sum()
    combined = 2.0 * l1 + l2 * (-0.5)
    g1 = tg.backward(graph, l1)
    g2 = tg.backward(graph, l2)
    gc = tg.backward(graph, combined)
    for name in params:
        assert np.max(np.abs(gc[name] - (2.0 * g1[name] - 0.5 * g2[name]))) <= 1e-10


def test_unreachable_parameter_gets_zero_gradient():
    graph = tg.GradGraph()
    used = graph.parameter("used", np.ones((1, 2)))
    unused = graph.parameter("unused", np.ones((2, 2)))
    loss = used.square().mean()
    grads = tg.backward(graph, loss)
    assert np.array_equal(grads["unused"], np.zeros((2, 2)))
    assert np.any(grads["used"] != 0.0)


def test_detached_branch_equals_rebuilt_constant_graph():
    # Gradient with node.detach() must equal the gradient of a graph rebuilt
    # from scratch with that branch entered as a plain constant.
    rng = np.random.default_rng(13)
    params = tg.flatten({"w": rng.standard_normal((3, 3))})
    x = rng.standard_normal((2, 3))

    graph = tg.GradGraph()
    p = graph.parameters(params)
    h = (graph.constant(x) @ p["w"]).tanh()
    summary = h.mean()
    out = (graph.constant(x) @ p["w"]) * summary.detach()
    loss = out.square().mean()
    grads_detached = tg.backward(graph, loss)

    rebuilt = tg.GradGraph()
    q = rebuilt.parameters({"w": params["w"]})
    summary_const = rebuilt.constant(summary.value)
    out2 = (rebuilt.constant(x) @ q["w"]) * summary_const
    grads_rebuilt = tg.backward(rebuilt, out2.square().mean())

    assert np.array_equal(grads_detached["w"], grads_rebuilt["w"])

    # And the attached version must differ: the summary path carries gradient.
    graph3 = tg.GradGraph()
    r = graph3.parameters({"w": params["w"]})
    h3 = (graph3.constant(x) @ r["w"]).tanh()
    out3 = (graph3.constant(x) @ r["w"]) * h3.mean()
    grads_attached = tg.backward(graph3, out3.square().mean())
    assert np.max(np.abs(grads_attached["w"] - grads_detached["w"])) > 1e-8


def test_loss_must_be_scalar():
    graph = tg.GradGraph()
    p = graph.parameter("p", np.ones((2, 2)))
    vec = p + graph.constant(np.ones((2, 2)))
    with pytest.raises(tg.GraphError):
        tg.backward(graph, vec)


def test_duplicate_parameter_name_with_different_array_rejected():
    graph = tg.GradGraph()
    graph.parameter("w", np.ones((2, 2)))
    with pytest.raises(tg.GraphError):
        graph.parameter("w", np.ones((2, 2)))


# --- optimizer and clipping ---


def test_adamw_first_step_matches_hand_derivation():
    # Unit gradient from zero state: mhat = vhat = 1/bias corrections cancel,
    # so the step is -lr * mhat/(sqrt(vhat) + eps) with wd off.
    lr, b1, b2, eps = 1e-5, 0.9, 0.999, 1e-8
    params = tg.flatten({"p": np.array([[1.0]])})
    opt = tg.AdamW(lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=0.0)
    opt.step(params, {"p": np.array([[1.0]])})
    mhat = (0.1) / (1.0 - b1)
    vhat = (0.001) / (1.0 - b2)
    expected = 1.0 - lr * mhat / (np.sqrt(vhat) + eps)
    assert abs(float(params["p"][0, 0]) - expected) <= 1e-15
    assert abs(float(params["p"][0, 0]) - (1.0 - 1e-5)) <= 1e-12


def test_adamw_weight_decay_is_decoupled():
    # Zero gradient: the only movement is the decay term p *= (1 - lr*wd).
    params = tg.flatten({"p": np.array([2.0])})
    opt = tg.AdamW(lr=0.1, weight_decay=0.5)
    opt.step(params, {"p": np.array([0.0])})
    assert abs(float(params["p"][0]) - 2.0 * (1.0 - 0.1 * 0.5)) <= 1e-15


def test_adamw_two_runs_identical():
    rng = np.random.default_rng(17)
    init = {"w": rng.standard_normal((4, 4))}
    grads = [{"w": rng.standard_normal((4, 4))} for _ in range(10)]
    results = []
    for _ in range(2):
        params = tg.flatten(init)
        opt = tg.AdamW(lr=1e-3)
        for g in grads:
            opt.step(params, g)
        results.append(params["w"])
    assert np.array_equal(results[0], results[1])


def test_adamw_state_roundtrip():
    rng = np.random.default_rng(23)
    params = tg.flatten({"w": rng.standard_normal((3, 3))})
    opt = tg.AdamW(lr=1e-3)
    opt.step(params, {"w": rng.standard_normal((3, 3))})
    twin = tg.AdamW(lr=1e-3)
    twin.load_state_dict(opt.state_dict())
    g = {"w": rng.standard_normal((3, 3))}
    p1 = tg.flatten(params)
    p2 = tg.flatten(params)
    opt.step(p1, g)
    twin.step(p2, g)
    assert np.array_equal(p1["w"], p2["w"])


def test_clip_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    assert abs(tg.global_norm(grads) - 5.0) <= 1e-12
    clipped = tg.clip_global_norm(grads, 1.0)
    assert abs(tg.global_norm(clipped) - 1.0) <= 1e-12
    assert np.allclose(clipped["a"] / clipped["b"], 3.0 / 4.0)
    assert np.array_equal(tg.clip_global_norm(grads, 1.0, 5.0)["b"], clipped["b"])
    untouched = tg.clip_global_norm(grads, 10.0)
    assert np.array_equal(untouched["a"], grads["a"])
    assert untouched["a"] is not grads["a"]


# --- flat parameters and the flat AdamW step ---


def reference_adamw_step(params, grads, m, v, t, lr, beta1, beta2, eps, weight_decay):
    """The per-name AdamW loop, on plain dicts: the bit-exact reference for AdamW.step.

    m and v are name-keyed moment dicts, filled on first use; t is the step
    count after this step.
    """
    b1t = 1.0 - beta1 ** t
    b2t = 1.0 - beta2 ** t
    for name in sorted(params):
        p, g = params[name], grads[name]
        mk = m.setdefault(name, np.zeros_like(p))
        vk = v.setdefault(name, np.zeros_like(p))
        mk += (1.0 - beta1) * (g - mk)
        vk += (1.0 - beta2) * (g * g - vk)
        update = (mk / b1t) / (np.sqrt(vk / b2t) + eps) + weight_decay * p
        p -= lr * update
        if not np.all(np.isfinite(p)):
            raise tg.NonFiniteError(f"parameter {name!r} became non-finite after update")


def generator_net(seed=0):
    return flowgen.init_net(np.random.default_rng(seed), frame_dim=8, clip_len=4,
                            prompt_dim=4, hidden=128)


def test_flatten_lays_out_sorted_views_of_one_copy():
    rng = np.random.default_rng(3)
    plain = {"w": rng.standard_normal((2, 3)), "b": rng.standard_normal((1, 3)),
             "a": rng.standard_normal(())}
    flat = tg.flatten(plain)
    assert list(flat) == ["a", "b", "w"]
    assert flat.flat.shape == (1 + 3 + 6,) and flat.flat.flags.c_contiguous
    assert flat.flat.ctypes.data % 64 == 0 and flat.scratch().ctypes.data % 64 == 0
    assert np.array_equal(flat.flat, np.concatenate([plain[k].ravel() for k in ("a", "b", "w")]))
    for k in plain:
        assert flat[k].shape == plain[k].shape and np.shares_memory(flat[k], flat.flat)
        assert not np.shares_memory(flat[k], plain[k])
    flat["w"][0, 0] = 42.0
    assert flat.flat[4] == 42.0 and plain["w"][0, 0] != 42.0


def test_flat_adamw_is_bit_exact_against_per_name_loop():
    # 24 steps on the generator's six shapes, weight decay on, and every
    # third step's gradients scaled down the way clipping scales them.
    lr, b1, b2, eps, wd = 3e-3, 0.9, 0.999, 1e-8, 1e-2
    params = generator_net()
    ref = {k: v.copy() for k, v in params.items()}
    m_ref, v_ref = {}, {}
    opt = tg.AdamW(lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
    rng = np.random.default_rng(5)
    for step in range(1, 25):
        grads = {k: rng.standard_normal(v.shape) for k, v in params.items()}
        if step % 3 == 0:
            grads = tg.clip_global_norm(grads, 0.5 * tg.global_norm(grads))
        opt.step(params, grads)
        reference_adamw_step(ref, grads, m_ref, v_ref, step, lr, b1, b2, eps, wd)
        assert opt.t == step
        for k in ref:
            assert np.array_equal(params[k], ref[k])
            assert np.array_equal(opt.m[k], m_ref[k])
            assert np.array_equal(opt.v[k], v_ref[k])


def test_flat_adamw_names_first_nonfinite_parameter_in_sorted_order():
    params = generator_net()
    opt = tg.AdamW(lr=1e-3)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    opt.step(params, grads)
    # A huge learning rate times a decayed weight overflows only the weights;
    # the biases are zero, so w1 is the first non-finite name, not b1.
    opt.lr, opt.weight_decay = 1e308, 1e308
    with pytest.raises(tg.NonFiniteError, match="parameter 'w1'"):
        with np.errstate(all="ignore"):
            opt.step(params, grads)


def test_flat_adamw_rejects_plain_dicts_and_foreign_layouts():
    opt = tg.AdamW(lr=1e-3)
    with pytest.raises(TypeError):
        opt.step({"w": np.zeros(2)}, {"w": np.zeros(2)})
    opt.step(tg.flatten({"w": np.zeros(2)}), {"w": np.ones(2)})
    with pytest.raises(KeyError):
        opt.step(tg.flatten({"u": np.zeros(2)}), {"u": np.ones(2)})
    with pytest.raises(tg.ShapeError):
        opt.step(tg.flatten({"w": np.zeros(2)}), {"w": np.ones(3)})


def test_load_state_dict_rebuilds_flat_moments():
    params = generator_net()
    opt = tg.AdamW(lr=1e-3)
    rng = np.random.default_rng(9)
    opt.step(params, {k: rng.standard_normal(v.shape) for k, v in params.items()})
    twin = tg.AdamW(lr=1e-3)
    twin.load_state_dict(opt.state_dict())
    for moments, source in ((twin.m, opt.m), (twin.v, opt.v)):
        assert isinstance(moments, tg.FlatParams)
        assert np.array_equal(moments.flat, source.flat)
        assert not np.shares_memory(moments.flat, source.flat)


def peak_bytes(fn, warmup=2):
    for _ in range(warmup):
        fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_adamw_step_allocates_no_vector_sized_temporaries():
    # Whole-vector expressions would allocate a parameter-sized temporary per
    # operation; the in-place step must stay far below one vector.
    params = generator_net()
    rng = np.random.default_rng(11)
    grads = {k: rng.standard_normal(v.shape) * 1e-3 for k, v in params.items()}
    opt = tg.AdamW(lr=1e-5)
    peak = peak_bytes(lambda: opt.step(params, grads))
    assert peak < params.flat.nbytes / 4, (peak, params.flat.nbytes)
