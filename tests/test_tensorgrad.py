"""Autodiff engine checks: every gradient is pinned to central finite differences."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from astro import flowgen, nftcore
from astro import tensorgrad as tg
from astro.config import RunConfig


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


def test_finite_values_whose_sum_overflows_pass_the_check():
    g = tg.GradGraph()
    big = g.parameter("p", np.full((1, 2), 1e308))
    out = tg.apply_primitive("add", [big, g.constant(np.zeros((1, 2)))], g)
    assert np.array_equal(out.value, np.full((1, 2), 1e308))


def overflowing_generator():
    """Generator weights at the float64 maximum in the first layer: any input
    above 1 in magnitude makes its product with them overflow."""
    params = generator_net()
    params["w1"][...] = np.finfo(np.float64).max
    return params, np.full((3, params["w1"].shape[0]), 2.0)


def test_overflow_raises_at_the_primitive_that_made_it():
    params, x = overflowing_generator()
    # tanh saturates the overflow to 1, so every later value is finite: a
    # check on the prediction alone would pass this network.
    with np.errstate(over="ignore"):
        assert np.isfinite(flowgen.mlp_forward(params, x)).all()
    with pytest.raises(tg.NonFiniteError, match="primitive 'matmul'"):
        flowgen.mlp_forward(params, x, tg.GradGraph())


def test_overflow_in_pretraining_raises_pretrain_divergence():
    params, _ = overflowing_generator()
    corpus = flowgen.make_corpus(seed=0)
    with pytest.raises(flowgen.PretrainDivergence) as info:
        flowgen.pretrain_base(corpus, 3, np.random.default_rng(0), init=params)
    assert info.value.step == 0
    assert isinstance(info.value.__cause__, tg.NonFiniteError)
    assert "primitive 'matmul'" in str(info.value.__cause__)


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


def every_primitive_loss(params, x, graph=None, offset=0.25):
    """One expression whose tape records every primitive; numpy fallback mirrors it."""
    if graph is None:
        h = np.tanh(x @ params["w"])
        piece = (h + params["c"] * h - offset) * 0.5
        return float(np.sum(piece ** 2)) + float(np.mean(h))
    p = graph.parameters(params)
    h = (graph.input("x", x) @ p["w"]).tanh()
    piece = (h + p["c"] * h - graph.input("offset", offset)) * 0.5
    return piece.square().sum() + h.mean()


def test_gradients_through_every_primitive():
    # Pinned to finite differences. A primitive added without coverage here
    # fails the test.
    rng = np.random.default_rng(11)
    params = {"w": rng.standard_normal((4, 3)), "c": rng.standard_normal((2, 3))}
    x = rng.standard_normal((2, 4))

    graph = tg.GradGraph()
    loss = every_primitive_loss(params, x, graph)
    assert {node.op for node in graph.nodes} - {"param"} == set(tg.PRIMITIVES)
    grads = tg.backward(graph, loss)
    for name in params:
        fd = numeric_grad(lambda: every_primitive_loss(params, x), params, name)
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


def test_backward_of_a_detached_loss_is_all_zeros():
    # A graph that records nodes but whose loss reads none of them: every
    # parameter, reached by the graph or not, gets a zero gradient.
    graph = tg.GradGraph()
    w = graph.parameter("w", np.full((2, 2), 3.0))
    graph.parameter("b", np.ones((1, 2)))
    (w @ w).sum()
    x = graph.input("x", np.ones((3, 2)))
    for loss in (graph.constant(2.5), (x * 2.0).sum(), graph.input("s", 1.5)):
        assert loss.detached and loss.shape == ()
        grads = tg.backward(graph, loss)
        assert isinstance(grads, tg.FlatParams) and list(grads) == ["b", "w"]
        assert np.array_equal(grads.flat, np.zeros(6))


def test_backward_returns_flat_grads_in_sorted_order():
    # Registered out of sorted order; the gradients come back laid out like
    # flatten lays out parameters, untouched parameters as zeros.
    graph = tg.GradGraph()
    w = graph.parameter("w", np.full((2, 2), 3.0))
    graph.parameter("c", np.ones(3))
    b = graph.parameter("b", np.ones((1, 2)))
    grads = tg.backward(graph, (w + b).sum())
    assert isinstance(grads, tg.FlatParams)
    assert list(grads) == ["b", "c", "w"]
    assert np.array_equal(grads.flat, np.array([2.0, 2.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]))
    assert grads["w"].shape == (2, 2) and np.shares_memory(grads["w"], grads.flat)


def test_detached_branch_equals_rebuilt_constant_graph():
    # A branch cut off by entering its value as a constant of the same graph
    # must give the gradient of a graph rebuilt from scratch without it.
    rng = np.random.default_rng(13)
    params = tg.flatten({"w": rng.standard_normal((3, 3))})
    x = rng.standard_normal((2, 3))

    graph = tg.GradGraph()
    p = graph.parameters(params)
    h = (graph.constant(x) @ p["w"]).tanh()
    summary = h.mean()
    out = (graph.constant(x) @ p["w"]) * graph.constant(summary.value)
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


# --- backward against the whole-tape walk ---


def reference_reduce_to(shape, g):
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    return g.sum(axis=0, keepdims=True)


def reference_adjoint(node, g):
    """Every parent's adjoint, detached or not, by the rules backward uses."""
    op, parents = node.op, node.parents
    values = [p.value for p in parents]
    if op == "add":
        return [reference_reduce_to(p.shape, g) for p in parents]
    if op == "sub":
        return [reference_reduce_to(parents[0].shape, g),
                reference_reduce_to(parents[1].shape, -g)]
    if op == "mul":
        return [reference_reduce_to(parents[0].shape, g * values[1]),
                reference_reduce_to(parents[1].shape, g * values[0])]
    if op == "scalar_mul":
        return [g * node.ctx["scalar"]]
    if op == "matmul":
        return [g @ values[1].T, values[0].T @ g]
    if op == "tanh":
        return [g * (1.0 - node.value * node.value)]
    if op == "square":
        return [g * 2.0 * values[0]]
    if op == "sum":
        return [np.broadcast_to(g, values[0].shape).copy()]
    if op == "mean":
        return [np.broadcast_to(g / math.prod(values[0].shape), values[0].shape).copy()]
    raise ValueError(op)


def reference_backward(graph, loss):
    """The whole-tape walk: every adjoint formed, detached operands' too, leaf
    gradients gathered in a dict by node, then flattened."""
    grads = {}
    if not loss.detached:
        grads[id(loss)] = np.ones(())
        for node in reversed(graph.nodes[: graph.nodes.index(loss) + 1]):
            g = grads.pop(id(node), None)
            if g is None or node.op == "param":
                if g is not None:
                    grads[id(node)] = g
                continue
            for parent, pg in zip(node.parents, reference_adjoint(node, g)):
                if parent.detached:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
    return tg.flatten({name: grads.get(id(p), np.zeros(p.shape))
                       for name, p in graph.params.items()})


def one_group_inputs(run, scored, cfg, t, eps):
    """Every array one group's loss reads, at noise level t and noise eps: its
    epoch_loss_inputs alone, with theta_old's step_inputs."""
    fixed = nftcore.epoch_loss_inputs(run.theta_ref, scored, [t], eps[None])[0]
    return nftcore.step_inputs(fixed, run.theta_old, cfg)


def group_case(masked: bool, seed: int = 21):
    """build_group_loss's pieces at generator scale on a synthetic G=8 group:
    (theta, inputs, build). With masked=False no row is masked and the KL
    term is 0."""
    cfg = RunConfig(lambda_kl=0.05)
    rng = np.random.default_rng(seed)
    run = nftcore.RunState.fresh(cfg, generator_net())
    run.theta.flat += 0.01 * rng.standard_normal(run.theta.flat.shape)
    run.theta_ref.flat -= 0.01 * rng.standard_normal(run.theta.flat.shape)
    g, width = cfg.group_size, cfg.clip_len * cfg.frame_dim
    data = nftcore.GroupData(
        prompts=[flowgen.make_prompt(0, rng, cfg.prompt_dim)],
        clips=rng.standard_normal((1, g, 1, cfg.clip_len, cfg.frame_dim)),
        summaries=rng.standard_normal((1, g, 1, 2 * cfg.frame_dim)))
    mask = np.arange(g) % 3 == 0 if masked else np.zeros(g, dtype=bool)
    scored = nftcore.ScoredGroup(data=data, raw_scores=np.zeros((1, g, 3)),
                                 advantages=nftcore.compute_advantages(rng.standard_normal((1, g))),
                                 mask=mask[None], tau=np.ones(1))
    inputs = one_group_inputs(run, scored, cfg, 5.0 / 6.0, rng.standard_normal((g, width)))
    return (run.theta, inputs,
            lambda graph, theta, arrays: nftcore.group_loss_graph(graph, theta, arrays, cfg))


def pretrain_case(seed: int = 22):
    """One pretraining step's loss, as pretrain_base builds it."""
    rng = np.random.default_rng(seed)
    corpus = flowgen.make_corpus(seed=0)
    x0, ctx, pv = corpus.sample_batch(rng, 16)
    t = np.array(flowgen.make_schedule().values)[rng.integers(3, size=16)]
    xt = flowgen.forward_path(x0, rng.standard_normal(x0.shape), t)
    params = generator_net(1)
    params.flat += 0.01 * rng.standard_normal(params.flat.shape)
    return params, {"x": flowgen.assemble_input(xt, t, ctx, pv), "x0": x0}, flowgen.regression_loss


def every_primitive_case(seed: int = 11):
    rng = np.random.default_rng(seed)
    params = {"w": rng.standard_normal((4, 3)), "c": rng.standard_normal((2, 3))}
    return (params, {"x": rng.standard_normal((2, 4)), "offset": np.asarray(0.25)},
            lambda graph, p, inputs: (every_primitive_loss(p, inputs["x"], graph,
                                                           inputs["offset"]),))


def shared_weight_case(seed: int = 12):
    # w feeds two matmuls, so its gradient is accumulated in its view.
    rng = np.random.default_rng(seed)

    def build(graph, params, inputs):
        w, x = graph.parameter("w", params["w"]), graph.input("x", inputs["x"])
        return ((x @ w).tanh().square().mean() + (x @ w).sum() * 0.5,)
    return {"w": rng.standard_normal((3, 3))}, {"x": rng.standard_normal((4, 3))}, build


# Each case: seed -> (params, inputs, build), build as tensorgrad.loss_pass takes it.
CASES = {"group_masked": lambda seed=21: group_case(True, seed),
         "group_unmasked": lambda seed=21: group_case(False, seed),
         "pretrain": pretrain_case, "every_primitive": every_primitive_case,
         "shared_weight": shared_weight_case}


def build_case(case: str, seed: int | None = None):
    """A fresh Node build of a case: (graph, loss node, output nodes)."""
    params, inputs, build = CASES[case]() if seed is None else CASES[case](seed)
    graph = tg.GradGraph()
    outputs = build(graph, params, inputs)
    return graph, outputs[0], outputs


def group_loss():
    graph, loss, outputs = build_case("group_masked")
    assert len(outputs) == 3 and len(graph) == 34
    return graph, loss


@pytest.mark.parametrize("case", sorted(CASES))
def test_backward_is_bit_identical_to_whole_tape_walk(case):
    graph, loss, _ = build_case(case)
    grads = tg.backward(graph, loss)
    expected = reference_backward(graph, loss)
    assert list(grads) == list(expected)
    assert np.array_equal(grads.flat, expected.flat)
    assert np.any(grads.flat != 0.0)


def nonfinite_message(fn):
    """fn()'s NonFiniteError message, or its result when it raises none."""
    try:
        return fn()
    except tg.NonFiniteError as err:
        return str(err)


@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_raises_where_a_fresh_build_does(case):
    # The replay checks only the results the finiteness proof names, then
    # scans every result computed so far; it must fail, or pass, as a Node
    # build of the same arrays does. Each leaf in turn gets one NaN, +inf or -inf.
    params, inputs, build = CASES[case]()
    tapes = {}
    tg.loss_pass(tapes, (), params, inputs, build)[1](tg.flatten(params))
    for name, bad in itertools.product([*params, *inputs], (np.nan, np.inf, -np.inf)):
        arrays = {k: np.array(v) for k, v in {**params, **inputs}.items()}
        arrays[name].flat[arrays[name].size // 2] = bad
        p, x = {k: arrays[k] for k in params}, {k: arrays[k] for k in inputs}
        replayed = nonfinite_message(lambda: tg.loss_pass(tapes, (), p, x, build)[0])
        fresh = nonfinite_message(
            lambda: [float(node.value) for node in build(tg.GradGraph(), p, x)])
        assert replayed == fresh, (name, bad)
        if bad is np.nan:
            assert isinstance(fresh, str) and fresh.startswith("primitive ")
    assert len(tapes) == 1


# Operand shapes for each primitive's premise check: equal shapes, a (1, n)
# row and a 0-d scalar for the elementwise ones; matrix-vector and
# matrix-matrix products for matmul.
PREMISE_SHAPES = {
    **{op: [((3, 4), (3, 4)), ((1, 4), (3, 4)), ((3, 4), (1, 4)), ((), (3, 4)), ((3, 4), ())]
       for op in ("add", "sub", "mul")},
    "matmul": [((1, 3), (3, 1)), ((1, 5), (5, 7)), ((6, 5), (5, 1)), ((4, 3), (3, 6)),
               ((24, 37), (37, 32))],
    **{op: [((3, 4),), ((),)] for op in ("scalar_mul", "tanh", "sum", "mean", "square")},
}


def test_only_saturating_primitives_make_nonfinite_operands_finite():
    # The premise of the tape's finiteness proof: a NaN or inf in any operand,
    # next to zeros, stays non-finite in the result unless the primitive is
    # marked saturating, and only tanh is (it maps inf to 1).
    assert set(PREMISE_SHAPES) == set(tg.PRIMITIVES)
    assert {op for op, (_, _, saturates) in tg.PRIMITIVES.items() if saturates} == {"tanh"}
    rng = np.random.default_rng(5)
    with np.errstate(all="ignore"):
        assert np.isfinite(tg.PRIMITIVES["tanh"][0](np.array([np.inf, -np.inf]))).all()
        for op, (forward, _, saturates) in tg.PRIMITIVES.items():
            kws = [{"scalar": 0.0}, {"scalar": 2.0}] if op == "scalar_mul" else [{}]
            for shapes, kw, bad, fill in itertools.product(
                    PREMISE_SHAPES[op], kws, (np.nan, np.inf, -np.inf),
                    (np.zeros, rng.standard_normal)):
                for pos, shape in enumerate(shapes):
                    for at in range(math.prod(shape)):
                        values = [fill(other) for other in shapes]
                        values[pos] = np.zeros(shape)
                        values[pos].flat[at] = bad
                        out = np.asarray(forward(*values, **kw))
                        assert saturates or not np.isfinite(out).all(), (op, shapes, pos, bad)


@pytest.mark.parametrize("case", sorted(CASES))
def test_replayed_tape_is_bit_identical_to_a_fresh_build(case):
    # Recorded on one parameter and input set, replayed on a second: the
    # loss, the watched values and the gradients are those of a fresh Node
    # build on the second set with the whole-tape walk. Both passes write
    # into one caller-owned vector, all NaN before each, and return it: every
    # value is written, by a first write or an accumulation.
    tapes = {}
    params, inputs, build = CASES[case](0)
    out = tg.flatten(params)
    out.flat[...] = np.nan
    values, finish = tg.loss_pass(tapes, (), params, inputs, build)
    assert finish(out) is out
    assert np.array_equal(out.flat, reference_backward(*build_case(case, 0)[:2]).flat)
    assert len(tapes) == 1
    params, inputs, build = CASES[case](1)
    replayed, finish = tg.loss_pass(tapes, (), params, inputs, build)
    out.flat[...] = np.nan
    assert finish(out) is out
    assert len(tapes) == 1  # replayed, not recorded again
    graph, loss, outputs = build_case(case, 1)
    expected = reference_backward(graph, loss)
    assert replayed == [float(node.value) for node in outputs] != values
    assert list(out) == list(expected)
    assert np.array_equal(out.flat, expected.flat)
    assert np.any(out.flat != 0.0)


def test_backward_fills_an_untouched_parameter_with_zeros():
    # c is registered but never read: its view of the caller's vector, NaN
    # before the pass, is filled with zeros. A vector in another layout is refused.
    def build(graph, params, inputs):
        graph.parameter("c", params["c"])
        return ((graph.input("x", inputs["x"]) @ graph.parameter("w", params["w"])).sum(),)

    params = {"c": np.ones(3), "w": np.ones((2, 2))}
    out = tg.flatten(params)
    out.flat[...] = np.nan
    assert tg.loss_pass({}, (), params, {"x": np.ones((3, 2))}, build)[1](out) is out
    assert np.array_equal(out.flat, [0.0, 0.0, 0.0, 3.0, 3.0, 3.0, 3.0])
    for other in ({"w": np.zeros((2, 2))}, {"c": np.zeros(3), "w": np.zeros((1, 4))}):
        finish = tg.loss_pass({}, (), params, {"x": np.ones((3, 2))}, build)[1]
        with pytest.raises(tg.ShapeError, match="gradient layout"):
            finish(tg.flatten(other))


def test_recording_refuses_an_undeclared_constant():
    # A tape that reads a constant not declared as an input records, and
    # backward walks it over its graph's values, but it refuses to replay.
    graph = tg.GradGraph()
    w = graph.parameter("w", np.ones((2, 2)))
    loss = (graph.constant(np.ones((3, 2))) @ w).sum()
    tape = tg.Tape(graph, [loss])
    assert np.array_equal(tg.backward(graph, loss)["w"], np.full((2, 2), 3.0))
    with pytest.raises(tg.GraphError, match="not a declared input"):
        tape.forward({"w": np.ones((2, 2))}, {})
    # Through loss_pass, the first pass itself is refused, and no tape is kept.
    def build(g, params, inputs):
        return ((g.constant(inputs["x"]) @ g.parameter("w", params["w"])).sum(),)

    tapes = {}
    with pytest.raises(tg.GraphError, match="not a declared input"):
        tg.loss_pass(tapes, (), {"w": np.ones((2, 2))}, {"x": np.ones((3, 2))}, build)
    assert tapes == {}


def test_overflow_raises_at_the_primitive_that_made_it_on_replay():
    params, x = overflowing_generator()
    inputs = {"x": x, "x0": np.zeros((3, params["b3"].shape[1]))}
    tapes = {}
    net = generator_net()
    tg.loss_pass(tapes, (), net, inputs, flowgen.regression_loss)[1](net.empty_like())
    assert len(tapes) == 1
    with pytest.raises(tg.NonFiniteError, match="primitive 'matmul'"):
        tg.loss_pass(tapes, (), params, inputs, flowgen.regression_loss)


def test_a_failing_replay_evaluates_each_step_once(monkeypatch):
    # After a failed check the replay scans the results it already holds;
    # no step is evaluated again on the same operands.
    calls = []
    for op, (forward, adjoint, saturates) in list(tg.PRIMITIVES.items()):
        def counted(*args, forward=forward, op=op, **kw):
            calls.append((op, tuple(id(a) for a in args)))
            return forward(*args, **kw)
        monkeypatch.setitem(tg.PRIMITIVES, op, (counted, adjoint, saturates))
    params, x = overflowing_generator()
    inputs = {"x": x, "x0": np.zeros((3, params["b3"].shape[1]))}
    tapes = {}
    net = generator_net()
    tg.loss_pass(tapes, (), net, inputs, flowgen.regression_loss)[1](net.empty_like())
    (tape,) = tapes.values()
    calls.clear()
    with pytest.raises(tg.NonFiniteError, match="primitive 'matmul'"):
        tg.loss_pass(tapes, (), params, inputs, flowgen.regression_loss)
    assert 0 < len(calls) <= len(tape.steps)
    assert len(set(calls)) == len(calls)


def test_no_adjoint_is_formed_for_a_detached_operand(monkeypatch):
    calls = []
    for op, (forward, adjoint, saturates) in list(tg.PRIMITIVES.items()):
        def recorded(g, out, args, needs, kw, adjoint=adjoint, op=op):
            result = adjoint(g, out, args, needs, kw)
            calls.append((op, list(needs), result))
            return result
        monkeypatch.setitem(tg.PRIMITIVES, op, (forward, recorded, saturates))
    graph, loss = group_loss()
    tg.backward(graph, loss)
    walked = [node for node in reversed(graph.nodes) if node.op != "param"]
    assert [op for op, _, _ in calls] == [node.op for node in walked]
    skipped = set()
    for node, (_, needs, out) in zip(walked, calls):
        assert needs == [not parent.detached for parent in node.parents]
        assert len(out) == len(node.parents)
        for parent, pg in zip(node.parents, out):
            assert (pg is None) == parent.detached, (node.op, parent)
            if pg is None:
                skipped.add(node.op)
    # x @ w1 with constant x, the behavior prediction in both branches, the
    # label and mask weights and the KL scale, the constant targets.
    assert skipped == {"matmul", "add", "mul", "sub"}
    # A replay of the recorded tape calls the rules in the same order with
    # the same operands marked.
    node_calls = [(op, needs) for op, needs, _ in calls]
    tape = tg.Tape(graph, [loss])
    calls.clear()
    tape.backward(tape.forward(*CASES["group_masked"]()[:2]), tg._layout(tape.shapes))
    assert [(op, needs) for op, needs, _ in calls] == node_calls


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
    opt.step(params, tg.flatten({"p": np.array([[1.0]])}))
    mhat = (0.1) / (1.0 - b1)
    vhat = (0.001) / (1.0 - b2)
    expected = 1.0 - lr * mhat / (np.sqrt(vhat) + eps)
    assert abs(float(params["p"][0, 0]) - expected) <= 1e-15
    assert abs(float(params["p"][0, 0]) - (1.0 - 1e-5)) <= 1e-12


def test_adamw_weight_decay_is_decoupled():
    # Zero gradient: the only movement is the decay term p *= (1 - lr*wd).
    params = tg.flatten({"p": np.array([2.0])})
    opt = tg.AdamW(lr=0.1, weight_decay=0.5)
    opt.step(params, tg.flatten({"p": np.array([0.0])}))
    assert abs(float(params["p"][0]) - 2.0 * (1.0 - 0.1 * 0.5)) <= 1e-15


def test_adamw_two_runs_identical():
    rng = np.random.default_rng(17)
    init = {"w": rng.standard_normal((4, 4))}
    grads = [tg.flatten({"w": rng.standard_normal((4, 4))}) for _ in range(10)]
    results = []
    for _ in range(2):
        params = tg.flatten(init)
        opt = tg.AdamW(lr=1e-3)
        for g in grads:
            opt.step(params, g)
        results.append(params["w"])
    assert np.array_equal(results[0], results[1])


def test_adamw_state_roundtrip():
    # The optimizer state a checkpoint carries (t, m, v) restores exactly
    # through RunState's in-memory round-trip, which stays float64: the
    # next step is bit-identical, from moments that are flat copies.
    cfg = RunConfig()
    rng = np.random.default_rng(23)
    run = nftcore.RunState.fresh(cfg, generator_net())

    def grads():
        return tg.flatten({k: rng.standard_normal(v.shape)
                           for k, v in run.theta.items()})

    run.optimizer.step(run.theta, grads())
    arrays, extra = run.to_arrays()
    twin = nftcore.RunState.from_arrays(arrays, {"seed": cfg.seed, "epoch": 0, "extra": extra},
                                        cfg)
    g = grads()
    run.optimizer.step(run.theta, g)
    twin.optimizer.step(twin.theta, g)
    assert twin.optimizer.t == run.optimizer.t == 2
    assert np.array_equal(twin.theta.flat, run.theta.flat)
    for moments, source in ((twin.optimizer.m, run.optimizer.m),
                            (twin.optimizer.v, run.optimizer.v)):
        assert isinstance(moments, tg.FlatParams)
        assert np.array_equal(moments.flat, source.flat)
        assert not np.shares_memory(moments.flat, source.flat)


def test_clip_global_norm():
    grads = tg.flatten({"a": np.array([3.0]), "b": np.array([4.0])})
    flat = grads.flat
    assert tg.clip_global_norm(grads, 1.0) == 5.0  # the norm before clipping
    assert grads.flat is flat and np.shares_memory(grads["a"], flat)
    assert np.array_equal(flat, np.array([3.0, 4.0]) * (1.0 / 5.0))
    assert abs(tg.global_norm(grads) - 1.0) <= 1e-12
    # Below max_norm nothing is written: same object, same bits.
    before = flat.copy()
    assert tg.clip_global_norm(grads, 10.0) == tg.global_norm(grads)
    assert grads.flat is flat and np.array_equal(flat, before)


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
        grads = tg.flatten({k: rng.standard_normal(v.shape) for k, v in params.items()})
        if step % 3 == 0:
            tg.clip_global_norm(grads, 0.5 * tg.global_norm(grads))
        given = grads.flat.copy()
        opt.step(params, grads)
        assert np.array_equal(grads.flat, given)  # the step never writes the gradients
        reference_adamw_step(ref, grads, m_ref, v_ref, step, lr, b1, b2, eps, wd)
        assert opt.t == step
        for k in ref:
            assert np.array_equal(params[k], ref[k])
            assert np.array_equal(opt.m[k], m_ref[k])
            assert np.array_equal(opt.v[k], v_ref[k])


@pytest.mark.parametrize("wd", [0.0, 1e-2])
def test_flat_adamw_is_bit_exact_across_the_end_of_bias_correction(wd):
    # From t = 356 (beta1 = 0.9) 1 - beta1**t is exactly 1.0 and the step
    # skips its division; with wd = 0 it skips the decay. Steps 350..370,
    # from random moments, cover both sides of the first and both settings
    # of the second, with zero parameters and gradients of either sign.
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    assert 1.0 - b1 ** 355 != 1.0 and 1.0 - b1 ** 356 == 1.0
    rng = np.random.default_rng(12)
    params = generator_net()
    params["b1"][0, :4] = [0.0, -0.0, 0.0, -0.0]
    opt = tg.AdamW(lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
    opt.t = 349
    opt.m = tg.flatten({k: rng.standard_normal(v.shape) * 1e-3 for k, v in params.items()})
    opt.v = tg.flatten({k: rng.random(v.shape) * 1e-6 for k, v in params.items()})
    ref = {k: v.copy() for k, v in params.items()}
    m_ref = {k: v.copy() for k, v in opt.m.items()}
    v_ref = {k: v.copy() for k, v in opt.v.items()}
    for step in range(350, 371):
        grads = tg.flatten({k: rng.standard_normal(v.shape) for k, v in params.items()})
        grads["b1"][0, :4] = [0.0, -0.0, -0.0, 0.0]
        m_ref["b1"][0, :4] = opt.m["b1"][0, :4] = 0.0
        given = grads.flat.copy()
        opt.step(params, grads)
        assert np.array_equal(grads.flat, given)
        reference_adamw_step(ref, grads, m_ref, v_ref, step, lr, b1, b2, eps, wd)
        assert opt.t == step
        for k in ref:
            assert params[k].tobytes() == ref[k].tobytes()
            assert opt.m[k].tobytes() == m_ref[k].tobytes()
            assert opt.v[k].tobytes() == v_ref[k].tobytes()


def test_flat_adamw_names_first_nonfinite_parameter_in_sorted_order():
    params = generator_net()
    opt = tg.AdamW(lr=1e-3)
    grads = tg.flatten({k: np.zeros_like(v) for k, v in params.items()})
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
        opt.step({"w": np.zeros(2)}, tg.flatten({"w": np.zeros(2)}))
    with pytest.raises(TypeError):
        opt.step(tg.flatten({"w": np.zeros(2)}), {"w": np.zeros(2)})
    opt.step(tg.flatten({"w": np.zeros(2)}), tg.flatten({"w": np.ones(2)}))
    with pytest.raises(KeyError):
        opt.step(tg.flatten({"w": np.zeros(2)}), tg.flatten({"u": np.ones(2)}))
    with pytest.raises(KeyError):
        opt.step(tg.flatten({"u": np.zeros(2)}), tg.flatten({"u": np.ones(2)}))
    with pytest.raises(tg.ShapeError):
        opt.step(tg.flatten({"w": np.zeros(2)}), tg.flatten({"w": np.ones(3)}))


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
    grads = tg.flatten({k: rng.standard_normal(v.shape) * 1e-3 for k, v in params.items()})
    opt = tg.AdamW(lr=1e-5)
    peak = peak_bytes(lambda: opt.step(params, grads))
    assert peak < params.flat.nbytes / 4, (peak, params.flat.nbytes)
