"""Tape-based reverse-mode autodiff over dense float64 arrays.

The primitive set is deliberately small and fixed: add, sub, mul, scalar_mul,
matmul, tanh, sum, mean, square. The predictor and the training losses
compile to these, and no primitive is kept that they do not use. A GradGraph
records nodes in creation order (which is already topological), backward
walks the tape once, and detached nodes cut gradient flow structurally: they
have no parents, so nothing is ever propagated through them.

Also home to the optimizer side. Parameters live in FlatParams: name-keyed
views into one contiguous float64 vector per policy, laid out in sorted-name
order (build one with flatten). AdamW keeps its moments in the same layout
and updates the whole vector with in-place array ops. Gradients stay
name-keyed dicts, which global-norm clipping reads and returns.
"""

from __future__ import annotations

import weakref

import numpy as np

PRIMITIVES = (
    "add", "sub", "mul", "scalar_mul", "matmul", "tanh", "sum", "mean", "square",
)


class GraphError(ValueError):
    """Structural misuse: foreign nodes, duplicate parameters, non-scalar loss."""


class ShapeError(ValueError):
    """Operand shapes outside what a primitive accepts."""


class NonFiniteError(ArithmeticError):
    """A primitive produced NaN or inf, or an optimizer update did.

    row, when the raiser knows it, is the first batch row holding a
    non-finite value.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Node:
    """One value on the tape. Leaf parameters carry a param_id; constants are detached.

    The back-reference to the graph is weak: the graph owns its nodes, so a
    strong one would make every graph a reference cycle that lives, with
    all its activations, until the cycle collector runs.
    """

    __slots__ = ("_graph", "value", "op", "parents", "ctx", "detached", "param_id", "index")

    # Keep numpy from consuming Node in mixed arithmetic; reflected ops run instead.
    __array_ufunc__ = None

    def __init__(self, graph, value, op, parents=(), ctx=None, detached=False,
                 param_id=None, index=-1):
        self._graph = graph._ref
        self.value = value
        self.op = op
        self.parents = parents
        self.ctx = ctx
        self.detached = detached
        self.param_id = param_id
        self.index = index

    @property
    def graph(self) -> "GradGraph":
        graph = self._graph()
        if graph is None:
            raise GraphError("node outlived its graph")
        return graph

    @property
    def shape(self):
        return self.value.shape

    @property
    def size(self):
        return self.value.size

    def detach(self) -> "Node":
        """Same value, no history. Gradient flow stops here."""
        return self.graph.constant(self.value)

    # Operator sugar; everything routes through apply_primitive.

    def _coerce(self, other) -> "Node":
        if isinstance(other, Node):
            if other.graph is not self.graph:
                raise GraphError("operands recorded on different graphs")
            return other
        return self.graph.constant(other)

    def __add__(self, other):
        return apply_primitive("add", [self, self._coerce(other)], self.graph)

    __radd__ = __add__

    def __sub__(self, other):
        return apply_primitive("sub", [self, self._coerce(other)], self.graph)

    def __rsub__(self, other):
        return apply_primitive("sub", [self._coerce(other), self], self.graph)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return apply_primitive("scalar_mul", [self], self.graph, scalar=float(other))
        return apply_primitive("mul", [self, self._coerce(other)], self.graph)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, float)):
            raise ShapeError("division only by python scalars")
        return apply_primitive("scalar_mul", [self], self.graph, scalar=1.0 / float(other))

    def __neg__(self):
        return apply_primitive("scalar_mul", [self], self.graph, scalar=-1.0)

    def __matmul__(self, other):
        return apply_primitive("matmul", [self, self._coerce(other)], self.graph)

    def tanh(self):
        return apply_primitive("tanh", [self], self.graph)

    def square(self):
        return apply_primitive("square", [self], self.graph)

    def sum(self):
        return apply_primitive("sum", [self], self.graph)

    def mean(self):
        return apply_primitive("mean", [self], self.graph)

    def __repr__(self):
        tag = self.param_id or self.op
        return f"Node({tag}, shape={self.shape}, detached={self.detached})"


class GradGraph:
    """Append-only tape. Node order is topological by construction."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.params: dict[str, Node] = {}
        self._ref = weakref.ref(self)

    def constant(self, value) -> Node:
        """Detached leaf. Not recorded on the tape; nothing flows through it."""
        return Node(self, _as_array(value), op="const", detached=True)

    def parameter(self, name: str, value: np.ndarray) -> Node:
        """Trainable leaf keyed by name. Re-registering the same array is a no-op."""
        existing = self.params.get(name)
        if existing is not None:
            if existing.value is not value:
                raise GraphError(f"parameter {name!r} already registered with a different array")
            return existing
        node = Node(self, _as_array(value), op="param", param_id=name, index=len(self.nodes))
        self.nodes.append(node)
        self.params[name] = node
        return node

    def parameters(self, values: dict[str, np.ndarray]) -> dict[str, Node]:
        return {name: self.parameter(name, arr) for name, arr in values.items()}

    def __len__(self):
        return len(self.nodes)


def _broadcast_ok(sa: tuple, sb: tuple) -> bool:
    # Equal shapes always; a 0-d scalar against anything; otherwise only a
    # (1, n) row against (B, n).
    if sa == sb:
        return True
    if sa == () or sb == ():
        return True
    if len(sa) == 2 and len(sb) == 2 and sa[1] == sb[1]:
        return sa[0] == 1 or sb[0] == 1
    return False


def _reduce_to(shape: tuple, g: np.ndarray) -> np.ndarray:
    # Undo broadcast in the adjoint: a 0-d operand collects the full sum, a
    # (1, n) row sums over rows.
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    return g.sum(axis=0, keepdims=True)


def _forward(op_id: str, values: list[np.ndarray], kw: dict):
    """Returns (result, ctx) where ctx holds whatever the adjoint rule needs."""
    if op_id in ("add", "sub", "mul"):
        a, b = values
        if not _broadcast_ok(a.shape, b.shape):
            raise ShapeError(f"{op_id}: incompatible shapes {a.shape} and {b.shape}")
        if op_id == "add":
            return a + b, None
        if op_id == "sub":
            return a - b, None
        return a * b, (a, b)
    if op_id == "scalar_mul":
        (a,) = values
        return a * kw["scalar"], kw["scalar"]
    if op_id == "matmul":
        a, b = values
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: need (m,k)@(k,n), got {a.shape} and {b.shape}")
        return a @ b, (a, b)
    if op_id == "tanh":
        y = np.tanh(values[0])
        return y, y
    if op_id == "square":
        (a,) = values
        return a * a, a
    if op_id == "sum":
        return np.asarray(values[0].sum()), values[0].shape
    if op_id == "mean":
        return np.asarray(values[0].mean()), values[0].shape
    raise ValueError(f"unknown primitive {op_id!r}")


def _adjoint(node: Node, g: np.ndarray) -> list[np.ndarray]:
    """Gradients for node.parents given the gradient g at node."""
    op = node.op
    if op == "add":
        return [_reduce_to(p.shape, g) for p in node.parents]
    if op == "sub":
        a, b = node.parents
        return [_reduce_to(a.shape, g), _reduce_to(b.shape, -g)]
    if op == "mul":
        av, bv = node.ctx
        a, b = node.parents
        return [_reduce_to(a.shape, g * bv), _reduce_to(b.shape, g * av)]
    if op == "scalar_mul":
        return [g * node.ctx]
    if op == "matmul":
        av, bv = node.ctx
        return [g @ bv.T, av.T @ g]
    if op == "tanh":
        y = node.ctx
        return [g * (1.0 - y * y)]
    if op == "square":
        return [g * 2.0 * node.ctx]
    if op == "sum":
        return [np.broadcast_to(g, node.ctx).copy()]
    if op == "mean":
        shape = node.ctx
        n = 1
        for s in shape:
            n *= s
        return [np.broadcast_to(g / n, shape).copy()]
    raise ValueError(f"no adjoint for {op!r}")


def apply_primitive(op_id: str, inputs: list, graph: GradGraph, **kw) -> Node:
    """Evaluate one primitive and record it, unless every input is detached.

    Raw arrays in `inputs` are wrapped as constants. The result value is
    checked finite; training surfaces numerical blowups here rather than as
    silent NaN propagation.
    """
    if op_id not in PRIMITIVES:
        raise ValueError(f"unknown primitive {op_id!r}")
    nodes = []
    for x in inputs:
        if isinstance(x, Node):
            if x.graph is not graph:
                raise GraphError("input node belongs to a different graph")
            nodes.append(x)
        else:
            nodes.append(graph.constant(x))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value, ctx = _forward(op_id, [n.value for n in nodes], kw)
    if not np.isfinite(value).all():
        raise NonFiniteError(f"primitive {op_id!r} produced non-finite values")
    if all(n.detached for n in nodes):
        return graph.constant(value)
    node = Node(graph, value, op=op_id, parents=tuple(nodes), ctx=ctx, index=len(graph.nodes))
    graph.nodes.append(node)
    return node


def backward(graph: GradGraph, loss: Node) -> dict[str, np.ndarray]:
    """Reverse pass from a scalar loss. One gradient array per registered parameter.

    Parameters the loss never touched (or that were detached away) map to
    zero arrays of the right shape.
    """
    if not isinstance(loss, Node) or loss.graph is not graph:
        raise GraphError("loss node does not belong to this graph")
    if loss.shape != ():
        raise GraphError(f"loss must be scalar-shaped, got {loss.shape}")
    grads: dict[int, np.ndarray] = {}
    if not loss.detached:
        grads[id(loss)] = np.ones(())
        for node in reversed(graph.nodes[: loss.index + 1]):
            g = grads.pop(id(node), None)
            if g is None or node.op == "param":
                if g is not None:
                    grads[id(node)] = g  # keep leaf gradients for collection below
                continue
            for parent, pg in zip(node.parents, _adjoint(node, g)):
                if parent.detached:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
    return {
        name: grads.get(id(p), np.zeros(p.shape))
        for name, p in graph.params.items()
    }


def global_norm(grads: dict[str, np.ndarray]) -> float:
    """Joint L2 norm. Plain numpy reductions, not BLAS dot products, whose
    per-call cost swings widely with the BLAS thread count on tiny arrays."""
    return float(np.sqrt(sum(float(np.sum(np.square(grads[name]))) for name in sorted(grads))))


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float,
                     norm: float | None = None) -> dict[str, np.ndarray]:
    """Scale all gradients by max_norm/norm when the joint L2 norm exceeds max_norm.

    Pass norm when global_norm(grads) is already known, to skip recomputing it.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    if norm is None:
        norm = global_norm(grads)
    if norm <= max_norm:
        return {k: g.copy() for k, g in grads.items()}
    scale = max_norm / norm
    return {k: g * scale for k, g in grads.items()}


def _empty_vector(size: int) -> np.ndarray:
    """Uninitialized float64 vector starting on a 64-byte boundary.

    numpy runs its fastest elementwise loops when every operand shares this
    alignment; with mixed alignments, a two-operand op on the generator's
    28k-parameter vector measured about twice as slow (x86-64, numpy 2.4).
    """
    buf = np.empty(size + 8)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start:start + size]


class FlatParams(dict):
    """Name -> array view into one contiguous float64 vector, `flat`.

    Names are laid out in sorted order, so an elementwise op on `flat` does
    the work of a sorted per-name loop in one call, and with the same bits.
    The entries are views: update them in place, never rebind a name.
    Build one with flatten().
    """

    __slots__ = ("flat", "_scratch")

    def scratch(self) -> np.ndarray:
        """A vector shaped like flat for in-place updates; made once, then reused."""
        buf = getattr(self, "_scratch", None)
        if buf is None:
            buf = self._scratch = _empty_vector(self.flat.size)
        return buf


def flatten(params: dict[str, np.ndarray]) -> FlatParams:
    """Copy name-keyed arrays into a fresh FlatParams, in sorted-name order."""
    names = sorted(params)
    arrays = [np.asarray(params[k], dtype=np.float64) for k in names]
    out = FlatParams()
    out.flat = _empty_vector(sum(a.size for a in arrays))
    if arrays:
        np.concatenate([a.ravel() for a in arrays], out=out.flat)
    offset = 0
    for name, a in zip(names, arrays):
        out[name] = out.flat[offset:offset + a.size].reshape(a.shape)
        offset += a.size
    return out


class AdamW:
    """AdamW with bias correction and decoupled weight decay over FlatParams.

    step() updates the parameter vector in place with whole-vector ops into
    the moments' two scratch vectors; each op is one step of the per-element
    expression of a per-name loop, in its order, so the bits are that loop's.
    The moments m and v are FlatParams in the parameters' layout; state_dict
    hands them out by name for checkpointing.
    """

    def __init__(self, lr=1e-5, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=1e-4):
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must lie in [0, 1)")
        if lr <= 0 or eps <= 0 or weight_decay < 0:
            raise ValueError("bad optimizer hyperparameters")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m: FlatParams = flatten({})
        self.v: FlatParams = flatten({})

    def step(self, params: FlatParams, grads: dict[str, np.ndarray]) -> None:
        if not isinstance(params, FlatParams):
            raise TypeError("AdamW.step needs FlatParams; build them with tensorgrad.flatten")
        missing = set(params) - set(grads)
        if missing:
            raise KeyError(f"gradients missing for {sorted(missing)}")
        names = sorted(params)
        for name in names:
            if params[name].shape != grads[name].shape:
                raise ShapeError(f"gradient shape {grads[name].shape} != parameter shape "
                                 f"{params[name].shape} for {name!r}")
        if not self.m:
            zeros = {k: np.zeros_like(v) for k, v in params.items()}
            self.m, self.v = flatten(zeros), flatten(zeros)
        if self.m.keys() != params.keys():
            raise KeyError(f"moments held for {sorted(self.m)}, parameters are {names}")
        p, m, v = params.flat, self.m.flat, self.v.flat
        g, a = self.m.scratch(), self.v.scratch()
        np.concatenate([grads[name].ravel() for name in names], out=g)
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        # m += (1 - beta1) * (g - m)
        np.subtract(g, m, out=a)
        a *= 1.0 - self.beta1
        m += a
        # v += (1 - beta2) * (g * g - v)
        np.square(g, out=a)
        a -= v
        a *= 1.0 - self.beta2
        v += a
        # p -= lr * ((m / b1t) / (sqrt(v / b2t) + eps) + weight_decay * p)
        np.divide(v, b2t, out=a)
        np.sqrt(a, out=a)
        a += self.eps
        np.divide(m, b1t, out=g)
        g /= a
        np.multiply(p, self.weight_decay, out=a)
        g += a
        g *= self.lr
        p -= g
        if not np.isfinite(p).all():
            bad = next(name for name in names if not np.isfinite(params[name]).all())
            raise NonFiniteError(f"parameter {bad!r} became non-finite after update")

    def state_dict(self) -> dict:
        return {
            "t": self.t,
            "m": {k: v.copy() for k, v in self.m.items()},
            "v": {k: v.copy() for k, v in self.v.items()},
        }

    def load_state_dict(self, state: dict) -> None:
        self.t = int(state["t"])
        self.m = flatten(state["m"])
        self.v = flatten(state["v"])
