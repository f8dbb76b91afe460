"""Tape-based reverse-mode autodiff over dense float64 arrays.

The primitive set is deliberately small and fixed: add, sub, mul, scalar_mul,
matmul, tanh, sum, mean, square. The predictor and the training losses
compile to these, and no primitive is kept that they do not use. PRIMITIVES
is the one table of them: each name maps to its forward function and its
adjoint rule. A GradGraph records nodes in creation order (which is already
topological), backward walks the tape once, and detached nodes cut gradient
flow structurally: they have no parents, so nothing is ever propagated
through them. Adjoints are formed only where gradient flows: an adjoint
rule returns None in place of the gradient of a detached operand (a
constant input, label or target) instead of computing it.

Also home to the optimizer side. Parameters live in FlatParams: name-keyed
views into one contiguous float64 vector per policy, laid out in sorted-name
order (build one with flatten). AdamW keeps its moments in the same layout
and updates the whole vector with in-place array ops. backward writes each
parameter's gradient straight into its view of one fresh vector in the same
layout, so clipping scales them in place and AdamW reads their vector
directly.
"""

from __future__ import annotations

import math
import weakref

import numpy as np


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

    ctx holds the primitive's keyword arguments (scalar_mul's scalar). The
    back-reference to the graph is weak: the graph owns its nodes, so a
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

    # Operator sugar; everything routes through apply_primitive, which wraps
    # non-Node operands as constants.

    def __add__(self, other):
        return apply_primitive("add", [self, other], self.graph)

    __radd__ = __add__

    def __sub__(self, other):
        return apply_primitive("sub", [self, other], self.graph)

    def __rsub__(self, other):
        return apply_primitive("sub", [other, self], self.graph)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return apply_primitive("scalar_mul", [self], self.graph, scalar=float(other))
        return apply_primitive("mul", [self, other], self.graph)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, float)):
            raise ShapeError("division only by python scalars")
        return apply_primitive("scalar_mul", [self], self.graph, scalar=1.0 / float(other))

    def __neg__(self):
        return apply_primitive("scalar_mul", [self], self.graph, scalar=-1.0)

    def __matmul__(self, other):
        return apply_primitive("matmul", [self, other], self.graph)

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


# --- the primitives: forward functions and adjoint rules ---
#
# A forward function takes the operand values (and the primitive's keyword
# arguments) and returns the result. An adjoint rule takes the recorded node
# and the gradient g at it and returns one entry per parent: that parent's
# gradient, or None when the parent is detached. A unary node is recorded
# only when its one parent is not detached.


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


def _elementwise(op_id: str, ufunc):
    def forward(a, b):
        if not _broadcast_ok(a.shape, b.shape):
            raise ShapeError(f"{op_id}: incompatible shapes {a.shape} and {b.shape}")
        return ufunc(a, b)
    return forward


def _matmul(a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: need (m,k)@(k,n), got {a.shape} and {b.shape}")
    return a @ b


def _add_adjoint(node, g):
    a, b = node.parents
    return (None if a.detached else _reduce_to(a.shape, g),
            None if b.detached else _reduce_to(b.shape, g))


def _sub_adjoint(node, g):
    a, b = node.parents
    return (None if a.detached else _reduce_to(a.shape, g),
            None if b.detached else _reduce_to(b.shape, -g))


def _mul_adjoint(node, g):
    a, b = node.parents
    return (None if a.detached else _reduce_to(a.shape, g * b.value),
            None if b.detached else _reduce_to(b.shape, g * a.value))


def _matmul_adjoint(node, g):
    a, b = node.parents
    return (None if a.detached else g @ b.value.T,
            None if b.detached else a.value.T @ g)


def _mean_adjoint(node, g):
    (a,) = node.parents
    return (np.full(a.shape, g / a.size),)


PRIMITIVES = {
    "add": (_elementwise("add", np.add), _add_adjoint),
    "sub": (_elementwise("sub", np.subtract), _sub_adjoint),
    "mul": (_elementwise("mul", np.multiply), _mul_adjoint),
    "scalar_mul": (lambda a, scalar: a * scalar, lambda node, g: (g * node.ctx["scalar"],)),
    "matmul": (_matmul, _matmul_adjoint),
    "tanh": (np.tanh, lambda node, g: (g * (1.0 - node.value * node.value),)),
    "sum": (lambda a: np.asarray(a.sum()), lambda node, g: (np.full(node.parents[0].shape, g),)),
    "mean": (lambda a: np.asarray(a.mean()), _mean_adjoint),
    "square": (lambda a: a * a, lambda node, g: (g * 2.0 * node.parents[0].value,)),
}


# As a decorator, errstate costs about 1 us less per call than a with-block.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _evaluate(op_id: str, values: list, kw: dict):
    value = PRIMITIVES[op_id][0](*values, **kw)
    # A finite sum proves every element finite, since a NaN or inf element
    # makes any sum non-finite. A non-finite sum can also come from finite
    # elements whose sum overflows, so only then is each element checked.
    if not math.isfinite(np.add.reduce(value, axis=None)) and not np.isfinite(value).all():
        raise NonFiniteError(f"primitive {op_id!r} produced non-finite values")
    return value


def apply_primitive(op_id: str, inputs: list, graph: GradGraph, **kw) -> Node:
    """Evaluate one primitive and record it, unless every input is detached.

    Raw arrays in `inputs` are wrapped as constants. The result value is
    checked finite; training surfaces numerical blowups here rather than as
    silent NaN propagation.
    """
    if op_id not in PRIMITIVES:
        raise ValueError(f"unknown primitive {op_id!r}")
    ref = graph._ref
    nodes = []
    flows = False
    for x in inputs:
        if not isinstance(x, Node):
            x = graph.constant(x)
        elif x._graph is not ref:
            raise GraphError("input node belongs to a different graph")
        elif not x.detached:
            flows = True
        nodes.append(x)
    value = _evaluate(op_id, [n.value for n in nodes], kw)
    if not flows:
        return graph.constant(value)
    node = Node(graph, value, op_id, tuple(nodes), kw, index=len(graph.nodes))
    graph.nodes.append(node)
    return node


def backward(graph: GradGraph, loss: Node) -> FlatParams:
    """Reverse pass from a scalar loss. One gradient array per registered parameter,
    as FlatParams in sorted-name order.

    Each parameter's gradient is accumulated in its view of the returned
    vector, in the order a dict gather would add them. Parameters the loss
    never touched (or that were detached away) get zeros.
    """
    if not isinstance(loss, Node) or loss._graph is not graph._ref:
        raise GraphError("loss node does not belong to this graph")
    if loss.shape != ():
        raise GraphError(f"loss must be scalar-shaped, got {loss.shape}")
    out = _layout({name: p.shape for name, p in graph.params.items()})
    unwritten = set(out)
    if not loss.detached:
        grads: dict[int, np.ndarray] = {id(loss): np.ones(())}
        for node in reversed(graph.nodes[: loss.index + 1]):
            g = grads.pop(id(node), None)
            if g is None:  # a parameter, or off the loss's path
                continue
            for parent, pg in zip(node.parents, PRIMITIVES[node.op][1](node, g)):
                if pg is None:
                    continue
                name = parent.param_id
                if name is None:
                    acc = grads.get(id(parent))
                    grads[id(parent)] = pg if acc is None else acc + pg
                elif name in unwritten:
                    out[name][...] = pg
                    unwritten.discard(name)
                else:
                    out[name] += pg
    for name in unwritten:
        out[name][...] = 0.0
    return out


def global_norm(grads: dict[str, np.ndarray]) -> float:
    """Joint L2 norm. Plain numpy reductions, not BLAS dot products, whose
    per-call cost swings widely with the BLAS thread count on tiny arrays."""
    return float(np.sqrt(sum(float(np.sum(np.square(grads[name]))) for name in sorted(grads))))


def clip_global_norm(grads: FlatParams, max_norm: float) -> float:
    """Scale grads in place by max_norm/norm when their joint L2 norm exceeds
    max_norm; below it they are left untouched. Returns the pre-clip norm."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = global_norm(grads)
    if norm > max_norm:
        grads.flat *= max_norm / norm
    return norm


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


def _layout(shapes: dict[str, tuple]) -> FlatParams:
    """An uninitialized FlatParams with these names and shapes, in sorted-name order."""
    out = FlatParams()
    out.flat = _empty_vector(sum(math.prod(shape) for shape in shapes.values()))
    offset = 0
    for name in sorted(shapes):
        size = math.prod(shapes[name])
        out[name] = out.flat[offset:offset + size].reshape(shapes[name])
        offset += size
    return out


def flatten(params: dict[str, np.ndarray]) -> FlatParams:
    """Copy name-keyed arrays into a fresh FlatParams, in sorted-name order."""
    arrays = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    out = _layout({k: a.shape for k, a in arrays.items()})
    if arrays:
        np.concatenate([arrays[k].ravel() for k in out], out=out.flat)
    return out


class AdamW:
    """AdamW with bias correction and decoupled weight decay over FlatParams.

    step() reads the gradients' vector as given and updates the parameter
    vector in place with whole-vector ops into the moments' two scratch
    vectors, never into the gradients; each op is one step of the per-element
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

    def step(self, params: FlatParams, grads: FlatParams) -> None:
        if not isinstance(params, FlatParams) or not isinstance(grads, FlatParams):
            raise TypeError("AdamW.step needs FlatParams; build them with tensorgrad.flatten")
        if grads.keys() != params.keys():
            raise KeyError(f"gradients for {sorted(grads)}, parameters are {sorted(params)}")
        if grads.flat.shape != params.flat.shape:
            raise ShapeError(f"gradient vector {grads.flat.shape} != parameter vector "
                             f"{params.flat.shape}")
        if not self.m:
            zeros = {k: np.zeros_like(v) for k, v in params.items()}
            self.m, self.v = flatten(zeros), flatten(zeros)
        if self.m.keys() != params.keys():
            raise KeyError(f"moments held for {sorted(self.m)}, parameters are {sorted(params)}")
        p, m, v, g = params.flat, self.m.flat, self.v.flat, grads.flat
        a, b = self.m.scratch(), self.v.scratch()
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
        np.divide(m, b1t, out=b)
        b /= a
        np.multiply(p, self.weight_decay, out=a)
        b += a
        b *= self.lr
        p -= b
        if not np.isfinite(p).all():
            bad = next(name for name in sorted(params) if not np.isfinite(params[name]).all())
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
