"""Tape-based reverse-mode autodiff over dense float64 arrays.

The primitive set is deliberately small and fixed: add, sub, mul, scalar_mul,
matmul, tanh, sum, mean, square. The predictor and the training losses
compile to these, and no primitive is kept that they do not use. PRIMITIVES
is the one table of them: each name maps to its forward function and its
adjoint rule. A GradGraph records nodes in creation order (which is already
topological), and detached nodes cut gradient flow structurally: they have
no parents, so nothing is ever propagated through them. The graph only
records: a Tape numbers its values in slots and is the one place a loss's
values and gradients are computed. Its backward forms adjoints only where
gradient flows: an adjoint rule returns None in place of the gradient of a
detached operand (a constant input, label or target) instead of computing
it. backward(graph, loss) is that walk over the graph's own values;
loss_pass records a loss's Tape once per structure and replays it on every
step, the first included. A replay checks the leaves' shapes once and the
finiteness only of the results a proof names (only tanh saturates, see
PRIMITIVES); if one is not finite, it scans the results already computed in
order, so its NonFiniteError names the primitive a fresh build's would.
A Tape's backward writes the gradients into a FlatParams its caller owns
and passes in; they are valid until the owner's next pass writes over them.
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

    __slots__ = ("_graph", "value", "op", "parents", "ctx", "detached", "param_id")

    # Keep numpy from consuming Node in mixed arithmetic; reflected ops run instead.
    __array_ufunc__ = None

    def __init__(self, graph, value, op, parents=(), ctx=None, detached=False, param_id=None):
        self._graph = graph._ref
        self.value = value
        self.op = op
        self.parents = parents
        self.ctx = ctx
        self.detached = detached
        self.param_id = param_id

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
        self.inputs: dict[str, Node] = {}
        self._ref = weakref.ref(self)

    def constant(self, value) -> Node:
        """Detached leaf. Not recorded on the tape; nothing flows through it."""
        return Node(self, _as_array(value), op="const", detached=True)

    def input(self, name: str, value) -> Node:
        """Constant declared as a per-call input: a Tape recorded from this
        graph reads it by name on every replay."""
        node = self.inputs[name] = self.constant(value)
        return node

    def parameter(self, name: str, value: np.ndarray) -> Node:
        """Trainable leaf keyed by name. Re-registering the same array is a no-op."""
        existing = self.params.get(name)
        if existing is not None:
            if existing.value is not value:
                raise GraphError(f"parameter {name!r} already registered with a different array")
            return existing
        node = Node(self, _as_array(value), op="param", param_id=name)
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
# arguments) and returns the result. An adjoint rule takes the gradient g at
# the result, the result, the operand values, which operands need a gradient
# and the keyword arguments; it returns each operand's gradient, or None for
# one that needs none (a detached one). A unary node is recorded only when
# its one operand is not detached.


def _reduce_to(shape: tuple, g: np.ndarray) -> np.ndarray:
    # Undo broadcast in the adjoint: a 0-d operand collects the full sum, a
    # (1, n) row sums over rows.
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    return g.sum(axis=0, keepdims=True)


def _check_shapes(op_id: str, values: list) -> None:
    # matmul takes (m,k)@(k,n); a binary elementwise primitive takes equal
    # shapes, a 0-d scalar against anything, or a (1, n) row against (B, n).
    if op_id == "matmul":
        a, b = values
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: need (m,k)@(k,n), got {a.shape} and {b.shape}")
    elif len(values) == 2:
        sa, sb = values[0].shape, values[1].shape
        rows = len(sa) == len(sb) == 2 and sa[1] == sb[1] and 1 in (sa[0], sb[0])
        if sa != sb and () not in (sa, sb) and not rows:
            raise ShapeError(f"{op_id}: incompatible shapes {sa} and {sb}")


def _add_adjoint(g, out, args, needs, kw):
    a, b = args
    return (_reduce_to(a.shape, g) if needs[0] else None,
            _reduce_to(b.shape, g) if needs[1] else None)


def _sub_adjoint(g, out, args, needs, kw):
    a, b = args
    return (_reduce_to(a.shape, g) if needs[0] else None,
            _reduce_to(b.shape, -g) if needs[1] else None)


def _mul_adjoint(g, out, args, needs, kw):
    a, b = args
    return (_reduce_to(a.shape, g * b) if needs[0] else None,
            _reduce_to(b.shape, g * a) if needs[1] else None)


def _matmul_adjoint(g, out, args, needs, kw):
    # kw is {"out": view} when b is a parameter whose first gradient goes to that view.
    a, b = args
    return (g @ b.T if needs[0] else None, np.matmul(a.T, g, **kw) if needs[1] else None)


def _tanh_adjoint(g, out, args, needs, kw):
    # g * (1.0 - out * out), each op into one temporary.
    d = out * out
    np.subtract(1.0, d, out=d)
    d *= g
    return (d,)


def _mean_adjoint(g, out, args, needs, kw):
    (a,) = args
    return (np.full(a.shape, g / a.size),)


# name -> (forward function, adjoint rule, saturates). Only tanh saturates, mapping inf
# to 1; every other primitive keeps NaN and inf (inf*0 too) in a non-empty result.
PRIMITIVES = {
    "add": (np.add, _add_adjoint, False),
    "sub": (np.subtract, _sub_adjoint, False),
    "mul": (np.multiply, _mul_adjoint, False),
    "scalar_mul": (lambda a, scalar: a * scalar,
                   lambda g, out, args, needs, kw: (g * kw["scalar"],), False),
    "matmul": (np.matmul, _matmul_adjoint, False),
    "tanh": (np.tanh, _tanh_adjoint, True),
    "sum": (lambda a: np.asarray(a.sum()),
            lambda g, out, args, needs, kw: (np.full(args[0].shape, g),), False),
    # ndarray.mean's own sum and division, without its Python-level wrapper.
    "mean": (lambda a: np.asarray(np.add.reduce(a, axis=None) / a.size), _mean_adjoint, False),
    "square": (lambda a: a * a, lambda g, out, args, needs, kw: (g * 2.0 * args[0],), False),
}


def _checked(op_id: str, value):
    # A finite sum proves every element finite, since a NaN or inf element
    # makes any sum non-finite. A non-finite sum can also come from finite
    # elements whose sum overflows, so only then is each element checked.
    total = value if value.ndim == 0 else np.add.reduce(value, axis=None)
    if not math.isfinite(total) and not np.isfinite(value).all():
        raise NonFiniteError(f"primitive {op_id!r} produced non-finite values")
    return value


# As a decorator, errstate costs about 1 us less per call than a with-block.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _evaluate(op_id: str, values: list, kw: dict):
    _check_shapes(op_id, values)
    return _checked(op_id, PRIMITIVES[op_id][0](*values, **kw))


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
    node = Node(graph, value, op_id, tuple(nodes), kw)
    graph.nodes.append(node)
    return node


def backward(graph: GradGraph, loss: Node) -> FlatParams:
    """Reverse pass from a scalar loss: its Tape's walk over the graph's own
    values. One gradient array per registered parameter, as FlatParams in
    sorted-name order; parameters the loss never touched (or that were
    detached away) get zeros.
    """
    if not isinstance(loss, Node) or loss._graph is not graph._ref:
        raise GraphError("loss node does not belong to this graph")
    if loss.shape != ():
        raise GraphError(f"loss must be scalar-shaped, got {loss.shape}")
    leaves, results = _slot_nodes(graph, [loss])
    tape = Tape(graph, [loss])
    return tape.backward([node.value for node in (*leaves, *results)], _layout(tape.shapes))


def _slot_nodes(graph: GradGraph, outputs) -> tuple[list[Node], list[Node]]:
    """The nodes a Tape numbers, in slot order: the leaves (parameters,
    declared inputs, then each other constant a result reads or an output
    is) and the results."""
    leaves = [*graph.params.values(), *graph.inputs.values()]
    results = [node for node in graph.nodes if node.op != "param"]
    known = {id(node) for node in leaves}
    for node in [*(p for result in results for p in result.parents), *outputs]:
        if node.detached and id(node) not in known:
            known.add(id(node))
            leaves.append(node)
    return leaves, results


class Tape:
    """A recorded loss graph's structure: primitives (bound at record time),
    operand slots and keyword arguments, never an array or a Node. Slots
    number the parameters, the declared inputs, every other constant the
    graph reads, then each result; outputs[0] is the loss. forward and
    backward run the forward functions and adjoint rules in the graph's
    orders, so a replay's values and gradients are a fresh build's, bit for
    bit. A constant that is not a declared input would freeze one call's
    values into every replay, so forward refuses a tape that reads one;
    backward(graph, loss) walks such a tape over the graph's own values."""

    def __init__(self, graph: GradGraph, outputs):
        leaves, results = _slot_nodes(graph, outputs)
        slot = {id(node): i for i, node in enumerate((*leaves, *results))}
        self.params, self.inputs = list(graph.params), list(graph.inputs)
        self.shapes = {name: p.shape for name, p in graph.params.items()}
        self.leaf_shapes = [node.shape for node in leaves[:len(self.params) + len(self.inputs)]]
        self.frozen = len(leaves) - len(self.params) - len(self.inputs)
        self.steps = [(node.op, PRIMITIVES[node.op][0], [slot[id(p)] for p in node.parents],
                       node.ctx) for node in results]
        self.outputs = [slot[id(node)] for node in outputs]
        # The finiteness proof: a step that neither saturates nor has an empty result
        # keeps a non-finite operand non-finite, so a non-finite result reaches an
        # output, a result no step reads or an absorbing step's operand: checks[0].
        watched, read = set(self.outputs), set()
        for node, (op, _, operands, _) in zip(results, self.steps):
            (watched if PRIMITIVES[op][2] or node.size == 0 else read).update(operands)
        self.checks = [s in watched or s not in read for s in range(len(leaves), len(slot))]
        # The steps the loss's gradient reaches, in reverse, with which
        # operands need a gradient, whether it adds to one already written and,
        # for a matmul whose b is a parameter written first, that parameter.
        reached, self.plan = {self.outputs[0]}, []
        for out in range(self.outputs[0], len(leaves) - 1, -1):
            op, fn, operands, kw = self.steps[out - len(leaves)]
            if out in reached:
                adds = []
                for s in operands:
                    adds.append(s in reached)
                    reached.add(s)
                needs = [s < len(self.params) or s >= len(leaves) for s in operands]
                into = op == "matmul" and operands[1] < len(self.params) and not adds[1]
                self.plan.append((out, PRIMITIVES[op][1], operands, kw, needs, adds,
                                  self.params[operands[1]] if into else None))
        self.untouched = [name for i, name in enumerate(self.params) if i not in reached]

    def forward(self, params: dict[str, np.ndarray], inputs: dict[str, np.ndarray]) -> list:
        """Every slot's value at these parameters and inputs. The leaves' shapes, which
        fix every result's, are checked once; finiteness at the proof's results, and if
        one fails, at each result so far, in order, raising where a fresh build does."""
        if self.frozen:
            raise GraphError("the tape reads a constant that is not a declared input")
        values = ([_as_array(params[name]) for name in self.params]
                  + [_as_array(inputs[name]) for name in self.inputs])
        if [leaf.shape for leaf in values] != self.leaf_shapes:
            raise ShapeError(f"leaf shapes differ from the recorded {self.leaf_shapes}")
        n_leaves = len(values)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                for (op, fn, operands, kw), check in zip(self.steps, self.checks):
                    values.append(fn(*[values[s] for s in operands], **kw))
                    if check:
                        _checked(op, values[-1])
            except NonFiniteError:
                for (op, *_), value in zip(self.steps, values[n_leaves:]):
                    _checked(op, value)  # raises, at the latest at the result that failed
        return values

    def backward(self, values: list, out: FlatParams) -> FlatParams:
        """The loss's gradients from every slot's value, written into out, a
        FlatParams in the parameters' layout, and returned: each parameter's
        view gets its first write and accumulations, or zeros if the loss
        does not reach it. out is the caller's; its gradients are valid until
        the caller's next pass into it. values is emptied: no activation
        outlives the step."""
        if {name: part.shape for name, part in out.items()} != self.shapes:
            raise ShapeError(f"gradient layout differs from the parameters' {self.shapes}")
        grads = [None] * len(values)
        grads[self.outputs[0]] = np.ones(())
        for slot, adjoint, operands, kw, needs, adds, into in self.plan:
            adjoints = adjoint(grads[slot], values[slot], [values[s] for s in operands], needs,
                               {"out": out[into]} if into else kw)
            grads[slot] = None
            for s, add, pg in zip(operands, adds, adjoints):
                if pg is None:
                    continue
                if s >= len(self.params):
                    grads[s] = grads[s] + pg if add else pg
                elif add:
                    out[self.params[s]] += pg
                elif pg is not out[self.params[s]]:
                    out[self.params[s]][...] = pg
        for name in self.untouched:
            out[name][...] = 0.0
        values.clear()
        return out


def loss_pass(tapes: dict, frozen, params: dict[str, np.ndarray],
              inputs: dict[str, np.ndarray], build):
    """Forward half of a loss step: (values of the outputs, finish).

    build(graph, params, inputs) returns (loss, *watched nodes), declaring
    each array it reads with graph.input. tapes holds one Tape per structure
    key: frozen, the scalars build puts in the graph, and each input's name
    and shape. A new key is built on Nodes once, only to record its tape,
    and the graph is dropped. Every pass, the first included, runs the
    tape's forward; finish(out) runs its backward into out, a FlatParams in
    params' layout that the caller owns, and returns it: the gradients are
    valid until the caller's next pass into out. A tape is kept once its
    first forward has succeeded.
    """
    key = (frozen, tuple((name, value.shape) for name, value in inputs.items()))
    tape = tapes.get(key)
    if tape is None:
        graph = GradGraph()
        tape = Tape(graph, build(graph, params, inputs))
        del graph
    slots = tape.forward(params, inputs)
    tapes[key] = tape
    return [float(slots[s]) for s in tape.outputs], lambda out: tape.backward(slots, out)


def global_norm(grads: FlatParams) -> float:
    """Joint L2 norm: each name's sum of squares, in sorted order. Plain
    numpy reductions, not BLAS dot products, whose per-call cost swings
    widely with the BLAS thread count on tiny arrays. Squaring one name at a
    time keeps no vector-sized buffer alive; its largest temporary is the
    largest name's."""
    total = 0.0
    for part in grads.values():
        total += float(np.add.reduce(np.square(part), axis=None))
    return math.sqrt(total)


def clip_global_norm(grads: FlatParams, max_norm: float) -> float:
    """Scale grads in place by max_norm/norm when their joint L2 norm exceeds
    max_norm (> 0); below it they are left untouched. Returns the pre-clip norm."""
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

    def empty_like(self) -> "FlatParams":
        """An uninitialized FlatParams in this one's layout, such as a gradient vector."""
        return _layout({name: part.shape for name, part in self.items()})

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
    Two ops whose results are exact identities are skipped: the division by
    a first-moment bias correction of exactly 1.0, and a zero weight decay.
    The step count t and the moments m and v, FlatParams in the parameters'
    layout (empty before the first step), are the whole optimizer state: a
    checkpoint reads and restores them as attributes.
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
        if b1t == 1.0:  # from t = 356 at beta1 = 0.9; x / 1.0 is x
            np.divide(m, a, out=b)
        else:
            np.divide(m, b1t, out=b)
            b /= a
        # Skipping a zero decay keeps the bits. For finite p, p * 0 is a zero
        # with p's sign, and adding it changes b only when b is -0 and p's
        # sign bit is clear: b becomes +0. Then p - lr * b is p for p > 0, and
        # +0 for p = +0, either way. A non-finite p fails the check below
        # either way.
        if self.weight_decay:
            np.multiply(p, self.weight_decay, out=a)
            b += a
        b *= self.lr
        p -= b
        # As in _checked: a finite sum proves every element finite.
        if not math.isfinite(np.add.reduce(p)) and not np.isfinite(p).all():
            bad = next(name for name in sorted(params) if not np.isfinite(params[name]).all())
            raise NonFiniteError(f"parameter {bad!r} became non-finite after update")
