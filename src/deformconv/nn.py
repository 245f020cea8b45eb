"""Small network toolkit for point clouds: layers, loss, Adam, metrics.

Everything here is plain numpy with hand-written backward passes. A
LayerStack processes one cloud at a time (clouds vary in size); training
iterates clouds in a seeded random order and steps Adam every
``batch_size`` clouds with the accumulated gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import conv
from .conv import ConvLayerSpec, DeformableFilter, SeparableFilter
from .pointcloud import CLASSIFICATION, SEGMENTATION, Dataset, PointCloud
from .rng import DetRng
from .spatial import NeighborTable, build_index, radius_neighbors


class LayerContext:
    """Per-cloud state shared by the layers of one forward/backward pass.

    Caches neighbour tables keyed by (radius, cap) so several conv
    layers with the same geometry share one search, and so a table can
    be reused across epochs when the context is kept around.
    """

    def __init__(self, cloud: PointCloud, threads: int = 1):
        self.cloud = cloud
        self.threads = threads
        self._tables: dict[tuple[float, int], NeighborTable] = {}

    def preset(self, table: NeighborTable) -> "LayerContext":
        self._tables[(table.radius, table.cap)] = table
        return self

    def table_for(self, radius: float, cap: int) -> NeighborTable:
        key = (radius, cap)
        if key not in self._tables:
            index = build_index(self.cloud.positions, radius)
            self._tables[key] = radius_neighbors(
                index, self.cloud.positions, radius, cap
            )
        return self._tables[key]


class Layer:
    """Base layer: forward/backward plus flat parameter access.

    A trainable layer passes its parameter arrays to ``__init__`` in
    storage order. They are copied to float64, and each gets a zeroed
    gradient array of the same shape that backward passes add into.
    """

    def __init__(self, *params: np.ndarray):
        self._params = [np.array(p, dtype=np.float64) for p in params]
        self._grads = [np.zeros_like(p) for p in self._params]

    def params(self) -> list[np.ndarray]:
        return self._params

    def grads(self) -> list[np.ndarray]:
        return self._grads

    def zero_grads(self) -> None:
        for g in self.grads():
            g[...] = 0.0

    def _accumulate(self, *grads: np.ndarray) -> None:
        """Add one backward pass's parameter gradients (storage order)."""
        for total, g in zip(self._grads, grads):
            total += g

    def _expect_channels(self, in_channels: int, expected: int, out: int) -> int:
        """``out`` (the output width) if ``in_channels == expected``."""
        if in_channels != expected:
            raise ValueError(f"layer expects {expected} channels, got {in_channels}")
        return out

    def out_channels(self, in_channels: int) -> int:
        return in_channels

    def forward(self, feats: np.ndarray, ctx: LayerContext) -> np.ndarray:
        raise NotImplementedError

    def backward(self, upstream: np.ndarray, ctx: LayerContext) -> np.ndarray:
        raise NotImplementedError


class DeformConvLayer(Layer):
    kind = "deformable"

    def __init__(self, spec: ConvLayerSpec, weights: np.ndarray, bias: np.ndarray):
        super().__init__(weights, bias)
        self.spec = spec
        self.weights, self.bias = self.params()

    def out_channels(self, in_channels: int) -> int:
        return self._expect_channels(in_channels, *self.weights.shape[1:])

    def _filter(self) -> DeformableFilter:
        return DeformableFilter(self.spec.grid, self.weights, self.bias)

    def forward(self, feats, ctx):
        self._feats = feats
        table = ctx.table_for(self.spec.radius, self.spec.cap)
        return conv.forward_features(feats, table, self._filter(), threads=ctx.threads)

    def backward(self, upstream, ctx):
        table = ctx.table_for(self.spec.radius, self.spec.cap)
        gf, *grads = conv.backward_features(self._feats, table, self._filter(), upstream)
        self._accumulate(*grads)
        return gf


class SeparableConvLayer(Layer):
    kind = "separable"

    def __init__(
        self,
        spec: ConvLayerSpec,
        spatial: np.ndarray,
        pointwise: np.ndarray,
        bias: np.ndarray,
    ):
        super().__init__(spatial, pointwise, bias)
        self.spec = spec
        self.spatial, self.pointwise, self.bias = self.params()

    def out_channels(self, in_channels: int) -> int:
        return self._expect_channels(in_channels, self.spatial.shape[1], self.pointwise.shape[1])

    def _filter(self) -> SeparableFilter:
        return SeparableFilter(self.spec.grid, self.spatial, self.pointwise, self.bias)

    def forward(self, feats, ctx):
        self._feats = feats
        table = ctx.table_for(self.spec.radius, self.spec.cap)
        return conv.forward_separable_features(feats, table, self._filter())

    def backward(self, upstream, ctx):
        table = ctx.table_for(self.spec.radius, self.spec.cap)
        gf, *grads = conv.backward_separable_features(
            self._feats, table, self._filter(), upstream
        )
        self._accumulate(*grads)
        return gf


class LinearLayer(Layer):
    kind = "linear"

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        super().__init__(weights, bias)
        self.weights, self.bias = self.params()

    def out_channels(self, in_channels: int) -> int:
        return self._expect_channels(in_channels, *self.weights.shape)

    def forward(self, feats, ctx):
        self._feats = feats
        return feats @ self.weights + self.bias

    def backward(self, upstream, ctx):
        self._accumulate(self._feats.T @ upstream, upstream.sum(axis=0))
        return upstream @ self.weights.T


class ReluLayer(Layer):
    kind = "relu"

    def forward(self, feats, ctx):
        self._mask = feats > 0
        return np.where(self._mask, feats, 0.0)

    def backward(self, upstream, ctx):
        return np.where(self._mask, upstream, 0.0)


class GlobalMaxPoolLayer(Layer):
    """(M, C) -> (1, C) channel-wise max; classification heads only."""

    kind = "pool"

    def forward(self, feats, ctx):
        # first occurrence wins on ties, which keeps backward deterministic
        self._argmax = np.argmax(feats, axis=0)
        self._rows = feats.shape[0]
        return feats[self._argmax, np.arange(feats.shape[1])][None, :]

    def backward(self, upstream, ctx):
        grad = np.zeros((self._rows, upstream.shape[1]))
        grad[self._argmax, np.arange(upstream.shape[1])] = upstream[0]
        return grad


class ConcatSkipLayer(Layer):
    """Wraps another layer; output is [input channels | wrapped output]."""

    kind = "skip"

    def __init__(self, inner: Layer):
        self.inner = inner

    def params(self):
        return self.inner.params()

    def grads(self):
        return self.inner.grads()

    def out_channels(self, in_channels: int) -> int:
        return in_channels + self.inner.out_channels(in_channels)

    def forward(self, feats, ctx):
        self._in_channels = feats.shape[1]
        return np.concatenate([feats, self.inner.forward(feats, ctx)], axis=1)

    def backward(self, upstream, ctx):
        split = self._in_channels
        return upstream[:, :split] + self.inner.backward(upstream[:, split:], ctx)


class LayerStack:
    """Ordered layers mapping a cloud's features to logits.

    Segmentation stacks emit one row per point; classification stacks
    contain exactly one global max pool and emit a single row.
    """

    def __init__(self, layers: list[Layer], task: str):
        if task not in (CLASSIFICATION, SEGMENTATION):
            raise ValueError(f"unknown task {task!r}")
        # a skip wrapper holds one layer, never another wrapper
        pools = sum(isinstance(getattr(l, "inner", l), GlobalMaxPoolLayer) for l in layers)
        if task == CLASSIFICATION and pools != 1:
            raise ValueError("classification stacks need exactly one global pool")
        if task == SEGMENTATION and pools != 0:
            raise ValueError("segmentation stacks cannot contain a global pool")
        self.layers = layers
        self.task = task

    def parameters(self) -> list[np.ndarray]:
        return [p for l in self.layers for p in l.params()]

    def gradients(self) -> list[np.ndarray]:
        return [g for l in self.layers for g in l.grads()]

    def zero_grads(self) -> None:
        for l in self.layers:
            l.zero_grads()

    def check_channels(self, in_channels: int) -> int:
        c = in_channels
        for l in self.layers:
            c = l.out_channels(c)
        return c

    def forward(self, cloud: PointCloud, ctx: LayerContext) -> np.ndarray:
        feats = cloud.features
        for l in self.layers:
            feats = l.forward(feats, ctx)
        return feats

    def backward(self, upstream: np.ndarray, ctx: LayerContext) -> np.ndarray:
        grad = upstream
        for l in reversed(self.layers):
            grad = l.backward(grad, ctx)
        return grad


def conv_spec(spec: dict) -> ConvLayerSpec:
    """Anchor grid, search radius and cap of a conv layer-spec dict."""
    grid = conv.grid_from_spacing(spec["k"], spec["a"])
    radius = spec["r"] if spec.get("r") is not None else conv.default_radius(grid)
    return ConvLayerSpec(grid=grid, radius=float(radius), cap=spec["cap"])


@dataclass(frozen=True)
class LayerType:
    """One layer type: the spec ``fields`` it takes, in the order
    checkpoints write them; ``arrays(spec)``, the (shape, init standard
    deviation) of each parameter array in storage order, None for an
    array that starts at zeros; and ``build(spec, params)``, the layer
    from its parameter arrays, without the ``skip`` wrapper."""

    fields: tuple[str, ...]
    arrays: Callable[[dict], list[tuple[tuple[int, ...], float | None]]]
    build: Callable[[dict, list[np.ndarray]], Layer]


CONV_FIELDS = ("in", "out", "k", "a", "r", "cap", "skip")

# init scales keep unit-variance inputs near unit variance through a
# capped neighbourhood sum plus ReLU
LAYER_TYPES = {
    "deformable": LayerType(CONV_FIELDS, lambda s: [
        ((s["k"] ** 3, s["in"], s["out"]), np.sqrt(2.0 / (s["in"] * s["cap"]))),
        ((s["out"],), None),
    ], lambda s, p: DeformConvLayer(conv_spec(s), *p)),
    "separable": LayerType(CONV_FIELDS, lambda s: [
        ((s["k"] ** 3, s["in"]), np.sqrt(2.0 / s["cap"])),
        ((s["in"], s["out"]), np.sqrt(1.0 / s["in"])),
        ((s["out"],), None),
    ], lambda s, p: SeparableConvLayer(conv_spec(s), *p)),
    "linear": LayerType(("in", "out", "skip"), lambda s: [
        ((s["in"], s["out"]), np.sqrt(2.0 / s["in"])), ((s["out"],), None),
    ], lambda s, p: LinearLayer(*p)),
    "relu": LayerType((), lambda s: [], lambda s, p: ReluLayer()),
    "pool": LayerType((), lambda s: [], lambda s, p: GlobalMaxPoolLayer()),
}


def _layer_type(spec: dict, types: dict[str, LayerType]) -> LayerType:
    if spec["type"] not in types:
        raise ValueError(f"unknown layer type {spec['type']!r}")
    return types[spec["type"]]


def spec_param_count(specs: list[dict], types: dict[str, LayerType] = LAYER_TYPES) -> int:
    return sum(math.prod(shape) for s in specs for shape, _ in _layer_type(s, types).arrays(s))


def build_stack(
    specs: list[dict],
    task: str,
    rng: DetRng | None = None,
    flat: np.ndarray | None = None,
    types: dict[str, LayerType] = LAYER_TYPES,
) -> LayerStack:
    """Construct a LayerStack from layer-spec dicts, each built by the
    record ``types`` holds for its type.

    Parameters come either from a seeded init (``rng``: one normal draw
    per array that does not start at zeros, in storage order) or from a
    flat float64 vector (``flat``, e.g. a checkpoint payload); exactly
    one must be given.
    """
    if (rng is None) == (flat is None):
        raise ValueError("pass exactly one of rng or flat")
    if flat is not None and flat.shape[0] != (need := spec_param_count(specs, types)):
        raise ValueError(f"parameter vector holds {flat.shape[0]} values, specs need {need}")
    cursor = 0
    layers: list[Layer] = []
    for spec in specs:
        record = _layer_type(spec, types)
        params = []
        for shape, std in record.arrays(spec):
            size = math.prod(shape)
            if flat is not None:
                part, cursor = flat[cursor : cursor + size], cursor + size
            else:
                part = np.zeros(size) if std is None else rng.normals(size, 0.0, std)
            params.append(part.reshape(shape))
        layer = record.build(spec, params)
        layers.append(ConcatSkipLayer(layer) if spec.get("skip") else layer)
    return LayerStack(layers, task)


def flatten_params(stack: LayerStack) -> np.ndarray:
    """All stack parameters as one float64 vector (storage order)."""
    parts = [p.ravel() for p in stack.parameters()]
    return np.concatenate(parts) if parts else np.empty(0)


def stack_forward(
    stack: LayerStack,
    cloud: PointCloud,
    neighbors: NeighborTable | None = None,
    threads: int = 1,
) -> np.ndarray:
    """Run a stack on one cloud. A provided neighbour table is reused by
    every conv layer whose (radius, cap) matches it; other geometries
    trigger their own searches."""
    ctx = LayerContext(cloud, threads=threads)
    if neighbors is not None:
        ctx.preset(neighbors)
    return stack.forward(cloud, ctx)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross entropy and its gradient w.r.t. the logits.

    loss = mean_i (-log softmax(logits_i)[labels_i])
    grad = (softmax - onehot) / rows
    """
    z = np.asarray(logits, dtype=np.float64)
    lab = np.asarray(labels)
    if z.ndim != 2:
        raise ValueError(f"logits must be (N, C), got {z.shape}")
    if lab.shape != (z.shape[0],):
        raise ValueError(f"labels must be ({z.shape[0]},), got {lab.shape}")
    if not np.issubdtype(lab.dtype, np.integer):
        raise ValueError("labels must be integers")
    if np.any(lab < 0) or np.any(lab >= z.shape[1]):
        raise ValueError("label out of range")
    shifted = z - z.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    denom = expz.sum(axis=1, keepdims=True)
    p = expz / denom
    rows = z.shape[0]
    picked = shifted[np.arange(rows), lab]
    loss = float(np.mean(np.log(denom[:, 0]) - picked))
    grad = p.copy()
    grad[np.arange(rows), lab] -= 1.0
    grad /= rows
    return loss, grad


_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass
class OptimizerState:
    """Adam accumulators for one parameter list, plus hyperparameters."""

    lr: float
    weight_decay: float
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0


def init_adam(params: list[np.ndarray], lr: float, weight_decay: float = 0.0) -> OptimizerState:
    if lr <= 0:
        raise ValueError("lr must be positive")
    if weight_decay < 0:
        raise ValueError("weight_decay must be >= 0")
    if lr * weight_decay >= 1:
        raise ValueError("lr * weight_decay must be < 1 (decay scales parameters by 1 - lr * wd)")
    return OptimizerState(
        lr=lr,
        weight_decay=weight_decay,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def adam_step(
    state: OptimizerState, params: list[np.ndarray], grads: list[np.ndarray]
) -> OptimizerState:
    """One Adam update, in place on the parameter arrays.

    Decoupled weight decay: parameters are shrunk by lr * weight_decay
    before the moment-based step, so the decay never enters m or v.
    Moments use bias correction; the denominator is sqrt(v_hat) + eps.
    """
    if len(params) != len(state.m) or len(grads) != len(state.m):
        raise ValueError("params/grads do not match optimizer state")
    state.step += 1
    t = state.step
    c1 = 1.0 - _BETA1 ** t
    c2 = 1.0 - _BETA2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape or p.shape != m.shape:
            raise ValueError("parameter/gradient shape mismatch")
        if state.weight_decay:
            p *= 1.0 - state.lr * state.weight_decay
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * (g * g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + _EPS)
    return state


@dataclass(frozen=True)
class MetricsReport:
    """Accuracy plus per-class and mean intersection-over-union."""

    accuracy: float
    per_class_iou: dict[int, float]
    miou: float
    count: int  # predictions scored (points or clouds)


def metrics_from_predictions(
    preds: np.ndarray, labels: np.ndarray, num_classes: int
) -> MetricsReport:
    """Confusion-matrix metrics. Classes absent from both predictions
    and labels are left out of the IoU average."""
    preds = np.asarray(preds).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if preds.shape != labels.shape:
        raise ValueError("predictions and labels differ in length")
    if preds.shape[0] == 0:
        raise ValueError("cannot score zero predictions")
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    accuracy = float(np.trace(confusion)) / preds.shape[0]
    per_class: dict[int, float] = {}
    for c in range(num_classes):
        tp = confusion[c, c]
        fp = confusion[:, c].sum() - tp
        fn = confusion[c, :].sum() - tp
        denom = tp + fp + fn
        if denom > 0:
            per_class[c] = float(tp) / float(denom)
    miou = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return MetricsReport(accuracy, per_class, miou, preds.shape[0])


def _targets(cloud: PointCloud, task: str) -> np.ndarray:
    if task == CLASSIFICATION:
        return cloud.labels[:1]
    return cloud.labels


def evaluate(
    stack: LayerStack, dataset: Dataset, threads: int = 1,
    contexts: list[LayerContext] | None = None,
) -> MetricsReport:
    """Score a stack on a dataset: per-cloud votes for classification,
    per-point predictions pooled over all clouds for segmentation."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if dataset.task != stack.task:
        raise ValueError(
            f"dataset task {dataset.task!r} does not match stack task {stack.task!r}"
        )
    preds_all, labels_all = [], []
    for i, cloud in enumerate(dataset.clouds):
        ctx = contexts[i] if contexts is not None else LayerContext(cloud, threads)
        logits = stack.forward(cloud, ctx)
        preds_all.append(np.argmax(logits, axis=1))
        labels_all.append(_targets(cloud, dataset.task))
    return metrics_from_predictions(
        np.concatenate(preds_all), np.concatenate(labels_all), dataset.num_classes
    )


@dataclass
class EpochLog:
    epoch: int
    loss: float
    accuracy: float
    miou: float


def _diverged(epoch: int, step: int, what: str) -> FloatingPointError:
    return FloatingPointError(f"training diverged in epoch {epoch}, Adam step {step}: {what}")


def _first_nonfinite(stack: LayerStack, arrays: str) -> str | None:
    """Name of the first layer array (``arrays`` is "params" or "grads")
    holding a non-finite value, or None."""
    for i, layer in enumerate(stack.layers):
        for j, a in enumerate(getattr(layer, arrays)()):
            if not np.all(np.isfinite(a)):
                return f"layer {i} ({layer.kind}) parameter {j}"
    return None


def _checked_adam_step(state: OptimizerState, stack: LayerStack, epoch: int):
    """Adam step on the accumulated gradients, then zero them; raises
    FloatingPointError when a gradient or an updated parameter is not
    finite."""
    bad = _first_nonfinite(stack, "grads")
    if bad is not None:
        raise _diverged(epoch, state.step + 1, f"non-finite gradient of {bad}")
    adam_step(state, stack.parameters(), stack.gradients())
    stack.zero_grads()
    bad = _first_nonfinite(stack, "params")
    if bad is not None:
        raise _diverged(epoch, state.step, f"{bad} is non-finite after the update")


def train_stack(
    stack: LayerStack,
    train_set: Dataset,
    *,
    lr: float,
    weight_decay: float,
    epochs: int,
    batch_size: int,
    rng: DetRng,
    threads: int = 1,
    eval_set: Dataset | None = None,
    stop_accuracy: float | None = None,
) -> list[EpochLog]:
    """Adam training loop over whole clouds.

    Per epoch: visit clouds in a fresh seeded order, accumulate
    gradients, step every batch_size clouds (and once more for a
    trailing partial batch), then score the epoch. A non-finite loss,
    gradient or updated parameter raises FloatingPointError naming the
    epoch, the Adam step (counted over the whole run) and the first bad
    array. Scoring runs on eval_set when given, else on the training
    set; when stop_accuracy is set, training stops early once the score
    reaches it.
    """
    if len(train_set) == 0:
        raise ValueError("cannot train on an empty dataset")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    first = train_set.clouds[0]
    out_dim = stack.check_channels(first.feature_dim)
    if out_dim != train_set.num_classes:
        raise ValueError(
            f"stack emits {out_dim} channels but dataset has {train_set.num_classes} classes"
        )
    state = init_adam(stack.parameters(), lr=lr, weight_decay=weight_decay)
    contexts = [LayerContext(c, threads) for c in train_set.clouds]
    eval_ctx = (
        [LayerContext(c, threads) for c in eval_set.clouds] if eval_set else None
    )
    logs: list[EpochLog] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(train_set))
        losses = []
        stack.zero_grads()
        pending = 0
        for pos in order:
            cloud = train_set.clouds[int(pos)]
            ctx = contexts[int(pos)]
            logits = stack.forward(cloud, ctx)
            loss, grad = cross_entropy(logits, _targets(cloud, train_set.task))
            if not np.isfinite(loss):
                raise _diverged(epoch, state.step + 1, "non-finite loss")
            losses.append(loss)
            stack.backward(grad, ctx)
            pending += 1
            if pending == batch_size:
                _checked_adam_step(state, stack, epoch)
                pending = 0
        if pending:
            _checked_adam_step(state, stack, epoch)
        scored = evaluate(
            stack,
            eval_set if eval_set is not None else train_set,
            threads,
            contexts=eval_ctx if eval_set is not None else contexts,
        )
        logs.append(EpochLog(epoch, float(np.mean(losses)), scored.accuracy, scored.miou))
        if stop_accuracy is not None and scored.accuracy >= stop_accuracy:
            break
    return logs
