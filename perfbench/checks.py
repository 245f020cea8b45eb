"""Output checks. They run after the timed phases and count into
``attempted`` / ``failed`` of the result line.

Checks on a full cloud would cost as much as the phases they check, so
the per-layer checks follow the receptive field of a few sampled output
points back through the stack: each conv layer is run on a table whose
queries are only the rows the next layer needs. A row of a neighbour
table depends only on its query, so these rows are the rows the stack
itself uses.
"""

from __future__ import annotations

import numpy as np

from deformconv import conv, nn, spatial
from deformconv.rng import DetRng

ORACLE_REL = 1e-12  # the bound the ``bench`` command applies
ADJOINT_REL = 1e-10
CONV_LAYERS = (nn.DeformConvLayer, nn.SeparableConvLayer)


class CheckLog:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _rel(a: np.ndarray, ref: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(ref))) if ref.size else 0.0, 1e-300)
    return float(np.max(np.abs(a - ref))) / scale if a.size else 0.0


def sample_rows(rng: DetRng, m: int, n: int) -> np.ndarray:
    return np.unique(rng.integers(n, 0, m))


def xyz_roundtrip(log: CheckLog, written, loaded) -> None:
    ok = len(written) == len(loaded) and all(
        _same_bits(a.positions, b.positions)
        and _same_bits(a.features, b.features)
        and _same_bits(a.labels, b.labels)
        for a, b in zip(written, loaded)
    )
    log.check(ok, "dfc-xyz round trip changed a cloud")


def losses_finite(log: CheckLog, logs) -> None:
    for row in logs:
        log.check(bool(np.isfinite(row.loss)), f"epoch {row.epoch} loss is {row.loss}")


def neighbors_match_brute_force(log: CheckLog, stack, cloud, sample) -> None:
    pos = cloud.positions
    seen = set()
    for layer in stack.layers:
        if not isinstance(layer, CONV_LAYERS):
            continue
        key = (layer.spec.radius, layer.spec.cap)
        if key in seen:
            continue
        seen.add(key)
        r, cap = key
        grid = spatial.radius_neighbors(spatial.build_index(pos, r), pos[sample], r, cap)
        ref = spatial.brute_force_neighbors(pos, pos[sample], r, cap)
        ok = (_same_bits(grid.starts, ref.starts) and _same_bits(grid.indices, ref.indices)
              and _same_bits(grid.offsets, ref.offsets))
        log.check(ok, f"grid search differs from brute force (r={r}, cap={cap})")


def _full_filter(layer):
    """The conv layer's filter, and the equivalent full filter the
    oracle can evaluate (rank one per channel for a separable layer)."""
    grid = layer.spec.grid
    if isinstance(layer, nn.SeparableConvLayer):
        sep = conv.SeparableFilter(grid, layer.spatial, layer.pointwise, layer.bias)
        full = layer.spatial[:, :, None] * layer.pointwise[None, :, :]
        return sep, conv.DeformableFilter(grid, full, layer.bias)
    filt = conv.DeformableFilter(grid, layer.weights, layer.bias)
    return filt, filt


def _adjoint(log: CheckLog, filt, feats, table, out, rng: DetRng, where: str):
    """Sum u.(forward(f) - b) = sum grad_f.f = sum grad_param.param for
    every parameter array the operator is linear in."""
    u = rng.normals(out.size).reshape(out.shape)
    terms = u * (out - filt.bias)
    lhs = float(terms.sum())
    scale = max(float(np.abs(terms).sum()), 1e-300)
    if isinstance(filt, conv.SeparableFilter):
        gf, gs, gp, _ = conv.backward_separable_features(feats, table, filt, u)
        rhs = [(gf, feats), (gs, filt.spatial), (gp, filt.pointwise)]
    else:
        gf, gw, _ = conv.backward_features(feats, table, filt, u)
        rhs = [(gf, feats), (gw, filt.weights)]
    for grad, value in rhs:
        dot = float((grad * value).sum())
        log.check(abs(dot - lhs) <= ADJOINT_REL * scale,
                  f"{where}: adjoint identity off by {abs(dot - lhs) / scale:.3e}")


def sampled_forward(stack, cloud, sample, log: CheckLog | None = None,
                    rng: DetRng | None = None) -> np.ndarray:
    """Logits of ``stack`` at the ``sample`` rows of ``cloud``.

    When ``log`` is given, every conv layer on the way is checked against
    the oracle and the adjoint identity.
    """
    pos = cloud.positions
    m = pos.shape[0]
    layers = stack.layers
    rows = [None] * (len(layers) + 1)
    tables = [None] * len(layers)
    rows[-1] = sample
    for i in reversed(range(len(layers))):
        layer = layers[i]
        if isinstance(layer, CONV_LAYERS):
            r, cap = layer.spec.radius, layer.spec.cap
            tables[i] = spatial.radius_neighbors(
                spatial.build_index(pos, r), pos[rows[i + 1]], r, cap)
            rows[i] = np.unique(tables[i].indices)
        elif isinstance(layer, (nn.ReluLayer, nn.LinearLayer)):
            rows[i] = rows[i + 1]
        else:
            raise TypeError(f"sampled forward cannot follow {type(layer).__name__}")

    feats = cloud.features
    for i, layer in enumerate(layers):
        out_rows = rows[i + 1]
        if tables[i] is not None:
            filt, full = _full_filter(layer)
            if isinstance(filt, conv.SeparableFilter):
                out = conv.forward_separable_features(feats, tables[i], filt)
            else:
                out = conv.forward_features(feats, tables[i], filt)
            if log is not None:
                where = f"layer {i} ({layer.kind})"
                ref = conv.oracle_forward_features(feats, tables[i], full)
                err = _rel(out, ref)
                log.check(err <= ORACLE_REL, f"{where}: oracle rel err {err:.3e}")
                _adjoint(log, filt, feats, tables[i], out, rng, where)
        elif isinstance(layer, nn.ReluLayer):
            x = feats[out_rows]
            out = np.where(x > 0, x, 0.0)
        else:
            out = feats[out_rows] @ layer.weights + layer.bias
        feats = np.zeros((m, out.shape[1]))
        feats[out_rows] = out
    return feats[sample]


def params_roundtrip(log: CheckLog, trained, ckpt, reloaded) -> None:
    flat = nn.flatten_params(trained)
    log.check(_same_bits(flat, ckpt.params),
              "checkpoint payload differs from the trained parameters")
    log.check(_same_bits(flat, nn.flatten_params(reloaded)),
              "reloaded stack's parameters differ from the trained ones")


def cloud_checks(log: CheckLog, trained, reloaded, cloud, sample, rng: DetRng,
                 threads: int = 1) -> None:
    """Search, oracle and adjoint checks on the trained stack; then the
    reloaded stack must give bit-identical logits at the same rows, and
    the library's own full-cloud forward (threaded, in query blocks) must
    agree with them at those rows."""
    neighbors_match_brute_force(log, trained, cloud, sample)
    a = sampled_forward(trained, cloud, sample, log, rng)
    b = sampled_forward(reloaded, cloud, sample)
    log.check(_same_bits(a, b), "reloaded stack predicts differently")
    full = nn.stack_forward(reloaded, cloud, threads=threads)[sample]
    err = _rel(full, b)
    log.check(err <= ORACLE_REL, f"full-cloud forward differs at sampled rows (rel {err:.3e})")
