"""Finite-difference gradient checks for every differentiable operation.

Each check builds a randomized instance, computes analytic gradients via
one backward pass, and compares against central differences (h = 1e-4,
float64) with |a - b| <= 1e-4 * max(|a|, |b|) + 1e-6.

Finite differences are only a valid oracle away from the kinks of
piecewise-smooth operations (ReLU zero crossings, pooling ties, hinge
boundaries), so the samplers below resample until the instance keeps a
margin of ~1e-3 from every kink. That is a validity condition of the
oracle, not a relaxation of the check.
"""

import numpy as np

from topdropnet import network, tensorcore as tc, topdrop

from oracles import finite_difference_grads, grads_agree


def _projection(rng, shape):
    return rng.normal(size=shape)


def _run(f, arrays):
    """Analytic gradients of f (tensor function) at ``arrays``."""
    tensors = [tc.Tensor(a.copy(), requires_grad=True) for a in arrays]
    with tc.Tape() as tape:
        loss = f(tensors)
    tc.backward(loss, tape)
    return [t.grad for t in tensors]


def _value(f):
    def call(arrays):
        tensors = [tc.Tensor(a.copy()) for a in arrays]
        return f(tensors).item()

    return call


def check(f, arrays):
    analytic = _run(f, arrays)
    numeric = finite_difference_grads(_value(f), [a.copy() for a in arrays])
    assert len(analytic) == len(numeric)
    for a, n in zip(analytic, numeric):
        assert a is not None, "missing analytic gradient"
        if not grads_agree(a, n):
            return False
    return True


def _away_from_zero(rng, shape, gap=1e-2):
    x = rng.normal(size=shape)
    sign = np.where(x >= 0, 1.0, -1.0)
    return x + sign * gap


def _distinct(rng, shape, gap=1e-3):
    """Values whose pairwise gaps exceed ``gap`` (pooling-safe)."""
    n = int(np.prod(shape))
    base = np.arange(n) * (10 * gap)
    return (rng.permutation(base) + rng.uniform(0, gap / 10, size=n)).reshape(shape)


def op_checks(seed):
    """One randomized FD instance per differentiable operation."""
    rng = np.random.default_rng(seed)
    results = {}

    x = rng.normal(size=(3, 4))
    y = rng.normal(size=(3, 4))
    w = _projection(rng, (3, 4))
    results["add"] = check(lambda t: tc.sum_all(tc.mul(tc.add(t[0], t[1]), tc.Tensor(w))), [x, y])
    results["sub"] = check(lambda t: tc.sum_all(tc.mul(tc.sub(t[0], t[1]), tc.Tensor(w))), [x, y])
    results["mul"] = check(lambda t: tc.sum_all(tc.mul(tc.mul(t[0], t[1]), tc.Tensor(w))), [x, y])
    results["scalar_mul"] = check(lambda t: tc.sum_all(tc.mul(tc.scalar_mul(t[0], 1.7), tc.Tensor(w))), [x])
    results["mean_all"] = check(lambda t: tc.mean_all(tc.mul(t[0], tc.Tensor(w))), [x])

    xb = rng.normal(size=(4, 3))
    bias = rng.normal(size=3)
    wb = _projection(rng, (4, 3))
    results["add_bias"] = check(lambda t: tc.sum_all(tc.mul(tc.add_bias(t[0], t[1]), tc.Tensor(wb))), [xb, bias])

    xa = _away_from_zero(rng, (3, 5))
    wa = _projection(rng, (3, 5))
    results["abs"] = check(lambda t: tc.sum_all(tc.mul(tc.absolute(t[0]), tc.Tensor(wa))), [xa])
    xp = np.abs(rng.normal(size=(3, 5))) + 0.5
    results["pow_scalar"] = check(lambda t: tc.sum_all(tc.mul(tc.pow_scalar(t[0], 2.5), tc.Tensor(wa))), [xp])

    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    wm = _projection(rng, (3, 2))
    results["matmul"] = check(lambda t: tc.sum_all(tc.mul(tc.matmul(t[0], t[1]), tc.Tensor(wm))), [a, b])

    xc = rng.normal(size=(2, 3, 5, 4))
    kc = rng.normal(size=(4, 3, 3, 2))
    wc = _projection(rng, (2, 4, 3, 3))
    results["conv2d"] = check(
        lambda t: tc.sum_all(tc.mul(tc.conv2d(t[0], t[1], stride=2, pad=1), tc.Tensor(wc))), [xc, kc]
    )

    xr = _away_from_zero(rng, (2, 3, 4, 4))
    wr = _projection(rng, (2, 3, 4, 4))
    results["relu"] = check(lambda t: tc.sum_all(tc.mul(tc.relu(t[0]), tc.Tensor(wr))), [xr])

    xm = _distinct(rng, (2, 2, 4, 6))
    wp = _projection(rng, (2, 2, 2, 3))
    results["maxpool2d"] = check(lambda t: tc.sum_all(tc.mul(tc.maxpool2d(t[0], 2), tc.Tensor(wp))), [xm + 1.0])
    # Max-pool takes any input, as the stem's batch norm writes: centred on 0.
    results["maxpool2d[signed]"] = check(lambda t: tc.sum_all(tc.mul(tc.maxpool2d(t[0], 2), tc.Tensor(wp))), [xm - xm.mean()])
    wg = _projection(rng, (2, 2))
    results["global_max_pool"] = check(lambda t: tc.sum_all(tc.mul(tc.global_max_pool(t[0]), tc.Tensor(wg))), [xm])
    results["global_avg_pool"] = check(lambda t: tc.sum_all(tc.mul(tc.global_avg_pool(t[0]), tc.Tensor(wg))), [xm])

    xn = rng.normal(size=(5, 3)) * 1.5
    gamma = rng.uniform(0.5, 1.5, size=3)
    beta = rng.normal(size=3)
    wn = _projection(rng, (5, 3))

    def bn_train(t):
        out = tc.batchnorm(t[0], t[1], t[2], np.zeros(3), np.ones(3))
        return tc.sum_all(tc.mul(out, tc.Tensor(wn)))

    results["batchnorm_train"] = check(bn_train, [xn, gamma, beta])

    xn4 = rng.normal(size=(3, 2, 3, 3))
    gamma4 = rng.uniform(0.5, 1.5, size=2)
    beta4 = rng.normal(size=2)
    wn4 = _projection(rng, (3, 2, 3, 3))

    def bn4_train(t):
        out = tc.batchnorm(t[0], t[1], t[2], np.zeros(2), np.ones(2))
        return tc.sum_all(tc.mul(out, tc.Tensor(wn4)))

    results["batchnorm2d_train"] = check(bn4_train, [xn4, gamma4, beta4])

    xl = rng.normal(size=(4, 5))
    wl = _projection(rng, (4, 5))
    results["log_softmax"] = check(lambda t: tc.sum_all(tc.mul(tc.log_softmax(t[0]), tc.Tensor(wl))), [xl])
    xu = rng.normal(size=(4, 5)) + np.sign(rng.normal(size=(4, 5))) * 0.2
    results["l2_normalize"] = check(lambda t: tc.sum_all(tc.mul(tc.l2_normalize(t[0]), tc.Tensor(wl))), [xu])

    labels = rng.integers(0, 5, size=4)
    results["ce_label_smoothing"] = check(lambda t: network.ce_label_smoothing(t[0], labels, 0.1), [xl])

    feats, ids = _triplet_instance(rng)
    results["triplet_batch_hard"] = check(lambda t: network.triplet_batch_hard(t[0], ids, 0.3), [feats])

    return results


def _triplet_instance(rng, n=6, d=4, margin=0.3):
    """Features whose mining decisions sit away from every hinge/tie kink."""
    ids = np.repeat(np.arange(3), 2)
    while True:
        feats = rng.normal(size=(n, d)) * 2.0
        dist = np.sqrt(((feats[:, None] - feats[None, :]) ** 2).sum(-1))
        flat = dist[np.triu_indices(n, 1)]
        if np.min(flat) < 1e-2:
            continue
        if np.min(np.abs(np.subtract.outer(flat, flat))[~np.eye(len(flat), dtype=bool)]) < 1e-3:
            continue
        same = ids[:, None] == ids[None, :]
        hinge_ok = True
        for anchor in range(n):
            d_pos = dist[anchor][same[anchor]].max()
            d_neg = dist[anchor][~same[anchor]].min()
            if abs(margin + d_pos - d_neg) < 1e-2:
                hinge_ok = False
        if hinge_ok:
            return feats, ids


def tiny_model_setup(seed):
    """A small full-variant model plus one batch with fixed masks.

    Every parameter is jittered away from its initial value: the zero
    initialized residual batch-norm scales park the following ReLU at its
    kink exactly, where finite differences do not apply. The check runs
    at a generic point instead.
    """
    rng = np.random.default_rng(seed)
    backbone = network.BackboneConfig(
        stem_channels=4, stage_channels=(4, 4, 8), strides=(1, 1, 1), input_size=(8, 8)
    )
    cfg = network.ModelConfig(variant="full", d_global=8, d_drop=8, backbone=backbone, dtype="float64")
    model = network.ReidModel(num_classes=2, cfg=cfg, seed=seed)
    for _, p in model.named_parameters():
        p.data += rng.uniform(0.02, 0.1, size=p.data.shape) * np.where(
            rng.uniform(size=p.data.shape) < 0.5, -1.0, 1.0
        )
    images = tc.Tensor(rng.uniform(-1, 1, size=(4, 3, 8, 8)))
    labels = np.array([0, 0, 1, 1])
    model.train()
    features = model.backbone_forward(images)
    drop_cfg = topdrop.DropConfig(height_ratio=0.3, p=2.0)
    masks = topdrop.masks_from_features(features.data, drop_cfg)
    return model, images, labels, masks


def full_loss_grad_check(seed):
    """FD check of the three-stream loss over every model parameter.

    Runs at h = 1e-4. A deep composition of piecewise-smooth ops leaves a
    few coordinates whose +-h stencil straddles a ReLU or pooling kink;
    those are re-checked at h = 1e-5 (a stencil that stays on one smooth
    piece), still against the same 1e-4 relative tolerance. A wrong
    gradient fails at every step size. Returns (num_params, num_rechecked,
    failures) where failures lists (name, index, analytic, numeric).
    """
    model, images, labels, masks = tiny_model_setup(seed)
    named = list(model.named_parameters())

    def loss_value():
        outputs = model.forward_train(images, lambda _: masks)
        loss, _ = network.total_loss(outputs, labels, margin=0.3, epsilon=0.1)
        return loss

    with tc.Tape() as tape:
        loss = loss_value()
    tc.backward(loss, tape)
    analytic = {name: p.grad.copy() for name, p in named}
    model.zero_grad()

    def central(flat, i, h):
        keep = flat[i]
        flat[i] = keep + h
        above = loss_value().item()
        flat[i] = keep - h
        below = loss_value().item()
        flat[i] = keep
        return (above - below) / (2 * h)

    failures = []
    checked = 0
    rechecked = 0
    for name, p in named:
        flat = p.data.reshape(-1)
        grad = analytic[name].reshape(-1)
        for i in range(flat.size):
            checked += 1
            numeric = central(flat, i, 1e-4)
            if grads_agree(grad[i], numeric):
                continue
            rechecked += 1
            numeric = central(flat, i, 1e-5)
            if not grads_agree(grad[i], numeric):
                failures.append((name, i, float(grad[i]), float(numeric)))
    return checked, rechecked, failures
