"""Independent oracles for the test suite.

Most of what is here is written as plain scalar loops straight from the
definitions, deliberately ignoring how the package implements the same
quantities, so the two sides can disagree. The exception is the section of
byte-level references: the earlier vectorised conv2d, maxpool2d,
train-mode batchnorm and per-image augmentation, the single-threaded
distance and neighbour passes of re-ranking, and re-ranking over all
N x N exact distances, kept so that their faster replacements can be
required to produce the same bytes.
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def finite_difference_grads(f, arrays, h=1e-4):
    """Central-difference gradients of a scalar function of numpy arrays.

    ``f`` is called with the (mutated in place) list ``arrays`` and must
    return a float.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            above = f(arrays)
            flat[i] = keep - h
            below = f(arrays)
            flat[i] = keep
            gflat[i] = (above - below) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_error(a, b, atol=1e-6):
    """Worst elementwise |a - b| / (max(|a|, |b|) + atol-floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), atol / 1e-4)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def grads_agree(analytic, numeric, rtol=1e-4, atol=1e-6):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    return np.all(np.abs(analytic - numeric) <= rtol * np.maximum(np.abs(analytic), np.abs(numeric)) + atol)


# ---------------------------------------------------------------------------
# Stripe mechanism
# ---------------------------------------------------------------------------


def activation_map_loops(feature_map, p):
    c, h, w = feature_map.shape
    out = np.zeros((h, w))
    for j in range(h):
        for k in range(w):
            total = 0.0
            for i in range(c):
                total += abs(feature_map[i, j, k]) ** p
            out[j, k] = total
    return out


def row_means_loops(act):
    h, w = act.shape
    return np.array([sum(act[j, k] for k in range(w)) / w for j in range(h)])


def top_rows_sorted(relevance, ndrop):
    """Indices of the ndrop largest entries; ties favor the lower index."""
    pairs = sorted(range(len(relevance)), key=lambda j: (-relevance[j], j))
    return set(pairs[:ndrop])


# ---------------------------------------------------------------------------
# Retrieval metrics
# ---------------------------------------------------------------------------


def distances_loops(q, g):
    out = np.zeros((len(q), len(g)))
    for i in range(len(q)):
        for j in range(len(g)):
            total = 0.0
            for k in range(q.shape[1]):
                total += (q[i, k] - g[j, k]) ** 2
            out[i, j] = math.sqrt(total)
    return out


def ap_cmc_loops(dist_row, q_id, q_cam, g_ids, g_cams, max_rank):
    """AP and CMC contribution of one query, straight from the protocol:
    sort ascending with index tie-break, remove junk (same id AND same
    camera), precision at each positive, first-hit rank for CMC.
    Returns (ap, cmc_row) or None when the query has no valid positive."""
    order = sorted(range(len(dist_row)), key=lambda j: (dist_row[j], j))
    kept = [j for j in order if not (g_ids[j] == q_id and g_cams[j] == q_cam)]
    hits = [rank for rank, j in enumerate(kept) if g_ids[j] == q_id]
    if not hits:
        return None
    precisions = [(n_seen + 1) / (rank + 1) for n_seen, rank in enumerate(hits)]
    ap = sum(precisions) / len(precisions)
    cmc = np.zeros(max_rank)
    if hits[0] < max_rank:
        cmc[hits[0] :] = 1.0
    return ap, cmc


def triplet_batch_hard_loops(features, ids, margin):
    """Exhaustive hardest-pair mining over all pairs, mean hinge."""
    n = len(features)
    total = 0.0
    for a in range(n):
        d_pos = max(
            math.dist(features[a], features[p]) for p in range(n) if ids[p] == ids[a]
        )
        d_neg = min(
            math.dist(features[a], features[ng]) for ng in range(n) if ids[ng] != ids[a]
        )
        total += max(0.0, margin + d_pos - d_neg)
    return total / n


def ce_label_smoothing_loops(logits, labels, epsilon):
    n, k = logits.shape
    total = 0.0
    for i in range(n):
        row = logits[i]
        m = max(row)
        lse = m + math.log(sum(math.exp(v - m) for v in row))
        for j in range(k):
            q = epsilon / k + (1.0 - epsilon if j == labels[i] else 0.0)
            total -= q * (row[j] - lse)
    return total / n


# ---------------------------------------------------------------------------
# Re-ranking (direct transcription of the algorithm description)
# ---------------------------------------------------------------------------


def rerank_transcription(q_feats, g_feats, k1, k2, lam):
    feats = np.vstack([q_feats, g_feats])
    n = len(feats)
    n_q = len(q_feats)
    dist = distances_loops(feats, feats)
    # A point ranks itself first among its exact copies.
    order = [sorted(range(n), key=lambda j: (dist[i][j], j != i, j)) for i in range(n)]

    def neighbors(i, k):
        return order[i][: k + 1]

    def reciprocal(i, k):
        return [j for j in neighbors(i, k) if i in neighbors(j, k)]

    half = int(math.floor(k1 / 2.0 + 0.5))
    encoding = [dict() for _ in range(n)]
    for i in range(n):
        base = reciprocal(i, k1)
        expanded = set(base)
        for candidate in base:
            cand_set = reciprocal(candidate, half)
            if len(set(cand_set) & set(base)) >= (2.0 / 3.0) * len(cand_set):
                expanded |= set(cand_set)
        weights = {j: math.exp(-dist[i][j]) for j in expanded}
        norm = sum(weights.values())
        encoding[i] = {j: wt / norm for j, wt in weights.items()}

    if k2 > 1:
        averaged = []
        for i in range(n):
            combined = {}
            group = order[i][:k2]
            for j in group:
                for key, value in encoding[j].items():
                    combined[key] = combined.get(key, 0.0) + value / len(group)
            averaged.append(combined)
        encoding = averaged

    final = np.zeros((n_q, n - n_q))
    for i in range(n_q):
        for j in range(n_q, n):
            keys = set(encoding[i]) | set(encoding[j])
            min_sum = sum(min(encoding[i].get(t, 0.0), encoding[j].get(t, 0.0)) for t in keys)
            max_sum = sum(max(encoding[i].get(t, 0.0), encoding[j].get(t, 0.0)) for t in keys)
            jaccard = 1.0 - min_sum / max_sum
            final[i, j - n_q] = (1.0 - lam) * jaccard + lam * dist[i][j]
    return final


# ---------------------------------------------------------------------------
# Byte-level references for the rewritten tensor ops
# ---------------------------------------------------------------------------
# Each returns the forward output and a function mapping the upstream
# gradient to the input gradients, computed exactly as tensorcore did before
# its plane-wise max-pool, single-pass batchnorm and reused im2col matrix.


def _windows(xp, kh, kw, stride, ho, wo):
    """Strided window view: (n, cin, ho, wo, kh, kw)."""
    n, cin = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    shape = (n, cin, ho, wo, kh, kw)
    strides = (sn, sc, sh * stride, sw * stride, sh, sw)
    return np.lib.stride_tricks.as_strided(xp, shape=shape, strides=strides, writeable=False)


def conv2d_reference(x, k, stride, pad):
    """Output and ``back(g) -> (gx, gk)`` through ``np.tensordot``."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = _windows(xp, kh, kw, stride, ho, wo)
    val = np.tensordot(cols, k, axes=([1, 4, 5], [1, 2, 3]))
    out = np.ascontiguousarray(val.transpose(0, 3, 1, 2))

    def back(g):
        gk = np.tensordot(g, cols, axes=([0, 2, 3], [0, 2, 3]))
        gcols = np.tensordot(g, k, axes=([1], [0]))
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i : i + ho * stride : stride, j : j + wo * stride : stride] += gcols[
                    :, :, :, :, i, j
                ].transpose(0, 3, 1, 2)
        gx = gxp[:, :, pad : pad + h, pad : pad + w] if pad else gxp
        return gx, gk

    return out, back


def maxpool2d_reference(x, window, stride):
    """Output and ``back(g) -> gx`` through a window copy, ``argmax``
    (first occurrence among ties) and ``np.add.at``."""
    n, c, h, w = x.shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    flat = _windows(x, window, window, stride, ho, wo).reshape(n, c, ho, wo, window * window)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def back(g):
        gx = np.zeros_like(x)
        ni, ci, hi, wi = np.indices((n, c, ho, wo))
        np.add.at(gx, (ni, ci, hi * stride + idx // window, wi * stride + idx % window), g)
        return gx

    return out, back


def batchnorm_train_reference(x, gamma, beta, running_mean, running_var, momentum, eps):
    """Train-mode output (statistics from ``np.var``; the running stats
    are updated in place) and ``back(g) -> (gx, ggamma, gbeta)``."""
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    bshape = (1, -1) if x.ndim == 2 else (1, -1, 1, 1)
    gview = gamma.reshape(bshape)
    mean = x.mean(axis=axes)
    var = x.var(axis=axes)
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean
    running_var *= 1.0 - momentum
    running_var += momentum * var
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean.reshape(bshape)) * ivar.reshape(bshape)
    out = xhat * gview + beta.reshape(bshape)
    count = x.size // x.shape[1]

    def back(g):
        dxhat = g * gview
        s1 = dxhat.sum(axis=axes).reshape(bshape)
        s2 = (dxhat * xhat).sum(axis=axes).reshape(bshape)
        gx = (dxhat - s1 / count - xhat * s2 / count) * ivar.reshape(bshape)
        return gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return out, back


def batchnorm_eval_reference(x, gamma, beta, running_mean, running_var, eps):
    """Eval-mode output: the affine map of the running statistics."""
    bshape = (1, -1) if x.ndim == 2 else (1, -1, 1, 1)
    ivar = 1.0 / np.sqrt(running_var + eps)
    return (x - running_mean.reshape(bshape)) * ivar.reshape(bshape) * gamma.reshape(bshape) + beta.reshape(bshape)


def relu_reference(x):
    """Output and ``back(g) -> gx`` through a boolean mask."""
    return np.maximum(x, 0.0), lambda g: g * (x > 0)


def augment_reference(image, cfg, draw):
    """Flip, zoom and erase with the flip and the whole resized image
    materialized, then center-cropped or zero-padded, in ``augment``'s
    draw order."""
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape[:2]
    if draw.uniform() < cfg.flip_prob:
        img = img[:, ::-1].copy()

    z = draw.uniform(cfg.zoom_range[0], cfg.zoom_range[1])
    zh, zw = max(1, int(round(h * z))), max(1, int(round(w * z)))
    src_y = (np.arange(zh) + 0.5) * h / zh - 0.5
    src_x = (np.arange(zw) + 0.5) * w / zw - 0.5
    y0 = np.clip(np.floor(src_y), 0, h - 1).astype(np.int64)
    x0 = np.clip(np.floor(src_x), 0, w - 1).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(src_y - y0, 0.0, 1.0)[:, None, None]
    wx = np.clip(src_x - x0, 0.0, 1.0)[None, :, None]
    top = img[y0][:, x0] * (1 - wx) + img[y0][:, x1] * wx
    bottom = img[y1][:, x0] * (1 - wx) + img[y1][:, x1] * wx
    resized = top * (1 - wy) + bottom * wy

    img = np.zeros_like(img)
    src_top, src_left = max(0, (zh - h) // 2), max(0, (zw - w) // 2)
    dst_top, dst_left = max(0, (h - zh) // 2), max(0, (w - zw) // 2)
    ch, cw = min(h, zh), min(w, zw)
    img[dst_top : dst_top + ch, dst_left : dst_left + cw] = resized[src_top : src_top + ch, src_left : src_left + cw]

    if draw.uniform() < cfg.erase_prob:
        area = draw.uniform(cfg.erase_area[0], cfg.erase_area[1]) * h * w
        aspect = draw.uniform(cfg.erase_aspect[0], cfg.erase_aspect[1])
        eh = int(np.clip(round(np.sqrt(area * aspect)), 1, h))
        ew = int(np.clip(round(np.sqrt(area / aspect)), 1, w))
        top = int(draw.integers(0, h - eh + 1))
        left = int(draw.integers(0, w - ew + 1))
        img[top : top + eh, left : left + ew] = 0.0
    return img


# ---------------------------------------------------------------------------
# Byte-level references for the row-block-parallel retrieval passes
# ---------------------------------------------------------------------------
# ``evaluation.pairwise_euclidean`` and ``evaluation._nearest`` as they were
# before their row blocks were spread over threads.


def pairwise_euclidean_reference(q, g):
    block_elements = 1 << 16
    symmetric = q is g
    q = np.asarray(q, dtype=np.float64)
    g = q if symmetric else np.asarray(g, dtype=np.float64)
    n_q, n_g, d = q.shape[0], g.shape[0], q.shape[1]
    out = np.empty((n_q, n_g))
    cols = max(1, min(n_g, math.isqrt(block_elements // max(1, d))))
    rows = cols if symmetric else max(1, block_elements // (cols * max(1, d)))
    buf = np.empty(rows * cols * d)
    for i in range(0, n_q, rows):
        qi = q[i : i + rows, None, :]
        for j in range(i if symmetric else 0, n_g, cols):
            gj = g[None, j : j + cols, :]
            block = buf[: qi.shape[0] * gj.shape[1] * d].reshape(qi.shape[0], gj.shape[1], d)
            np.subtract(qi, gj, out=block)
            np.multiply(block, block, out=block)
            tile = np.sqrt(block.sum(axis=2))
            out[i : i + rows, j : j + cols] = tile
            if symmetric and j != i:
                out[j : j + cols, i : i + rows] = tile.T
    return out


def nearest_reference(dist, k):
    """Whole-matrix partition, then one lexsort of every row's candidates."""
    kth = np.partition(dist, k, axis=1)[:, k : k + 1]
    rows, cols = np.nonzero(dist <= kth)
    cols = cols[np.lexsort((cols != rows, dist[rows, cols], rows))]
    counts = np.bincount(rows, minlength=dist.shape[0])
    return cols[(np.cumsum(counts) - counts)[:, None] + np.arange(k + 1)]


# ---------------------------------------------------------------------------
# Byte-level reference for re-ranking
# ---------------------------------------------------------------------------
# ``evaluation.rerank`` as it was while it computed all N x N exact
# distances, with the single-threaded passes above in place of the
# row-block-parallel ones.


def _ranges(starts, counts):
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(counts.sum())


def _reciprocal_table(order, k):
    nb = order[:, : k + 1]
    mutual = (nb[nb] == np.arange(nb.shape[0])[:, None, None]).any(axis=2)
    return np.where(mutual, nb, -1)


def _expanded_sets(order, k1):
    n = order.shape[0]
    reciprocal = _reciprocal_table(order, k1)  # (N, k1 + 1)
    half_reciprocal = _reciprocal_table(order, int(np.floor(k1 / 2.0 + 0.5)))
    valid = reciprocal >= 0
    candidates = half_reciprocal[np.where(valid, reciprocal, 0)]  # (N, k1 + 1, half + 1)
    in_candidate = candidates >= 0
    offsets = np.arange(n)[:, None] * (n + 1)
    members = (np.sort(np.where(valid, reciprocal, n), axis=1) + offsets).ravel()
    probes = candidates + offsets[:, :, None]
    found = members[np.minimum(np.searchsorted(members, probes), members.size - 1)] == probes
    overlap = (found & in_candidate).sum(axis=2)
    accepted = valid & (overlap >= (2.0 / 3.0) * in_candidate.sum(axis=2))
    grown = np.where(accepted[:, :, None] & in_candidate, candidates, -1).reshape(n, -1)
    union = np.sort(np.concatenate([reciprocal, grown], axis=1), axis=1)
    keep = union >= 0
    keep[:, 1:] &= union[:, 1:] != union[:, :-1]
    return np.nonzero(keep)[0], union[keep]


def _jaccard(rows, cols, values, n_q, n):
    n_g = n - n_q
    split = np.searchsorted(rows, n_q)  # query entries come first
    by_col = split + np.argsort(cols[split:], kind="stable")  # gallery entries by column
    col_count = np.bincount(cols[by_col], minlength=n)
    pairs = col_count[cols[:split]]
    entry = np.repeat(np.arange(split), pairs)
    partner = by_col[_ranges((np.cumsum(col_count) - col_count)[cols[:split]], pairs)]
    mins = np.minimum(values[entry], values[partner])
    min_sum = np.bincount(rows[entry] * n_g + rows[partner] - n_q, weights=mins, minlength=n_q * n_g)
    min_sum = min_sum.reshape(n_q, n_g)
    row_sums = np.bincount(rows, weights=values, minlength=n)
    return 1.0 - min_sum / (row_sums[:n_q, None] + row_sums[None, n_q:] - min_sum)


def rerank_full_matrix_reference(q_feats, g_feats, params):
    return _rerank_distances(_union_distances(q_feats, g_feats, params.k1), len(q_feats), params)


def _union_distances(q_feats, g_feats, k1):
    feats = np.vstack([np.asarray(q_feats, dtype=np.float64), np.asarray(g_feats, dtype=np.float64)])
    if k1 >= feats.shape[0]:
        raise ValueError(f"k1 ({k1}) must be < number of points ({feats.shape[0]})")
    if not np.isfinite(feats).all():
        raise ValueError("features must be finite")
    return pairwise_euclidean_reference(feats, feats)


def _rerank_distances(original, n_q, params):
    total = original.shape[0]
    order = nearest_reference(original, params.k1)  # (N, k1 + 1), nearest first

    rows, cols = _expanded_sets(order, params.k1)
    row_len = np.bincount(rows, minlength=total)
    starts = np.cumsum(row_len) - row_len
    dists = original[rows, cols]
    weights = np.exp(-(dists - np.minimum.reduceat(dists, starts)[rows]))
    values = weights / np.bincount(rows, weights=weights, minlength=total)[rows]

    if params.k2 > 1:
        # Mean over the k2 nearest neighbours' rows: gather their entries
        # in neighbour order, then merge equal (row, column) keys.
        group = order[:, : params.k2].ravel()
        src = _ranges(starts[group], row_len[group])
        keys = np.repeat(np.arange(total).repeat(params.k2), row_len[group]) * total + cols[src]
        keys, inverse = np.unique(keys, return_inverse=True)
        values = np.bincount(inverse, weights=values[src]) / params.k2
        rows, cols = keys // total, keys % total

    return (1.0 - params.lam) * _jaccard(rows, cols, values, n_q, total) + params.lam * original[:n_q, n_q:]
