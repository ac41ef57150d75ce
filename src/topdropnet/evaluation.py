"""Retrieval evaluation: distances, CMC/mAP, k-reciprocal re-ranking.

The protocol is the standard cross-camera one: for each query, gallery
entries sharing both its person id and camera id are junk and removed
before scoring; queries left without any correct match are skipped.
Average precision is the mean of precision measured at each correct
match's rank; CMC at rank k is the fraction of valid queries whose first
correct match lands in the top k. Distance ties break by gallery index.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import blocks


@dataclass(frozen=True)
class EmbeddingSet:
    features: np.ndarray  # (n, d)
    person_ids: np.ndarray  # (n,)
    camera_ids: np.ndarray  # (n,)

    def __post_init__(self):
        n = self.features.shape[0]
        if self.features.ndim != 2 or self.features.shape[1] < 1:
            raise ValueError(f"features must be (n, d), got {self.features.shape}")
        if self.person_ids.shape != (n,) or self.camera_ids.shape != (n,):
            raise ValueError("metadata length mismatch")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite")


# Length of a CMC curve unless the caller asks for another.
MAX_RANK = 50


@dataclass
class EvalResult:
    mAP: float
    cmc: np.ndarray  # ranks 1..R
    per_query_ap: np.ndarray  # NaN for skipped queries
    num_valid_queries: int


@dataclass(frozen=True)
class RerankParams:
    k1: int = 20
    k2: int = 6
    lam: float = 0.3

    def __post_init__(self):
        if self.k2 > self.k1:
            raise ValueError(f"k2 ({self.k2}) must be <= k1 ({self.k1})")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        if self.k1 < 1 or self.k2 < 1:
            raise ValueError("k1 and k2 must be >= 1")


# Elements in one block of differences: 512 KiB of float64, which stays in
# a per-core L2 cache while the block is squared and reduced.
_BLOCK_ELEMENTS = 1 << 16


def pairwise_euclidean(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Exact Euclidean distances between the rows of ``q`` and ``g``.

    Distances come from explicit differences, not the quadratic expansion,
    for accuracy. Both row sets are tiled by ``rows`` so that one
    (rows, rows, d) block of differences holds about ``_BLOCK_ELEMENTS``
    values; the block is squared in place and summed over d the way the
    unblocked ``np.sqrt(((q[:, None] - g[None]) ** 2).sum(axis=2))`` sums
    it, so the result is bitwise equal to that formula while no temporary
    grows past one block per thread. An entry's bytes depend only on its
    two rows, and (a - b)**2 == (b - a)**2 in IEEE arithmetic, which
    :func:`_union_distances` relies on. Each row block of ``q`` is one
    ``blocks.split`` task, so the bytes do not depend on the CPU count.
    """
    q = np.asarray(q, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if q.ndim != 2 or g.ndim != 2 or q.shape[1] != g.shape[1]:
        raise ValueError(f"dimension mismatch: {q.shape} vs {g.shape}")
    n_q, n_g, d = q.shape[0], g.shape[0], q.shape[1]
    out = np.empty((n_q, n_g))
    rows = max(1, min(n_g, math.isqrt(_BLOCK_ELEMENTS // max(1, d))))

    def work(i):
        buf = np.empty(rows * rows * d)
        qi = q[i : i + rows, None, :]
        for j in range(0, n_g, rows):
            gj = g[None, j : j + rows, :]
            block = buf[: qi.shape[0] * gj.shape[1] * d].reshape(qi.shape[0], gj.shape[1], d)
            np.subtract(qi, gj, out=block)
            np.multiply(block, block, out=block)
            out[i : i + rows, j : j + rows] = np.sqrt(block.sum(axis=2))

    blocks.split(work, range(0, n_q, rows))
    return out


def _pair_distances(feats: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Exact distances between ``feats[rows]`` and ``feats[cols]``, pair
    by pair, with the bytes :func:`pairwise_euclidean` gives each pair:
    the same difference, squared and summed over d. Pairs go through two
    buffers of up to ``_BLOCK_ELEMENTS`` values each, reused chunk by
    chunk. At d = 256 on a 2-CPU Xeon, two threads took 1.5 times as
    long as one with chunks a quarter that size, and 0.56 times as long
    with chunks this size."""
    out = np.empty(rows.size)
    step = max(1, _BLOCK_ELEMENTS // max(1, feats.shape[1]))
    a = np.empty((min(step, rows.size), feats.shape[1]))
    b = np.empty_like(a)
    for s in range(0, rows.size, step):
        x, y = a[: rows.size - s], b[: rows.size - s]  # the last chunk may be short
        np.take(feats, rows[s : s + step], axis=0, out=x, mode="clip")  # "clip" writes out unbuffered
        np.take(feats, cols[s : s + step], axis=0, out=y, mode="clip")
        np.subtract(x, y, out=x)
        np.multiply(x, x, out=x)
        np.sqrt(x.sum(axis=1), out=out[s : s + step])
    return out


def evaluate(
    dist: np.ndarray,
    query_ids,
    query_cams,
    gallery_ids,
    gallery_cams,
    max_rank: int = MAX_RANK,
) -> EvalResult:
    """Score a query-gallery distance matrix under the junk-removal rule."""
    query_ids = np.asarray(query_ids)
    query_cams = np.asarray(query_cams)
    gallery_ids = np.asarray(gallery_ids)
    gallery_cams = np.asarray(gallery_cams)
    n_q, n_g = dist.shape
    if query_ids.shape != (n_q,) or gallery_ids.shape != (n_g,):
        raise ValueError("distance matrix does not match metadata")
    if max_rank < 1:
        raise ValueError(f"max_rank must be >= 1, got {max_rank}")
    max_rank = min(max_rank, n_g)

    cmc_sum = np.zeros(max_rank)
    per_query_ap = np.full(n_q, np.nan)
    num_valid = 0
    for i in range(n_q):
        order = np.argsort(dist[i], kind="stable")  # ties -> lower gallery index
        junk = (gallery_ids[order] == query_ids[i]) & (gallery_cams[order] == query_cams[i])
        matches = gallery_ids[order][~junk] == query_ids[i]
        positives = np.flatnonzero(matches)
        if positives.size == 0:
            continue
        num_valid += 1
        per_query_ap[i] = np.mean((np.arange(positives.size) + 1.0) / (positives + 1.0))
        first = positives[0]
        if first < max_rank:
            cmc_sum[first:] += 1.0
    if num_valid == 0:
        raise ValueError("no query has a valid cross-camera match")
    return EvalResult(
        mAP=float(np.nanmean(per_query_ap)),
        cmc=cmc_sum / num_valid,
        per_query_ap=per_query_ap,
        num_valid_queries=num_valid,
    )


# ---------------------------------------------------------------------------
# k-reciprocal re-ranking
# ---------------------------------------------------------------------------


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` over the (start, count) pairs."""
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(counts.sum())


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """The k + 1 nearest columns of each row of the square ``dist``,
    nearest first. Among equal distances a point ranks itself first and
    then the lower column index, so every point is its own nearest
    neighbour even among exact copies. Only the entries up to each row's
    (k + 1)-th smallest value are sorted, not whole rows, one stripe of
    about ``_BLOCK_ELEMENTS`` distances per ``blocks.split`` task."""
    n = dist.shape[0]
    order = np.empty((n, k + 1), dtype=np.intp)
    rows = max(1, _BLOCK_ELEMENTS // max(1, n))

    def work(s):
        stripe = dist[s : s + rows]
        kth = np.partition(stripe, k, axis=1)[:, k : k + 1]
        r, c = np.nonzero(stripe <= kth)  # columns ascend within each row
        c = c[np.lexsort((c != r + s, stripe[r, c], r))]  # lexsort is stable
        counts = np.bincount(r, minlength=stripe.shape[0])
        order[s : s + rows] = c[(np.cumsum(counts) - counts)[:, None] + np.arange(k + 1)]

    blocks.split(work, range(0, n, rows))
    return order


def _reciprocal_table(order: np.ndarray, k: int) -> np.ndarray:
    """The k-nearest-neighbour table ``order[:, :k + 1]`` (each point is its
    own nearest neighbour) with each entry whose own table does not hold
    the row's point replaced by -1."""
    nb = order[:, : k + 1]
    mutual = (nb[nb] == np.arange(nb.shape[0])[:, None, None]).any(axis=2)
    return np.where(mutual, nb, -1)


def _expanded_sets(order: np.ndarray, k1: int):
    """Each point's k1-reciprocal set, grown by the half-k1 reciprocal set
    of every member that shares at least 2/3 of it with the point's own
    set. Returns (rows, cols) of the sets, sorted by row then column."""
    n = order.shape[0]
    reciprocal = _reciprocal_table(order, k1)  # (N, k1 + 1)
    half_reciprocal = _reciprocal_table(order, int(np.floor(k1 / 2.0 + 0.5)))
    valid = reciprocal >= 0
    candidates = half_reciprocal[np.where(valid, reciprocal, 0)]  # (N, k1 + 1, half + 1)
    in_candidate = candidates >= 0
    # Membership in reciprocal[i]: one searchsorted over every row's sorted
    # set, each row offset past the previous one's values.
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


def _jaccard(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, n_q: int, n: int) -> np.ndarray:
    """Jaccard distance 1 - sum(min) / sum(max) between each query row
    (< n_q) and each gallery row (n_q..n-1) of a sparse encoding sorted by
    row.

    sum(min) joins every query entry with the gallery entries of its
    column through an inverted index; sum(max) = sum(a) + sum(b) - sum(min).
    Reciprocity caps how many rows hold any one column, so the join grows
    linearly with N.
    """
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


def rerank(q_feats: np.ndarray, g_feats: np.ndarray, params: RerankParams = RerankParams()) -> np.ndarray:
    """Refine query-gallery distances with k-reciprocal encoding.

    Over the union of query and gallery points: build k-reciprocal
    neighbor sets at k1, expand each with the half-k1 reciprocal sets of
    its members whenever the overlap is at least 2/3 of the candidate
    set, encode each point as exp(-d) softmax-normalized over its
    expanded set, average that encoding over the k2 nearest neighbors,
    and measure Jaccard distance 1 - sum(min) / sum(max) between query
    and gallery encodings. The result blends with the original distance:
    (1 - lambda) * jaccard + lambda * original.

    As in Zhong et al.'s reference code (CVPR 2017), the encodings are
    sparse: (row, column, value) arrays sorted by row then column, and
    Jaccard goes through an inverted index over gallery rows. Reciprocity
    and expansion are tested on padded (N, k1 + 1) and
    (N, k1 + 1, k1/2 + 1) neighbour tables. Besides the N x N distances
    and the (n_q, n_g) result, the working arrays grow linearly with N.

    Only the query x gallery distances are read in full. The query x
    query and gallery x gallery ones serve to find each point's k1 + 1
    nearest neighbours and a few expanded-set entries, so they are
    bounded from norms and one product per row block, and computed
    exactly only where the bound cannot rule out a nearest neighbour, or
    where an expanded set reads them (:func:`_union_distances`). Every
    value re-ranking reads has the bytes of the exact all-pairs pass. The
    distance passes and the neighbour search queue one task per row block
    on the process's thread pool (``blocks.split``); the result has the
    same bytes for any CPU count.
    """
    return _rerank_distances(_union_distances(q_feats, g_feats, params.k1), q_feats, g_feats, params)


def _union_distances(q_feats: np.ndarray, g_feats: np.ndarray, k1: int) -> np.ndarray:
    """The N x N distances over the query rows, then the gallery rows,
    that re-ranking at ``k1`` starts from.

    The ``[:n_q, n_q:]`` block is ``pairwise_euclidean(q_feats,
    g_feats)``, and its mirror is that block transposed. In the query x
    query and gallery x gallery blocks, an entry that may rank among its
    row's k1 + 1 nearest has the bytes of the exact pass; every other
    entry is +inf. Each row block of about ``_BLOCK_ELEMENTS`` values
    bounds its own set's distances (:func:`_distance_bounds`) and marks
    the entries whose lower bound does not exceed the row's (k1 + 1)-th
    smallest upper bound, the exact cross distances bounding themselves.
    An entry left out is strictly farther than k1 + 1 other columns, so
    :func:`_nearest` gives the neighbours, order and ties of the full
    matrix. A NaN upper bound ranks last: a row with fewer than k1 + 1
    upper bounds that are not NaN keeps every entry, as does a row whose
    bounds say nothing, such as in a collapsed gallery. Then each pair
    marked in either direction is computed once, on or above the
    diagonal, and mirrored, so a set whose bounds rule nothing out costs
    the pairs of a symmetric all-pairs pass.
    """
    q = np.asarray(q_feats, dtype=np.float64)
    g = np.asarray(g_feats, dtype=np.float64)
    n_q, total = q.shape[0], q.shape[0] + g.shape[0]
    if k1 >= total:
        raise ValueError(f"k1 ({k1}) must be < number of points ({total})")
    if not (np.isfinite(q).all() and np.isfinite(g).all()):
        raise ValueError("features must be finite")
    out = np.empty((total, total))
    out[:n_q, n_q:] = pairwise_euclidean(q, g)
    out[n_q:, :n_q] = out[:n_q, n_q:].T
    with np.errstate(over="ignore"):  # an infinite norm gives NaN bounds
        sets = [(0, q, np.einsum("ij,ij->i", q, q)), (n_q, g, np.einsum("ij,ij->i", g, g))]
    rows = max(1, _BLOCK_ELEMENTS // total)
    starts = [s for first, feats, _ in sets for s in range(first, first + len(feats), rows)]

    def mark(start):  # NaN marks an entry to compute; no exact distance is NaN
        first, feats, sq_norms = sets[0 if start < n_q else 1]  # the row block's own set
        i, stop = start - first, min(start - first + rows, len(feats))
        own = out[start : first + stop, first : first + len(feats)]
        lower = _distance_bounds(feats[i:stop], sq_norms[i:stop], feats, sq_norms, upper=own)
        kth = np.partition(out[start : first + stop], k1, axis=1)[:, k1 : k1 + 1]
        own[...] = np.where(lower > kth, np.inf, np.nan)  # a NaN kth keeps the whole row

    def compute(start):  # pair (r, c), r <= c, and its mirror belong to r's row block alone
        first, feats, _ = sets[0 if start < n_q else 1]
        i, stop = start - first, min(start - first + rows, len(feats))
        own = out[first : first + len(feats), first : first + len(feats)]
        r, c = np.nonzero(np.triu(np.isnan(own[i:stop, i:]) | np.isnan(own[i:, i:stop].T)))
        r += i
        c += i
        own[r, c] = own[c, r] = _pair_distances(feats, r, c)

    blocks.split(mark, starts)
    blocks.split(compute, starts)
    return out


def _distance_bounds(x: np.ndarray, x_sq: np.ndarray, y: np.ndarray, y_sq: np.ndarray,
                     upper: np.ndarray) -> np.ndarray:
    """Lower bounds on ``pairwise_euclidean(x, y)``, returned, and upper
    bounds, written to ``upper``, from the rows' squared norms ``x_sq``
    and ``y_sq``, summed in any order, and one GEMM. Where a norm, the
    product or the estimate overflows, the upper bound is NaN or +inf and
    the lower bound 0.

    With u = 2**-53 and g(n) = n u / (1 - n u), take rows x, y with
    s = |x - y|**2 and T = |x|**2 + |y|**2 >= s / 2. The exact pass gives
    D = sqrt(sum_k (x_k - y_k)**2), rounding each difference, square,
    addition and the root: with three roundings per term and d - 1
    additions of non-negative terms in any order,
    |D**2 - s| <= g(d + 4) s <= 2 g(d + 4) T. The estimate is
    e = (a + b) - 2 p, with a, b the squared norms and p the GEMM's dot
    product. In any summation order, with or without FMA,
    |a + b - T| <= g(d) T and |p - x.y| <= g(d) |x| |y| <= g(d) T / 2, and
    the two additions add at most 3 u T, so
    |e - s| <= (2 g(d + 1) + 3 u) T. As A = fl(a + b) >= (1 - g(d + 1)) T,
    |D**2 - e| <= (4 d + 14) u A for any d with d u small. The margin
    m = (d + 8) 2**-50 (A + tiny) = (8 d + 64) u (A + tiny) is more than
    twice that: the rest covers the rounding of e - m, e + m and their
    square roots, and the tiny term, (4 d + 32) 2**-1074, covers
    underflow, where each of the at most 5 d products behind a, b, p and
    D loses up to 2**-1075. So sqrt(max(e - m, 0)) <= D <= sqrt(e + m).
    Rounding is monotone, so where D overflows to +inf, e + m does too.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        margin = x_sq[:, None] + y_sq[None, :]
        estimate = x @ y.T
        estimate *= -2.0
        estimate += margin
        margin += np.finfo(np.float64).tiny
        margin *= (x.shape[1] + 8) * 2.0**-50
        np.sqrt(np.add(estimate, margin, out=upper), out=upper)
        estimate -= margin
        estimate[~(estimate < np.inf)] = 0.0  # NaN or overflowed: no lower bound
        return np.sqrt(np.maximum(estimate, 0.0, out=estimate), out=estimate)


def _exact_entries(original: np.ndarray, rows: np.ndarray, cols: np.ndarray, q_feats: np.ndarray,
                   g_feats: np.ndarray) -> np.ndarray:
    """``original[rows, cols]``, for ``rows`` in ascending order, with the
    exact distance in place of each +inf that :func:`_union_distances`
    left in a query x query or gallery x gallery block."""
    n_q = len(q_feats)
    dists = original[rows, cols]
    left_out = np.flatnonzero((dists == np.inf) & ((rows < n_q) == (cols < n_q)))
    split = np.searchsorted(rows[left_out], n_q)
    for first, feats, pick in ((0, q_feats, left_out[:split]), (n_q, g_feats, left_out[split:])):
        dists[pick] = _pair_distances(np.asarray(feats, dtype=np.float64), rows[pick] - first, cols[pick] - first)
    return dists


def _rerank_distances(original: np.ndarray, q_feats: np.ndarray, g_feats: np.ndarray,
                      params: RerankParams) -> np.ndarray:
    """:func:`rerank` from the distances of :func:`_union_distances`."""
    n_q, total = len(q_feats), original.shape[0]
    order = _nearest(original, params.k1)  # (N, k1 + 1), nearest first

    rows, cols = _expanded_sets(order, params.k1)
    row_len = np.bincount(rows, minlength=total)
    starts = np.cumsum(row_len) - row_len
    dists = _exact_entries(original, rows, cols, q_feats, g_feats)
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


# ---------------------------------------------------------------------------
# Whole-run evaluation and file formats
# ---------------------------------------------------------------------------


def embed_split(model, dataset, split: str) -> EmbeddingSet:
    """Eval-mode embeddings for one split of a loaded dataset.

    Images go through the model in chunks of the training batch, P x K;
    an image's embedding does not depend on the chunk it is in.
    """
    from . import network, synthdata  # local import to keep this module numpy-only

    idxs = dataset.indices(split)
    if idxs.size == 0:
        raise ValueError(f"dataset has no {split!r} records")
    model.eval()
    spec = synthdata.BatchSpec()
    chunk = spec.p * spec.k
    feats = []
    for start in range(0, idxs.size, chunk):
        batch = idxs[start : start + chunk]
        feats.append(model.inference_embed(network.normalize_images(dataset.images[batch], model.dtype)))
    records = [dataset.records[i] for i in idxs]
    return EmbeddingSet(
        np.vstack(feats, dtype=np.float64),  # metrics are computed in float64
        np.array([r.person_id for r in records]),
        np.array([r.camera_id for r in records]),
    )


def evaluate_run(query: EmbeddingSet, gallery: EmbeddingSet, rerank_params: RerankParams = None,
                 max_rank: int = MAX_RANK):
    """Raw results from one embedding pass, and re-ranked ones with
    ``rerank_params``, else None in their place."""
    ids = (query.person_ids, query.camera_ids, gallery.person_ids, gallery.camera_ids)
    if rerank_params is None:
        return evaluate(pairwise_euclidean(query.features, gallery.features), *ids, max_rank), None
    # One distance pass: re-ranking's N x N matrix holds the raw distances.
    n_q = query.features.shape[0]
    original = _union_distances(query.features, gallery.features, rerank_params.k1)
    raw = evaluate(original[:n_q, n_q:], *ids, max_rank)
    return raw, evaluate(_rerank_distances(original, query.features, gallery.features, rerank_params), *ids, max_rank)


def _csv_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """The one CSV format every file the package writes uses: floats as
    ``repr(float(v))``, which reads back exactly, ``None`` as an empty
    field, anything else through ``str``, and ``\\r\\n`` line ends."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([_csv_field(v) for v in row] for row in rows)


def save_embeddings(path, embeddings: EmbeddingSet) -> None:
    d = embeddings.features.shape[1]
    rows = (
        [int(pid), int(cam), *row]
        for pid, cam, row in zip(embeddings.person_ids, embeddings.camera_ids, embeddings.features.tolist())
    )
    write_csv(path, ["person_id", "camera_id"] + [f"f{i}" for i in range(d)], rows)


def load_embeddings(path) -> EmbeddingSet:
    """Read a file written by ``save_embeddings``.

    Raises ValueError for an empty file, a header without feature columns,
    a row of the wrong width or with a non-numeric field, a file without
    rows, and (through ``EmbeddingSet``) a NaN or infinite feature.
    """
    with open(path, "r", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or header[:2] != ["person_id", "camera_id"] or len(header) < 3:
            raise ValueError(f"{path}: expected a person_id,camera_id,f0,... header")
        d = len(header) - 2
        pids, cams, rows = [], [], []
        for row in reader:
            if len(row) != d + 2:
                raise ValueError(f"{path}:{reader.line_num}: expected {d + 2} fields, got {len(row)}")
            try:
                pids.append(int(row[0]))
                cams.append(int(row[1]))
                rows.append([float(v) for v in row[2:]])
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no embeddings")
    return EmbeddingSet(np.array(rows, dtype=np.float64), np.array(pids), np.array(cams))


def save_results(path, result: EvalResult) -> None:
    rows = [["mAP", result.mAP]]
    rows += [[f"rank-{rank}", result.cmc[rank - 1]] for rank in (1, 5, 10) if rank <= result.cmc.size]
    rows.append(["num_valid_queries", result.num_valid_queries])
    rows += [[f"cmc_{k}", value] for k, value in enumerate(result.cmc, start=1)]
    write_csv(path, ["metric", "value"], rows)
