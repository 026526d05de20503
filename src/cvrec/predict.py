"""Monte Carlo predictive scoring, one path for warm and cold entities.

A score is a predicted interaction probability: the mean over S paired
samples of the interaction net's output. `score_cases` is the only function
that draws samples and runs the interaction net; `score_candidates` is its
one-case call. Each case is one user Gaussian scored against rows of an item
table of Gaussians, wherever they came from: a warm entity's comes from its
posterior (`user_posterior`, `item_posterior`), and a cold entity, which has
no feedback history, takes its side-information prior (`user_prior_params`,
`item_prior_params`), or N(0, I) when that prior is disabled.

The work is item-major. The interaction net's first layer is affine in the
pair [u, v], so with its weight split by columns, W = [W_u | W_v], the
pre-activation is (u W_u^T + b) + v W_v^T. Within a block of cases each table
row that a case uses draws its S samples and computes v W_v^T once, each case
computes u W_u^T + b once, and a (case, candidate) slot costs only the add,
the ReLU and the layers above the first, which run through the net's own
forward. Blocks are bounded in sample rows (S rows per case, item or slot):
CASE_ROWS for the user halves held at once, ITEM_ROWS for the item halves and
SLOT_ROWS for the slots pushed through the upper layers at once.

Scoring runs on every core the process may use. For each block of cases the
calling thread draws the user halves, u W_u^T + b, and then waits while the
workers, one thread per core, score every slot. The item blocks are dealt to
the workers in turn: worker w takes blocks w, w + workers, ... and, for each,
draws its items' noise, computes their samples and their half v W_v^T into
its own two buffers, then runs the block's slot blocks: the gather, the add,
the ReLU, the upper layers and the mean over the samples. The slots of one
item block are contiguous in the item-major order, so each worker writes
scores no other worker touches. Workers build their autodiff nodes under
their own `no_grad` (the switch is per thread) and call the interaction net
through its class, not through the instance attribute that a tracer keeping
one span stack wraps. Slot blocks are carved inside each item block, and
every product's shape is that of a one-worker run, so the scores do not
depend on the number of workers, bit for bit. The pool lives for one call,
inside `blas.single_thread`, so every thread's products use one BLAS thread;
an error in any thread ends the call with the pool shut down.

Peak scoring memory is fixed by the block constants and the layer widths, not
by the number of candidates or cases. Each worker holds ITEM_ROWS x (D +
width) x 8 bytes of samples and item halves, 4.2 MB at D = width = 128, plus
its slot block's activations, SLOT_ROWS x 8 bytes per unit of the upper
layers. On a 2-core AMD EPYC guest, against a pipeline whose calling thread
ran the slots while the workers made only the item halves, this cut the
median time per eval-ml100k case from 8.44 to 7.62 ms (10 seeds, faster on
each) and per one-user all-items predict-ml1m call from 772 to 706 ms (6
seeds), with peak memory level: 174 -> 172 MB and 264 -> 265 MB.

The posterior passes run on the same cores. `user_posterior` and
`item_posterior` cut their ids into the fewest chunks of at most
POSTERIOR_ROWS rows, equal in size within one row, and deal the chunks to
one share per core in turn; the calling thread runs share 0 and a pool the
others. Each chunk slices its rows of the inference net's sparse input,
runs the net through its class (as the slots do) and writes its rows of the
mean and log-variance arrays that the calling thread allocated. On one BLAS
thread a row's result does not depend on its chunk once chunks hold 10 rows
or more, at the default widths; OpenBLAS rounds products of fewer rows
differently, so no chunk is left as a short tail. So for the default model
a pass gives the bits of one unchunked pass, whatever the worker count.
`rank` and the evaluators run their posterior and prior passes and
`score_cases` in one `blas.single_thread` scope (see `blas` for why).
Against passes run on OpenBLAS's two threads outside that scope, this cut
the median predict-ml1m call from 782 to 580 ms and the median eval-ml100k
case from 7.92 to 6.77 ms (10 seeds each, faster on every seed, 2-core AMD
EPYC guest). Peak memory went from 266 to 242 MB on predict-ml1m, where the
item pass itself peaked at 19 MB under tracemalloc against 46 MB for one
unchunked pass, and from 172.2 to 173.0 MB on eval-ml100k.

Noise streams are keyed by (seed, side, entity id): the user keys and the
item table's keys. That makes every score deterministic for a fixed seed and
independent of evaluation order, batching and blocking.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import sparse

from . import blas
from .data import InteractionMatrix, SideInfo
from .model import GaussianNet, ModelParams, SigmoidNet, inference_input

DEFAULT_SAMPLES = 128

_USER_STREAM = 0xA5
_ITEM_STREAM = 0x5A

# Block bounds of `score_cases` in sample rows (see the module docstring).
# Smaller item and slot blocks stay in cache; on 2 cores, 2^11-2^13 rows ran
# within noise of each other at eval and predict shapes when one thread
# scored. Every worker holds one item block and one slot block at once. With
# two workers, 2^11 slot rows raised the peak of eval-ml100k from 173 to
# 176-180 MB and of predict-ml1m from 267 to 267-279 MB; 2^10 kept both level
# (170 and 261 MB) and ran as fast.
CASE_ROWS = 1 << 16
ITEM_ROWS = 1 << 11
SLOT_ROWS = 1 << 10
# Most rows of one chunk of a posterior pass (see the module docstring).
# Each thread holds one chunk's input rows and activations at a time. At
# predict-ml1m shape, on two threads, a pass over the 3.7k items peaked at
# 19 MB under tracemalloc with 512-row chunks and 26 MB with 1024, against
# 46 MB for one unchunked pass; 512 and 1024 rows ran within noise of each
# other, 256 about 20% slower.
POSTERIOR_ROWS = 1 << 9

# name prefix of the threads of every scoring pool
_POOL_NAME = "cvrec-score"


def _noise(seed: int, stream: int, key: int, n: int, dim: int) -> np.ndarray:
    # SeedSequence wants non-negative entropy; a negative key wraps
    # deterministically
    rng = np.random.default_rng((seed, stream, int(key) % (2**63)))
    return rng.standard_normal((n, dim))


def _draw(mean: np.ndarray, log_var: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """mean + exp(log_var / 2) * eps, written over eps."""
    eps *= np.exp(0.5 * log_var)
    eps += mean
    return eps


def _check_ids(ids: np.ndarray, n: int, kind: str) -> None:
    bad = ids[(ids < 0) | (ids >= n)]
    if len(bad):
        raise IndexError(f"{kind} id {int(bad[0])} out of range [0, {n})")


def _posterior(net: GaussianNet, features, feedback, enabled: bool, ids, n: int,
               kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(mean, log_var) of the rows `ids`, in chunks of at most POSTERIOR_ROWS.

    Chunk k goes to share k mod shares, one share per core; the calling
    thread runs share 0 and a pool the others. Each chunk writes its rows of
    the two arrays allocated here.
    """
    ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
    _check_ids(ids, n, kind)
    mean = np.empty((len(ids), net.mean_head.out_dim))
    log_var = np.empty_like(mean)
    # chunks of equal size within one row: no short tail chunk
    n_chunks = -(-len(ids) // POSTERIOR_ROWS)
    chunks = [slice(len(ids) * k // n_chunks, len(ids) * (k + 1) // n_chunks)
              for k in range(n_chunks)]

    def run_share(share, shares):
        for rows in chunks[share::shares]:
            x = inference_input(features[ids[rows]], feedback[ids[rows]], enabled)
            # through the class, as in `score_cases`
            mean[rows], log_var[rows] = GaussianNet.forward_values(net, x)

    shares = min(len(os.sched_getaffinity(0)), len(chunks))
    with blas.single_thread():
        if shares <= 1:
            run_share(0, 1)
        else:
            with ThreadPoolExecutor(shares - 1, thread_name_prefix=_POOL_NAME) as pool:
                others = [pool.submit(run_share, s, shares) for s in range(1, shares)]
                run_share(0, shares)
                for share in others:
                    share.result()
    return mean, log_var


def user_posterior(model: ModelParams, train: InteractionMatrix, side: SideInfo,
                   users) -> tuple[np.ndarray, np.ndarray]:
    return _posterior(model.inf_user, side.user_features, train.to_csr(),
                      model.use_user_prior, users, train.n_users, "user")


def item_posterior(model: ModelParams, train: InteractionMatrix, side: SideInfo,
                   items) -> tuple[np.ndarray, np.ndarray]:
    return _posterior(model.inf_item, side.item_features, train.to_csr_t(),
                      model.use_item_prior, items, train.n_items, "item")


def _prior_params(net, enabled: bool, latent_dim: int, feat_dim: int, features,
                  kind: str) -> tuple[np.ndarray, np.ndarray]:
    feats = sparse.csr_array(
        features if sparse.issparse(features) else np.atleast_2d(features)
    )
    if feats.shape[1] != feat_dim:
        raise ValueError(
            f"cold {kind} features have dim {feats.shape[1]}, expected {feat_dim}"
        )
    if not enabled:
        shape = (feats.shape[0], latent_dim)
        return np.zeros(shape), np.zeros(shape)
    return net.forward_values(feats)


def user_prior_params(model: ModelParams, features) -> tuple[np.ndarray, np.ndarray]:
    """Side-information prior of (cold) users, one row per feature row."""
    d = model.dims
    return _prior_params(model.prior_user, model.use_user_prior, d.latent_dim,
                         d.user_feat_dim, features, "user")


def item_prior_params(model: ModelParams, features) -> tuple[np.ndarray, np.ndarray]:
    """Side-information prior of (cold) items, one row per feature row."""
    d = model.dims
    return _prior_params(model.prior_item, model.use_item_prior, d.latent_dim,
                         d.item_feat_dim, features, "item")


def _item_half(seed: int, item_keys, v_means, v_lvs, rows, w_v, v, vw) -> np.ndarray:
    """Samples of the table rows `rows` and their half of the first layer.

    Writes the samples into the worker's buffer `v` and v W_v^T into `vw`,
    and returns the filled part of `vw` as (rows, S, width).
    """
    n, n_samples, d = len(rows), v.shape[1], v.shape[2]
    v = v[:n]
    for k, r in enumerate(rows):
        v[k] = _noise(seed, _ITEM_STREAM, item_keys[r], n_samples, d)
    _draw(v_means[rows, None], v_lvs[rows, None], v)
    vw = vw[:n * n_samples]
    np.matmul(v.reshape(-1, d), w_v, out=vw)
    return vw.reshape(n, n_samples, -1)


def score_cases(model: ModelParams, item_keys, v_means, v_lvs, u_means, u_lvs,
                user_keys, case_rows, n_samples: int, seed: int) -> list[np.ndarray]:
    """Scores of a block of cases against one shared item table.

    Row r of the table is the item Gaussian (`v_means[r]`, `v_lvs[r]`), whose
    noise is keyed by `item_keys[r]`. Case c is the user Gaussian
    (`u_means[c]`, `u_lvs[c]`) keyed by `user_keys[c]`, scored against the
    table rows `case_rows[c]`; its scores align with those rows. Sample s of
    the user is paired with sample s of each item.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    d = model.dims.latent_dim
    first = model.interact.layers_list[0]
    w_u, w_v = first.weight.value[:, :d].T, first.weight.value[:, d:].T
    width = first.out_dim
    lengths = np.array([len(rows) for rows in case_rows], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    scores = np.empty(offsets[-1])
    cases_per_block = max(1, CASE_ROWS // n_samples)
    items_per_block = max(1, ITEM_ROWS // n_samples)
    slots_per_block = max(1, SLOT_ROWS // n_samples)
    block_items = min(items_per_block, len(item_keys))
    workers = max(1, min(len(os.sched_getaffinity(0)),
                         -(-len(item_keys) // items_per_block)))
    buffers = [(np.empty((block_items, n_samples, d)),
                np.empty((block_items * n_samples, width))) for _ in range(workers)]
    with blas.single_thread(), ThreadPoolExecutor(
            workers, thread_name_prefix=_POOL_NAME) as pool:
        for c0 in range(0, len(case_rows), cases_per_block):
            c1 = min(c0 + cases_per_block, len(case_rows))
            slot_case = np.repeat(np.arange(c1 - c0), lengths[c0:c1])
            slot_row = np.concatenate(case_rows[c0:c1]).astype(np.int64, copy=False)
            # item-major: the slots of one item are contiguous in `order`
            order = np.argsort(slot_row, kind="stable")
            items, item_start, slot_item = np.unique(
                slot_row[order], return_index=True, return_inverse=True
            )
            item_start = np.append(item_start, len(order))
            slot_scores = scores[offsets[c0]:offsets[c1]]
            # user half of the first layer, bias included, one case at a time
            uw = np.empty((c1 - c0, n_samples, width))
            for c in range(c0, c1):
                u = _draw(u_means[c], u_lvs[c],
                          _noise(seed, _USER_STREAM, user_keys[c], n_samples, d))
                np.matmul(u, w_u, out=uw[c - c0])
                uw[c - c0] += first.bias.value

            def score_share(worker, v, vw):
                # item blocks worker, worker + workers, ...; their slots, and
                # so their positions in the scores, belong to no other worker
                step = workers * items_per_block
                for i0 in range(worker * items_per_block, len(items), step):
                    i1 = min(i0 + items_per_block, len(items))
                    item_vw = _item_half(seed, item_keys, v_means, v_lvs, items[i0:i1],
                                         w_v, v, vw)
                    for j0 in range(item_start[i0], item_start[i1], slots_per_block):
                        j1 = min(j0 + slots_per_block, item_start[i1])
                        slots = order[j0:j1]
                        h = uw[slot_case[slots]]
                        h += item_vw[slot_item[j0:j1] - i0]
                        np.maximum(h, 0.0, out=h)
                        # through the class: a tracer that wraps the instance
                        # attribute keeps one span stack for all threads
                        probs = SigmoidNet.forward_values(
                            model.interact, h.reshape(-1, width), start=1)
                        slot_scores[slots] = probs.reshape(j1 - j0, n_samples).mean(axis=1)

            shares = [pool.submit(score_share, w, *buffers[w]) for w in range(workers)]
            for share in shares:
                share.result()
    return [scores[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]


def score_candidates(model: ModelParams, candidates, u_mean, u_lv,
                     v_means, v_lvs, n_samples: int, seed: int,
                     user_key: int) -> np.ndarray:
    """Scores of one user against a candidate set: `score_cases` for one case.

    `v_means`/`v_lvs` are aligned with `candidates`, whose ids are also the
    item noise keys; `user_key` keys the user noise.
    """
    return score_cases(model, candidates, v_means, v_lvs, u_mean, u_lv, [user_key],
                       [np.arange(len(candidates))], n_samples, seed)[0]


def order_by_score(candidates, scores) -> list[tuple[int, float]]:
    """Descending score; ties broken by ascending item id."""
    candidates = np.asarray(candidates)
    scores = np.asarray(scores)
    order = np.lexsort((candidates, -scores))
    return [(int(candidates[i]), float(scores[i])) for i in order]


def rank(model: ModelParams, train: InteractionMatrix, side: SideInfo,
         user: int, candidates, n_samples: int = DEFAULT_SAMPLES,
         seed: int = 0) -> list[tuple[int, float]]:
    """Ordered (item, score) list for a user over a candidate set."""
    candidates = np.asarray(candidates, dtype=np.int64)
    if len(candidates) == 0:
        raise ValueError("rank: empty candidate list")
    with blas.single_thread():
        u_mean, u_lv = user_posterior(model, train, side, user)
        v_means, v_lvs = item_posterior(model, train, side, candidates)
        scores = score_candidates(
            model, candidates, u_mean, u_lv, v_means, v_lvs, n_samples, seed, user
        )
    return order_by_score(candidates, scores)


def rank_of_target(candidates, scores, target: int) -> int:
    """1-based rank of `target` under the descending-score ordering."""
    candidates = np.asarray(candidates)
    scores = np.asarray(scores)
    t = int(np.nonzero(candidates == target)[0][0])
    higher = int((scores > scores[t]).sum())
    tied_lower_id = int(((scores == scores[t]) & (candidates < target)).sum())
    return 1 + higher + tied_lower_id
