"""Monte Carlo predictive scoring, one path for warm and cold entities.

A score is a predicted interaction probability: the mean over S paired
samples of the interaction net's output. `score_candidates` is the only
function that draws samples and runs the interaction net. It takes one
user Gaussian and one Gaussian per candidate item, wherever they came
from: a warm entity's comes from its posterior (`user_posterior`,
`item_posterior`), and a cold entity, which has no feedback history,
takes its side-information prior (`user_prior_params`,
`item_prior_params`), or N(0, I) when that prior is disabled.

Noise streams are keyed by (seed, side, entity id): the user key and the
candidate ids. That makes every score deterministic for a fixed seed and
independent of evaluation order or batching.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .data import InteractionMatrix, SideInfo
from .model import ModelParams, inference_input

DEFAULT_SAMPLES = 128

_USER_STREAM = 0xA5
_ITEM_STREAM = 0x5A


def _noise(seed: int, stream: int, key: int, n: int, dim: int) -> np.ndarray:
    # SeedSequence wants non-negative entropy; a negative key wraps
    # deterministically
    rng = np.random.default_rng((seed, stream, int(key) % (2**63)))
    return rng.standard_normal((n, dim))


def _draw(mean: np.ndarray, log_var: np.ndarray, eps: np.ndarray) -> np.ndarray:
    return mean + np.exp(0.5 * log_var) * eps


def _check_ids(ids: np.ndarray, n: int, kind: str) -> None:
    bad = ids[(ids < 0) | (ids >= n)]
    if len(bad):
        raise IndexError(f"{kind} id {int(bad[0])} out of range [0, {n})")


def user_posterior(model: ModelParams, train: InteractionMatrix, side: SideInfo,
                   users) -> tuple[np.ndarray, np.ndarray]:
    users = np.atleast_1d(np.asarray(users, dtype=np.int64))
    _check_ids(users, train.n_users, "user")
    x = inference_input(
        side.user_features[users], train.to_csr()[users], model.use_user_prior
    )
    return model.inf_user.forward_values(x)


def item_posterior(model: ModelParams, train: InteractionMatrix, side: SideInfo,
                   items) -> tuple[np.ndarray, np.ndarray]:
    items = np.atleast_1d(np.asarray(items, dtype=np.int64))
    _check_ids(items, train.n_items, "item")
    x = inference_input(
        side.item_features[items], train.to_csr_t()[items], model.use_item_prior
    )
    return model.inf_item.forward_values(x)


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


def score_candidates(model: ModelParams, candidates, u_mean, u_lv,
                     v_means, v_lvs, n_samples: int, seed: int,
                     user_key: int) -> np.ndarray:
    """Scores of one user against a candidate set.

    `v_means`/`v_lvs` are aligned with `candidates`, whose ids are also the
    item noise keys; `user_key` keys the user noise. Sample s of the user
    is paired with sample s of each candidate.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    d = model.dims.latent_dim
    n_cand = len(candidates)
    u = _draw(u_mean, u_lv, _noise(seed, _USER_STREAM, user_key, n_samples, d))
    v_all = np.empty((n_cand, n_samples, d))
    for c, item in enumerate(candidates):
        v_all[c] = _draw(v_means[[c]], v_lvs[[c]],
                         _noise(seed, _ITEM_STREAM, int(item), n_samples, d))
    pairs = np.hstack([np.tile(u, (n_cand, 1)), v_all.reshape(n_cand * n_samples, d)])
    probs = model.interact.forward_values(pairs)[:, 0].reshape(n_cand, n_samples)
    return probs.mean(axis=1)


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
