"""Synthetic block-structured datasets for oracles and smoke experiments.

Users and items fall into latent groups; a user interacts (almost) only
with items of the matching group, and the side-information vectors encode
the group with some distractor noise. A model that learns anything useful
must push training positives toward 1 and cross-block pairs toward 0.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .data import Dataset, InteractionMatrix, SideInfo, leave_one_out_split

# Grid cells drawn at once by `block_dataset`
_GRID_BAND = 1 << 18


def block_dataset(n_users: int = 20, n_items: int = 30, n_blocks: int = 2,
                  density: float = 0.9, noise: float = 0.02, feat_dim: int = 6,
                  seed: int = 0, n_negatives: int = 20) -> Dataset:
    """Block-diagonal feedback with group-coded side info.

    `density` is the positive rate inside a matching block, `noise` the rate
    outside it. Side-info rows are a one-hot group code plus uniform noise
    columns, so priors can actually learn the block from features.
    """
    rng = np.random.default_rng(seed)
    user_group = np.arange(n_users) % n_blocks
    item_group = np.arange(n_items) % n_blocks
    # The grid is drawn a band of user rows at a time: the draws come off the
    # stream in the same row-major order as one (n_users, n_items) draw, so
    # the pairs are the same, but the float temporaries stay a few MB instead
    # of two full grids (360 MB at 6040 x 3706).
    rows = max(1, _GRID_BAND // max(n_items, 1))
    users, items = [], []
    for lo in range(0, n_users, rows):
        match = user_group[lo:lo + rows, None] == item_group[None, :]
        hit = rng.random(match.shape) < np.where(match, density, noise)
        band_users, band_items = np.nonzero(hit)
        users.append(band_users + lo)
        items.append(band_items)
    users = np.concatenate(users) if users else np.zeros(0, dtype=np.intp)
    items = np.concatenate(items) if items else np.zeros(0, dtype=np.intp)
    # timestamps in raster order so leave-one-out picks each user's last item
    ts = np.arange(len(users))
    interactions = InteractionMatrix.from_pairs(n_users, n_items, users, items, ts)

    def features(groups, dim):
        one_hot = np.eye(n_blocks)[groups]
        distract = rng.random((len(groups), max(dim - n_blocks, 0)))
        return sparse.csr_array(np.hstack([one_hot, distract]))

    side = SideInfo(features(user_group, feat_dim), features(item_group, feat_dim))
    train, cases = leave_one_out_split(interactions, n_negatives=n_negatives, seed=seed)
    return Dataset("synthetic-blocks", interactions, train, cases, side, seed)
