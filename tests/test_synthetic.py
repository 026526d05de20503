import numpy as np
import pytest

from cvrec import synthetic


def one_grid_draw(n_users, n_items, n_blocks, density, noise, seed):
    """The block grid drawn in one piece, and the generator after it."""
    rng = np.random.default_rng(seed)
    match = ((np.arange(n_users) % n_blocks)[:, None]
             == (np.arange(n_items) % n_blocks)[None, :])
    grid = rng.random((n_users, n_items)) < np.where(match, density, noise)
    return grid, rng


class TestBlockDataset:
    # band sizes in cells: one row per band, bands that do not divide the
    # user count, and the whole grid in one band
    @pytest.mark.parametrize("band", [1, 37, 200, 1 << 18])
    @pytest.mark.parametrize("n_users,n_items", [(23, 17), (5, 3), (0, 5), (7, 0)])
    def test_banded_draw_matches_one_grid(self, monkeypatch, band, n_users, n_items):
        monkeypatch.setattr(synthetic, "_GRID_BAND", band)
        n_blocks, feat_dim = 3, 6
        ds = synthetic.block_dataset(n_users, n_items, n_blocks=n_blocks, density=0.6,
                                     noise=0.1, feat_dim=feat_dim, seed=4, n_negatives=2)
        grid, rng = one_grid_draw(n_users, n_items, n_blocks, 0.6, 0.1, seed=4)
        users, items = ds.interactions.pairs()
        np.testing.assert_array_equal(users, np.nonzero(grid)[0])
        np.testing.assert_array_equal(items, np.nonzero(grid)[1])
        np.testing.assert_array_equal(ds.interactions.timestamps, np.arange(grid.sum()))
        # the side-info noise comes next off the same stream
        np.testing.assert_array_equal(
            ds.side.user_features.toarray()[:, n_blocks:],
            rng.random((n_users, feat_dim - n_blocks)),
        )
