import os
import threading
from pathlib import Path

import numpy as np
import pytest

from cvrec import autodiff as ad
from cvrec import data as d
from cvrec import synthetic
from cvrec.train import TrainConfig, fit

# raw-dataset discovery: CVREC_DATA_DIR or ./data, expecting ml-100k/u.data etc.
DATA_DIR = Path(os.environ.get("CVREC_DATA_DIR", "data"))
ML100K_DIR = DATA_DIR / "ml-100k"
RUN_FULL = os.environ.get("CVREC_RUN_FULL", "") == "1"

needs_ml100k = pytest.mark.skipif(
    not (ML100K_DIR / "u.data").exists(),
    reason=f"MovieLens-100K not found at {ML100K_DIR} (set CVREC_DATA_DIR)",
)
needs_full_run = pytest.mark.skipif(
    not RUN_FULL, reason="multi-hour training run; set CVREC_RUN_FULL=1 to enable"
)


@pytest.fixture(autouse=True)
def scoring_leaves_no_trace():
    """Fail a test that leaves a pool thread of the package (every pool names
    its threads `cvrec-...`) alive or graph recording off."""
    yield
    alive = [t.name for t in threading.enumerate() if t.name.startswith("cvrec-")]
    assert not alive, f"cvrec threads still alive: {alive}"
    x = ad.parameter([[1.0]])
    assert ad.scale(x, 1.0).parents == (x,), "graph recording left off"


_FD_EPS = 1e-8  # denominator guard in relative errors


def finite_diff_check(f, params, h: float = 1e-5) -> float:
    """Compare analytic gradients of the scalar f() against central differences.

    Returns max over every parameter entry of |analytic - numeric| /
    (|numeric| + 1e-8). f must be deterministic (freeze any noise).
    """
    ad.zero_grads(params)
    ad.backward(f())
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.value) for p in params
    ]
    worst = 0.0
    for p, a in zip(params, analytic):
        # index 2-D directly: parameter arrays may be C- or F-ordered
        for idx in np.ndindex(p.value.shape):
            orig = p.value[idx]
            p.value[idx] = orig + h
            up = f().item()
            p.value[idx] = orig - h
            down = f().item()
            p.value[idx] = orig
            numeric = (up - down) / (2.0 * h)
            worst = max(worst, abs(a[idx] - numeric) / (abs(numeric) + _FD_EPS))
    ad.zero_grads(params)
    return worst


def structural_negatives(dataset: d.Dataset, n_blocks: int = 2,
                         max_pairs: int = 200, seed: int = 0):
    """Cross-block (user, item) pairs that were never observed."""
    inter = dataset.interactions
    rng = np.random.default_rng(seed)
    users, items = [], []
    for u in range(inter.n_users):
        for j in range(inter.n_items):
            if u % n_blocks != j % n_blocks and not inter.has(u, j):
                users.append(u)
                items.append(j)
    users, items = np.asarray(users), np.asarray(items)
    if len(users) > max_pairs:
        pick = rng.choice(len(users), size=max_pairs, replace=False)
        users, items = users[pick], items[pick]
    return users, items


def small_config(**overrides) -> TrainConfig:
    """Training config sized for the synthetic block instances."""
    base = dict(
        batch_positives=16,
        neg_ratio=3,
        learning_rate=3e-3,
        max_epochs=40,
        patience=40,
        seed=11,
        latent_dim=8,
        prior_hidden=16,
        inference_hidden=(32, 16),
        decoder_hidden=(16, 32),
        val_users=0,
        val_samples=16,
    )
    base.update(overrides)
    return TrainConfig(**base)


ML1M_MOVIES = {
    1: ("Toy Story (1995)", "Animation|Children's|Comedy"),
    2: ("Jumanji (1995)", "Adventure|Children's|Fantasy"),
    3: ("Heat (1995)", "Action|Crime|Thriller"),
    5: ("Sabrina (1995)", "Comedy|Romance"),
    7: ("Casino (1995)", "Crime|Drama"),
}


@pytest.fixture
def ml1m_dir(tmp_path):
    """A miniature MovieLens-1M directory: 4 users, 5 movies, '::' rows."""
    d = tmp_path / "ml-1m"
    d.mkdir()
    ratings = [(1, 1, 5), (1, 2, 4), (1, 3, 2), (2, 1, 4), (2, 5, 5), (2, 7, 4),
               (3, 3, 4), (3, 5, 4), (3, 7, 1), (4, 2, 5), (4, 3, 4), (4, 7, 4)]
    (d / "ratings.dat").write_text("".join(
        f"{u}::{i}::{r}::{978300000 + k}\n" for k, (u, i, r) in enumerate(ratings)))
    (d / "users.dat").write_text(
        "1::F::1::10::48067\n2::M::56::16::70072\n3::M::25::15::55117\n4::M::45::7::02460\n")
    (d / "movies.dat").write_text("".join(
        f"{i}::{title}::{genres}\n" for i, (title, genres) in ML1M_MOVIES.items()))
    return d


@pytest.fixture
def lastfm_dir(tmp_path):
    """A miniature Lastfm-2K directory: 4 users, 5 artists, hetrec header rows.

    User 9 and artist 99 appear only in the side files, never in the feedback.
    """
    d = tmp_path / "lastfm-2k"
    d.mkdir()
    listens = [(2, 51, 13883), (2, 52, 11690), (3, 51, 5), (3, 53, 300),
               (4, 52, 7), (4, 54, 1200), (5, 53, 41), (5, 55, 2)]
    (d / "user_artists.dat").write_text("userID\tartistID\tweight\n" + "".join(
        f"{u}\t{a}\t{w}\n" for u, a, w in listens))
    friends = [(2, 3), (3, 2), (2, 9), (9, 2), (4, 5), (5, 4)]
    (d / "user_friends.dat").write_text("userID\tfriendID\n" + "".join(
        f"{u}\t{v}\n" for u, v in friends))
    tags = [(2, 51, 7), (3, 51, 7), (2, 51, 12), (3, 53, 7), (4, 99, 7)]
    (d / "user_taggedartists.dat").write_text(
        "userID\tartistID\ttagID\tday\tmonth\tyear\n"
        + "".join(f"{u}\t{a}\t{t}\t1\t5\t2008\n" for u, a, t in tags))
    return d


@pytest.fixture(scope="session")
def block_data():
    return synthetic.block_dataset(seed=5, density=1.0, noise=0.0)


@pytest.fixture(scope="session")
def trained_block(block_data):
    """A model overfit to the clean synthetic blocks; shared across modules."""
    result = fit(block_data, small_config(max_epochs=120))
    return block_data, result


@pytest.fixture(scope="session")
def ml100k_dataset():
    if not (ML100K_DIR / "u.data").exists():
        pytest.skip(f"MovieLens-100K not found at {ML100K_DIR} (set CVREC_DATA_DIR)")
    return d.prepare_dataset("ml-100k", ML100K_DIR, seed=7)
