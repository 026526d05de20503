import os
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
