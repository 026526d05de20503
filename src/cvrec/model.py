"""Networks, variational distributions, and the training objective terms.

Seven small MLPs make up the model: two side-information prior networks
(one hidden layer each), two inference networks over concatenated side
info + feedback row (two hidden layers), two row/column decoders (two
hidden layers, sigmoid output), and one interaction net scoring a
(user, item) latent pair. The sigmoid networks' graph `forward` stops at the
logits, which the loss consumes directly; `forward_values` applies the
sigmoid and returns probabilities. Latent factors are never stored: they exist
only as reparameterized samples from diagonal Gaussians.

Disabling a side's prior (the nvh-n / nvh-u / nvh-i variants) replaces
that prior with N(0, I) *and* blanks the side-info block at the same
side's inference input, so the variant uses no side information on that
side at all; dims and checkpoint shapes are unchanged.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import sparse

from . import autodiff as ad
from .autodiff import LayerParams, Node
from .data import DataError, open_archive

LOG_VAR_CLAMP = 15.0
# Bernoulli probabilities are kept within [PROB_EPS, 1 - PROB_EPS]; the loss
# clamps logits to the matching +-LOGIT_CLAMP (about 16.1)
PROB_EPS = 1e-7
LOGIT_CLAMP = float(np.log((1.0 - PROB_EPS) / PROB_EPS))

CHECKPOINT_MAGIC = "cvrec-checkpoint"
CHECKPOINT_VERSION = 1

# variant name -> (use_user_prior, use_item_prior); nvh-u keeps the user
# prior only, nvh-i the item prior only, nvh-n neither.
VARIANT_FLAGS = {
    "nvh": (True, True),
    "nvh-n": (False, False),
    "nvh-u": (True, False),
    "nvh-i": (False, True),
}
VARIANT_FLAGS_INVERSE = {flags: name for name, flags in VARIANT_FLAGS.items()}


@dataclass
class DiagGaussian:
    """A batch of diagonal Gaussians; mean and log-variance are B x D nodes."""

    mean: Node
    log_var: Node

    @classmethod
    def standard(cls, batch: int, dim: int) -> "DiagGaussian":
        return cls(
            ad.constant(np.zeros((batch, dim))), ad.constant(np.zeros((batch, dim)))
        )

    def values(self) -> tuple[np.ndarray, np.ndarray]:
        return self.mean.value, self.log_var.value

    def repeat(self, k: int) -> "DiagGaussian":
        return DiagGaussian(ad.repeat_rows(self.mean, k), ad.repeat_rows(self.log_var, k))


class GaussianNet:
    """ReLU trunk with mean and log-variance heads (log-variance clamped)."""

    def __init__(self, in_dim: int, hidden: tuple[int, ...], latent_dim: int,
                 new_layer):
        dims = (in_dim, *hidden)
        # the first trunk layer consumes sparse feature/feedback rows
        self.trunk = [
            new_layer(f"trunk{i}", dims[i], dims[i + 1], sparse_input=(i == 0))
            for i in range(len(hidden))
        ]
        self.mean_head = new_layer("mean", dims[-1], latent_dim)
        # start with small variances: exp(-1) ~ 0.37
        self.log_var_head = new_layer("log_var", dims[-1], latent_dim, bias_init=-1.0)

    @property
    def in_dim(self) -> int:
        return self.trunk[0].in_dim

    def forward(self, x) -> DiagGaussian:
        h = x
        for layer in self.trunk:
            h = ad.relu(ad.affine(h, layer))
        mean = ad.affine(h, self.mean_head)
        log_var = ad.clip(ad.affine(h, self.log_var_head), -LOG_VAR_CLAMP, LOG_VAR_CLAMP)
        return DiagGaussian(mean, log_var)

    def forward_values(self, x) -> tuple[np.ndarray, np.ndarray]:
        """`forward` without graph recording; returns (mean, log_var) arrays."""
        with ad.no_grad():
            return GaussianNet.forward(self, x).values()

    def layers(self) -> dict[str, LayerParams]:
        named = {f"trunk{i}": l for i, l in enumerate(self.trunk)}
        named["mean"] = self.mean_head
        named["log_var"] = self.log_var_head
        return named


class SigmoidNet:
    """ReLU trunk with a sigmoid output layer (decoders, interaction net).

    `forward` returns the logits node, on which `bernoulli_loglik` works;
    `forward_values` returns the probabilities.
    """

    def __init__(self, in_dim: int, hidden: tuple[int, ...], out_dim: int,
                 new_layer):
        dims = (in_dim, *hidden, out_dim)
        self.layers_list = [
            new_layer(f"layer{i}", dims[i], dims[i + 1]) for i in range(len(dims) - 1)
        ]

    @property
    def in_dim(self) -> int:
        return self.layers_list[0].in_dim

    def forward(self, x, start: int = 0) -> Node:
        """Logits for input x; with `start`, x is the activation entering
        layer `start` and the layers before it are skipped."""
        h = x
        for layer in self.layers_list[start:-1]:
            h = ad.relu(ad.affine(h, layer))
        return ad.affine(h, self.layers_list[-1])

    def forward_values(self, x, start: int = 0) -> np.ndarray:
        """Sigmoid of `forward`, without graph recording, as an array."""
        with ad.no_grad():
            return ad.sigmoid(SigmoidNet.forward(self, x, start)).value

    def layers(self) -> dict[str, LayerParams]:
        return {f"layer{i}": l for i, l in enumerate(self.layers_list)}


@dataclass
class ModelDims:
    n_users: int
    n_items: int
    user_feat_dim: int
    item_feat_dim: int
    latent_dim: int
    prior_hidden: int = 200
    inference_hidden: tuple[int, ...] = (600, 200)
    decoder_hidden: tuple[int, ...] = (200, 600)

    def __post_init__(self):
        self.inference_hidden = tuple(self.inference_hidden)
        self.decoder_hidden = tuple(self.decoder_hidden)

    def interaction_hidden(self) -> tuple[int, int]:
        return (self.latent_dim, max(self.latent_dim // 2, 1))


@dataclass
class ModelParams:
    """All seven networks plus dims and variant flags."""

    dims: ModelDims
    prior_user: GaussianNet
    prior_item: GaussianNet
    inf_user: GaussianNet
    inf_item: GaussianNet
    dec_user: SigmoidNet
    dec_item: SigmoidNet
    interact: SigmoidNet
    use_user_prior: bool = True
    use_item_prior: bool = True

    def networks(self) -> dict[str, object]:
        return {
            "prior_user": self.prior_user,
            "prior_item": self.prior_item,
            "inf_user": self.inf_user,
            "inf_item": self.inf_item,
            "dec_user": self.dec_user,
            "dec_item": self.dec_item,
            "interact": self.interact,
        }

    def named_parameters(self) -> dict[str, Node]:
        named = {}
        for net_name, net in self.networks().items():
            for layer_name, layer in net.layers().items():
                named[f"{net_name}.{layer_name}.weight"] = layer.weight
                named[f"{net_name}.{layer_name}.bias"] = layer.bias
        return named

    def parameters(self) -> list[Node]:
        return list(self.named_parameters().values())

    @property
    def variant(self) -> str:
        return VARIANT_FLAGS_INVERSE[(self.use_user_prior, self.use_item_prior)]


def build_model(dims: ModelDims, rng: np.random.Generator | None,
                use_user_prior: bool = True, use_item_prior: bool = True,
                arrays=None) -> ModelParams:
    """The seven networks for `dims`, their weights drawn from `rng`.

    With `arrays`, a mapping from the names `named_parameters` gives to
    arrays, each layer holds its stored weight and bias instead (shapes
    checked) and nothing is drawn, so `rng` may be None.
    """
    d = dims

    def layers(net: str):
        def new_layer(name, in_dim, out_dim, bias_init=0.0, sparse_input=False):
            if arrays is None:
                return LayerParams.init(in_dim, out_dim, rng, bias_init, sparse_input)
            key = f"{net}.{name}"
            return LayerParams.stored(key, arrays[f"{key}.weight"], arrays[f"{key}.bias"],
                                      in_dim, out_dim, sparse_input)
        return new_layer

    return ModelParams(
        dims=d,
        prior_user=GaussianNet(d.user_feat_dim, (d.prior_hidden,), d.latent_dim,
                               layers("prior_user")),
        prior_item=GaussianNet(d.item_feat_dim, (d.prior_hidden,), d.latent_dim,
                               layers("prior_item")),
        inf_user=GaussianNet(d.user_feat_dim + d.n_items, d.inference_hidden,
                             d.latent_dim, layers("inf_user")),
        inf_item=GaussianNet(d.item_feat_dim + d.n_users, d.inference_hidden,
                             d.latent_dim, layers("inf_item")),
        dec_user=SigmoidNet(d.latent_dim, d.decoder_hidden, d.n_items, layers("dec_user")),
        dec_item=SigmoidNet(d.latent_dim, d.decoder_hidden, d.n_users, layers("dec_item")),
        interact=SigmoidNet(2 * d.latent_dim, d.interaction_hidden(), 1,
                            layers("interact")),
        use_user_prior=use_user_prior,
        use_item_prior=use_item_prior,
    )


# ---------------------------------------------------------------------------
# distribution plumbing


def prior(net: GaussianNet, features, enabled: bool = True) -> DiagGaussian:
    """Side-info-conditioned prior, or N(0, I) when the side is disabled."""
    batch = features.shape[0]
    if not enabled:
        return DiagGaussian.standard(batch, net.mean_head.out_dim)
    if features.shape[1] != net.in_dim:
        raise ValueError(
            f"prior: features have dim {features.shape[1]}, network expects {net.in_dim}"
        )
    return net.forward(features)


def _as_2d(x):
    if sparse.issparse(x) or isinstance(x, Node):
        return x
    return np.atleast_2d(np.asarray(x, dtype=np.float64))


def _blank_features(features, enabled: bool):
    if enabled:
        return features
    if sparse.issparse(features):
        return sparse.csr_array(features.shape)
    return np.zeros_like(features)


def inference_input(features, collab_rows, enabled: bool = True):
    """Concatenated inference-net input; side info blanked for disabled sides."""
    return sparse.hstack(
        [sparse.csr_array(_blank_features(features, enabled)), sparse.csr_array(collab_rows)],
        format="csr",
    )


def infer(net: GaussianNet, features, collab_row, enabled: bool = True) -> DiagGaussian:
    """Approximate posterior from side info and the entity's feedback vector."""
    x = inference_input(_as_2d(features), _as_2d(collab_row), enabled)
    if x.shape[1] != net.in_dim:
        raise ValueError(
            f"infer: input dim {x.shape[1]} does not match network input {net.in_dim}"
        )
    return net.forward(x)


def reparameterize(g: DiagGaussian, eps) -> Node:
    """Draw mean + exp(log_var / 2) * eps; eps are standard-normal constants."""
    eps = np.atleast_2d(np.asarray(eps, dtype=np.float64))
    if eps.shape != g.mean.value.shape:
        raise ValueError(f"reparameterize: eps shape {eps.shape} vs mean {g.mean.value.shape}")
    std = ad.exp(ad.scale(g.log_var, 0.5))
    return ad.add(g.mean, ad.mul(std, ad.constant(eps)))


def kl_diag(q: DiagGaussian, p: DiagGaussian) -> Node:
    """KL(q || p) for diagonal Gaussians, summed over the batch and dims.

    0.5 * sum[ log(var_p / var_q) + (var_q + (mu_q - mu_p)^2) / var_p - 1 ]
    """
    if q.mean.value.shape != p.mean.value.shape:
        raise ValueError(
            f"kl_diag: shape mismatch {q.mean.value.shape} vs {p.mean.value.shape}"
        )
    diff = ad.sub(q.mean, p.mean)
    ratio = ad.mul(
        ad.add(ad.exp(q.log_var), ad.mul(diff, diff)), ad.exp(ad.scale(p.log_var, -1.0))
    )
    per_dim = ad.add_scalar(ad.add(ad.sub(p.log_var, q.log_var), ratio), -1.0)
    return ad.scale(ad.sum_all(per_dim), 0.5)


def bernoulli_loglik(targets, logits: Node) -> Node:
    """sum targets*log(p) + (1-targets)*log(1-p) with p = sigmoid(logits).

    Computed in logit space as one node (`autodiff.sigmoid_loglik`), as
    Mult-VAE does (Liang et al., arXiv 1802.05814). Logits are clamped to
    +-LOGIT_CLAMP, which keeps p within [PROB_EPS, 1 - PROB_EPS]; beyond the
    clamp the gradient is zero.
    """
    t = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if t.shape != logits.value.shape:
        raise ValueError(
            f"bernoulli_loglik: targets {t.shape} vs logits {logits.value.shape}"
        )
    return ad.sigmoid_loglik(logits, t, LOGIT_CLAMP)


# ---------------------------------------------------------------------------
# objective


@dataclass
class PairBatch:
    """Inputs for a batch of (user, item, label) training pairs.

    Feature blocks and feedback rows are aligned per pair (duplicates appear
    once per occurrence); targets are dense copies of the feedback rows.
    """

    users: np.ndarray
    items: np.ndarray
    labels: np.ndarray          # E x 1
    user_feats: object          # E x P (csr or dense)
    item_feats: object          # E x Q
    user_rows: object           # E x N feedback rows (inference input)
    item_cols: object           # E x M feedback columns
    user_targets: np.ndarray    # E x N dense
    item_targets: np.ndarray    # E x M dense
    eps_user: np.ndarray        # (E*K) x D
    eps_item: np.ndarray

    @property
    def size(self) -> int:
        return len(self.users)

    @property
    def k(self) -> int:
        return self.eps_user.shape[0] // self.size


def batch_objective(model: ModelParams, batch: PairBatch) -> Node:
    """Mean over pairs of the negated per-pair bound (the minimization loss).

    Each pair contributes its user row term, its item column term, the
    interaction term, and both KL penalties; reconstruction terms average
    over the K samples per pair, the KLs do not depend on the sample.
    """
    if batch.size == 0:
        raise ValueError("batch_objective: empty batch")
    k = batch.k

    q_u = infer(model.inf_user, batch.user_feats, batch.user_rows, model.use_user_prior)
    q_v = infer(model.inf_item, batch.item_feats, batch.item_cols, model.use_item_prior)
    p_u = prior(model.prior_user, batch.user_feats, model.use_user_prior)
    p_v = prior(model.prior_item, batch.item_feats, model.use_item_prior)

    u = reparameterize(q_u.repeat(k), batch.eps_user)
    v = reparameterize(q_v.repeat(k), batch.eps_item)

    ll_rows = bernoulli_loglik(
        np.repeat(batch.user_targets, k, axis=0), model.dec_user.forward(u)
    )
    ll_cols = bernoulli_loglik(
        np.repeat(batch.item_targets, k, axis=0), model.dec_item.forward(v)
    )
    ll_pair = bernoulli_loglik(
        np.repeat(batch.labels, k, axis=0), model.interact.forward(ad.concat_cols([u, v]))
    )

    kl_u = kl_diag(q_u, p_u)
    kl_v = kl_diag(q_v, p_v)

    recon = ad.scale(ad.add(ad.add(ll_rows, ll_cols), ll_pair), 1.0 / k)
    return ad.scale(ad.sub(ad.add(kl_u, kl_v), recon), 1.0 / batch.size)


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(model: ModelParams, path, seed: int = 0, step: int = 0,
                    extra: dict | None = None) -> None:
    meta = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "dims": asdict(model.dims),
        "use_user_prior": model.use_user_prior,
        "use_item_prior": model.use_item_prior,
        "seed": seed,
        "step": step,
    }
    if extra:
        meta["extra"] = extra
    arrays = {name: node.value for name, node in model.named_parameters().items()}
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **arrays)


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    with open_archive(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                      "model checkpoint") as (meta, data):
        try:
            dims = ModelDims(**meta["dims"])
        except TypeError as exc:  # a missing or unknown key
            raise DataError(f"{path}: malformed model checkpoint: {exc}") from exc
        try:
            model = build_model(dims, None, use_user_prior=meta["use_user_prior"],
                                use_item_prior=meta["use_item_prior"], arrays=data)
        except ValueError as exc:
            raise DataError(f"{path}: malformed model checkpoint: {exc}") from exc
    return model, meta
