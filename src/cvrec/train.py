"""Optimizer and training loop for the minibatch bound estimator.

One iteration samples a fresh pair minibatch (positives plus neg_ratio
negatives), builds the batched objective, backpropagates, clips the global
gradient norm, and applies a bias-corrected adaptive-moment update. An
epoch is ceil(n_positives / batch_positives) iterations; validation HR@5
on a subsample of the eval cases drives early stopping.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import evaluate as ev
from . import model as mdl
from .data import Dataset, EvalCase, InteractionMatrix, SideInfo, sample_minibatch

log = logging.getLogger(__name__)

class TrainingDiverged(RuntimeError):
    """Raised on non-finite loss; carries the last finite parameters."""

    def __init__(self, step: int, epoch: int, detail: str, model=None):
        super().__init__(
            f"training diverged at step {step} (epoch {epoch}): {detail}"
        )
        self.step = step
        self.epoch = epoch
        self.last_model = model


@dataclass
class TrainConfig:
    """Hyper-parameters; defaults follow the reference setup (D=128,
    neg_ratio=5, total minibatch 21 * (1 + 5) = 126 ~ 128 pairs)."""

    batch_positives: int = 21
    neg_ratio: int = 5
    learning_rate: float = 1e-3
    max_epochs: int = 300
    patience: int = 10
    seed: int = 7
    latent_dim: int = 128
    mc_samples: int = 1          # K
    use_user_prior: bool = True
    use_item_prior: bool = True
    grad_clip: float = 5.0
    prior_hidden: int = 200
    inference_hidden: tuple[int, ...] = (600, 200)
    decoder_hidden: tuple[int, ...] = (200, 600)
    val_users: int = 500
    val_samples: int = 32

    def __post_init__(self):
        if self.batch_positives < 1:
            raise ValueError("batch_positives must be >= 1")
        if self.neg_ratio < 0:
            raise ValueError("neg_ratio must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        for name in ("latent_dim", "mc_samples", "val_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        self.inference_hidden = tuple(self.inference_hidden)
        self.decoder_hidden = tuple(self.decoder_hidden)

    @property
    def variant(self) -> str:
        return mdl.VARIANT_FLAGS_INVERSE[(self.use_user_prior, self.use_item_prior)]

    def to_json(self) -> str:
        out = dataclasses.asdict(self)
        out["inference_hidden"] = list(self.inference_hidden)
        out["decoder_hidden"] = list(self.decoder_hidden)
        return json.dumps(out, indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        """Build from a possibly-partial config dict; missing keys fall back
        to their defaults (logged). Accepts `batch_size` (total pairs per
        minibatch) as an alternative to `batch_positives`."""
        raw = dict(raw)
        if "batch_size" in raw and "batch_positives" not in raw:
            neg = int(raw.get("neg_ratio", cls.neg_ratio))
            raw["batch_positives"] = max(1, round(raw.pop("batch_size") / (1 + neg)))
        else:
            raw.pop("batch_size", None)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            log.warning("ignoring unknown config keys: %s", ", ".join(unknown))
        kwargs = {k: v for k, v in raw.items() if k in known}
        for f in dataclasses.fields(cls):
            if f.name not in kwargs:
                log.info("config key %s missing; using default %r", f.name,
                         getattr(cls, f.name, f.default))
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def fingerprint(self, data_meta: dict | None = None) -> str:
        import hashlib

        payload = self.to_json() + json.dumps(data_meta or {}, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    _scratch: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(named_params: dict[str, ad.Node], state: AdamState, lr: float) -> None:
    """Bias-corrected adaptive-moment update, in place; missing gradients
    (parameters off the current graph) are treated as zero and skipped.

    Equivalent to the textbook m-hat/v-hat form, with the corrections folded
    into the step size and written through scratch buffers: several million
    parameters are touched per step, so temporaries dominate otherwise.
    """
    state.step += 1
    t = state.step
    correction2 = np.sqrt(1 - state.beta2 ** t)
    step_size = lr * correction2 / (1 - state.beta1 ** t)
    denom_eps = state.eps * correction2
    for name, p in named_params.items():
        g = p.grad
        if g is None:
            continue
        if g.shape != p.value.shape:
            raise ValueError(f"adam_step: gradient shape {g.shape} vs value "
                             f"{p.value.shape} for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.value)
            state.v[name] = np.zeros_like(p.value)
            state._scratch[name] = np.empty_like(p.value)
        m = state.m[name]
        v = state.v[name]
        s = state._scratch[name]
        np.multiply(g, g, out=s)
        s *= 1 - state.beta2
        v *= state.beta2
        v += s
        np.multiply(g, 1 - state.beta1, out=s)
        m *= state.beta1
        m += s
        np.sqrt(v, out=s)
        s += denom_eps
        np.divide(m, s, out=s)
        s *= step_size
        p.value -= s


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    grads = [p.grad for p in params if p.grad is not None]
    for g in grads:
        flat = g.reshape(-1)
        total += float(np.dot(flat, flat))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for g in grads:
            g *= factor
    return norm


def assemble_batch(train: InteractionMatrix, side: SideInfo, users, items, labels,
                   rng: np.random.Generator, k: int = 1,
                   eps_user=None, eps_item=None,
                   latent_dim: int | None = None) -> mdl.PairBatch:
    """Materialize rows/features for sampled pairs and draw the pairing noise."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    csr = train.to_csr()
    csc_t = train.to_csr_t()
    user_rows = csr[users]
    item_cols = csc_t[items]
    if eps_user is None:
        eps_user = rng.standard_normal((len(users) * k, latent_dim))
    if eps_item is None:
        eps_item = rng.standard_normal((len(items) * k, latent_dim))
    return mdl.PairBatch(
        users=users,
        items=items,
        labels=np.asarray(labels, dtype=np.float64).reshape(-1, 1),
        user_feats=side.user_features[users],
        item_feats=side.item_features[items],
        user_rows=user_rows,
        item_cols=item_cols,
        user_targets=user_rows.toarray(),
        item_targets=item_cols.toarray(),
        eps_user=np.asarray(eps_user, dtype=np.float64),
        eps_item=np.asarray(eps_item, dtype=np.float64),
    )


@dataclass
class FitResult:
    model: mdl.ModelParams
    history: list[dict]
    best_epoch: int
    best_val_hr: float
    steps: int
    config: TrainConfig


def _snapshot(model: mdl.ModelParams) -> dict[str, np.ndarray]:
    return {k: v.value.copy(order="K") for k, v in model.named_parameters().items()}


def _restore(model: mdl.ModelParams, snap: dict[str, np.ndarray]) -> None:
    """Make the snapshot's arrays the parameter values, without copying:
    every caller ends `fit` right after, so the snapshot is not reused."""
    for k, v in model.named_parameters().items():
        v.value = snap[k]


def fit(dataset: Dataset, config: TrainConfig,
        model: mdl.ModelParams | None = None,
        eval_cases: list[EvalCase] | None = None,
        train_matrix: InteractionMatrix | None = None,
        history_path=None) -> FitResult:
    """Train on the dataset's training split until patience runs out.

    Returns the parameters of the best-validation epoch. Raises
    TrainingDiverged (after restoring the last finite parameters) if the
    loss stops being finite.
    """
    train = train_matrix if train_matrix is not None else dataset.train
    cases = eval_cases if eval_cases is not None else dataset.eval_cases
    root = np.random.SeedSequence(config.seed)
    init_ss, sample_ss, noise_ss, val_ss = root.spawn(4)

    if model is None:
        dims = mdl.ModelDims(
            n_users=train.n_users,
            n_items=train.n_items,
            user_feat_dim=dataset.side.user_dim,
            item_feat_dim=dataset.side.item_dim,
            latent_dim=config.latent_dim,
            prior_hidden=config.prior_hidden,
            inference_hidden=config.inference_hidden,
            decoder_hidden=config.decoder_hidden,
        )
        model = mdl.build_model(
            dims, np.random.default_rng(init_ss),
            use_user_prior=config.use_user_prior,
            use_item_prior=config.use_item_prior,
        )

    named = model.named_parameters()
    params = list(named.values())
    opt = AdamState()
    sample_rng = np.random.default_rng(sample_ss)
    noise_rng = np.random.default_rng(noise_ss)
    val_seed = int(np.random.default_rng(val_ss).integers(2**31))

    # val_users == 0 disables validation; best checkpoint is then the last
    val_subset: list[EvalCase] = []
    if cases and config.val_users > 0:
        if len(cases) > config.val_users:
            pick = np.random.default_rng(val_ss).choice(
                len(cases), size=config.val_users, replace=False
            )
            val_subset = [cases[i] for i in sorted(pick)]
        else:
            val_subset = list(cases)

    iters_per_epoch = max(1, int(np.ceil(train.n_positives / config.batch_positives)))
    history: list[dict] = []
    last_finite = _snapshot(model)
    best = {"epoch": 0, "hr": -1.0, "snap": last_finite}
    step = 0

    for epoch in range(1, config.max_epochs + 1):
        losses = np.empty(iters_per_epoch)
        for it in range(iters_per_epoch):
            users, items, labels = sample_minibatch(
                train, config.batch_positives, config.neg_ratio, sample_rng
            )
            batch = assemble_batch(
                train, dataset.side, users, items, labels, noise_rng,
                k=config.mc_samples, latent_dim=config.latent_dim,
            )
            loss = mdl.batch_objective(model, batch)
            step += 1
            if not np.isfinite(loss.value).all():
                _restore(model, last_finite)
                raise TrainingDiverged(
                    step, epoch, "minibatch loss is not finite", model=model
                )
            ad.zero_grads(params)
            ad.backward(loss)
            clip_gradients(params, config.grad_clip)
            adam_step(named, opt, config.learning_rate)
            losses[it] = loss.item()
        # the last step's gradients are not needed for validation or return
        ad.zero_grads(params)
        last_finite = _snapshot(model)

        val_hr, val_ndcg = (np.nan, np.nan)
        if val_subset:
            val_hr, val_ndcg = ev.validation_hr_ndcg(
                model, train, dataset.side, val_subset, k=5,
                n_samples=config.val_samples, seed=val_seed,
            )
        entry = {
            "epoch": epoch,
            "loss": float(losses.mean()),
            "val_hr5": float(val_hr),
            "val_ndcg5": float(val_ndcg),
        }
        history.append(entry)
        log.info("epoch %d: loss %.4f val_hr5 %.4f val_ndcg5 %.4f",
                 epoch, entry["loss"], val_hr, val_ndcg)
        if history_path is not None:
            write_history(history, history_path, config.seed)

        # one snapshot per epoch, shared by last_finite and best
        if val_subset and val_hr > best["hr"]:
            best = {"epoch": epoch, "hr": float(val_hr), "snap": last_finite}
        elif not val_subset:
            best = {"epoch": epoch, "hr": np.nan, "snap": last_finite}
        if val_subset and epoch - best["epoch"] >= config.patience:
            log.info("early stop at epoch %d (best epoch %d)", epoch, best["epoch"])
            break

    _restore(model, best["snap"])
    return FitResult(
        model=model,
        history=history,
        best_epoch=best["epoch"],
        best_val_hr=best["hr"],
        steps=step,
        config=config,
    )


def write_history(history: list[dict], path, seed: int) -> None:
    """CSV loss/metric history: a seed comment line, then epoch rows."""
    path = Path(path)
    with open(path, "w") as fh:
        fh.write(f"# seed={seed}\n")
        fh.write("epoch,loss,val_hr5,val_ndcg5\n")
        for row in history:
            fh.write(
                f"{row['epoch']},{row['loss']:.6f},{row['val_hr5']:.6f},"
                f"{row['val_ndcg5']:.6f}\n"
            )
