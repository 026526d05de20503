"""Optimizer and training loop for the minibatch bound estimator.

One iteration samples a fresh pair minibatch (positives plus neg_ratio
negatives), builds the batched objective, backpropagates, clips the global
gradient norm, and applies a bias-corrected adaptive-moment update. An
epoch is ceil(n_positives / batch_positives) iterations; validation HR@5
on a subsample of the eval cases drives early stopping.

The update moves more memory than it computes: the default model has about
4M float64 parameters, and each step reads every gradient and reads and
writes every parameter and both moments. So clipping only computes a factor,
which `adam_step` folds into its moment updates, and `adam_step` makes all of
its passes over one block of ADAM_BLOCK elements of a tensor, while the block
is in cache, before it moves to the next. Measured over the default model's
46 tensors on a 2-core Xeon with 2 MB of L2 cache per core: 42-44 ms per
clip and update with a full pass per operation, 38-39 ms with one block per
tensor, and 28-29 ms with blocks of 2^14 elements (2^12: 32-35 ms; 2^15 and
2^16 within noise of 2^14).
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

# Elements per block of `adam_step`: four float64 blocks (parameter,
# gradient, both moments) plus one scratch block make 640 KB, within L2.
ADAM_BLOCK = 1 << 14


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
    neg_ratio=5, total minibatch 21 * (1 + 5) = 126 ~ 128 pairs).

    `learning_rate` must be finite and positive. `grad_clip` is the bound on
    the global gradient norm; it must be finite, and `grad_clip <= 0`
    disables clipping. `max_epochs` and `patience` must be at least 1;
    `val_users == 0` disables validation.
    """

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
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got "
                             f"{self.learning_rate}")
        if not np.isfinite(self.grad_clip):
            raise ValueError(f"grad_clip must be finite (<= 0 disables clipping), "
                             f"got {self.grad_clip}")
        for name in ("latent_dim", "mc_samples", "val_samples", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.val_users < 0:
            raise ValueError("val_users must be >= 0 (0 disables validation)")
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


def adam_step(named_params: dict[str, ad.Node], state: AdamState, lr: float,
              grad_scale: float = 1.0) -> None:
    """Bias-corrected adaptive-moment update of each parameter on its
    gradient times `grad_scale`, in place; missing gradients (parameters off
    the current graph) are treated as zero and skipped.

    Equivalent to the textbook m-hat/v-hat form on the scaled gradient c*g:
    `m` takes c*g and `v` takes c^2*g^2, so clipping (`clip_gradients`)
    costs no pass of its own, and the bias corrections are folded into the
    step size. Each tensor is updated in blocks of ADAM_BLOCK elements, all
    passes over one block before the next, because a full pass per operation
    streams every tensor through main memory about a dozen times per step
    (timings in the module docstring). Blocks follow the parameter's memory
    order, C or Fortran, so parameter and moments are updated through views;
    a gradient in the other order is read in the parameter's order.
    """
    state.step += 1
    t = state.step
    correction2 = np.sqrt(1 - state.beta2 ** t)
    step_size = lr * correction2 / (1 - state.beta1 ** t)
    denom_eps = state.eps * correction2
    beta1, beta2 = state.beta1, state.beta2
    scale1 = (1 - beta1) * grad_scale
    scale2 = (1 - beta2) * grad_scale * grad_scale
    block = ADAM_BLOCK
    scratch = np.empty(block)
    for name, p in named_params.items():
        g = p.grad
        if g is None:
            continue
        value = p.value
        if g.shape != value.shape:
            raise ValueError(f"adam_step: gradient shape {g.shape} vs value "
                             f"{value.shape} for {name}")
        if value.flags.c_contiguous:
            order = "C"
        elif value.flags.f_contiguous:
            order = "F"
        else:
            raise ValueError(f"adam_step: value of {name} is not contiguous")
        if name not in state.m:
            state.m[name] = np.zeros_like(value)
            state.v[name] = np.zeros_like(value)
        # moments follow the parameter's order, so their ravels are views
        m = state.m[name] = np.asarray(state.m[name], order=order)
        v = state.v[name] = np.asarray(state.v[name], order=order)
        flat_p, flat_m, flat_v = value.ravel(order), m.ravel(order), v.ravel(order)
        flat_g = g.ravel(order)
        for lo in range(0, flat_p.size, block):
            hi = lo + block
            gb, mb, vb = flat_g[lo:hi], flat_m[lo:hi], flat_v[lo:hi]
            s = scratch[:len(gb)]
            np.multiply(gb, gb, out=s)
            s *= scale2
            vb *= beta2
            vb += s
            np.multiply(gb, scale1, out=s)
            mb *= beta1
            mb += s
            np.sqrt(vb, out=s)
            s += denom_eps
            np.divide(mb, s, out=s)
            s *= step_size
            flat_p[lo:hi] -= s


def clip_gradients(params, max_norm: float) -> float:
    """Factor min(1, max_norm / norm) that bounds the global L2 norm of the
    gradients by max_norm; 1 when max_norm <= 0. The gradients are left as
    they are: `adam_step` applies the factor as its `grad_scale`."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            flat = p.grad.ravel(order="K")  # a view in either memory order
            total += float(np.dot(flat, flat))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        return max_norm / norm
    return 1.0


def assemble_batch(train: InteractionMatrix, side: SideInfo, users, items, labels,
                   rng: np.random.Generator, k: int = 1, *,
                   latent_dim: int) -> mdl.PairBatch:
    """Materialize rows/features for sampled pairs and draw the pairing noise."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    csr = train.to_csr()
    csc_t = train.to_csr_t()
    user_rows = csr[users]
    item_cols = csc_t[items]
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
        eps_user=rng.standard_normal((len(users) * k, latent_dim)),
        eps_item=rng.standard_normal((len(items) * k, latent_dim)),
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
            factor = clip_gradients(params, config.grad_clip)
            adam_step(named, opt, config.learning_rate, grad_scale=factor)
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
