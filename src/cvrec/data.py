"""Dataset ingestion, feature vectorization, splits, and samplers.

Raw datasets, one DATASETS entry each: MovieLens-100K (u.data / u.item /
u.user), MovieLens-1M (ratings.dat / movies.dat / users.dat), and Lastfm-2K
(user_artists.dat / user_taggedartists.dat / user_friends.dat). Ratings
binarize at >= 4 (MovieLens); Lastfm listens are positives as-is. Every raw
file is read by `read_rows`: a missing file, a line with too few fields and
a field that will not convert each raise DataError naming the file (and the
line), which the CLI reports with exit 4.

Prepared datasets round-trip through a single .npz cache file with a
versioned JSON header recording the seed that produced the splits.
"""

from __future__ import annotations

import json
import logging
import re
import zipfile
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy import sparse

log = logging.getLogger(__name__)

CACHE_MAGIC = "cvrec-dataset"
CACHE_VERSION = 1

MAX_BOW_TERMS = 8000
N_EVAL_NEGATIVES = 99

# minimal english stopword list for title/description tokens
_STOPWORDS = frozenset(
    """a an and are as at be but by for from has have in is it its of on or
    that the this to was were will with""".split()
)

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class DataError(Exception):
    """Raised for malformed or missing dataset input."""


@dataclass
class InteractionMatrix:
    """Sparse binary feedback stored once, as a CSR over users.

    `items[indptr[u]:indptr[u + 1]]` are user u's positive item ids, sorted
    ascending, and `timestamps` is aligned with `items`. The arrays are
    read-only; pairs, per-user views and the sparse matrices derive from them.
    """

    n_users: int
    n_items: int
    indptr: np.ndarray       # (n_users + 1,) offsets into items
    items: np.ndarray        # item ids, sorted within each user
    timestamps: np.ndarray   # aligned with items
    _csr_t: sparse.csr_array | None = field(default=None, repr=False)

    @classmethod
    def from_pairs(cls, n_users, n_items, users, items, timestamps=None):
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if timestamps is None:
            timestamps = np.zeros(len(users), dtype=np.int64)
        timestamps = np.asarray(timestamps, dtype=np.int64)
        if not len(users) == len(items) == len(timestamps):
            raise DataError(
                f"users, items and timestamps differ in length: "
                f"{len(users)}, {len(items)}, {len(timestamps)}"
            )
        if len(users) and (users.min() < 0 or users.max() >= n_users):
            raise DataError(f"user id out of range [0, {n_users})")
        if len(items) and (items.min() < 0 or items.max() >= n_items):
            raise DataError(f"item id out of range [0, {n_items})")
        codes = users * n_items + items
        # stable sort: linear on input that is already sorted (caches, without())
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        if np.any(codes[1:] == codes[:-1]):
            raise DataError("duplicate (user, item) interaction")
        indptr = np.searchsorted(codes, np.arange(n_users + 1) * n_items)
        arrays = indptr, items[order], timestamps[order]
        for a in arrays:
            a.flags.writeable = False
        return cls(n_users, n_items, *arrays)

    @property
    def n_positives(self) -> int:
        return len(self.items)

    @cached_property
    def codes(self) -> np.ndarray:
        """Positive (user, item) pairs as sorted codes user * n_items + item."""
        users, items = self.pairs()
        codes = users * self.n_items + items
        codes.flags.writeable = False
        return codes

    @cached_property
    def user_items(self) -> list[np.ndarray]:
        """Sorted item ids per user: read-only views into `items`."""
        return [self.items[lo:hi] for lo, hi in zip(self.indptr[:-1], self.indptr[1:])]

    def pairs(self):
        """All positive (users, items) as two flat arrays, user-major order."""
        users = np.repeat(np.arange(self.n_users, dtype=np.int64), np.diff(self.indptr))
        return users, self.items

    def to_csr(self) -> sparse.csr_array:
        return sparse.csr_array(
            (np.ones(self.n_positives), self.items, self.indptr),
            shape=(self.n_users, self.n_items),
        )

    def to_csr_t(self) -> sparse.csr_array:
        """Transposed feedback (items x users) in row form, cached."""
        if self._csr_t is None:
            self._csr_t = sparse.csr_array(self.to_csr().T)
        return self._csr_t

    def has(self, i, j) -> bool:
        pos = np.searchsorted(self.user_items[i], j)
        return pos < len(self.user_items[i]) and self.user_items[i][pos] == j

    def without(self, drop_pairs) -> "InteractionMatrix":
        """Copy with the given (user, item) pairs removed."""
        drop = np.asarray(drop_pairs, dtype=np.int64).reshape(-1, 2)
        # a pair outside the shape is no positive, and its code would alias one
        drop = drop[((drop >= 0) & (drop < (self.n_users, self.n_items))).all(axis=1)]
        users, items = self.pairs()
        keep = ~np.isin(self.codes, drop[:, 0] * self.n_items + drop[:, 1])
        return InteractionMatrix.from_pairs(
            self.n_users, self.n_items, users[keep], items[keep], self.timestamps[keep]
        )


@dataclass
class SideInfo:
    """Per-entity feature rows: user_features[i] is user i's vector."""

    user_features: sparse.csr_array   # M x P
    item_features: sparse.csr_array   # N x Q

    @property
    def user_dim(self) -> int:
        return self.user_features.shape[1]

    @property
    def item_dim(self) -> int:
        return self.item_features.shape[1]

    def validate(self):
        """Reject empty or non-finite features; log rows without metadata."""
        if self.user_dim <= 0 or self.item_dim <= 0:
            raise DataError("side-information dimensions must be positive")
        for kind, mat in (("user", self.user_features), ("item", self.item_features)):
            if not np.isfinite(mat.data).all():
                raise DataError(f"non-finite {kind} feature")
            empty = int((np.diff(mat.indptr) == 0).sum())
            if empty:
                log.info("%d %s(s) have no metadata; using zero feature vectors", empty, kind)
        return self


@dataclass
class EvalCase:
    """One held-out positive plus sampled negative candidates."""

    user: int
    target: int
    negatives: np.ndarray
    truncated: bool = False  # fewer than the requested negatives available


@dataclass
class ColdCase(EvalCase):
    cold: bool = False
    source_user: int = -1
    source_item: int = -1


@dataclass
class ColdSplit:
    """80/10/10 interaction split with a fraction of val/test entities made cold.

    Cold entities get synthetic ids (>= n_users or >= n_items) carrying a
    copy of the source entity's side info and no training history.
    """

    mode: str                     # "user" | "item"
    fraction: float
    seed: int
    train: InteractionMatrix
    val_cases: list[ColdCase]
    test_cases: list[ColdCase]

    def feature_row(self, side: SideInfo, case: ColdCase):
        """Side-info row of the case's cold entity (copied from its source)."""
        if self.mode == "user":
            return side.user_features[[case.source_user]]
        return side.item_features[[case.source_item]]


@dataclass
class Dataset:
    """A prepared dataset: full feedback, leave-one-out split, side info."""

    name: str
    interactions: InteractionMatrix
    train: InteractionMatrix
    eval_cases: list[EvalCase]
    side: SideInfo
    seed: int

    @property
    def n_users(self) -> int:
        return self.interactions.n_users

    @property
    def n_items(self) -> int:
        return self.interactions.n_items

    def stats(self) -> dict:
        n = self.interactions.n_positives
        total = self.n_users * self.n_items
        return {
            "users": self.n_users,
            "items": self.n_items,
            "positives": n,
            "sparsity": 1.0 - n / total if total else 0.0,
            "user_feature_dim": self.side.user_dim,
            "item_feature_dim": self.side.item_dim,
            "eval_cases": len(self.eval_cases),
        }


# ---------------------------------------------------------------------------
# parsing


def read_rows(path, n_fields: int, parse, sep: str | None = None, header: bool = False):
    """Yield `parse(fields)` for each line of a raw latin-1 text file, in order.

    Blank lines are skipped, and so is the first line with `header`. Lines
    split on `sep`; with None, on "::" if the line holds one, else on
    whitespace (MovieLens ratings come both ways). `parse` gets the first
    `n_fields` fields and runs here, so its ValueError is tied to the line.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    with open(path, encoding="latin-1") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or (header and line_no == 1):
                continue
            fields = line.split("::" if sep is None and "::" in line else sep)
            if len(fields) < n_fields:
                raise DataError(f"{path}:{line_no}: expected {n_fields} fields, got {line!r}")
            try:
                row = parse(fields[:n_fields])
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: malformed field: {exc}") from exc
            yield row


def _read_feedback(path, n_fields: int, parse, threshold: float, header: bool = False):
    """Feedback from a raw file whose `parse` gives (user, item, weight,
    timestamp) per row; rows with weight >= threshold are the positives.

    Id k is the k-th smallest raw id in any row, kept or not, so a user or
    item without a positive keeps an empty row. Returns (matrix, raw user
    ids, raw item ids, row count).
    """
    columns = [("user", np.int64), ("item", np.int64), ("weight", float), ("timestamp", np.int64)]
    try:
        rows = np.fromiter(read_rows(path, n_fields, parse, header=header), dtype=columns)
    except OverflowError as exc:
        raise DataError(f"{path}: id or timestamp beyond 64 bits: {exc}") from exc
    if not len(rows):
        raise DataError(f"{path}: empty feedback file")
    keep = rows["weight"] >= threshold
    user_ids = np.unique(rows["user"])
    item_ids = np.unique(rows["item"])
    interactions = InteractionMatrix.from_pairs(
        len(user_ids), len(item_ids), np.searchsorted(user_ids, rows["user"][keep]),
        np.searchsorted(item_ids, rows["item"][keep]), rows["timestamp"][keep],
    )
    return interactions, user_ids, item_ids, len(rows)


def load_movielens(ratings_path, threshold: float = 4.0):
    """Parse a MovieLens ratings file into a binarized InteractionMatrix.

    Keeps every user/item that appears at any rating (zero-positive rows
    are retained empty), binarizes at rating >= threshold, and returns the
    raw-id vocabularies alongside so side-info files can be joined.
    """
    return _read_feedback(ratings_path, 4,
                          lambda f: (int(f[0]), int(f[1]), float(f[2]), int(f[3])), threshold)


def load_lastfm(data_dir):
    """user_artists.dat: any listening weight is a positive; no timestamps."""
    return _read_feedback(Path(data_dir) / "user_artists.dat", 3,
                          lambda f: (int(f[0]), int(f[1]), int(f[2]), 0), -np.inf, header=True)


# ---------------------------------------------------------------------------
# side-information vectorizers


def tokenize(text: str) -> list[str]:
    return [t for t in _TOKEN_RE.findall(text.lower()) if t not in _STOPWORDS]


def bag_of_words(docs: list[list[str]], max_terms: int = MAX_BOW_TERMS):
    """Token-count rows over the top-`max_terms` terms by document frequency,
    L2-normalized; returns (csr matrix, vocabulary)."""
    df: dict[str, int] = {}
    for doc in docs:
        for term in set(doc):
            df[term] = df.get(term, 0) + 1
    # highest document frequency first; ties alphabetical for determinism
    vocab = sorted(df, key=lambda t: (-df[t], t))[:max_terms]
    index = {t: k for k, t in enumerate(vocab)}
    rows, cols, vals = [], [], []
    for r, doc in enumerate(docs):
        counts: dict[int, float] = {}
        for term in doc:
            k = index.get(term)
            if k is not None:
                counts[k] = counts.get(k, 0.0) + 1.0
        for k, v in counts.items():
            rows.append(r)
            cols.append(k)
            vals.append(v)
    mat = sparse.csr_array(
        (vals, (rows, cols)), shape=(len(docs), max(len(vocab), 1)), dtype=np.float64
    )
    norms = np.sqrt(mat.multiply(mat).sum(axis=1)).ravel()
    scale = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 0.0)
    mat = sparse.csr_array(sparse.diags_array(scale) @ mat)
    return mat, vocab

# age buckets follow the usual MovieLens groups
_AGE_EDGES = [18, 25, 35, 45, 50, 56]


def _one_hot(index: int, size: int) -> np.ndarray:
    v = np.zeros(size)
    if 0 <= index < size:
        v[index] = 1.0
    return v


def encode_demographics(age, gender, occupation, zip_code, occupations: list[str]):
    """[age buckets | gender M/F | occupation one-hot | zip first digit]."""
    age_idx = int(np.searchsorted(_AGE_EDGES, age, side="right"))
    gender_vec = np.array([1.0, 0.0]) if gender.upper() == "M" else np.array([0.0, 1.0])
    occ_idx = occupations.index(occupation) if occupation in occupations else -1
    zip_idx = ord(zip_code[0]) - ord("0") if zip_code and zip_code[0].isdigit() else -1
    return np.concatenate([
        _one_hot(age_idx, len(_AGE_EDGES) + 1),
        gender_vec,
        _one_hot(occ_idx, len(occupations)),
        _one_hot(zip_idx, 10),
    ])


ML100K_USER_FIELDS = ("id", "age", "gender", "occupation", "zip")
ML1M_USER_FIELDS = ("id", "gender", "age", "occupation", "zip")


def vectorize_movielens_users(path, user_ids, sep: str, fields) -> sparse.csr_array:
    """MovieLens user file -> demographic one-hot rows.

    Each line holds `sep`-separated fields in the order named by `fields`:
    u.user is id|age|gender|occupation|zip (ML100K_USER_FIELDS), users.dat
    is UserID::Gender::Age::Occupation::Zip-code (ML1M_USER_FIELDS).
    """
    def parse(parts):
        rec = dict(zip(fields, parts))
        return int(rec["id"]), (int(rec["age"]), rec["gender"], rec["occupation"], rec["zip"])

    rows = list(read_rows(path, len(fields), parse, sep))
    occ_list = sorted({demographics[2] for _, demographics in rows})
    raw = dict(rows)
    dim = (len(_AGE_EDGES) + 1) + 2 + len(occ_list) + 10
    mat = np.zeros((len(user_ids), dim))
    for r, uid in enumerate(user_ids):
        if int(uid) in raw:
            mat[r] = encode_demographics(*raw[int(uid)], occ_list)
    return sparse.csr_array(mat)


# (separator, field count, parse to (id, title, {genre: value})) of an item
# file. u.item is id|title|release|video release|url|19 genre flags, each flag
# under its position; movies.dat is MovieID::Title::Genre|Genre, each name at 1.
ML100K_ITEM_FORMAT = ("|", 24, lambda f: (int(f[0]), f[1], dict(enumerate(map(float, f[5:])))))
ML1M_ITEM_FORMAT = ("::", 3, lambda f: (int(f[0]), f[1], dict.fromkeys(f[2].split("|"), 1.0)))


def vectorize_movielens_items(path, item_ids, sep: str, n_fields: int,
                              parse) -> sparse.csr_array:
    """MovieLens item file -> [genre columns | title bag-of-words] rows.

    Lines parse as ML100K_ITEM_FORMAT or ML1M_ITEM_FORMAT describe. The genre
    columns are the file's genres in sorted order: u.item's 19 flags pass
    through in file order, and movies.dat's genre names become one-hot columns.
    """
    rows = list(read_rows(path, n_fields, parse, sep))
    column = {g: k for k, g in enumerate(sorted({g for *_, genres in rows for g in genres}))}
    by_id = {iid: (title, genres) for iid, title, genres in rows}
    genre_rows = np.zeros((len(item_ids), len(column)))
    docs = []
    for r, iid in enumerate(item_ids):
        title, genres = by_id.get(int(iid), ("", {}))
        docs.append(tokenize(title))
        for g, value in genres.items():
            genre_rows[r, column[g]] = value
    bow, _ = bag_of_words(docs)
    return sparse.csr_array(sparse.hstack([sparse.csr_array(genre_rows), bow], format="csr"))


def lastfm_user_features(friends_path, user_ids) -> sparse.csr_array:
    """Binary social adjacency over the users present in the feedback matrix."""
    pos = {int(u): k for k, u in enumerate(user_ids)}
    friends = read_rows(friends_path, 2, lambda f: tuple(map(int, f)), header=True)
    edges = np.array([(pos[u], pos[v]) for u, v in friends if u in pos and v in pos],
                     dtype=np.int64).reshape(-1, 2)
    return sparse.csr_array(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(len(user_ids), len(user_ids))
    )


def lastfm_item_features(tagged_path, item_ids) -> sparse.csr_array:
    """Tag-id bags per artist, treated like term documents (df cap + L2)."""
    docs_by_item: dict[int, list[str]] = {int(i): [] for i in item_ids}
    for _, artist, tag in read_rows(tagged_path, 3, lambda f: tuple(map(int, f)), header=True):
        if artist in docs_by_item:
            docs_by_item[artist].append(f"t{tag}")
    return bag_of_words([docs_by_item[int(i)] for i in item_ids])[0]


class RawDataset(NamedTuple):
    """How one raw dataset is read from its directory."""

    feedback: Callable       # (dir, threshold) -> (matrix, user ids, item ids, rows)
    user_features: Callable  # (dir, raw user ids) -> csr rows
    item_features: Callable  # (dir, raw item ids) -> csr rows


DATASETS = {
    "ml-100k": RawDataset(
        lambda d, threshold: load_movielens(d / "u.data", threshold),
        lambda d, ids: vectorize_movielens_users(d / "u.user", ids, "|", ML100K_USER_FIELDS),
        lambda d, ids: vectorize_movielens_items(d / "u.item", ids, *ML100K_ITEM_FORMAT),
    ),
    "ml-1m": RawDataset(
        lambda d, threshold: load_movielens(d / "ratings.dat", threshold),
        lambda d, ids: vectorize_movielens_users(d / "users.dat", ids, "::", ML1M_USER_FIELDS),
        lambda d, ids: vectorize_movielens_items(d / "movies.dat", ids, *ML1M_ITEM_FORMAT),
    ),
    "lastfm-2k": RawDataset(
        lambda d, threshold: load_lastfm(d),
        lambda d, ids: lastfm_user_features(d / "user_friends.dat", ids),
        lambda d, ids: lastfm_item_features(d / "user_taggedartists.dat", ids),
    ),
}


def _raw_dataset(name: str) -> RawDataset:
    try:
        return DATASETS[name]
    except KeyError:
        raise DataError(f"unknown dataset: {name}") from None


def vectorize_side_info(dataset: str, data_dir, user_ids, item_ids) -> SideInfo:
    """Build SideInfo for a named dataset from its raw metadata files."""
    raw, data_dir = _raw_dataset(dataset), Path(data_dir)
    return SideInfo(raw.user_features(data_dir, user_ids),
                    raw.item_features(data_dir, item_ids)).validate()


# ---------------------------------------------------------------------------
# splits and samplers


def leave_one_out_split(interactions: InteractionMatrix,
                        n_negatives: int = N_EVAL_NEGATIVES, seed: int = 0):
    """Hold out each qualifying user's latest positive as their eval target.

    Users with fewer than two positives keep everything in training and get
    no eval case. Timestamp ties break toward the larger item id. Negatives
    are drawn uniformly without replacement from the user's non-interacted
    items; users with fewer than `n_negatives` candidates get all of them
    and a truncation flag.
    """
    rng = np.random.default_rng(seed)
    held_out = []
    cases = []
    unseen = np.ones(interactions.n_items, dtype=bool)
    for u in range(interactions.n_users):
        lo, hi = interactions.indptr[u], interactions.indptr[u + 1]
        if hi - lo < 2:
            continue
        items, ts = interactions.items[lo:hi], interactions.timestamps[lo:hi]
        latest = np.lexsort((items, ts))[-1]
        target = int(items[latest])
        held_out.append((u, target))
        candidates = _unseen_items(unseen, items)
        truncated = len(candidates) < n_negatives
        if truncated:
            log.warning("user %d has only %d negative candidates", u, len(candidates))
            negatives = candidates.copy()
        else:
            negatives = rng.choice(candidates, size=n_negatives, replace=False)
        cases.append(EvalCase(u, target, np.sort(negatives), truncated))
    train = interactions.without(held_out)
    return train, cases


def _unseen_items(unseen: np.ndarray, items: np.ndarray) -> np.ndarray:
    """Ascending ids of the items not in `items`. `unseen` is an all-True
    scratch row over the catalogue, left all-True on return."""
    unseen[items] = False
    pool = np.flatnonzero(unseen)
    unseen[items] = True
    return pool


def sample_minibatch(train: InteractionMatrix, batch_positives: int,
                     neg_ratio: int, rng: np.random.Generator):
    """Uniform positive pairs plus neg_ratio-times-as-many unobserved pairs.

    Negatives are re-drawn on every call (uniformly over the zero cells of
    the training matrix, by rejection).
    """
    if neg_ratio < 0:
        raise ValueError("neg_ratio must be >= 0")
    pos_codes = train.codes
    n_pos = len(pos_codes)
    if n_pos == 0:
        raise DataError("cannot sample from a matrix without positives")
    replace = batch_positives > n_pos
    if replace:
        log.warning(
            "batch_positives=%d exceeds positive count %d; sampling with replacement",
            batch_positives, n_pos,
        )
    pick = rng.choice(n_pos, size=batch_positives, replace=replace)
    users = pos_codes[pick] // train.n_items
    items = train.items[pick]
    labels = np.ones(batch_positives)

    n_neg = neg_ratio * batch_positives
    if n_neg:
        neg_codes = np.empty(0, dtype=np.int64)
        while len(neg_codes) < n_neg:
            draw = rng.integers(0, train.n_users * train.n_items,
                                size=2 * (n_neg - len(neg_codes)) + 8)
            hit = np.searchsorted(pos_codes, draw)
            observed = (hit < len(pos_codes)) & (pos_codes[np.minimum(hit, len(pos_codes) - 1)] == draw)
            neg_codes = np.concatenate([neg_codes, draw[~observed]])
        neg_codes = neg_codes[:n_neg]
        users = np.concatenate([users, neg_codes // train.n_items])
        items = np.concatenate([items, neg_codes % train.n_items])
        labels = np.concatenate([labels, np.zeros(n_neg)])
    return users, items, labels


def make_cold_split(interactions: InteractionMatrix, side: SideInfo,
                    fraction: float = 0.3, mode: str = "user", seed: int = 0,
                    n_negatives: int = N_EVAL_NEGATIVES) -> ColdSplit:
    """80/10/10 split of interactions; a fraction of val/test samples become
    cold by receiving a fresh entity id with copied side info and no history.
    """
    if mode not in ("user", "item"):
        raise ValueError(f"mode must be 'user' or 'item', got {mode!r}")
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must be in [0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    users, items = interactions.pairs()
    n = len(users)
    order = rng.permutation(n)
    n_train = int(0.8 * n)
    n_val = int(0.1 * n)
    split_idx = {
        "val": order[n_train:n_train + n_val],
        "test": order[n_train + n_val:],
    }
    if fraction > 0.0 and all(
        int(round(fraction * len(ix))) == 0 for ix in split_idx.values()
    ):
        raise DataError(f"fraction {fraction} yields zero cold samples")

    train = InteractionMatrix.from_pairs(
        interactions.n_users, interactions.n_items,
        users[order[:n_train]], items[order[:n_train]],
    )

    next_cold = interactions.n_users if mode == "user" else interactions.n_items
    unseen = np.ones(interactions.n_items, dtype=bool)

    def build_cases(idx):
        nonlocal next_cold
        k_cold = int(round(fraction * len(idx)))
        cold_flags = np.zeros(len(idx), dtype=bool)
        cold_flags[rng.choice(len(idx), size=k_cold, replace=False)] = True
        cases = []
        for flag, ix in zip(cold_flags, idx):
            u, j = int(users[ix]), int(items[ix])
            # candidates are always items for the source user; in item mode
            # only the target is scored through the item prior
            pool = _unseen_items(unseen, interactions.user_items[u])
            truncated = len(pool) < n_negatives
            negatives = (pool.copy() if truncated
                         else rng.choice(pool, size=n_negatives, replace=False))
            case = ColdCase(
                user=u, target=j, negatives=np.sort(negatives), truncated=truncated,
                cold=bool(flag), source_user=u, source_item=j,
            )
            if flag:
                if mode == "user":
                    case.user = next_cold
                else:
                    case.target = next_cold
                next_cold += 1
            cases.append(case)
        return cases

    val_cases = build_cases(split_idx["val"])
    test_cases = build_cases(split_idx["test"])
    return ColdSplit(mode, fraction, seed, train, val_cases, test_cases)


# ---------------------------------------------------------------------------
# cache


def _pack_csr(prefix: str, mat, arrays: dict) -> None:
    csr = sparse.csr_array(mat)
    arrays[f"{prefix}_data"] = csr.data
    arrays[f"{prefix}_indices"] = csr.indices
    arrays[f"{prefix}_indptr"] = csr.indptr
    arrays[f"{prefix}_shape"] = np.asarray(csr.shape)


def _unpack_csr(prefix: str, data) -> sparse.csr_array:
    return sparse.csr_array(
        (data[f"{prefix}_data"], data[f"{prefix}_indices"], data[f"{prefix}_indptr"]),
        shape=tuple(data[f"{prefix}_shape"]),
    )


def save_dataset(dataset: Dataset, path) -> None:
    users, items = dataset.interactions.pairs()
    tr_users, tr_items = dataset.train.pairs()
    meta = {
        "magic": CACHE_MAGIC,
        "version": CACHE_VERSION,
        "name": dataset.name,
        "seed": dataset.seed,
        "n_users": dataset.n_users,
        "n_items": dataset.n_items,
    }
    arrays: dict[str, np.ndarray] = {
        "__meta__": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        "inter_users": users,
        "inter_items": items,
        "inter_ts": dataset.interactions.timestamps,
        "train_users": tr_users,
        "train_items": tr_items,
        "case_user": np.array([c.user for c in dataset.eval_cases], dtype=np.int64),
        "case_target": np.array([c.target for c in dataset.eval_cases], dtype=np.int64),
        # negatives are ragged when truncated; store flat + lengths
        "case_negatives": (np.concatenate([c.negatives for c in dataset.eval_cases])
                           if dataset.eval_cases else np.empty(0, dtype=np.int64)),
        "case_neg_len": np.array(
            [len(c.negatives) for c in dataset.eval_cases], dtype=np.int64
        ),
        "case_truncated": np.array([c.truncated for c in dataset.eval_cases], dtype=bool),
    }
    _pack_csr("user_feat", dataset.side.user_features, arrays)
    _pack_csr("item_feat", dataset.side.item_features, arrays)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)


@contextmanager
def open_archive(path, magic: str, version: int, kind: str):
    """Yield the JSON header and the arrays of an .npz file this package wrote.

    Raises DataError for a missing or unreadable file, one that is not an
    .npz archive, a missing `__meta__` header, the wrong magic or version,
    and an array the caller reads but the archive lacks.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"{kind} not found: {path}")
    try:
        archive = np.load(path)
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path}: not a {kind} (unreadable or not an .npz "
                        f"archive)") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise DataError(f"{path}: not a {kind} (not an .npz archive)")
    with archive:
        try:
            meta = json.loads(bytes(archive["__meta__"]).decode())
        except (KeyError, ValueError) as exc:
            raise DataError(f"{path}: not a {kind} (no readable __meta__ "
                            f"header)") from exc
        if not isinstance(meta, dict) or meta.get("magic") != magic:
            raise DataError(f"{path}: not a {kind}")
        if meta.get("version") != version:
            raise DataError(f"{path}: unsupported {kind} version {meta.get('version')}")
        try:
            yield meta, archive
        except KeyError as exc:
            raise DataError(f"{path}: malformed {kind}: {exc.args[0]}") from exc


def load_dataset(path) -> Dataset:
    with open_archive(path, CACHE_MAGIC, CACHE_VERSION, "dataset cache") as (meta, data):
        m, n = meta["n_users"], meta["n_items"]
        interactions = InteractionMatrix.from_pairs(
            m, n, data["inter_users"], data["inter_items"], data["inter_ts"]
        )
        train = InteractionMatrix.from_pairs(m, n, data["train_users"], data["train_items"])
        bounds = np.concatenate([[0], np.cumsum(data["case_neg_len"])])
        flat_negs = data["case_negatives"].astype(np.int64)
        cases = [
            EvalCase(int(u), int(t), flat_negs[bounds[k]:bounds[k + 1]].copy(), bool(fl))
            for k, (u, t, fl) in enumerate(
                zip(data["case_user"], data["case_target"], data["case_truncated"])
            )
        ]
        side = SideInfo(_unpack_csr("user_feat", data), _unpack_csr("item_feat", data))
    return Dataset(meta["name"], interactions, train, cases, side, meta["seed"])


# ---------------------------------------------------------------------------
# dataset preparation entry point


def prepare_dataset(dataset: str, data_dir, seed: int = 0, threshold: float = 4.0,
                    n_negatives: int = N_EVAL_NEGATIVES) -> Dataset:
    """Load raw files, vectorize side info, and build the leave-one-out split."""
    data_dir = Path(data_dir)
    inter, user_ids, item_ids, n_raw = _raw_dataset(dataset).feedback(data_dir, threshold)
    side = vectorize_side_info(dataset, data_dir, user_ids, item_ids)
    train, cases = leave_one_out_split(inter, n_negatives, seed)
    log.info(
        "%s: %d users x %d items, %d raw rows, %d positives, %d eval cases",
        dataset, inter.n_users, inter.n_items, n_raw, inter.n_positives, len(cases),
    )
    return Dataset(dataset, inter, train, cases, side, seed)
