"""Dataset ingestion, feature vectorization, splits, and samplers.

Supported raw datasets: MovieLens-100K (u.data / u.item / u.user),
MovieLens-1M (ratings.dat / movies.dat / users.dat), and Lastfm-2K
(user_artists.dat / user_taggedartists.dat / user_friends.dat). Ratings
binarize at >= 4 (MovieLens); Lastfm listens are positives as-is.

Prepared datasets round-trip through a single .npz cache file with a
versioned JSON header recording the seed that produced the splits.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

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
        keep = ~np.isin(users * self.n_items + items,
                        drop[:, 0] * self.n_items + drop[:, 1])
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
        if self.user_dim <= 0 or self.item_dim <= 0:
            raise DataError("side-information dimensions must be positive")
        if not np.isfinite(self.user_features.data).all():
            raise DataError("non-finite user feature")
        if not np.isfinite(self.item_features.data).all():
            raise DataError("non-finite item feature")
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


def _parse_rating_line(line: str, line_no: int, path):
    sep = "::" if "::" in line else None  # None = any whitespace (tabs)
    parts = line.strip().split(sep)
    if len(parts) < 4:
        raise DataError(f"{path}:{line_no}: expected user/item/rating/timestamp, got {line!r}")
    try:
        return int(parts[0]), int(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise DataError(f"{path}:{line_no}: malformed rating row: {exc}") from exc


def load_movielens(ratings_path, threshold: float = 4.0):
    """Parse a MovieLens ratings file into a binarized InteractionMatrix.

    Keeps every user/item that appears at any rating (zero-positive rows
    are retained empty), binarizes at rating >= threshold, and returns the
    raw-id vocabularies alongside so side-info files can be joined.
    """
    ratings_path = Path(ratings_path)
    if not ratings_path.exists():
        raise DataError(f"ratings file not found: {ratings_path}")
    raw_users, raw_items, raw_ratings, raw_ts = [], [], [], []
    with open(ratings_path, encoding="latin-1") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            u, i, r, t = _parse_rating_line(line, line_no, ratings_path)
            raw_users.append(u)
            raw_items.append(i)
            raw_ratings.append(r)
            raw_ts.append(t)
    if not raw_users:
        raise DataError(f"{ratings_path}: empty ratings file")
    raw_users = np.asarray(raw_users)
    raw_items = np.asarray(raw_items)
    raw_ratings = np.asarray(raw_ratings)
    raw_ts = np.asarray(raw_ts)

    user_ids = np.unique(raw_users)   # sorted raw ids; index = 0-based id
    item_ids = np.unique(raw_items)
    u_idx = np.searchsorted(user_ids, raw_users)
    i_idx = np.searchsorted(item_ids, raw_items)

    keep = raw_ratings >= threshold
    interactions = InteractionMatrix.from_pairs(
        len(user_ids), len(item_ids), u_idx[keep], i_idx[keep], raw_ts[keep]
    )
    return interactions, user_ids, item_ids, int(len(raw_users))


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


def _zero_feature_count(mat: sparse.csr_array, kind: str) -> None:
    empty = int((np.diff(mat.indptr) == 0).sum())
    if empty:
        log.info("%d %s(s) have no metadata; using zero feature vectors", empty, kind)


ML100K_USER_FIELDS = ("id", "age", "gender", "occupation", "zip")
ML1M_USER_FIELDS = ("id", "gender", "age", "occupation", "zip")


def vectorize_movielens_users(path, user_ids, sep: str, fields) -> sparse.csr_array:
    """MovieLens user file -> demographic one-hot rows.

    Each line holds `sep`-separated fields in the order named by `fields`:
    u.user is id|age|gender|occupation|zip (ML100K_USER_FIELDS), users.dat
    is UserID::Gender::Age::Occupation::Zip-code (ML1M_USER_FIELDS).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"user metadata file not found: {path}")
    raw: dict[int, tuple] = {}
    occupations: set[str] = set()
    with open(path, encoding="latin-1") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(sep)
            if len(parts) < len(fields):
                raise DataError(
                    f"{path}:{line_no}: expected {len(fields)} fields, got {line!r}"
                )
            rec = dict(zip(fields, parts))
            raw[int(rec["id"])] = (int(rec["age"]), rec["gender"], rec["occupation"],
                                   rec["zip"])
            occupations.add(rec["occupation"])
    occ_list = sorted(occupations)
    dim = (len(_AGE_EDGES) + 1) + 2 + len(occ_list) + 10
    rows = np.zeros((len(user_ids), dim))
    for r, uid in enumerate(user_ids):
        if int(uid) in raw:
            rows[r] = encode_demographics(*raw[int(uid)], occ_list)
    mat = sparse.csr_array(rows)
    _zero_feature_count(mat, "user")
    return mat


def vectorize_ml100k_items(path, item_ids) -> sparse.csr_array:
    """u.item: 19 genre flags pass through; title tokens become a b.o.w. block."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"item metadata file not found: {path}")
    genres: dict[int, np.ndarray] = {}
    titles: dict[int, list[str]] = {}
    with open(path, encoding="latin-1") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("|")
            if len(parts) < 24:
                raise DataError(f"{path}:{line_no}: expected 24 fields, got {len(parts)}")
            iid = int(parts[0])
            genres[iid] = np.array([float(x) for x in parts[5:24]])
            titles[iid] = tokenize(parts[1])
    docs = [titles.get(int(iid), []) for iid in item_ids]
    bow, _ = bag_of_words(docs)
    genre_rows = np.zeros((len(item_ids), 19))
    for r, iid in enumerate(item_ids):
        if int(iid) in genres:
            genre_rows[r] = genres[int(iid)]
    mat = sparse.csr_array(sparse.hstack([sparse.csr_array(genre_rows), bow], format="csr"))
    _zero_feature_count(mat, "item")
    return mat


def vectorize_ml1m_items(path, item_ids) -> sparse.csr_array:
    """movies.dat: MovieID::Title::Genre|Genre -> genre one-hot + title b.o.w."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"item metadata file not found: {path}")
    genre_lists: dict[int, list[str]] = {}
    titles: dict[int, list[str]] = {}
    all_genres: set[str] = set()
    with open(path, encoding="latin-1") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("::")
            if len(parts) < 3:
                raise DataError(f"{path}:{line_no}: expected 3 fields, got {line!r}")
            iid = int(parts[0])
            genre_lists[iid] = parts[2].split("|")
            all_genres.update(genre_lists[iid])
            titles[iid] = tokenize(parts[1])
    genre_index = {g: k for k, g in enumerate(sorted(all_genres))}
    docs = [titles.get(int(iid), []) for iid in item_ids]
    bow, _ = bag_of_words(docs)
    genre_rows = np.zeros((len(item_ids), len(genre_index)))
    for r, iid in enumerate(item_ids):
        for g in genre_lists.get(int(iid), []):
            genre_rows[r, genre_index[g]] = 1.0
    mat = sparse.csr_array(sparse.hstack([sparse.csr_array(genre_rows), bow], format="csr"))
    _zero_feature_count(mat, "item")
    return mat


def vectorize_side_info(dataset: str, data_dir, user_ids, item_ids) -> SideInfo:
    """Build SideInfo for a named dataset from its raw metadata files."""
    data_dir = Path(data_dir)
    if dataset == "ml-100k":
        side = SideInfo(
            vectorize_movielens_users(data_dir / "u.user", user_ids, "|",
                                      ML100K_USER_FIELDS),
            vectorize_ml100k_items(data_dir / "u.item", item_ids),
        )
    elif dataset == "ml-1m":
        side = SideInfo(
            vectorize_movielens_users(data_dir / "users.dat", user_ids, "::",
                                      ML1M_USER_FIELDS),
            vectorize_ml1m_items(data_dir / "movies.dat", item_ids),
        )
    elif dataset == "lastfm-2k":
        side = SideInfo(
            lastfm_user_features(data_dir / "user_friends.dat", user_ids),
            lastfm_item_features(data_dir / "user_taggedartists.dat", item_ids),
        )
    else:
        raise DataError(f"unknown dataset: {dataset}")
    return side.validate()


def _read_tsv(path, expect: int):
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    out = []
    with open(path, encoding="latin-1") as fh:
        header = fh.readline()  # hetrec files carry a header row
        for line_no, line in enumerate(fh, 2):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) < expect:
                raise DataError(f"{path}:{line_no}: expected {expect} columns")
            out.append([int(p) for p in parts[:expect]])
    return out


def lastfm_user_features(friends_path, user_ids) -> sparse.csr_array:
    """Binary social adjacency over the users present in the feedback matrix."""
    pos = {int(u): k for k, u in enumerate(user_ids)}
    rows, cols = [], []
    for u, v in _read_tsv(friends_path, 2):
        if u in pos and v in pos:
            rows.append(pos[u])
            cols.append(pos[v])
    mat = sparse.csr_array(
        (np.ones(len(rows)), (rows, cols)), shape=(len(user_ids), len(user_ids))
    )
    _zero_feature_count(mat, "user")
    return mat


def lastfm_item_features(tagged_path, item_ids) -> sparse.csr_array:
    """Tag-id bags per artist, treated like term documents (df cap + L2)."""
    docs_by_item: dict[int, list[str]] = {int(i): [] for i in item_ids}
    for _, artist, tag, *_ in _read_tsv(tagged_path, 3):
        if artist in docs_by_item:
            docs_by_item[artist].append(f"t{tag}")
    docs = [docs_by_item[int(i)] for i in item_ids]
    bow, _ = bag_of_words(docs)
    _zero_feature_count(bow, "item")
    return bow


def load_lastfm(data_dir):
    """user_artists.dat: any listening weight is a positive; no timestamps."""
    rows = _read_tsv(Path(data_dir) / "user_artists.dat", 3)
    raw_users = np.array([r[0] for r in rows])
    raw_items = np.array([r[1] for r in rows])
    user_ids = np.unique(raw_users)
    item_ids = np.unique(raw_items)
    inter = InteractionMatrix.from_pairs(
        len(user_ids),
        len(item_ids),
        np.searchsorted(user_ids, raw_users),
        np.searchsorted(item_ids, raw_items),
    )
    return inter, user_ids, item_ids, len(rows)


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
    for u in range(interactions.n_users):
        lo, hi = interactions.indptr[u], interactions.indptr[u + 1]
        if hi - lo < 2:
            continue
        items, ts = interactions.items[lo:hi], interactions.timestamps[lo:hi]
        latest = np.lexsort((items, ts))[-1]
        target = int(items[latest])
        held_out.append((u, target))
        candidates = np.setdiff1d(np.arange(interactions.n_items), items,
                                  assume_unique=True)
        truncated = len(candidates) < n_negatives
        if truncated:
            log.warning("user %d has only %d negative candidates", u, len(candidates))
            negatives = candidates.copy()
        else:
            negatives = rng.choice(candidates, size=n_negatives, replace=False)
        cases.append(EvalCase(u, target, np.sort(negatives), truncated))
    train = interactions.without(held_out)
    return train, cases


def sample_minibatch(train: InteractionMatrix, batch_positives: int,
                     neg_ratio: int, rng: np.random.Generator):
    """Uniform positive pairs plus neg_ratio-times-as-many unobserved pairs.

    Negatives are re-drawn on every call (uniformly over the zero cells of
    the training matrix, by rejection).
    """
    if neg_ratio < 0:
        raise ValueError("neg_ratio must be >= 0")
    pos_users, pos_items = train.pairs()
    n_pos = len(pos_users)
    if n_pos == 0:
        raise DataError("cannot sample from a matrix without positives")
    replace = batch_positives > n_pos
    if replace:
        log.warning(
            "batch_positives=%d exceeds positive count %d; sampling with replacement",
            batch_positives, n_pos,
        )
    pick = rng.choice(n_pos, size=batch_positives, replace=replace)
    users = pos_users[pick]
    items = pos_items[pick]
    labels = np.ones(batch_positives)

    n_neg = neg_ratio * batch_positives
    if n_neg:
        # pairs() is user-major with items sorted per user, so the codes are sorted
        pos_codes = pos_users * train.n_items + pos_items
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
    all_items = np.arange(interactions.n_items)

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
            pool = np.setdiff1d(all_items, interactions.user_items[u],
                                assume_unique=True)
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


def load_dataset(path) -> Dataset:
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset cache not found: {path}")
    with np.load(path) as data:
        try:
            meta = json.loads(bytes(data["__meta__"]).decode())
        except KeyError as exc:
            raise DataError(f"{path}: not a dataset cache") from exc
        if meta.get("magic") != CACHE_MAGIC:
            raise DataError(f"{path}: not a dataset cache")
        if meta.get("version") != CACHE_VERSION:
            raise DataError(f"{path}: unsupported cache version {meta.get('version')}")
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
    if dataset == "ml-100k":
        inter, user_ids, item_ids, n_raw = load_movielens(
            data_dir / "u.data", threshold
        )
    elif dataset == "ml-1m":
        inter, user_ids, item_ids, n_raw = load_movielens(
            data_dir / "ratings.dat", threshold
        )
    elif dataset == "lastfm-2k":
        inter, user_ids, item_ids, n_raw = load_lastfm(data_dir)
    else:
        raise DataError(f"unknown dataset: {dataset}")
    side = vectorize_side_info(dataset, data_dir, user_ids, item_ids)
    train, cases = leave_one_out_split(inter, n_negatives, seed)
    log.info(
        "%s: %d users x %d items, %d raw rows, %d positives, %d eval cases",
        dataset, inter.n_users, inter.n_items, n_raw, inter.n_positives, len(cases),
    )
    return Dataset(dataset, inter, train, cases, side, seed)
