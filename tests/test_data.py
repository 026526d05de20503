import hashlib
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrec import cli
from cvrec import data as d
from cvrec.train import write_history

from conftest import ML1M_MOVIES


@pytest.fixture
def ml_dir(tmp_path):
    """A miniature MovieLens-100K-format directory: 3 users, 50 items."""
    rows = []
    # user 1 rated items 1..50; item 50 gets a 5 with the latest timestamp
    for item in range(1, 50):
        rows.append((1, item, 4, 870000000 + item))
    rows.append((1, 50, 5, 880000999))
    # user 2: one rating below threshold (kept in the id space, no positive)
    rows.append((2, 1, 3, 875000000))
    # user 3: two positives, latest is item 7
    rows.append((3, 5, 4, 875000001))
    rows.append((3, 7, 5, 875000002))
    (tmp_path / "u.data").write_text(
        "".join(f"{u}\t{i}\t{r}\t{t}\n" for u, i, r, t in rows)
    )
    occupations = ["educator", "engineer", "writer"]
    (tmp_path / "u.user").write_text(
        "1|24|M|engineer|85711\n2|53|F|writer|T8H1N\n3|33|M|educator|55105\n"
    )
    item_lines = []
    for item in range(1, 51):
        genres = ["0"] * 19
        genres[item % 19] = "1"
        item_lines.append(
            f"{item}|Movie Title {item} (199{item % 10})|01-Jan-1995||url|"
            + "|".join(genres)
        )
    (tmp_path / "u.item").write_text("\n".join(item_lines) + "\n", encoding="latin-1")
    return tmp_path


class TestInteractionMatrix:
    def test_row_col_views(self):
        m = d.InteractionMatrix.from_pairs(3, 4, [0, 0, 2], [1, 3, 0])
        np.testing.assert_array_equal(m.to_csr()[[0]].toarray()[0], [0, 1, 0, 1])
        np.testing.assert_array_equal(m.to_csr()[[1]].toarray()[0], [0, 0, 0, 0])
        np.testing.assert_array_equal(m.to_csr_t()[[0]].toarray()[0], [0, 0, 1])
        assert m.has(0, 3) and not m.has(1, 0)

    def test_duplicate_pair_rejected(self):
        with pytest.raises(d.DataError, match="duplicate"):
            d.InteractionMatrix.from_pairs(2, 2, [0, 0], [1, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(d.DataError, match="out of range"):
            d.InteractionMatrix.from_pairs(2, 2, [0, 2], [0, 1])

    @pytest.mark.parametrize("users,items,timestamps", [
        ([0], [1], [5, 6]),        # extra timestamp
        ([0, 1], [1], None),       # short items
        ([0, 1], [1, 2], [5]),     # short timestamps
    ])
    def test_unequal_lengths_rejected(self, users, items, timestamps):
        with pytest.raises(d.DataError, match="differ in length"):
            d.InteractionMatrix.from_pairs(2, 3, users, items, timestamps)

    def test_without_ignores_pairs_outside_shape(self):
        m = d.InteractionMatrix.from_pairs(2, 3, [0, 1], [1, 0])
        kept = m.without([(0, 3), (-1, 2), (2, 0)])
        assert set(zip(*kept.pairs())) == {(0, 1), (1, 0)}

    def test_views_are_read_only(self):
        m = d.InteractionMatrix.from_pairs(2, 3, [1, 0], [2, 1], [4, 5])
        for a in (m.indptr, m.items, m.timestamps, *m.user_items):
            assert not a.flags.writeable


@st.composite
def feedback(draw):
    """(n_users, n_items, users, items, timestamps): distinct pairs, random order."""
    n_users, n_items = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    cells = n_users * n_items
    codes = draw(st.lists(st.integers(0, max(cells - 1, 0)), unique=True,
                          max_size=cells))
    ts = draw(st.lists(st.integers(0, 40), min_size=len(codes), max_size=len(codes)))
    users, items = np.divmod(np.asarray(codes, dtype=np.int64), max(n_items, 1))
    return n_users, n_items, users, items, np.asarray(ts, dtype=np.int64)


def _timestamp_of(users, items, ts):
    return {(int(u), int(i)): int(t) for u, i, t in zip(users, items, ts)}


class TestInteractionMatrixProperties:
    @given(feedback())
    @settings(max_examples=80, deadline=None)
    def test_views_agree_with_dense_grid(self, fb):
        n_users, n_items, users, items, ts = fb
        m = d.InteractionMatrix.from_pairs(n_users, n_items, users, items, ts)
        grid = np.zeros((n_users, n_items))
        grid[users, items] = 1.0
        assert m.n_positives == len(users)
        pu, pi = m.pairs()
        # user-major, items ascending within each user
        codes = pu * n_items + pi
        assert (np.diff(codes) > 0).all()
        np.testing.assert_array_equal(m.to_csr().toarray(), grid)
        np.testing.assert_array_equal(m.to_csr_t().toarray(), grid.T)
        assert len(m.user_items) == n_users
        for u, row in enumerate(m.user_items):
            np.testing.assert_array_equal(row, np.flatnonzero(grid[u]))
        assert _timestamp_of(pu, pi, m.timestamps) == _timestamp_of(users, items, ts)

    @given(feedback(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_without_removes_exactly_drop(self, fb, data):
        n_users, n_items, users, items, ts = fb
        m = d.InteractionMatrix.from_pairs(n_users, n_items, users, items, ts)
        picked = data.draw(st.lists(st.sampled_from(range(len(users))), unique=True)
                           if len(users) else st.just([]))
        drop = {(int(users[k]), int(items[k])) for k in picked}
        out = m.without(sorted(drop))
        kept = _timestamp_of(*out.pairs(), out.timestamps)
        before = _timestamp_of(users, items, ts)
        assert kept == {p: t for p, t in before.items() if p not in drop}

    @given(feedback())
    @settings(max_examples=60, deadline=None)
    def test_leave_one_out_partitions_positives(self, fb):
        n_users, n_items, users, items, ts = fb
        m = d.InteractionMatrix.from_pairs(n_users, n_items, users, items, ts)
        train, cases = d.leave_one_out_split(m, n_negatives=2, seed=0)
        held = {(c.user, c.target) for c in cases}
        kept = _timestamp_of(*train.pairs(), train.timestamps)
        before = _timestamp_of(users, items, ts)
        assert not held & kept.keys()
        assert held | kept.keys() == before.keys()
        assert all(before[p] == t for p, t in kept.items())


class TestLoadMovielens:
    def test_remap_and_binarize(self, ml_dir):
        inter, user_ids, item_ids, n_raw = d.load_movielens(ml_dir / "u.data")
        assert inter.n_users == 3 and inter.n_items == 50
        assert n_raw == 53
        # raw (1, 50, 5) becomes positive (0, 49) after the 0-based remap
        assert inter.has(0, 49)
        # rating 3 stays out, but user 2 keeps an (empty) row
        assert len(inter.user_items[1]) == 0
        assert inter.n_positives == 52

    def test_threshold_monotone(self, ml_dir):
        lo = d.load_movielens(ml_dir / "u.data", threshold=4)[0]
        hi = d.load_movielens(ml_dir / "u.data", threshold=5)[0]
        lo_pairs = set(zip(*lo.pairs()))
        hi_pairs = set(zip(*hi.pairs()))
        assert hi_pairs <= lo_pairs

    def test_binarization_idempotent(self, ml_dir):
        a = d.load_movielens(ml_dir / "u.data")[0]
        b = d.load_movielens(ml_dir / "u.data")[0]
        assert set(zip(*a.pairs())) == set(zip(*b.pairs()))

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "u.data"
        p.write_text("1\t2\t5\t100\n1\tbroken\n")
        with pytest.raises(d.DataError, match="u.data:2"):
            d.load_movielens(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "u.data"
        p.write_text("")
        with pytest.raises(d.DataError, match="empty"):
            d.load_movielens(p)

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(d.DataError, match="u.data"):
            d.load_movielens(tmp_path / "u.data")

    def test_id_beyond_64_bits_rejected(self, tmp_path):
        p = tmp_path / "u.data"
        p.write_text("1\t2\t5\t100\n99999999999999999999\t3\t4\t101\n")
        with pytest.raises(d.DataError, match="u.data: id or timestamp beyond 64 bits"):
            d.load_movielens(p)


class TestVectorize:
    def test_gender_one_hot(self):
        v = d.encode_demographics(24, "M", "engineer", "85711", ["educator", "engineer"])
        age_dim = len(d._AGE_EDGES) + 1
        np.testing.assert_array_equal(v[age_dim:age_dim + 2], [1.0, 0.0])

    def test_empty_description_zero_vector(self):
        mat, vocab = d.bag_of_words([["alpha", "beta"], []])
        assert mat[[1]].nnz == 0
        assert np.linalg.norm(mat[[1]].toarray()) == 0.0

    def test_bow_rows_l2_normalized(self):
        mat, _ = d.bag_of_words([["a1", "b2", "b2"], ["a1"]])
        norms = np.sqrt(mat.multiply(mat).sum(axis=1)).ravel()
        np.testing.assert_allclose(norms, [1.0, 1.0], atol=1e-12)

    def test_bow_df_cap(self):
        docs = [[f"term{k}"] for k in range(10)] + [["common"]] * 5
        mat, vocab = d.bag_of_words(docs, max_terms=3)
        assert "common" in vocab and len(vocab) == 3

    def test_ml100k_genres_pass_through(self, ml_dir):
        inter, user_ids, item_ids, _ = d.load_movielens(ml_dir / "u.data")
        side = d.vectorize_side_info("ml-100k", ml_dir, user_ids, item_ids)
        # direct file read oracle on 5 spot-checked movies
        raw = {
            int(line.split("|")[0]): [float(x) for x in line.split("|")[5:24]]
            for line in (ml_dir / "u.item").read_text(encoding="latin-1").splitlines()
        }
        for raw_id in (1, 7, 19, 30, 50):
            row = side.item_features[[int(np.searchsorted(item_ids, raw_id))]].toarray()[0]
            np.testing.assert_array_equal(row[:19], raw[raw_id])

    USER_FILES = (
        ("u.user", "|", d.ML100K_USER_FIELDS,
         "1|24|M|technician|85711\n2|53|F|other|94043\n"),
        ("users.dat", "::", d.ML1M_USER_FIELDS,
         "1::M::24::technician::85711\n2::F::53::other::94043\n"),
    )

    def test_movielens_user_formats_agree(self, tmp_path):
        # the same two users in the ML-100K and the ML-1M field order
        mats = []
        for name, sep, fields, text in self.USER_FILES:
            (tmp_path / name).write_text(text)
            mats.append(d.vectorize_movielens_users(tmp_path / name, [1, 2], sep, fields))
        a, b = mats
        assert a.shape == b.shape and a.nnz == b.nnz
        np.testing.assert_array_equal(a.toarray(), b.toarray())
        occupations = ["other", "technician"]
        np.testing.assert_array_equal(
            a.toarray(),
            [d.encode_demographics(24, "M", "technician", "85711", occupations),
             d.encode_demographics(53, "F", "other", "94043", occupations)],
        )

    def test_movielens_user_short_line_rejected(self, tmp_path):
        for name, sep, fields, text in self.USER_FILES:
            short = text.splitlines()[0].rsplit(sep, 1)[0]
            (tmp_path / name).write_text(text + short + "\n")
            with pytest.raises(d.DataError, match=f"{name}:3: expected 5 fields"):
                d.vectorize_movielens_users(tmp_path / name, [1, 2], sep, fields)

    def test_user_without_metadata_gets_zero_vector(self, ml_dir, caplog):
        (ml_dir / "u.user").write_text("1|24|M|engineer|85711\n")
        inter, user_ids, item_ids, _ = d.load_movielens(ml_dir / "u.data")
        with caplog.at_level("INFO"):
            side = d.vectorize_side_info("ml-100k", ml_dir, user_ids, item_ids)
        assert side.user_features[[1]].nnz == 0
        assert any("zero feature" in r.message for r in caplog.records)


class TestMl1m:
    def test_genres_one_hot_in_sorted_order_then_title_bow(self, ml1m_dir):
        inter, user_ids, item_ids, n_raw = d.load_movielens(ml1m_dir / "ratings.dat")
        assert n_raw == 12 and list(item_ids) == sorted(ML1M_MOVIES)
        side = d.vectorize_side_info("ml-1m", ml1m_dir, user_ids, item_ids)
        names = sorted({g for _, genres in ML1M_MOVIES.values() for g in genres.split("|")})
        assert names[:3] == ["Action", "Adventure", "Animation"] and len(names) == 10
        bow, _ = d.bag_of_words([d.tokenize(ML1M_MOVIES[i][0]) for i in item_ids])
        features = side.item_features.toarray()
        assert features.shape == (5, len(names) + bow.shape[1])
        for r, raw_id in enumerate(item_ids):
            genres = ML1M_MOVIES[raw_id][1].split("|")
            np.testing.assert_array_equal(features[r, :len(names)],
                                          [float(g in genres) for g in names])
        np.testing.assert_array_equal(features[:, len(names):], bow.toarray())


class TestLastfm:
    def test_header_rows_skipped(self, lastfm_dir):
        inter, user_ids, item_ids, n_raw = d.load_lastfm(lastfm_dir)
        assert n_raw == 8 and inter.n_positives == 8
        assert list(user_ids) == [2, 3, 4, 5] and list(item_ids) == [51, 52, 53, 54, 55]

    def test_friends_outside_feedback_dropped(self, lastfm_dir):
        _, user_ids, item_ids, _ = d.load_lastfm(lastfm_dir)
        side = d.vectorize_side_info("lastfm-2k", lastfm_dir, user_ids, item_ids)
        # user 9 befriends user 2 but has no listens
        np.testing.assert_array_equal(
            side.user_features.toarray(),
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        )

    def test_tag_bags_l2_normalised(self, lastfm_dir):
        _, user_ids, item_ids, _ = d.load_lastfm(lastfm_dir)
        side = d.vectorize_side_info("lastfm-2k", lastfm_dir, user_ids, item_ids)
        # artist 51 has tag 7 twice and tag 12 once; artist 99 has no listens
        np.testing.assert_allclose(
            side.item_features.toarray(),
            [[2 / np.sqrt(5), 1 / np.sqrt(5)], [0, 0], [1, 0], [0, 0], [0, 0]],
            rtol=1e-15,
        )


def test_unknown_dataset_rejected(ml_dir):
    with pytest.raises(d.DataError, match="unknown dataset: netflix"):
        d.prepare_dataset("netflix", ml_dir)


class TestLeaveOneOut:
    def test_latest_positive_held_out(self):
        inter = d.InteractionMatrix.from_pairs(1, 5, [0, 0], [0, 1], [1, 9])
        train, cases = d.leave_one_out_split(inter, n_negatives=2, seed=0)
        assert cases[0].target == 1
        assert train.has(0, 0) and not train.has(0, 1)

    def test_timestamp_tie_takes_larger_item(self):
        inter = d.InteractionMatrix.from_pairs(1, 5, [0, 0], [2, 4], [7, 7])
        _, cases = d.leave_one_out_split(inter, n_negatives=2, seed=0)
        assert cases[0].target == 4

    def test_single_positive_user_excluded(self):
        inter = d.InteractionMatrix.from_pairs(2, 5, [0, 1, 1], [0, 1, 2], [1, 1, 2])
        train, cases = d.leave_one_out_split(inter, n_negatives=2, seed=0)
        assert [c.user for c in cases] == [1]
        assert train.has(0, 0)  # lone positive stays in training

    def test_one_case_per_qualifying_user(self, ml_dir):
        inter = d.load_movielens(ml_dir / "u.data")[0]
        qualifying = sum(len(v) >= 2 for v in inter.user_items)
        _, cases = d.leave_one_out_split(inter, seed=3)
        assert len(cases) == qualifying
        assert len({c.user for c in cases}) == len(cases)

    def test_truncated_negatives_flagged(self):
        inter = d.InteractionMatrix.from_pairs(1, 5, [0, 0], [0, 1], [1, 2])
        _, cases = d.leave_one_out_split(inter, n_negatives=99, seed=0)
        assert cases[0].truncated and len(cases[0].negatives) == 3

    def test_train_test_disjoint_and_negative_purity(self, ml_dir):
        inter = d.load_movielens(ml_dir / "u.data")[0]
        train, cases = d.leave_one_out_split(inter, n_negatives=10, seed=1)
        for c in cases:
            assert not train.has(c.user, c.target)
            positives = set(inter.user_items[c.user])
            assert not positives & set(c.negatives)
            assert len(set(c.negatives)) == len(c.negatives)

    def test_seed_reproducible(self, ml_dir):
        inter = d.load_movielens(ml_dir / "u.data")[0]
        _, a = d.leave_one_out_split(inter, n_negatives=10, seed=5)
        _, b = d.leave_one_out_split(inter, n_negatives=10, seed=5)
        for ca, cb in zip(a, b):
            assert ca.user == cb.user and ca.target == cb.target
            np.testing.assert_array_equal(ca.negatives, cb.negatives)


class TestSampleMinibatch:
    @pytest.fixture
    def train(self):
        rng = np.random.default_rng(0)
        users, items = np.nonzero(rng.random((10, 30)) < 0.25)
        return d.InteractionMatrix.from_pairs(10, 30, users, items)

    def test_pair_counts(self, train):
        users, items, labels = d.sample_minibatch(train, 21, 5, np.random.default_rng(1))
        assert len(users) == 126
        assert (labels == 0).sum() == 105

    def test_zero_neg_ratio(self, train):
        users, items, labels = d.sample_minibatch(train, 8, 0, np.random.default_rng(2))
        assert len(users) == 8 and (labels == 1).all()

    def test_negatives_unobserved(self, train):
        users, items, labels = d.sample_minibatch(train, 16, 5, np.random.default_rng(3))
        for u, i, l in zip(users, items, labels):
            assert train.has(int(u), int(i)) == bool(l)

    def test_positive_sampling_uniform(self):
        # chi-square oracle over the sampled positive counts
        inter = d.InteractionMatrix.from_pairs(4, 5, [0, 0, 1, 1, 2, 2, 3, 3],
                                               [0, 1, 1, 2, 3, 4, 0, 4])
        rng = np.random.default_rng(7)
        counts = np.zeros(8)
        draws, per_draw = 12_500, 8
        users, items = inter.pairs()
        code = {(int(u), int(i)): k for k, (u, i) in enumerate(zip(users, items))}
        for _ in range(draws):
            bu, bi, bl = d.sample_minibatch(inter, per_draw, 0, rng)
            for u, i in zip(bu, bi):
                counts[code[(int(u), int(i))]] += 1
        total = draws * per_draw
        expected = total / 8
        sigma = np.sqrt(total * (1 / 8) * (7 / 8))
        assert (np.abs(counts - expected) < 3 * sigma).all()
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 26.12  # chi2(7) at p=0.0005

    def test_oversized_batch_samples_with_replacement(self, train, caplog):
        n_pos = train.n_positives
        with caplog.at_level("WARNING"):
            users, _, _ = d.sample_minibatch(train, n_pos + 10, 0, np.random.default_rng(4))
        assert len(users) == n_pos + 10
        assert any("replacement" in r.message for r in caplog.records)

    def test_seeded_determinism(self, train):
        a = d.sample_minibatch(train, 12, 3, np.random.default_rng(11))
        b = d.sample_minibatch(train, 12, 3, np.random.default_rng(11))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


@st.composite
def rating_tables(draw):
    n = draw(st.integers(1, 30))
    users = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    items = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    ratings = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    seen = set()
    rows = []
    for u, i, r in zip(users, items, ratings):
        if (u, i) not in seen:
            seen.add((u, i))
            rows.append((u, i, r))
    return rows


@given(rating_tables(), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_binarization_threshold_monotone(rows, threshold):
    def positives(th):
        return {(u, i) for u, i, r in rows if r >= th}

    assert positives(threshold + 1) <= positives(threshold)


class TestColdSplit:
    @pytest.fixture
    def inter(self):
        rng = np.random.default_rng(5)
        users, items = np.nonzero(rng.random((20, 30)) < 0.4)
        return d.InteractionMatrix.from_pairs(20, 30, users, items)

    @pytest.fixture
    def side(self, inter):
        from scipy import sparse

        rng = np.random.default_rng(6)
        return d.SideInfo(
            sparse.csr_array(rng.random((20, 4))), sparse.csr_array(rng.random((30, 5)))
        )

    def test_zero_fraction_equals_base_split(self, inter, side):
        split = d.make_cold_split(inter, side, fraction=0.0, seed=9)
        assert not any(c.cold for c in split.val_cases + split.test_cases)
        n = inter.n_positives
        assert split.train.n_positives == int(0.8 * n)

    def test_cold_users_have_no_training_history(self, inter, side):
        split = d.make_cold_split(inter, side, fraction=0.3, mode="user", seed=9)
        for c in split.test_cases:
            if c.cold:
                assert c.user >= inter.n_users  # synthetic id
                assert c.source_user < inter.n_users
        # synthetic ids never appear in training (train keeps original dims)
        assert split.train.n_users == inter.n_users

    def test_cold_count(self, inter, side):
        split = d.make_cold_split(inter, side, fraction=0.3, seed=10)
        n_test = len(split.test_cases)
        assert sum(c.cold for c in split.test_cases) == round(0.3 * n_test)

    def test_zero_cold_samples_is_error(self):
        inter = d.InteractionMatrix.from_pairs(2, 5, [0, 0, 1, 1], [0, 1, 2, 3])
        from scipy import sparse

        side = d.SideInfo(sparse.csr_array(np.ones((2, 2))), sparse.csr_array(np.ones((5, 2))))
        with pytest.raises(d.DataError, match="zero cold"):
            d.make_cold_split(inter, side, fraction=0.01, seed=0)

    def test_cold_side_info_copies_source(self, inter, side):
        split = d.make_cold_split(inter, side, fraction=0.3, mode="user", seed=11)
        case = next(c for c in split.test_cases if c.cold)
        np.testing.assert_array_equal(
            split.feature_row(side, case).toarray(),
            side.user_features[[case.source_user]].toarray(),
        )

    def test_item_mode_symmetric(self, inter, side):
        split = d.make_cold_split(inter, side, fraction=0.3, mode="item", seed=12)
        cold = [c for c in split.test_cases if c.cold]
        assert cold and all(c.target >= inter.n_items for c in cold)
        assert all(c.source_item < inter.n_items for c in cold)


def split_digest(train, cases) -> str:
    """sha256 over a split's training pairs and every field of its cases."""
    h = hashlib.sha256()
    for a in train.pairs():
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    for c in cases:
        h.update(repr((c.user, c.target, c.truncated, getattr(c, "cold", None),
                       getattr(c, "source_user", None),
                       getattr(c, "source_item", None))).encode())
        h.update(np.asarray(c.negatives, dtype=np.int64).tobytes())
    return h.hexdigest()


class TestNegativeDraw:
    """Both splits draw negatives through one helper; the draws, and so the
    RNG streams and caches, are pinned to the digests of earlier releases."""

    def test_leave_one_out_digest(self, ml_dir, caplog):
        ds = d.prepare_dataset("ml-100k", ml_dir, seed=4, n_negatives=10)
        assert [c.truncated for c in ds.eval_cases] == [True, False]
        assert "user 0 has only 0 negative candidates" in caplog.text
        assert split_digest(ds.train, ds.eval_cases) == (
            "e750b4b3531dc315336891825f2331284b0242effaf415e26ba1e7ed9b1a5cba")

    def test_cold_split_digest_and_truncation_logged(self, caplog):
        from scipy import sparse

        rng = np.random.default_rng(5)
        users, items = np.nonzero(rng.random((20, 30)) < 0.4)
        inter = d.InteractionMatrix.from_pairs(20, 30, users, items)
        rng = np.random.default_rng(6)
        side = d.SideInfo(sparse.csr_array(rng.random((20, 4))),
                          sparse.csr_array(rng.random((30, 5))))
        split = d.make_cold_split(inter, side, fraction=0.3, mode="user", seed=9,
                                  n_negatives=15)
        cases = split.val_cases + split.test_cases
        assert sum(c.truncated for c in cases) == 4
        assert "user 6 has only 13 negative candidates" in caplog.text
        assert split_digest(split.train, cases) == (
            "2cb90769f96b804ae9eba2f2471f7bc0de0b0bb740ec14c3f6e0cf29fbf3d2dc")


class TestCache:
    def make_dataset(self, ml_dir, seed=4):
        return d.prepare_dataset("ml-100k", ml_dir, seed=seed, n_negatives=10)

    def test_round_trip(self, ml_dir, tmp_path):
        ds = self.make_dataset(ml_dir)
        path = tmp_path / "cache.npz"
        d.save_dataset(ds, path)
        back = d.load_dataset(path)
        assert back.name == ds.name and back.seed == ds.seed
        assert back.n_users == ds.n_users and back.n_items == ds.n_items
        for part in ("interactions", "train"):
            for a, b in zip(getattr(back, part).pairs(), getattr(ds, part).pairs()):
                np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(back.interactions.timestamps,
                                      ds.interactions.timestamps)
        assert len(back.eval_cases) == len(ds.eval_cases)
        for a, b in zip(back.eval_cases, ds.eval_cases):
            assert a.user == b.user and a.target == b.target
            np.testing.assert_array_equal(a.negatives, b.negatives)
        np.testing.assert_array_equal(
            back.side.item_features.toarray(), ds.side.item_features.toarray()
        )

    def test_same_seed_byte_identical(self, ml_dir, tmp_path):
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        d.save_dataset(self.make_dataset(ml_dir), p1)
        d.save_dataset(self.make_dataset(ml_dir), p2)
        assert hashlib.sha256(p1.read_bytes()).hexdigest() == (
            hashlib.sha256(p2.read_bytes()).hexdigest()
        )

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.npz"
        np.savez(path, a=np.ones(2))
        with pytest.raises(d.DataError, match="not a dataset cache"):
            d.load_dataset(path)



class TestRewrite:
    """The CSV writers that rewrite their files go through `data.rewrite`."""

    ROW = {"epoch": 1, "loss": 2.5, "val_hr5": 0.1, "val_ndcg5": 0.05}
    WRITERS = {
        "csv": lambda p: cli._write_csv(["a", "b"], [[1, 2]], p, "rows"),
        "history": lambda p: write_history([TestRewrite.ROW], p, 7),
    }

    @pytest.mark.parametrize("name", WRITERS)
    def test_longer_file_left_with_exactly_new_bytes(self, name, tmp_path, monkeypatch):
        write = self.WRITERS[name]
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        write(fresh)
        old.write_bytes(b"x" * (fresh.stat().st_size + 4096))
        flags = []
        os_open = d.os.open
        monkeypatch.setattr(d.os, "open",
                            lambda path, fl, *a: flags.append(fl) or os_open(path, fl, *a))
        write(old)
        assert old.read_bytes() == fresh.read_bytes()
        assert flags and not any(fl & d.os.O_TRUNC for fl in flags)

    @pytest.mark.parametrize("name", WRITERS)
    def test_device_written_without_cut(self, name):
        self.WRITERS[name](os.devnull)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_written_without_cut(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()))
        reader.start()
        try:
            self.WRITERS["history"](fifo)
        finally:
            reader.join(timeout=10)
        assert got and got[0].startswith("# seed=7\nepoch,")

    def test_failed_write_leaves_only_bytes_written(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old,rows\n" * 100)
        with pytest.raises(RuntimeError), d.rewrite(path) as fh:
            fh.write("new\n")
            raise RuntimeError("disk full")
        assert path.read_text() == "new\n"
