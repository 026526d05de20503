import json
import shutil

import numpy as np
import pytest

from cvrec import cli
from cvrec import evaluate as ev
from cvrec import train as tr
from cvrec.data import load_dataset, prepare_dataset
from cvrec.model import load_checkpoint


@pytest.fixture
def raw_dir(tmp_path):
    """Synthetic ml-100k-format raw files: 12 users, 25 items, blocky taste."""
    rng = np.random.default_rng(0)
    rows = []
    t = 880_000_000
    for u in range(1, 13):
        for i in range(1, 26):
            match = (u % 2) == (i % 2)
            if rng.random() < (0.75 if match else 0.08):
                rating = 4 + int(rng.random() < 0.5)
                rows.append((u, i, rating, t))
                t += 17
            elif rng.random() < 0.1:
                rows.append((u, i, rng.integers(1, 4), t))
                t += 13
    d = tmp_path / "raw"
    d.mkdir()
    (d / "u.data").write_text("".join(f"{u}\t{i}\t{r}\t{ts}\n" for u, i, r, ts in rows))
    occ = ["artist", "doctor", "engineer"]
    (d / "u.user").write_text(
        "".join(f"{u}|{20 + u}|{'MF'[u % 2]}|{occ[u % 3]}|{10000 + u}\n"
                for u in range(1, 13))
    )
    genre_count = 19
    lines = []
    for i in range(1, 26):
        flags = ["0"] * genre_count
        flags[i % genre_count] = "1"
        lines.append(f"{i}|Film {i} (200{i % 10})|01-Jan-2000||url|" + "|".join(flags))
    (d / "u.item").write_text("\n".join(lines) + "\n", encoding="latin-1")
    return d


RAW_DIRS = {"ml-100k": "raw_dir", "ml-1m": "ml1m_dir", "lastfm-2k": "lastfm_dir"}

# one row per raw file that its reader must reject: a non-numeric id or flag,
# or a ratings row with only three fields
BAD_ROWS = [
    pytest.param("ml-100k", "u.data", "3\tx\t4\t880000001", id="u.data"),
    pytest.param("ml-100k", "u.user", "x|30|M|artist|10013", id="u.user"),
    pytest.param("ml-100k", "u.item",
                 "26|Film 26 (2006)|01-Jan-2000||url|" + "|".join(["0"] * 18 + ["x"]),
                 id="u.item"),
    pytest.param("ml-1m", "ratings.dat", "4::x::5::978300099", id="ratings.dat"),
    pytest.param("ml-1m", "ratings.dat", "4::5::3", id="ratings.dat-three-fields"),
    pytest.param("ml-1m", "users.dat", "x::M::25::4::55455", id="users.dat"),
    pytest.param("ml-1m", "movies.dat", "x::Film (2000)::Drama", id="movies.dat"),
    pytest.param("lastfm-2k", "user_artists.dat", "2\tx\t10", id="user_artists.dat"),
    pytest.param("lastfm-2k", "user_friends.dat", "x\t3", id="user_friends.dat"),
    pytest.param("lastfm-2k", "user_taggedartists.dat", "2\t51\tx\t1\t5\t2008",
                 id="user_taggedartists.dat"),
]


@pytest.fixture
def small_config_file(tmp_path):
    cfg = {
        "batch_positives": 12,
        "neg_ratio": 3,
        "learning_rate": 3e-3,
        "max_epochs": 12,
        "patience": 12,
        "seed": 3,
        "latent_dim": 6,
        "prior_hidden": 10,
        "inference_hidden": [14, 10],
        "decoder_hidden": [10, 14],
        "val_users": 0,
        "val_samples": 8,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def one_epoch_config(tmp_path):
    path = tmp_path / "one_epoch.json"
    path.write_text(json.dumps({
        "batch_positives": 8, "neg_ratio": 2, "max_epochs": 1,
        "latent_dim": 6, "prior_hidden": 8, "inference_hidden": [10, 8],
        "decoder_hidden": [8, 10], "val_users": 0,
    }))
    return path


@pytest.fixture
def cache(raw_dir, tmp_path):
    out = tmp_path / "cache.npz"
    rc = cli.main(["prepare", "--dataset", "ml-100k", "--in", str(raw_dir),
                   "--out", str(out), "--seed", "5", "--negatives", "10"])
    assert rc == 0
    return out


@pytest.fixture
def checkpoint(cache, small_config_file, tmp_path):
    ckpt = tmp_path / "model.npz"
    rc = cli.main(["train", "--data", str(cache), "--config",
                   str(small_config_file), "--out", str(ckpt)])
    assert rc == 0
    return ckpt


class TestPrepare:
    def test_prints_dataset_statistics(self, raw_dir, tmp_path, capsys):
        out = tmp_path / "c.npz"
        rc = cli.main(["prepare", "--dataset", "ml-100k", "--in", str(raw_dir),
                       "--out", str(out), "--negatives", "10"])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "users: 12" in captured and "items: 25" in captured
        assert "sparsity" in captured
        assert load_dataset(out).n_users == 12

    def test_same_seed_byte_identical(self, raw_dir, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        for out in (a, b):
            cli.main(["prepare", "--dataset", "ml-100k", "--in", str(raw_dir),
                      "--out", str(out), "--seed", "9", "--negatives", "10"])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_dataset_usage_error(self, raw_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["prepare", "--dataset", "netflix", "--in", str(raw_dir)])
        assert exc.value.code == 2

    def test_missing_files_exit_4(self, tmp_path, caplog):
        rc = cli.main(["prepare", "--dataset", "ml-100k", "--in",
                       str(tmp_path / "nope"), "--out", str(tmp_path / "c.npz")])
        assert rc == 4
        assert any("u.data" in r.message for r in caplog.records)

    def test_cache_dir_env_override(self, raw_dir, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cachedir"
        cache_dir.mkdir()
        monkeypatch.setenv("CVREC_CACHE_DIR", str(cache_dir))
        rc = cli.main(["prepare", "--dataset", "ml-100k", "--in", str(raw_dir),
                       "--negatives", "10"])
        assert rc == 0
        assert (cache_dir / "ml-100k.npz").exists()

    @pytest.mark.parametrize("dataset", ["ml-1m", "lastfm-2k"])
    def test_cache_round_trips(self, request, dataset, tmp_path):
        raw = request.getfixturevalue(RAW_DIRS[dataset])
        out = tmp_path / "c.npz"
        rc = cli.main(["prepare", "--dataset", dataset, "--in", str(raw),
                       "--out", str(out), "--seed", "2", "--negatives", "2"])
        assert rc == 0
        back, ref = load_dataset(out), prepare_dataset(dataset, raw, seed=2, n_negatives=2)
        assert (back.name, back.seed) == (dataset, 2)
        for part in ("interactions", "train"):
            for a, b in zip(getattr(back, part).pairs(), getattr(ref, part).pairs()):
                np.testing.assert_array_equal(a, b)
        assert [(c.user, c.target, list(c.negatives)) for c in back.eval_cases] == (
            [(c.user, c.target, list(c.negatives)) for c in ref.eval_cases])
        for part in ("user_features", "item_features"):
            np.testing.assert_array_equal(getattr(back.side, part).toarray(),
                                          getattr(ref.side, part).toarray())

    @pytest.mark.parametrize("dataset, name, row", BAD_ROWS)
    def test_malformed_raw_row_exit_4(self, request, dataset, name, row, tmp_path,
                                      caplog):
        raw = request.getfixturevalue(RAW_DIRS[dataset])
        line_no = len((raw / name).read_text(encoding="latin-1").splitlines()) + 1
        with open(raw / name, "a", encoding="latin-1") as fh:
            fh.write(row + "\n")
        rc = cli.main(["prepare", "--dataset", dataset, "--in", str(raw),
                       "--out", str(tmp_path / "c.npz"), "--negatives", "2"])
        assert rc == 4
        assert any(f"{name}:{line_no}:" in r.message for r in caplog.records)


class TestTrain:
    def test_writes_checkpoint_and_history(self, cache, small_config_file, tmp_path):
        ckpt = tmp_path / "m.npz"
        rc = cli.main(["train", "--data", str(cache), "--config",
                       str(small_config_file), "--out", str(ckpt)])
        assert rc == 0
        model, meta = load_checkpoint(ckpt)
        assert meta["seed"] == 3
        assert meta["extra"]["split"] == "loo"
        history = ckpt.with_suffix(".history.csv")
        lines = history.read_text().splitlines()
        assert lines[0] == "# seed=3"
        assert lines[1] == "epoch,loss,val_hr5,val_ndcg5"
        assert len(lines) == 2 + 12

    def test_variant_flag_recorded_in_checkpoint(self, cache, small_config_file,
                                                 tmp_path):
        ckpt = tmp_path / "m.npz"
        rc = cli.main(["train", "--data", str(cache), "--config",
                       str(small_config_file), "--out", str(ckpt),
                       "--variant", "nvh-n"])
        assert rc == 0
        model, _ = load_checkpoint(ckpt)
        assert not model.use_user_prior and not model.use_item_prior

    def test_missing_config_keys_fall_back(self, cache, tmp_path, caplog):
        cfg = tmp_path / "partial.json"
        cfg.write_text(json.dumps({
            "max_epochs": 2, "latent_dim": 6, "prior_hidden": 8,
            "inference_hidden": [10, 8], "decoder_hidden": [8, 10],
            "batch_positives": 8, "val_users": 0,
        }))
        with caplog.at_level("INFO"):
            rc = cli.main(["train", "--data", str(cache), "--config", str(cfg)])
        assert rc == 0
        assert any("missing" in r.message for r in caplog.records)

    def test_missing_cache_exit_4(self, tmp_path):
        rc = cli.main(["train", "--data", str(tmp_path / "no.npz")])
        assert rc == 4

    @pytest.mark.parametrize("key", ["mc_samples", "val_samples", "latent_dim"])
    def test_zero_config_value_exit_2(self, cache, small_config_file, tmp_path,
                                      key, caplog):
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps({**json.loads(small_config_file.read_text()), key: 0}))
        ckpt = tmp_path / "m.npz"
        rc = cli.main(["train", "--data", str(cache), "--config", str(cfg),
                       "--out", str(ckpt)])
        assert rc == 2
        assert not ckpt.exists()
        assert any(key in r.message for r in caplog.records)

    @pytest.mark.parametrize("key,value", [("max_epochs", 0), ("patience", 0),
                                           ("val_users", -5)])
    def test_no_epoch_or_negative_validation_exit_2(self, cache, small_config_file,
                                                    tmp_path, key, value, monkeypatch,
                                                    caplog):
        fitted = []
        monkeypatch.setattr(tr, "fit", lambda *args, **kwargs: fitted.append(args))
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**json.loads(small_config_file.read_text()),
                                   key: value}))
        ckpt = tmp_path / "m.npz"
        rc = cli.main(["train", "--data", str(cache), "--config", str(cfg),
                       "--out", str(ckpt)])
        assert rc == 2
        assert not fitted and not ckpt.exists()
        assert any(key in r.message for r in caplog.records)

    @pytest.mark.parametrize("key,value", [("learning_rate", float("nan")),
                                           ("learning_rate", float("inf")),
                                           ("grad_clip", float("nan"))])
    def test_non_finite_config_value_exit_2(self, cache, small_config_file, tmp_path,
                                            key, value, monkeypatch, caplog):
        # json writes NaN and Infinity, and json.load reads them back
        fitted = []
        monkeypatch.setattr(tr, "fit", lambda *args, **kwargs: fitted.append(args))
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**json.loads(small_config_file.read_text()),
                                   key: value}))
        ckpt = tmp_path / "m.npz"
        rc = cli.main(["train", "--data", str(cache), "--config", str(cfg),
                       "--out", str(ckpt)])
        assert rc == 2
        assert not fitted and not ckpt.exists()
        assert any(key in r.message for r in caplog.records)


class TestEvaluate:
    def test_prints_table_and_csv(self, cache, checkpoint, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        rc = cli.main(["evaluate", "--data", str(cache), "--ckpt", str(checkpoint),
                       "--k", "5,10", "--samples", "16", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "HR" in printed and "NDCG" in printed
        lines = out.read_text().splitlines()
        assert lines[0] == "section,k,hr,ndcg,cases,seed,fingerprint"
        assert len(lines) == 3

    def test_zero_samples_exit_2(self, cache, checkpoint, caplog, capsys):
        rc = cli.main(["evaluate", "--data", str(cache), "--ckpt", str(checkpoint),
                       "--samples", "0"])
        assert rc == 2
        assert capsys.readouterr().out == ""
        assert any("n_samples" in r.message for r in caplog.records)


    def test_short_timestamps_in_cache_exit_4(self, cache, checkpoint, tmp_path,
                                              caplog, capsys):
        with np.load(cache) as data:
            arrays = dict(data)
        arrays["inter_ts"] = arrays["inter_ts"][:-1]
        corrupt = tmp_path / "corrupt.npz"
        np.savez_compressed(corrupt, **arrays)
        rc = cli.main(["evaluate", "--data", str(corrupt), "--ckpt", str(checkpoint),
                       "--samples", "8"])
        assert rc == 4
        assert capsys.readouterr().out == ""
        assert any("differ in length" in r.message for r in caplog.records)


class TestCutoffs:
    @pytest.mark.parametrize("k", ["0", "-3", "0,5"])
    def test_evaluate_k_below_one_exit_2(self, cache, checkpoint, k, caplog, capsys):
        rc = cli.main(["evaluate", "--data", str(cache), "--ckpt", str(checkpoint),
                       "--samples", "8", f"--k={k}"])
        assert rc == 2
        assert capsys.readouterr().out == ""
        assert any("--k" in r.message for r in caplog.records)

    def test_eval_cold_k_below_one_exit_2(self, cache, checkpoint, caplog, capsys):
        rc = cli.main(["eval-cold", "--data", str(cache), "--ckpt", str(checkpoint),
                       "--mode", "user", "--samples", "8", "--k=0,5"])
        assert rc == 2
        assert capsys.readouterr().out == ""
        assert any("--k" in r.message for r in caplog.records)

    @pytest.mark.parametrize(
        "command,flag",
        [(["ablate"], "--k=5,0"),
         (["sweep", "--param", "dim", "--values", "6"], "--k=5,0"),
         (["ablate"], "--samples=0"),
         (["sweep", "--param", "dim", "--values", "6"], "--samples=0")],
        ids=["command0", "command1", "ablate-samples", "sweep-samples"],
    )
    def test_rejected_before_training(self, cache, command, flag, monkeypatch, caplog,
                                      capsys):
        fitted = []
        monkeypatch.setattr(tr, "fit", lambda *args, **kwargs: fitted.append(args))
        # the last --samples wins, so "--samples=0" overrides the 8
        rc = cli.main([*command, "--data", str(cache), "--samples", "8", flag])
        assert rc == 2
        assert not fitted
        assert capsys.readouterr().out == ""
        assert any(flag.split("=")[0] in r.message for r in caplog.records)


class TestColdPipeline:
    def test_cold_train_then_eval(self, cache, small_config_file, tmp_path, capsys):
        ckpt = tmp_path / "cold.npz"
        rc = cli.main(["train", "--data", str(cache), "--config",
                       str(small_config_file), "--out", str(ckpt),
                       "--split", "cold-user", "--fraction", "0.3"])
        assert rc == 0
        rc = cli.main(["eval-cold", "--data", str(cache), "--ckpt", str(ckpt),
                       "--mode", "user", "--fraction", "0.3", "--samples", "16",
                       "--k", "5"])
        assert rc == 0
        assert "[all]" in capsys.readouterr().out

    def test_mode_mismatch_exit_4(self, cache, checkpoint, caplog):
        rc = cli.main(["eval-cold", "--data", str(cache), "--ckpt",
                       str(checkpoint), "--mode", "user", "--samples", "8"])
        assert rc == 4
        assert any("split" in r.message for r in caplog.records)


class TestPredict:
    def test_csv_output_with_ranks(self, cache, checkpoint, capsys):
        rc = cli.main(["predict", "--data", str(cache), "--ckpt", str(checkpoint),
                       "--user", "2", "--items", "1,4,7", "--samples", "16"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "user,item,score,rank"
        assert len(lines) == 4
        ranks = [int(l.split(",")[3]) for l in lines[1:]]
        assert ranks == [1, 2, 3]
        scores = [float(l.split(",")[2]) for l in lines[1:]]
        assert scores == sorted(scores, reverse=True)

    def test_all_unseen_with_topk(self, cache, checkpoint, capsys):
        rc = cli.main(["predict", "--data", str(cache), "--ckpt", str(checkpoint),
                       "--user", "0", "--topk", "5", "--samples", "8"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6

    def test_all_unseen_excludes_training_items(self, cache, checkpoint, capsys):
        rc = cli.main(["predict", "--data", str(cache), "--ckpt", str(checkpoint),
                       "--user", "3", "--samples", "8"])
        assert rc == 0
        items = [int(l.split(",")[1]) for l in capsys.readouterr().out.splitlines()[1:]]
        dataset = load_dataset(cache)
        seen = set(dataset.train.user_items[3].tolist())
        assert sorted(items) == [j for j in range(dataset.n_items) if j not in seen]

    @pytest.mark.parametrize("ids", [["--user", "-1"], ["--user", "999"],
                                     ["--user", "0", "--items", "1,-1"],
                                     ["--user", "0", "--items", "1,999"]])
    def test_out_of_range_ids_exit_2(self, cache, checkpoint, ids, caplog, capsys):
        rc = cli.main(["predict", "--data", str(cache), "--ckpt", str(checkpoint),
                       "--samples", "8", *ids])
        assert rc == 2
        assert capsys.readouterr().out == ""
        assert any("out of range" in r.message for r in caplog.records)

    def test_repeated_item_id_exit_2(self, cache, checkpoint, caplog, capsys):
        rc = cli.main(["predict", "--data", str(cache), "--ckpt", str(checkpoint),
                       "--samples", "8", "--user", "0", "--items", "3,1,3"])
        assert rc == 2
        assert capsys.readouterr().out == ""
        assert any("repeats" in r.message for r in caplog.records)

    def test_zero_samples_exit_2(self, cache, checkpoint, caplog, capsys):
        rc = cli.main(["predict", "--data", str(cache), "--ckpt", str(checkpoint),
                       "--user", "0", "--samples", "0"])
        assert rc == 2
        assert capsys.readouterr().out == ""
        assert any("n_samples" in r.message for r in caplog.records)

    @pytest.mark.parametrize("topk", ["0", "-25"])
    def test_topk_below_one_exit_2(self, cache, checkpoint, topk, caplog, capsys):
        rc = cli.main(["predict", "--data", str(cache), "--ckpt", str(checkpoint),
                       "--user", "0", "--samples", "8", f"--topk={topk}"])
        assert rc == 2
        assert capsys.readouterr().out == ""
        assert any("--topk" in r.message for r in caplog.records)


class TestAblate:
    def test_table_covers_variants(self, cache, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "batch_positives": 8, "neg_ratio": 2, "max_epochs": 2,
            "latent_dim": 6, "prior_hidden": 8, "inference_hidden": [10, 8],
            "decoder_hidden": [8, 10], "val_users": 0, "seed": 4,
        }))
        rc = cli.main(["ablate", "--data", str(cache), "--config", str(cfg),
                       "--samples", "8", "--k", "10"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "variant,seed,hr@10,ndcg@10"
        assert {l.split(",")[0] for l in lines[1:]} == {"nvh", "nvh-n", "nvh-u", "nvh-i"}

    def test_four_variants_share_splits(self, cache, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "batch_positives": 8, "neg_ratio": 2, "max_epochs": 1,
            "latent_dim": 6, "prior_hidden": 8, "inference_hidden": [10, 8],
            "decoder_hidden": [8, 10], "val_users": 0, "seed": 11,
        }))
        seen = []
        real_evaluate = ev.evaluate

        def evaluate(model, dataset, **kwargs):
            seen.append(dataset)
            return real_evaluate(model, dataset, **kwargs)

        monkeypatch.setattr(ev, "evaluate", evaluate)
        rc = cli.main(["ablate", "--data", str(cache), "--config", str(cfg),
                       "--samples", "8", "--k", "10"])
        assert rc == 0
        assert len(seen) == 4 and all(d is seen[0] for d in seen)
        rows = [l.split(",") for l in capsys.readouterr().out.splitlines()[1:]]
        assert {r[0] for r in rows} == {"nvh", "nvh-n", "nvh-u", "nvh-i"}
        assert all(r[1] == "11" for r in rows)
        assert all(0.0 <= float(x) <= 1.0 for r in rows for x in r[2:])

    def test_each_seed_runs_every_variant(self, cache, one_epoch_config, capsys):
        rc = cli.main(["ablate", "--data", str(cache), "--config", str(one_epoch_config),
                       "--seeds", "1,2", "--samples", "8", "--k", "10"])
        assert rc == 0
        rows = [l.split(",") for l in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 8
        assert {(r[0], r[1]) for r in rows} == {
            (v, s) for v in ("nvh", "nvh-n", "nvh-u", "nvh-i") for s in ("1", "2")}

    def test_diverged_training_exit_3(self, cache, monkeypatch, caplog):
        def diverge(*args, **kwargs):
            raise tr.TrainingDiverged(step=2, epoch=0, detail="loss=nan")

        monkeypatch.setattr(tr, "fit", diverge)
        rc = cli.main(["ablate", "--data", str(cache), "--samples", "8"])
        assert rc == 3
        assert any("diverged" in r.message for r in caplog.records)


class TestSweep:
    def test_single_value_grid(self, cache, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "batch_positives": 8, "neg_ratio": 2, "max_epochs": 2,
            "latent_dim": 6, "prior_hidden": 8, "inference_hidden": [10, 8],
            "decoder_hidden": [8, 10], "val_users": 0,
        }))
        rc = cli.main(["sweep", "--data", str(cache), "--param", "neg_ratio",
                       "--values", "2", "--config", str(cfg), "--samples", "8"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("param,value,seed,status")
        assert lines[1].startswith("neg_ratio,2,") and ",ok," in lines[1]

    def test_failures_marked_and_sweep_continues(self, cache, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "batch_positives": 8, "neg_ratio": 2, "max_epochs": 1,
            "latent_dim": 6, "prior_hidden": 8, "inference_hidden": [10, 8],
            "decoder_hidden": [8, 10], "val_users": 0,
        }))
        rc = cli.main(["sweep", "--data", str(cache), "--param", "dim",
                       "--values=-3,6", "--config", str(cfg), "--samples", "8"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert "failed" in lines[1]
        assert ",ok," in lines[2]


    @pytest.mark.parametrize("key,value", [("max_epochs", 0), ("patience", 0),
                                           ("val_users", -5)])
    def test_invalid_point_is_a_failed_row(self, cache, key, value, monkeypatch):
        fitted = []
        monkeypatch.setattr(tr, "fit", lambda *args, **kwargs: fitted.append(args))
        cells = cli._sweep_cells(load_dataset(cache), tr.TrainConfig(), key, value, (5, 10), 8)
        assert cells[0].startswith("failed: ") and key in cells[0]
        assert cells[1:] == [""] * 4
        assert not fitted

    def test_missing_cache_exit_4(self, tmp_path, caplog, capsys):
        rc = cli.main(["sweep", "--data", str(tmp_path / "missing.npz"), "--param",
                       "dim", "--values", "4,6", "--samples", "8"])
        assert rc == 4
        assert capsys.readouterr().out == ""
        assert any("not found" in r.message for r in caplog.records)

    def test_diverged_point_marked_and_sweep_continues(self, cache, one_epoch_config,
                                                       monkeypatch, capsys):
        real_fit = tr.fit

        def fit(dataset, config):
            if config.neg_ratio == 2:
                raise tr.TrainingDiverged(step=2, epoch=1, detail="loss=nan")
            return real_fit(dataset, config)

        monkeypatch.setattr(tr, "fit", fit)
        rc = cli.main(["sweep", "--data", str(cache), "--param", "neg_ratio",
                       "--values", "2,3", "--config", str(one_epoch_config),
                       "--samples", "8"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("neg_ratio,2,")
        assert ",failed: training diverged at step 2" in lines[1]
        assert lines[2].startswith("neg_ratio,3,") and ",ok," in lines[2]

    def test_other_errors_end_the_sweep(self, cache, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise RuntimeError("not a training failure")

        monkeypatch.setattr(tr, "fit", fail)
        with pytest.raises(RuntimeError, match="not a training failure"):
            cli.main(["sweep", "--data", str(cache), "--param", "dim",
                      "--values", "4,6", "--samples", "8"])
        assert capsys.readouterr().out == ""

    def test_jobs_is_not_an_option(self, cache):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--data", str(cache), "--param", "dim",
                      "--values", "4", "--jobs", "2"])
        assert exc.value.code == 2


def _drop_first_parameter(cache, checkpoint, out):
    with np.load(checkpoint) as data:
        arrays = dict(data)
    del arrays[next(name for name in arrays if name != "__meta__")]
    np.savez(out, **arrays)


def _add_dims_key(cache, checkpoint, out):
    with np.load(checkpoint) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    meta["dims"]["width"] = 3
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(out, **arrays)


MALFORMED = {
    "foreign-npz-as-ckpt": ("--ckpt", lambda cache, ckpt, out: np.savez(out, a=np.ones(3)),
                            "not a model checkpoint"),
    "cache-as-ckpt": ("--ckpt", lambda cache, ckpt, out: shutil.copy(cache, out),
                      "not a model checkpoint"),
    "ckpt-as-data": ("--data", lambda cache, ckpt, out: shutil.copy(ckpt, out),
                     "not a dataset cache"),
    "text-as-data": ("--data", lambda cache, ckpt, out: out.write_text("1,2\n"),
                     "not a dataset cache"),
    "text-as-ckpt": ("--ckpt", lambda cache, ckpt, out: out.write_text("1,2\n"),
                     "not a model checkpoint"),
    "ckpt-missing-array": ("--ckpt", _drop_first_parameter, "malformed model checkpoint"),
    "ckpt-unknown-dims-key": ("--ckpt", _add_dims_key, "malformed model checkpoint"),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_exit_4(self, cache, checkpoint, tmp_path, case, caplog, capsys):
        flag, write, message = MALFORMED[case]
        bad = tmp_path / "bad.npz"
        write(cache, checkpoint, bad)
        # the last --data/--ckpt wins, so the bad file replaces the good one
        rc = cli.main(["evaluate", "--data", str(cache), "--ckpt", str(checkpoint),
                       "--samples", "8", flag, str(bad)])
        assert rc == 4
        assert capsys.readouterr().out == ""
        assert any(message in r.message for r in caplog.records)


class TestHelp:
    @pytest.mark.parametrize("command", ["prepare", "train", "evaluate",
                                         "eval-cold", "predict", "ablate", "sweep"])
    def test_every_subcommand_has_help(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out
