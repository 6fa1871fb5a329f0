import json
import os
import shutil

import numpy as np
import pytest

from tgsl import cli
from tgsl.cli import ConfigError, parse_config
from tgsl.graph import load_events


FAST = [
    "dataset=synth", "synth_users=12", "synth_items=12", "synth_events=260",
    "synth_noise=0.1", "synth_seed=5", "mask_frac=0.1", "split_seed=1",
    "d_model=8", "layers=1", "heads=2", "d_hidden=12", "etgnn_layers=1",
    "n_nb=5", "lr=0.01", "batch_size=64", "max_epochs=2", "k=3", "n_can=5",
    "n_rnn=4", "alpha=0.0", "seeds=3",
]


def fast_overrides(extra=()):
    return FAST + list(extra)


def test_parse_defaults_and_overrides(tmp_path):
    cfgfile = tmp_path / "a.cfg"
    cfgfile.write_text("# comment line\nk = 4\nstrategy = third-hop\n")
    cfg = parse_config(str(cfgfile), ["k=8"])
    assert cfg.k == 8                    # --set wins over the file
    assert cfg.strategy == "third-hop"
    assert cfg.lr == 1e-4                # untouched default


def test_parse_rejects_unknown_key_listing_valid_ones():
    with pytest.raises(ConfigError, match="valid keys.*alpha"):
        parse_config(None, ["learning_rate=0.1"])


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError, match="strategy"):
        parse_config(None, ["strategy=everything"])
    with pytest.raises(ConfigError):
        parse_config(None, ["k=0"])
    with pytest.raises(ValueError):
        parse_config(None, ["lr=fast"])


def test_synth_same_seed_byte_identical(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["--set", "synth_users=10", "--set", "synth_items=10",
            "--set", "synth_events=200", "--seed", "4"]
    assert cli.main(["synth", "--out", a] + args) == 0
    assert cli.main(["synth", "--out", b] + args) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_synth_noise_zero_roundtrip(tmp_path):
    out = str(tmp_path / "c.csv")
    assert cli.main(["synth", "--out", out, "--set", "synth_users=10",
                     "--set", "synth_items=10", "--set", "synth_events=500",
                     "--set", "synth_noise=0.0", "--seed", "1"]) == 0
    store = load_events(out)
    assert len(store) == 500
    cross = np.mean(store.src % 2 != (store.dst - store.num_users) % 2)
    assert cross == 0.0


def test_synth_unwritable_path(tmp_path, capsys):
    # a missing parent directory, and a target that is a directory
    for out in ("/nonexistent-dir/x.csv", str(tmp_path)):
        rc = cli.main(["synth", "--out", out,
                       "--set", "synth_events=10", "--set", "synth_users=2",
                       "--set", "synth_items=2"])
        assert rc == cli.EXIT_CONFIG, out
        assert "unwritable path" in capsys.readouterr().err


def _set_args(pairs):
    out = []
    for p in pairs:
        out.extend(["--set", p])
    return out


def test_train_writes_all_artifacts(tmp_path):
    out = str(tmp_path / "runs")
    rc = cli.main(["train", "--out", out] + _set_args(fast_overrides()))
    assert rc == 0
    runs = os.listdir(out)
    assert len(runs) == 1
    rd = os.path.join(out, runs[0])
    for f in ("manifest.json", "metrics.json", "epochs.csv", "params.npz"):
        assert os.path.exists(os.path.join(rd, f))
    manifest = json.load(open(os.path.join(rd, "manifest.json")))
    assert manifest["config"]["k"] == 3
    assert manifest["seed"] == 3
    metrics = json.load(open(os.path.join(rd, "metrics.json")))
    assert metrics["strategy"] == "one-hop"
    assert 0.0 <= metrics["transductive"]["test_ap"] <= 1.0
    csv = open(os.path.join(rd, "epochs.csv")).read().splitlines()
    assert csv[0].startswith("run_id,seed,dataset,strategy,K,alpha,setting")
    assert len(csv) >= 4      # 2 epoch rows + final transductive/inductive


def test_train_override_recorded_in_manifest(tmp_path):
    out = str(tmp_path / "runs")
    rc = cli.main(["train", "--out", out]
                  + _set_args(fast_overrides(["k=8"])))
    assert rc == 0
    rd = os.path.join(out, os.listdir(out)[0])
    manifest = json.load(open(os.path.join(rd, "manifest.json")))
    assert manifest["config"]["k"] == 8


def test_train_sparsify_records_reduced_count(tmp_path):
    out = str(tmp_path / "runs")
    rc = cli.main(["train", "--out", out, "--sparsify", "2"]
                  + _set_args(fast_overrides()))
    assert rc == 0
    rd = os.path.join(out, os.listdir(out)[0])
    manifest = json.load(open(os.path.join(rd, "manifest.json")))
    full_train = int(0.7 * 260)
    assert manifest["data"]["train_events"] == -(-full_train // 2)
    assert manifest["config"]["sparsify_n"] == 2


def test_train_bad_dataset_exit_code(tmp_path):
    rc = cli.main(["train", "--set", "dataset=/no/such/file.csv",
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG or rc == cli.EXIT_DATA


# the node table a 10**17 id implies (about 355 PiB) exceeds any process's
# address space, so its allocation fails whatever the overcommit policy;
# 2**100 does not fit an int64
@pytest.mark.parametrize("user_id", [10**17, 2**100])
def test_train_huge_node_id_exits_data(tmp_path, capsys, user_id):
    csv = tmp_path / "huge.csv"
    csv.write_text("user_id,item_id,timestamp,state_label,f0\n"
                   f"{user_id},0,1.0,0,0.5\n1,1,2.0,0,0.5\n2,0,3.0,0,0.1\n")
    out = str(tmp_path / "runs")
    rc = cli.main(["train", "--out", out, "--set", f"dataset={csv}"])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"largest node id {user_id}" in err and "node table" in err
    assert not os.path.exists(out)


# arrays of 7.28 TiB (the events) and 745 GiB (the node table): numpy
# refuses both at once, so no memory is touched
@pytest.mark.parametrize("key_value", ["synth_events=1000000000000",
                                       "synth_users=100000000000"])
def test_unallocatable_synth_size_exits_config(tmp_path, capsys, key_value):
    out = tmp_path / "runs"
    csv = tmp_path / "s.csv"
    for argv in (["train", "--out", str(out)], ["synth", "--out", str(csv)]):
        assert cli.main(argv + ["--set", key_value]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key_value in err
        assert "synth_items=400" in err and "cannot be allocated" in err
    assert not out.exists() and not csv.exists()


def test_train_invalid_key_exit_code(tmp_path):
    rc = cli.main(["train", "--set", "bogus=1", "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG


def test_eval_reproduces_training_metrics(tmp_path, capsys):
    out = str(tmp_path / "runs")
    assert cli.main(["train", "--out", out]
                    + _set_args(fast_overrides())) == 0
    rd = os.path.join(out, os.listdir(out)[0])
    manifest_path = os.path.join(rd, "manifest.json")
    manifest = json.load(open(manifest_path))
    capsys.readouterr()
    assert cli.main(["eval", manifest_path, "--setting",
                     "transductive"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["test_ap"] == manifest["final"]["transductive_ap"]
    assert doc["test_acc"] == manifest["final"]["transductive_acc"]


def test_eval_original_graph_flag(tmp_path, capsys):
    out = str(tmp_path / "runs")
    assert cli.main(["train", "--out", out]
                    + _set_args(fast_overrides())) == 0
    manifest_path = os.path.join(out, os.listdir(out)[0], "manifest.json")
    capsys.readouterr()
    assert cli.main(["eval", manifest_path, "--original-graph"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["inference_graph"] == "original"


def test_eval_run_without_structure_learner_reports_original_graph(
        tmp_path, capsys):
    out = str(tmp_path / "runs")
    assert cli.main(["train", "--out", out]
                    + _set_args(fast_overrides(["use_tgsl=0"]))) == 0
    manifest_path = os.path.join(out, os.listdir(out)[0], "manifest.json")
    manifest = json.load(open(manifest_path))
    capsys.readouterr()
    assert cli.main(["eval", manifest_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["inference_graph"] == "original"
    assert doc["test_ap"] == manifest["final"]["transductive_ap"]


def _three_feature_csv(tmp_path):
    path = str(tmp_path / "three.csv")
    assert cli.main(["synth", "--out", path, "--set", "synth_communities=3",
                     "--set", "synth_users=12", "--set", "synth_items=12",
                     "--set", "synth_events=260", "--seed", "5"]) == 0
    assert load_events(path).edge_features.shape[1] == 3
    return path


def test_features_wider_than_d_model_exit_config(tmp_path, capsys,
                                                 trained_run):
    csv = _three_feature_csv(tmp_path)
    narrow = [f"dataset={csv}", "d_model=2", "heads=2"]
    out = str(tmp_path / "runs")
    capsys.readouterr()
    assert cli.main(["train", "--out", out]
                    + _set_args(fast_overrides(narrow))) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "raise d_model" in err
    assert not os.path.exists(out)          # no empty run directory left

    # a manifest naming the same data and model fails the same way
    run_dir = str(tmp_path / "run")
    shutil.copytree(trained_run, run_dir)
    path = os.path.join(run_dir, "manifest.json")
    manifest = json.load(open(path))
    manifest["config"].update(dataset=csv, d_model=2, heads=2)
    with open(path, "w") as f:
        json.dump(manifest, f)
    assert cli.main(["eval", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "raise d_model" in err


def test_eval_unknown_setting_and_missing_manifest(tmp_path):
    assert cli.main(["eval", str(tmp_path / "nothing.json")]) \
        == cli.EXIT_CONFIG
    # argparse exits on a bad choice before our code runs
    with pytest.raises(SystemExit):
        cli.main(["eval", "whatever.json", "--setting", "sideways"])


def test_eval_empty_inductive_set_exits_data(tmp_path, capsys):
    """Without masking, a tiny synth whose nodes all appear in training has
    no inductive test events: train records none, eval exits 3."""
    out = str(tmp_path / "runs")
    small = ["synth_users=4", "synth_items=4", "synth_events=200",
             "mask_frac=0.0"]
    assert cli.main(["train", "--out", out]
                    + _set_args(fast_overrides(small))) == 0
    manifest_path = os.path.join(out, os.listdir(out)[0], "manifest.json")
    assert json.load(open(manifest_path))["final"]["inductive_ap"] is None
    capsys.readouterr()
    assert cli.main(["eval", manifest_path, "--setting", "inductive"]) \
        == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.strip() == "data error: empty inductive test set"


def test_train_empty_transductive_val_set_exits_data(tmp_path, capsys):
    # masking nearly every node leaves no transductive validation events
    sets = ["synth_users=12", "synth_items=12", "synth_events=260",
            "mask_frac=0.95", "d_model=8", "layers=1", "heads=2",
            "d_hidden=12", "etgnn_layers=1", "n_nb=5", "batch_size=64",
            "max_epochs=1", "k=3", "n_can=5", "n_rnn=4", "seeds=3"]
    rc = cli.main(["train", "--out", str(tmp_path)] + _set_args(sets))
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.strip() == "data error: empty transductive val set"
    assert not list(tmp_path.glob("run-*"))    # no empty run directory


def test_train_csv_with_an_id_gap_masks_by_occurring_nodes(tmp_path):
    # user 7 renumbered to 200000 spans 200k ids with 80 nodes: sized by
    # the id range, the extra mask would take every val/test-active node
    # and leave no transductive val set
    dense = tmp_path / "dense.csv"
    assert cli.main(["synth", "--out", str(dense), "--seed", "2"]
                    + _set_args(["synth_users=40", "synth_items=40",
                                 "synth_events=3000"])) == 0
    head, *rows = dense.read_text().splitlines()
    rows = ["200000" + r[1:] if r.startswith("7,") else r for r in rows]
    assert sum(r.startswith("200000,") for r in rows) > 0
    gap = tmp_path / "gap.csv"
    gap.write_text("\n".join([head] + rows) + "\n")
    out = str(tmp_path / "runs")
    sets = [f"dataset={gap}", "mask_frac=0.1", "d_model=8", "layers=1",
            "heads=2", "d_hidden=12", "etgnn_layers=1", "n_nb=5",
            "batch_size=200", "max_epochs=1", "k=3", "n_can=5", "n_rnn=4",
            "alpha=0.0", "seeds=3"]
    assert cli.main(["train", "--out", out] + _set_args(sets)) == 0
    (run,) = os.listdir(out)
    assert cli.main(["eval", os.path.join(out, run, "manifest.json")]) == 0


def test_train_single_node_negative_pool_exits_data(tmp_path, capsys):
    # masking nearly every node leaves one training destination, which
    # cannot be drawn as a negative for itself
    rc = cli.main(["train", "--out", str(tmp_path)]
                  + _set_args(fast_overrides(["mask_frac=0.95"])))
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.strip() == ("data error: pool has a single node equal to a "
                           "positive destination")
    assert not list(tmp_path.glob("run-*"))


def test_verify_fast_suites_pass():
    assert cli.main(["verify", "--suite", "metrics"]) == 0
    assert cli.main(["verify", "--suite", "gumbel"]) == 0
    assert cli.main(["verify", "--suite", "nonsense"]) == cli.EXIT_CONFIG


def test_train_determinism_byte_identical_metrics(tmp_path):
    outs = []
    for sub in ("r1", "r2"):
        out = str(tmp_path / sub)
        assert cli.main(["train", "--out", out]
                        + _set_args(fast_overrides())) == 0
        rd = os.path.join(out, os.listdir(out)[0])
        outs.append(open(os.path.join(rd, "metrics.json"), "rb").read())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# failures exit with the documented codes, never a traceback

@pytest.mark.parametrize("bad", [
    "lr=fast", "k=abc", "seeds=a,b", "fanouts=x", "patience=0",
    # out of range: each used to end in a traceback or train nonsense
    "heads=3", "etgnn_layers=0", "n_nb=0", "batch_size=0", "tau_gumbel=0",
    "tau_cl=0", "d_model=0", "strategy=third-hop fanouts=0,1,1", "layers=0",
    "moco_queue=0", "n_can=0", "n_rnn=0", "d_hidden=0", "max_epochs=0",
    "mask_frac=1.0", "moco_momentum=2", "synth_events=0",
    "synth_communities=20", "lr=-0.01", "lr=0", "lr=nan", "lr=inf",
    "synth_noise=1.5", "synth_noise=nan", "synth_jitter=-1",
    "synth_jitter=inf", "tau_gumbel=inf", "tau_cl=inf", "tolerance=nan",
    "tolerance=inf", "tolerance=-1",
    # a repeated seed would train twice into one run directory
    "seeds=0,0", "seeds=3,1,3"])
def test_train_bad_value_exits_config(tmp_path, capsys, bad):
    """`bad` is one or more space-separated --set pairs; the last one names
    the key the error must mention."""
    rc = cli.main(["train", "--out", str(tmp_path)]
                  + _set_args(fast_overrides(bad.split())))
    assert rc == cli.EXIT_CONFIG
    assert bad.split()[-1].split("=")[0] in capsys.readouterr().err


def test_sweep_bad_k_grid_exits_config(tmp_path):
    rc = cli.main(["sweep", "--k-grid", "x,2", "--out", str(tmp_path)]
                  + _set_args(fast_overrides()))
    assert rc == cli.EXIT_CONFIG


@pytest.mark.parametrize("argv, key", [
    (["train", "--seed", "-1"], "seeds"),
    (["train", "--set", "seeds=-3"], "seeds"),
    (["train", "--set", "synth_seed=-1"], "synth_seed"),
    (["train", "--set", "split_seed=-1"], "split_seed"),
    (["synth", "--seed", "-1"], "synth_seed"),
])
def test_negative_seed_exits_config(tmp_path, capsys, argv, key):
    """A negative seed is named as a config error before any data is built
    or written, from --seed, --set, or synth's --seed."""
    out = str(tmp_path / "out")
    rc = cli.main(argv[:1] + ["--out", out] + _set_args(fast_overrides())
                  + argv[1:])
    assert rc == cli.EXIT_CONFIG
    assert f"{key} must be >= 0" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("grid", [["--strategies", "one-hop,bogus",
                                   "--k-grid", "3"],
                                  ["--strategies", "one-hop",
                                   "--k-grid", "3,0"],
                                  # a repeated cell would train twice into
                                  # one run directory
                                  ["--strategies", "one-hop,one-hop",
                                   "--k-grid", "3"],
                                  ["--strategies", "one-hop",
                                   "--k-grid", "3,3"]])
def test_sweep_checks_every_cell_before_the_first_trains(tmp_path, grid):
    rc = cli.main(["sweep", "--out", str(tmp_path)] + grid
                  + _set_args(fast_overrides()))
    assert rc == cli.EXIT_CONFIG
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("text", ["not json {",
                                  '{"config": {"bogus": 1}, "seed": 0}',
                                  '{"config": {}, "params": "params.npz"}',
                                  '{"config": {}, "seed": 0}',
                                  '{"config": {"k": "8"}, "seed": 0, '
                                  '"params": "params.npz", "run_id": "r"}',
                                  '{"config": {"alpha": "x"}, "seed": 0, '
                                  '"params": "params.npz", "run_id": "r"}'])
def test_eval_bad_manifest_exits_config(tmp_path, capsys, text):
    path = tmp_path / "manifest.json"
    path.write_text(text)
    assert cli.main(["eval", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bad manifest" in err
    # a mistyped config value is named before the snapshot is read
    for key in ("k", "alpha"):
        if f'"{key}": "' in text:
            assert f"{key} must be" in err


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("runs"))
    assert cli.main(["train", "--out", out] + _set_args(fast_overrides())) == 0
    return os.path.join(out, os.listdir(out)[0])


@pytest.fixture(scope="module")
def contrastive_run(tmp_path_factory):
    """A run at alpha=0.5: its snapshot holds the MoCo key group."""
    out = str(tmp_path_factory.mktemp("runs"))
    assert cli.main(["train", "--out", out]
                    + _set_args(fast_overrides(["alpha=0.5"]))) == 0
    return os.path.join(out, os.listdir(out)[0])


def _drop_run_id(run_dir, manifest):
    del manifest["run_id"]


def _params_not_npz(run_dir, manifest):
    with open(os.path.join(run_dir, manifest["params"]), "w") as f:
        f.write("not an npz")


def _key_without_bar(run_dir, manifest):
    np.savez(os.path.join(run_dir, manifest["params"]), w=np.ones(2))


def _negative_seed(run_dir, manifest):
    manifest["seed"] = -1


def _seed_not_an_int(run_dir, manifest):
    manifest["seed"] = "x"


@pytest.mark.parametrize("corrupt", [_drop_run_id, _params_not_npz,
                                     _key_without_bar, _negative_seed,
                                     _seed_not_an_int])
def test_eval_bad_trained_run_exits_config_before_any_work(
        tmp_path, capsys, monkeypatch, trained_run, corrupt):
    run_dir = str(tmp_path / "run")
    shutil.copytree(trained_run, run_dir)
    path = os.path.join(run_dir, "manifest.json")
    manifest = json.load(open(path))
    corrupt(run_dir, manifest)
    with open(path, "w") as f:
        json.dump(manifest, f)

    def no_work(cfg):
        raise AssertionError("data built before the manifest was checked")

    monkeypatch.setattr(cli, "build_store", no_work)
    capsys.readouterr()
    assert cli.main(["eval", path]) == cli.EXIT_CONFIG
    assert "bad manifest" in capsys.readouterr().err


def _rewrite_params(run_dir, manifest, edit):
    path = os.path.join(run_dir, manifest["params"])
    with np.load(path) as z:
        flat = {k: z[k] for k in z.files}
    edit(flat)
    np.savez(path, **flat)


def _drop_query_group(run_dir, manifest):
    def edit(flat):
        for key in [k for k in flat if k.startswith("query|")]:
            del flat[key]
    _rewrite_params(run_dir, manifest, edit)


def _broadcastable_wrong_shape(run_dir, manifest):
    # one row of enc.l0.wq: numpy would broadcast it over every row
    def edit(flat):
        flat["query|enc.l0.wq"] = flat["query|enc.l0.wq"][0]
    _rewrite_params(run_dir, manifest, edit)


def _stale_last_node_weight(run_dir, manifest):
    # a snapshot that still holds the last ET-GNN layer's node update
    def edit(flat):
        flat["tgsl|tgsl.l0.wh"] = flat["tgsl|tgsl.l0.wf"].copy()
    _rewrite_params(run_dir, manifest, edit)


def _drop_key_group(run_dir, manifest):
    def edit(flat):
        keys = [k for k in flat if k.startswith("key|")]
        assert keys
        for key in keys:
            del flat[key]
    _rewrite_params(run_dir, manifest, edit)


@pytest.mark.parametrize("corrupt, named", [
    (_drop_query_group, "query"),
    (_broadcastable_wrong_shape, "enc.l0.wq"),
    (_stale_last_node_weight, "tgsl.l0.wh"),
    (_drop_key_group, "key")])
def test_eval_snapshot_not_fitting_the_model_exits_config(
        tmp_path, capsys, request, corrupt, named):
    # only a run whose contrastive term has weight writes a key group
    run = request.getfixturevalue("contrastive_run" if named == "key"
                                  else "trained_run")
    run_dir = str(tmp_path / "run")
    shutil.copytree(run, run_dir)
    path = os.path.join(run_dir, "manifest.json")
    corrupt(run_dir, json.load(open(path)))
    capsys.readouterr()
    assert cli.main(["eval", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bad manifest" in err and named in err


def test_alpha_zero_run_writes_no_key_group_and_reads_old_layout(
        tmp_path, capsys, trained_run):
    run_dir = str(tmp_path / "run")
    shutil.copytree(trained_run, run_dir)
    path = os.path.join(run_dir, "manifest.json")
    manifest = json.load(open(path))
    with np.load(os.path.join(run_dir, manifest["params"])) as z:
        assert not [k for k in z.files if k.startswith("key|")]

    def add_key_copies(flat):
        # the layout of snapshots that always carried the key encoder
        for k in [k for k in flat if k.startswith("query|")]:
            flat["key|" + k.split("|", 1)[1]] = flat[k].copy()
    _rewrite_params(run_dir, manifest, add_key_copies)
    capsys.readouterr()
    assert cli.main(["eval", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["test_ap"] == manifest["final"]["transductive_ap"]
    assert doc["test_acc"] == manifest["final"]["transductive_acc"]


def test_train_non_finite_loss_exits_check_fail(tmp_path, capsys):
    # Adam moves every weight by about lr per step, so lr=1e30 overflows
    # float32 within a batch and the loss guard fires
    with np.errstate(all="ignore"):
        rc = cli.main(["train", "--out", str(tmp_path)]
                      + _set_args(fast_overrides(["lr=1e30"])))
    assert rc == cli.EXIT_CHECK_FAIL
    err = capsys.readouterr().err.strip().splitlines()
    assert "non-finite loss" in err[-1]
    assert not list(tmp_path.glob("run-*"))


# ---------------------------------------------------------------------------
# --seed, --out and --sparsify are shorthand for seeds=, out_dir= and
# sparsify_n=, applied after --set: the value they replace is never checked

def _no_data(cfg):
    raise AssertionError("data built before the paths were checked")


def _taken(tmp_path):
    path = tmp_path / "taken"
    path.write_text("")
    return str(path)


@pytest.mark.parametrize("replaced", ["seeds=-1", "seeds=0,0"])
def test_seed_flag_wins_over_set_seeds(tmp_path, replaced):
    out = tmp_path / "runs"
    rc = cli.main(["train", "--seed", "3", "--out", str(out)]
                  + _set_args(fast_overrides([replaced])))
    assert rc == 0
    # the run of seeds=3, under the id that config gets without the flag
    rid = cli.run_id_for(parse_config(None, fast_overrides()), 3)
    assert os.listdir(out) == [f"run-{rid}"]


def test_sparsify_flag_wins_over_set_sparsify_n(tmp_path):
    out = tmp_path / "runs"
    rc = cli.main(["train", "--sparsify", "2", "--out", str(out)]
                  + _set_args(fast_overrides(["sparsify_n=0"])))
    assert rc == 0
    (run,) = os.listdir(out)
    manifest = json.load(open(out / run / "manifest.json"))
    assert manifest["config"]["sparsify_n"] == 2


def test_out_flag_wins_over_set_out_dir(tmp_path, monkeypatch):
    taken, runs = _taken(tmp_path), tmp_path / "runs"
    assert cli.main(["train", "--out", str(runs)]
                    + _set_args(fast_overrides([f"out_dir={taken}"]))) == 0
    assert len(os.listdir(runs)) == 1
    # a file named by --out is refused though out_dir names a directory
    monkeypatch.setattr(cli, "build_store", _no_data)
    rc = cli.main(["train", "--out", str(taken)]
                  + _set_args(fast_overrides([f"out_dir={runs}"])))
    assert rc == cli.EXIT_CONFIG


def test_synth_seed_flag_wins_over_set_synth_seed(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    small = ["--set", "synth_users=10", "--set", "synth_items=10",
             "--set", "synth_events=200", "--seed", "4"]
    assert cli.main(["synth", "--out", a] + small) == 0
    assert cli.main(["synth", "--out", b, "--set", "synth_seed=-1"]
                    + small) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


# ---------------------------------------------------------------------------
# unreadable inputs and unwritable outputs exit 2 (3 for a dataset file)
# with one line, before any data is built or any epoch trains

def _bad_bytes(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode() + b"\xff\n")
    return str(path)


def _config_dir(tmp_path, request):
    return ["train", "--config", str(tmp_path)]


def _config_bytes(tmp_path, request):
    return ["train", "--config", _bad_bytes(tmp_path, "a.cfg", "k=4\n")]


def _synth_config_dir(tmp_path, request):
    return ["synth", "--out", str(tmp_path / "s.csv"),
            "--config", str(tmp_path)]


def _eval_dir(tmp_path, request):
    return ["eval", str(tmp_path)]


def _eval_params_dir(tmp_path, request):
    run_dir = tmp_path / "run"
    shutil.copytree(request.getfixturevalue("trained_run"), run_dir)
    manifest = json.load(open(run_dir / "manifest.json"))
    manifest["params"] = "."
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    return ["eval", str(run_dir / "manifest.json")]


def _dataset_bytes(tmp_path, request):
    csv = _bad_bytes(tmp_path, "bytes.csv",
                     "user_id,item_id,timestamp,state_label\n0,0,1.0,0\n")
    return ["train", "--out", str(tmp_path / "runs"),
            "--set", f"dataset={csv}"]


def _train_out_file(tmp_path, request):
    return ["train", "--out", _taken(tmp_path)]


def _sweep_out_file(tmp_path, request):
    return ["sweep", "--out", _taken(tmp_path), "--strategies", "one-hop",
            "--k-grid", "3"]


def _train_out_under_file(tmp_path, request):
    return ["train", "--out", os.path.join(_taken(tmp_path), "runs")]


def _train_out_read_only(tmp_path, request):
    # permission bits do not bind root, so the check's access call is
    # told that the directory is read-only
    read_only = str(tmp_path / "ro")
    os.mkdir(read_only)
    access = os.access
    request.getfixturevalue("monkeypatch").setattr(
        os, "access", lambda p, mode: p != read_only and access(p, mode))
    return ["train", "--out", os.path.join(read_only, "runs")]


@pytest.mark.parametrize("case, code, text", [
    (_config_dir, cli.EXIT_CONFIG, "cannot read config"),
    (_config_bytes, cli.EXIT_CONFIG, "cannot read config"),
    (_synth_config_dir, cli.EXIT_CONFIG, "cannot read config"),
    (_eval_dir, cli.EXIT_CONFIG, "bad manifest"),
    (_eval_params_dir, cli.EXIT_CONFIG, "bad manifest"),
    (_dataset_bytes, cli.EXIT_DATA, "bytes.csv"),
    (_train_out_file, cli.EXIT_CONFIG, "unwritable path"),
    (_sweep_out_file, cli.EXIT_CONFIG, "unwritable path"),
    (_train_out_under_file, cli.EXIT_CONFIG, "unwritable path"),
    (_train_out_read_only, cli.EXIT_CONFIG, "unwritable path")])
def test_unreadable_or_unwritable_path_exits_before_any_work(
        tmp_path, capsys, monkeypatch, request, case, code, text):
    argv = case(tmp_path, request)
    if argv[0] in ("train", "sweep"):   # the case's own --set comes last
        argv[1:1] = _set_args(fast_overrides())
    if case is not _dataset_bytes:      # that one fails in the reading
        monkeypatch.setattr(cli, "build_store", _no_data)
    capsys.readouterr()
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and text in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("**/run-*"))
