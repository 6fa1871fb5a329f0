import json
import os

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


def test_synth_unwritable_path(tmp_path):
    rc = cli.main(["synth", "--out", "/nonexistent-dir/x.csv",
                   "--set", "synth_events=10", "--set", "synth_users=2",
                   "--set", "synth_items=2"])
    assert rc == cli.EXIT_CONFIG


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

@pytest.mark.parametrize("bad", ["lr=fast", "k=abc", "seeds=a,b",
                                 "fanouts=x", "patience=0"])
def test_train_bad_value_exits_config(tmp_path, capsys, bad):
    rc = cli.main(["train", "--out", str(tmp_path)]
                  + _set_args(fast_overrides([bad])))
    assert rc == cli.EXIT_CONFIG
    assert bad.split("=")[0] in capsys.readouterr().err


def test_sweep_bad_k_grid_exits_config(tmp_path):
    rc = cli.main(["sweep", "--k-grid", "x,2", "--out", str(tmp_path)]
                  + _set_args(fast_overrides()))
    assert rc == cli.EXIT_CONFIG


@pytest.mark.parametrize("text", ["not json {",
                                  '{"config": {"bogus": 1}, "seed": 0}'])
def test_eval_bad_manifest_exits_config(tmp_path, capsys, text):
    path = tmp_path / "manifest.json"
    path.write_text(text)
    assert cli.main(["eval", str(path)]) == cli.EXIT_CONFIG
    assert "bad manifest" in capsys.readouterr().err


def test_train_non_finite_loss_exits_check_fail(tmp_path, capsys):
    # Adam moves every weight by about lr per step, so lr=1e30 overflows
    # float32 within a batch and the loss guard fires
    with np.errstate(all="ignore"):
        rc = cli.main(["train", "--out", str(tmp_path)]
                      + _set_args(fast_overrides(["lr=1e30"])))
    assert rc == cli.EXIT_CHECK_FAIL
    err = capsys.readouterr().err.strip().splitlines()
    assert "non-finite loss" in err[-1]
