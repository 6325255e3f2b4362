"""CLI subcommands and their file formats, driven end to end on tiny data."""

import json
import os

import pytest

from offgraph.cli import main
from offgraph.preprocess import EmojiTable

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

CONFIG = """
max_epochs = 2
early_stop_patience = 2
batch_size = 16
gat_hidden = 8
gat_heads = 2
d_model = 8
encoder_layers = 1
encoder_heads = 2
d_ff = 12
max_len = 16
fusion_heads = 2
seed = 3
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    rc = main([
        "gen-synthetic", "--tweets", "200", "--users", "25", "--seed", "5",
        "--out-tweets", str(path / "tweets.jsonl"), "--out-edges", str(path / "edges.tsv"),
    ])
    assert rc == 0
    (path / "run.cfg").write_text(CONFIG)
    return path


@pytest.fixture(scope="module")
def trained(workdir):
    """Run ``train`` once; returns the result and checkpoint paths the eval tests read."""
    result_path = workdir / "result.json"
    ckpt_path = workdir / "ckpt.json"
    rc = main([
        "train", "--config", str(workdir / "run.cfg"),
        "--tweets", str(workdir / "tweets.jsonl"), "--edges", str(workdir / "edges.tsv"),
        "--out", str(result_path), "--checkpoint", str(ckpt_path),
    ])
    assert rc == 0
    return result_path, ckpt_path


def test_gen_synthetic_files(workdir):
    lines = (workdir / "tweets.jsonl").read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 200
    record = json.loads(lines[0])
    assert set(record) == {"tweet_id", "user_id", "text", "label"}
    for line in (workdir / "edges.tsv").read_text().strip().splitlines():
        assert len(line.split("\t")) == 2


def test_preprocess_command(workdir):
    out = workdir / "clean.jsonl"
    rc = main(["preprocess", "--in", str(workdir / "tweets.jsonl"), "--out", str(out)])
    assert rc == 0
    text = out.read_text(encoding="utf-8")
    assert "https://" not in text
    assert json.loads(text.splitlines()[0])["tweet_id"] == "t00000"


def test_preprocess_custom_emoji_table(workdir, tmp_path):
    table = tmp_path / "emoji.tsv"
    table.write_text("\U0001F600\tbig grin\n", encoding="utf-8")
    src = tmp_path / "one.jsonl"
    src.write_text(json.dumps({"tweet_id": "a", "user_id": "u", "text": "hi \U0001F600", "label": 0}) + "\n")
    out = tmp_path / "clean.jsonl"
    assert main(["preprocess", "--in", str(src), "--emoji", str(table), "--out", str(out)]) == 0
    assert json.loads(out.read_text().splitlines()[0])["text"] == "hi big grin"


def test_build_graph_command(workdir):
    out = workdir / "graph.json"
    rc = main([
        "build-graph", "--tweets", str(workdir / "clean.jsonl"), "--edges", str(workdir / "edges.tsv"),
        "--variant", "soft", "--init", "nonoff", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"nodes", "edges", "features", "variant", "init_strategy"}
    assert payload["variant"] == "soft"
    assert len(payload["features"]) == len(payload["nodes"])


def test_train_writes_result_and_checkpoint(trained):
    result_path, ckpt_path = trained
    result = json.loads(result_path.read_text())
    assert set(result) == {"config", "seed", "epochs_run", "best_epoch", "train_loss", "epoch_f1", "best_metrics"}
    assert result["config"]["max_epochs"] == 2
    assert ckpt_path.exists()


def test_train_reproducible_bytes(workdir):
    a, b = workdir / "a.json", workdir / "b.json"
    for out in (a, b):
        rc = main([
            "train", "--config", str(workdir / "run.cfg"),
            "--tweets", str(workdir / "tweets.jsonl"), "--edges", str(workdir / "edges.tsv"),
            "--out", str(out),
        ])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_eval_command(workdir, trained):
    out = workdir / "eval.json"
    rc = main([
        "eval", "--checkpoint", str(trained[1]),
        "--tweets", str(workdir / "tweets.jsonl"), "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert set(report) == {"auc", "accuracy", "precision", "recall", "f1", "confusion"}


def test_eval_writes_to_a_device(workdir, trained):
    rc = main([
        "eval", "--checkpoint", str(trained[1]),
        "--tweets", str(workdir / "tweets.jsonl"), "--out", os.devnull,
    ])
    assert rc == 0


def test_eval_reads_the_emoji_table_once(workdir, trained, monkeypatch):
    reads = []
    from_tsv = EmojiTable.from_tsv.__func__

    def counted(cls, path):
        reads.append(path)
        return from_tsv(cls, path)

    monkeypatch.setattr(EmojiTable, "from_tsv", classmethod(counted))
    rc = main([
        "eval", "--checkpoint", str(trained[1]),
        "--tweets", str(workdir / "tweets.jsonl"), "--out", str(workdir / "eval_once.json"),
    ])
    assert rc == 0
    assert len(reads) == 1


def _strangers(tmp_path):
    """Two labelled tweets by a user that no training graph has."""
    rogue = tmp_path / "rogue.jsonl"
    rogue.write_text("".join(
        json.dumps({"tweet_id": f"x{label}", "user_id": "stranger", "text": "hi there", "label": label}) + "\n"
        for label in (0, 1)
    ))
    return rogue


def test_eval_rejects_unknown_user(trained, tmp_path, capsys):
    rc = main(["eval", "--checkpoint", str(trained[1]), "--tweets", str(_strangers(tmp_path))])
    assert rc == 1
    assert capsys.readouterr().err == "error: user 'stranger' is not a node of the graph\n"


def test_eval_scores_unknown_user_without_a_graph_side(workdir, tmp_path):
    (tmp_path / "no_gat.cfg").write_text(CONFIG + "ablation = no_gat\n")
    ckpt, out = tmp_path / "ckpt.json", tmp_path / "eval.json"
    rc = main([
        "train", "--config", str(tmp_path / "no_gat.cfg"),
        "--tweets", str(workdir / "tweets.jsonl"), "--edges", str(workdir / "edges.tsv"),
        "--out", str(tmp_path / "result.json"), "--checkpoint", str(ckpt),
    ])
    assert rc == 0
    rc = main(["eval", "--checkpoint", str(ckpt), "--tweets", str(_strangers(tmp_path)), "--out", str(out)])
    assert rc == 0
    assert sum(json.loads(out.read_text())["confusion"].values()) == 2


def test_ablate_single_variant(workdir):
    out = workdir / "ablate.json"
    rc = main([
        "ablate", "--config", str(workdir / "run.cfg"), "--variant", "no_gat",
        "--tweets", str(workdir / "tweets.jsonl"), "--edges", str(workdir / "edges.tsv"),
        "--out", str(out),
    ])
    assert rc == 0
    assert json.loads(out.read_text())["config"]["ablation"] == "no_gat"


def test_sweep_command(workdir):
    out = workdir / "sweep.csv"
    rc = main([
        "sweep", "--axis", "variant", "--config", str(workdir / "run.cfg"),
        "--tweets", str(workdir / "tweets.jsonl"), "--edges", str(workdir / "edges.tsv"),
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "model,graph_variant,auc,accuracy,precision,recall,f1"
    assert len(lines) == 7


def test_cli_error_paths(trained, tmp_path, capsys):
    rc = main(["preprocess", "--in", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.jsonl"
    good = json.dumps({"tweet_id": "t1", "user_id": "u000", "text": "hi", "label": 0})
    bad.write_text(good + "\n\n{not json\n")
    for argv in (
        ["preprocess", "--in", str(bad), "--out", str(tmp_path / "o")],
        ["eval", "--checkpoint", str(trained[1]), "--tweets", str(bad)],
    ):
        assert main(argv) == 1
        assert f"{bad}:3: bad tweet record" in capsys.readouterr().err


def test_eval_rejects_unknown_checkpoint_config_keys(workdir, trained, tmp_path, capsys):
    payload = json.loads(trained[1].read_text())
    payload["config"]["dropout_rate"] = 0.3
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(payload))
    assert main(["eval", "--checkpoint", str(ckpt), "--tweets", str(workdir / "tweets.jsonl")]) == 1
    assert f"error: {ckpt}: unknown config keys ['dropout_rate']" in capsys.readouterr().err


@pytest.mark.parametrize("edit", ["bad base64", "format 3", "truncated", "not UTF-8"])
def test_eval_rejects_a_malformed_format_2_checkpoint(workdir, trained, tmp_path, capsys, edit):
    payload = json.loads(trained[1].read_text())
    if edit == "format 3":
        payload["format"] = 3
    elif edit == "bad base64":
        name = next(iter(payload["params"]))
        payload["params"][name]["data"] = "@" + payload["params"][name]["data"][1:]
    ckpt = tmp_path / "ckpt.json"
    data = json.dumps(payload).encode()
    ckpt.write_bytes({"truncated": data[:200], "not UTF-8": b"\xff\xfe"}.get(edit, data))
    assert main(["eval", "--checkpoint", str(ckpt), "--tweets", str(workdir / "tweets.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1
    assert "Traceback" not in err


_GOOD_LINE = {
    "tweets": json.dumps({"tweet_id": "a", "user_id": "u", "text": "hi", "label": 0}) + "\n",
    "edges": "u\tv\n",
    "config": "seed = 3\n",
    "emoji": "\U0001F600\tbig grin\n",
}


@pytest.mark.parametrize(
    "command, flag, kind, fault",
    [
        ("preprocess", "--in", "tweets", "not UTF-8"),
        ("preprocess", "--emoji", "emoji", "not UTF-8"),
        ("preprocess", "--emoji", "emoji", "duplicate emoji"),
        ("train", "--tweets", "tweets", "not UTF-8"),
        ("train", "--edges", "edges", "not UTF-8"),
        ("train", "--config", "config", "not UTF-8"),
        ("train", "--tweets", "tweets", "duplicate tweet"),
    ],
)
def test_a_bad_input_file_is_named_in_the_error(workdir, tmp_path, capsys, command, flag, kind, fault):
    good = _GOOD_LINE[kind].encode("utf-8")
    bad = tmp_path / f"bad.{kind}"
    bad.write_bytes(good + (b"\xff\xfe\n" if fault == "not UTF-8" else good))
    args = {
        "preprocess": {"--in": workdir / "tweets.jsonl", "--out": tmp_path / "out.jsonl"},
        "train": {"--config": workdir / "run.cfg", "--tweets": workdir / "tweets.jsonl", "--edges": workdir / "edges.tsv"},
    }[command]
    args[flag] = bad
    assert main([command, *(str(part) for pair in args.items() for part in pair)]) == 1
    want = {
        "not UTF-8": f"{bad}:2: not UTF-8 text (byte 0xff)",
        "duplicate tweet": f"{bad}: duplicate tweet_id 'a'",
        "duplicate emoji": f"{bad}:2: emoji '\U0001F600' listed again (first on line 1)",
    }[fault]
    assert capsys.readouterr().err == f"error: {want}\n"


def test_eval_rejects_empty_tweets_file(trained, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["eval", "--checkpoint", str(trained[1]), "--tweets", str(empty)]) == 1
    assert f"error: {empty} holds no tweets" in capsys.readouterr().err


def test_eval_rejects_a_file_that_is_not_a_checkpoint(workdir, trained, capsys):
    result_path = trained[0]  # a train result: it has a config but no vocabulary, graph or parameters
    assert main(["eval", "--checkpoint", str(result_path), "--tweets", str(workdir / "tweets.jsonl")]) == 1
    err = capsys.readouterr().err
    assert f"error: {result_path}: not a checkpoint, missing keys ['vocab', 'graph', 'params']" in err
    assert "Traceback" not in err
