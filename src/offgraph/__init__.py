"""Offensive-language detection on social networks.

A graph attention layer over the follower graph (node features are each
user's training-time behavior counts) is fused with a small from-scratch
transformer text encoder through position-encoded multi-head attention, and
the whole stack trains jointly against a focal loss. Everything runs on a
tape-based float64 autodiff core in numpy; no deep-learning framework.
"""

from .corpus import (
    Corpus,
    Split,
    TokenSequence,
    Vocab,
    batches,
    build_vocab,
    encode,
    load_corpus,
    load_tweets,
    preprocess_corpus,
    split_corpus,
    tokenize,
    write_edges_tsv,
    write_tweets_jsonl,
)
from .encoder import EncoderParams
from .fusion import FusionParams, sinusoidal_encoding
from .gat import GatParams, gat_forward
from .graph import (
    SocialGraph,
    build_graph,
    graph_to_json,
    init_unknown_features,
    mask_test_information,
    with_node_features,
)
from .losses import FocalParams, focal_loss, focal_loss_tensor
from .metrics import ConfusionMatrix, MetricsReport, auc_score, macro_metrics, metrics_report
from .model import ABLATIONS, DetectionModel
from .optim import Adam, xavier_normal_init
from .preprocess import EmojiTable, RawTweet, preprocess, preprocess_text
from .synthetic import generate_corpus
from .tensor import Tensor
from .training import (
    EarlyStopper,
    RunResult,
    TrainConfig,
    TrainingDiverged,
    fit,
    load_checkpoint,
    parse_config_file,
    run_grid,
    save_checkpoint,
    sweep,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "ABLATIONS",
    "Adam",
    "ConfusionMatrix",
    "Corpus",
    "DetectionModel",
    "EarlyStopper",
    "EmojiTable",
    "EncoderParams",
    "FocalParams",
    "FusionParams",
    "GatParams",
    "MetricsReport",
    "RawTweet",
    "RunResult",
    "SocialGraph",
    "Split",
    "Tensor",
    "TokenSequence",
    "TrainConfig",
    "TrainingDiverged",
    "Vocab",
    "auc_score",
    "batches",
    "build_graph",
    "build_vocab",
    "encode",
    "fit",
    "focal_loss",
    "focal_loss_tensor",
    "gat_forward",
    "generate_corpus",
    "graph_to_json",
    "init_unknown_features",
    "load_checkpoint",
    "load_corpus",
    "load_tweets",
    "macro_metrics",
    "mask_test_information",
    "metrics_report",
    "parse_config_file",
    "preprocess",
    "preprocess_corpus",
    "preprocess_text",
    "run_grid",
    "save_checkpoint",
    "sinusoidal_encoding",
    "split_corpus",
    "sweep",
    "tokenize",
    "train",
    "with_node_features",
    "write_edges_tsv",
    "write_tweets_jsonl",
    "xavier_normal_init",
]
