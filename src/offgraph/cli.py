"""Command-line interface.

Subcommands cover the whole pipeline:

  gen-synthetic  write a planted synthetic corpus (tweets.jsonl + edges.tsv)
  preprocess     normalize tweet text
  build-graph    build the social graph with node features, dump as JSON
  train          train per a config file, write the result JSON
  eval           score a tweets file against a saved checkpoint
  ablate         train with one module removed (or 'all' for the table)
  sweep          run an experiment grid, write CSV

Run ``offgraph <subcommand> --help`` for flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from .corpus import build_vocab, encode, load_corpus, load_tweets, write_edges_tsv, write_tweets_jsonl
from .graph import INIT_STRATEGIES, VARIANTS, build_graph, graph_to_json, with_node_features
from .metrics import metrics_report
from .model import ABLATIONS
from .outfile import write_chunks
from .preprocess import EmojiTable, RawTweet
from .synthetic import generate_corpus
from .training import (
    SWEEP_AXES,
    TrainConfig,
    fit,
    load_checkpoint,
    parse_config_file,
    run_grid,
    save_checkpoint,
    sweep,
)

__all__ = ["main"]


def _write_or_print(text: str, out_path: str | None) -> None:
    if out_path:
        write_chunks(out_path, [text if text.endswith("\n") else text + "\n"])
    else:
        print(text)


def _cmd_gen_synthetic(args) -> int:
    corpus = generate_corpus(args.tweets, args.users, args.seed)
    write_tweets_jsonl(corpus.tweets, args.out_tweets)
    write_edges_tsv(corpus.edges, args.out_edges)
    print(f"wrote {len(corpus.tweets)} tweets to {args.out_tweets} and {len(corpus.edges)} edges to {args.out_edges}")
    return 0


def _load_preprocessed(path, table: EmojiTable) -> list[RawTweet]:
    """Read a tweets file and normalize every text against the one emoji table."""
    # Looked up per call, so a wrapper on offgraph.preprocess.preprocess (perfbench's tracer) sees it.
    from .preprocess import preprocess

    return [preprocess(t, table) for t in load_tweets(path)]


def _cmd_preprocess(args) -> int:
    table = EmojiTable.from_tsv(args.emoji) if args.emoji else EmojiTable.default()
    tweets = _load_preprocessed(args.infile, table)
    write_tweets_jsonl(tweets, args.out)
    print(f"wrote {len(tweets)} normalized tweets to {args.out}")
    return 0


def _cmd_build_graph(args) -> int:
    corpus = load_corpus(args.tweets, args.edges)
    graph = build_graph(corpus)
    vocab = build_vocab(corpus.tweets) if args.variant == "bow" else None
    graph = with_node_features(graph, corpus.tweets, args.variant, args.init, vocab)
    _write_or_print(graph_to_json(graph), args.out)
    return 0


def _config_and_corpus(args):
    """The ``--config`` file (defaults without one) and the ``--tweets``/``--edges`` corpus."""
    config = parse_config_file(args.config) if args.config else TrainConfig()
    return config, load_corpus(args.tweets, args.edges)


def _cmd_train(args) -> int:
    config, corpus = _config_and_corpus(args)
    run = fit(config, corpus)
    _write_or_print(run.result.to_json(), args.out)
    if args.checkpoint:
        save_checkpoint(run, args.checkpoint)
    return 0


def _cmd_eval(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    tweets = _load_preprocessed(args.tweets, EmojiTable.default())
    if not tweets:
        raise ValueError(f"{args.tweets} holds no tweets")
    seqs = [encode(t, checkpoint.vocab, checkpoint.config.max_len) for t in tweets]
    scores = checkpoint.model.predict(seqs, checkpoint.graph)
    report = metrics_report(scores, [t.label for t in tweets])
    _write_or_print(report.to_json(), args.out)
    return 0


def _cmd_ablate(args) -> int:
    config, corpus = _config_and_corpus(args)
    if args.variant == "all":
        results = run_grid(config, corpus, [{"ablation": v} for v in ABLATIONS])
        rows = [{"variant": v, **r.best_metrics.to_dict()} for v, r in zip(ABLATIONS, results)]
        _write_or_print(json.dumps(rows, indent=2), args.out)
    else:
        (result,) = run_grid(config, corpus, [{"ablation": args.variant}])
        _write_or_print(result.to_json(), args.out)
    return 0


def _cmd_sweep(args) -> int:
    config, corpus = _config_and_corpus(args)
    _write_or_print(sweep(config, args.axis, corpus), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="offgraph", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="generate a planted synthetic corpus")
    p.add_argument("--tweets", type=int, default=1000, help="number of tweets")
    p.add_argument("--users", type=int, default=100, help="number of users")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out-tweets", default="tweets.jsonl")
    p.add_argument("--out-edges", default="edges.tsv")
    p.set_defaults(func=_cmd_gen_synthetic)

    p = sub.add_parser("preprocess", help="normalize tweet text")
    p.add_argument("--in", dest="infile", required=True, help="tweets JSONL")
    p.add_argument("--emoji", default=None, help="emoji table TSV (default: packaged table)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("build-graph", help="build the social graph and dump JSON")
    p.add_argument("--tweets", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--variant", choices=VARIANTS, default="soft")
    p.add_argument("--init", choices=INIT_STRATEGIES, default="nonoff")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_build_graph)

    p = sub.add_parser("train", help="train and write the result JSON")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--tweets", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--checkpoint", default=None, help="also save the best-epoch checkpoint")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a tweets file against a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tweets", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="train with one module removed")
    p.add_argument("--config", default=None)
    p.add_argument("--variant", choices=ABLATIONS + ("all",), required=True)
    p.add_argument("--tweets", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("sweep", help="run an experiment grid, write CSV")
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--tweets", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
