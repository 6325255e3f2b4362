"""Reference computations the benchmark checks the program against.

Everything here is written from the method's definition and reads only the
benchmark's own inputs (the generated tweets and edges) or numbers the
program hands back; it calls nothing in the program.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CheckFailed", "require", "close", "makeup", "metrics", "soft_features", "attention_arcs", "gat"]

LEAKY_SLOPE = 0.2  # GAT's LeakyReLU slope (Velickovic et al. 2018)
NONOFF_INIT = (1.0, 1e-6)  # features of a user with no training tweets under init_strategy = nonoff


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(name: str, got, want, tol: float) -> None:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    require(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    worst = float(np.max(np.abs(got - want))) if got.size else 0.0
    require(worst <= tol, f"{name}: off by {worst:.3g} (tolerance {tol:g})")


def makeup(tweets, edges, users) -> dict:
    """Size and mix of a generated corpus, as the README records it."""
    authors = {t.user_id for t in tweets}
    return {
        "tweets": len(tweets),
        "users": len(users),
        "arcs": len({(a, b) for a, b in edges if a != b}),
        "offensive_share": sum(t.label for t in tweets) / len(tweets),
        "silent_users": len(set(users) - authors),
    }


def _f1(tp: int, fn: int, fp: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0


def metrics(scores, labels, threshold: float = 0.5) -> dict:
    """Confusion counts at ``score >= threshold``, macro-F1 and pairwise AUC.

    A class whose precision, recall or F1 has a zero denominator scores 0.
    AUC is the share of (offensive, non-offensive) pairs in which the
    offensive tweet scores higher, ties counting half.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    hit = s >= threshold
    tp = int(np.sum(hit & (y == 1)))
    fn = int(np.sum(~hit & (y == 1)))
    fp = int(np.sum(hit & (y == 0)))
    tn = int(np.sum(~hit & (y == 0)))
    diff = s[y == 1][:, None] - s[y == 0][None, :]
    require(diff.size > 0, "scored tweets need both classes")
    auc = (np.count_nonzero(diff > 0) + 0.5 * np.count_nonzero(diff == 0)) / diff.size
    return {
        "confusion": {"tp": tp, "fn": fn, "fp": fp, "tn": tn},
        "f1": 0.5 * (_f1(tp, fn, fp) + _f1(tn, fp, fn)),
        "auc": float(auc),
    }


def soft_features(nodes: list[str], train_tweets) -> np.ndarray:
    """(non-offensive, offensive) training counts per node; unseen users get the nonoff vector."""
    row = {u: i for i, u in enumerate(nodes)}
    counts = np.zeros((len(nodes), 2))
    seen = np.zeros(len(nodes), dtype=bool)
    for t in train_tweets:
        counts[row[t.user_id], t.label] += 1.0
        seen[row[t.user_id]] = True
    counts[~seen] = NONOFF_INIT
    return counts


def attention_arcs(nodes: list[str], edges) -> tuple[np.ndarray, np.ndarray]:
    """(source, neighbour) pairs sorted by source then neighbour: each node attends
    over itself and the users it follows."""
    row = {u: i for i, u in enumerate(nodes)}
    arcs = {(i, i) for i in range(len(nodes))}
    arcs.update((row[a], row[b]) for a, b in edges)
    pairs = np.array(sorted(arcs), dtype=np.int64)
    return pairs[:, 0], pairs[:, 1]


def gat(features, src, dst, heads, residual) -> tuple[np.ndarray, list[np.ndarray]]:
    """Eval-mode single-layer multi-head GAT: per-head ELU outputs, then the
    residual projection, concatenated. ``heads`` is a list of (W, a) with
    W [F, d] and a [2d, 1]. Returns the embeddings and each head's weights."""
    n = len(features)
    outputs, weights = [], []
    for w, a in heads:
        z = features @ w
        d = w.shape[1]
        score = z[src] @ a[:d, 0] + z[dst] @ a[d:, 0]
        score = np.where(score > 0.0, score, LEAKY_SLOPE * score)
        top = np.full(n, -np.inf)
        np.maximum.at(top, src, score)
        e = np.exp(score - top[src])
        alpha = e / np.bincount(src, weights=e, minlength=n)[src]
        h = np.zeros((n, d))
        np.add.at(h, src, alpha[:, None] * z[dst])
        outputs.append(np.where(h > 0.0, h, np.expm1(h)))
        weights.append(alpha)
    if residual is not None:
        outputs.append(features @ residual)
    return np.concatenate(outputs, axis=1), weights
