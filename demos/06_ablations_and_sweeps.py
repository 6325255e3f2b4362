"""Ablations, experiment grids and a seed scan.

Every experiment here is a list of config overrides that ``run_grid`` trains
one by one. The ablation table retrains with exactly one module removed at a
time; the author-only variant (text encoder removed) collapses because the
planted signal lives in the text, while the text-only variant stays strong
for the same reason. On a real corpus with richer author structure the
ordering shifts; the harness is what this demo shows.

The sweeps reproduce the three experiment grids: training ratio 0.1-0.9, the
four unknown-feature initializations at sparse and default ratios, and the
three graph feature variants as graph-only versus full models; ``sweep``
turns each grid's results into a CSV table. The sweeps run a deliberately
tiny one-epoch setting so the whole script stays short; point the same calls
at a desk-scale config for meaningful numbers. A five-seed scan of the full
model closes the demo: its spread is how far one run's F1 can be trusted.
"""

import warnings
from dataclasses import replace

import numpy as np

from offgraph import ABLATIONS, TrainConfig, generate_corpus, run_grid, sweep

warnings.filterwarnings("ignore", category=RuntimeWarning)

config = TrainConfig(
    max_epochs=20,
    early_stop_patience=10,
    batch_size=64,
    lr_rest=1e-2,
    attention_dropout=0.1,
    gat_hidden=16,
    gat_heads=4,
    d_model=32,
    encoder_layers=1,
    encoder_heads=4,
    d_ff=64,
    max_len=32,
    fusion_heads=2,
    seed=7,
    stratify_split=True,
)
corpus = generate_corpus(400, 50, seed=9)

print("== ablation table (one module removed per row) ==")
results = run_grid(config, corpus, [{"ablation": variant} for variant in ABLATIONS])
print(f"{'variant':<20s} {'auc':>7s} {'acc':>7s} {'f1':>7s}")
for variant, result in zip(ABLATIONS, results):
    m = result.best_metrics
    print(f"{variant:<20s} {m.auc:>7.3f} {m.accuracy:>7.3f} {m.f1:>7.3f}")

tiny = replace(config, max_epochs=1, early_stop_patience=1)

print("\n== training-ratio sweep (9 rows) ==")
print(sweep(tiny, "train_fraction", corpus))

print("== initialization sweep at ratios 0.1 and 0.7 (8 rows) ==")
print(sweep(tiny, "init", corpus))

print("== graph-variant sweep, graph-only vs full (6 rows) ==")
print(sweep(tiny, "variant", corpus))

print("== seed scan of the full model (5 seeds) ==")
runs = run_grid(config, corpus, [{"seed": seed} for seed in range(5)])
f1 = np.array([r.best_metrics.f1 for r in runs])
print("macro-F1 per seed:", " ".join(f"{v:.3f}" for v in f1))
print(f"mean {f1.mean():.3f}, std {f1.std():.3f}")
