"""The composed detection model: graph attention + text encoder + fusion head.

One model instance owns every trainable parameter and knows which of them
belong to the graph-attention learning-rate group. The constructor builds
only the pieces the selected ablation keeps:

  * ``full``               everything below,
  * ``no_gat``             drop the graph side; fuse token rows only,
  * ``no_encoder``         drop the text side; author rows only (predictions
                           become a function of the author alone),
  * ``no_gat_residual``    graph attention without the residual row,
  * ``single_head_gat``    one graph attention head at full hidden width,
  * ``no_attention_layer`` skip fused attention; mean-pooled token rows and
                           user rows are concatenated straight into the
                           feed-forward layer.
"""

from __future__ import annotations

import functools

import numpy as np

from . import resources
from .corpus import TokenSequence, Vocab
from .encoder import EncoderParams, encode
from .fusion import FusionParams, add_position_encoding, assemble, classify, fuse_attention, pool_rows
from .gat import GatParams, gat_forward
from .graph import SocialGraph
from .tensor import RowDraws, Tensor, concat, no_grad, reshape

__all__ = ["ABLATIONS", "DetectionModel"]

ABLATIONS = ("full", "no_gat", "no_encoder", "no_gat_residual", "single_head_gat", "no_attention_layer")


class DetectionModel:
    """The parameters of every kept piece, and the forward passes over them.

    ``forward_batch`` scores a batch in one padded computation,
    ``forward_halves`` a training batch as two row halves at once, and
    ``predict`` off the tape in length-ordered chunks. ``tensor.matmul``'s two
    product rules (a width-1 product sums elementwise products; a one-row
    product runs as a two-row one) make a product row independent of the
    rows beside it, so splitting a batch changes no probability; padding a
    tweet to a longer one still may.
    """

    def __init__(self, config, vocab_size: int, feature_dim: int, rng: np.random.Generator | None):
        self.config = config

        self.gat: GatParams | None = None
        if config.ablation != "no_gat":
            heads = 1 if config.ablation == "single_head_gat" else config.gat_heads
            self.gat = GatParams.init(
                feature_dim, heads, config.gat_hidden // heads, rng,
                with_residual=config.ablation != "no_gat_residual",
            )

        self.encoder: EncoderParams | None = None
        if config.ablation != "no_encoder":
            self.encoder = EncoderParams.init(
                vocab_size, config.max_len, config.d_model,
                config.encoder_layers, config.encoder_heads, config.d_ff, rng,
            )

        with_attention = config.ablation != "no_attention_layer"
        branches = 1 + (self.gat is not None and self.encoder is not None)
        self.fusion = FusionParams.init(
            config.d_model, config.d_ff, rng,
            num_heads=config.fusion_heads,
            gat_head_dim=None if self.gat is None else self.gat.head_dim,
            with_residual_row=self.gat is not None and self.gat.residual_proj is not None,
            with_attention=with_attention,
            ffn_in=config.d_model if with_attention else branches * config.d_model,
        )

    # -- parameters ------------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        if self.gat is not None:
            out.update(self.gat.named("gat"))
        if self.encoder is not None:
            out.update(self.encoder.named("encoder"))
        out.update(self.fusion.named("fusion"))
        return out

    def parameter_groups(self) -> tuple[list[Tensor], list[Tensor]]:
        """(graph-attention group, everything else); disjoint and exhaustive."""
        gat_group, rest = [], []
        for name, tensor in self.named_parameters().items():
            (gat_group if name.startswith("gat.") else rest).append(tensor)
        return gat_group, rest

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_parameters().items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        params = self.named_parameters()
        if set(arrays) != set(params):
            missing = set(params) ^ set(arrays)
            raise ValueError(f"checkpoint parameters do not match the model: {sorted(missing)}")
        for name, tensor in params.items():
            value = np.asarray(arrays[name], dtype=np.float64)
            if value.shape != tensor.shape:
                raise ValueError(f"{name}: shape {value.shape} != {tensor.shape}")
            tensor.data[...] = value

    # -- forward ---------------------------------------------------------

    def user_embeddings(
        self, graph: SocialGraph, users: np.ndarray | None = None, *, rng: np.random.Generator | None = None
    ) -> Tensor | None:
        """Graph-attention rows for the node ids ``users`` (every node when None), read
        from their neighbourhoods in the masked graph; ``rng`` turns dropout on."""
        if self.gat is None:
            return None
        return gat_forward(
            Tensor(graph.features), graph, self.gat,
            users=users, rng=rng, attn_dropout=self.config.attention_dropout,
            symmetric=self.config.symmetric_neighbors,
        )

    def forward_batch(
        self,
        seqs: list[TokenSequence],
        authors: Tensor | None,
        *,
        rng: np.random.Generator | RowDraws | None = None,
        width: int | None = None,
    ) -> Tensor:
        """Probabilities for a batch, shape [B], from one padded computation.

        Token ids are padded to ``width`` slots, by default the batch's longest
        tweet, and masked.
        ``authors`` holds each tweet's author row, [B, output_dim], from
        ``user_embeddings(graph, graph.node_ids(...))``. ``authors=None`` skips
        the author rows entirely, which reproduces the text-only ablation from
        the full model's parameters (the structural-equivalence escape hatch);
        the ``no_encoder`` and ``no_attention_layer`` models need the rows,
        and a model without a graph side takes none.
        ``rng`` turns dropout on, at the config's rates: a generator, or the
        ``RowDraws`` of these rows of a larger batch (see ``forward_halves``).
        """
        if not seqs:
            raise ValueError("forward_batch needs at least one tweet")
        if self.gat is None and authors is not None:
            raise ValueError("a model without a graph side takes no author rows")
        if authors is None and self.config.ablation == "no_attention_layer":  # its feed-forward layer reads both
            raise ValueError("the no_attention_layer model needs author rows")
        if authors is not None and authors.shape != (len(seqs), self.gat.output_dim):
            raise ValueError(f"author rows must be [{len(seqs)}, {self.gat.output_dim}], got {list(authors.shape)}")
        tokens = author = None
        lengths = np.zeros(len(seqs), dtype=np.int64)  # token rows per tweet
        if self.encoder is not None:
            lengths = np.array([len(s) for s in seqs])
            if width is None:
                width = lengths.max()
            elif width < lengths.max():
                raise ValueError(f"a width of {width} slots cuts a {lengths.max()}-token tweet")
            token_mask = np.arange(width) < lengths[:, None]
            ids = np.full(token_mask.shape, Vocab.PAD, dtype=np.int64)
            ids[token_mask] = np.concatenate([s.token_ids for s in seqs])
            tokens = encode(
                ids, self.encoder, mask=token_mask, rng=rng,
                attn_dropout=self.config.attention_dropout, hidden_dropout=self.config.hidden_dropout,
            )
        if authors is not None:
            rows = self.gat.num_heads + (self.gat.residual_proj is not None)
            author = reshape(authors, (len(seqs), rows, self.gat.head_dim))

        if self.config.ablation == "no_attention_layer":
            pooled = []
            if tokens is not None:
                pooled.append(pool_rows(tokens, token_mask))
            if author is not None:
                pooled.append(pool_rows(assemble(None, author, self.fusion)))
            x, mask = concat(pooled, axis=-1), None
        else:
            x = assemble(tokens, author, self.fusion)
            mask = np.ones(x.shape[:2], dtype=bool)
            if tokens is not None:
                mask[:, : token_mask.shape[1]] = token_mask
            x = add_position_encoding(x, lengths)
            x = fuse_attention(x, self.fusion, mask=mask, rng=rng, attn_dropout=self.config.attention_dropout)
        return classify(
            x, self.fusion, mask=mask, rng=rng,
            hidden_dropout=self.config.hidden_dropout, pooling=self.config.pooling,
        )

    def forward_halves(
        self, seqs: list[TokenSequence], authors: Tensor | None, rng: np.random.Generator | None
    ) -> Tensor:
        """``forward_batch`` of the batch, on the tape, as two row halves run at once.

        Rows [0, ⌈B/2⌉) and [⌈B/2⌉, B) each run ``forward_batch`` through
        ``_forward_rows``, padded to the batch's longest tweet, with the
        ``RowDraws`` of their rows. The probabilities are concatenated, so a
        loss and its ``backward`` see one tape. They and the random stream are
        the whole-batch forward's to the bit, at any worker count. A batch of
        one tweet has one part.
        """
        middle = (len(seqs) + 1) // 2
        bounds = [(0, middle), (middle, len(seqs))] if len(seqs) > 1 else [(0, len(seqs))]
        probs = self._forward_rows(seqs, authors, bounds, rng, width=max((len(s) for s in seqs), default=0))
        return probs[0] if len(probs) == 1 else concat(probs)

    def predict(self, seqs: list[TokenSequence], graph: SocialGraph) -> np.ndarray:
        """Evaluation-mode probabilities as a plain array, in the order of ``seqs``.

        Scores shortest tweet first, off the tape, in chunks of
        ``config.batch_size`` tweets, so each chunk pads only to its own
        longest tweet and memory stays flat in the number of tweets. Each
        scored tweet's author is embedded once, from the authors'
        neighbourhoods. The chunks run through ``_forward_rows``,
        ``scoring_workers()`` at once: one per core, at the one BLAS thread
        importing offgraph sets. The chunks and their arithmetic, so every
        score, are the same at any worker count, and the first failing chunk in
        length order raises.
        """
        if not seqs:
            return np.zeros(0)
        order = np.argsort([len(s) for s in seqs], kind="stable")
        seqs = [seqs[i] for i in order]
        step = self.config.batch_size
        bounds = [(lo, min(lo + step, len(seqs))) for lo in range(0, len(seqs), step)]
        with no_grad():
            # no lookup without a graph side, so the text-only model scores authors the graph lacks
            authors = None
            if self.gat is not None:
                authors = self.user_embeddings(graph, graph.node_ids([s.author_id for s in seqs]))
            chunks = self._forward_rows(seqs, authors, bounds)  # done before no_grad exits: it is process-wide
        probs = np.empty(len(seqs))
        probs[order] = np.concatenate([chunk.data for chunk in chunks])
        return probs

    def _forward_rows(
        self, seqs: list[TokenSequence], authors: Tensor | None, bounds: list[tuple[int, int]], rng=None, width=None
    ) -> list[Tensor]:
        """``forward_batch`` of rows ``[lo, hi)`` for each of ``bounds``, as one ``resources.Job`` each through
        ``resources.run_jobs``; with ``rng``, each reads its rows of the batch's dropout masks (``RowDraws``)."""
        draws = [None] * len(bounds) if rng is None else RowDraws.parts(rng, bounds)
        return resources.run_jobs([
            resources.Job(functools.partial(
                self.forward_batch, seqs[lo:hi], None if authors is None else authors[lo:hi], rng=part, width=width,
            ))
            for (lo, hi), part in zip(bounds, draws)
        ])
