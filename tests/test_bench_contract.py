"""What the benchmark in perfbench/ relies on in the program.

perfbench wraps program entry points by module attribute and reads GAT
parameters by name. A refactor that moves one of them would leave the
benchmark timing nothing or failing its checks, so the names are pinned here.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from offgraph import encoder, fusion
from offgraph.corpus import TokenSequence
from offgraph.gat import attention_coefficients
from offgraph.graph import SocialGraph
from offgraph.model import DetectionModel
from offgraph.tensor import Tensor
from offgraph.training import TrainConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

PATCHES = workloads.E2E_PATCHES + workloads.LAYER_PATCHES


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _ in PATCHES],
    ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in PATCHES],
)
def test_traced_entry_points_are_own_attributes(owner, attr):
    # Tracer.patch reads owner.__dict__[attr], so the attribute must live on
    # the owner itself, not on a base class or another module
    assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
    assert callable(owner.__dict__[attr])


def test_every_attention_block_calls_through_the_patched_names(monkeypatch):
    # attention.s is the time spent inside encoder.multi_head_attention and
    # fusion.multi_head_attention; a forward that stopped calling through those
    # module attributes would leave it at zero without failing anything else
    calls = {}
    for module in (encoder, fusion):
        def counting(*args, _inner=module.multi_head_attention, _name=module.__name__, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, "multi_head_attention", counting)
    config = TrainConfig(gat_hidden=8, gat_heads=2, d_model=8, encoder_layers=3, encoder_heads=2, fusion_heads=2)
    model = DetectionModel(config, 10, 2, np.random.default_rng(0))
    seqs = [TokenSequence(np.array([2, 4, 5]), "u0", 0, "t0"), TokenSequence(np.array([2, 7]), "u1", 1, "t1")]
    authors = Tensor(np.ones((2, model.gat.output_dim)))
    assert model.forward_batch(seqs, authors).shape == (2,)
    assert calls == {"offgraph.encoder": config.encoder_layers, "offgraph.fusion": 1}


@pytest.mark.parametrize("ablation", ["full", "single_head_gat"])
def test_gat_parameter_names_read_by_the_fit_check(ablation):
    config = TrainConfig(gat_hidden=8, gat_heads=2, d_model=8, encoder_heads=2, fusion_heads=2, ablation=ablation)
    model = DetectionModel(config, 10, 2, np.random.default_rng(0))
    params = model.named_parameters()
    heads = model.gat.num_heads
    for k in range(heads):
        assert params[f"gat.head{k}.proj"].shape == (2, model.gat.head_dim)
        assert params[f"gat.head{k}.attn"].shape == (2 * model.gat.head_dim, 1)
    assert f"gat.head{heads}.proj" not in params
    assert params["gat.residual.proj"].shape == (2, model.gat.head_dim)


def test_attention_coefficients_one_head_form_read_by_the_fit_check():
    # the fit check scores each head alone, [N, d] with [2d, 1]; the model scores all heads at once
    rng = np.random.default_rng(0)
    n, heads, dim = 12, 3, 16
    arcs = np.array([(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.4])
    src, dst = SocialGraph(nodes=[f"u{i}" for i in range(n)], arcs=arcs).edge_arrays()
    projected, attn = rng.normal(size=(n, heads, dim)), rng.normal(size=(2 * dim, heads))
    packed = attention_coefficients(Tensor(projected), src, dst, Tensor(attn), n).data
    assert packed.shape == (len(src), heads)
    for k in range(heads):
        alone = attention_coefficients(Tensor(projected[:, k]), src, dst, Tensor(attn[:, k : k + 1]), n).data
        assert alone.shape == (len(src),)
        assert np.array_equal(packed[:, k], alone)
