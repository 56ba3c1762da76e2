import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import framing
from gradcheck import fd_gradient, rel_error
from transecg import autodiff as ad
from transecg import vit
from transecg.autodiff import Tensor
from transecg.training import cross_entropy

TINY = vit.VitConfig(seq_len=40, patch_size=10, hidden_dim=8, n_layers=2,
                     n_heads=2, mlp_dim=16, n_classes=3, survival_prob=1.0)


@pytest.fixture
def tiny_params():
    return vit.init_params(TINY, seed=0)


def tiny_batch(b=2, seed=0):
    return np.random.default_rng(seed).uniform(size=(b, TINY.seq_len))


class TestConfig:
    def test_default_geometry(self):
        cfg = vit.VitConfig()
        assert cfg.n_patches == 100
        assert cfg.head_dim == 42  # floor(256/6); heads concatenate to 252
        assert cfg.n_heads * cfg.head_dim == 252

    def test_indivisible_seq_rejected(self):
        with pytest.raises(ValueError, match="config field 'seq_len' must be a multiple of "
                                             "config field 'patch_size', got 2001 and 20"):
            vit.VitConfig(seq_len=2001, patch_size=20)

    @pytest.mark.parametrize("field", ["seq_len", "patch_size", "hidden_dim", "n_layers",
                                       "n_heads", "mlp_dim", "n_classes"])
    def test_non_positive_int_field_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            vit.VitConfig(**{field: 0})

    def test_hidden_dim_one_rejected(self):
        """layer_norm standardizes over hidden_dim, so width 1 is refused up front."""
        with pytest.raises(ValueError, match="'hidden_dim' must be at least 2"):
            vit.VitConfig(hidden_dim=1, n_heads=1)


class TestInit:
    def test_deterministic(self):
        a = vit.init_params(TINY, seed=5)
        b = vit.init_params(TINY, seed=5)
        for k in a:
            assert np.array_equal(a[k].data, b[k].data)

    def test_seed_changes_params(self):
        a = vit.init_params(TINY, seed=1)
        b = vit.init_params(TINY, seed=2)
        assert not np.array_equal(a["embed.E"].data, b["embed.E"].data)

    def test_weight_std_in_range(self):
        cfg = vit.VitConfig(seq_len=2000, patch_size=20, hidden_dim=256, n_layers=1,
                            n_heads=4, mlp_dim=256, n_classes=2)
        p = vit.init_params(cfg, seed=3)
        std = p["layers.0.ffn.w1"].data.std()
        assert 0.015 <= std <= 0.025
        assert np.max(np.abs(p["layers.0.ffn.w1"].data)) <= 0.04 + 1e-12

    def test_zero_initialized_fields(self, tiny_params):
        assert np.all(tiny_params["embed.cls"].data == 0)
        assert np.all(tiny_params["head.b"].data == 0)


class TestEmbed:
    def test_identity_projection_recovers_patches(self):
        cfg = vit.VitConfig(seq_len=40, patch_size=8, hidden_dim=8, n_layers=1,
                            n_heads=2, mlp_dim=8, n_classes=2)
        params = vit.init_params(cfg, seed=0)
        params["embed.E"].data = np.eye(8)
        params["embed.E_pos"].data[:] = 0.0
        params["embed.cls"].data[:] = 0.0
        x = np.random.default_rng(0).uniform(size=(1, 40))
        z = vit.embed_patches(Tensor(x), params, cfg)
        assert np.allclose(z.data[0, 1:], x.reshape(5, 8))
        assert np.allclose(z.data[0, 0], 0.0)

    def test_output_shape_default_config(self):
        cfg = vit.VitConfig(n_classes=2)
        params = vit.init_params(cfg, seed=0)
        z = vit.embed_patches(Tensor(np.zeros((1, 2000))), params, cfg)
        assert z.shape == (1, 101, 256)

    def test_patch_locality(self, tiny_params):
        tiny_params["embed.E_pos"].data[:] = 0.0
        a = tiny_batch(1, seed=1)
        b = a.copy()
        b[0, 30:40] += 1.0  # patch 3 only
        za = vit.embed_patches(Tensor(a), tiny_params, TINY)
        zb = vit.embed_patches(Tensor(b), tiny_params, TINY)
        diff = np.abs(za.data - zb.data).sum(axis=-1)[0]
        assert diff[4] > 0
        assert np.allclose(np.delete(diff, 4), 0.0)


class TestMhsa:
    def test_attention_rows_stochastic(self, tiny_params):
        z = Tensor(np.random.default_rng(0).normal(size=(2, 5, 8)))
        _, maps = vit.mhsa(z, tiny_params, "layers.0.", TINY, capture=True)
        assert maps.shape == (2, 2, 5, 5)
        assert np.allclose(maps.sum(axis=-1), 1.0, atol=1e-9)

    def test_zero_qk_uniform_attention(self, tiny_params):
        tiny_params["layers.0.w_q"].data[:] = 0.0
        tiny_params["layers.0.w_k"].data[:] = 0.0
        z = Tensor(np.random.default_rng(0).normal(size=(1, 5, 8)))
        _, maps = vit.mhsa(z, tiny_params, "layers.0.", TINY, capture=True)
        assert np.allclose(maps, 1.0 / 5)

    def test_permutation_equivariance(self, tiny_params):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(1, 5, 8))
        perm = np.array([0, 3, 1, 4, 2])  # keeps the class row fixed
        out1, _ = vit.mhsa(Tensor(z), tiny_params, "layers.0.", TINY)
        out2, _ = vit.mhsa(Tensor(z[:, perm]), tiny_params, "layers.0.", TINY)
        assert np.allclose(out1.data[:, perm], out2.data, atol=1e-10)


class TestEncoderLayer:
    def test_zero_branches_double_layer_norm(self, tiny_params):
        for key in ("w_o", "ffn.w2"):
            tiny_params[f"layers.0.{key}"].data[:] = 0.0
        tiny_params["layers.0.ffn.b2"].data[:] = 0.0
        z = Tensor(np.random.default_rng(1).normal(size=(1, 5, 8)))
        out, _ = vit.encoder_layer(z, tiny_params, 0, TINY)
        g1 = tiny_params["layers.0.ln1.gamma"]
        b1 = tiny_params["layers.0.ln1.beta"]
        g2 = tiny_params["layers.0.ln2.gamma"]
        b2 = tiny_params["layers.0.ln2.beta"]
        expected = ad.layer_norm(ad.layer_norm(z, g1, b1, TINY.ln_eps), g2, b2, TINY.ln_eps)
        assert np.allclose(out.data, expected.data)

    def test_training_survival_one_matches_inference(self, tiny_params):
        z = np.random.default_rng(2).normal(size=(1, 5, 8))
        out_inf, _ = vit.encoder_layer(Tensor(z), tiny_params, 0, TINY)
        out_tr, _ = vit.encoder_layer(Tensor(z), tiny_params, 0, TINY,
                                      keep=vit.draw_keep(TINY, np.random.default_rng(0))[0])
        assert np.array_equal(out_inf.data, out_tr.data)

    def test_inference_deterministic(self, tiny_params):
        z = np.random.default_rng(3).normal(size=(2, 5, 8))
        a, _ = vit.encoder_layer(Tensor(z), tiny_params, 1, TINY)
        b, _ = vit.encoder_layer(Tensor(z), tiny_params, 1, TINY)
        assert np.array_equal(a.data, b.data)


class TestForward:
    def test_zero_head_uniform_probs(self, tiny_params):
        tiny_params["head.w"].data[:] = 0.0
        tiny_params["head.b"].data[:] = 0.0
        art = vit.forward(tiny_batch(3), tiny_params, TINY)
        assert np.allclose(ad.softmax(art.logits).data, 1.0 / TINY.n_classes)

    def test_shapes_default_config(self):
        cfg = vit.VitConfig(n_classes=5)
        params = vit.init_params(cfg, seed=0)
        art = vit.forward(np.zeros((2, 2000)), params, cfg, capture_attention=True)
        assert art.logits.shape == (2, 5)
        assert art.attention.shape == (2, 6, 1, 101)  # the class-token row

    def test_attention_row_stochastic_everywhere(self, tiny_params):
        z = vit.embed_patches(Tensor(tiny_batch(2)), tiny_params, TINY)
        for layer in range(TINY.n_layers):
            z, maps = vit.encoder_layer(z, tiny_params, layer, TINY, capture=True)
            assert np.allclose(maps.sum(axis=-1), 1.0, atol=1e-6)

    def test_wrong_length_rejected(self, tiny_params):
        with pytest.raises(ValueError):
            vit.forward(np.zeros((1, 41)), tiny_params, TINY)

    def test_class_logits_invariant_to_patch_permutation(self, tiny_params):
        tiny_params["embed.E_pos"].data[:] = 0.0
        x = tiny_batch(1, seed=9)
        perm = np.random.default_rng(0).permutation(TINY.n_patches)
        x_perm = x.reshape(1, TINY.n_patches, TINY.patch_size)[:, perm].reshape(1, -1)
        a = vit.forward(x, tiny_params, TINY)
        b = vit.forward(x_perm, tiny_params, TINY)
        assert np.allclose(a.logits.data, b.logits.data, atol=1e-9)

    def test_full_model_gradient_check(self, tiny_params):
        x = tiny_batch(2, seed=5)
        y = np.array([0, 2])
        with ad.recording():
            art = vit.forward(x, tiny_params, TINY, training=True)
            ad.backward(cross_entropy(art.logits, y))

        check_keys = ["embed.E", "embed.E_pos", "embed.cls", "layers.0.w_q",
                      "layers.1.w_o", "layers.0.ln1.gamma", "layers.1.ffn.w1",
                      "head.w", "head.b"]
        for key in check_keys:
            param = tiny_params[key]
            arr = param.data

            def scalar(arrs):
                param.data = arrs[0]
                out = vit.forward(x, tiny_params, TINY, training=True)
                val = float(cross_entropy(out.logits, y).data)
                param.data = arr
                return val

            numeric = fd_gradient(scalar, [arr.copy()], 0, eps=1e-6)
            assert rel_error(param.grad, numeric) < 1e-3, key


    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_train_step_tape_nodes(self, n_layers):
        """Per layer: q, k, v, attention, output projection, two residual layer
        norms and the three FFN nodes. Embedding 4, the last layer's class-token
        row 1, head 2 (token axis and linear), loss 1."""
        cfg = dataclasses.replace(TINY, n_layers=n_layers)
        params = vit.init_params(cfg, seed=0)
        with ad.recording():
            art = vit.forward(tiny_batch(2), params, cfg, training=True,
                              keep=vit.draw_keep(cfg, np.random.default_rng(0)))
            cross_entropy(art.logits, np.array([0, 2]))
            assert len(ad._TAPE) == 10 * n_layers + 8


# The encoder layer as it ran before the last layer computed only the
# class-token row, kept as the oracle: every token goes through every layer,
# and the head indexes the class token afterwards.


def _full_block(z, params, layer, config, training, rng):
    pre = f"layers.{layer}."
    p = config.survival_prob
    branch_scale = 1.0 / p if training else 1.0

    def keep_branch():
        return not training or p >= 1.0 or bool(rng.random() < p)

    q, k, v = (ad.matmul(z, params[pre + w]) for w in ("w_q", "w_k", "w_v"))
    att = ad.matmul(ad.attention(q, k, v, config.n_heads)[0], params[pre + "w_o"])
    z = ad.layer_norm(z, params[pre + "ln1.gamma"], params[pre + "ln1.beta"], config.ln_eps,
                      residual=att if keep_branch() else None, residual_scale=branch_scale)
    ffn = None
    if keep_branch():
        hdn = ad.gelu(ad.matmul(z, params[pre + "ffn.w1"], params[pre + "ffn.b1"]))
        ffn = ad.matmul(hdn, params[pre + "ffn.w2"], params[pre + "ffn.b2"])
    return ad.layer_norm(z, params[pre + "ln2.gamma"], params[pre + "ln2.beta"], config.ln_eps,
                         residual=ffn, residual_scale=branch_scale)


def _full_forward(x, params, config, training, rng):
    z = vit.embed_patches(Tensor(x), params, config)
    for layer in range(config.n_layers):
        z = _full_block(z, params, layer, config, training, rng)
    return ad.matmul(ad.index(z, (slice(None), 0)), params["head.w"], params["head.b"])


def _logits_and_grads(forward, config, y, seed):
    # unit-scale weights, so that attention is far from uniform
    rng = np.random.default_rng(seed)
    params = {name: Tensor(rng.normal(size=shape), requires_grad=True)
              for name, shape in vit.param_shapes(config).items()}
    with ad.recording():
        logits = forward(params)
        ad.backward(cross_entropy(logits, y))
    return logits.data, {name: p.grad for name, p in params.items()}


@given(n_patches=st.integers(1, 5), patch_size=st.integers(1, 3),
       hidden_dim=st.integers(3, 7), n_heads=st.integers(1, 3), n_layers=st.integers(1, 2),
       mlp_dim=st.integers(1, 4), n_classes=st.integers(2, 3), batch=st.integers(1, 3),
       training=st.booleans(), survival_prob=st.floats(0.05, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_class_token_last_block_matches_full_block(n_patches, patch_size, hidden_dim, n_heads,
                                                   n_layers, mlp_dim, n_classes, batch,
                                                   training, survival_prob, seed):
    """The logits equal the full last block's within 1e-12 relative, and every
    parameter gradient within 1e-12 of the model's largest gradient entry; the
    stochastic-depth draws keep their order.

    The two differ only in rounding: a one-row GEMM may sum in another order.
    Scaled by each tensor's own max, that rounding exceeds 1e-12 wherever a
    gradient is a small difference of large terms: embed.cls reached 1.2e-12
    with init_params weights and other tensors 7.7e-9 with these. hidden_dim
    starts at 3: at 2 a layer norm maps the difference d of its two inputs to
    ±|d|/sqrt(d² + 2·eps), which amplifies rounding by up to 1/sqrt(eps) where d
    is small (2.1e-12 of the largest gradient entry)."""
    config = vit.VitConfig(seq_len=n_patches * patch_size, patch_size=patch_size,
                           hidden_dim=hidden_dim, n_layers=n_layers,
                           n_heads=min(n_heads, hidden_dim), mlp_dim=mlp_dim,
                           n_classes=n_classes, survival_prob=survival_prob)
    data = np.random.default_rng(seed)
    x = data.normal(size=(batch, config.seq_len))
    y = data.integers(0, n_classes, size=batch)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got_logits, got = _logits_and_grads(lambda params: vit.forward(
        x, params, config, training=training,
        keep=vit.draw_keep(config, got_rng) if training else None).logits, config, y, seed)
    want_logits, want = _logits_and_grads(lambda params: _full_forward(
        x, params, config, training, want_rng), config, y, seed)
    assert got_rng.random() == want_rng.random()     # as many draws, in the same order

    assert np.abs(got_logits - want_logits).max() <= 1e-12 * np.abs(want_logits).max()
    assert [name for name in want if got[name] is None] == \
        [name for name in want if want[name] is None]
    scale = max(np.abs(grad).max() for grad in want.values() if grad is not None)
    for name, grad in want.items():
        if grad is not None:
            assert np.abs(got[name] - grad).max() <= 1e-12 * scale, name


class TestStochasticDepth:
    @pytest.mark.parametrize("p", [0.3, 0.8])
    def test_draw_keep_gives_branch_factors_in_draw_order(self, p):
        """Each layer's (attention, FFN) factor is 1/p for a branch whose scalar draw
        falls below p, else 0.0, drawn layer by layer, attention first."""
        cfg = dataclasses.replace(TINY, n_layers=5, survival_prob=p)
        got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
        want = [tuple(1.0 / p if want_rng.random() < p else 0.0 for _ in range(2))
                for _ in range(cfg.n_layers)]
        assert vit.draw_keep(cfg, got_rng) == want
        assert got_rng.random() == want_rng.random()

    def test_draw_keep_at_survival_one_keeps_every_branch_and_draws_nothing(self):
        rng = np.random.default_rng(4)
        assert vit.draw_keep(TINY, rng) == [(1.0, 1.0)] * TINY.n_layers
        assert rng.random() == np.random.default_rng(4).random()

    def test_branches_dropped_changes_output(self):
        cfg = vit.VitConfig(seq_len=40, patch_size=10, hidden_dim=8, n_layers=2,
                            n_heads=2, mlp_dim=16, n_classes=3, survival_prob=0.5)
        params = vit.init_params(cfg, seed=0)
        x = tiny_batch(1)
        outs = {
            tuple(np.round(vit.forward(x, params, cfg, training=True,
                                       keep=vit.draw_keep(cfg, np.random.default_rng(s))
                                       ).logits.data[0], 12))
            for s in range(10)
        }
        assert len(outs) > 1  # different drop patterns give different outputs
        inf1 = vit.forward(x, params, cfg)
        inf2 = vit.forward(x, params, cfg)
        assert np.array_equal(inf1.logits.data, inf2.logits.data)


    def test_training_below_survival_one_needs_the_draws(self):
        cfg = dataclasses.replace(TINY, survival_prob=0.5)
        with pytest.raises(ValueError, match="draw_keep"):
            vit.forward(tiny_batch(1), vit.init_params(cfg, seed=0), cfg, training=True)


class TestCheckpoint:
    def test_round_trip_reproduces_forward(self, tiny_params, tmp_path):
        x = tiny_batch(2, seed=8)
        before = vit.forward(x, tiny_params, TINY).logits.data
        path = tmp_path / "model.ckpt"
        vit.save_checkpoint(path, tiny_params, TINY, {"male": 0, "female": 1},
                            meta={"task": "gender"})
        params2, cfg2, vocab, meta = vit.load_checkpoint(path)
        assert cfg2 == TINY
        assert vocab == {"male": 0, "female": 1}
        assert meta["task"] == "gender"
        after = vit.forward(x, params2, cfg2).logits.data
        assert np.array_equal(before, after)

    def test_loaded_params_record_no_tape(self, tiny_params, tmp_path):
        path = tmp_path / "model.ckpt"
        vit.save_checkpoint(path, tiny_params, TINY, {})
        params, cfg, _, _ = vit.load_checkpoint(path)
        assert not any(p.requires_grad for p in params.values())
        with ad.recording():
            vit.forward(tiny_batch(1), params, cfg, capture_attention=True)
            assert len(ad._TAPE) == 0

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        params = {name: Tensor(rng.normal(size=shape))
                  for name, shape in vit.param_shapes(TINY).items()}
        params["head.b"].data[:2] = [-0.0, 5e-324]  # sign of zero, a subnormal
        path = tmp_path / "model.ckpt"
        vit.save_checkpoint(path, params, TINY, {})
        loaded, _, _, _ = vit.load_checkpoint(path)
        assert list(loaded) == list(params)
        for name, p in params.items():
            assert loaded[name].shape == p.shape
            assert np.array_equal(loaded[name].data.view(np.uint64), p.data.view(np.uint64))

    def test_file_layout(self, tiny_params, tmp_path):
        """u64 LE header length, the JSON header, then each parameter's <f8 bytes
        in param_shapes order."""
        path = tmp_path / "model.ckpt"
        vocab, meta = {"male": 0, "female": 1}, {"seed": 3}
        vit.save_checkpoint(path, tiny_params, TINY, vocab, meta=meta)
        header = json.dumps({"config": dataclasses.asdict(TINY), "vocab": vocab,
                             "meta": meta}, sort_keys=True).encode("utf-8")
        payload = b"".join(np.asarray(tiny_params[name].data, dtype="<f8").tobytes()
                           for name in vit.param_shapes(TINY))
        assert path.read_bytes() == struct.pack("<Q", len(header)) + header + payload

    def test_params_checked_against_config(self, tiny_params, tmp_path):
        path = tmp_path / "model.ckpt"
        wider = dataclasses.replace(TINY, mlp_dim=32)
        vit.save_checkpoint(path, tiny_params, wider, {})
        with pytest.raises(ValueError, match=f"{path.name} holds .* payload bytes, but its "
                                             f"header needs"):
            vit.load_checkpoint(path)

    def test_corrupt_header_length_refused_before_reading(self, tmp_path):
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(struct.pack("<Q", 2**40) + _checkpoint_bytes(tmp_path)[8:])
        with pytest.raises(ValueError, match="corrupt.ckpt"):
            vit.load_checkpoint(path)

    def test_trailing_byte_refused(self, tmp_path):
        path = tmp_path / "long.ckpt"
        path.write_bytes(_checkpoint_bytes(tmp_path) + b"\0")
        with pytest.raises(ValueError, match="long.ckpt"):
            vit.load_checkpoint(path)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_truncation_raises_value_error(self, tmp_path, data):
        blob = _checkpoint_bytes(tmp_path)
        # the named cut drops the last parameter, the head's bias, whole
        cut = data.draw(framing.cuts(blob, 8 * TINY.n_classes))
        path = tmp_path / f"cut{cut}.ckpt"
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match=path.name):
            vit.load_checkpoint(path)

    def test_every_cut_through_header_and_first_parameters_refused(self, tmp_path):
        blob = _checkpoint_bytes(tmp_path)
        (hlen,) = struct.unpack("<Q", blob[:8])
        # every cut through the length field, the header and the first parameters
        for cut in range(8 + hlen + 64):
            path = tmp_path / "cut.ckpt"
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match="cut.ckpt"):
                vit.load_checkpoint(path)

    # each case corrupts a field that fixes a length: the header length (one past
    # the file's end), or a width that the parameter shapes follow
    @pytest.mark.parametrize("field", ["header_length", "hidden_dim", "mlp_dim"])
    def test_corrupt_length_field_refused_before_reading(self, tmp_path, field):
        blob = _checkpoint_bytes(tmp_path)
        (hlen,) = struct.unpack("<Q", blob[:8])
        if field == "header_length":
            blob = struct.pack("<Q", len(blob) - 8 + 1) + blob[8:]
        else:
            header = json.loads(blob[8:8 + hlen])
            header["config"][field] = 2**40
            new = json.dumps(header, sort_keys=True).encode("utf-8")
            blob = struct.pack("<Q", len(new)) + new + blob[8 + hlen:]
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="corrupt.ckpt"):
            vit.load_checkpoint(path)

    def test_short_read_names_the_path(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        path.write_bytes(_checkpoint_bytes(tmp_path)[:-3])
        with pytest.raises(ValueError, match="cut.ckpt"):
            vit.load_checkpoint(path)

    def test_huge_layer_count_refused_in_constant_memory(self, tmp_path):
        blob = _checkpoint_bytes(tmp_path)
        (hlen,) = struct.unpack("<Q", blob[:8])
        header = json.loads(blob[8:8 + hlen])
        header["config"]["n_layers"] = 10**7
        new = json.dumps(header, sort_keys=True).encode("utf-8")
        path = tmp_path / "deep.ckpt"
        path.write_bytes(struct.pack("<Q", len(new)) + new + blob[8 + hlen:])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="deep.ckpt"):
                vit.load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _checkpoint_bytes(tmp_path):
    path = tmp_path / "model.ckpt"
    if not path.exists():
        vit.save_checkpoint(path, vit.init_params(TINY, seed=0), TINY, {"a": 0})
    return path.read_bytes()
