"""Network builders, forward passes, variants, and the partial convolution."""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

import ragnet.tensor as T
from ragnet import cli, model
from ragnet.model import ModelConfig, build_network, count_params, partial_conv
from ragnet.synthesis import derive_seed
from oracles import he_normal_serial, partial_conv_loops


def rand(shape, seed, lo=0.0, hi=1.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(lo, hi, size=shape).astype(np.float64)


# Independent layer arithmetic from the published layer table, written with
# literal channel numbers so it cannot share bugs with the builder.
def conv_p(ci, co, k=3):
    return co * ci * k * k + co


def tconv_p(ci, co):
    return ci * co * 4 + co


def encoder_params(s, stages=5):
    widths = [64, 128, 256, 512, 512]
    nconvs = [2, 2, 4, 4, 4]
    total, cin = 0, 3
    for st in range(stages):
        cout = s(widths[st])
        for _ in range(nconvs[st]):
            total += conv_p(cin, cout)
            cin = cout
    return total


def decoder_params(s):
    total = 0
    tails = {4: 1, 3: 3, 2: 1, 1: 1}
    widths = {4: 512, 3: 256, 2: 128, 1: 64}
    for lv in (4, 3, 2, 1):
        c = s(widths[lv])
        total += tconv_p(c, c) + conv_p(2 * c, 2 * c) + tails[lv] * conv_p(2 * c, 2 * c)
        if lv > 1:
            total += conv_p(2 * c, s(widths[lv - 1]))
    c1 = s(64)
    total += conv_p(2 * c1, c1) + conv_p(c1, 3)
    return total


def mask_head_params(s, groups, two_channel=False):
    total = 0
    for base in (512, 256, 128, 64):
        cin = groups * s(base)
        cout = 2 if two_channel else 2 * s(base)
        total += conv_p(cin, cin, k=1) + conv_p(cin, cout, k=1)
    return total


class TestBuildAndCount:
    def test_gr_matches_layer_arithmetic_oracle(self):
        for w in (1.0, 0.25, 0.125):
            cfg = ModelConfig(width_multiplier=w)
            net = build_network("g_r", cfg)
            assert count_params(net) == encoder_params(cfg.scaled) + decoder_params(cfg.scaled)

    def test_gt_matches_layer_arithmetic_oracle(self):
        cfg = ModelConfig(width_multiplier=0.125)
        net = build_network("g_t", cfg)
        s = cfg.scaled
        want = encoder_params(s, 5) + encoder_params(s, 4) + decoder_params(s) + mask_head_params(s, 3)
        assert count_params(net) == want

    def test_width_monotonicity(self):
        n8 = count_params(build_network("g_t", ModelConfig(width_multiplier=0.125)))
        n4 = count_params(build_network("g_t", ModelConfig(width_multiplier=0.25)))
        assert n8 < n4

    def test_same_seed_bit_identical(self):
        a = build_network("g_t", ModelConfig(seed=9))
        b = build_network("g_t", ModelConfig(seed=9))
        assert a.params.keys() == b.params.keys()
        for k in a.params:
            assert a[k].data.tobytes() == b[k].data.tobytes()

    def test_different_seed_differs(self):
        a = build_network("g_r", ModelConfig(seed=1))
        b = build_network("g_r", ModelConfig(seed=2))
        assert a["dec/head/c1/weight"].data.tobytes() != b["dec/head/c1/weight"].data.tobytes()

    def test_single_conv_count(self):
        # 3x3 conv 3->64 with bias: 3*64*9 + 64
        assert conv_p(3, 64) == 1792

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError, match="width_multiplier"):
            ModelConfig(width_multiplier=1 / 256)

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError, match="rag_variant"):
            ModelConfig(rag_variant="bogus")

    def test_one_stage_variant_needs_one_stage_kind(self):
        with pytest.raises(ValueError, match="one_stage"):
            build_network("g_t", ModelConfig(rag_variant="one_stage"))


class TestHeInit:
    """Pooled, chunked He init against one whole-shape serial draw, byte for byte."""

    @pytest.mark.parametrize("kind", model.NETWORK_KINDS)
    def test_every_parameter_matches_serial_draw(self, kind):
        net = build_network(kind, ModelConfig(width_multiplier=0.25, seed=3))
        for name, p in net.params.items():
            if name.endswith("/weight"):
                want = he_normal_serial(p.shape, derive_seed(3, kind, name), p.dtype)
            else:
                want = np.zeros(p.shape, p.dtype)
            assert p.data.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_parameter_spanning_chunks(self, dtype):
        shape = (3, 7, 61, 71)
        size = int(np.prod(shape))
        assert size > model.HE_CHUNK and size % model.HE_CHUNK
        data = np.zeros(shape, dtype)
        model._fill_he(data, 12345)
        assert data.tobytes() == he_normal_serial(shape, 12345, dtype).tobytes()

    def test_worker_count_does_not_change_bytes(self, monkeypatch):
        fill, builds, threads = model._fill_he, {}, {}
        for workers in (1, 2, 5):
            seen = threads[workers] = set()
            monkeypatch.setattr(model, "_usable_cpus", lambda: workers)
            monkeypatch.setattr(model, "_fill_he", lambda data, seed: seen.add(threading.get_ident())
                                or fill(data, seed))
            net = build_network("g_t", ModelConfig(width_multiplier=0.25, seed=4))
            builds[workers] = {name: p.data.tobytes() for name, p in net.params.items()}
        assert builds[1] == builds[2] == builds[5]
        assert len(threads[1]) == 1 and threading.get_ident() not in threads[1] | threads[2] | threads[5]

    def test_draw_init_false_leaves_weights_zero(self):
        net = build_network("g_r", ModelConfig(seed=2), draw_init=False)
        assert all(not p.data.any() for p in net.params.values())


class TestForwardGR:
    def test_shape_and_range(self):
        cfg = ModelConfig(width_multiplier=0.125, seed=3)
        net = build_network("g_r", cfg, dtype=np.float64)
        x = T.tensor(rand((1, 3, 32, 32), 4))
        out = model.forward_gr(net, x)
        assert out.shape == (1, 3, 32, 32)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_zero_final_weights_gives_half(self):
        net = build_network("g_r", ModelConfig(width_multiplier=0.125), dtype=np.float64)
        net["dec/head/c1/weight"].data[:] = 0.0
        out = model.forward_gr(net, T.tensor(rand((1, 3, 32, 32), 5)))
        np.testing.assert_array_equal(out.data, 0.5)

    def test_indivisible_dims_rejected(self):
        net = build_network("g_r", ModelConfig(width_multiplier=0.125))
        with pytest.raises(ValueError, match="divisible by 16"):
            model.forward_gr(net, T.zeros((1, 3, 30, 32)))

    def test_tape_holds_no_relu_node(self):
        net = build_network("g_r", ModelConfig(width_multiplier=1 / 16, seed=3))
        with T.Tape():
            out = model.forward_gr(net, T.tensor(rand((1, 3, 16, 16), 6).astype(np.float32)))
        ops = [node.op for node in T._collect_nodes(out)]
        convs = [name for name, p in net.params.items() if name.endswith("weight") and "tconv" not in name]
        assert "relu" not in ops
        assert ops.count("conv2d") == len(convs)


class TestFloat32Contract:
    def test_infer_image_float32_tracks_float64(self):
        """Both stages on a float32 state stay close to the same weights in float64.

        At aedd1c2, before conv2d's row blocks and fused ReLU, the largest
        differences here were 2.8e-7 (R_hat), 1.2e-7 (T_hat) and 1.4e-7 (any
        mask); the bounds are ten times those.
        """
        cfg = ModelConfig(width_multiplier=1 / 16, seed=0)
        nets32 = {k: build_network(k, cfg) for k in ("g_r", "g_t")}
        nets64 = {k: build_network(k, cfg, dtype=np.float64, draw_init=False) for k in nets32}
        for k, net in nets32.items():
            for name, p in net.params.items():
                nets64[k][name].data[...] = p.data
        img = np.random.Generator(np.random.PCG64(5)).uniform(0, 1, (1, 3, 32, 48)).astype(np.float32)
        r32, t32, masks32, _ = cli.infer_image(SimpleNamespace(nets=nets32), img)
        r64, t64, masks64, _ = cli.infer_image(SimpleNamespace(nets=nets64), img)
        assert r32.dtype == t32.dtype == np.float32 and t64.dtype == np.float64
        assert np.abs(r32 - r64).max() < 2.8e-6
        assert np.abs(t32 - t64).max() < 1.2e-6
        assert len(masks32) == 4
        for a, b in zip(masks32, masks64):
            assert a.dtype == np.float32
            assert np.abs(a.data - b.data).max() < 1.4e-6


class TestPartialConv:
    def test_all_ones_mask_interior_equals_conv(self):
        f = T.tensor(rand((1, 4, 6, 6), 10, -1, 1))
        w = T.tensor(rand((4, 4, 3, 3), 11, -1, 1))
        b = T.tensor(rand((1, 4, 1, 1), 12, -1, 1))
        m = T.ones((1, 4, 6, 6), dtype=np.float64)
        got = partial_conv(f, m, w, b)
        plain = T.conv2d(f, w, b, stride=1, pad=1)
        # interior: mask mean is exactly 1, so the renormalization is a no-op
        np.testing.assert_allclose(got.data[:, :, 1:-1, 1:-1], plain.data[:, :, 1:-1, 1:-1],
                                   atol=1e-10, rtol=0)
        # border: the fixed divisor attenuates the mask mean; compensating a
        # vanilla conv by the same factor reproduces the output
        mbar = T.mask_mean3x3(m).data
        noB = T.conv2d(f, w, None, stride=1, pad=1)
        np.testing.assert_allclose(got.data, noB.data / mbar + b.data, atol=1e-10, rtol=0)

    def test_zero_mask_suppresses_bias(self):
        f = T.tensor(rand((1, 2, 4, 4), 13))
        w = T.tensor(rand((2, 2, 3, 3), 14))
        b = T.tensor(np.full((1, 2, 1, 1), 7.5))
        out = partial_conv(f, T.zeros((1, 2, 4, 4), dtype=np.float64), w, b)
        np.testing.assert_array_equal(out.data, 0.0)

    @pytest.mark.parametrize("seed,shape", [(0, (1, 4, 6, 6)), (1, (2, 2, 5, 5)),
                                            (2, (1, 1, 4, 7)), (3, (1, 3, 8, 4)),
                                            (4, (2, 5, 6, 6))])
    def test_matches_direct_oracle(self, seed, shape):
        c = shape[1]
        f = rand(shape, seed, -1, 1)
        m = rand(shape, seed + 40, 0, 1)
        w = rand((c, c, 3, 3), seed + 80, -1, 1)
        b = rand((c,), seed + 120, -1, 1)
        got = partial_conv(T.tensor(f), T.tensor(m), T.tensor(w), T.tensor(b.reshape(1, -1, 1, 1)))
        want = partial_conv_loops(f, m, w, b)
        np.testing.assert_allclose(got.data, want, atol=1e-10, rtol=0)

    def test_no_renorm_variant(self):
        f = T.tensor(rand((1, 2, 4, 4), 20))
        m = T.tensor(rand((1, 2, 4, 4), 21))
        w = T.tensor(rand((2, 2, 3, 3), 22))
        b = T.tensor(rand((1, 2, 1, 1), 23))
        got = partial_conv(f, m, w, b, renorm=False)
        want = T.conv2d(T.mul(f, m), w, b, stride=1, pad=1)
        np.testing.assert_array_equal(got.data, want.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("renorm", [True, False])
    def test_fused_relu_equals_relu_of_partial_conv(self, renorm, dtype):
        """The guided decoder's merge: one op, bit for bit the separate ReLU."""
        def run(fused):
            f = T.Tensor(rand((2, 4, 6, 5), 30, -1, 1).astype(dtype), requires_grad=True)
            m = T.Tensor(rand((2, 4, 6, 5), 31).astype(dtype), requires_grad=True)
            m.data[0, :, :3] = 0.0  # a region where mean3x3(m) is 0: output and bias held at 0
            w = T.Tensor(rand((4, 4, 3, 3), 32, -1, 1).astype(dtype), requires_grad=True)
            b = T.Tensor(rand((1, 4, 1, 1), 33, -1, 1).astype(dtype), requires_grad=True)
            with T.Tape():
                if fused:
                    out = partial_conv(f, m, w, b, renorm=renorm, relu=True)
                else:
                    out = T.relu(partial_conv(f, m, w, b, renorm=renorm))
                T.backward(T.reduce_sum(T.mul(out, T.Tensor(rand(out.shape, 34, -1, 1).astype(dtype)))))
            return [out.data.tobytes()] + [t.grad.tobytes() for t in (f, m, w, b)]

        fused, plain = run(True), run(False)
        assert fused == plain
        out = np.frombuffer(fused[0], dtype=dtype)
        assert (out == 0).any() and (out > 0).any()


class TestRagBlock:
    def _net(self, variant="full"):
        return build_network("g_t", ModelConfig(width_multiplier=0.125, rag_variant=variant, seed=1),
                             dtype=np.float64)

    def test_equal_features_give_zero_diff(self):
        net = self._net()
        f = T.tensor(rand((1, 8, 8, 8), 30))
        fd = T.tensor(rand((1, 8, 8, 8), 31))
        f_diff, _ = model.rag_block(net, 1, f, f, fd)
        np.testing.assert_array_equal(f_diff.data, 0.0)

    def test_mask_strictly_in_unit_interval(self):
        net = self._net()
        f_i = T.tensor(rand((1, 8, 8, 8), 32, -3, 3))
        f_r = T.tensor(rand((1, 8, 8, 8), 33, -3, 3))
        fd = T.tensor(rand((1, 8, 8, 8), 34, -3, 3))
        _, m = model.rag_block(net, 1, f_i, f_r, fd)
        assert m.shape == (1, 16, 8, 8)
        assert m.data.min() > 0.0 and m.data.max() < 1.0

    def test_no_diff_returns_observation_feature(self):
        net = self._net("no_diff")
        f_i = T.tensor(rand((1, 8, 8, 8), 35))
        f_r = T.tensor(rand((1, 8, 8, 8), 36))
        fd = T.tensor(rand((1, 8, 8, 8), 37))
        f_diff, _ = model.rag_block(net, 1, f_i, f_r, fd)
        assert f_diff is f_i

    def test_two_channel_masks_are_single_channel(self):
        net = self._net("two_channel_mask")
        f_i = T.tensor(rand((1, 8, 8, 8), 38))
        _, m = model.rag_block(net, 1, f_i, f_i, f_i)
        assert m.shape[1] == 2  # one channel each for M_diff and M_dec


class TestForwardGT:
    def _run(self, variant="full", seed=7, hw=32):
        cfg = ModelConfig(width_multiplier=0.125, rag_variant=variant, seed=seed)
        net = build_network("g_t", cfg, dtype=np.float64)
        i_obs = T.tensor(rand((1, 3, hw, hw), 50))
        r_hat = T.tensor(rand((1, 3, hw, hw), 51))
        return net, i_obs, r_hat, model.forward_gt(net, i_obs, r_hat)

    def test_output_shape_matches_input(self):
        _, i_obs, _, (t_hat, _) = self._run()
        assert t_hat.shape == i_obs.shape
        assert t_hat.data.min() >= 0.0 and t_hat.data.max() <= 1.0

    def test_masks_cover_four_levels(self):
        _, i_obs, _, (_, masks) = self._run()
        assert len(masks) == 4
        h = i_obs.shape[2]
        for i, m in enumerate(masks):  # masks[i] is level i + 1
            expect = h // 2 ** i
            assert m.shape[2:] == (expect, expect)
            assert m.data.min() > 0.0 and m.data.max() < 1.0

    def test_shape_mismatch_rejected(self):
        net = build_network("g_t", ModelConfig(width_multiplier=0.125))
        with pytest.raises(ValueError, match="shape"):
            model.forward_gt(net, T.zeros((1, 3, 32, 32)), T.zeros((1, 3, 16, 16)))

    def test_no_mask_matches_independent_vanilla_wiring(self):
        # RAGNet_F: decoder re-wired by hand with plain convolutions and the
        # same weights must reproduce the forward pass bit-exactly.
        net, i_obs, r_hat, (t_hat, masks) = self._run(variant="no_mask")
        assert masks == []

        f_obs = model._encoder_forward(net, "enc_obs", i_obs, 5)
        f_refl = model._encoder_forward(net, "enc_refl", r_hat, 4)
        x = f_obs[4]
        tails = {4: 1, 3: 3, 2: 1, 1: 1}
        for lv in (4, 3, 2, 1):
            fd = T.conv_transpose2d(x, net[f"dec/l{lv}/tconv/weight"], net[f"dec/l{lv}/tconv/bias"])
            fdiff = T.sub(f_obs[lv - 1], f_refl[lv - 1])
            x = T.relu(T.conv2d(T.concat_channels(fdiff, fd),
                                net[f"dec/l{lv}/merge/weight"], net[f"dec/l{lv}/merge/bias"],
                                stride=1, pad=1))
            for j in range(tails[lv]):
                x = T.relu(T.conv2d(x, net[f"dec/l{lv}/tail{j}/weight"],
                                    net[f"dec/l{lv}/tail{j}/bias"], stride=1, pad=1))
            if lv > 1:
                x = T.relu(T.conv2d(x, net[f"dec/l{lv}/reduce/weight"],
                                    net[f"dec/l{lv}/reduce/bias"], stride=1, pad=1))
        x = T.relu(T.conv2d(x, net["dec/head/c0/weight"], net["dec/head/c0/bias"], stride=1, pad=1))
        want = T.sigmoid(T.conv2d(x, net["dec/head/c1/weight"], net["dec/head/c1/bias"], stride=1, pad=1))
        assert t_hat.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("variant", ["full", "mask_no_renorm"])
    def test_guided_decoder_tape_holds_no_relu_node(self, variant):
        net = build_network("g_t", ModelConfig(width_multiplier=1 / 16, rag_variant=variant, seed=3))
        img = T.tensor(rand((1, 3, 16, 16), 6).astype(np.float32))
        with T.Tape():
            out, _ = model.forward_gt(net, img, img)
        assert "relu" not in [node.op for node in T._collect_nodes(out)]


class TestDiscriminator:
    def test_output_in_unit_interval_and_deterministic(self):
        cfg = ModelConfig(width_multiplier=0.125, seed=4)
        net = build_network("discriminator", cfg, dtype=np.float64)
        i_obs = T.tensor(rand((2, 3, 32, 32), 80))
        t_c = T.tensor(rand((2, 3, 32, 32), 81))
        out1 = model.forward_discriminator(net, i_obs, t_c)
        out2 = model.forward_discriminator(net, i_obs, t_c)
        assert 0.0 < out1.item() < 1.0
        assert out1.item() == out2.item()

    def test_zero_final_weights_gives_half(self):
        net = build_network("discriminator", ModelConfig(width_multiplier=0.125), dtype=np.float64)
        net["disc/c3/weight"].data[:] = 0.0
        net["disc/c3/bias"].data[:] = 0.0
        out = model.forward_discriminator(net, T.tensor(rand((1, 3, 32, 32), 82)),
                                          T.tensor(rand((1, 3, 32, 32), 83)))
        assert out.item() == 0.5

    def test_frozen_block_restores_each_flag(self):
        net = build_network("discriminator", ModelConfig(width_multiplier=0.125))
        net["disc/c0/bias"].requires_grad = False
        flags = {name: p.requires_grad for name, p in net.params.items()}
        with pytest.raises(RuntimeError):
            with net.frozen():
                assert not any(p.requires_grad for p in net.params.values())
                raise RuntimeError
        assert {name: p.requires_grad for name, p in net.params.items()} == flags

    def test_shape_mismatch_rejected(self):
        net = build_network("discriminator", ModelConfig(width_multiplier=0.125))
        with pytest.raises(ValueError, match="shapes"):
            model.forward_discriminator(net, T.zeros((1, 3, 32, 32)), T.zeros((1, 3, 16, 16)))


def concat_readers(roots) -> tuple[int, set[str]]:
    """(conv2d nodes, ops of the nodes that read a ``concat_channels`` output) in the graphs of *roots*."""
    nodes = {id(nd): nd for root in roots for nd in T._collect_nodes(root)}.values()
    readers = {nd.op for nd in nodes for p in nd.parents
               if p is not None and p.node is not None and p.node.op == "concat_channels"}
    return sum(nd.op == "conv2d" for nd in nodes), readers


class TestConvsReadNoConcatenation:
    """The merges, the RAG mask head and the critic pass their inputs to
    ``conv2d`` as channel groups: only ``partial_conv``'s f o m and the
    exclusion loss's norms read a ``concat_channels`` output."""

    def test_phase2_step(self, tmp_path, monkeypatch):
        from ragnet import trainer
        from ragnet.synthesis import SynthesisParams, load_triple, make_dataset, read_manifest

        manifest = make_dataset(2, SynthesisParams(seed=3, patch_size=16), tmp_path)
        triples = [load_triple(e) for e in read_manifest(manifest)]
        cfg = trainer.TrainConfig(model=ModelConfig(width_multiplier=1 / 16, seed=0, use_adversarial=True),
                                  schedule=trainer.Schedule(phase1_epochs=0, phase2_epochs=1, batch_size=2))
        censuses, backward = [], T.backward

        def spy(loss):
            censuses.append(concat_readers([loss]))  # backward releases the graph it walks
            backward(loss)

        monkeypatch.setattr(T, "backward", spy)
        trainer._phase2_step(trainer.TrainerState(cfg), triples, True)
        assert len(censuses) == 2  # the critic's term, then the generators'
        convs = sum(n for n, _ in censuses)
        readers = set().union(*(r for _, r in censuses))
        assert convs > 0 and readers == {"mul", "frobenius_norm"}

    def test_infer_image_forward(self, monkeypatch):
        cfg = ModelConfig(width_multiplier=1 / 16, seed=2)
        nets = {kind: build_network(kind, cfg) for kind in ("g_r", "g_t")}
        outputs, forward_gt = [], model.forward_gt

        def spy(*args):
            outputs.append(forward_gt(*args))
            return outputs[-1]

        monkeypatch.setattr(model, "forward_gt", spy)
        with T.Tape():  # the weights track gradients, so every op of the forward is recorded
            cli.infer_image(SimpleNamespace(nets=nets), rand((1, 3, 20, 18), 7).astype(np.float32))
        t_hat, _ = outputs[0]  # its graph holds every op of both generators
        convs, readers = concat_readers([t_hat])
        assert convs > 0 and readers == {"mul"}


class TestPerceptualExtractor:
    def test_frozen_and_five_stages(self):
        net = build_network("percep_extractor", ModelConfig(width_multiplier=0.125), dtype=np.float64)
        assert all(not p.requires_grad for p in net.params.values())
        feats = model.extract_features(net, T.tensor(rand((1, 3, 32, 32), 90)))
        assert len(feats) == 5
        assert [f.shape[2] for f in feats] == [32, 16, 8, 4, 2]


class TestPadding:
    def test_pad_and_crop_round_trip(self):
        x = rand((1, 3, 30, 45), 95)
        padded, pads = model.pad_to_multiple(x, 16)
        assert padded.shape[2] % 16 == 0 and padded.shape[3] % 16 == 0
        np.testing.assert_array_equal(model.crop_padding(padded, pads), x)

    def test_already_aligned_is_noop(self):
        x = rand((1, 3, 32, 32), 96)
        padded, pads = model.pad_to_multiple(x, 16)
        assert pads == (0, 0)
        assert padded is x
