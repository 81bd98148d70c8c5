"""Adam updates, checkpoint format, training determinism, and resume."""

import gc
import hashlib
import os
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

import ragnet
import ragnet.tensor as T
from ragnet import losses as L
from ragnet import model, trainer
from ragnet.model import ModelConfig, forward_gr, forward_gt
from ragnet.synthesis import SynthesisParams, make_dataset
from ragnet.trainer import (
    AdamConfig,
    AdamState,
    Schedule,
    TrainConfig,
    TrainerState,
    TrainingDiverged,
    load_checkpoint,
    save_checkpoint,
    train,
)


def small_config(**kw):
    sched = Schedule(phase1_epochs=kw.pop("p1", 1), phase2_epochs=kw.pop("p2", 1),
                     batch_size=kw.pop("batch", 4))
    model = ModelConfig(width_multiplier=0.125, seed=kw.pop("seed", 0),
                        use_adversarial=kw.pop("adv", True))
    return TrainConfig(model=model, schedule=sched, **kw)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    return make_dataset(8, SynthesisParams(seed=3, blend_mode="overexpose"), out)


class TestAdam:
    def _param(self, value=1.0):
        return {"w": T.Parameter("w", np.full((1, 1, 1, 1), value, dtype=np.float64))}

    def test_zero_grad_leaves_params_unchanged(self):
        params = self._param()
        params["w"].grad = np.zeros((1, 1, 1, 1))
        st = AdamState(params, AdamConfig())
        st.step(params)
        assert params["w"].data[0, 0, 0, 0] == 1.0
        assert st.step_count == 1

    def test_closed_form_first_step(self):
        cfg = AdamConfig(lr=1e-4)
        params = self._param()
        params["w"].grad = np.ones((1, 1, 1, 1))
        st = AdamState(params, cfg)
        st.step(params)
        # bias-corrected m_hat = v_hat = 1 after one unit-gradient step
        want = 1.0 - cfg.lr * 1.0 / (1.0 + cfg.eps)
        assert abs(params["w"].data[0, 0, 0, 0] - want) < 1e-12

    def test_two_steps_closed_form(self):
        cfg = AdamConfig(lr=0.01)
        params = self._param()
        st = AdamState(params, cfg)
        m = v = 0.0
        x = 1.0
        for t in (1, 2):
            g = 2.0 * x  # gradient of x^2
            params["w"].grad = np.full((1, 1, 1, 1), g)
            st.step(params)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x = x - cfg.lr * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + cfg.eps)
        assert abs(params["w"].data[0, 0, 0, 0] - x) < 1e-12

    def test_missing_grad_rejected_with_name(self):
        params = self._param()
        st = AdamState(params, AdamConfig())
        with pytest.raises(ValueError, match="'w'"):
            st.step(params)

    def test_fresh_moments_are_untouched_pages(self):
        """A state built where a freed one's memory can be recycled still
        holds its moments as pages that no write has made resident."""
        if not os.access("/proc/self/pagemap", os.R_OK):
            pytest.skip("needs /proc/self/pagemap")
        page = os.sysconf("SC_PAGE_SIZE")

        def resident_pages(arrays):
            with open("/proc/self/pagemap", "rb") as f:
                count = 0
                for a in arrays:
                    first = a.__array_interface__["data"][0] // page
                    last = (a.__array_interface__["data"][0] + a.nbytes - 1) // page
                    f.seek(8 * first)
                    entries = np.frombuffer(f.read(8 * (last - first + 1)), dtype="<u8")
                    count += int((entries >> np.uint64(63)).sum())
            return count

        cfg = small_config()
        for _ in range(2):  # the second state is built after the first one was freed
            state = TrainerState(cfg)
            moments = [a for st in state.adam.values() for d in (st.m, st.v) for a in d.values()]
            assert resident_pages(moments) == 0
            assert all((a == 0).all() for a in moments[:3])
            del state, moments
            gc.collect()

    def test_deterministic_over_ten_steps(self):
        def run():
            rng = np.random.Generator(np.random.PCG64(5))
            params = {"w": T.Parameter("w", rng.standard_normal((1, 2, 3, 3)).astype(np.float32))}
            st = AdamState(params, AdamConfig(lr=1e-3))
            for k in range(10):
                params["w"].grad = np.full_like(params["w"].data, 0.1 * (k + 1))
                st.step(params)
            return params["w"].data.tobytes()

        assert run() == run()


class TestClipGradNorm:
    def _params(self, scale):
        rng = np.random.Generator(np.random.PCG64(11))
        params = {name: T.Parameter(name, np.zeros(shape, dtype=np.float32))
                  for name, shape in (("w", (2, 3, 3, 3)), ("b", (1, 2, 1, 1)), ("unused", (1, 1, 1, 1)))}
        for name in ("w", "b"):
            params[name].grad = (scale * rng.standard_normal(params[name].shape)).astype(np.float32)
        return params

    @staticmethod
    def _norm(params):
        return float(np.sqrt(sum((p.grad.astype(np.float64) ** 2).sum()
                                 for p in params.values() if p.grad is not None)))

    def test_above_the_cap_scales_to_the_cap(self):
        params = self._params(5.0)
        before = self._norm(params)
        directions = {k: p.grad / before for k, p in params.items() if p.grad is not None}
        assert before > trainer.CLIP_NORM
        assert trainer.clip_grad_norm(params) == before
        assert self._norm(params) == pytest.approx(trainer.CLIP_NORM, rel=1e-6)
        for k, d in directions.items():
            np.testing.assert_allclose(params[k].grad, d * trainer.CLIP_NORM, rtol=1e-6, atol=1e-7)
        assert params["unused"].grad is None

    def test_below_the_cap_leaves_gradients_unchanged(self):
        params = self._params(0.01)
        grads = {k: p.grad.copy() for k, p in params.items() if p.grad is not None}
        before = self._norm(params)
        assert before < trainer.CLIP_NORM
        assert trainer.clip_grad_norm(params) == before
        for k, g in grads.items():
            assert params[k].grad.tobytes() == g.tobytes()

    def test_a_non_finite_norm_leaves_gradients_unchanged(self):
        params = self._params(0.01)
        params["w"].grad[0, 0, 0, 0] = np.inf
        grads = {k: p.grad.copy() for k, p in params.items() if p.grad is not None}
        assert trainer.clip_grad_norm(params) == np.inf
        for k, g in grads.items():
            assert params[k].grad.tobytes() == g.tobytes()


class TestNonFiniteGradient:
    def test_leaves_weights_and_adam_moments_unchanged(self):
        state = TrainerState(small_config())
        nets = [state.nets["g_r"], state.nets["g_t"]]
        for net in nets:
            for p in net.params.values():
                p.grad = np.full(p.shape, 1e-3, dtype=p.dtype)
        next(iter(state.nets["g_t"].params.values())).grad[0, 0, 0, 0] = np.inf
        before = [p.data.tobytes() for net in nets for p in net.params.values()]
        with pytest.raises(TrainingDiverged, match="non-finite gradient norm of g_t at iteration 0"):
            trainer._update(state, "g_r", "g_t")  # g_r's norm is finite, but it takes no step either
        assert [p.data.tobytes() for net in nets for p in net.params.values()] == before
        for name in ("g_r", "g_t"):
            adam = state.adam[name]
            assert adam.step_count == 0
            assert all(not a.any() for a in (*adam.m.values(), *adam.v.values()))


class TestNonFiniteLoss:
    @staticmethod
    def _triples(tiny_dataset):
        from ragnet.synthesis import load_triple, read_manifest

        return [load_triple(e) for e in read_manifest(tiny_dataset)[:2]]

    @staticmethod
    def _assert_untouched(state, names, before):
        params = [p for name in names for p in state.nets[name].params.values()]
        assert [p.data.tobytes() for p in params] == before
        assert all(p.grad is None for p in params)
        for name in names:
            adam = state.adam[name]
            assert adam.step_count == 0
            assert all(not a.any() for a in (*adam.m.values(), *adam.v.values()))

    @staticmethod
    def _weights(state, names):
        return [p.data.tobytes() for name in names for p in state.nets[name].params.values()]

    @staticmethod
    def _poison(monkeypatch, fn_name):
        """Make the loss function *fn_name* return its own value times NaN."""
        fn = getattr(L, fn_name)
        monkeypatch.setattr(L, fn_name, lambda *a, **k: T.scalar_mul(fn(*a, **k), np.nan))

    def test_stops_the_step_before_its_backward_and_names_the_part(self, tiny_dataset, monkeypatch):
        state = TrainerState(small_config(adv=False))
        state.global_iter = 4
        monkeypatch.setattr(L, "exclusion_loss", lambda t_hat, r_hat: T.scalar(np.inf, dtype=t_hat.dtype))
        before = self._weights(state, state.nets)
        with pytest.raises(TrainingDiverged, match="^non-finite loss excl at iteration 4$"):
            trainer._phase2_step(state, self._triples(tiny_dataset), True)
        self._assert_untouched(state, state.nets, before)

    @pytest.mark.parametrize("fn_name, part", [("rec_loss", "rec"), ("perceptual_loss", "percep"),
                                               ("mask_loss", "mask"), ("total_loss", "total")])
    def test_phase2_names_each_nan_part(self, fn_name, part, tiny_dataset, monkeypatch):
        state = TrainerState(small_config(adv=False))
        state.global_iter = 2
        self._poison(monkeypatch, fn_name)
        before = self._weights(state, state.nets)
        with pytest.raises(TrainingDiverged, match=f"^non-finite loss {part} at iteration 2$"):
            trainer._phase2_step(state, self._triples(tiny_dataset), True)
        self._assert_untouched(state, state.nets, before)

    @pytest.mark.parametrize("fn_name, part", [("rec_loss", "rec"), ("perceptual_loss", "percep"),
                                               ("total_loss", "total")])
    def test_phase1_names_each_nan_part(self, fn_name, part, tiny_dataset, monkeypatch):
        state = TrainerState(small_config(adv=False))
        self._poison(monkeypatch, fn_name)
        before = self._weights(state, state.nets)
        with pytest.raises(TrainingDiverged, match=f"^non-finite loss {part} at iteration 0$"):
            trainer._phase1_step(state, self._triples(tiny_dataset), True)
        self._assert_untouched(state, state.nets, before)

    def test_a_nan_adversarial_term_leaves_the_generators_unchanged(self, tiny_dataset, monkeypatch):
        state = TrainerState(small_config(adv=True))
        self._poison(monkeypatch, "adv_g_loss")
        before = self._weights(state, ("g_r", "g_t"))
        with pytest.raises(TrainingDiverged, match="^non-finite loss adv at iteration 0$"):
            trainer._phase2_step(state, self._triples(tiny_dataset), True)
        # the critic's own step runs before the generator's terms exist
        self._assert_untouched(state, ("g_r", "g_t"), before)

    def test_a_nan_critic_loss_is_named_before_any_critic_gradient(self, tiny_dataset, monkeypatch):
        state = TrainerState(small_config(adv=True))
        self._poison(monkeypatch, "adv_d_loss")
        before = self._weights(state, state.nets)
        with pytest.raises(TrainingDiverged, match="^non-finite loss adv_d at iteration 0$"):
            trainer._phase2_step(state, self._triples(tiny_dataset), True)
        self._assert_untouched(state, state.nets, before)


class TestRestore:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_weight_is_named_and_no_weight_is_copied(self, value, tmp_path):
        nets = TrainerState(small_config(seed=0)).nets
        loaded = {k: v.copy() for k, v in trainer.weight_tensors(TrainerState(small_config(seed=1)).nets).items()}
        loaded["model/g_t/dec/head/c1/weight"][0, 0, 0, 0] = value
        before = {k: v.tobytes() for k, v in trainer.weight_tensors(nets).items()}
        with pytest.raises(ValueError, match="tensor model/g_t/dec/head/c1/weight holds a non-finite value"):
            trainer.restore(tmp_path / "c.bin", loaded, trainer.weight_tensors(nets))
        assert {k: v.tobytes() for k, v in trainer.weight_tensors(nets).items()} == before

    @staticmethod
    def _stepped_state(position: int) -> TrainerState:
        """A state of one model whose weights, Adam moments and counters all differ with *position*."""
        state = TrainerState(small_config(seed=0))
        rng = np.random.Generator(np.random.PCG64(position))
        for name, arr in state.to_tensors().items():
            if name.startswith("model/") or name.endswith(("/m", "/v")):  # the live arrays
                arr[...] = rng.uniform(0.1, 1.0, arr.shape)
        for k, st in enumerate(state.adam.values()):
            st.step_count = position + k
        state.epochs_done = {1: position, 2: position + 1}
        state.global_iter = 10 * position
        return state

    @pytest.mark.parametrize("name", ["model/g_t/dec/head/c1/weight", "adam/g_r/dec/head/c0/bias/m",
                                      "adam/disc/step", "meta/global_iter"])
    def test_load_of_a_non_finite_entry_leaves_the_state_unchanged(self, name, tmp_path):
        path = tmp_path / "s.bin"
        tensors = self._stepped_state(3).to_tensors()
        tensors[name] = tensors[name].copy()
        tensors[name].reshape(-1)[-1] = np.nan
        save_checkpoint(tensors, path)  # a valid CRC over one non-finite entry
        state = self._stepped_state(7)
        before = {k: v.tobytes() for k, v in state.to_tensors().items()}
        with pytest.raises(ValueError, match=f"tensor {name} holds a non-finite value"):
            state.load(path)
        assert {k: v.tobytes() for k, v in state.to_tensors().items()} == before
        assert (state.global_iter, state.epochs_done) == (70, {1: 7, 2: 8})
        assert [st.step_count for st in state.adam.values()] == [7, 8, 9]


class TestCheckpointFormat:
    def _tensors(self):
        rng = np.random.Generator(np.random.PCG64(7))
        return {"a/weight": rng.standard_normal((2, 3, 3, 3)).astype(np.float32),
                "b/bias": rng.standard_normal((1, 4, 1, 1)).astype(np.float32),
                "meta/step": np.array([3.0], dtype=np.float32)}

    def test_round_trip_bit_exact(self, tmp_path):
        tensors = self._tensors()
        path = tmp_path / "c.bin"
        save_checkpoint(tensors, path)
        back = load_checkpoint(path)
        assert sorted(back) == sorted(tensors)
        for k in tensors:
            assert back[k].shape == tensors[k].shape
            assert back[k].tobytes() == tensors[k].tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        save_checkpoint(self._tensors(), path)
        blob = bytearray(path.read_bytes())
        blob[0:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncation_reports_expected_vs_actual(self, tmp_path):
        path = tmp_path / "c.bin"
        save_checkpoint(self._tensors(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="(truncated|CRC)"):
            load_checkpoint(path)

    def test_payload_corruption_caught_by_crc(self, tmp_path):
        path = tmp_path / "c.bin"
        save_checkpoint(self._tensors(), path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="CRC"):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        save_checkpoint(self._tensors(), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        body = bytes(blob[:-4])
        blob[-4:] = struct.pack("<I", __import__("zlib").crc32(body) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_layout_bytes_match_the_documented_format(self, tmp_path):
        tensors = {"z/w": np.arange(6, dtype=np.float32).reshape(2, 3),
                   "a": np.array(2.5, dtype=np.float32),  # rank 0 is written with rank 1, dims (1,)
                   "m/b": np.array([-1.0, 0.5, 4.0, 8.0], dtype=np.float32)}
        want = b"RAGN" + struct.pack("<II", 1, 3)
        for name, dims, values in (("a", (1,), [2.5]), ("m/b", (4,), [-1.0, 0.5, 4.0, 8.0]),
                                   ("z/w", (2, 3), [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])):
            want += struct.pack("<I", len(name)) + name.encode() + struct.pack("<I", len(dims))
            want += struct.pack(f"<{len(dims)}I", *dims) + struct.pack(f"<{len(values)}f", *values)
        want += struct.pack("<I", zlib.crc32(want))
        path = tmp_path / "c.bin"
        save_checkpoint(tensors, path)
        assert path.read_bytes() == want
        assert not os.path.exists(str(path) + ".tmp")
        assert load_checkpoint(path)["a"].shape == (1,)

    def test_loaded_arrays_are_read_only_views(self, tmp_path):
        path = tmp_path / "c.bin"
        save_checkpoint(self._tensors(), path)
        for arr in load_checkpoint(path).values():
            assert not arr.flags.writeable and not arr.flags.owndata

    def test_limb_encoding_round_trip(self):
        for v in (0, 1, 65535, 2 ** 40 + 12345, 2 ** 63 - 1):
            assert trainer._limbs_to_int(trainer._int_to_limbs(v), "meta/seed", "c.bin") == v


class TestTrainerState:
    def test_save_load_round_trip(self, tmp_path):
        cfg = small_config()
        state = TrainerState(cfg)
        path = tmp_path / "s.bin"
        state.save(path)
        other = TrainerState(cfg)
        for p in other.nets["g_r"].params.values():
            p.data += 1.0  # scramble, then restore from file
        other.load(path)
        a, b = state.to_tensors(), other.to_tensors()
        assert sorted(a) == sorted(b)
        for k in a:
            assert a[k].tobytes() == b[k].tobytes(), k

    def test_wrong_config_rejected(self, tmp_path):
        state = TrainerState(small_config())
        path = tmp_path / "s.bin"
        state.save(path)
        bigger = TrainerState(small_config(adv=True, seed=0))
        bigger.config.model = ModelConfig(width_multiplier=0.25)
        with pytest.raises(ValueError, match="differs from this run's in width_multiplier"):
            TrainerState(TrainConfig(model=ModelConfig(width_multiplier=0.25))).load(path)

    def test_model_config_round_trip(self, tmp_path):
        cfg = small_config(seed=123)
        state = TrainerState(cfg)
        path = tmp_path / "s.bin"
        state.save(path)
        back = trainer.model_config_from_checkpoint(path, trainer.load_checkpoint(path))
        assert back.width_multiplier == cfg.model.width_multiplier
        assert back.rag_variant == cfg.model.rag_variant
        assert back.use_adversarial == cfg.model.use_adversarial
        assert back.seed == 123

    def test_checkpoint_size_matches_derivation(self, tmp_path):
        state = TrainerState(small_config())
        path = tmp_path / "s.bin"
        state.save(path)
        tensors = state.to_tensors()
        payload = sum(a.size for a in tensors.values()) * 4
        header = sum(8 + len(k.encode()) + 4 * a.ndim for k, a in tensors.items())
        assert os.path.getsize(path) == 4 + 8 + payload + header + 4
        # parameters alone stay under 10 MB at smoke width; the optimizer
        # moments triple the stored volume (see decisions ledger)
        params_only = sum(a.size for k, a in tensors.items() if k.startswith("model/")) * 4
        assert params_only < 10 * 1024 * 1024


def _reports_rss_anon() -> bool:
    try:
        with open("/proc/self/status") as f:
            return "RssAnon:" in f.read()
    except OSError:
        return False


@pytest.mark.skipif(not _reports_rss_anon(), reason="/proc/self/status reports no RssAnon")
def test_fresh_state_keeps_little_more_than_its_weights_resident():
    # measured in a fresh interpreter, where no memory freed by earlier tests is reused
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join([os.path.dirname(os.path.dirname(ragnet.__file__)), os.path.join(root, "scripts")])
    proc = subprocess.run([sys.executable, "-c", "from state_footprint import footprint; print(*footprint(0.25))"],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True)
    growth, weights = map(int, proc.stdout.split())
    assert growth < 2 * weights, f"RssAnon grew {growth / weights:.2f}x the weight bytes"


class TestTraining:
    def test_zero_epochs_emits_init_checkpoint_only(self, tmp_path, tiny_dataset):
        cfg = small_config(p1=0, p2=0)
        final, log = train(cfg, tiny_dataset, tmp_path / "run")
        assert os.path.basename(final) == "final.bin"
        files = sorted(os.listdir(tmp_path / "run"))
        assert files == ["final.bin", "train_log.csv"]
        assert open(log).read().strip() == "iter,phase,rec,percep,excl,adv,mask,total"

    def test_short_run_logs_and_checkpoints(self, tmp_path, tiny_dataset):
        cfg = small_config(p1=1, p2=1)
        final, log = train(cfg, tiny_dataset, tmp_path / "run")
        rows = open(log).read().strip().splitlines()
        assert rows[0] == "iter,phase,rec,percep,excl,adv,mask,total"
        assert len(rows) == 1 + 2 + 2  # 8 imgs / batch 4 = 2 iters per phase
        phases = [r.split(",")[1] for r in rows[1:]]
        assert phases == ["1", "1", "2", "2"]
        for r in rows[1:]:
            total = float(r.split(",")[-1])
            assert np.isfinite(total) and total > 0
        assert os.path.exists(os.path.join(tmp_path / "run", "ckpt_p1_e001.bin"))
        assert os.path.exists(os.path.join(tmp_path / "run", "ckpt_p2_e001.bin"))

    def test_rerun_bit_identical(self, tmp_path, tiny_dataset):
        cfg = small_config(p1=1, p2=1)
        f1, _ = train(cfg, tiny_dataset, tmp_path / "a")
        f2, _ = train(small_config(p1=1, p2=1), tiny_dataset, tmp_path / "b")
        assert open(f1, "rb").read() == open(f2, "rb").read()

    def test_resume_matches_uninterrupted(self, tmp_path, tiny_dataset):
        cfg = small_config(p1=1, p2=2)
        final_full, _ = train(cfg, tiny_dataset, tmp_path / "full")
        mid = os.path.join(tmp_path / "full", "ckpt_p2_e001.bin")
        final_res, _ = train(small_config(p1=1, p2=2), tiny_dataset, tmp_path / "res",
                             resume_from=mid)
        assert open(final_full, "rb").read() == open(final_res, "rb").read()

    def test_resume_into_new_directory_writes_header(self, tmp_path, tiny_dataset):
        train(small_config(p1=1, p2=0), tiny_dataset, tmp_path / "first")
        mid = os.path.join(tmp_path / "first", "ckpt_p1_e001.bin")
        _, log = train(small_config(p1=1, p2=1), tiny_dataset, tmp_path / "second", resume_from=mid)
        rows = open(log).read().strip().splitlines()
        assert rows[0] == "iter,phase,rec,percep,excl,adv,mask,total"
        assert [r.split(",")[1] for r in rows[1:]] == ["2", "2"]

    def test_resume_in_same_directory_keeps_log_rows_once(self, tmp_path, tiny_dataset):
        _, log = train(small_config(p1=1, p2=2), tiny_dataset, tmp_path / "run")
        uninterrupted = open(log, "rb").read()
        mid = os.path.join(tmp_path / "run", "ckpt_p2_e001.bin")
        train(small_config(p1=1, p2=2), tiny_dataset, tmp_path / "run", resume_from=mid)
        assert open(log, "rb").read() == uninterrupted

    def test_resume_in_same_directory_drops_a_row_cut_short(self, tmp_path, tiny_dataset):
        # the log is flushed only before a checkpoint, so a kill can leave
        # part of a later row: here "1", the first byte of row 17, which
        # reads as iteration 1 of the 16 the checkpoint has run
        _, log = train(small_config(p1=2, p2=1, batch=1), tiny_dataset, tmp_path / "run")  # 8 steps an epoch
        uninterrupted = open(log, "rb").read()
        lines = uninterrupted.splitlines(keepends=True)
        with open(log, "wb") as f:
            f.writelines(lines[:17])  # the header and rows 1-16
            f.write(lines[17][:1])
        mid = os.path.join(tmp_path / "run", "ckpt_p1_e002.bin")
        train(small_config(p1=2, p2=1, batch=1), tiny_dataset, tmp_path / "run", resume_from=mid)
        assert open(log, "rb").read() == uninterrupted

    def test_load_paths_draw_no_he_init(self, tmp_path, tiny_dataset, monkeypatch):
        from ragnet import cli
        train(small_config(p1=1, p2=0), tiny_dataset, tmp_path / "first")
        mid = os.path.join(tmp_path / "first", "ckpt_p1_e001.bin")
        draws = []
        fill = model._fill_he
        monkeypatch.setattr(model, "_fill_he", lambda data, seed: draws.append(seed) or fill(data, seed))
        state = cli.load_models(mid)
        live, saved = trainer.weight_tensors(state.nets), load_checkpoint(mid)
        assert sorted(live) == sorted(k for k in saved if k.startswith(("model/g_r/", "model/g_t/")))
        assert all(live[k].tobytes() == saved[k].tobytes() for k in live)
        assert set(state.nets) == {"g_r", "g_t"} and not hasattr(state, "adam")
        train(small_config(p1=1, p2=1), tiny_dataset, tmp_path / "second", resume_from=mid)
        assert draws == []
        TrainerState(small_config())  # the spy does see the draws of a fresh state
        assert draws

    def test_log_is_flushed_before_each_checkpoint(self, tmp_path, tiny_dataset, monkeypatch):
        log = tmp_path / "run" / "train_log.csv"
        seen = []
        save = trainer.save_checkpoint

        def spy(tensors, path):
            rows = open(log).read().splitlines()
            it = trainer._limbs_to_int(tensors["meta/global_iter"], "meta/global_iter", path)
            seen.append((os.path.basename(path), len(rows) - 1, it))
            assert rows[:1] == ["iter,phase,rec,percep,excl,adv,mask,total"]
            save(tensors, path)

        monkeypatch.setattr(trainer, "save_checkpoint", spy)
        train(small_config(p1=1, p2=2), tiny_dataset, tmp_path / "run")
        assert [name for name, _, _ in seen] == ["ckpt_p1_e001.bin", "ckpt_p2_e001.bin", "ckpt_p2_e002.bin",
                                                 "final.bin"]
        assert all(n_rows == it for _, n_rows, it in seen), seen

    def test_triples_without_reflection_layer(self, tmp_path, monkeypatch):
        manifest = make_dataset(8, SynthesisParams(seed=1, patch_size=16), tmp_path / "data")
        rows = open(manifest).read().splitlines()
        with open(manifest, "w") as f:  # every second triple declares no reflection layer
            f.writelines((r.rsplit("\t", 1)[0] + "\t0" if k % 2 else r) + "\n" for k, r in enumerate(rows))
        phase1_has_r = []
        phase1_step = trainer._phase1_step

        def spy(state, batch, *rest):
            phase1_has_r.extend(tr.has_reflection_gt for tr in batch)
            return phase1_step(state, batch, *rest)

        monkeypatch.setattr(trainer, "_phase1_step", spy)
        cfg = TrainConfig(model=ModelConfig(width_multiplier=1 / 16, seed=1),
                          schedule=Schedule(phase1_epochs=1, phase2_epochs=1, batch_size=4))
        _, log = train(cfg, manifest, tmp_path / "run")
        assert phase1_has_r == [True] * 4
        logged = [r.split(",") for r in open(log).read().splitlines()[1:]]
        # phase 1: the 4 triples with R in one batch; phase 2: that batch, then the 4 without R
        assert [(r[0], r[1]) for r in logged] == [("1", "1"), ("2", "2"), ("3", "2")]
        mask = {r[0]: float(r[6]) for r in logged}
        assert mask["2"] > 0 and mask["3"] == 0
        assert all(np.isfinite(float(r[-1])) and float(r[-1]) > 0 for r in logged)

    def test_extractor_never_changes(self, tmp_path, tiny_dataset):
        cfg = small_config(p1=1, p2=1)
        state = TrainerState(cfg)
        before = hashlib.sha256(b"".join(p.data.tobytes()
                                         for p in state.percep.params.values())).hexdigest()
        train(cfg, tiny_dataset, tmp_path / "run")
        after_state = TrainerState(cfg)
        after_state.load(os.path.join(tmp_path / "run", "final.bin"))
        after = hashlib.sha256(b"".join(p.data.tobytes()
                                        for p in after_state.percep.params.values())).hexdigest()
        assert before == after

    def test_nan_loss_aborts_with_iteration(self, tmp_path, tiny_dataset):
        cfg = small_config(p1=1, p2=0)
        state_cfg = cfg  # poison the initial weights through a subclassed build
        orig_init = TrainerState.__init__

        def poisoned(self, config):
            orig_init(self, config)
            self.nets["g_r"]["dec/head/c1/weight"].data[0, 0, 0, 0] = np.nan

        TrainerState.__init__ = poisoned
        try:
            with pytest.raises(TrainingDiverged, match="iteration 1"):
                train(state_cfg, tiny_dataset, tmp_path / "run")
        finally:
            TrainerState.__init__ = orig_init

    def test_float32_phase2_step_hands_float32_grads_to_adam(self, tmp_path, monkeypatch):
        from ragnet.synthesis import load_triple, read_manifest

        manifest = make_dataset(2, SynthesisParams(seed=3, patch_size=16, blend_mode="overexpose"), tmp_path)
        triples = [load_triple(e) for e in read_manifest(manifest)]
        cfg = TrainConfig(model=ModelConfig(width_multiplier=1 / 16, seed=0, use_adversarial=True),
                          schedule=Schedule(phase1_epochs=0, phase2_epochs=1, batch_size=2))
        state = TrainerState(cfg)
        handed = []
        adam_step = AdamState.step

        def spy(self, params):
            handed.extend((name, p.grad.dtype) for name, p in params.items())
            adam_step(self, params)

        monkeypatch.setattr(AdamState, "step", spy)
        trainer._phase2_step(state, triples, True)
        assert all(p.dtype == np.float32 for net in state.nets.values() for p in net.params.values())
        assert len(handed) == sum(len(net.params) for net in state.nets.values())
        assert [name for name, dtype in handed if dtype != np.float32] == []

    def test_phase2_step_leaves_no_discriminator_grads(self, tmp_path):
        """The generator's term runs D with frozen weights, so its backward
        computes no dw or db for D; D steps on its own term and tracks again after."""
        from ragnet.synthesis import load_triple, read_manifest

        manifest = make_dataset(2, SynthesisParams(seed=3, patch_size=16), tmp_path)
        triples = [load_triple(e) for e in read_manifest(manifest)]
        cfg = TrainConfig(model=ModelConfig(width_multiplier=1 / 16, seed=0, use_adversarial=True),
                          schedule=Schedule(phase1_epochs=0, phase2_epochs=1, batch_size=2))
        state = TrainerState(cfg)
        disc = state.nets["disc"].params.values()
        before = [p.data.copy() for p in disc]
        trainer._phase2_step(state, triples, True)
        assert [p.name for p in disc if p.grad is not None] == []
        assert all(p.requires_grad for p in disc)
        assert any((p.data != b).any() for p, b in zip(disc, before))
        assert all(p.grad is not None for name in ("g_r", "g_t") for p in state.nets[name].params.values())

    def test_discriminator_step_leaves_generator_grads_untouched(self, tiny_dataset):
        from ragnet.synthesis import load_triple, read_manifest

        cfg = small_config()
        state = TrainerState(cfg)
        triples = [load_triple(e) for e in read_manifest(tiny_dataset)[:2]]
        i_obs = trainer._stack(triples, "i")
        t_gt = trainer._stack(triples, "t")
        state.zero_grads()
        with T.Tape():
            r_hat = forward_gr(state.nets["g_r"], i_obs)
            t_hat, _ = forward_gt(state.nets["g_t"], i_obs, r_hat)
            l_d = L.adv_d_loss(state.nets["disc"], i_obs, t_gt, t_hat.detach())
            T.backward(l_d)
        assert all(p.grad is None for p in state.nets["g_r"].params.values())
        assert all(p.grad is None for p in state.nets["g_t"].params.values())
        assert any(p.grad is not None and np.abs(p.grad).sum() > 0
                   for p in state.nets["disc"].params.values())
