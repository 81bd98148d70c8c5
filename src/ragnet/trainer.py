"""Two-phase optimization, Adam updates, checkpoints, and training logs.

Phase 1 pretrains the reflection estimator alone on its own reconstruction
and perceptual terms; phase 2 trains both stages jointly on the full
five-term objective, alternating one critic step with one generator step
when the adversarial term is enabled.  Everything is a pure function of
(config, dataset, seed): shuffles derive per-epoch seeds, parameters train
in float32, and checkpoints round-trip bit-exactly, so an interrupted run
resumed from an epoch checkpoint finishes byte-identical to an
uninterrupted one; a resume must keep the checkpoint's ``ModelConfig``.  Each
network's gradients are clipped to a global L2 norm of ``CLIP_NORM`` = 1.
A non-finite loss part or total, or a non-finite critic loss, stops the run
with ``TrainingDiverged`` before the backward from it, and a non-finite
gradient norm stops it before the step writes a weight or an Adam moment;
either names what was not finite.

Checkpoint file layout (little-endian): magic ``RAGN``, version u32,
tensor count u32; per tensor, in name order: name length u32, UTF-8 name,
rank u32, dims u32 x rank (rank 0 is written as rank 1, dims (1,)),
float32 payload; trailing CRC32 of all preceding bytes.  Integers (counters,
Adam steps, the seed) are four float32 limbs of 16 bits, low limb first.
Loaded arrays are read-only views into the one read of the file.  Inference,
resume and the ``meta/*`` decode all copy entries out of them with
``restore``, which checks that each wanted entry exists, has its
destination's shape and is finite before it copies any.
The training log is a CSV with header ``iter,phase,<LossParts fields>,total``;
it is flushed before each epoch checkpoint, so it never lags behind one.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import struct
import zlib
from dataclasses import dataclass, field, fields

import numpy as np

import ragnet.tensor as T
from ragnet import losses as L
from ragnet.model import SIDE_MULTIPLE, ModelConfig, Network, RAG_VARIANTS, build_network, forward_gr, forward_gt
from ragnet.synthesis import derive_seed, load_triple, read_manifest

CKPT_MAGIC = b"RAGN"
CKPT_VERSION = 1
CLIP_NORM = 1.0  # per-network global gradient-norm cap


class TrainingDiverged(RuntimeError):
    """A non-finite *what* (a loss part, or a network's gradient norm) at
    *iteration*; ``train`` fills in the last good checkpoint: the last one
    it wrote, or else the one it resumed from."""

    def __init__(self, iteration: int, what: str, last_checkpoint: str | None = None):
        super().__init__(iteration, what, last_checkpoint)
        self.iteration = iteration
        self.what = what
        self.last_checkpoint = last_checkpoint

    def __str__(self) -> str:
        where = f"; last good checkpoint: {self.last_checkpoint}" if self.last_checkpoint else ""
        return f"non-finite {self.what} at iteration {self.iteration}{where}"


@dataclass
class AdamConfig:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        for name, v in (("lr", self.lr), ("eps", self.eps)):
            with np.errstate(over="ignore"):  # the moments and parameters are float32
                v32 = np.float32(v)
            if not (np.isfinite(v32) and v32 > 0):
                raise ValueError(f"Adam {name} must be finite and > 0 in float32, got {v}")
        for name, v in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0 <= v < 1:
                raise ValueError(f"Adam {name} must lie in [0,1), got {v}")


def _zero_pages(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Zero arrays shaped and typed like *arrays*, as views of one private
    anonymous mapping, each starting on a 64-byte boundary."""
    offsets, end = [], 0
    for a in arrays:
        end = -(-end // 64) * 64
        offsets.append(end)
        end += a.nbytes
    raw = np.frombuffer(mmap.mmap(-1, max(end, 1), flags=mmap.MAP_PRIVATE), dtype=np.uint8)
    return [raw[o:o + a.nbytes].view(a.dtype).reshape(a.shape) for o, a in zip(offsets, arrays)]


class AdamState:
    """First/second moment buffers and step counter for one parameter set.

    The moments are views of one fresh anonymous mapping (``_zero_pages``),
    whose pages read as zero and become resident only when written.  So the
    moments hold no memory until the first step (or a checkpoint load)
    writes them, and a state that never steps, as in inference, keeps only
    its weights resident.  ``np.zeros`` keeps that promise only while the
    allocator hands out fresh memory: a state built after another one was
    freed got the freed pages back, which calloc must clear, and so made
    resident.
    """

    def __init__(self, params: dict[str, T.Parameter], cfg: AdamConfig):
        self.cfg = cfg
        self.step_count = 0
        zeros = _zero_pages([p.data for p in params.values()] * 2)
        self.m = dict(zip(params, zeros[:len(params)]))
        self.v = dict(zip(params, zeros[len(params):]))

    def step(self, params: dict[str, T.Parameter]) -> None:
        cfg = self.cfg
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - cfg.beta1 ** t
        bc2 = 1.0 - cfg.beta2 ** t
        largest = max((p.data.size for p in params.values()), default=0)
        scratch: dict[np.dtype, np.ndarray] = {}  # two flat buffers per dtype, reused by every parameter
        for name, p in params.items():
            if p.grad is None:
                raise ValueError(f"Adam step: parameter {name!r} has no gradient "
                                 "(run backward before stepping)")
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            if p.dtype not in scratch:
                scratch[p.dtype] = np.empty((2, largest), dtype=p.dtype)
            num, den = (row[:p.data.size].reshape(p.shape) for row in scratch[p.dtype])
            # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;  p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
            m *= cfg.beta1
            m += np.multiply(1.0 - cfg.beta1, g, out=num)
            v *= cfg.beta2
            np.multiply(g, g, out=den)
            v += np.multiply(1.0 - cfg.beta2, den, out=den)
            np.divide(m, bc1, out=num)
            np.multiply(cfg.lr, num, out=num)
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += cfg.eps
            p.data -= np.divide(num, den, out=num)


def clip_grad_norm(params: dict[str, T.Parameter]) -> float:
    """Scale all gradients so their global L2 norm is at most ``CLIP_NORM``; returns the norm before.

    A non-finite norm leaves the gradients as they are, since no scale
    bounds them; ``_update`` stops the run on it.

    Deep ReLU stacks under a fixed learning rate are vulnerable to loss
    spikes (for example the unbounded derivative of the exclusion term's
    outer square root near flat predictions) that shock the optimizer into
    saturation; capping the joint norm bounds one step's damage without
    altering steady-state directions.
    """
    sq = 0.0
    for p in params.values():
        if p.grad is not None:
            sq += float((p.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(sq))
    if CLIP_NORM < norm < math.inf:
        scale = CLIP_NORM / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= p.grad.dtype.type(scale)
    return norm


@dataclass
class Schedule:
    """Desk-scale defaults; the published protocol is 50 + 100 epochs at full width."""
    phase1_epochs: int = 2
    phase2_epochs: int = 8
    batch_size: int = 4

    def __post_init__(self):
        if self.phase1_epochs < 0 or self.phase2_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    schedule: Schedule = field(default_factory=Schedule)
    weights: L.LossWeights = field(default_factory=L.LossWeights)
    thresholds: L.MaskLossThresholds = field(default_factory=L.MaskLossThresholds)
    adam: AdamConfig = field(default_factory=AdamConfig)
    stop_gradient_r: bool = False  # ablation: block the joint gradient through R_hat
    checkpoint_every_epoch: bool = True


# ---------------------------------------------------------------------------
# checkpoint serialization

def save_checkpoint(tensors: dict[str, np.ndarray], path) -> None:
    """Write named float32 tensors in the binary RAGN format (sorted by name).

    Header pieces and array buffers stream to the file, the CRC folded over them.
    """
    tmp = str(path) + ".tmp"
    crc = 0
    with open(tmp, "wb") as f:
        def put(buf) -> None:
            nonlocal crc
            f.write(buf)
            crc = zlib.crc32(buf, crc)

        put(CKPT_MAGIC + struct.pack("<II", CKPT_VERSION, len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f4")  # rank 0 becomes shape (1,)
            enc = name.encode()
            put(struct.pack(f"<I{len(enc)}sI{arr.ndim}I", len(enc), enc, arr.ndim, *arr.shape))
            put(memoryview(arr).cast("B"))
        f.write(struct.pack("<I", crc))
    os.replace(tmp, path)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Parse and validate a RAGN checkpoint into read-only views; raises with offset diagnostics."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16:
        raise ValueError(f"checkpoint {path}: file too short ({len(blob)} bytes)")
    if blob[:4] != CKPT_MAGIC:
        raise ValueError(f"checkpoint {path}: bad magic {blob[:4]!r} at offset 0, expected {CKPT_MAGIC!r}")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != CKPT_VERSION:
        raise ValueError(f"checkpoint {path}: unsupported version {version}, expected {CKPT_VERSION}")
    end = len(blob) - 4
    (crc_stored,) = struct.unpack_from("<I", blob, end)
    crc = zlib.crc32(memoryview(blob)[:end]) & 0xFFFFFFFF
    if crc != crc_stored:
        raise ValueError(f"checkpoint {path}: CRC mismatch (stored {crc_stored:#010x}, computed {crc:#010x})")
    off = 12

    def take(nbytes: int, what: str) -> int:
        """Offset of the next *nbytes* bytes, which must lie before the CRC."""
        nonlocal off
        if off + nbytes > end:
            raise ValueError(f"checkpoint {path}: truncated at offset {off}: "
                             f"expected {nbytes} bytes for {what}, only {end - off} left")
        off += nbytes
        return off - nbytes

    out: dict[str, np.ndarray] = {}
    for i in range(count):
        (nlen,) = struct.unpack_from("<I", blob, take(4, f"tensor {i} name length"))
        start = take(nlen, f"tensor {i} name")
        name = blob[start:start + nlen].decode()
        (rank,) = struct.unpack_from("<I", blob, take(4, f"{name} rank"))
        dims = struct.unpack_from(f"<{rank}I", blob, take(4 * rank, f"{name} dims"))
        size = math.prod(dims)
        out[name] = np.frombuffer(blob, "<f4", size, take(4 * size, f"{name} payload")).reshape(dims)
    if off != end:
        raise ValueError(f"checkpoint {path}: {end - off} trailing bytes after last tensor")
    return out


def restore(path, loaded: dict[str, np.ndarray], expected: dict[str, np.ndarray]) -> None:
    """Copy each entry of *expected* from *loaded*, the parse of checkpoint *path*.

    Every entry must exist in the file with its destination's shape and hold
    only finite values; a missing, misshapen or non-finite entry raises
    ``ValueError`` naming it, before any entry is copied.
    """
    missing = sorted(set(expected) - set(loaded))
    if missing:
        raise ValueError(f"checkpoint {path}: missing tensors {missing[:5]} "
                         f"({len(missing)} total); wrong config?")
    for name, arr in expected.items():
        if loaded[name].shape != arr.shape:
            raise ValueError(f"checkpoint {path}: tensor {name} has shape {loaded[name].shape}, "
                             f"expected {arr.shape}")
        if not np.isfinite(loaded[name]).all():
            raise ValueError(f"checkpoint {path}: tensor {name} holds a non-finite value")
    for name, arr in expected.items():
        arr[...] = loaded[name]


def _int_to_limbs(v: int) -> np.ndarray:
    u = v & 0xFFFFFFFFFFFFFFFF
    return np.array([(u >> s) & 0xFFFF for s in (0, 16, 32, 48)], dtype=np.float32)


def _limbs_to_int(a: np.ndarray, name: str, path) -> int:
    """The integer stored as tensor *name* of checkpoint *path*: four integer limbs in [0, 65535]."""
    limbs = a.reshape(-1).tolist()
    if not all(x.is_integer() and 0 <= x <= 0xFFFF for x in limbs):
        raise ValueError(f"checkpoint {path}: tensor {name} holds {limbs}, not four integer limbs in [0, 65535]")
    return sum(int(x) << 16 * k for k, x in enumerate(limbs))


def weight_tensors(nets: dict[str, Network]) -> dict[str, np.ndarray]:
    """The ``model/{net}/{param}`` entries of the checkpoint's name table: the live weights of *nets*."""
    return {f"model/{net_name}/{pname}": p.data for net_name, net in nets.items() for pname, p in net.params.items()}


def _model_tensors(model: ModelConfig) -> dict[str, np.ndarray]:
    """The ``meta/*`` tensors that hold the architecture hyperparameters."""
    return {"meta/seed": _int_to_limbs(model.seed),
            "meta/width_multiplier": np.array([model.width_multiplier], dtype=np.float32),
            "meta/variant": np.array([RAG_VARIANTS.index(model.rag_variant)], dtype=np.float32),
            "meta/use_adversarial": np.array([float(model.use_adversarial)], dtype=np.float32)}


# ---------------------------------------------------------------------------
# trainer state

class TrainerState:
    """Networks, optimizer states, and schedule position of one training run.

    ``draw_init=False`` leaves every weight zero instead of drawing its He
    init, for a state that ``load`` overwrites next; resuming a run is its
    only such use.  Inference loads G_R and G_T alone (``cli.load_models``).
    """

    def __init__(self, config: TrainConfig, draw_init: bool = True):
        self.config = config
        self.nets: dict[str, Network] = {name: build_network(name, config.model, draw_init=draw_init)
                                         for name in ("g_r", "g_t")}
        if config.model.use_adversarial:
            self.nets["disc"] = build_network("discriminator", config.model, draw_init=draw_init)
        self.percep = build_network("percep_extractor", config.model, draw_init=draw_init)
        self.adam = {name: AdamState(net.params, config.adam) for name, net in self.nets.items()}
        self.epochs_done = {1: 0, 2: 0}  # per phase
        self.global_iter = 0

    def zero_grads(self) -> None:
        for net in self.nets.values():
            net.zero_grad()

    def to_tensors(self) -> dict[str, np.ndarray]:
        """The checkpoint's name table; the ``model/`` and Adam moment entries are the live arrays."""
        out = weight_tensors({**self.nets, "percep": self.percep})
        for net_name, st in self.adam.items():
            for pname in st.m:
                out[f"adam/{net_name}/{pname}/m"] = st.m[pname]
                out[f"adam/{net_name}/{pname}/v"] = st.v[pname]
            out[f"adam/{net_name}/step"] = _int_to_limbs(st.step_count)
        for phase, done in self.epochs_done.items():
            out[f"meta/phase{phase}_done"] = _int_to_limbs(done)
        out["meta/global_iter"] = _int_to_limbs(self.global_iter)
        out.update(_model_tensors(self.config.model))
        return out

    def save(self, path) -> None:
        save_checkpoint(self.to_tensors(), path)

    def load(self, path) -> None:
        """Restore every weight, Adam moment and counter from checkpoint *path*.

        ``restore`` checks every entry before it copies any, so a missing,
        misshapen or non-finite entry leaves the state as it was."""
        loaded = load_checkpoint(path)
        # the model first, so another width or critic setting is named as such, not
        # as a misshapen or missing tensor; compared as float32 bytes, so a width
        # that float32 rounds still matches itself
        stored = _model_tensors(model_config_from_checkpoint(path, loaded))
        differ = [n.split("/")[1] for n, arr in _model_tensors(self.config.model).items()
                  if stored[n].tobytes() != arr.tobytes()]
        if differ:
            raise ValueError(f"checkpoint {path}: its model differs from this run's in {', '.join(differ)}")
        restore(path, loaded, self.to_tensors())
        read_int = lambda name: _limbs_to_int(loaded[name], name, path)
        for net_name, st in self.adam.items():
            st.step_count = read_int(f"adam/{net_name}/step")
        self.epochs_done = {phase: read_int(f"meta/phase{phase}_done") for phase in self.epochs_done}
        self.global_iter = read_int("meta/global_iter")


def model_config_from_checkpoint(path, loaded: dict[str, np.ndarray]) -> ModelConfig:
    """Rebuild the architecture hyperparameters stored in *loaded*, the parse of checkpoint *path*."""
    meta = _model_tensors(ModelConfig())
    restore(path, loaded, meta)
    variant, adv = float(meta["meta/variant"][0]), float(meta["meta/use_adversarial"][0])
    if not (variant.is_integer() and 0 <= variant < len(RAG_VARIANTS)):
        raise ValueError(f"checkpoint {path}: meta/variant index {variant:g} is not in 0..{len(RAG_VARIANTS) - 1}")
    if adv not in (0.0, 1.0):
        raise ValueError(f"checkpoint {path}: meta/use_adversarial is {adv:g}, not 0 or 1")
    return ModelConfig(width_multiplier=float(meta["meta/width_multiplier"][0]),
                       rag_variant=RAG_VARIANTS[int(variant)], use_adversarial=bool(adv),
                       seed=_limbs_to_int(meta["meta/seed"], "meta/seed", path))


# ---------------------------------------------------------------------------
# training loop

def _stack(triples, attr) -> T.Tensor:
    return T.Tensor(np.concatenate([getattr(tr, attr) for tr in triples], axis=0))


def _batches(pool: list[int], batch_size: int, rng: np.random.Generator):
    order = rng.permutation(len(pool))
    for start in range(0, len(pool), batch_size):
        yield [pool[i] for i in order[start:start + batch_size]]


def train(config: TrainConfig, manifest_path, out_dir, resume_from=None) -> tuple[str, str]:
    """Run (or resume) the two-phase protocol; returns (final checkpoint, log csv)."""
    entries = read_manifest(manifest_path)
    triples = [load_triple(e) for e in entries]
    for entry, tr in zip(entries, triples):
        if tr.i.shape[2] % SIDE_MULTIPLE or tr.i.shape[3] % SIDE_MULTIPLE:
            raise ValueError(f"{entry.i_file}: image sides {tr.i.shape[2]}x{tr.i.shape[3]} "
                             f"must be multiples of {SIDE_MULTIPLE}")
    sizes = sorted({tr.i.shape[2:] for tr in triples})
    if config.schedule.batch_size > 1 and len(sizes) > 1:
        raise ValueError(f"batch size {config.schedule.batch_size} stacks images of one size, but the "
                         f"manifest holds {', '.join(f'{h}x{w}' for h, w in sizes)} images")
    has_r_pool = [i for i, tr in enumerate(triples) if tr.has_reflection_gt]
    no_r_pool = [i for i, tr in enumerate(triples) if not tr.has_reflection_gt]
    # phase -> (epochs, step, (pool, has_r) groups); phase 1 needs the reflection layer
    phases = {1: (config.schedule.phase1_epochs, _phase1_step, [(has_r_pool, True)]),
              2: (config.schedule.phase2_epochs, _phase2_step,
                  [(has_r_pool, True)] + ([(no_r_pool, False)] if no_r_pool else []))}

    if resume_from is None:
        state = TrainerState(config)
    else:
        state = TrainerState(config, draw_init=False)  # load overwrites every weight
        state.load(resume_from)
    for phase, (epochs, _, groups) in phases.items():
        if state.epochs_done[phase] < epochs and not any(pool for pool, _ in groups):
            raise ValueError(f"phase {phase} has epochs to run but no triple to draw: the manifest has "
                             f"{len(triples)} triples, {len(has_r_pool)} with a reflection layer")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "train_log.csv")
    kept: list[str] = []
    if resume_from is not None and os.path.exists(log_path):
        # keep the whole rows up to the resumed iteration; the run writes the
        # later ones again, and a row that a kill cut short has no newline
        with open(log_path) as f:
            kept = [row for row in f.readlines()[1:]
                    if row.endswith("\n") and int(row.split(",", 1)[0]) <= state.global_iter]
    last_ckpt: str | None = resume_from  # checked by restore, so a divergence before the next write names it
    with open(log_path, "w") as log_f:
        log_f.write(",".join(("iter", "phase", *(f.name for f in fields(L.LossParts)), "total")) + "\n")
        log_f.writelines(kept)

        for phase, (epochs, step, groups) in phases.items():
            for epoch in range(state.epochs_done[phase], epochs):
                rng = np.random.Generator(np.random.PCG64(derive_seed(config.model.seed, "order", phase, epoch)))
                for pool, has_r in groups:
                    for batch in _batches(pool, config.schedule.batch_size, rng):
                        state.global_iter += 1
                        try:
                            # no name holds the step's tensors, so its graph is freed once the row is written
                            _write_row(log_f, state.global_iter, phase,
                                       *step(state, [triples[i] for i in batch], has_r))
                        except TrainingDiverged as e:
                            e.last_checkpoint = last_ckpt
                            raise
                state.epochs_done[phase] = epoch + 1
                if config.checkpoint_every_epoch:
                    log_f.flush()  # the log never lags behind a checkpoint
                    last_ckpt = os.path.join(out_dir, f"ckpt_p{phase}_e{epoch + 1:03d}.bin")
                    state.save(last_ckpt)

    final = os.path.join(out_dir, "final.bin")
    state.save(final)
    return final, log_path


def _named(parts: L.LossParts, total: T.Tensor) -> list[tuple[str, T.Tensor | None]]:
    """The step's loss parts and total with their names, in log column order."""
    return [*((f.name, getattr(parts, f.name)) for f in fields(parts)), ("total", total)]


def _write_row(log_f, iteration: int, phase: int, parts: L.LossParts, total: T.Tensor) -> None:
    """Write the log row of one step."""
    vals = [0.0 if v is None else v.item() for _, v in _named(parts, total)]
    log_f.write(f"{iteration},{phase}," + ",".join(f"{v:.6g}" for v in vals) + "\n")


def _backward(state: TrainerState, loss: T.Tensor, named: list[tuple[str, T.Tensor | None]]) -> None:
    """Backward from *loss*, once every tensor of *named*, (name, tensor or
    None) pairs, is finite.

    A non-finite one raises ``TrainingDiverged`` naming it, before any
    gradient is computed, so no weight or Adam moment the backward feeds is
    written.  The critic's loss is checked before the critic's step, which
    runs before the generator's terms exist.
    """
    for name, v in named:
        if v is not None and not math.isfinite(v.item()):
            raise TrainingDiverged(state.global_iter, f"loss {name}")
    T.backward(loss)


def _update(state: TrainerState, *names: str) -> None:
    """Clip each named network's gradients, then take their Adam steps.

    A non-finite gradient norm raises ``TrainingDiverged`` before any
    weight or Adam moment of the named networks is written, since Adam
    would write a non-finite step into both.
    """
    for name in names:
        if not math.isfinite(clip_grad_norm(state.nets[name].params)):
            raise TrainingDiverged(state.global_iter, f"gradient norm of {name}")
    for name in names:
        state.adam[name].step(state.nets[name].params)


def _phase1_step(state: TrainerState, batch, has_r: bool) -> tuple[L.LossParts, T.Tensor]:
    """One G_R pretraining step; phase 1 draws only triples with a reflection layer (``has_r``)."""
    cfg = state.config
    state.zero_grads()
    i_obs = _stack(batch, "i")
    r_gt = _stack(batch, "r")
    with T.Tape():
        r_hat = forward_gr(state.nets["g_r"], i_obs)
        pairs = [(r_hat, r_gt)]
        parts = L.LossParts(rec=L.rec_loss(pairs), percep=L.perceptual_loss(pairs, state.percep))
        total = L.total_loss(parts, cfg.weights)
        _backward(state, total, _named(parts, total))
    _update(state, "g_r")
    return parts, total


def _phase2_step(state: TrainerState, batch, has_r: bool) -> tuple[L.LossParts, T.Tensor]:
    cfg = state.config
    use_adv = cfg.model.use_adversarial
    state.zero_grads()
    i_obs = _stack(batch, "i")
    t_gt = _stack(batch, "t")
    r_gt = _stack(batch, "r") if has_r else None

    with T.Tape():
        r_hat = forward_gr(state.nets["g_r"], i_obs)
        r_in = r_hat.detach() if cfg.stop_gradient_r else r_hat
        t_hat, masks = forward_gt(state.nets["g_t"], i_obs, r_in)

        if use_adv:
            l_d = L.adv_d_loss(state.nets["disc"], i_obs, t_gt, t_hat.detach())
            _backward(state, l_d, [("adv_d", l_d)])
            _update(state, "disc")
            state.nets["disc"].zero_grad()

        # the terms are recorded in argument order, and backward follows creation order;
        # D's weights track no gradient in the generator's term, so its backward skips their dw
        pairs = [(t_hat, t_gt)] + ([(r_hat, r_gt)] if has_r else [])
        with state.nets["disc"].frozen() if use_adv else contextlib.nullcontext():
            parts = L.LossParts(
                rec=L.rec_loss(pairs),
                percep=L.perceptual_loss(pairs, state.percep),
                mask=L.mask_loss(masks, r_gt, cfg.thresholds) if has_r else None,
                excl=L.exclusion_loss(t_hat, r_hat),
                adv=L.adv_g_loss(state.nets["disc"], i_obs, t_hat) if use_adv else None)
            total = L.total_loss(parts, cfg.weights)
            _backward(state, total, _named(parts, total))

    _update(state, "g_r", "g_t")
    return parts, total
