"""In-memory spans around calls into ragnet's modules, and the per-layer metrics built from them.

A ``Tracer`` replaces module attributes (the names callers actually look up)
with wrappers that record a span (name, start, end, parent) per call.  Each
autograd node an op returns gets its ``grad_fn`` wrapped too, so backward
time is attributed to the op that recorded the node.  ``uninstall`` restores
every attribute it replaced.  Nothing inside ``src/ragnet`` changes.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# Public tensor functions that are factories or utilities, not recorded ops.
TENSOR_NON_OPS = {"tensor", "zeros", "ones", "full", "scalar", "backward",
                  "finite_diff_check", "dump_text", "load_text"}
# Ops reported on their own; every other recorded op goes into ``tensor.other_ops``.
NAMED_OPS = ("conv2d", "mask_mean3x3", "maxpool2x2", "conv_transpose2d")
MODEL_FUNCS = ("forward_gr", "forward_gt", "rag_block", "partial_conv",
               "extract_features", "forward_discriminator")
LOSS_FUNCS = ("rec_loss", "perceptual_loss", "exclusion_loss", "mask_loss",
              "adv_d_loss", "adv_g_loss")
# Layers that run in set-up on the inference workloads; reported per run, not per unit.
PER_RUN_LAYERS = ("cli.load_models", "trainer.load_checkpoint",
                  "synthesis.make_dataset", "synthesis.load_triple")
OPTIMIZER_SPANS = ("trainer.clip_grad_norm", "trainer.AdamState.step")


class _TimedGrad:
    """Callable that stands in for an autograd node's ``grad_fn`` and records a span."""

    __slots__ = ("tracer", "name", "fn")

    def __init__(self, tracer: "Tracer", name: str, fn):
        self.tracer, self.name, self.fn = tracer, name, fn

    def __call__(self, g):
        i = self.tracer.begin(self.name)
        try:
            return self.fn(g)
        finally:
            self.tracer.end(i)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.ops: list[str] = []
        self.f64_grads_last_step = 0
        self._f64_grads_step = 0

    # -- spans -------------------------------------------------------------
    def begin(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(i)
        return i

    def end(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    # -- patching ----------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            print(f"perfbench: {getattr(owner, '__name__', owner)}.{attr} not found; "
                  f"span {name} is not recorded", file=sys.stderr)
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            i = tracer.begin(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.end(i)
            if after is not None:
                after(out, args)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def install(self) -> "Tracer":
        import ragnet.cli as cli
        import ragnet.losses as losses
        import ragnet.metrics as metrics
        import ragnet.model as model
        import ragnet.synthesis as synthesis
        import ragnet.tensor as tensor
        import ragnet.trainer as trainer

        self.ops = _tensor_ops(tensor)
        for op in self.ops:
            after = self._after_conv2d if op == "conv2d" else self._after_op(f"tensor.{op}.bwd")
            self.wrap(tensor, op, f"tensor.{op}.fwd", after)
        self.wrap(tensor, "backward", "tensor.backward")
        self._wrap_tape(tensor.Tape)
        # every name under which a caller looks a model function up
        for fn in MODEL_FUNCS:
            for mod in (model, trainer, losses, cli):
                if fn in vars(mod):
                    self.wrap(mod, fn, f"model.{fn}")
        for fn in LOSS_FUNCS:
            self.wrap(losses, fn, f"losses.{fn}")
        self.wrap(trainer, "train", "trainer.train")
        self.wrap(trainer, "clip_grad_norm", "trainer.clip_grad_norm")
        self.wrap(trainer.AdamState, "step", "trainer.AdamState.step", self._after_adam)
        self.wrap(trainer, "save_checkpoint", "trainer.save_checkpoint", self._after_save)
        self.wrap(trainer, "load_checkpoint", "trainer.load_checkpoint")
        self.wrap(cli, "load_models", "cli.load_models")
        self.wrap(cli, "infer_image", "cli.infer_image")
        self.wrap(synthesis, "make_dataset", "synthesis.make_dataset")
        for mod in (synthesis, trainer):
            self.wrap(mod, "load_triple", "synthesis.load_triple")
        self.wrap(metrics, "psnr", "metrics.psnr")
        self.wrap(metrics, "ssim", "metrics.ssim")
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _wrap_tape(self, tape_cls) -> None:
        # one tape is opened per training step, so a tape span is a step span
        enter, exit_ = tape_cls.__enter__, tape_cls.__exit__
        tracer, opened = self, []

        def __enter__(tape):
            opened.append(tracer.begin("trainer.step"))
            tracer._f64_grads_step = 0
            return enter(tape)

        def __exit__(tape, *exc):
            try:
                return exit_(tape, *exc)
            finally:
                tracer.end(opened.pop())

        tape_cls.__enter__, tape_cls.__exit__ = __enter__, __exit__
        self._patches += [(tape_cls, "__enter__", enter), (tape_cls, "__exit__", exit_)]

    # -- per-call counters -------------------------------------------------
    def _after_op(self, bwd_name: str):
        def after(out, args):
            for t in out if isinstance(out, tuple) else (out,):
                node = getattr(t, "node", None)
                if node is not None and not isinstance(node.grad_fn, _TimedGrad):
                    node.grad_fn = _TimedGrad(self, bwd_name, node.grad_fn)
                    self.counts["nodes"] += 1
        return after

    def _after_conv2d(self, out, args):
        x, w = args[0], args[1]
        n, co, ho, wo = out.shape
        _, ci, k, _ = w.shape
        self.counts["conv2d.calls"] += 1
        self.counts["conv2d.flops"] += 2 * n * ho * wo * co * ci * k * k
        self.counts["conv2d.cols_bytes"] += n * ho * wo * ci * k * k * x.data.dtype.itemsize
        self._after_op("tensor.conv2d.bwd")(out, args)

    def _after_adam(self, out, args):
        params = args[1]
        self._f64_grads_step += sum(1 for name, p in params.items()
                                    if not name.startswith("disc/")
                                    and p.grad is not None and p.grad.dtype.itemsize == 8)
        self.f64_grads_last_step = self._f64_grads_step

    def _after_save(self, out, args):
        self.counts["save_checkpoint.bytes"] += os.path.getsize(args[1])
        self.counts["save_checkpoint.calls"] += 1

    # -- aggregation -------------------------------------------------------
    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Self time, inclusive time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, s, e, p in self.spans:
            if p >= 0:
                child[p] += e - s
        self_t: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, s, e, p) in enumerate(self.spans):
            self_t[name] += (e - s) - child[i]
            incl[name] += e - s
            calls[name] += 1
        return self_t, incl, calls

    def _inside(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def step_split(self) -> tuple[float, float, float]:
        """Forward, backward and optimizer seconds summed over all training steps.

        Backward is every ``tensor.backward`` call; the optimizer is
        ``clip_grad_norm`` plus ``AdamState.step``, inside the step's tape or
        after it; forward is the rest of the tape (network passes and losses).
        """
        step = bwd = opt = opt_in_tape = 0.0
        for i, (name, s, e, p) in enumerate(self.spans):
            if name == "trainer.step":
                step += e - s
            elif name == "tensor.backward":
                bwd += e - s
            elif name in OPTIMIZER_SPANS:
                opt += e - s
                if self._inside(i, "trainer.step"):
                    opt_in_tape += e - s
        return step - bwd - opt_in_tape, bwd, opt

    def write(self, path, t0: float) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans]}, f)


def _tensor_ops(tensor_mod) -> list[str]:
    return sorted(name for name, obj in vars(tensor_mod).items()
                  if callable(obj) and not isinstance(obj, type) and not name.startswith("_")
                  and getattr(obj, "__module__", None) == tensor_mod.__name__
                  and name not in TENSOR_NON_OPS)


def layer_metrics(setup: Tracer, timed: Tracer, units: int) -> dict[str, float]:
    """Per-layer metrics: self seconds per timed unit (training step or image).

    ``PER_RUN_LAYERS`` are totals over the set-up and the timed phase of the run.
    """
    s_self, _, _ = setup.totals()
    t_self, t_incl, _ = timed.totals()
    per = lambda v: v / units
    m: dict[str, float] = {}
    others = [op for op in timed.ops if op not in NAMED_OPS]
    for bucket, ops in [(op, [op]) for op in NAMED_OPS] + [("other_ops", others)]:
        for phase in ("fwd", "bwd"):
            m[f"tensor.{bucket}.{phase}_s"] = per(sum(t_self.get(f"tensor.{op}.{phase}", 0.0) for op in ops))
    conv_fwd = t_self.get("tensor.conv2d.fwd", 0.0)
    m["tensor.conv2d.fwd_gflops"] = timed.counts["conv2d.flops"] / conv_fwd / 1e9 if conv_fwd else 0.0
    m["tensor.conv2d.cols_mb"] = per(timed.counts["conv2d.cols_bytes"]) / 1e6
    m["tensor.conv2d.calls"] = per(timed.counts["conv2d.calls"])
    m["tensor.backward.s"] = per(t_incl.get("tensor.backward", 0.0))
    m["tensor.backward.self_s"] = per(t_self.get("tensor.backward", 0.0))
    m["tensor.backward.nodes"] = per(timed.counts["nodes"])
    m["tensor.grad_f64_params"] = float(timed.f64_grads_last_step)
    for fn in MODEL_FUNCS:
        m[f"model.{fn}.s"] = per(t_self.get(f"model.{fn}", 0.0))
    for fn in LOSS_FUNCS:
        m[f"losses.{fn}.s"] = per(t_self.get(f"losses.{fn}", 0.0))
    fwd, bwd, opt = timed.step_split()
    m["trainer.step.forward_s"] = per(fwd)
    m["trainer.step.backward_s"] = per(bwd)
    m["trainer.step.optimizer_s"] = per(opt)
    m["trainer.save_checkpoint.s"] = per(t_self.get("trainer.save_checkpoint", 0.0))
    saves = timed.counts["save_checkpoint.calls"]
    m["trainer.save_checkpoint.mb"] = timed.counts["save_checkpoint.bytes"] / saves / 1e6 if saves else 0.0
    m["cli.infer_image.s"] = per(t_self.get("cli.infer_image", 0.0))
    for layer in PER_RUN_LAYERS:
        m[f"{layer}.s"] = s_self.get(layer, 0.0) + t_self.get(layer, 0.0)
    m["metrics.psnr.s"] = per(t_self.get("metrics.psnr", 0.0))
    m["metrics.ssim.s"] = per(t_self.get("metrics.ssim", 0.0))
    return m


def table(timed: Tracer, units: int, wall_s: float, top: int = 40) -> str:
    """Self time per span name, per unit and as a share of the timed wall time."""
    t_self, t_incl, calls = timed.totals()
    rows = sorted(t_self.items(), key=lambda kv: -kv[1])[:top]
    width = max([len(k) for k, _ in rows] + [18])
    lines = [f"{'span':<{width}} {'calls/unit':>10} {'self ms/unit':>12} {'incl ms/unit':>12} {'self share':>10}"]
    for name, s in rows:
        lines.append(f"{name:<{width}} {calls[name] / units:>10.1f} {1e3 * s / units:>12.3f} "
                     f"{1e3 * t_incl[name] / units:>12.3f} {100 * s / wall_s:>9.1f}%")
    covered = sum(t_self.values())
    lines.append(f"{'(outside any span)':<{width}} {'':>10} {1e3 * (wall_s - covered) / units:>12.3f} "
                 f"{'':>12} {100 * (wall_s - covered) / wall_s:>9.1f}%")
    return "\n".join(lines)
