"""perfbench's tracer finds every name it wraps and puts each one back.

A traced name that is renamed or deleted only prints a warning in a
benchmark run, and its per-layer metric then reads 0.
"""

import importlib.util
from pathlib import Path

import ragnet.cli
import ragnet.losses
import ragnet.metrics
import ragnet.model
import ragnet.synthesis
import ragnet.tensor
import ragnet.trainer

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
OWNERS = (ragnet.cli, ragnet.losses, ragnet.metrics, ragnet.model, ragnet.synthesis, ragnet.tensor,
          ragnet.trainer, ragnet.tensor.Tape, ragnet.trainer.AdamState)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_finds_every_name_and_restores_it(capsys):
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = _load_spans().Tracer().install()
    try:
        patched = list(tracer._patches)
        assert "not found" not in capsys.readouterr().err
        assert patched
        for owner, attr, orig in patched:
            assert vars(owner)[attr] is not orig, f"{owner.__name__}.{attr} is not wrapped"
            assert any(owner is o for o in OWNERS), f"{owner.__name__} is not checked for restoration"
    finally:
        tracer.uninstall()
    for owner, attrs in zip(OWNERS, before):
        now = dict(vars(owner))
        assert now.keys() == attrs.keys(), owner.__name__
        assert [name for name in attrs if now[name] is not attrs[name]] == [], owner.__name__
