"""Importing ragnet keeps freed memory mapped on glibc, so steady-state images
and training steps fault in almost no fresh pages.

Each count is taken in a fresh interpreter, so neither the memory that earlier
tests freed nor the allocator thresholds they moved can hide a re-fault.
"""

import os
import platform
import subprocess
import sys

import pytest

import ragnet
import ragnet.tensor as T

on_glibc_linux = pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                                    reason="ragnet sets its allocator policy on glibc only")


def printed_by_fresh_interpreter(code: str) -> int:
    """The integer that *code* prints; ``scripts/`` is on its path."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join([os.path.dirname(os.path.dirname(ragnet.__file__)), os.path.join(root, "scripts")])
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True)
    return int(proc.stdout)


@on_glibc_linux
def test_a_steady_state_inference_faults_in_almost_no_pages():
    faults = printed_by_fresh_interpreter(
        "from ragnet.cli import infer_image\n"
        "from state_footprint import fresh_state, minor_faults, seeded_image\n"
        "state, img = fresh_state(1 / 16), seeded_image(128)\n"
        "for _ in range(2):\n"
        "    infer_image(state, img)\n"
        "print(minor_faults(infer_image, state, img))\n")
    assert faults <= 64


@on_glibc_linux
def test_a_steady_state_phase2_step_faults_in_almost_no_pages():
    faults = printed_by_fresh_interpreter(
        "import tempfile\n"
        "from ragnet.trainer import _phase2_step\n"
        "from state_footprint import desk_step, minor_faults\n"
        "with tempfile.TemporaryDirectory() as d:\n"
        "    state, triples = desk_step(d, 1 / 16)\n"
        "    for _ in range(2):\n"
        "        _phase2_step(state, triples, True)\n"
        "    print(minor_faults(_phase2_step, state, triples, True))\n")
    assert faults <= 64


def test_no_allocator_policy_off_glibc(monkeypatch):
    def no_libc(name):
        raise AssertionError(f"loaded {name} off glibc")

    monkeypatch.setattr(T.platform, "libc_ver", lambda: ("", ""))
    monkeypatch.setattr(T.ctypes, "CDLL", no_libc)
    T._keep_freed_memory_mapped()
