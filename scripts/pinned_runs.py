"""Train the pinned byte-identity runs and print the SHA-256 of what each one writes.

A pure refactor must leave every hash printed here unchanged.  The pinned
data is ``ragnet synth --n 8 --seed 1 --patch-size 16``; each run trains it
at width 1/16, 16 px, 1 + 1 epochs, seed 1: once per RAG variant, and once
more (``full, half has_r=0``) on a manifest whose every second row declares
no reflection layer.  The ``full`` run is also evaluated over the pinned data,
and its ``final.bin`` runs ``ragnet infer`` and ``ragnet inspect-mask`` on the
pinned ``I_0000.ppm``; each of the two output directories is hashed.
``full, resumed`` resumes ``full`` from its ``ckpt_p1_e001.bin`` into a new
directory; the script exits 1 unless that run's ``final.bin`` hash equals
``full``'s, so the diff of two runs also covers ``train --resume``.
The last two lines hash synthesized data: the pinned data, and
``ragnet synth --n 2 --seed 1 --patch-size 224``, whose scenes span several
row blocks of the blur filter.

Usage: PYTHONPATH=src python3 scripts/pinned_runs.py [--out DIR]
(without ``--out`` the runs go to a temporary directory that is removed).
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

from ragnet.cli import main
from ragnet.model import RAG_VARIANTS

TRAIN_FLAGS = ["--width-multiplier", "0.0625", "--patch-size", "16", "--phase1-epochs", "1",
               "--phase2-epochs", "1", "--seed", "1"]


def ragnet(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        sys.exit(f"ragnet {' '.join(argv)} exited {code}")


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def sha256_dir(path: str) -> str:
    """SHA-256 over the sorted file names and contents of a directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run_all(root: str) -> None:
    data = os.path.join(root, "data")
    ragnet("synth", "--n", "8", "--seed", "1", "--patch-size", "16", "--out", data)
    data_sha = sha256_dir(data)
    manifest = os.path.join(data, "manifest.tsv")
    half_r = os.path.join(data, "manifest_half_r.tsv")
    with open(manifest) as src, open(half_r, "w") as dst:
        for k, row in enumerate(src):
            dst.write(row.rsplit("\t", 1)[0] + "\t0\n" if k % 2 else row)

    runs = [(v, manifest, ["--rag-variant", v]) for v in RAG_VARIANTS]
    runs.append(("full, half has_r=0", half_r, []))
    print(f"{'run':20s} {'file':18s} sha256")
    for k, (name, data_manifest, flags) in enumerate(runs):
        out = os.path.join(root, f"run{k}")
        ragnet("train", "--data", data_manifest, "--out", out, *TRAIN_FLAGS, *flags)
        for fname in ("final.bin", "ckpt_p1_e001.bin", "train_log.csv"):
            print(f"{name:20s} {fname:18s} {sha256(os.path.join(out, fname))}")
        if name == "full":
            report = os.path.join(root, "eval_full")
            ragnet("eval", "--ckpt", os.path.join(out, "final.bin"), "--data", manifest, "--out", report)
            print(f"{name:20s} {'eval report.csv':18s} {sha256(os.path.join(report, 'report.csv'))}")
            for command in ("infer", "inspect-mask"):
                outputs = os.path.join(root, f"{command}_full")
                ragnet(command, "--ckpt", os.path.join(out, "final.bin"),
                       "--input", os.path.join(data, "I_0000.ppm"), "--out", outputs)
                print(f"{name:20s} {command + ' dir':18s} {sha256_dir(outputs)}")
            resumed = os.path.join(root, "resumed_full")
            ragnet("train", "--data", data_manifest, "--out", resumed, *TRAIN_FLAGS, *flags,
                   "--resume", os.path.join(out, "ckpt_p1_e001.bin"))
            resumed_sha = sha256(os.path.join(resumed, "final.bin"))
            print(f"{'full, resumed':20s} {'final.bin':18s} {resumed_sha}")
            if resumed_sha != sha256(os.path.join(out, "final.bin")):
                sys.exit("the resumed full run's final.bin differs from the uninterrupted one's")
    data224 = os.path.join(root, "data224")
    ragnet("synth", "--n", "2", "--seed", "1", "--patch-size", "224", "--out", data224)
    print(f"{'synth n 8, 16 px':20s} {'data directory':18s} {data_sha}")
    print(f"{'synth n 2, 224 px':20s} {'data directory':18s} {sha256_dir(data224)}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="keep the data and runs in this directory")
    args = parser.parse_args()
    if args.out:
        run_all(args.out)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            run_all(tmp)
