"""The stdout of every benchmark operation, pinned.

``perfbench/workloads.py`` builds the operations of each workload; each one runs
here through ``cli.main`` in-process and must pass ``workloads.check``. One sha256
over each operation's name, exit code and stdout (never stderr, which holds the
wall time) per (workload, seed) must match the table below, so a change to any
byte a benchmark run prints fails here, naming the workload and the seed. A change
that means to alter these bytes names the operations and the reason in CHANGES.md.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from orbitkit import cli


def load_workloads():
    # by path, read-only: perfbench is not a package on the test path
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up while building Op
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()

DIGESTS = {
    ("soup-verify", 1): "089eb2a98e1fff75729b73c4f98a49d4490a8786f6e0ba5d4abf88efb912017e",
    ("soup-verify", 2): "8803a42bdb309d30efb258f00cbfdcd72098a2683506bf653f0bd073e62cc532",
    ("soup-verify", 3): "30e57841f0e84c078df5276db6430251df4fa777f9d6af37a74eaa783128964f",
    ("orbit-soups", 1): "efa3b278e5d06a949c7245530fc49f5f3d05cc37405ed30e00b24496b1018098",
    ("orbit-soups", 2): "5b964b84276c6f3e029b591dcbe07e1b9577ab49c2468f35087eea09490c1993",
    ("orbit-soups", 3): "e6d0e0ab6b508da63b7a84f558add940363a469e468d724de4fd62c33a7d3275",
    ("tm-periodicity", 1): "bb181598003fdbe10439121da97d4176002c89583f2706722f8a418d8e7dd84e",
    ("tm-periodicity", 2): "d6f6340cc3780e690285363d76a8cd8094ce127298bec049bf6960552a956fc8",
    ("tm-periodicity", 3): "606d63ff57390bba1ccea16ff788c81c08ce11ef8f2f8eacad6630f32e391cdb",
    ("poly-closure", 1): "c71861ba69d2ef6e6b86449bf9b89826028282ffe7591e8eae4281fb964ec942",
    ("poly-closure", 2): "c89a4f512c03175d32b4957c65e05ce530f2e177392e886d02f1fc11ad38e4fb",
    ("poly-closure", 3): "5518c848e7b239c1d0bb1d58ae25d34d23731da7cfd780568eb3f9cf881ef9f6",
}


@pytest.mark.parametrize("workload, seed", list(DIGESTS), ids=[f"{w}-{s}" for w, s in DIGESTS])
def test_workload_stdout_is_pinned(workload, seed, tmp_path, monkeypatch, capsys):
    ops = workloads.build(workload, seed, tmp_path)
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for op in ops:
        code = cli.main(list(op.argv))
        stdout = capsys.readouterr().out.encode()
        assert workloads.check(op, code, stdout) == "", op.name
        digest.update(f"{op.name} {code} {len(stdout)}\n".encode() + stdout)
    assert digest.hexdigest() == DIGESTS[workload, seed]
