"""Every output byte of a small CLI pipeline, against checked-in sha256 sums.

A change that moves any output byte fails here and names the files that
moved. A change that moves bytes on purpose rewrites the sums with

    PYTHONPATH=src python tests/test_same_bytes.py

so that the diff of ``tests/same_bytes.json`` shows what moved. The sums
hold for one numpy and BLAS build; on another build the test skips.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fusionseg.cli import main

SUMS = Path(__file__).with_name("same_bytes.json")
FULL = ["--use-gan", "--use-attention", "--use-combine"]
RUN = ["--data-dir", "data", "--gan-checkpoint", "gan.ckpt", "--seed", "5"]
TRAIN = RUN + ["--epochs", "3", "--batch-size", "3"]
COMMANDS = [
    ["gen-data", "--n-train", "16", "--n-val", "8", "--n-test", "8"] + RUN,
    ["pretrain-gan", "--gan-iterations", "6", "--gan-batch-size", "2"] + RUN,
    ["train", "--out-dir", "full"] + FULL + TRAIN,
    ["train", "--out-dir", "body"] + TRAIN,
    ["eval", "--checkpoint", "full/last.ckpt"] + FULL + TRAIN,
    ["eval", "--checkpoint", "body/last.ckpt"] + TRAIN,
    ["export-maps", "--checkpoint", "full/last.ckpt",
     "--maps-dir", "full/maps"] + FULL + TRAIN,
    ["export-maps", "--checkpoint", "body/last.ckpt",
     "--maps-dir", "body/maps"] + TRAIN,
    ["ablate", "--out-dir", "ablate"] + RUN + ["--epochs", "2",
                                                "--batch-size", "3"],
]


def build():
    """The numpy build, its BLAS and the machine type the sums hold for."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # the directories say where the wheel was built, not what it computes
    blas = {k: v for k, v in blas.items() if not k.endswith("directory")}
    return {"numpy": np.__version__, "blas": blas,
            "machine": platform.machine()}


def pipeline_sums(root: Path) -> dict:
    """Runs COMMANDS in ``root``; sha256 of each stdout and of each file
    written, the files keyed by directory and then by name."""
    sums = {"stdout": {}}
    cwd = os.getcwd()
    os.chdir(root)  # relative paths, so stdout does not name ``root``
    try:
        for i, argv in enumerate(COMMANDS):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = main(argv)
            assert rc == 0, (argv, rc)
            sums["stdout"][f"{i} {argv[0]}"] = hashlib.sha256(
                out.getvalue().encode()).hexdigest()
    finally:
        os.chdir(cwd)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        folder = path.parent.relative_to(root).as_posix()
        sums.setdefault(folder, {})[path.name] = hashlib.sha256(
            path.read_bytes()).hexdigest()
    return sums


def flat(sums: dict) -> dict:
    """``folder/name`` -> sha256."""
    return {f"{folder}/{name}": digest for folder, files in sums.items()
            for name, digest in files.items()}


def test_pipeline_outputs_are_the_recorded_bytes(tmp_path):
    recorded = json.loads(SUMS.read_text())
    if recorded["build"] != build():
        pytest.skip(f"sums recorded on {recorded['build']}; "
                    f"this build is {build()}")
    recorded, sums = flat(recorded["sha256"]), flat(pipeline_sums(tmp_path))
    differ = sorted(k for k in recorded.keys() | sums.keys()
                    if recorded.get(k) != sums.get(k))
    assert not differ, f"outputs differ from {SUMS.name}: {differ}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        sums = pipeline_sums(Path(root))
    SUMS.write_text(json.dumps({"build": build(), "sha256": sums},
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(flat(sums))} sums to {SUMS}")
