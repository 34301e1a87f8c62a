"""A small CLI pipeline's outputs, against checked-in records of two kinds.

``tests/same_bytes.json`` holds the sha256 of every output byte. Those sums
hold for one numpy and BLAS build; on another build that test skips.
``tests/same_values.json`` holds the values that carry meaning: every
``metrics.jsonl`` and ``gan.losses.jsonl`` field, the eval and ablation
scores, and each prediction map's foreground pixel count. That test runs on
every build, floats within ``REL_TOL``, everything else exactly. The
pipeline runs once for both. A change that moves outputs on purpose
rewrites both records with

    PYTHONPATH=src python tests/test_same_bytes.py

so that their diffs show what moved.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fusionseg.cli import main
from fusionseg.synthdata import read_pgm

SUMS = Path(__file__).with_name("same_bytes.json")
VALUES = Path(__file__).with_name("same_values.json")
# relative tolerance of a recorded float on any build; chosen before the
# record was compared across builds, and not to be widened to make one pass
REL_TOL = 1e-9
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


def run_pipeline(root: Path) -> dict:
    """Runs COMMANDS in ``root``; each command's stdout, keyed ``"<i> <name>"``."""
    stdout = {}
    cwd = os.getcwd()
    os.chdir(root)  # relative paths, so stdout does not name ``root``
    try:
        for i, argv in enumerate(COMMANDS):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = main(argv)
            assert rc == 0, (argv, rc)
            stdout[f"{i} {argv[0]}"] = out.getvalue()
    finally:
        os.chdir(cwd)
    return stdout


def pipeline_sums(root: Path, stdout: dict) -> dict:
    """sha256 of each stdout and of each file, keyed by directory, then name."""
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    sums = {"stdout": {k: sha(v.encode()) for k, v in stdout.items()}}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        folder = path.parent.relative_to(root).as_posix()
        sums.setdefault(folder, {})[path.name] = sha(path.read_bytes())
    return sums


def pipeline_values(root: Path, stdout: dict) -> dict:
    """The records, scores and foreground counts the pipeline wrote."""
    def jsonl(path):
        return [json.loads(line) for line in path.read_text().splitlines()]

    values = {"gan.losses.jsonl": jsonl(root / "gan.losses.jsonl"),
              "ablate/ablation.json": json.loads(
                  (root / "ablate" / "ablation.json").read_text())}
    for run in ("full", "body"):
        values[f"{run}/metrics.jsonl"] = jsonl(root / run / "metrics.jsonl")
        values[f"{run}/maps"] = {
            p.name: int((read_pgm(p) == 255).sum())
            for p in sorted((root / run / "maps").glob("pred_*.pgm"))}
    values.update({f"stdout/{k}": json.loads(v) for k, v in stdout.items()
                   if k.endswith(" eval")})
    return values


def differences(got, want, where: str = "") -> list:
    """Where ``got`` is not ``want``: floats within ``REL_TOL``, all else exact."""
    if type(got) is float and type(want) is float:
        same = math.isclose(got, want, rel_tol=REL_TOL)
    elif (isinstance(got, dict) and isinstance(want, dict)
          and got.keys() == want.keys()):
        return [d for k in sorted(want)
                for d in differences(got[k], want[k], f"{where}/{k}")]
    elif (isinstance(got, list) and isinstance(want, list)
          and len(got) == len(want)):
        return [d for i, pair in enumerate(zip(got, want))
                for d in differences(*pair, f"{where}[{i}]")]
    else:
        same = type(got) is type(want) and got == want
    return [] if same else [f"{where}: {got!r}, recorded {want!r}"]


def flat(sums: dict) -> dict:
    """``folder/name`` -> sha256."""
    return {f"{folder}/{name}": digest for folder, files in sums.items()
            for name, digest in files.items()}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The pipeline's root and stdout, run once for this module's tests."""
    root = tmp_path_factory.mktemp("pipeline")
    return root, run_pipeline(root)


def test_pipeline_outputs_are_the_recorded_bytes(pipeline):
    recorded = json.loads(SUMS.read_text())
    if recorded["build"] != build():
        pytest.skip(f"sums recorded on {recorded['build']}; "
                    f"this build is {build()}")
    recorded, sums = flat(recorded["sha256"]), flat(pipeline_sums(*pipeline))
    differ = sorted(k for k in recorded.keys() | sums.keys()
                    if recorded.get(k) != sums.get(k))
    assert not differ, f"outputs differ from {SUMS.name}: {differ}"


def test_pipeline_values_are_the_recorded_values(pipeline):
    recorded = json.loads(VALUES.read_text())["values"]
    differ = differences(pipeline_values(*pipeline), recorded)
    assert not differ, f"values differ from {VALUES.name}: {differ}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        stdout = run_pipeline(root)
        sums, values = pipeline_sums(root, stdout), pipeline_values(root, stdout)
    for path, record in ((SUMS, {"build": build(), "sha256": sums}),
                         (VALUES, {"build": build(), "values": values})):
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(flat(sums))} sums to {SUMS} and the values to {VALUES}")
