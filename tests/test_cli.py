import json
import re
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fusionseg import training
from fusionseg.checkpoint import save_checkpoint
from fusionseg.cli import main
from fusionseg.config import TrainConfig, field_types
from fusionseg.errors import ContractError
from fusionseg.segnet import AblationConfig
from fusionseg.synthdata import write_pgm
from fusionseg.training import build_net, lr_schedule


@pytest.fixture()
def tiny_data(tmp_path):
    data = tmp_path / "data"
    rc = main(["gen-data", "--data-dir", str(data), "--image-size", "32",
               "--n-train", "8", "--n-val", "4", "--n-test", "4",
               "--seed", "3"])
    assert rc == 0
    return data


class TestLrSchedule:
    def test_endpoints(self):
        cfg = TrainConfig(epochs=100)
        assert lr_schedule(0, cfg) == pytest.approx(0.01)
        assert lr_schedule(99, cfg) == pytest.approx(1e-5)

    def test_midpoint(self):
        cfg = TrainConfig(epochs=101)
        assert lr_schedule(50, cfg) == pytest.approx((0.01 + 1e-5) / 2)

    def test_monotone_nonincreasing_and_bounded(self):
        cfg = TrainConfig(epochs=40)
        values = [lr_schedule(e, cfg) for e in range(40)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(cfg.lr_min <= v <= cfg.lr_init for v in values)

    def test_out_of_range(self):
        with pytest.raises(ContractError):
            lr_schedule(100, TrainConfig(epochs=100))


class TestGenData:
    def test_manifest_counts(self, tiny_data):
        manifest = json.loads((tiny_data / "manifest.json").read_text())
        counts = {k: len(v) for k, v in manifest["splits"].items()}
        assert counts == {"train": 8, "val": 4, "test": 4}

    def test_regeneration_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["gen-data", "--data-dir", str(tmp_path / sub),
                         "--image-size", "32", "--n-train", "2",
                         "--n-val", "1", "--n-test", "1", "--seed", "7"]) == 0
        for rel in sorted(p.relative_to(tmp_path / "a")
                          for p in (tmp_path / "a").rglob("*.pgm")):
            assert ((tmp_path / "a" / rel).read_bytes()
                    == (tmp_path / "b" / rel).read_bytes())

    @pytest.mark.parametrize("n_train", ["0", "2"])
    def test_bad_image_size_writes_nothing(self, tmp_path, capsys, n_train):
        data = tmp_path / "data"
        rc = main(["gen-data", "--data-dir", str(data), "--image-size", "40",
                   "--n-train", n_train, "--n-val", "0", "--n-test", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:config:") and ONE_ERROR_LINE.fullmatch(err)
        assert "image_size" in err
        assert not data.exists()

    def test_negative_split_count_writes_nothing(self, tmp_path, capsys):
        data = tmp_path / "data"
        rc = main(["gen-data", "--data-dir", str(data), "--n-train", "-1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:config:") and ONE_ERROR_LINE.fullmatch(err)
        assert "split counts must be >= 0" in err
        assert not data.exists()

    def test_data_dir_that_is_a_file_is_io_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.write_text("not a directory")
        rc = main(["gen-data", "--data-dir", str(data), "--n-train", "1",
                   "--n-val", "0", "--n-test", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:io:") and ONE_ERROR_LINE.fullmatch(err)
        assert "cannot create" in err


class TestPretrainGanCmd:
    def test_empty_train_split_writes_no_checkpoint(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen-data", "--data-dir", str(data), "--image-size", "32",
                     "--n-train", "0", "--n-val", "1", "--n-test", "1"]) == 0
        ckpt_dir = tmp_path / "gan"
        rc = main(["pretrain-gan", "--data-dir", str(data),
                   "--gan-checkpoint", str(ckpt_dir / "gan.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:config:") and ONE_ERROR_LINE.fullmatch(err)
        assert "no training data; run gen-data first" in err
        assert not ckpt_dir.exists()

    @pytest.mark.parametrize("path", [".", "/", ".."],
                             ids=["dot", "root", "dotdot"])
    def test_checkpoint_path_that_names_no_file_is_io_error(
            self, tiny_data, tmp_path, monkeypatch, capsys, path):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        rc = main(["pretrain-gan", "--data-dir", str(tiny_data),
                   "--gan-checkpoint", path, "--gan-iterations", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:io:") and ONE_ERROR_LINE.fullmatch(err)
        assert not list(tmp_path.rglob("*.losses.jsonl"))

    def test_zero_iterations_and_log(self, tiny_data, tmp_path):
        ckpt = tmp_path / "gan.ckpt"
        rc = main(["pretrain-gan", "--data-dir", str(tiny_data),
                   "--gan-checkpoint", str(ckpt), "--gan-iterations", "0",
                   "--seed", "3"])
        assert rc == 0 and ckpt.exists()
        assert (tmp_path / "gan.losses.jsonl").read_text() == ""

    def test_log_line_per_iteration(self, tiny_data, tmp_path):
        ckpt = tmp_path / "gan.ckpt"
        rc = main(["pretrain-gan", "--data-dir", str(tiny_data),
                   "--gan-checkpoint", str(ckpt), "--gan-iterations", "3",
                   "--gan-batch-size", "2", "--seed", "3"])
        assert rc == 0
        lines = (tmp_path / "gan.losses.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert {"iteration", "cycle_x"} <= set(json.loads(lines[0]))

    def test_extent_not_divisible_by_four_is_dimension_error(self, tmp_path,
                                                              capsys):
        data = tmp_path / "data"
        (data / "train").mkdir(parents=True)
        entry = {kind: f"train/{kind}_00000.pgm"
                 for kind in ("sar", "optical", "mask")}
        for rel in entry.values():
            write_pgm(data / rel, np.zeros((6, 6), dtype=np.uint8))
        (data / "manifest.json").write_text(json.dumps(
            {"image_size": 6, "splits": {"train": [entry], "val": [], "test": []}}))
        rc = main(["pretrain-gan", "--data-dir", str(data),
                   "--gan-checkpoint", str(tmp_path / "gan.ckpt"),
                   "--gan-iterations", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:dimension:") and ONE_ERROR_LINE.fullmatch(err)
        assert "divisible by 4" in err and "H=6, W=6" in err

    # the last step overflows the generator's weights while the losses,
    # taken before it, stay finite; numpy warns on the way
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_last_step_is_domain_error(self, tmp_path, capsys):
        data, ckpt = tmp_path / "data", tmp_path / "g.ckpt"
        assert main(["gen-data", "--data-dir", str(data), "--n-train", "6",
                     "--n-val", "2", "--n-test", "2", "--seed", "3"]) == 0
        rc = main(["pretrain-gan", "--data-dir", str(data),
                   "--gan-iterations", "1", "--gan-lr", "1.7e308",
                   "--gan-checkpoint", str(ckpt)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:domain:") and ONE_ERROR_LINE.fullmatch(err)
        assert "non-finite generator output after iteration 0" in err
        assert not ckpt.exists()


class TestTrainCmd:
    def test_one_epoch_one_record(self, tiny_data, tmp_path):
        out = tmp_path / "run"
        rc = main(["train", "--data-dir", str(tiny_data), "--out-dir", str(out),
                   "--epochs", "1", "--image-size", "32", "--seed", "3"])
        assert rc == 0
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert 0.0 <= record["val_fwiou"] <= 1.0
        assert (out / "last.ckpt").exists() and (out / "best.ckpt").exists()

    def test_deterministic_metrics_and_checkpoints(self, tiny_data, tmp_path):
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            rc = main(["train", "--data-dir", str(tiny_data), "--out-dir",
                       str(out), "--epochs", "2", "--image-size", "32",
                       "--seed", "3"])
            assert rc == 0
            outs.append(out)
        assert ((outs[0] / "metrics.jsonl").read_bytes()
                == (outs[1] / "metrics.jsonl").read_bytes())
        assert ((outs[0] / "last.ckpt").read_bytes()
                == (outs[1] / "last.ckpt").read_bytes())

    def test_out_dir_that_is_a_file_is_io_error(self, tiny_data, tmp_path,
                                                capsys):
        out = tmp_path / "run"
        out.write_text("not a directory")
        rc = main(["train", "--data-dir", str(tiny_data), "--out-dir", str(out),
                   "--epochs", "1", "--image-size", "32", "--seed", "3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:io:") and ONE_ERROR_LINE.fullmatch(err)

    def test_checkpoint_path_that_is_a_directory_is_io_error(
            self, tiny_data, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "last.ckpt").mkdir(parents=True)
        rc = main(["train", "--data-dir", str(tiny_data), "--out-dir", str(out),
                   "--epochs", "1", "--image-size", "32", "--seed", "3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:io:") and ONE_ERROR_LINE.fullmatch(err)
        assert "cannot write checkpoint" in err

    def test_missing_gan_checkpoint_is_config_error(self, tiny_data, tmp_path,
                                                    capsys):
        rc = main(["train", "--data-dir", str(tiny_data),
                   "--out-dir", str(tmp_path / "run"),
                   "--gan-checkpoint", str(tmp_path / "missing.ckpt"),
                   "--epochs", "1", "--use-gan", "--seed", "3"])
        assert rc == 1
        assert "error:config" in capsys.readouterr().err

    # the step overflows the weights while the batch loss, taken before it,
    # stays finite; numpy warns on the way
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_weights_without_val_split_are_domain_error(
            self, tmp_path, capsys):
        data, out = tmp_path / "data", tmp_path / "run"
        assert main(["gen-data", "--data-dir", str(data), "--n-train", "4",
                     "--n-val", "0", "--n-test", "2", "--seed", "3"]) == 0
        rc = main(["train", "--data-dir", str(data), "--out-dir", str(out),
                   "--epochs", "1", "--batch-size", "4",
                   "--lr-init", "1.7e308", "--lr-min", "1.7e308"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:domain:") and ONE_ERROR_LINE.fullmatch(err)
        assert "non-finite logits after epoch 0" in err
        assert not (out / "last.ckpt").exists()

    # the first step overflows the weights, so the second batch's loss is
    # not finite; numpy warns on the way
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_is_domain_error(self, tmp_path, capsys):
        data, out = tmp_path / "data", tmp_path / "run"
        assert main(["gen-data", "--data-dir", str(data), "--n-train", "8",
                     "--n-val", "0", "--n-test", "0", "--seed", "3"]) == 0
        rc = main(["train", "--data-dir", str(data), "--out-dir", str(out),
                   "--batch-size", "4",
                   "--lr-init", "1.7e308", "--lr-min", "1.7e308"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:domain:") and ONE_ERROR_LINE.fullmatch(err)
        assert "non-finite composite loss at epoch 0" in err
        assert not (out / "last.ckpt").exists()


class TestEvalCmd:
    def test_eval_report(self, tiny_data, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--data-dir", str(tiny_data), "--out-dir", str(out),
              "--epochs", "1", "--image-size", "32", "--seed", "3"])
        capsys.readouterr()
        rc = main(["eval", "--data-dir", str(tiny_data),
                   "--checkpoint", str(out / "last.ckpt"), "--split", "test",
                   "--seed", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["fwiou"] <= 1.0
        assert report["fwiou_percent"] == pytest.approx(100 * report["fwiou"])
        assert len(report["iou_per_class"]) == 2

    def test_non_finite_checkpoint_is_io_error(self, tmp_path, capsys):
        named = [(n, p.data.copy()) for n, p in
                 build_net(TrainConfig()).named_params()]
        named[0][1].flat[0] = np.nan
        path = tmp_path / "nan.ckpt"
        save_checkpoint(path, named)
        rc = main(["eval", "--data-dir", str(tmp_path / "data"),
                   "--checkpoint", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:io:") and err.count("\n") == 1
        assert "non-finite" in err and named[0][0] in err

    def test_repeated_tensor_is_io_error(self, tmp_path, capsys):
        # every parameter, then the first one again with the count bumped
        named = [(n, p.data) for n, p in build_net(TrainConfig()).named_params()]
        full, first = tmp_path / "full.ckpt", tmp_path / "first.ckpt"
        save_checkpoint(full, named)
        save_checkpoint(first, named[:1])
        raw = full.read_bytes()
        path = tmp_path / "repeated.ckpt"
        path.write_bytes(raw[:6] + struct.pack("<I", len(named) + 1) + raw[10:]
                         + first.read_bytes()[10:])
        rc = main(["eval", "--data-dir", str(tmp_path / "data"),
                   "--checkpoint", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:io:") and err.count("\n") == 1
        assert f"repeated tensor '{named[0][0]}'" in err

    def test_checkpoint_with_pre_entry_names_is_io_error(self, tmp_path,
                                                          capsys):
        # a body net's arrays under the names from before the entry stage:
        # "lift.w", and "encoder.stage<i>.b0.*" for each encoder stage
        def old_name(name):
            if name == "entry.w":
                return "lift.w"
            return re.sub(r"^(encoder\.stage\d+)\.", r"\1.b0.", name)
        named = [(old_name(n), p.data) for n, p in
                 build_net(TrainConfig()).named_params()]
        assert named[0][0] == "lift.w"
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, named)
        rc = main(["eval", "--data-dir", str(tmp_path / "data"),
                   "--checkpoint", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:io:") and ONE_ERROR_LINE.fullmatch(err)
        assert "missing tensor 'entry.w'" in err

    def test_missing_checkpoint_is_io_error(self, tmp_path, capsys):
        rc = main(["eval", "--data-dir", str(tmp_path / "data"),
                   "--checkpoint", str(tmp_path / "missing.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:io:") and ONE_ERROR_LINE.fullmatch(err)
        assert "cannot read checkpoint" in err


class TestExportMaps:
    def test_maps_two_valued_and_deterministic(self, tiny_data, tmp_path):
        out = tmp_path / "run"
        main(["train", "--data-dir", str(tiny_data), "--out-dir", str(out),
              "--epochs", "1", "--image-size", "32", "--seed", "3"])
        from fusionseg.synthdata import read_pgm
        for sub in ("m1", "m2"):
            rc = main(["export-maps", "--data-dir", str(tiny_data),
                       "--checkpoint", str(out / "last.ckpt"),
                       "--split", "test", "--maps-dir", str(tmp_path / sub),
                       "--seed", "3"])
            assert rc == 0
        preds = sorted((tmp_path / "m1").glob("pred_*.pgm"))
        assert len(preds) == 4  # one per test image
        for p in preds:
            img = read_pgm(p)
            assert set(np.unique(img)) <= {0, 255}
            assert p.read_bytes() == (tmp_path / "m2" / p.name).read_bytes()

    def test_empty_split_is_domain_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen-data", "--data-dir", str(data), "--image-size", "32",
                     "--n-train", "2", "--n-val", "0", "--n-test", "0"]) == 0
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, [(n, p.data) for n, p in
                               build_net(TrainConfig()).named_params()])
        capsys.readouterr()
        maps = tmp_path / "maps"
        rc = main(["export-maps", "--data-dir", str(data),
                   "--checkpoint", str(path), "--split", "test",
                   "--maps-dir", str(maps)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:domain:") and err.count("\n") == 1
        assert "empty split" in err
        assert not maps.exists()


class TestAblateCmd:
    def test_four_row_table(self, tiny_data, tmp_path, capsys):
        ckpt = tmp_path / "gan.ckpt"
        main(["pretrain-gan", "--data-dir", str(tiny_data),
              "--gan-checkpoint", str(ckpt), "--gan-iterations", "1",
              "--seed", "3"])
        out = tmp_path / "abl"
        rc = main(["ablate", "--data-dir", str(tiny_data),
                   "--out-dir", str(out), "--gan-checkpoint", str(ckpt),
                   "--epochs", "1", "--image-size", "32", "--seed", "3"])
        assert rc == 0
        rows = json.loads((out / "ablation.json").read_text())
        assert len(rows) == 4
        assert [r["config"] for r in rows] == [
            "body", "gan", "gan+att", "gan+att+combine"]
        assert all(0.0 <= r["fwiou"] <= 1.0 for r in rows)
        table = capsys.readouterr().out
        assert "FwIoU" in table and table.count("\n") >= 6

    @staticmethod
    def _count_train(monkeypatch):
        calls = []
        real_train = training.train

        def counted(*args, **kwargs):
            calls.append(args)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(training, "train", counted)
        return calls

    def test_missing_gan_checkpoint_trains_nothing(self, tiny_data, tmp_path,
                                                   monkeypatch, capsys):
        calls = self._count_train(monkeypatch)
        rc = main(["ablate", "--data-dir", str(tiny_data),
                   "--out-dir", str(tmp_path / "abl"),
                   "--gan-checkpoint", str(tmp_path / "missing.ckpt"),
                   "--epochs", "1", "--image-size", "32", "--seed", "3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:config:") and ONE_ERROR_LINE.fullmatch(err)
        assert "no GAN checkpoint" in err
        assert len(calls) == 0

    def test_out_dir_that_is_a_file_trains_nothing(self, tiny_data, tmp_path,
                                                   monkeypatch, capsys):
        ckpt = tmp_path / "gan.ckpt"
        main(["pretrain-gan", "--data-dir", str(tiny_data),
              "--gan-checkpoint", str(ckpt), "--gan-iterations", "0"])
        out = tmp_path / "abl"
        out.write_text("not a directory")
        capsys.readouterr()
        calls = self._count_train(monkeypatch)
        rc = main(["ablate", "--data-dir", str(tiny_data), "--out-dir", str(out),
                   "--gan-checkpoint", str(ckpt), "--epochs", "1",
                   "--image-size", "32", "--seed", "3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:io:") and ONE_ERROR_LINE.fullmatch(err)
        assert len(calls) == 0


class TestConfigFile:
    def test_json_config_with_flag_override(self, tiny_data, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "image_size": 32,
                                        "data_dir": str(tiny_data),
                                        "seed": 3}))
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg_path),
                   "--out-dir", str(out)])
        assert rc == 0
        assert len((out / "metrics.jsonl").read_text().splitlines()) == 1

    @pytest.mark.parametrize("text", [
        json.dumps({"epochs": 1, "lr_init": 1e-6}),
        json.dumps({"epoch": 3}),
        json.dumps({"batch_size": "8"}),
        json.dumps({"epochs": True}),
        json.dumps({"ablation": {"use_gann": True}}),
        json.dumps({"ablation": [1]}),
        json.dumps([1, 2]),
        '{"epochs": 3,',
        json.dumps({"seed": -1}),
        json.dumps({"depth_mult": float("inf")}),
        json.dumps({"width_mult": float("nan")}),
        json.dumps({"lr_init": float("nan"), "epochs": 1}),
        json.dumps({"lambda_cyc": float("-inf")}),
        json.dumps({"width_mult": 0}),
        json.dumps({"depth_mult": -1.0}),
        json.dumps({"gan_lr": 10 ** 400}),
        json.dumps({"width_mult": 1e300}),
        json.dumps({"depth_mult": 1e300}),
        json.dumps({"gan_batch_size": -1}),
        json.dumps({"gan_batch_size": 0}),
        json.dumps({"gan_iterations": -3}),
        json.dumps({"lr_init": -0.1, "lr_min": -0.2}),
        json.dumps({"gan_lr": -5e-4}),
        json.dumps({"weight_decay": -5e-4}),
        json.dumps({"lambda_cyc": -10.0}),
        json.dumps({"width_mult": 1.0}),
        json.dumps({"depth_mult": 1.0}),
        json.dumps({"lambda_cyc": 10.0}),
        "[" * 100_000,
    ], ids=["lr_min_above_lr_init", "unknown_key", "string_for_int",
            "bool_for_int", "unknown_ablation_key", "ablation_not_object",
            "not_an_object", "malformed_json", "negative_seed",
            "infinite_depth_mult", "nan_width_mult", "nan_lr_init",
            "negative_infinite_lambda_cyc", "zero_width_mult",
            "negative_depth_mult", "int_beyond_float_range",
            "huge_width_mult", "huge_depth_mult", "negative_gan_batch_size",
            "zero_gan_batch_size", "negative_gan_iterations", "negative_lr",
            "negative_gan_lr", "negative_weight_decay", "negative_lambda_cyc",
            "removed_width_mult", "removed_depth_mult", "removed_lambda_cyc",
            "deeply_nested_json"])
    def test_bad_config_is_config_error(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        # gen-data on a tiny set: an accepted config would exit 0 here
        rc = main(["gen-data", "--config", str(cfg_path), "--use-gan",
                   "--data-dir", str(tmp_path / "data"), "--image-size", "32",
                   "--n-train", "1", "--n-val", "0", "--n-test", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:config:") and err.count("\n") == 1


ONE_ERROR_LINE = re.compile(r"error:[a-z]+: [^\n]*\n")


@pytest.mark.parametrize("argv,message", [
    (["train", "--epochs", "abc"], "invalid int value: 'abc'"),
    (["train", "--epochs"], "expected one argument"),
    (["train", "--no-such-flag", "1"], "unrecognized arguments"),
    (["eval"], "required: --checkpoint"),
    (["bogus"], "invalid choice"),
    ([], "required: command"),
    # exponent-notation negatives reach the TrainConfig checks
    (["pretrain-gan", "--gan-lr", "-5e-4"], "gan_lr and weight_decay"),
    (["train", "--weight-decay", "-5e-4"], "gan_lr and weight_decay"),
    (["train", "--lr-min", "-1E+1"], "gan_lr and weight_decay"),
], ids=["int_typo", "missing_value", "unknown_flag", "missing_required",
        "unknown_command", "no_command", "negative_exponent_gan_lr",
        "negative_exponent_weight_decay", "negative_exponent_lr_min"])
def test_usage_error_is_one_config_line(tmp_path, monkeypatch, capsys, argv,
                                        message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:config:") and ONE_ERROR_LINE.fullmatch(err)
    assert message in err


def test_help_exits_zero(capsys):
    assert main(["train", "--help"]) == 0
    assert "--epochs" in capsys.readouterr().out


def _truncated_manifest(data):
    path = data / "manifest.json"
    path.write_text(path.read_text()[:40])


def _deeply_nested_manifest(data):
    (data / "manifest.json").write_text("[" * 100_000)


def _edit_manifest(edit):
    def apply(data):
        path = data / "manifest.json"
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps(edit(manifest)))
    return apply


def _drop_first_train_optical(manifest):
    del manifest["splits"]["train"][0]["optical"]
    return manifest


def _int_first_train_mask(manifest):
    manifest["splits"]["train"][0]["mask"] = 3
    return manifest


def _small_image(name):
    def apply(data):
        write_pgm(data / "train" / name, np.zeros((16, 16), dtype=np.uint8))
    return apply


@pytest.mark.parametrize("corrupt,message", [
    (_truncated_manifest, "malformed manifest"),
    (_edit_manifest(lambda m: [m]), "'splits' object"),
    (_edit_manifest(lambda m: {"image_size": 32}), "'splits' object"),
    (_edit_manifest(lambda m: {**m, "splits": [1]}), "'splits' object"),
    (_edit_manifest(lambda m: {**m, "splits": {"train": {}}}), "not a list"),
    (_edit_manifest(_drop_first_train_optical), "string sar, optical and mask"),
    (_edit_manifest(_int_first_train_mask), "string sar, optical and mask"),
    (_small_image("sar_00001.pgm"), "sar_00001.pgm: extent (16, 16)"),
    (_small_image("mask_00000.pgm"), "mask_00000.pgm: extent (16, 16)"),
    (_deeply_nested_manifest, "malformed manifest"),
], ids=["truncated_json", "not_an_object", "no_splits", "splits_not_object",
        "split_not_list", "entry_without_optical", "non_string_path",
        "small_second_sar", "small_first_mask", "deeply_nested_json"])
def test_bad_dataset_is_one_io_line(tiny_data, tmp_path, capsys, corrupt,
                                    message):
    corrupt(tiny_data)
    rc = main(["pretrain-gan", "--data-dir", str(tiny_data),
               "--gan-checkpoint", str(tmp_path / "gan.ckpt"),
               "--gan-iterations", "1", "--gan-batch-size", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:io:") and ONE_ERROR_LINE.fullmatch(err)
    assert message in err


COMMANDS = ("gen-data", "pretrain-gan", "train", "ablate", "eval",
            "export-maps")
SWITCHES = ("--use-gan", "--use-attention", "--use-combine", "--help")
FLAGS = tuple("--" + name.replace("_", "-") for name, kind in
              field_types(TrainConfig).items() if kind is not dict)
FLAGS += ("--config", "--checkpoint", "--split", "--maps-dir")
# relative names only, so nothing is written outside the test's directory
JUNK = ("abc", "", "0", "1", "2", "-1", "0.5", "-5e-4", "1e999", "nan",
        "-inf", "val", "test", "runs/last.ckpt", "runs/gan.ckpt", "-h",
        "--epochs", "x\ny")
TOKENS = st.one_of(st.sampled_from(FLAGS + SWITCHES), st.sampled_from(JUNK),
                   st.text(alphabet="ab019e-", max_size=4))
ARGS = st.one_of(st.tuples(st.sampled_from(SWITCHES)),
                 st.tuples(st.sampled_from(FLAGS), st.sampled_from(JUNK)),
                 st.tuples(TOKENS))
# appended last, so they override drawn values and every run stays small
SMALL_RUN = ["--epochs", "1", "--gan-iterations", "0", "--n-train", "2",
             "--n-val", "1", "--n-test", "1", "--image-size", "32"]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(COMMANDS + ("", "bogus", "--help")),
       args=st.lists(ARGS, max_size=5))
def test_any_argv_exits_zero_or_one_error_line(tmp_path, monkeypatch, capsys,
                                               command, args):
    monkeypatch.chdir(tmp_path)  # shared by the examples: later ones see data
    rc = main([command] + [t for arg in args for t in arg] + SMALL_RUN)
    err = capsys.readouterr().err
    assert rc == 0 or (rc == 1 and ONE_ERROR_LINE.fullmatch(err)), (rc, err)


README = Path(__file__).resolve().parents[1] / "README.md"
# desk-scale budgets appended to each README line; argparse keeps a flag's
# last value, so these override the README's own
README_OVERRIDES = {"gen-data": ["--n-train", "8", "--n-val", "4",
                                 "--n-test", "4"],
                    "pretrain-gan": ["--gan-iterations", "2"],
                    "train": ["--epochs", "1"], "ablate": ["--epochs", "1"]}


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", README.read_text(),
                      re.M | re.S).group(1)
    lines = [shlex.split(line)
             for line in block.replace("\\\n", " ").splitlines()]
    assert all(argv[0] == "fusionseg" for argv in lines)
    assert sorted(argv[1] for argv in lines) == sorted(COMMANDS)
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        rc = main(argv[1:] + README_OVERRIDES.get(argv[1], []))
        assert rc == 0, argv
