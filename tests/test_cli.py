import json

import numpy as np
import pytest

from fusionseg.checkpoint import save_checkpoint
from fusionseg.cli import main
from fusionseg.config import TrainConfig
from fusionseg.errors import ContractError
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


class TestPretrainGanCmd:
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
                   "--gan-batch-size", "2", "--lambda-cyc", "5",
                   "--seed", "3"])
        assert rc == 0
        lines = (tmp_path / "gan.losses.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert {"iteration", "cycle_x"} <= set(json.loads(lines[0]))


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

    def test_missing_gan_checkpoint_is_config_error(self, tiny_data, tmp_path,
                                                    capsys):
        rc = main(["train", "--data-dir", str(tiny_data),
                   "--out-dir", str(tmp_path / "run"),
                   "--gan-checkpoint", str(tmp_path / "missing.ckpt"),
                   "--epochs", "1", "--use-gan", "--seed", "3"])
        assert rc == 1
        assert "error:config" in capsys.readouterr().err


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
    ], ids=["lr_min_above_lr_init", "unknown_key", "string_for_int",
            "bool_for_int", "unknown_ablation_key", "ablation_not_object",
            "not_an_object", "malformed_json", "negative_seed",
            "infinite_depth_mult", "nan_width_mult", "nan_lr_init",
            "negative_infinite_lambda_cyc", "zero_width_mult",
            "negative_depth_mult", "int_beyond_float_range"])
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
