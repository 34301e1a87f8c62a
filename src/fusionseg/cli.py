"""Command-line harness: gen-data, pretrain-gan, train, eval, ablate, export-maps."""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .config import TrainConfig, field_types, read_json_object
from .errors import ConfigurationError, FusionSegError
from .gan import pretrain_gan
from .segnet import AblationConfig
from .synthdata import SceneSpec, load_split, make_dataset
from .training import (build_net, evaluate, export_maps, format_ablation_table,
                       run_ablation, train)

class _Parser(argparse.ArgumentParser):
    """argparse with a usage error raised as ``ConfigurationError``, not exit 2.

    It also reads a negative number in exponent notation ("-5e-4") as a
    value: argparse before Python 3.13 takes it for an option name.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise ConfigurationError(message)


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; flags override it")
    for cls in (TrainConfig, AblationConfig):
        for name, kind in field_types(cls).items():
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_true", default=None)
            elif kind is not dict:
                p.add_argument(flag, type=kind)


def _build_config(args) -> TrainConfig:
    base = read_json_object(args.config) if args.config else {}
    flags = {k: v for k, v in vars(args).items() if v is not None}
    base.update({k: flags[k] for k in field_types(TrainConfig) if k in flags})
    switches = {k: flags[k] for k in field_types(AblationConfig) if k in flags}
    ablation = base.get("ablation", {})
    if switches and isinstance(ablation, dict):  # else from_dict rejects it
        base["ablation"] = {**ablation, **switches}
    return TrainConfig.from_dict(base)


def cmd_gen_data(config, args):
    manifest = make_dataset(SceneSpec(image_size=config.image_size),
                            config.data_dir, config.n_train, config.n_val,
                            config.n_test, config.seed)
    counts = {k: len(v) for k, v in manifest["splits"].items()}
    print(f"dataset written to {config.data_dir}: {counts}")


def cmd_pretrain_gan(config, args):
    sar, _, optical = load_split(config.data_dir, "train")
    if len(sar) == 0:
        raise ConfigurationError("no training data; run gen-data first")
    # unpaired sets with the 300:50-style asymmetry: all SAR, a sixth optical
    n_opt = max(1, len(optical) // 6)
    Path(config.gan_checkpoint).parent.mkdir(parents=True, exist_ok=True)
    log_path = Path(config.gan_checkpoint).with_suffix(".losses.jsonl")
    with open(log_path, "w") as fh:
        def log_fn(it, record):
            fh.write(json.dumps({"iteration": it, **record},
                                sort_keys=True) + "\n")
        pretrain_gan(sar, optical[:n_opt], config.gan_iterations,
                     config.seed, checkpoint_path=config.gan_checkpoint,
                     lr=config.gan_lr, batch_size=config.gan_batch_size,
                     log_fn=log_fn)
    print(f"GAN checkpoint written to {config.gan_checkpoint}")


def cmd_train(config, args):
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    net, records = train(
        config,
        metrics_path=out / "metrics.jsonl",
        checkpoint_path=out / "last.ckpt",
        best_checkpoint_path=out / "best.ckpt")
    print(f"final val_fwiou={records[-1]['val_fwiou']}")


def _checkpointed_net_and_split(config, args):
    """The net with ``--checkpoint`` loaded, and the ``--split`` SAR and masks."""
    net = build_net(config)
    net.load(args.checkpoint)
    sar, masks, _ = load_split(config.data_dir, args.split)
    return net, sar, masks


def cmd_eval(config, args):
    net, sar, masks = _checkpointed_net_and_split(config, args)
    report = evaluate(net, sar, masks, config.batch_size)
    print(json.dumps(report, indent=1, sort_keys=True))


def cmd_ablate(config, args):
    rows = run_ablation(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "ablation.json").write_text(json.dumps(rows, indent=1, sort_keys=True))
    print(format_ablation_table(rows))


def cmd_export_maps(config, args):
    net, sar, masks = _checkpointed_net_and_split(config, args)
    written = export_maps(net, sar, masks, args.maps_dir or
                          Path(config.out_dir) / "maps", config.batch_size)
    print(f"wrote {len(written)} prediction maps")


def main(argv=None) -> int:
    parser = _Parser(
        prog="fusionseg",
        description="SAR segmentation with GAN-generated optical fusion")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("gen-data", cmd_gen_data),
                     ("pretrain-gan", cmd_pretrain_gan),
                     ("train", cmd_train),
                     ("ablate", cmd_ablate)):
        p = sub.add_parser(name)
        _add_config_flags(p)
        p.set_defaults(fn=fn)
    for name, fn in (("eval", cmd_eval), ("export-maps", cmd_export_maps)):
        p = sub.add_parser(name)
        _add_config_flags(p)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--split", default="test")
        if name == "export-maps":
            p.add_argument("--maps-dir")
        p.set_defaults(fn=fn)
    try:
        args = parser.parse_args(argv)
        args.fn(_build_config(args), args)
    except SystemExit as e:  # --help, after printing the help text
        return e.code
    except FusionSegError as e:
        return _fail(e.category, e)
    except OSError as e:
        return _fail("io", e)
    return 0


def _fail(category, error) -> int:
    """One ``error:<category>:`` line on stderr, even if the message has newlines."""
    message = str(error).replace("\n", "\\n")
    print(f"error:{category}: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
