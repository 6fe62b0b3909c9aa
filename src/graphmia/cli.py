"""Command-line interface for batch audits.

Subcommands: ``pretrain``, ``attack``, ``baseline``, ``ablate``,
``diagnose``, ``evaluate``, ``scaling``.  All take ``--config`` (flat
key = value file), ``--seed`` (overrides the config seed) and ``--out``.
``pretrain`` checkpoints each seed's victim into ``--out``; the commands
that attack or diagnose it load that checkpoint when its pretrain key
matches their config and pre-train the victim themselves otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .baselines import KINDS
from .checkpoint import pretrain_key, save_victim, victim_path
from .config import ConfigError, ExperimentConfig, load_config
from .diagnostics import (
    robustness_probe,
    separability_projection,
    write_projection_csv,
    write_robustness_csv,
)
from .experiment import (
    PRIMARY_ATTACK,
    VARIANT_FULL,
    VARIANT_WO_IL,
    VARIANT_WO_UL,
    build_context,
    prepare_domains,
    pretrain_args,
    run_experiment,
    runtime_scaling_check,
    summarize_runs,
)
from .metrics import MetricsReport
from .rng import derive_seed
from .victim import pretrain_multidomain


def _load(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()
    return cfg


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _print_summary(summary: dict) -> None:
    for key, stats in summary["attacks"].items():
        print(f"{key}: acc {stats['acc_mean']:.4f} +- {stats['acc_std']:.4f}  "
              f"f1 {stats['f1_mean']:.4f} +- {stats['f1_std']:.4f}  ({stats['runs']} runs)")
    for failure in summary["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)


def cmd_pretrain(args: argparse.Namespace) -> int:
    """Checkpoint every seed's victim, keyed by its pretrain inputs, where
    the other commands writing to the same ``--out`` look for it."""
    cfg = _load(args)
    out = _out_dir(args)
    for seed in cfg.seeds():
        pretrain = pretrain_args(cfg, seed, prepare_domains(cfg, seed))
        path = victim_path(out, seed)
        save_victim(path, pretrain_multidomain(*pretrain), seed=seed, key=pretrain_key(*pretrain))
        print(f"wrote {path}")
    return 0


def _audit(args: argparse.Namespace, attacks: tuple[str, ...], variants: tuple[str, ...]) -> int:
    """Run the audit into ``--out`` and print its summary; exit code 1 when
    a seed failed."""
    cfg = _load(args)
    result = run_experiment(cfg, attacks=attacks, variants=variants, out_dir=_out_dir(args))
    _print_summary(result.summary())
    return 1 if result.failures else 0


def cmd_attack(args: argparse.Namespace) -> int:
    return _audit(args, (PRIMARY_ATTACK,), (VARIANT_FULL,))


def cmd_baseline(args: argparse.Namespace) -> int:
    return _audit(args, (args.name,), (VARIANT_FULL,))


def cmd_ablate(args: argparse.Namespace) -> int:
    return _audit(args, (PRIMARY_ATTACK,), (args.variant,))


def cmd_diagnose(args: argparse.Namespace) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    ctx = build_context(cfg, cfg.seed, out)
    dom = ctx.attack_domain
    if args.probe == "pca":
        result, labels = separability_projection(ctx.target, dom.member_graph, dom.nonmember_graph)
        path = out / f"pca_seed{cfg.seed}.csv"
        write_projection_csv(path, result, labels)
        ratios = ", ".join(f"{r:.4f}" for r in result.explained_ratios)
        print(f"wrote {path} (explained variance ratios: {ratios})")
    else:
        graphs = {"member": dom.member_graph, "nonmember": dom.nonmember_graph}
        values = np.concatenate([
            robustness_probe(ctx.target, g, args.trials, derive_seed(cfg.seed, "robustness", tag))
            for tag, g in graphs.items()
        ])
        labels = np.repeat([1, 0], [g.num_nodes for g in graphs.values()])
        path = out / f"robustness_seed{cfg.seed}.csv"
        write_robustness_csv(path, values, labels)
        print(f"wrote {path} (member mean {values[labels == 1].mean():.4f}, "
              f"non-member mean {values[labels == 0].mean():.4f})")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    out = Path(args.out)
    reports = sorted(out.glob("report_*.json"))
    if not reports:
        print(f"no reports under {out}", file=sys.stderr)
        return 1
    runs = []
    for path in reports:
        try:
            rec = json.loads(path.read_text(encoding="utf-8"))
            runs.append((rec["variant"], MetricsReport.from_dict(rec)))
        except (OSError, ValueError, TypeError, KeyError) as exc:
            reason = f"no field {exc}" if isinstance(exc, KeyError) else str(exc)
            print(f"graphmia: error: {path}: {reason}", file=sys.stderr)
            return 2
    runs.sort(key=lambda run: run[1].seed)
    _print_summary({"attacks": summarize_runs(runs), "failures": []})
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    cfg = _load(args)
    report = runtime_scaling_check(args.sizes, cfg)
    out = _out_dir(args)
    path = out / "scaling.json"
    path.write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    for n, sec in zip(report.sizes, report.seconds):
        print(f"n={n}: {sec:.3f}s")
    print(f"log-log slope: {report.slope:.3f} (wrote {path})")
    return 0


def _positive_int(text: str) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _sizes(text: str) -> list[int]:
    try:
        sizes = [_positive_int(s) for s in text.split(",")]
        if len(set(sizes)) >= 2:
            return sizes
    except argparse.ArgumentTypeError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected comma-separated positive node counts, at least two distinct, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphmia",
        description="Membership-inference audits of multi-domain graph pre-trained encoders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=str, default=None, help="flat key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", type=str, default="runs", help="output directory")

    p = sub.add_parser("pretrain", help="pre-train and checkpoint the victim")
    common(p)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("attack", help="run the full similarity attack pipeline")
    common(p)
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("baseline", help="run one baseline attack")
    p.add_argument("--name", required=True, choices=list(KINDS))
    common(p)
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("ablate", help="run an ablated variant of the attack")
    p.add_argument("--variant", required=True, choices=[VARIANT_WO_UL, VARIANT_WO_IL])
    common(p)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("diagnose", help="pre-attack diagnostics")
    p.add_argument("probe", choices=["pca", "robustness"])
    p.add_argument("--trials", type=_positive_int, default=5)
    common(p)
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser("evaluate", help="aggregate previously written reports")
    common(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("scaling", help="check how attack wall time scales with n")
    p.add_argument("--sizes", type=_sizes, default="500,1000,2000,4000",
                   help="comma-separated node counts")
    common(p)
    p.set_defaults(fn=cmd_scaling)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
