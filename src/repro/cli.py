"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``train``     train one (dataset, model, method) cell and print/save metrics
``compare``   train several methods on one workload and print a comparison
``partition`` show the client label distribution of a partition (Fig. 4)
``profile``   print Table II/III-style dataset & model statistics
``theory``    evaluate the Theorem 1 quantities for given hyperparameters

Every training command builds one :class:`~repro.api.spec.ExperimentSpec`
from its flags and hands it to :func:`~repro.api.engine.run_experiment` —
the CLI owns no run-construction logic of its own.  Client sampling is
pluggable via ``--sampler`` (see :mod:`repro.api.registry`), e.g.::

    python -m repro train --method fedtrip --sampler dropout \
        --sampler-arg dropout=0.2 --target-accuracy 85
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import Any, Dict, List, Optional, get_args, get_type_hints

from repro.analysis import compare_fedprox_fedtrip, expected_xi
from repro.api import ExperimentSpec, run_experiment
from repro.data import available_datasets, get_spec, heterogeneity_summary
from repro.io import save_history
from repro.models import available_models, build_model, profile_model

__all__ = ["main", "build_parser", "add_spec_arguments", "spec_from_args"]

#: where the CLI's defaults differ from the library's (the CLI favours the
#: paper's CNN runs; ``ExperimentSpec()`` the fast MLP cell tests use).
_CLI_DEFAULTS = {"model": "cnn", "rounds": 30, "lr": 0.03}


def _flags(f) -> List[str]:
    """Option strings of one spec field, per its ``cli`` metadata."""
    cli = f.metadata["cli"]
    if cli is True:
        stem = f.name[:-len("_kwargs")] + "_arg" if f.metadata["kv"] else f.name
        return ["--" + stem.replace("_", "-")]
    return list(cli)


def add_spec_arguments(parser: argparse.ArgumentParser, exclude=()) -> None:
    """One flag per CLI-exposed :class:`ExperimentSpec` field, derived from
    the field's declaration (name, type, default, ``_knob`` metadata).

    ``exclude`` names fields a command fills in itself."""
    hints = get_type_hints(ExperimentSpec)
    for f in fields(ExperimentSpec):
        meta = f.metadata
        if not meta["cli"] or f.name in exclude:
            continue
        kwargs: Dict[str, Any] = {
            "dest": f.name, "help": meta["help"].replace("%", "%%"),
        }
        if meta["kv"]:
            kwargs.update(action="append", default=[], metavar="KEY=VALUE")
        else:
            choices = meta["choices"]
            kwargs.update(
                # Optional[T] and plain T both parse as T.
                type=(get_args(hints[f.name]) or (hints[f.name],))[0],
                default=_CLI_DEFAULTS.get(f.name, f.default),
                choices=choices() if callable(choices) else choices,
                metavar=meta["metavar"],
            )
        parser.add_argument(*_flags(f), **kwargs)


def _parse_value(text: str) -> Any:
    """KEY=VALUE values: JSON first (numbers, lists, booleans), else string."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _parse_kv(pairs: List[str]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"expected KEY=VALUE, got {pair!r}")
        out[key] = _parse_value(value)
    return out


def spec_from_args(args: argparse.Namespace, **fixed: Any) -> ExperimentSpec:
    """The spec a parsed flag line describes; ``fixed`` are spec fields the
    command sets itself rather than reading from a flag."""
    kwargs = {
        f.name: _parse_kv(getattr(args, f.name)) if f.metadata["kv"]
        else getattr(args, f.name)
        for f in fields(ExperimentSpec) if hasattr(args, f.name)
    }
    return ExperimentSpec(**{**kwargs, **fixed})


def cmd_train(args) -> int:
    spec = spec_from_args(
        args, overrides={} if args.mu is None else {"mu": args.mu}
    )
    callbacks = []
    if args.checkpoint_dir:
        from repro.api.callbacks import Checkpointer

        callbacks.append(
            Checkpointer(
                args.checkpoint_dir,
                every=args.checkpoint_every,
                engine_state=True,
            )
        )
    hist = run_experiment(spec, callbacks=callbacks, resume_from=args.resume_from)
    print(f"method={spec.method} dataset={spec.dataset} model={spec.model} "
          f"sampler={spec.sampler}")
    if spec.aggregator != "mean" or spec.adversary is not None:
        print(f"aggregator={spec.aggregator} adversary={spec.adversary} "
              f"fraction={spec.adversary_fraction}")
    if hist.stop_reason:
        print(f"stopped early after {len(hist)} rounds: {hist.stop_reason}")
    print(f"best accuracy : {hist.best_accuracy():.2f}%")
    if args.target is not None:
        print(f"rounds to {args.target}%: {hist.rounds_to_accuracy(args.target)}")
    print(f"total GFLOPs  : {hist.total_gflops():.3f}")
    print(f"total comm MB : {hist.total_comm_mb():.2f}")
    skipped = hist.skipped_rounds()
    dropped = hist.dropped_client_ids()
    screened = hist.screened_client_ids()
    if skipped or dropped or screened:
        print(f"agg health    : {skipped} skipped round(s), "
              f"{len(dropped)} dropped, {len(screened)} screened update(s)")
    failed = hist.failed_client_ids()
    retried = hist.retried_client_ids()
    if failed or retried:
        print(f"fault policy  : {len(retried)} retry dispatch(es), "
              f"{len(failed)} terminal task failure(s)")
    simulated = [r.virtual_time_s for r in hist.records if r.virtual_time_s is not None]
    if simulated:
        print(f"simulated time: {simulated[-1] / 3600.0:.3f} h "
              f"(mode={spec.mode}, profile={spec.device_profile or 'wifi'})")
    if args.trace:
        print(f"span trace written to {args.trace}")
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    if args.out:
        save_history(hist, args.out)
        print(f"history saved to {args.out}")
    return 0


def cmd_compare(args) -> int:
    rows = []
    for method in args.methods:
        hist = run_experiment(spec_from_args(args, method=method))
        r = hist.rounds_to_accuracy(args.target) if args.target else None
        rows.append((method, hist.best_accuracy(),
                     hist.final_accuracy_stats(last_k=5)["mean"],
                     r, hist.total_gflops()))
        print(f"done {method}")
    print(f"\n{'method':>10} {'best %':>8} {'final5 %':>9} {'rounds':>7} {'GFLOPs':>9}")
    for method, best, final, r, gf in sorted(rows, key=lambda x: -x[2]):
        print(f"{method:>10} {best:>8.2f} {final:>9.2f} "
              f"{str(r) if r is not None else '-':>7} {gf:>9.3f}")
    return 0


def cmd_partition(args) -> int:
    spec = spec_from_args(args, method="fedavg")
    counts = spec.build_data().label_counts()
    print(f"{spec.partition} partition of {spec.dataset} over {spec.n_clients} clients")
    for k, row in enumerate(counts):
        print(f"  client {k:>2}: {row.tolist()}")
    print(json.dumps(heterogeneity_summary(counts), indent=2))
    return 0


def cmd_profile(args) -> int:
    from repro.models import format_layer_summary

    spec = get_spec(args.dataset)
    print("dataset:", json.dumps(spec.table2_row(), indent=2))
    model = build_model(args.model, spec.input_shape, spec.num_classes)
    print("model:", json.dumps(profile_model(model).table3_row(), indent=2))
    print()
    print(format_layer_summary(model))
    return 0


def cmd_theory(args) -> int:
    cmp = compare_fedprox_fedtrip(mu=args.mu, L=args.L, B=args.B,
                                  participation_rate=args.p)
    print(json.dumps(cmp.summary(), indent=2))
    print(f"E[xi]({args.p}) = {expected_xi(args.p):.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Fields only ``train`` takes from the flag line: ``compare`` loops over
    # --methods, and neither it nor ``partition`` stops early.
    train_only = ("method", "target_accuracy")

    p = sub.add_parser("train", help="train one method")
    add_spec_arguments(p)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--target", type=float, default=None,
                   help="report rounds-to-target-accuracy (no early stop)")
    p.add_argument("--out", default=None, help="save history JSON here")
    p.add_argument("--checkpoint-dir", default=None, dest="checkpoint_dir",
                   help="write model checkpoints plus a crash-safe engine "
                        "snapshot (latest.ckpt) into this directory")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   dest="checkpoint_every",
                   help="checkpoint every N rounds (default: only at the end)")
    p.add_argument("--resume-from", default=None, dest="resume_from",
                   metavar="SNAPSHOT",
                   help="resume from an engine snapshot (latest.ckpt); the "
                        "spec must describe the same experiment cell")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="train several methods")
    add_spec_arguments(p, exclude=train_only)
    p.add_argument("--methods", nargs="+",
                   default=["fedtrip", "fedavg", "fedprox", "moon"])
    p.add_argument("--target", type=float, default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("partition", help="inspect a client partition")
    add_spec_arguments(p, exclude=train_only)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("profile", help="dataset/model statistics")
    p.add_argument("--dataset", default="mnist", choices=available_datasets())
    p.add_argument("--model", default="cnn", choices=available_models())
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("theory", help="Theorem 1 quantities")
    p.add_argument("--mu", type=float, default=6.0)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--p", type=float, default=0.4)
    p.set_defaults(func=cmd_theory)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
