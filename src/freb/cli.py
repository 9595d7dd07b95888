"""Command-line interface.

Subcommands: perturb (write perturbed dataset files), classify (label
questions as extraction vs reasoning), evaluate (run the perturb-predict-
score pipeline), report (render a saved report), toydata (write the built-in
synthetic datasets).  Exit codes: 0 success, 1 configuration error, 2 data
error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .backends import HttpBackend, SubprocessBackend, parse_backend
from .classify import ComparativeLexicon, classify_combined, classify_rule_based
from .core import EQ, RQ, UNKNOWN
from .errors import BackendError, ConfigError, DatasetError
from .ingest import (
    PositionalWordList,
    check_output_dir,
    filter_positional_questions,
    instance_to_record,
    load_dataset,
    read_json,
    write_records,
    write_text,
)
from .perturb import iter_conditions
from .pipeline import (
    CONFIG_CASTS,
    build_run_config,
    check_timeout_retries,
    parse_kinds,
    parse_seeds,
    read_config_values,
    render_report_text,
    report_to_json,
    run_pipeline,
)
from .toydata import build_sorted_dataset, build_toy_dataset


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through
    # ConfigError so bad flags are exit code 1 and bad data stays 2.
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="freb",
        description="Build robustness benchmarks from table-QA datasets and score models on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("perturb", parents=[], help="write perturbed copies of a dataset")
    p.add_argument("--in", dest="input", required=True, help="input dataset (JSONL)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--kinds", required=True, help="comma-separated kinds or groups (all/structure/relevance/value)")
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated integer seeds")

    c = sub.add_parser("classify", help="label questions as extraction (EQ) or reasoning (RQ)")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--lexicon", help="JSON file overriding the comparative lexicon")
    c.add_argument("--secondary", help="subprocess:<cmd> or http(s):<url> that must confirm EQ labels")
    c.add_argument("--timeout", type=float, default=30.0)
    c.add_argument("--retries", type=int, default=0)
    c.add_argument("--positional-words", help="file with one positional word per line")
    c.add_argument("--drop-positional", action="store_true", help="drop questions containing positional words")

    e = sub.add_parser("evaluate", help="run perturb -> predict -> score and write a report")
    e.add_argument("--config", help="key = value config file")
    # One flag per config key, kept as text: build_run_config casts it.
    helps = {"backend": "reference:<model>, file:<dir>, subprocess:<cmd>, or http:<url>"}
    for key in CONFIG_CASTS:
        e.add_argument("--" + key.replace("_", "-"), dest=key, help=helps.get(key))
    e.add_argument("--out", help="report JSON path (stdout when omitted)")
    e.add_argument("--text", action="store_true", help="also print the text rendering")

    r = sub.add_parser("report", help="render a saved report JSON as text")
    r.add_argument("--in", dest="input", required=True)
    r.add_argument("--out", help="text output path (stdout when omitted)")

    t = sub.add_parser("toydata", help="write a built-in synthetic dataset")
    t.add_argument("--out", required=True)
    t.add_argument("--variant", choices=["main", "sorted"], default="main")
    return parser


def _cmd_perturb(args) -> int:
    instances = load_dataset(args.input)
    kinds = parse_kinds(args.kinds)
    seeds = parse_seeds(args.seeds)
    outdir = Path(args.out)
    skipped: list[dict] = []
    for condition in iter_conditions(instances, kinds, seeds):
        kind, seed = condition.kind.lower(), condition.seed
        records = []
        for perturbed, rec in condition.perturbed:
            record = instance_to_record(perturbed)
            record["provenance"] = {
                "kind": kind,
                "global_seed": seed,
                "derived_seed": rec.seed,
                "source_id": rec.source_id,
                "params": rec.params,
            }
            records.append(record)
        path = outdir / f"{kind}.seed{seed}.jsonl"
        write_records(records, path)
        print(f"{path}: {len(records)} instances")
        # Keys in the order id, kind, seed, reason, detail.
        skipped.extend({"id": s["id"], "kind": kind, "seed": seed, **s} for s in condition.skipped)
    if skipped:
        write_records(skipped, outdir / "skipped.jsonl")
        print(f"{outdir / 'skipped.jsonl'}: {len(skipped)} skipped")
    return 0


def _cmd_classify(args) -> int:
    if args.positional_words and not args.drop_positional:
        raise ConfigError("--positional-words needs --drop-positional")
    check_timeout_retries(args.timeout, args.retries)
    secondary = None
    if args.secondary is not None:
        secondary = parse_backend(
            args.secondary, timeout=args.timeout, retries=args.retries, reply_key="label"
        )
        if not isinstance(secondary, (SubprocessBackend, HttpBackend)):
            raise ConfigError(
                f"--secondary must be subprocess:<cmd> or http(s):<url>, not {args.secondary!r}"
            )
    instances = load_dataset(args.input)
    lexicon = ComparativeLexicon.from_file(args.lexicon) if args.lexicon else ComparativeLexicon()

    dropped = []
    if args.drop_positional:
        words = (
            PositionalWordList.from_file(args.positional_words)
            if args.positional_words
            else PositionalWordList()
        )
        instances, dropped = filter_positional_questions(instances, words)

    counts = {EQ: 0, RQ: 0, UNKNOWN: 0}
    records = []
    for inst in instances:
        if secondary is not None:
            try:
                label = classify_combined(inst, lexicon, secondary.ask)
            except BackendError as exc:
                label = UNKNOWN
                reason = " ".join(str(exc).split())  # one line, whatever the secondary wrote
                print(f"{inst.id}: {reason}", file=sys.stderr)
        else:
            label = classify_rule_based(inst, lexicon)
        counts[label] += 1
        record = instance_to_record(inst)
        record["question_type"] = label
        records.append(record)
    write_records(records, args.out)
    print(
        f"{args.out}: {counts[EQ]} EQ, {counts[RQ]} RQ, {counts[UNKNOWN]} unknown"
        + (f", {len(dropped)} dropped as positional" if args.drop_positional else "")
    )
    return 0


def _cmd_evaluate(args) -> int:
    values = read_config_values(args.config) if args.config else {}
    # A flag that is left out (or empty) keeps the config file's value.
    values.update((key, getattr(args, key)) for key in CONFIG_CASTS if getattr(args, key))
    config = build_run_config(values)
    if args.out:
        check_output_dir(args.out)

    report = run_pipeline(config)
    text = report_to_json(report)
    if args.out:
        write_text(args.out, text)
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(text)
    if args.text:
        print(render_report_text(report))
    return 0


def _cmd_report(args) -> int:
    report = read_json(args.input, "report file")
    try:
        text = render_report_text(report)
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"{args.input}: not a report produced by 'freb evaluate' ({exc})") from exc
    if args.out:
        write_text(args.out, text + "\n")
    else:
        print(text)
    return 0


def _cmd_toydata(args) -> int:
    instances = build_sorted_dataset() if args.variant == "sorted" else build_toy_dataset()
    write_records([instance_to_record(i) for i in instances], args.out)
    print(f"{args.out}: {len(instances)} instances")
    return 0


_HANDLERS = {
    "perturb": _cmd_perturb,
    "classify": _cmd_classify,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
    "toydata": _cmd_toydata,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DatasetError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
