"""Command-line front end for the detection post-processing pipeline.

Subcommands mirror the pipeline stages: ``pipeline`` runs proposals
through to a submission JSON, ``fuse`` and ``nms`` expose the fusion and
suppression stages on their own, ``eval`` scores a submission, ``simulate``
runs the seeded fusion comparison, and ``windows`` prints sliding-window
placements. Exit codes: 0 success, 1 usage, parse or validation error, 2
internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import PipelineConfig, parse_config
from .errors import ParseError, PipelineError
from .fusion import FUSION_MODES, fuse_proposals
from .io import (
    read_ground_truth,
    read_proposal_file,
    read_submission,
    serialize_submission,
)
from .pipeline import (
    evaluate_files,
    format_metrics_keyvalues,
    format_metrics_table,
    run_pipeline,
    stack_records,
    suppress_submission,
)
from .simulation import compare_fusion, generate_scenario
from .suppression import NMS_PRESETS
from .timeline import generate_windows


# each value-setting flag's dest, and the configuration key it overrides
_FLAG_KEYS = {"fusion_mode": "fusion_mode", "nms_preset": "nms_preset", "seed": "sim_seed",
              "max_len": "window_length", "overlap": "window_overlap"}


def _load_config(args) -> PipelineConfig:
    overrides = {key: value for dest, key in _FLAG_KEYS.items()
                 if (value := getattr(args, dest, None)) is not None}
    return parse_config(args.config, overrides)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_pipeline(args) -> int:
    cfg = _load_config(args)
    records = read_proposal_file(args.proposals, cfg.vocab())
    doc = run_pipeline(records, cfg)
    _emit(serialize_submission(doc), args.output)
    return 0


def cmd_fuse(args) -> int:
    cfg = _load_config(args)
    records = read_proposal_file(args.proposals, cfg.vocab())
    lines = ["# video_id fused_start fused_end"]
    # fusion is row-wise, so all records fuse at once, in file order
    if records:
        start, end = fuse_proposals(*stack_records(records), cfg.fusion_mode, cfg.epsilon)
        for record, fused_start, fused_end in zip(records, start.tolist(), end.tolist()):
            if fused_start >= fused_end:
                raise ParseError(
                    f"fused boundary ({fused_start}, {fused_end}) of video "
                    f"{record.video_id!r} at window start {record.window_start} "
                    "is empty or inverted"
                )
            lines.append(f"{record.video_id} {fused_start:.4f} {fused_end:.4f}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_nms(args) -> int:
    cfg = _load_config(args)
    doc = read_submission(args.input, cfg.vocab())
    doc = suppress_submission(doc.results, cfg.nms_config(), doc.version)
    _emit(serialize_submission(doc), args.output)
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    doc = read_submission(args.submission, cfg.vocab())
    truth = read_ground_truth(args.ground_truth, cfg.vocab())
    results = evaluate_files(doc, truth, cfg.eval_thresholds)
    text = format_metrics_table(results) + "\n\n" + format_metrics_keyvalues(results) + "\n"
    _emit(text, args.output)
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    scenario = generate_scenario(cfg.scenario())
    report = compare_fusion(scenario, cfg.epsilon)
    pairs = [("seed", cfg.sim_seed)] + report.key_values()
    lines = [f"{key} = {value:.6g}" if isinstance(value, float) else f"{key} = {value}"
             for key, value in pairs]
    _emit("\n".join(lines) + "\n", args.output)
    if args.table:
        with open(args.table, "w", encoding="utf-8") as handle:
            handle.write("# segment err_dwf err_mean\n")
            for i in range(report.num_segments):
                handle.write(
                    f"{i} {report.per_segment_dwf[i]:.6f} {report.per_segment_mean[i]:.6f}\n"
                )
    return 0


def cmd_windows(args) -> int:
    cfg = _load_config(args)
    windows = generate_windows(args.total_features, cfg.window_length, cfg.window_overlap)
    lines = [f"{w.start_feature} {w.length_features}" for w in windows]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tadfusion",
        description="Two-stream temporal action detection post-processing",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fusion_mode=False, nms_preset=False):
        p.add_argument("--config", help="key = value configuration file")
        if fusion_mode:
            p.add_argument("--fusion-mode", choices=FUSION_MODES, dest="fusion_mode")
        if nms_preset:
            p.add_argument("--nms-preset", choices=sorted(NMS_PRESETS), dest="nms_preset")
        p.add_argument("--output", help="write output here instead of stdout")

    p = sub.add_parser("pipeline", help="proposals -> submission JSON")
    p.add_argument("--proposals", required=True)
    add_common(p, fusion_mode=True, nms_preset=True)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("fuse", help="fuse aligned boundaries only")
    p.add_argument("--proposals", required=True)
    add_common(p, fusion_mode=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("nms", help="re-suppress an existing submission")
    p.add_argument("--input", required=True, help="submission JSON to suppress")
    add_common(p, nms_preset=True)
    p.set_defaults(func=cmd_nms)

    p = sub.add_parser("eval", help="score a submission against ground truth")
    p.add_argument("--submission", required=True)
    p.add_argument("--ground-truth", required=True, dest="ground_truth")
    add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="seeded fusion error comparison")
    add_common(p)
    p.add_argument("--seed", type=int, help="override the simulation seed")
    p.add_argument("--table", help="write per-segment errors to this file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("windows", help="print sliding-window placements")
    p.add_argument("--total-features", type=int, required=True, dest="total_features")
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--overlap", type=float)
    add_common(p)
    p.set_defaults(func=cmd_windows)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error exits 1, not argparse's 2
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (OSError, PipelineError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
