"""Command-line front end for the detection post-processing pipeline.

Subcommands mirror the pipeline stages: ``pipeline`` runs proposals
through to a submission JSON, ``fuse`` and ``nms`` expose the fusion and
suppression stages on their own, ``eval`` scores a submission, ``simulate``
runs the seeded fusion comparison, and ``windows`` prints sliding-window
placements. Each ``cmd_*`` takes the parsed flags and configuration and
returns its whole output, which ``main`` writes. A flag that sets a
configuration value is stored under that key, and its text is read as
the file value of that key would be, so its errors name the key. ``main``
may be called repeatedly in one process: it builds the parser on its
first call and only parses on later ones. Exit codes: 0 success, 1 usage,
parse or validation error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import sys

# io.parse_number is called through the module: perfbench's tracer counts a
# function imported by name as an entry into its layer
from . import __version__, io
from .config import PipelineConfig, parse_config
from .errors import ParseError, PipelineError
from .fusion import FUSION_MODES, first_empty, fuse_proposals
from .io import (
    build_submission,
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
)
from .simulation import compare_fusion, generate_scenario
from .suppression import NMS_PRESETS, suppress_video
from .timeline import generate_windows


def cmd_pipeline(args, cfg: PipelineConfig) -> str:
    proposals = read_proposal_file(args.proposals, cfg.vocab())
    return serialize_submission(run_pipeline(proposals, cfg))


def cmd_fuse(args, cfg: PipelineConfig) -> str:
    proposals = read_proposal_file(args.proposals, cfg.vocab())
    # fusion is row-wise, so all rows fuse at once, in file order
    start, end = fuse_proposals(proposals, cfg.fusion_mode, cfg.epsilon)
    if (i := first_empty(start, end)) is not None:
        raise ParseError(
            f"fused boundary ({start[i]}, {end[i]}) of video {proposals.video_ids[i]!r} "
            f"at window start {proposals.window_starts[i]} is empty or inverted"
        )
    lines = ["# video_id fused_start fused_end"]
    lines += [f"{video_id} {fused_start:.4f} {fused_end:.4f}" for video_id, fused_start, fused_end
              in zip(proposals.video_ids, start.tolist(), end.tolist())]
    return "\n".join(lines) + "\n"


def cmd_nms(args, cfg: PipelineConfig) -> str:
    doc = read_submission(args.input, cfg.vocab())
    doc = build_submission(doc.video_ids, suppress_video(doc.rows, cfg.nms_config()), doc.version)
    return serialize_submission(doc)


def cmd_eval(args, cfg: PipelineConfig) -> str:
    doc = read_submission(args.submission, cfg.vocab())
    truth = read_ground_truth(args.ground_truth, cfg.vocab())
    results = evaluate_files(doc, truth, cfg.eval_thresholds)
    return format_metrics_table(results) + "\n\n" + format_metrics_keyvalues(results) + "\n"


def cmd_simulate(args, cfg: PipelineConfig) -> str:
    scenario = generate_scenario(cfg.scenario())
    report = compare_fusion(scenario, cfg.epsilon)
    if args.table:  # written before the report, which main writes
        rows = enumerate(zip(report.per_segment_dwf.tolist(), report.per_segment_mean.tolist()))
        with open(args.table, "w", encoding="utf-8") as handle:
            handle.write("# segment err_dwf err_mean\n"
                         + "".join(f"{i} {dwf:.6f} {mean:.6f}\n" for i, (dwf, mean) in rows))
    pairs = [("seed", cfg.sim_seed)] + report.key_values()
    lines = [f"{key} = {value:.6g}" if isinstance(value, float) else f"{key} = {value}"
             for key, value in pairs]
    return "\n".join(lines) + "\n"


def cmd_windows(args, cfg: PipelineConfig) -> str:
    total = io.parse_number("int", args.total_features, key="total_features")
    windows = generate_windows(total, cfg.window_length, cfg.window_overlap)
    lines = [f"{w.start_feature} {w.length_features}" for w in windows]
    return "\n".join(lines) + "\n"


@functools.cache  # built on the first call; each later main only parses
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

    p = sub.add_parser("fuse", help="fuse aligned boundaries only")
    p.add_argument("--proposals", required=True)
    add_common(p, fusion_mode=True)

    p = sub.add_parser("nms", help="re-suppress an existing submission")
    p.add_argument("--input", required=True, help="submission JSON to suppress")
    add_common(p, nms_preset=True)

    p = sub.add_parser("eval", help="score a submission against ground truth")
    p.add_argument("--submission", required=True)
    p.add_argument("--ground-truth", required=True, dest="ground_truth")
    add_common(p)

    p = sub.add_parser("simulate", help="seeded fusion error comparison")
    add_common(p)
    p.add_argument("--seed", dest="sim_seed", help="override the simulation seed")
    p.add_argument("--table", help="write per-segment errors to this file")

    p = sub.add_parser("windows", help="print sliding-window placements")
    p.add_argument("--total-features", required=True, dest="total_features")
    p.add_argument("--max-len", dest="window_length")
    p.add_argument("--overlap", dest="window_overlap")
    add_common(p)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error exits 1, not argparse's 2
        return 1 if exc.code else 0
    command = {"pipeline": cmd_pipeline, "fuse": cmd_fuse, "nms": cmd_nms, "eval": cmd_eval,
               "simulate": cmd_simulate, "windows": cmd_windows}[args.command]
    try:
        # a command returns its whole output, written only once it succeeded
        text = command(args, parse_config(args.config, vars(args)))
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except (OSError, PipelineError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
