"""Command line harness: ``campaign``, ``search``, and ``eval``.

Exit codes: 0 = ran and every result held; 2 = ran and found a violation
or an indeterminate (non-finite) result, among a campaign's reports, in a
search's best report or in an eval's report; 1 = error (bad config,
unreadable matrix file, ...).
"""

import argparse
import functools
import json
import math
import sys

from .campaign import (
    CampaignConfig,
    ReportStream,
    _campaign_chunks,
    _grid_point,
    _merged,
    render_reports,
    run_check,
    search_counterexample,
    write_output,
)
from .errors import MatSharpError
from .linalg import load_matrix


def _load_config(args):
    obj = {}
    if args.config:
        try:
            with open(args.config) as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise MatSharpError(f"cannot read config {args.config!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise MatSharpError(f"config {args.config!r} is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise MatSharpError(f"config {args.config!r} is not a JSON object")
    # Flags override file values.
    flags = {"root-seed": args.seed, "trials": args.trials,
             "dims": None if args.dim is None else [args.dim], "output-path": args.out,
             "output-format": args.format, "printed-form": args.printed_form}
    obj.update((key, value) for key, value in flags.items() if value is not None)
    return CampaignConfig.from_obj(obj)


def _add_common_flags(parser):
    parser.add_argument("--config", help="campaign config JSON file")
    parser.add_argument("--seed", type=int, help="override root-seed")
    parser.add_argument("--trials", type=int, help="override trials")
    parser.add_argument("--dim", type=int, help="override dims with a single dimension")
    parser.add_argument("--out", help="override output-path")
    parser.add_argument("--format", choices=("json", "csv"), help="override output-format")
    parser.add_argument("--printed-form", action=argparse.BooleanOptionalAction,
                        default=None, help="override printed-form")


def _chunk_texts(config, parts):
    """The campaign's text, one chunk at a time, each rendered as it comes;
    each chunk's summary joins ``parts``."""
    for blocks, trials, summary in _campaign_chunks(config):
        parts.append(summary)
        text = render_reports(ReportStream([blocks], trials, config.grid_size()),
                              config.output_format)
        # Drop the chunk before the next one is drawn: one chunk at a time.
        del blocks
        yield text


def _cmd_campaign(args):
    config = _load_config(args)
    parts = []
    if config.output_path:
        write_output(config.output_path, _chunk_texts(config, parts))
    else:
        sys.stdout.writelines(_chunk_texts(config, parts))
    summary = _merged(parts)
    print(summary.to_json(), file=sys.stdout if config.output_path else sys.stderr)
    return 2 if summary.violated or summary.indeterminate else 0


def _cmd_search(args):
    config = _load_config(args)
    report = search_counterexample(config, args.steps)
    text = report.to_json()
    if config.output_path:
        write_output(config.output_path, text + "\n")
        print(json.dumps({"best-margin": report.best_margin,
                          "violation-found": report.violation_found,
                          "output-path": config.output_path}))
    else:
        print(text)
    # As for a campaign, a best report that is not finite also exits 2.
    return 2 if report.violation_found or not math.isfinite(report.best_margin) else 0


def _cmd_eval(args):
    a_list, b_list = [], []
    for matrices, path in [(a_list, p) for p in args.a] + [(b_list, p) for p in args.b or ()]:
        try:
            matrices.append(load_matrix(path))
        except (OSError, ValueError) as exc:
            raise MatSharpError(f"cannot read matrix file {path!r}: {exc}") from exc
    config = CampaignConfig(
        inequality_id=args.inequality,
        trials=1,
        dims=[a_list[0].shape[0]],
        m_values=[len(a_list)],
        t_grid=[args.t],
        r_grid=[args.r],
        s_grid=[args.s],
        norm_specs=[args.norm],
        printed_form=bool(args.printed_form) if args.printed_form is not None else True,
        functions=[args.function] if args.function else (),
        direction=args.direction,
        ensemble=None if args.epsilon_scale is None else {"epsilon-scale": args.epsilon_scale},
    )
    report = run_check(config, _grid_point(config), a_list, b_list)
    print(report.to_json())
    return 0 if report.holds else 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matsharp",
        description="Verify matrix-mean norm inequalities on randomized campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_campaign = sub.add_parser("campaign", help="run a randomized campaign from a config")
    _add_common_flags(p_campaign)
    p_campaign.set_defaults(func=_cmd_campaign)

    p_search = sub.add_parser("search", help="hill-descent counterexample search")
    _add_common_flags(p_search)
    p_search.add_argument("--steps", type=int, default=10000,
                          help="C = min(16, steps) chains, each evaluated ceil(steps / C) + 1 "
                          "times: 64 evaluations for 40 steps")
    p_search.set_defaults(func=_cmd_search)

    p_eval = sub.add_parser("eval", help="evaluate one instance from matrix JSON files")
    p_eval.add_argument("--inequality", required=True,
                        help="audenaert | bourin_uchiyama | lemma_chain | main_theorem | proof_steps")
    p_eval.add_argument("--a", action="append", required=True, metavar="FILE",
                        help="A-side matrix file (repeatable)")
    p_eval.add_argument("--b", action="append", metavar="FILE",
                        help="B-side matrix file (repeatable)")
    p_eval.add_argument("--t", type=float, default=0.5)
    p_eval.add_argument("--r", type=float, default=2.0)
    p_eval.add_argument("--s", type=float, default=1.0)
    p_eval.add_argument("--norm", default="schatten:2")
    p_eval.add_argument("--function", help="function id for bourin_uchiyama")
    p_eval.add_argument("--direction", choices=("convex", "concave"))
    p_eval.add_argument("--printed-form", action=argparse.BooleanOptionalAction, default=None)
    p_eval.add_argument("--epsilon-scale", type=float,
                        help="regularized-mean scale for PSD inputs")
    p_eval.set_defaults(func=_cmd_eval)
    return parser


# One parser serves every call of ``main`` in a process: each parse fills a
# new namespace from the parser's defaults, so no call sees another's flags.
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (MatSharpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
