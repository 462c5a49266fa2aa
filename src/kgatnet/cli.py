"""Command line entry point: one subcommand per pipeline stage.

Exit codes: 0 success, or the `exit_code` of the `KgatnetError` raised:
2 config, 3 stage input, 4 network, 5 divergence, 6 a training process died.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .errors import KgatnetError
from .pipeline import STAGES, load_config, run_stage

log = logging.getLogger("kgatnet")


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgatnet",
        description="Knowledge-graph attention classifier over essay corpora, "
        "run as cacheable pipeline stages.",
    )
    parser.add_argument("stage", choices=STAGES + ("run-all",),
                        help="pipeline stage to run")
    parser.add_argument("--config", required=True, metavar="FILE",
                        help="key = value config file")
    parser.add_argument("--enriched", action="store_true",
                        help="append graph embeddings to the classifier input")
    parser.add_argument("--force", action="store_true",
                        help="recompute outputs that already exist")
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="parallel processes for training the (fold, trait) classifiers")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed everywhere")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.enriched:
        overrides["enriched"] = "true"
    try:
        cfg = load_config(args.config, overrides)
        run_stage(args.stage, cfg, force=args.force, jobs=args.jobs)
    except KgatnetError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
