"""Command-line surface: plan, sweep, arrange, check.

Exit codes are a stable contract: 0 success, 1 usage or config error,
2 the stage has findings (plan, each on stderr), 3 self-check failure.
Output is deterministic for a given config and seed; ``SFT_NO_COLOR=1``
disables ANSI styling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import budget, config as cfgmod
from .errors import ConfigError
from .geometry import PatchGrid, as_count
from .projector import plan_layout, project_video  # project_video: bench/ traces cli.project_video

_GREEN = "\033[32m"
_RED = "\033[31m"
_RESET = "\033[0m"


def _color_enabled() -> bool:
    if os.environ.get("SFT_NO_COLOR") == "1":
        return False
    return sys.stdout.isatty()


def _style(text: str, code: str) -> str:
    if _color_enabled():
        return f"{code}{text}{_RESET}"
    return text


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems map to exit code 1, not argparse's 2
        raise ConfigError(message)


class _NonNegative(argparse.Action):
    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise argparse.ArgumentError(self, f"must be non-negative, got {value}")
        setattr(namespace, self.dest, value)


# Each option's settings; a command registers only the options it reads.
_OPTIONS = {
    "--config": {"metavar": "PATH", "help": "config file (path or bundled name)"},
    "--set": {"metavar": "KEY=VALUE", "action": "append", "dest": "overrides", "default": [],
              "help": "override a config key (repeatable)"},
    "--format": {"choices": ("json", "csv", "text"), "help": "output format"},
    "--out": {"metavar": "PATH", "help": "write output to a file instead of stdout"},
    "--seed": {"type": int, "action": _NonNegative, "default": 42,
               "help": "seed for the self-check inputs"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sft", description="Video token budget planning and self-checks.")
    sub = parser.add_subparsers(dest="command")
    # Each command's --set keys: all build the stage, pathway and rows; arrange budgets nothing.
    built = cfgmod.STAGE_KEYS | cfgmod.PATHWAY_KEYS | {"sweep", "sweep_grid"}
    for name, handler, doc, options, keys in (
        ("plan", _cmd_plan, "compute one token budget and report context fit",
         ("--config", "--set", "--format", "--out"), built | {"text_allowance"}),
        ("sweep", _cmd_sweep, "compute budgets for every config row",
         ("--config", "--set", "--format", "--out"), built | {"text_allowance"}),
        ("arrange", _cmd_arrange, "emit the token layout for one config, planned without features",
         ("--config", "--set", "--out"), built - {"context_length"} | {"grid_rows", "grid_cols"}),
        ("check", _cmd_check, "run kernel oracles and golden sweep checks",
         ("--seed", "--out"), ()),
    ):
        p = sub.add_parser(name, help=doc)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(handler=handler, keys=keys)
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        from pathlib import Path  # only --out writes a file

        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _fit_word(report: budget.BudgetReport) -> str:
    if report.fits_context:
        return _style("fits", _GREEN)
    return _style("overflow", _RED)


def _plan_text(report: budget.BudgetReport) -> str:
    lines = [
        f"slow tokens       {report.slow_tokens}",
        f"fast tokens       {report.fast_tokens}",
        f"separators        {report.separator_tokens}",
        f"content tokens    {report.content_tokens} ({report.rounded_label})",
        f"total tokens      {report.total_tokens}",
        f"text allowance    {report.text_allowance}",
        f"context {report.context_length}:  {_fit_word(report)}",
    ]
    return "\n".join(lines)


def _load(args) -> tuple:
    """Load the document and build its stage, base pathway and sweep rows.

    Every command builds all of them, so a bad value fails the same in each.
    A ``--set`` key the command does not read is refused; a config file's are not.
    """
    doc = cfgmod.load_config(args.config, args.overrides)
    for key in (item.partition("=")[0] for item in args.overrides):
        if key not in args.keys:
            raise ConfigError(f"{args.command} does not read {key}")
    stage = cfgmod.stage_from_config(doc)
    pathway = cfgmod.pathway_from_config(doc, stage)
    configs, labels = cfgmod.sweep_configs(doc, pathway)
    return doc, stage, pathway, configs, labels


def _cmd_plan(args) -> int:
    doc, stage, pathway, _, _ = _load(args)
    allowance = doc.get("text_allowance", budget.DEFAULT_TEXT_ALLOWANCE)
    findings = budget.validate_stage(stage, pathway, allowance)
    fmt = args.format or "json"

    if stage.has_video:
        report = budget.video_budget(pathway, budget.stage_video_grid(stage), stage, allowance)
    else:
        report = budget.worst_image_budget(stage, allowance)

    if fmt == "json":
        text = json.dumps(report.to_json_dict(), indent=2)
    elif fmt == "text":
        text = _plan_text(report)
    elif stage.has_video:
        text = budget.sweep_csv([pathway], [report])
    else:
        raise ConfigError("csv format applies to video plans only")

    _emit(text, args.out)
    for finding in findings:
        print(f"finding: {finding}", file=sys.stderr)
    return 2 if findings else 0


def _cmd_sweep(args) -> int:
    doc, stage, _, configs, labels = _load(args)
    if not stage.has_video:
        raise ConfigError("sweep needs a video-capable stage config")
    allowance = doc.get("text_allowance", budget.DEFAULT_TEXT_ALLOWANCE)
    grid = budget.stage_video_grid(stage)
    reports = budget.sweep(configs, grid, stage, allowance)
    fmt = args.format or "csv"

    if fmt == "csv":
        text = budget.sweep_csv(configs, reports)
    elif fmt == "json":
        rows = [
            {"label": label, "n_slow": cfg.n_slow, "n_fast": cfg.n_fast, "n_total": cfg.n_total,
             "arrangement": cfg.arrangement.value, **rep.to_json_dict()}
            for label, cfg, rep in zip(labels, configs, reports)
        ]
        text = json.dumps(rows, indent=2)
    else:
        width = max(len(label) for label in labels)
        lines = []
        for label, cfg, rep in zip(labels, configs, reports):
            lines.append(
                f"{label:<{width}}  slow={cfg.n_slow:<3} fast={cfg.n_fast:<3} "
                f"total={cfg.n_total:<3} {cfg.arrangement.value}  "
                f"content={rep.content_tokens:<6} ({rep.rounded_label:>3})  {_fit_word(rep)}"
            )
        text = "\n".join(lines)

    _emit(text, args.out)
    return 0


def _cmd_arrange(args) -> int:
    doc, stage, pathway, _, _ = _load(args)
    if "grid_rows" in doc or "grid_cols" in doc:
        if not ("grid_rows" in doc and "grid_cols" in doc):
            raise ConfigError("grid_rows and grid_cols must be set together")
        grid = PatchGrid(*(as_count(key, doc[key]) for key in ("grid_rows", "grid_cols")))
    else:
        if not stage.has_video:
            raise ConfigError("arrange needs grid_rows/grid_cols or a video-capable stage")
        grid = budget.stage_video_grid(stage)
    _emit("\n".join(plan_layout(pathway, grid).layout_lines()), args.out)
    return 0


def _cmd_check(args) -> int:
    from . import selfcheck

    results = selfcheck.run_checks(seed=args.seed)
    lines = []
    for res in results:
        verdict = _style("ok", _GREEN) if res.passed else _style("FAIL", _RED)
        lines.append(f"{verdict:<4} {res.name}: {res.detail}")
    _emit("\n".join(lines), args.out)
    return 0 if all(res.passed for res in results) else 3


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "handler"):
            parser.print_help(sys.stderr)
            return 1
        return args.handler(args)
    except (ValueError, OSError) as exc:  # every sftokens error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """Run ``main`` on the process's arguments and exit with its code.

    A command's process dies as soon as ``main`` returns, and at exit the
    interpreter's collections walk every object the imports left, about
    14,000, which costs more than planning does. ``gc.freeze()`` moves them
    into the permanent generation, which those collections skip; shutdown
    otherwise runs as usual. Only this entry point, which owns its process,
    freezes: ``main`` and ``import sftokens`` leave the collector as they
    found it, so a caller that runs them in its own process keeps its own
    collections.
    """
    import gc  # only the process's own entry point touches the collector

    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
