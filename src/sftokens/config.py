"""Flat JSON configuration files and key=value overrides.

A config document is a single flat JSON object whose keys are the
StageConfig and PathwayConfig field names plus a few extras. Missing fields
fall back to the deployment defaults for the declared stage; pathway
defaults are sized to the stage's frame cap. Sweeps add either a ``sweep``
list of per-row overrides or a ``sweep_grid`` mapping of field to value
list (expanded as a cross product in key order), never both. Rows and grid
keys set pathway fields only, and a row may add a ``label``;
``load_config`` checks both forms' shape and keys, and row values are
checked where ``sweep_configs`` builds the rows, which every command does,
so every command rejects a malformed sweep.
"""

from __future__ import annotations

import itertools
import json

from .budget import StageConfig, default_pathway_for_stage, stage_one_defaults, stage_two_defaults
from .errors import ConfigError
from .projector import PathwayConfig

STAGE_KEYS = set(StageConfig._fields)
PATHWAY_KEYS = set(PathwayConfig._fields)
EXTRA_KEYS = {"text_allowance", "sweep", "sweep_grid", "grid_rows", "grid_cols"}
KNOWN_KEYS = STAGE_KEYS | PATHWAY_KEYS | EXTRA_KEYS

BUNDLED_CONFIGS = ("table1_stage1.cfg", "table1_stage2.cfg", "table4.cfg", "table5.cfg")


def _check_keys(doc: dict, allowed: set[str], message: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"{message}: {', '.join(unknown)}")


def load_config(path: str | None, overrides: list[str] | None = None) -> dict:
    """Read a config file (direct path or bundled name) and apply overrides.

    Overrides are ``key=value`` strings; values parse as JSON scalars and
    fall back to plain strings.

    Raises:
        ConfigError: On missing files, malformed JSON, integers or nesting
            past Python's limits, or unknown keys; on a ``sweep`` that is not
            a non-empty list of objects setting only pathway fields and
            ``label``; on a ``sweep_grid`` that is not a non-empty object
            mapping pathway fields to non-empty lists; on a document that
            sets both.
    """
    doc: dict = {}
    if path is not None:
        from pathlib import Path  # imported where used: plan and arrange run without a file

        file_path = Path(path)
        if not file_path.exists() and file_path.name in BUNDLED_CONFIGS:
            file_path = Path(__file__).with_name("configs") / file_path.name
        if not file_path.exists():
            raise ConfigError(f"config file not found: {path}")
        text = file_path.read_text()  # outside the try: a decode error keeps its message
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # past the int digit or nesting limit
            raise ConfigError(f"config file {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")

    for item in overrides or []:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        except (ValueError, RecursionError) as exc:  # past the int digit or nesting limit
            raise ConfigError(f"override {key}: {exc}") from exc
        doc[key] = value

    _check_keys(doc, KNOWN_KEYS, "unknown keys in config")
    if "sweep" in doc and "sweep_grid" in doc:
        raise ConfigError("sweep and sweep_grid must not be set together")
    if "sweep" in doc:
        rows = doc["sweep"]
        if not isinstance(rows, list) or not rows:
            raise ConfigError("sweep must be a non-empty list of objects")
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                raise ConfigError(f"sweep row {i} must be an object")
            _check_keys(row, PATHWAY_KEYS | {"label"},
                        f"sweep row {i} keys must be pathway fields or label, got")
    if "sweep_grid" in doc:
        grid = doc["sweep_grid"]
        if not isinstance(grid, dict) or not grid:
            raise ConfigError("sweep_grid must be a non-empty object of value lists")
        _check_keys(grid, PATHWAY_KEYS, "sweep_grid keys must be pathway fields, got")
        for key, values in grid.items():
            if not isinstance(values, list) or not values:
                raise ConfigError(f"sweep_grid.{key} must be a non-empty list")
    return doc


def _replace(base, doc: dict, keys: set[str]):
    try:
        return base._replace(**{key: doc[key] for key in keys if key in doc})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def stage_from_config(doc: dict) -> StageConfig:
    """Build the stage limits, defaulting missing fields per declared stage."""
    base = stage_one_defaults() if doc.get("stage") == "I" else stage_two_defaults()
    return _replace(base, doc, STAGE_KEYS)


def pathway_from_config(doc: dict, stage: StageConfig) -> PathwayConfig:
    """Build a pathway config on the stage-sized default, overriding present fields."""
    return _replace(default_pathway_for_stage(stage), doc, PATHWAY_KEYS)


def sweep_rows(doc: dict) -> list[dict]:
    """Expand the sweep definition of a loaded document into per-row override dicts.

    With neither ``sweep`` nor ``sweep_grid``, the document itself is the
    single row.
    """
    if "sweep" in doc:
        return doc["sweep"]
    if "sweep_grid" in doc:
        grid = doc["sweep_grid"]
        return [dict(zip(grid, combo)) for combo in itertools.product(*grid.values())]
    return [{}]


def sweep_configs(doc: dict, base: PathwayConfig) -> tuple[list[PathwayConfig], list[str]]:
    """Materialise sweep rows over ``base``, the document's pathway, plus per-row labels."""
    rows = sweep_rows(doc)
    configs = [_replace(base, row, PATHWAY_KEYS) for row in rows]
    labels = [str(row.get("label", f"row{i}")) for i, row in enumerate(rows)]
    return configs, labels
