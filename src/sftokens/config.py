"""Flat JSON configuration files and key=value overrides.

A config document is a single flat JSON object whose keys mirror the
StageConfig and PathwayConfig field names. Missing fields fall back to the
deployment defaults for the declared stage. Sweeps add either a ``sweep``
list of per-row overrides or a ``sweep_grid`` mapping of field to value
list (expanded as a cross product in key order).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import replace
from importlib import resources
from pathlib import Path

from .budget import StageConfig, stage_one_defaults, stage_two_defaults
from .errors import ConfigError
from .projector import DEFAULT_VIDEO_CONFIG, PathwayConfig

STAGE_KEYS = {
    "stage",
    "context_length",
    "min_image_area",
    "max_image_area",
    "base_image_side",
    "video_min_area",
    "video_max_area",
    "max_frames",
    "patch",
}
PATHWAY_KEYS = {
    "n_total",
    "n_slow",
    "stride_h",
    "stride_w",
    "fast_rows",
    "fast_cols",
    "arrangement",
}
EXTRA_KEYS = {
    "text_allowance",
    "sweep",
    "sweep_grid",
    "grid_rows",
    "grid_cols",
    "channels",
    "label",
}
KNOWN_KEYS = STAGE_KEYS | PATHWAY_KEYS | EXTRA_KEYS

BUNDLED_CONFIGS = ("table1_stage1.cfg", "table1_stage2.cfg", "table4.cfg", "table5.cfg")


def bundled_config_path(name: str) -> Path:
    path = resources.files("sftokens").joinpath("configs", name)
    return Path(str(path))


def _check_keys(doc: dict, where: str) -> None:
    unknown = sorted(set(doc) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def load_config(path: str | None, overrides: list[str] | None = None) -> dict:
    """Read a config file (direct path or bundled name) and apply overrides.

    Overrides are ``key=value`` strings; values parse as JSON scalars and
    fall back to plain strings.

    Raises:
        ConfigError: On missing files, malformed JSON, unknown keys or a non-list ``sweep``.
    """
    doc: dict = {}
    if path is not None:
        file_path = Path(path)
        if not file_path.exists() and file_path.name in BUNDLED_CONFIGS:
            file_path = bundled_config_path(file_path.name)
        if not file_path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            doc = json.loads(file_path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
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
        doc[key] = value

    _check_keys(doc, "config")
    rows = doc.get("sweep", [])
    if not isinstance(rows, list):
        raise ConfigError("sweep must be a non-empty list of objects")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ConfigError(f"sweep row {i} must be an object")
        _check_keys(row, f"sweep row {i}")
    return doc


def _replace(base, doc: dict, keys: set[str]):
    try:
        return replace(base, **{key: doc[key] for key in keys if key in doc})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def stage_from_config(doc: dict) -> StageConfig:
    """Build the stage limits, defaulting missing fields per declared stage."""
    base = stage_one_defaults() if doc.get("stage") == "I" else stage_two_defaults()
    return _replace(base, doc, STAGE_KEYS)


def pathway_from_config(doc: dict, base: PathwayConfig = DEFAULT_VIDEO_CONFIG) -> PathwayConfig:
    """Build a pathway config on top of ``base``, overriding present fields."""
    return _replace(base, doc, PATHWAY_KEYS)


def sweep_rows(doc: dict) -> list[dict]:
    """Expand the sweep definition into per-row override dicts.

    Explicit ``sweep`` rows win over a ``sweep_grid``; with neither, the
    document itself is the single row.
    """
    if "sweep" in doc:
        rows = doc["sweep"]
        if not isinstance(rows, list) or not rows:
            raise ConfigError("sweep must be a non-empty list of objects")
        return rows
    if "sweep_grid" in doc:
        grid = doc["sweep_grid"]
        if not isinstance(grid, dict) or not grid:
            raise ConfigError("sweep_grid must be a non-empty object of value lists")
        unknown = sorted(set(grid) - PATHWAY_KEYS)
        if unknown:
            raise ConfigError(f"sweep_grid keys must be pathway fields, got: {', '.join(unknown)}")
        keys = list(grid)
        for key in keys:
            if not isinstance(grid[key], list) or not grid[key]:
                raise ConfigError(f"sweep_grid.{key} must be a non-empty list")
        return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]
    return [{}]


def sweep_configs(doc: dict) -> tuple[list[PathwayConfig], list[str]]:
    """Materialise sweep rows into pathway configs plus per-row labels."""
    base = pathway_from_config(doc)
    configs: list[PathwayConfig] = []
    labels: list[str] = []
    for i, row in enumerate(sweep_rows(doc)):
        configs.append(pathway_from_config(row, base))
        labels.append(str(row.get("label", f"row{i}")))
    return configs, labels
