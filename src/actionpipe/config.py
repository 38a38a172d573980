"""Pipeline configuration: one JSON file wiring paths and every threshold."""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from dataclasses import dataclass
from pathlib import Path

from .clustering import ClusterParams
from .ingest import (
    DEFAULT_ACTION_CLASSES,
    DEFAULT_OBJECT_CLASSES,
    ValidationError,
    _is_finite,
    check_numbers,
    indented_json,
    write_lines,
)
from .jitter import JitterParams
from .labeling import LabelingThresholds
from .nms import NmsParams
from .refine import LossParams
from .scoring import DEFAULT_RATE_GRID, IOU_MODES, MatchParams


@dataclass(frozen=True)
class PipelineConfig:
    detections: Path
    ground_truth: Path
    videos: Path
    output_dir: Path
    scores: Path | None = None
    action_classes: tuple[str, ...] = DEFAULT_ACTION_CLASSES
    object_classes: tuple[str, ...] | None = DEFAULT_OBJECT_CLASSES
    min_confidence: float = 0.5
    cluster: ClusterParams = ClusterParams()
    jitter: JitterParams = JitterParams()
    labeling: LabelingThresholds = LabelingThresholds()
    loss: LossParams = LossParams()
    nms: NmsParams = NmsParams()
    match: MatchParams = MatchParams()
    rate_grid: tuple[float, ...] = DEFAULT_RATE_GRID
    recall_iou_mode: str = "volume"

    def __post_init__(self):
        object.__setattr__(self, "action_classes", tuple(self.action_classes))
        if self.object_classes is not None:
            object.__setattr__(self, "object_classes", tuple(self.object_classes))
        object.__setattr__(self, "rate_grid", tuple(self.rate_grid))
        if not self.action_classes:
            raise ValidationError("action_classes must be nonempty")
        if len(set(self.action_classes)) != len(self.action_classes):
            raise ValidationError("action_classes must be unique")
        for label in self.action_classes:  # `score` writes each class's curve to curves/<label>.txt
            if label in ("", ".", "..", "aggregate") or "/" in label or "\0" in label:
                raise ValidationError(
                    f"action class label {label!r} cannot name a curve file: it must be nonempty, not '.', "
                    "'..' or 'aggregate', and hold no '/' or NUL"
                )
        check_numbers(self, "min_confidence")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ValidationError("min_confidence must be in [0, 1]")
        if self.recall_iou_mode not in IOU_MODES:
            raise ValidationError(f"recall_iou_mode must be one of {IOU_MODES}")
        if not all(_is_finite(r) and r >= 0 for r in self.rate_grid):
            raise ValidationError(f"rate_grid entries must be finite and >= 0, got {list(self.rate_grid)}")


# keys that name files; a relative path resolves against the config's directory
_PATH_KEYS = ("detections", "ground_truth", "videos", "scores", "output_dir")
_TYPES = typing.get_type_hints(PipelineConfig)
# each section's field types, resolved once: resolving them takes ~0.5 ms, which
# load_config would otherwise add to every stage call
_SECTION_TYPES = {
    f.name: typing.get_type_hints(type(f.default))
    for f in dataclasses.fields(PipelineConfig)
    if dataclasses.is_dataclass(f.default)
}


def _json_value(value):
    if isinstance(value, Path):
        return str(value)
    return list(value) if isinstance(value, tuple) else value


def config_to_dict(cfg: PipelineConfig) -> dict:
    return dataclasses.asdict(cfg, dict_factory=lambda items: {key: _json_value(value) for key, value in items})


def _is_json_of(value, hint) -> bool:
    """True when the parsed JSON `value` has the field type `hint` (null aside).

    A path or string is a JSON string, a float a finite JSON number, an int
    a JSON integer at most 2**53 in magnitude, a bool `true` or `false`
    (never a number), and a tuple a JSON array of its item type.
    """
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):  # `X | None`
        return any(_is_json_of(value, arg) for arg in args if arg is not type(None))
    if typing.get_origin(hint) is tuple:
        return isinstance(value, list) and all(_is_json_of(item, args[0]) for item in value)
    if hint is bool:
        return isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool) and abs(value) <= 2**53
    if hint is float:
        return _is_finite(value)
    return isinstance(value, str)


def _section(name: str, cls: type, section):
    if not isinstance(section, dict):
        raise ValidationError(f"config section {name!r} must be an object")
    unknown = sorted(set(section) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValidationError(f"unknown keys in config section {name!r}: {', '.join(unknown)}")
    for key, value in section.items():
        if not _is_json_of(value, _SECTION_TYPES[name][key]):
            raise ValidationError(f"bad config section {name!r}: field {key!r} has the wrong type: {value!r}")
    return cls(**section)


def config_from_dict(data: dict, base_dir: Path | None = None) -> PipelineConfig:
    """Build a config from parsed JSON; relative paths resolve against base_dir.

    The schema is `PipelineConfig` itself: a field with no default is a
    required key, a field whose default is a dataclass is a section.  An
    absent key takes the field's default; null means None where the field
    admits None (`scores`, `object_classes`) and the default elsewhere.
    """
    if not isinstance(data, dict):
        raise ValidationError("config must be a JSON object")
    fields = dataclasses.fields(PipelineConfig)
    unknown = sorted(set(data) - {f.name for f in fields})
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    kwargs: dict = {}
    for f in fields:
        value = data.get(f.name)
        if value is None:
            if f.default is dataclasses.MISSING:
                raise ValidationError(f"config is missing required path {f.name!r}")
            if type(None) in typing.get_args(_TYPES[f.name]):
                kwargs[f.name] = None
        elif dataclasses.is_dataclass(f.default):
            kwargs[f.name] = _section(f.name, type(f.default), value)
        elif not _is_json_of(value, _TYPES[f.name]):
            raise ValidationError(f"config key {f.name!r} has the wrong type: {value!r}")
        elif f.name in _PATH_KEYS:
            path = Path(value)
            kwargs[f.name] = base_dir / path if base_dir is not None and not path.is_absolute() else path
        else:
            kwargs[f.name] = value
    return PipelineConfig(**kwargs)


def load_config(path) -> PipelineConfig:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}") from None
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    return config_from_dict(data, base_dir=path.parent)


def save_config(cfg: PipelineConfig, path) -> None:
    write_lines(path, [indented_json(config_to_dict(cfg))])
