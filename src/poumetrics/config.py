"""Analysis configuration: weighting profiles, the declaration weight
table, grouping and report options.

Configuration lives in a JSON file.  All weights are written as strings
("1/6", "0.25") and parsed into exact fractions, so a profile that must
sum to one can be checked without rounding slack.  A weight string holds
at most 100 characters and its decimal exponent is at most 100 in
magnitude, so no weight costs more than a few hundred digits.  Unknown
keys are rejected outright; a silently ignored typo in a weights file
would skew every ranking downstream.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction

from .aggregate import Grouping, WeightProfile, default_profile
from .errors import InvalidConfig, clip
from .ir import Language
from .metrics import DEFAULT_WEIGHT_TABLE, METRIC_KEYS, WeightTable

_TOP_KEYS = {"weight_profiles", "weight_table", "array_sub_cap", "grouping", "normalize", "annotations"}
_WEIGHT_KEYS = {lang.value for lang in Language} | {"default"}
_TABLE_KEYS = {f.name for f in fields(WeightTable)}


@dataclass(frozen=True)
class AnalysisConfig:
    """Fully resolved options for one analysis run."""

    profiles: dict[Language, WeightProfile] = field(
        default_factory=lambda: {lang: default_profile(lang) for lang in Language}
    )
    weight_table: WeightTable = DEFAULT_WEIGHT_TABLE
    array_sub_cap: int | None = None
    grouping: Grouping = Grouping.WHOLE_SAMPLE
    normalize: bool = False
    annotations: dict[str, str] = field(default_factory=dict)


_MAX_WEIGHT_CHARS = 100
_MAX_WEIGHT_EXPONENT = 100
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


def _parse_fraction(raw, where: str) -> Fraction:
    if isinstance(raw, bool):
        raise InvalidConfig("%s: weights must be numbers or fraction strings" % where)
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        # Checked before Fraction runs: "1e1000000000" would build a
        # billion-digit integer.
        if len(raw) > _MAX_WEIGHT_CHARS:
            raise InvalidConfig(
                "%s: weight %s is %d characters long; at most %d are allowed"
                % (where, clip(repr(raw)), len(raw), _MAX_WEIGHT_CHARS)
            )
        exponent = _EXPONENT.search(raw)
        if exponent is not None and abs(int(exponent.group(1))) > _MAX_WEIGHT_EXPONENT:
            raise InvalidConfig(
                "%s: weight %r has an exponent beyond %d in magnitude" % (where, raw, _MAX_WEIGHT_EXPONENT)
            )
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidConfig("%s: cannot parse weight %r" % (where, raw)) from exc
    raise InvalidConfig(
        "%s: weight %s must be an int or a string; floats would smuggle rounding error in"
        % (where, clip(repr(raw)))
    )


def _parse_profiles(data, base: dict[Language, WeightProfile]) -> dict[Language, WeightProfile]:
    if not isinstance(data, dict):
        raise InvalidConfig("weight_profiles must be an object keyed by language")
    unknown = set(data) - _WEIGHT_KEYS
    if unknown:
        raise InvalidConfig("unknown weight_profiles key(s): %s" % ", ".join(sorted(unknown)))
    profiles = dict(base)

    def build(values, where):
        if not isinstance(values, list) or len(values) != len(METRIC_KEYS):
            raise InvalidConfig("%s: expected a list of %d weights" % (where, len(METRIC_KEYS)))
        return WeightProfile.of(*(_parse_fraction(v, where) for v in values))

    if "default" in data:
        profile = build(data["default"], "weight_profiles.default")
        for lang in Language:
            profiles[lang] = profile
    for lang in Language:
        if lang.value in data:
            profiles[lang] = build(data[lang.value], "weight_profiles.%s" % lang.value)
    return profiles


def _parse_table(data) -> WeightTable:
    if not isinstance(data, dict):
        raise InvalidConfig("weight_table must be an object")
    unknown = set(data) - _TABLE_KEYS
    if unknown:
        raise InvalidConfig("unknown weight_table key(s): %s" % ", ".join(sorted(unknown)))
    for key, value in data.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidConfig("weight_table.%s must be an integer" % key)
    return replace(DEFAULT_WEIGHT_TABLE, **data)


def config_from_mapping(data: dict) -> AnalysisConfig:
    if not isinstance(data, dict):
        raise InvalidConfig("configuration root must be an object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise InvalidConfig("unknown configuration key(s): %s" % ", ".join(sorted(unknown)))

    base = AnalysisConfig()
    profiles = dict(base.profiles)
    if "weight_profiles" in data:
        profiles = _parse_profiles(data["weight_profiles"], profiles)

    table = base.weight_table
    if "weight_table" in data:
        table = _parse_table(data["weight_table"])

    cap = base.array_sub_cap
    if "array_sub_cap" in data:
        cap = data["array_sub_cap"]
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int) or cap < 1):
            raise InvalidConfig("array_sub_cap must be a positive integer or null")

    grouping = base.grouping
    if "grouping" in data:
        try:
            grouping = Grouping(data["grouping"])
        except ValueError as exc:
            raise InvalidConfig(
                "grouping must be one of: %s" % ", ".join(g.value for g in Grouping)
            ) from exc

    normalize = base.normalize
    if "normalize" in data:
        if not isinstance(data["normalize"], bool):
            raise InvalidConfig("normalize must be true or false")
        normalize = data["normalize"]

    annotations: dict[str, str] = {}
    if "annotations" in data:
        if not isinstance(data["annotations"], dict):
            raise InvalidConfig("annotations must map POU names to short tags")
        for name, tag in data["annotations"].items():
            if not isinstance(tag, str):
                raise InvalidConfig("annotation for %r must be a string" % name)
            annotations[str(name).casefold()] = tag

    return AnalysisConfig(
        profiles=profiles,
        weight_table=table,
        array_sub_cap=cap,
        grouping=grouping,
        normalize=normalize,
        annotations=annotations,
    )


def load_config(path: str) -> AnalysisConfig:
    """Read and validate a JSON configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:
        # Besides syntax errors: text that is not UTF-8, an integer past
        # Python's 4300-digit limit, and nesting past the recursion limit.
        raise InvalidConfig("%s: %s" % (path, exc)) from exc
    return config_from_mapping(data)
