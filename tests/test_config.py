"""JSON configuration parsing and validation."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from poumetrics import (
    DEFAULT_WEIGHT_TABLE,
    Grouping,
    InvalidConfig,
    Language,
    SFC_PROFILE,
    UNIFORM_PROFILE,
    WeightSumViolation,
    config_from_mapping,
    load_config,
)

F = Fraction


def test_empty_mapping_gives_defaults():
    cfg = config_from_mapping({})
    assert cfg.profiles[Language.ST] is UNIFORM_PROFILE
    assert cfg.profiles[Language.SFC] is SFC_PROFILE
    assert cfg.weight_table == DEFAULT_WEIGHT_TABLE
    assert cfg.array_sub_cap is None
    assert cfg.grouping is Grouping.WHOLE_SAMPLE
    assert cfg.normalize is False
    assert cfg.annotations == {}


def test_unknown_top_level_key_rejected():
    with pytest.raises(InvalidConfig) as err:
        config_from_mapping({"wieghts": {}})
    assert "wieghts" in str(err.value)


def test_default_weights_apply_to_all_languages():
    cfg = config_from_mapping({"weight_profiles": {"default": ["1/2", "1/10", "1/10", "1/10", "1/10", "1/10"]}})
    for lang in Language:
        assert cfg.profiles[lang].weights[0] == F(1, 2)


def test_language_weights_override_default():
    cfg = config_from_mapping(
        {
            "weight_profiles": {
                "default": ["1/6", "1/6", "1/6", "1/6", "1/6", "1/6"],
                "LD": [1, 0, 0, 0, 0, 0],
            }
        }
    )
    assert cfg.profiles[Language.LD].weights[0] == 1
    assert cfg.profiles[Language.ST].weights[0] == F(1, 6)


def test_string_fractions_parse_exactly():
    cfg = config_from_mapping({"weight_profiles": {"ST": ["0.25", "0.25", "0.25", "0.25", "0", "0"]}})
    assert cfg.profiles[Language.ST].weights[0] == F(1, 4)


def test_float_weight_rejected():
    with pytest.raises(InvalidConfig) as err:
        config_from_mapping({"weight_profiles": {"ST": [0.25, 0.25, 0.25, 0.25, 0.0, 0.0]}})
    assert "float" in str(err.value)


def test_bool_weight_rejected():
    with pytest.raises(InvalidConfig):
        config_from_mapping({"weight_profiles": {"ST": [True, 0, 0, 0, 0, 0]}})


def test_bad_fraction_string_rejected():
    with pytest.raises(InvalidConfig):
        config_from_mapping({"weight_profiles": {"ST": ["1/0", "0", "0", "0", "0", "1"]}})


def test_wrong_weight_count_rejected():
    with pytest.raises(InvalidConfig):
        config_from_mapping({"weight_profiles": {"ST": ["1"]}})


def test_weights_not_summing_to_one_rejected():
    with pytest.raises(WeightSumViolation):
        config_from_mapping({"weight_profiles": {"ST": ["1/2", "1/2", "1/2", "0", "0", "0"]}})


def test_unknown_language_key_rejected():
    with pytest.raises(InvalidConfig):
        config_from_mapping({"weight_profiles": {"IL": [1, 0, 0, 0, 0, 0]}})


def test_weight_table_partial_override_merges_defaults():
    cfg = config_from_mapping({"weight_table": {"interface_complex": 6}})
    assert cfg.weight_table.interface_complex == 6
    assert cfg.weight_table.local_simple == DEFAULT_WEIGHT_TABLE.local_simple


def test_weight_table_unknown_key_rejected():
    with pytest.raises(InvalidConfig):
        config_from_mapping({"weight_table": {"interface": 5}})


def test_weight_table_non_integer_rejected():
    with pytest.raises(InvalidConfig):
        config_from_mapping({"weight_table": {"interface_simple": "5"}})


@pytest.mark.parametrize("exponent", [101, 308, 4000])
def test_weight_table_price_is_at_most_ten_to_the_hundred(exponent):
    price = 10**exponent
    assert config_from_mapping({"weight_table": {"interface_complex": 10**100}}).weight_table.interface_complex == 10**100
    with pytest.raises(InvalidConfig) as err:
        config_from_mapping({"weight_table": {"interface_simple": price, "interface_complex": price}})
    assert str(err.value) == "weight_table.interface_simple must be at most 10^100"


def test_weight_table_constraint_violation_surfaces():
    with pytest.raises(InvalidConfig):
        config_from_mapping({"weight_table": {"local_simple": 9}})


def test_array_sub_cap_validation():
    assert config_from_mapping({"array_sub_cap": 16}).array_sub_cap == 16
    assert config_from_mapping({"array_sub_cap": None}).array_sub_cap is None
    with pytest.raises(InvalidConfig):
        config_from_mapping({"array_sub_cap": 0})
    with pytest.raises(InvalidConfig):
        config_from_mapping({"array_sub_cap": True})


def test_grouping_values():
    cfg = config_from_mapping({"grouping": "per-language"})
    assert cfg.grouping is Grouping.PER_LANGUAGE
    with pytest.raises(InvalidConfig):
        config_from_mapping({"grouping": "per-file"})


def test_normalize_must_be_bool():
    assert config_from_mapping({"normalize": True}).normalize is True
    with pytest.raises(InvalidConfig):
        config_from_mapping({"normalize": "yes"})


def test_annotations_casefold_names():
    cfg = config_from_mapping({"annotations": {"MainLoop": "hot path"}})
    assert cfg.annotations == {"mainloop": "hot path"}


def test_annotation_tag_must_be_string():
    with pytest.raises(InvalidConfig):
        config_from_mapping({"annotations": {"x": 3}})


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "weight_profiles": {"default": ["1/3", "1/3", "1/3", "0", "0", "0"]},
                "grouping": "per-language",
                "normalize": True,
                "annotations": {"Pump": "legacy"},
            }
        )
    )
    cfg = load_config(str(path))
    assert cfg.profiles[Language.FBD].weights[0] == F(1, 3)
    assert cfg.grouping is Grouping.PER_LANGUAGE
    assert cfg.normalize is True
    assert cfg.annotations == {"pump": "legacy"}


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(InvalidConfig):
        load_config(str(path))


def test_config_root_must_be_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(InvalidConfig):
        load_config(str(path))


# ------------------------- odd values -------------------------


def weight_error(value, error=InvalidConfig) -> str:
    with pytest.raises(error) as err:
        config_from_mapping({"weight_profiles": {"ST": [value, 0, 0, 0, 0, 0]}})
    return str(err.value)


def test_weight_string_length_is_bounded_before_parsing():
    assert weight_error("0." + "0" * 98 + "1") == (
        "weight_profiles.ST: weight '0." + "0" * 37 + "... is 101 characters long; at most 100 are allowed"
    )
    assert weight_error("0." + "0" * 97 + "1", WeightSumViolation) == (
        "metric weights sum to about 10^-98, expected exactly 1"
    )


@pytest.mark.parametrize("value", ["1e101", "1E-101", " 1e+0101 ", "1e1_0_1", "1e10000"])
def test_weight_exponent_is_bounded_before_parsing(value):
    assert weight_error(value) == "weight_profiles.ST: weight %r has an exponent beyond 100 in magnitude" % value


def test_weight_sum_message_shortens_large_numbers():
    assert weight_error("1e100", WeightSumViolation) == "metric weights sum to about 10^100, expected exactly 1"
    assert weight_error(10**4000, WeightSumViolation) == "metric weights sum to about 10^4000, expected exactly 1"
    assert weight_error("1/3", WeightSumViolation) == "metric weights sum to 1/3, expected exactly 1"


def test_weight_of_another_json_type_is_shortened():
    assert weight_error([[1] * 30]) == (
        "weight_profiles.ST: weight [[1" + ", 1" * 12 + ",... must be an int or a string;"
        " floats would smuggle rounding error in"
    )


@pytest.mark.parametrize(
    "data, message",
    [
        (
            b'{"weight_profiles": {"ST": [' + b"9" * 5000 + b', 0, 0, 0, 0, 0]}}',
            "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits;"
            " use sys.set_int_max_str_digits() to increase the limit",
        ),
        (b'{"normalize": "\xff"}', "'utf-8' codec can't decode byte 0xff in position 15: invalid start byte"),
        (
            b"[" * 100_000 + b"]" * 100_000,
            "maximum recursion depth exceeded while decoding a JSON array from a unicode string",
        ),
    ],
)
def test_load_config_turns_json_value_errors_into_invalid_config(tmp_path, data, message):
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    with pytest.raises(InvalidConfig) as err:
        load_config(str(path))
    assert str(err.value) == "%s: %s" % (path, message)
