"""
Custom declaration weights and metric weights
=============================================

Two knobs shape the numbers: the declaration weight table (what a
declared variable costs in the data-structure metric) and the
per-language metric weight profile (how the six relative values blend
into one overall value). This script turns both.
"""

import json
import tempfile
from pathlib import Path

from poumetrics import (
    AnalysisConfig,
    Language,
    StSource,
    WeightTable,
    analyze_paths,
    compute_vector,
    config_from_mapping,
    emit_json,
    fmt4,
    parse_st_pou,
)

SOURCE = """\
FUNCTION_BLOCK Mixer
  VAR_INPUT
    recipe : INT;
  END_VAR
  VAR_OUTPUT
    done : BOOL;
  END_VAR
  VAR
    step : INT;
    timer : TON;
  END_VAR

  timer(IN := step > 0, PT := T#2s);
  IF timer.Q THEN
    step := step + 1;
  END_IF;
  done := step >= recipe;
END_FUNCTION_BLOCK
"""

pou, _ = parse_st_pou(StSource(path="<inline>", text=SOURCE))

# Default table: interface variables cost 3 (simple) or 4 (complex),
# locals 1 or 2, each first-level sub-variable 1.
default_m6 = compute_vector(pou).data_structure

# A stricter table that doubles the price of complex declarations.
strict = WeightTable(
    interface_simple=3,
    interface_complex=8,
    local_simple=1,
    local_complex=4,
    sub_simple=2,
    sub_complex=2,
)
strict_m6 = compute_vector(pou, strict).data_structure

print("data-structure weight, default table:", default_m6)
print("data-structure weight, strict table: ", strict_m6)
print()

# The same table override travels through the config object when
# running the full pipeline, together with a metric weight profile
# that puts half of the overall value on control flow.
cfg = config_from_mapping(
    {
        "weight_table": {
            "interface_complex": 8,
            "local_complex": 4,
            "sub_simple": 2,
            "sub_complex": 2,
        },
        "weight_profiles": {"ST": ["1/10", "1/2", "1/10", "1/10", "1/10", "1/10"]},
    }
)

configs = {"uniform profile": AnalysisConfig(), "control-flow heavy": cfg}
with tempfile.TemporaryDirectory() as workdir:
    (Path(workdir) / "mixer.st").write_text(SOURCE)
    reports = {label: json.loads(emit_json(analyze_paths([workdir], config))) for label, config in configs.items()}

# The JSON report is the data contract: one entry per POU, ranked.
for label, config in configs.items():
    (pou,) = reports[label]["pous"]
    print("%s:" % label)
    print("  weights :", " ".join(fmt4(w) for w in config.profiles[Language.ST].weights))
    print("  m6      :", pou["m6"])
    print("  overall : %s%%" % pou["oc_rel"])
