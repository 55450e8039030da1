"""Golden CLI outputs on the fixed configs.

Each config in tests/golden/ is a copy of a benchmark workload with fewer
Monte Carlo trials.  The .jsonl files next to it were written by

    rankcodes simulate  --config <name>.json --output <name>.simulate.jsonl
    rankcodes roundtrip --config <name>.json --seed 0 --trials 5 --t <C>
                        --output <name>.roundtrip.jsonl

and every key except the op-count field `field_mul_count` must match;
test_cli_op_counts_match_golden then pins that field as well, since the
counts are deterministic and machine-independent.
The -exact configs are copies of paper-q2n12 and oddq-q3n9 with the
exact-rank channel and no decode trials; they have no roundtrip
records, since roundtrip ignores the channel.
rejection-q2n12-exact is the same code with parts of 2 and 3 dims and
t in {3, 4}: a 4 x 5 binary draw has rank < 4 in about 40% of draws and
its cells succeed 282 and 116 times out of 500, so it pins the stream of
the exact-rank rejection loop.
tableless-q3n11 is not a workload: it is the [11,7,5] code over GF(3^11),
above the table limit, with g the polynomial basis and parts of 5 and 6
dims, and pins odd-q decoding on the table-less arithmetic.
The subfield factorization has its own records, written by

    rankcodes subfield  --config <name>.json --s <s> --output <name>.subfield.jsonl

for oddq-q3n9, for subfield-q2n6, the [6,4,3] code over GF(2^6) with
its s=3 subfield, and for subfield-q5n4, the [4,2,3] code over GF(5^4)
with its s=2 subfield.
"""

import json
from pathlib import Path

import pytest

from rankcodes.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
# config name -> roundtrip error rank (the code's capability C), or None
# for a simulate-only config
WORKLOADS = {"paper-q2n12": 2, "tableless-q2n20": 4, "oddq-q3n9": 1,
             "tableless-q3n11": 2,
             "paper-q2n12-exact": None, "oddq-q3n9-exact": None,
             "rejection-q2n12-exact": None}
# config name -> subfield degree s
SUBFIELDS = {"oddq-q3n9": 3, "subfield-q2n6": 3, "subfield-q5n4": 2}
OP_COUNT_KEYS = ("field_mul_count",)


def _records(path):
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    for r in records:
        for key in OP_COUNT_KEYS:
            r.pop(key, None)
    return records


def _argv(name, command, out):
    cfg = str(GOLDEN / f"{name}.json")
    if command == "simulate":
        return ["simulate", "--config", cfg, "--output", str(out)]
    return ["roundtrip", "--config", cfg, "--seed", "0", "--trials", "5",
            "--t", str(WORKLOADS[name]), "--output", str(out)]


CLI_CASES = [(name, command) for name in sorted(WORKLOADS)
             for command in ("simulate", "roundtrip")
             if command == "simulate" or WORKLOADS[name] is not None]


@pytest.mark.parametrize("name, command", CLI_CASES)
def test_cli_output_matches_golden(name, command, tmp_path):
    out = tmp_path / "out.jsonl"
    assert main(_argv(name, command, out)) == 0
    assert _records(out) == _records(GOLDEN / f"{name}.{command}.jsonl")


@pytest.mark.parametrize("name, command", CLI_CASES)
def test_cli_op_counts_match_golden(name, command, tmp_path):
    out = tmp_path / "out.jsonl"
    assert main(_argv(name, command, out)) == 0
    with open(out) as got, open(GOLDEN / f"{name}.{command}.jsonl") as want:
        assert [json.loads(line) for line in got] == [json.loads(line) for line in want]


@pytest.mark.parametrize("name", sorted(SUBFIELDS))
def test_subfield_output_matches_golden(name, tmp_path):
    out = tmp_path / "out.jsonl"
    argv = ["subfield", "--config", str(GOLDEN / f"{name}.json"),
            "--s", str(SUBFIELDS[name]), "--output", str(out)]
    assert main(argv) == 0
    assert _records(out) == _records(GOLDEN / f"{name}.subfield.jsonl")
