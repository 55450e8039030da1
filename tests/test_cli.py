import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from conftest import bounded
from rankcodes.cli import main


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "field": {"q": 2, "n": 4},
        "code": {"k": 2},
        "parts": [[1, 2], [4, 8]],
        "channel": {"t_values": [1, 2], "trials": 2000, "seed": 9,
                    "mode": "uniform-matrix"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def test_count_subcommand(capsys):
    assert main(["count", "2", "2", "2", "1"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["count"] == "9"


def test_count_large_values_stay_exact(capsys):
    assert main(["count", "2", "64", "64", "32"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert int(record["count"]) > 10**300  # far beyond any float


# before: q = 1 exited 1 with a ZeroDivisionError traceback, q = 0 printed
# "-1", q = -3 printed "56" and a negative m or t printed "0"
@pytest.mark.parametrize("shape", [("1", "3", "2", "1"), ("0", "3", "2", "1"),
                                   ("-3", "3", "2", "1"), ("6", "3", "2", "1"),
                                   ("2", "-3", "2", "1"), ("2", "3", "-2", "0")])
def test_count_subcommand_rejects_bad_shapes(capsys, shape):
    assert main(["count", *shape]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: count: ")


def test_count_subcommand_rank_outside_range_is_zero(capsys):
    assert main(["count", "4", "2", "3", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == "0"


def test_code_info(config_path, capsys):
    assert main(["code-info", "--config", config_path]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["d"] == 3 and record["capability"] == 1
    assert record["generator_rank"] == 4 and record["parity_rank"] == 4


def test_code_info_explicit_vectors(tmp_path, capsys):
    cfg = {"field": {"q": 2, "n": 4}, "code": {"k": 2, "g": [1, 2, 4, 8]}}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(cfg))
    assert main(["code-info", "--config", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["g"] == [1, 2, 4, 8]


def test_roundtrip_success(config_path, capsys):
    assert main(["roundtrip", "--config", config_path, "--seed", "4",
                 "--trials", "25", "--t", "1"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["successes"] == 25
    assert record["field_mul_count"] > 0


def test_roundtrip_requires_seed(config_path, capsys):
    assert main(["roundtrip", "--config", config_path]) == 2


def test_roundtrip_rejects_t_beyond_capability(config_path):
    assert main(["roundtrip", "--config", config_path, "--seed", "1",
                 "--t", "2"]) == 2


@pytest.mark.parametrize("flags", [["--t", "-1"], ["--trials", "-1"]])
def test_roundtrip_rejects_negative_values(config_path, flags, capsys):
    assert main(["roundtrip", "--config", config_path, "--seed", "0"] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def test_simulate_records(config_path, tmp_path):
    out = tmp_path / "out.jsonl"
    assert main(["simulate", "--config", config_path,
                 "--output", str(out)]) == 0
    records = _read_jsonl(out)
    assert len(records) == 2
    by_t = {r["params"]["t"]: r for r in records}
    assert by_t[1]["exact_probability"] == 1.0
    assert by_t[2]["exact_probability"] == 0.390625
    assert abs(by_t[2]["empirical"] - 0.390625) <= 3 * by_t[2]["half_width"]
    assert by_t[2]["params"]["seed"] == 9
    assert by_t[2]["decode_successes"] is None


def test_simulate_with_decode_trials(tmp_path):
    cfg = {
        "field": {"q": 2, "n": 6},
        "code": {"k": 4},
        "parts": [[1, 2, 4], [8, 16, 32]],
        "channel": {"t_values": [2], "trials": 500, "seed": 3,
                    "decode_trials": 50},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.jsonl"
    assert main(["simulate", "--config", str(path), "--output", str(out)]) == 0
    (record,) = _read_jsonl(out)
    assert record["decode_successes"] == record["decode_event_successes"]
    assert record["field_mul_count"] > 0


def test_simulate_flag_overrides(config_path, tmp_path):
    out = tmp_path / "out.jsonl"
    assert main(["simulate", "--config", config_path, "--output", str(out),
                 "--trials", "100", "--seed", "77", "--t", "2"]) == 0
    (record,) = _read_jsonl(out)
    assert record["params"]["trials"] == 100
    assert record["params"]["seed"] == 77


def test_simulate_reproducible(config_path, tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["simulate", "--config", config_path, "--output", str(out1)]) == 0
    assert main(["simulate", "--config", config_path, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_requires_seed(tmp_path):
    cfg = {"field": {"q": 2, "n": 4}, "code": {"k": 2}, "parts": [[1, 2]],
           "channel": {"t_values": [1], "trials": 10}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 2


def test_simulate_missing_config_file(config_path):
    assert main(["simulate", "--config", config_path.replace("cfg", "missing")]) == 2


def test_simulate_empty_t_list_in_config(tmp_path):
    cfg = {"field": {"q": 2, "n": 4}, "code": {"k": 2},
           "parts": [[1, 2], [4, 8]],
           "channel": {"t_values": [], "trials": 10, "seed": 1}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.jsonl"
    assert main(["simulate", "--config", str(path), "--output", str(out)]) == 0
    assert out.read_text() == ""


def test_simulate_overlapping_parts_rejected(tmp_path):
    cfg = {"field": {"q": 2, "n": 4}, "code": {"k": 2},
           "parts": [[1, 2], [2, 4]],
           "channel": {"t_values": [1], "trials": 10, "seed": 1}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 2


def test_simulate_unsatisfiable_channel_is_config_error(tmp_path, capsys):
    cases = [
        # exact-rank Monte Carlo with t above the total dimension 4
        {"field": {"q": 2, "n": 4}, "code": {"k": 2}, "parts": [[1, 2], [4, 8]],
         "channel": {"t_values": [5], "trials": 10, "seed": 1,
                     "mode": "exact-rank"}},
        # decode trials with t above n = 6 independent values
        {"field": {"q": 2, "n": 6}, "code": {"k": 4},
         "parts": [[1, 2, 4], [8, 16, 32]],
         "channel": {"t_values": [7], "trials": 10, "seed": 1,
                     "decode_trials": 1}},
    ]
    for i, cfg in enumerate(cases):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: channel:")
        assert "Traceback" not in err


@pytest.mark.parametrize("channel", [
    {"trials": True},
    {"t_values": [True]},
    {"t_values": 1},
    {"decode_trials": "abc"},
    {"decode_trials": True},
    {"decode_trials": -1},
])
def test_simulate_rejects_non_integer_channel_fields(tmp_path, capsys, channel):
    cfg = {"field": {"q": 2, "n": 4}, "code": {"k": 2}, "parts": [[1, 2], [4, 8]],
           "channel": {"t_values": [1], "trials": 10, "seed": 1, **channel}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: channel.") and "Traceback" not in err


@pytest.mark.parametrize("command, section, value", [
    ("simulate", "field", {"q": 2.7, "n": 4}),
    ("simulate", "field", {"q": 2, "n": 4.0}),
    ("simulate", "field", {"q": True, "n": 4}),
    ("simulate", "field", {"q": "2", "n": 4}),
    ("simulate", "code", {"k": 2.9}),
    ("simulate", "code", {"k": True}),
    ("simulate", "code", {"k": 2, "g": [1, 2, 4, 8.0]}),
    ("simulate", "code", {"k": 2, "g": "1248"}),
    ("simulate", "code", {"k": 2, "h": [1, 2, True, 8]}),
    ("simulate", "code", {"k": 2, "g": [1, 2, 4, 16]}),  # outside GF(2^4)
    ("simulate", "parts", [[1, 2.0], [4, 8]]),
    ("simulate", "parts", [[-1, 2], [4, 8]]),
    ("simulate", "parts", [[1, 2], [True, 8]]),
    ("simulate", "parts", [[1, 2], 4]),
    ("subfield", "subfield", {"s": 2.0}),
    ("simulate", "field", {"q": 2, "n": 4, "modulus": False}),
    ("simulate", "field", {"q": 2, "n": 4, "modulus": [1, 1, 0, 0, [1]]}),
    ("simulate", "channel", "0"),
])
def test_config_rejects_non_integer_or_out_of_field_values(tmp_path, capsys, command, section, value):
    cfg = {"field": {"q": 2, "n": 4}, "code": {"k": 2}, "parts": [[1, 2], [4, 8]],
           "channel": {"t_values": [1], "trials": 10, "seed": 1},
           "subfield": {"s": 2}, section: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


# the library rejects these sizes itself; the CLI only names the section
@pytest.mark.parametrize("command, section, value, prefix", [
    ("code-info", "field", {"q": 2, "n": True}, "field"),
    ("simulate", "code", {"k": 2.5}, "code"),
    ("subfield", "subfield", {"s": True}, "subfield"),
])
def test_library_size_errors_name_their_section(tmp_path, capsys, command, section, value,
                                                prefix):
    cfg = {"field": {"q": 2, "n": 4}, "code": {"k": 2}, "parts": [[1, 2], [4, 8]],
           "channel": {"t_values": [1], "trials": 10, "seed": 1},
           "subfield": {"s": 2}, section: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"config error: {prefix}: ")
    assert "Traceback" not in err


# the CLI checks the section's shape: an object, not a list or a string
@pytest.mark.parametrize("section", [[3], "3"], ids=repr)
def test_subfield_section_must_be_an_object(tmp_path, capsys, section):
    cfg = {"field": {"q": 2, "n": 4}, "code": {"k": 2}, "subfield": section}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["subfield", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: subfield: ")
    assert "Traceback" not in err


def test_subfield_subcommand(tmp_path, capsys):
    cfg = {"field": {"q": 2, "n": 6}, "code": {"k": 4}, "subfield": {"s": 3}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["subfield", "--config", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["s"] == 3 and record["unique"] is True
    assert len(record["S"]) == 6 and len(record["A"]) == 2
    assert len(record["H_qs"]) == 4


# GF(2^32) and GF(3^15) are too large to list, so theta is found by counting
@pytest.mark.parametrize("q, n, k, s", [(2, 64, 40, 32), (3, 30, 20, 15)])
def test_subfield_subcommand_beyond_enumeration(tmp_path, capsys, q, n, k, s):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"field": {"q": q, "n": n}, "code": {"k": k},
                                "subfield": {"s": s}}))
    with bounded(30):
        assert main(["subfield", "--config", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["unique"] is True and record["d"] == n - k + 1
    assert len(record["subfield_basis"]) == s and record["subfield_basis"][0] == 1
    assert len(record["S"]) == n and len(record["A"]) == n - k


def test_subfield_invalid_s(tmp_path):
    cfg = {"field": {"q": 2, "n": 6}, "code": {"k": 4}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["subfield", "--config", str(path), "--s", "4"]) == 2
    assert main(["subfield", "--config", str(path)]) == 2  # s missing


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["code-info", "--config", str(bad)]) == 2
    nofield = tmp_path / "nofield.json"
    nofield.write_text(json.dumps({"code": {"k": 2}}))
    assert main(["code-info", "--config", str(nofield)]) == 2
    composite = tmp_path / "composite.json"
    composite.write_text(json.dumps({"field": {"q": 6, "n": 2},
                                     "code": {"k": 1}}))
    assert main(["code-info", "--config", str(composite)]) == 2


def test_csv_projection(config_path, tmp_path):
    out = tmp_path / "out.jsonl"
    csv_path = tmp_path / "out.csv"
    assert main(["simulate", "--config", config_path, "--output", str(out),
                 "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 records
    assert "empirical" in lines[0]


# values of the wrong JSON type for any config entry
WRONG_TYPES = st.one_of(st.none(), st.booleans(), st.floats(-3, 70),
                        st.text(max_size=3), st.builds(dict),
                        st.builds(lambda: [[1]]))
SMALL_INTS = st.integers(-2, 8)


@st.composite
def fuzzed_configs(draw):
    """A valid config over a small field, then one to three entries
    replaced by a wrong type, an out-of-range value or nothing.  Every
    integer stays small, so no case can start large work."""
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 4 if q == 5 else 6))
    order = q**n
    elements = st.lists(st.integers(-1, order), max_size=n + 1)
    cfg = {
        "field": {"q": q, "n": n},
        "code": {"k": draw(st.integers(1, n - 1))},
        "parts": [[q**j for j in range(n // 2)], [q**j for j in range(n // 2, n)]],
        "channel": {"t_values": [1, 2], "trials": 5, "seed": 0,
                    "mode": "exact-rank", "decode_trials": 0},
    }
    # (section, key or None for the whole section) -> replacement values
    entries = {
        (None, "field"): WRONG_TYPES, (None, "code"): WRONG_TYPES,
        (None, "parts"): st.one_of(WRONG_TYPES, st.lists(elements, max_size=3)),
        (None, "channel"): WRONG_TYPES,
        ("field", "q"): st.one_of(WRONG_TYPES, st.sampled_from([-1, 0, 1, 4, 6])),
        ("field", "n"): st.one_of(WRONG_TYPES, st.sampled_from([-1, 0, 1, 65])),
        ("field", "modulus"): st.one_of(WRONG_TYPES, st.lists(st.one_of(
            SMALL_INTS, WRONG_TYPES), max_size=n + 2)),
        ("code", "k"): st.one_of(WRONG_TYPES, SMALL_INTS),
        ("code", "g"): st.one_of(WRONG_TYPES, elements),
        ("code", "h"): st.one_of(WRONG_TYPES, elements),
        ("channel", "t_values"): st.one_of(WRONG_TYPES, st.lists(SMALL_INTS, max_size=3)),
        ("channel", "trials"): st.one_of(WRONG_TYPES, SMALL_INTS),
        ("channel", "seed"): st.one_of(WRONG_TYPES, SMALL_INTS),
        ("channel", "mode"): st.one_of(WRONG_TYPES, st.just("uniform-matrix")),
        ("channel", "decode_trials"): st.one_of(WRONG_TYPES, st.integers(-1, 2)),
    }
    keys = draw(st.lists(st.sampled_from(sorted(entries, key=str)),
                         min_size=1, max_size=3, unique=True))
    for section, key in keys:
        target = cfg if section is None else cfg.get(section)
        if not isinstance(target, dict):
            continue
        if draw(st.booleans()):
            target[key] = draw(entries[(section, key)])
        else:
            target.pop(key, None)
    return cfg


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fuzzed_configs())
def test_config_fuzz(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        for command in ("code-info", "simulate"):
            argv = [command, "--config", path, "--output", os.path.join(tmp, "out")]
            with bounded(5):
                code = main(argv)
            assert code in (0, 2), cfg
            event(f"{command} exit {code}")


def test_code_info_table_less_default_generator(tmp_path, capsys):
    path = tmp_path / "n20.json"
    path.write_text(json.dumps({"field": {"q": 2, "n": 20}, "code": {"k": 12}}))
    with bounded(5):
        assert main(["code-info", "--config", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["d"] == 9 and record["generator_rank"] == 20


# q > 256: no lookup table may have q entries, and the normal-element scan
# must not visit the q elements of GF(q), whose orbits have rank 1
HUGE_Q_RECORDS = {
    65537: {"capability": 0, "d": 2, "g": [65538, 4295032833], "generator_rank": 2,
            "h": [1, 2147549185], "k": 1, "length": 2, "modulus": [3, 0, 1], "n": 2,
            "parity_rank": 2, "q": 65537},
    1000000007: {"capability": 0, "d": 2, "g": [1000000008, 1000000013000000043],
                 "generator_rank": 2, "h": [1, 1000000013000000042], "k": 1, "length": 2,
                 "modulus": [1, 0, 1], "n": 2, "parity_rank": 2, "q": 1000000007},
}


@pytest.mark.parametrize("q", sorted(HUGE_Q_RECORDS))
def test_code_info_huge_q(tmp_path, capsys, q):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"field": {"q": q, "n": 2}, "code": {"k": 1}}))
    with bounded(10):
        assert main(["code-info", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == HUGE_Q_RECORDS[q]


# sparse moduli put the first basis element of nonzero trace near n (index
# 61 of 64 for q = 2), so no candidate below q^61 may be visited one by one
@pytest.mark.parametrize("q, n, k", [(2, 64, 32), (5, 20, 10), (3, 30, 15), (2, 33, 17)])
def test_code_info_top_of_accepted_range(tmp_path, capsys, q, n, k):
    path = tmp_path / "top.json"
    path.write_text(json.dumps({"field": {"q": q, "n": n}, "code": {"k": k}}))
    with bounded(30):
        assert main(["code-info", "--config", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["d"] == n - k + 1 and record["generator_rank"] == n
