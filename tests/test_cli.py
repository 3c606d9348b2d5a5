"""Command-line behavior: schemas, exit codes, config precedence, determinism."""
import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import laptail
import laptail.studies
from laptail.cli import build_parser, main
from laptail.estimator import estimate_cdf_batch

W_90 = 0.16094379124341003


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# --- table1 ------------------------------------------------------------------

def test_table1_values(capsys):
    code, out, _ = run(["table1"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert [r["rho"] for r in rows[:3]] == ["0.5", "0.5", "0.5"]
    want = [0.1609, 0.3912, 0.6215, 1.0986, 2.2499, 3.4012,
            2.2513, 4.5539, 6.8565]
    got = [float(r["w"]) for r in rows]
    assert got == pytest.approx(want, abs=5e-4)


def test_table1_single_row_variant(capsys):
    code, out, _ = run(["table1", "--rho", "0.9"], capsys)
    rows = parse_csv(out)
    assert code == 0
    assert [float(r["w"]) for r in rows] == pytest.approx(
        [1.0986, 2.2499, 3.4012], abs=5e-4)


def test_table1_boundary_percentile_is_exit_3(capsys):
    code, _, err = run(["table1", "--rho", "0.5", "--p", "0.5"], capsys)
    assert code == 3
    assert "error" in err


# --- estimate + simulate -------------------------------------------------------

def test_estimate_pipeline_against_oracle(tmp_path, capsys):
    sample_file = tmp_path / "totals.txt"
    code, _, _ = run(["simulate", "--what", "totals", "--n", "8000",
                      "--seed", "11", "--out", str(sample_file)], capsys)
    assert code == 0
    code, out, _ = run(["estimate", "--samples", str(sample_file),
                        "--map", "mg1", "--delta", "0.1",
                        "--w", str(W_90), "--w", "0.3912023005"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["w", "cdf", "tail", "on_domain_event", "clipped",
                             "t_max_used", "n", "fallback_reason"]
    assert abs(float(rows[0]["cdf"]) - 0.9) < 0.05
    assert abs(float(rows[1]["cdf"]) - 0.99) < 0.03
    assert rows[0]["on_domain_event"] == "true"
    assert rows[0]["n"] == "8000"


def test_simulate_writes_parseable_files(tmp_path, capsys):
    path = tmp_path / "wl.txt"
    code, _, _ = run(["simulate", "--what", "workload", "--n", "200",
                      "--seed", "5", "--out", str(path)], capsys)
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 200
    assert all(float(line) >= 0.0 for line in lines)


def test_simulate_to_stdout(capsys):
    code, out, _ = run(["simulate", "--n", "5", "--seed", "5"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_simulate_stdout_matches_out_file(tmp_path, capsys):
    path = tmp_path / "totals.txt"
    argv = ["simulate", "--n", "50", "--seed", "3"]
    assert run(argv + ["--out", str(path)], capsys) == (0, "", "")
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.encode() == path.read_bytes()


@pytest.mark.parametrize("argv, want", [
    (["simulate", "--n", "5", "--seed", "3"],
     "0.0\n0.0\n0.03903155486041823\n0.022563019137758163\n0.0\n"),
    # gamma jobs start the queue empty and run a warm-up
    (["simulate", "--what", "workload", "--n", "5", "--seed", "3",
      "--job", "gamma", "--job-params", "2,0.025"],
     "0.006039423306837932\n0.0\n0.0\n0.0\n0.0\n"),
], ids=["totals", "workload-warm-up"])
def test_simulate_output_bits(argv, want, capsys):
    assert run(argv, capsys) == (0, want, "")


def test_estimate_empty_file_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, _, err = run(["estimate", "--samples", str(empty), "--map", "mg1",
                        "--delta", "0.1", "--w", "0.2"], capsys)
    assert code == 2
    assert "no samples" in err


def test_estimate_non_utf8_file_exit_2(tmp_path, capsys):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"1.0\n# caf\xe9\n")
    code, out, err = run(["estimate", "--samples", str(latin1), "--map", "mg1",
                          "--delta", "0.1", "--w", "0.2"], capsys)
    assert (code, out, err) == (2, "", f"{latin1}:2: not UTF-8 text\n")


def test_estimate_missing_file_exit_2(capsys):
    code, _, _ = run(["estimate", "--samples", "/nonexistent/x.txt",
                      "--map", "mg1", "--delta", "0.1", "--w", "0.2"], capsys)
    assert code == 2


def test_estimate_bad_delta_exit_3(tmp_path, capsys):
    # an infinite delta would read as a load of 0 and give cdf 1
    f = tmp_path / "s.txt"
    f.write_text("0.1\n0.2\n")
    for delta in ("-0.1", "inf", "nan"):
        code, out, err = run(["estimate", "--samples", str(f), "--map", "mg1",
                              "--delta", delta, "--w", "0.2"], capsys)
        assert code == 3
        assert out == ""
        assert "delta must be positive and finite" in err


@pytest.mark.parametrize("command, value", [
    ("estimate", "inf"), ("estimate", "nan"), ("decompound", "inf")])
def test_non_finite_w_exit_3(tmp_path, capsys, command, value):
    # an infinite w is positive, so the refusal must name finiteness too
    f = tmp_path / "s.txt"
    f.write_text("0.1\n0.2\n")
    argv = {"estimate": ["estimate", "--samples", str(f), "--map", "mg1",
                         "--delta", "1.0"],
            "decompound": ["decompound", "--n", "200", "--reps", "2"]}[command]
    code, out, err = run(argv + ["--w", value], capsys)
    assert code == 3
    assert out == ""
    assert "positive and finite" in err


def test_estimate_requires_w(tmp_path, capsys):
    f = tmp_path / "s.txt"
    f.write_text("0.1\n")
    code, _, _ = run(["estimate", "--samples", str(f), "--map", "mg1",
                      "--delta", "0.1"], capsys)
    assert code == 3


def test_unknown_flag_exit_3():
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--bogus"])
    assert exc.value.code == 3


def test_estimate_fallback_row_never_aborts(tmp_path, capsys):
    f = tmp_path / "unstable.txt"
    f.write_text("0.5\n0.7\n")  # mean far above delta
    code, out, _ = run(["estimate", "--samples", str(f), "--map", "mg1",
                        "--delta", "0.1", "--w", "0.2"], capsys)
    assert code == 0
    row = parse_csv(out)[0]
    assert row["on_domain_event"] == "false"
    assert row["fallback_reason"] == "domain_event"
    assert float(row["cdf"]) == 0.0


def test_estimate_at_a_w_past_any_grid_falls_back_to_capacity(tmp_path,
                                                              capsys):
    # at T = sqrt(100) the interval count of the grid overflows to inf at
    # w = 1e308, which raised OverflowError and exited 1 with a traceback
    f = tmp_path / "totals.txt"
    f.write_text("0.01\n0.03\n0.0\n0.02\n" * 25)
    code, out, err = run(["estimate", "--samples", str(f), "--delta", "0.1",
                          "--w", "1e308"], capsys)
    assert (code, err) == (0, "")
    row = parse_csv(out)[0]
    assert (row["cdf"], row["fallback_reason"]) == ("0", "capacity")


def test_convergence_at_a_w_past_any_grid_falls_back_to_capacity(
        capsys, monkeypatch):
    reasons = []

    def recording(*args):
        results = estimate_cdf_batch(*args)
        reasons.extend(r.fallback_reason for r in results)
        return results

    monkeypatch.setattr(laptail.studies, "estimate_cdf_batch", recording)
    code, out, err = run(["convergence", "--w", "1e308", "--reps", "2",
                          "--n", "100"], capsys)
    assert (code, err) == (0, "")
    assert reasons == ["capacity", "capacity"]
    assert parse_csv(out)[0]["mean_abs_error"] == "1"


# --- output modes and config ----------------------------------------------------

def test_json_output_matches_csv(capsys):
    code, csv_out, _ = run(["table1", "--rho", "0.5"], capsys)
    code2, json_out, _ = run(["table1", "--rho", "0.5", "--json"], capsys)
    assert code == 0 and code2 == 0
    csv_rows = parse_csv(csv_out)
    json_rows = json.loads(json_out)
    assert len(csv_rows) == len(json_rows) == 3
    for a, b in zip(csv_rows, json_rows):
        assert float(a["w"]) == pytest.approx(b["w"], abs=1e-9)


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "t1.csv"
    code, out, _ = run(["table1", "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    assert len(parse_csv(path.read_text())) == 9


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rho": [0.9], "p": [0.9, 0.99]}))
    code, out, _ = run(["table1", "--config", str(cfg)], capsys)
    rows = parse_csv(out)
    assert [r["rho"] for r in rows] == ["0.9", "0.9"]
    # explicit flag wins over the config value
    code, out, _ = run(["table1", "--config", str(cfg), "--rho", "0.5"], capsys)
    rows = parse_csv(out)
    assert [r["rho"] for r in rows] == ["0.5", "0.5"]


def test_config_unknown_key_exit_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, _ = run(["table1", "--config", str(cfg)], capsys)
    assert code == 3


def test_config_key_must_be_spelled_as_its_flag(tmp_path, capsys):
    # the setting of --lambda is refused under its inner name, as --lam is
    # on the command line; the flag's spelling and underscores are read
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": 5}))
    code, out, err = run(["simulate", "--n", "5", "--config", str(cfg)],
                         capsys)
    assert (code, out) == (3, "")
    assert "unknown config key 'lam'" in err
    cfg.write_text(json.dumps({"lambda": 5, "job_params": None}))
    by_config = run(["simulate", "--n", "5", "--config", str(cfg)], capsys)
    assert by_config == run(["simulate", "--n", "5", "--lambda", "5"], capsys)
    assert by_config[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "5", "--lam", "5"])
    assert exc.value.code == 3


@pytest.mark.parametrize("command, config, key", [
    (["table2"], {"n": [100]}, "n"),
    (["table2"], {"n": 100.0}, "n"),
    (["table2"], {"rho": ["0.5", True]}, "rho"),
    (["table1"], {"json": "false"}, "json"),
    (["table1"], {"json": 0}, "json"),
    (["table1"], {"mu": {"rate": 20}}, "mu"),
    (["estimate", "--samples", "x.txt"], {"map": ["mg1"]}, "map"),
    (["simulate"], {"job_params": [1, 2]}, "job_params"),
    # a value outside the flag's choices, as argparse rejects it on the
    # command line
    (["estimate", "--samples", "x.txt"], {"map": "bogus"}, "map"),
    (["decompound"], {"map": "bogus"}, "map"),
    (["simulate"], {"job": "bogus"}, "job"),
    (["simulate"], {"what": "bogus"}, "what"),
])
def test_config_value_of_wrong_shape_exit_3(tmp_path, capsys, command, config,
                                            key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(command + ["--config", str(cfg)], capsys)
    assert code == 3
    assert out == ""
    assert f"config key {key!r}" in err


def config_and_flag_outputs(tmp_path, capsys, command, config, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    by_config = run(command + ["--config", str(cfg)], capsys)
    by_flags = run(command + flags, capsys)
    return by_config, by_flags


@pytest.mark.parametrize("command, config, flags", [
    (["table2", "--reps", "1", "--n", "200", "--p", "0.9"],
     {"rho": 0.5}, ["--rho", "0.5"]),
    (["convergence", "--n", "100", "--reps", "2"], {"w": 0.5}, ["--w", "0.5"]),
    (["convergence", "--reps", "2"], {"n": 100}, ["--n", "100"]),
    (["table1"], {"p": 0.9, "json": True}, ["--p", "0.9", "--json"]),
    (["table1"], {"rho": [0.9], "json": False, "mu": "20"}, ["--rho", "0.9"]),
])
def test_config_bare_value_reads_like_its_flag(tmp_path, capsys, command,
                                               config, flags):
    by_config, by_flags = config_and_flag_outputs(tmp_path, capsys, command,
                                                  config, flags)
    assert by_config == by_flags
    assert by_config[0] == 0


def test_config_bare_w_for_estimate(tmp_path, capsys):
    samples = tmp_path / "totals.txt"
    assert run(["simulate", "--n", "2000", "--out", str(samples)], capsys)[0] == 0
    command = ["estimate", "--samples", str(samples), "--map", "mg1",
               "--delta", "0.1"]
    by_config, by_flags = config_and_flag_outputs(
        tmp_path, capsys, command, {"w": 0.5}, ["--w", "0.5"])
    assert by_config == by_flags
    assert by_config[0] == 0


def test_config_invalid_json_exit_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, _, _ = run(["table1", "--config", str(cfg)], capsys)
    assert code == 3


# --- studies through the CLI ------------------------------------------------------

def test_convergence_report_schema_and_slope(capsys):
    code, out, _ = run(["convergence", "--n", "100", "--n", "400",
                        "--reps", "10", "--seed", "2"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["n", "w", "truth_cdf", "mean_abs_error",
                             "stderr", "reps", "slope"]
    assert rows[0]["slope"] == rows[1]["slope"] != ""


def test_convergence_single_rung_has_no_slope(capsys):
    code, out, _ = run(["convergence", "--n", "100", "--reps", "5",
                        "--seed", "2"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0]["slope"] == ""


def test_convergence_repeated_sample_size_exit_3(capsys):
    code, out, err = run(["convergence", "--n", "100", "--n", "100",
                          "--reps", "3"], capsys)
    assert code == 3
    assert out == ""
    assert "sample sizes must be distinct" in err


def test_fixed_seed_output_is_identical(capsys):
    args = ["convergence", "--n", "100", "--reps", "8", "--seed", "77"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second


def test_stderr_shrinks_with_replications(capsys):
    args = ["convergence", "--n", "100", "--seed", "6"]
    _, small, _ = run(args + ["--reps", "25"], capsys)
    _, large, _ = run(args + ["--reps", "100"], capsys)
    ratio = float(parse_csv(small)[0]["stderr"]) / float(parse_csv(large)[0]["stderr"])
    assert 1.2 <= ratio <= 3.5  # target 2 = sqrt(100/25), Monte Carlo slack


def test_table2_tiny_run_schema(capsys):
    code, out, _ = run(["table2", "--rho", "0.5", "--reps", "3",
                        "--n", "1000", "--seed", "4"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 9  # 3 percentiles x 3 estimators
    assert list(rows[0]) == ["rho", "p", "w", "truth_tail", "estimator",
                             "mean_rel_error", "stderr", "reps"]
    names = {r["estimator"] for r in rows}
    assert names == {"laplace", "empirical", "laplace_censored"}


def test_decompound_fallback_rows_flagged(capsys):
    # tiny intensity, tiny n: many all-zero samples, command still succeeds
    code, out, _ = run(["decompound", "--lambda", "0.001", "--n", "20",
                        "--reps", "4", "--seed", "3"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert int(rows[0]["fallback_reps"]) >= 1


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("flags", [
    ["--lambda", "{}"],
    ["--job", "exp", "--job-params", "{}"],
    ["--job", "gamma", "--job-params", "{},1"],
    ["--job", "gamma", "--job-params", "1,{}"],
], ids=["count-rate", "exp-rate", "gamma-shape", "gamma-scale"])
def test_decompound_non_finite_parameter_exit_3(capsys, flags, value):
    # each is refused where its model is built, before any sample is drawn
    code, out, err = run(["decompound", "--n", "200", "--reps", "2"]
                         + [flag.format(value) for flag in flags], capsys)
    assert code == 3
    assert out == ""
    assert "must be positive and finite" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("flag", ["--lambda", "--delta"])
def test_simulate_non_finite_rate_exit_3(capsys, flag, value):
    # the totals' Poisson rate lambda * delta is refused by its count model
    # before any sample is drawn
    code, out, err = run(["simulate", "--n", "200", flag, value], capsys)
    assert code == 3
    assert out == ""
    assert "must be positive and finite" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_simulate_workload_non_finite_delta_exit_3(capsys, value):
    # refused by the queue's own spec before any event is drawn
    code, out, err = run(["simulate", "--what", "workload", "--n", "200",
                          "--delta", value], capsys)
    assert code == 3
    assert out == ""
    assert "delta must be positive and finite" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [["decompound", "--reps", "2"],
                                     ["simulate"]], ids=["decompound", "simulate"])
@pytest.mark.parametrize("job", [["gamma", "1e308,10"], ["det", "1e308"]],
                         ids=["gamma", "det"])
def test_sums_that_overflow_exit_3_without_a_warning(capsys, command, job):
    # finite parameters whose sums of two or more jobs overflow: the sums
    # are infinite, and the sample set refuses them with one error line
    code, out, err = run(command + ["--n", "200", "--job", job[0],
                                    "--job-params", job[1]], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: sample values must be finite\n"


@pytest.mark.filterwarnings("error")
def test_samples_whose_sum_overflows_exit_3_without_a_warning(capsys):
    # every total is finite, but 100 totals of about 1e307 sum past the
    # largest double, so the sample set has no finite mean
    code, out, err = run(["decompound", "--job", "gamma", "--job-params",
                          "1e307,1", "--n", "100", "--reps", "1"], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: sample values must have a finite sum\n"


def test_decompound_binomial_path(capsys):
    code, out, _ = run(["decompound", "--map", "binomial", "--big-m", "2",
                        "--p-success", "0.5", "--n", "2000", "--reps", "3",
                        "--seed", "8"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert abs(float(rows[0]["truth_cdf"]) - 0.5) < 1e-12
    assert float(rows[0]["mean_abs_error"]) < 0.2


def test_workers_flag_matches_sequential(capsys):
    base = ["convergence", "--n", "100", "--reps", "6", "--seed", "13"]
    _, seq, _ = run(base, capsys)
    _, par, _ = run(base + ["--workers", "2"], capsys)
    assert seq == par


@pytest.mark.parametrize("command", [
    ["table2", "--reps", "1", "--n", "200"],
    ["convergence", "--n", "100", "--reps", "2"],
    ["decompound", "--n", "200", "--reps", "2"],
])
@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_exit_3(tmp_path, capsys, command, workers):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": workers}))
    for extra in (["--workers", str(workers)], ["--config", str(cfg)]):
        code, out, err = run(command + extra, capsys)
        assert code == 3
        assert out == ""
        assert "need at least one worker" in err


# --- the command surface ----------------------------------------------------------

# Every subcommand's flags in parser order: option, dest, type, choices and
# kind ("one" value, "repeat"able, or a "switch" that takes no value).
FLAG_SURFACE = {
    "estimate": [
        ("--samples", "samples", None, None, "one"),
        ("--map", "map", None,
         ["mg1", "poisson", "binomial", "negbinomial"], "one"),
        ("--delta", "delta", float, None, "one"),
        ("--big-m", "big_m", int, None, "one"),
        ("--w", "w", float, None, "repeat"),
        ("--t-max", "t_max", float, None, "one"),
        ("--out", "out", None, None, "one"),
        ("--json", "json", None, None, "switch"),
        ("--config", "config", None, None, "one"),
    ],
    "simulate": [
        ("--what", "what", None, ["totals", "workload"], "one"),
        ("--lambda", "lam", float, None, "one"),
        ("--mu", "mu", float, None, "one"),
        ("--job", "job", None, ["exp", "det", "gamma"], "one"),
        ("--job-params", "job_params", None, None, "one"),
        ("--delta", "delta", float, None, "one"),
        ("--n", "n", int, None, "one"),
        ("--seed", "seed", int, None, "one"),
        ("--out", "out", None, None, "one"),
        ("--config", "config", None, None, "one"),
    ],
    "table1": [
        ("--mu", "mu", float, None, "one"),
        ("--rho", "rho", float, None, "repeat"),
        ("--p", "p", float, None, "repeat"),
        ("--out", "out", None, None, "one"),
        ("--json", "json", None, None, "switch"),
        ("--config", "config", None, None, "one"),
    ],
    "table2": [
        ("--mu", "mu", float, None, "one"),
        ("--rho", "rho", float, None, "repeat"),
        ("--p", "p", float, None, "repeat"),
        ("--delta", "delta", float, None, "one"),
        ("--n", "n", int, None, "one"),
        ("--reps", "reps", int, None, "one"),
        ("--seed", "seed", int, None, "one"),
        ("--t-max", "t_max", float, None, "one"),
        ("--workers", "workers", int, None, "one"),
        ("--out", "out", None, None, "one"),
        ("--json", "json", None, None, "switch"),
        ("--config", "config", None, None, "one"),
    ],
    "convergence": [
        ("--n", "n", int, None, "repeat"),
        ("--rho", "rho", float, None, "one"),
        ("--mu", "mu", float, None, "one"),
        ("--delta", "delta", float, None, "one"),
        ("--p", "p", float, None, "one"),
        ("--w", "w", float, None, "repeat"),
        ("--reps", "reps", int, None, "one"),
        ("--seed", "seed", int, None, "one"),
        ("--workers", "workers", int, None, "one"),
        ("--out", "out", None, None, "one"),
        ("--json", "json", None, None, "switch"),
        ("--config", "config", None, None, "one"),
    ],
    "decompound": [
        ("--map", "map", None,
         ["mg1", "poisson", "binomial", "negbinomial"], "one"),
        ("--lambda", "lam", float, None, "one"),
        ("--p-success", "p_success", float, None, "one"),
        ("--big-m", "big_m", int, None, "one"),
        ("--job", "job", None, ["exp", "det", "gamma"], "one"),
        ("--job-params", "job_params", None, None, "one"),
        ("--n", "n", int, None, "one"),
        ("--reps", "reps", int, None, "one"),
        ("--w", "w", float, None, "repeat"),
        ("--seed", "seed", int, None, "one"),
        ("--workers", "workers", int, None, "one"),
        ("--out", "out", None, None, "one"),
        ("--json", "json", None, None, "switch"),
        ("--config", "config", None, None, "one"),
    ],
}

_KINDS = {argparse._StoreAction: "one", argparse._AppendAction: "repeat",
          argparse._StoreTrueAction: "switch"}


def test_flag_surface_of_every_subcommand():
    parser = build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    got = {name: [(" ".join(a.option_strings), a.dest, a.type, a.choices,
                   _KINDS[type(a)])
                  for a in sub._actions
                  if not isinstance(a, argparse._HelpAction)]
           for name, sub in subs.choices.items()}
    assert list(got) == list(FLAG_SURFACE)
    for name, flags in FLAG_SURFACE.items():
        assert got[name] == flags, name


@pytest.mark.parametrize("command", [
    ["estimate", "--samples", "x.txt", "--w", "0.5"],
    ["table2", "--reps", "1"],
    ["convergence", "--reps", "1"],
    ["decompound", "--reps", "1"],
])
def test_contour_abscissa_is_not_a_setting(tmp_path, capsys, command):
    # neither as a flag, nor as an abbreviation of --config, nor in a config
    with pytest.raises(SystemExit) as exc:
        main(command + ["--c", "1"])
    assert exc.value.code == 3
    assert "unrecognized arguments: --c" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c": 1}))
    code, out, err = run(command + ["--config", str(cfg)], capsys)
    assert (code, out) == (3, "")
    assert "unknown config key 'c'" in err


def run_python(*args: str) -> subprocess.CompletedProcess:
    # a fresh interpreter that imports this checkout's laptail
    package_root = str(Path(laptail.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60, check=False)


def test_python_dash_m_runs_main(capsys):
    assert main(["table1"]) == 0
    want = capsys.readouterr().out
    proc = run_python("-m", "laptail", "table1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")


def test_import_defers_scipy_special_and_process_pools():
    # a fresh interpreter, every warning an error: importing the package,
    # its command line and its studies loads neither scipy.special nor the
    # process pool; Gamma.cdf imports gammainc on its first call and
    # returns its values bit for bit
    script = """
import sys
import laptail, laptail.cli, laptail.studies
loaded = {"scipy.special", "concurrent.futures.process"} & set(sys.modules)
assert not loaded, loaded
import numpy as np
got = laptail.Gamma(20, 0.05).cdf([0.5, 1, 1.5])
from scipy.special import gammainc
want = gammainc(20, np.array([0.5, 1.0, 1.5]) / 0.05)
assert got.tobytes() == want.tobytes(), (got, want)
"""
    proc = run_python("-W", "error", "-c", script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
