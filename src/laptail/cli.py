"""Command-line harness for the estimators, simulators and studies.

Subcommands: estimate, simulate, table1, table2, convergence, decompound.
Reports are CSV rows with a fixed header per command (or a JSON array with
--json); sample data moves through the plain one-value-per-line file format.
Exit codes: 0 success, 2 I/O or sample-file failure, 3 invalid parameters.
Precedence: command-line flags over --config JSON over built-in defaults.

Two tables declare the commands. ``_COMMANDS`` names each subcommand once
with its handler and its settings' defaults; each setting is a flag typed
by ``_FLAGS``, which repeats when its default is a list. ``_MAPS`` names
each transform map with the setting it requires and the count law its
decompounding study samples. Handlers take the merged, typed settings.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys

from .errors import EstimationError, ParameterError, SampleFileError
from .estimator import EstimatorConfig, estimate_cdf_batch
from .simulation import (BinomialCounts, NegBinomialCounts, PoissonCounts,
                         QueueSpec, replication_rng, sample_compound_poisson,
                         simulate_mg1_workload)
from .studies import (DEFAULT_PERCENTILES, DEFAULT_RHOS, TABLE2_T_MAX,
                      convergence_rows, decompound_rows, table1_rows,
                      table2_rows)
from .transform_maps import (BinomialDecompound, Mg1Workload,
                             NegBinomialDecompound, PoissonDecompound)
from .transforms import (Deterministic, Exponential, Gamma, load_samples,
                         save_samples)

# Config keys whose JSON spelling differs from the setting's key; the flag
# is spelled the JSON way, and so is the setting's only config key.
_CONFIG_ALIASES = {"lambda": "lam"}
_OPTIONS = {key: f"--{alias}" for alias, key in _CONFIG_ALIASES.items()}

# Each transform map: its class with the setting it requires, and the count
# law its decompounding study samples with the settings that law takes.
_MAPS = {
    "mg1": ((Mg1Workload, "delta"), None),
    "poisson": ((PoissonDecompound,), (PoissonCounts, "lam")),
    "binomial": ((BinomialDecompound, "big_m"),
                 (BinomialCounts, "big_m", "p_success")),
    "negbinomial": ((NegBinomialDecompound, "big_m"),
                    (NegBinomialCounts, "big_m", "p_success")),
}

# Job-size laws by --job name; --job-params lists their fields in order.
_JOBS = {"exp": Exponential, "det": Deterministic, "gamma": Gamma}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems are parameter problems
        self.exit(3, f"{self.prog}: error: {message}\n")


def _option(key: str) -> str:
    return _OPTIONS.get(key, "--" + key.replace("_", "-"))


def _merged(args: argparse.Namespace) -> dict:
    """Apply precedence: flags > config file > defaults.

    A null config value, or an empty list for a repeating flag, keeps the
    default.
    """
    eff = dict(args.defaults)
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ParameterError("config file must hold a JSON object")
        for raw_key, value in loaded.items():
            key = _CONFIG_ALIASES.get(raw_key, raw_key.replace("-", "_"))
            if key not in eff or raw_key in _OPTIONS:
                raise ParameterError(f"unknown config key {raw_key!r}")
            if value is not None:
                value = _config_value(raw_key, value, args.flags[key])
            if value not in (None, []):
                eff[key] = value
    eff.update({key: value for key, value in vars(args).items()
                if key in eff and value is not None})
    return eff


def _config_value(raw_key: str, value, flag: dict):
    """A config value read as its flag reads the command line.

    ``--json`` takes true or false. A repeatable flag takes a list or one
    bare value. Any other value is a string or a number, converted by the
    flag's type from the text it would have on the command line, so
    {"n": 1000.0} fails as --n 1000.0 does, and it must be one of the
    flag's choices. A mismatch is a ParameterError that names the key.
    """
    action = flag.get("action")
    if action == "store_true":
        if isinstance(value, bool):
            return value
    elif action == "append":
        items = value if isinstance(value, list) else [value]
        return [_config_value(raw_key, item, {"type": flag["type"]})
                for item in items]
    elif isinstance(value, str) or type(value) in (int, float):
        try:
            typed = flag.get("type", str)(
                value if isinstance(value, str) else repr(value))
        except ValueError:
            pass
        else:
            if typed in flag.get("choices", [typed]):
                return typed
    raise ParameterError(f"config key {raw_key!r} cannot take {value!r}")


def _output(out_path: str | None):
    """out_path opened for writing with \\n line ends, else standard output."""
    return (open(out_path, "w", newline="") if out_path
            else contextlib.nullcontext(sys.stdout))


def _emit(rows: list[dict], out_path: str | None, as_json: bool) -> None:
    with _output(out_path) as stream:
        if as_json:
            json.dump(rows, stream, indent=2)
            stream.write("\n")
        elif rows:
            writer = csv.writer(stream, lineterminator="\n")
            header = list(rows[0])
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(row[k]) for k in header])


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _job_model(name: str, params: str):
    try:
        values = [float(tok) for tok in params.split(",") if tok.strip() != ""]
    except ValueError:
        raise ParameterError(f"bad --job-params {params!r}") from None
    model = _JOBS[name]
    fields = [field.name for field in dataclasses.fields(model)]
    if len(values) != len(fields):
        takes = ("one parameter", "two parameters")[len(fields) - 1]
        raise ParameterError(f"{name} job takes {takes}: {','.join(fields)}")
    return model(*values)


def _build(name: str, spec: tuple, eff: dict):
    """Instantiate the class of a ``_MAPS`` entry from the settings it names."""
    cls, *keys = spec
    for key in keys:
        if eff[key] is None:
            raise ParameterError(f"map {name} requires {_option(key)}")
    return cls(*(eff[key] for key in keys))


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_estimate(eff: dict) -> list[dict]:
    if not eff["samples"]:
        raise ParameterError("estimate requires --samples")
    if not eff["w"]:
        raise ParameterError("estimate requires at least one --w")
    transform_map = _build(eff["map"], _MAPS[eff["map"]][0], eff)
    samples = load_samples(eff["samples"])
    ws = eff["w"]
    config = EstimatorConfig(w=ws[0], t_max_override=eff["t_max"])
    return [{"w": w, "cdf": res.value, "tail": 1.0 - res.value,
             "on_domain_event": res.on_domain_event, "clipped": res.clipped,
             "t_max_used": res.t_max_used, "n": res.n,
             "fallback_reason": res.fallback_reason}
            for w, res in zip(ws, estimate_cdf_batch(samples, transform_map,
                                                     ws, config))]


def cmd_simulate(eff: dict) -> None:
    if eff["job"] is not None:
        jobs = _job_model(eff["job"], eff["job_params"] or "")
    else:
        jobs = Exponential(eff["mu"])
    rng = replication_rng(eff["seed"], 0)
    if eff["what"] == "totals":
        if eff["lam"] <= 0:
            raise ParameterError("totals need a positive arrival rate")
        samples = sample_compound_poisson(rng, eff["lam"] * eff["delta"],
                                          jobs, eff["n"])
    else:
        samples = simulate_mg1_workload(
            rng, QueueSpec(eff["lam"], jobs, eff["delta"]), eff["n"])
    with _output(eff["out"]) as stream:
        save_samples(samples, stream)


def cmd_table1(eff: dict) -> list[dict]:
    return table1_rows(eff["mu"], eff["rho"], eff["p"])


def cmd_table2(eff: dict) -> list[dict]:
    return table2_rows(seed=eff["seed"], rhos=eff["rho"], percentiles=eff["p"],
                       mu=eff["mu"], delta=eff["delta"], n=eff["n"],
                       reps=eff["reps"], t_max=eff["t_max"],
                       workers=eff["workers"])


def cmd_convergence(eff: dict) -> list[dict]:
    ws = eff["w"]
    if len(ws) > 1:
        raise ParameterError("convergence takes a single --w")
    return convergence_rows(seed=eff["seed"], ns=eff["n"], rho=eff["rho"],
                            mu=eff["mu"], delta=eff["delta"],
                            percentile=eff["p"], w=ws[0] if ws else None,
                            reps=eff["reps"], workers=eff["workers"])


def cmd_decompound(eff: dict) -> list[dict]:
    map_spec, count_spec = _MAPS[eff["map"]]
    if count_spec is None:
        raise ParameterError("decompound works with the counting maps, not mg1")
    transform_map = _build(eff["map"], map_spec, eff)
    jobs = _job_model(eff["job"], eff["job_params"])
    counts = _build(eff["map"], count_spec, eff)
    return decompound_rows(seed=eff["seed"], counts=counts, jobs=jobs,
                           transform_map=transform_map, ws=eff["w"],
                           n=eff["n"], reps=eff["reps"],
                           workers=eff["workers"])


# --------------------------------------------------------------------------
# Parser wiring
# --------------------------------------------------------------------------

# add_argument keywords of each setting's flag; config values are checked
# against the same keywords.
_FLAGS = {
    "samples": dict(metavar="PATH"),
    "map": dict(choices=list(_MAPS)),
    "delta": dict(type=float),
    "big_m": dict(type=int),
    "w": dict(type=float),
    "n": dict(type=int),
    "reps": dict(type=int),
    "seed": dict(type=int),
    "lam": dict(type=float),
    "mu": dict(type=float),
    "job": dict(choices=list(_JOBS)),
    "job_params": dict(),
    "t_max": dict(type=float),
    "out": dict(metavar="PATH"),
    "json": dict(action="store_true", default=None),
    "rho": dict(type=float),
    "p": dict(type=float),
    "p_success": dict(type=float),
    "workers": dict(type=int),
    "what": dict(choices=["totals", "workload"]),
}

# Each subcommand: handler, help line, and its settings in flag order with
# their defaults. Every subcommand also takes --config.
_COMMANDS = {
    "estimate": (cmd_estimate, "estimate a CDF from a sample file",
                 dict(samples=None, map="mg1", delta=None, big_m=None, w=[],
                      t_max=None, out=None, json=False)),
    "simulate": (cmd_simulate, "generate sample files",
                 dict(what="totals", lam=10.0, mu=20.0, job=None,
                      job_params=None, delta=0.1, n=10**4, seed=1, out=None)),
    "table1": (cmd_table1, "stationary percentile table",
               dict(mu=20.0, rho=list(DEFAULT_RHOS),
                    p=list(DEFAULT_PERCENTILES), out=None, json=False)),
    "table2": (cmd_table2, "estimator comparison study",
               dict(mu=20.0, rho=list(DEFAULT_RHOS),
                    p=list(DEFAULT_PERCENTILES), delta=0.1, n=10**4,
                    reps=100, seed=1, t_max=TABLE2_T_MAX, workers=1,
                    out=None, json=False)),
    "convergence": (cmd_convergence, "error decay in sample size",
                    dict(n=[100, 1000, 10000], rho=0.5, mu=20.0, delta=0.1,
                         p=0.9, w=[], reps=200, seed=1, workers=1,
                         out=None, json=False)),
    "decompound": (cmd_decompound, "jump-size recovery study",
                   dict(map="poisson", lam=1.0, p_success=0.5, big_m=None,
                        job="exp", job_params="1", n=10**4, reps=50,
                        w=[math.log(2.0)], seed=1, workers=1, out=None,
                        json=False)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="laptail",
                     description="Transform-based distribution estimation "
                                 "from interval totals, with queueing and "
                                 "decompounding studies.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)
    for command, (handler, help_line, defaults) in _COMMANDS.items():
        # no abbreviations: an unknown --c is an error, not --config
        sub = subs.add_parser(command, help=help_line, allow_abbrev=False)
        flags = {}
        for key, default in defaults.items():
            flags[key] = dict(_FLAGS[key], dest=key)
            if isinstance(default, list):
                flags[key]["action"] = "append"
            sub.add_argument(_option(key), **flags[key])
        sub.add_argument("--config", metavar="PATH")
        sub.set_defaults(handler=handler, defaults=defaults, flags=flags)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        eff = _merged(args)
        rows = args.handler(eff)
        if rows is not None:
            _emit(rows, eff["out"], eff["json"])
        return 0
    except SampleFileError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (EstimationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
