"""Command-line harness for the estimators, simulators and studies.

Subcommands: estimate, simulate, table1, table2, convergence, decompound.
Reports are CSV rows with a fixed header per command (or a JSON array with
--json); sample data moves through the plain one-value-per-line file format.
Exit codes: 0 success, 2 I/O or sample-file failure, 3 invalid parameters.
Precedence: command-line flags over --config JSON over built-in defaults.
"""
from __future__ import annotations

import argparse
import csv
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

# Config keys whose JSON spelling differs from the argparse destination.
_CONFIG_ALIASES = {"lambda": "lam"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems are parameter problems
        self.exit(3, f"{self.prog}: error: {message}\n")


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    """Apply precedence: flags > config file > defaults."""
    eff = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ParameterError("config file must hold a JSON object")
        for raw_key, value in loaded.items():
            key = _CONFIG_ALIASES.get(raw_key, raw_key.replace("-", "_"))
            if key not in eff:
                raise ParameterError(f"unknown config key {raw_key!r}")
            if value is not None:
                eff[key] = _config_value(raw_key, value, args.flags[key])
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            eff[key] = value
    return eff


def _config_value(raw_key: str, value, flag: dict):
    """A config value read as its flag reads the command line.

    ``--json`` takes true or false. A repeatable flag takes a list or one
    bare value. Any other value is a string or a number, converted by the
    flag's type from the text it would have on the command line, so
    {"n": 1000.0} fails as --n 1000.0 does. A mismatch is a ParameterError
    that names the key.
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
            return flag.get("type", str)(
                value if isinstance(value, str) else repr(value))
        except ValueError:
            pass
    raise ParameterError(f"config key {raw_key!r} cannot take {value!r}")


def _emit(rows: list[dict], out_path: str | None, as_json: bool) -> None:
    def write(stream):
        if as_json:
            json.dump(rows, stream, indent=2)
            stream.write("\n")
            return
        if not rows:
            return
        writer = csv.writer(stream, lineterminator="\n")
        header = list(rows[0])
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(row[k]) for k in header])

    if out_path:
        with open(out_path, "w", newline="") as fh:
            write(fh)
    else:
        write(sys.stdout)


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
    if name == "exp":
        if len(values) != 1:
            raise ParameterError("exp job takes one parameter: rate")
        return Exponential(values[0])
    if name == "det":
        if len(values) != 1:
            raise ParameterError("det job takes one parameter: point")
        return Deterministic(values[0])
    if name == "gamma":
        if len(values) != 2:
            raise ParameterError("gamma job takes two parameters: shape,scale")
        return Gamma(values[0], values[1])
    raise ParameterError(f"unknown job model {name!r}")


def _transform_map(name: str, delta, big_m):
    if name == "mg1":
        if delta is None:
            raise ParameterError("map mg1 requires --delta")
        return Mg1Workload(float(delta))
    if name == "poisson":
        return PoissonDecompound()
    if name in ("binomial", "negbinomial"):
        if big_m is None:
            raise ParameterError(f"map {name} requires --big-m")
        cls = BinomialDecompound if name == "binomial" else NegBinomialDecompound
        return cls(int(big_m))
    raise ParameterError(f"unknown map {name!r}")


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

_ESTIMATE_DEFAULTS = dict(samples=None, map="mg1", delta=None, big_m=None,
                          w=None, c=1.0, t_max=None, out=None, json=False)


def cmd_estimate(args: argparse.Namespace) -> int:
    eff = _merged(args, _ESTIMATE_DEFAULTS)
    if not eff["samples"]:
        raise ParameterError("estimate requires --samples")
    if not eff["w"]:
        raise ParameterError("estimate requires at least one --w")
    transform_map = _transform_map(eff["map"], eff["delta"], eff["big_m"])
    samples = load_samples(eff["samples"])
    ws = [float(w) for w in eff["w"]]
    config = EstimatorConfig(w=ws[0], c=float(eff["c"]),
                             t_max_override=eff["t_max"])
    rows = []
    for w, res in zip(ws, estimate_cdf_batch(samples, transform_map, ws, config)):
        rows.append({"w": w, "cdf": res.value, "tail": 1.0 - res.value,
                     "on_domain_event": res.on_domain_event,
                     "clipped": res.clipped,
                     "t_max_used": res.t_max_used, "n": res.n,
                     "fallback_reason": res.fallback_reason})
    _emit(rows, eff["out"], eff["json"])
    return 0


_SIMULATE_DEFAULTS = dict(what="totals", lam=10.0, mu=20.0, job=None,
                          job_params=None, delta=0.1, n=10**4, seed=1,
                          out=None)


def cmd_simulate(args: argparse.Namespace) -> int:
    eff = _merged(args, _SIMULATE_DEFAULTS)
    if eff["job"] is not None:
        jobs = _job_model(eff["job"], eff["job_params"] or "")
    else:
        jobs = Exponential(float(eff["mu"]))
    rng = replication_rng(int(eff["seed"]), 0)
    n = int(eff["n"])
    lam = float(eff["lam"])
    delta = float(eff["delta"])
    if eff["what"] == "totals":
        if lam <= 0:
            raise ParameterError("totals need a positive arrival rate")
        samples = sample_compound_poisson(rng, lam * delta, jobs, n)
    elif eff["what"] == "workload":
        samples = simulate_mg1_workload(rng, QueueSpec(lam, jobs, delta), n)
    else:
        raise ParameterError(f"unknown simulation target {eff['what']!r}")
    if eff["out"]:
        save_samples(samples, eff["out"])
    else:
        for v in samples.values:
            sys.stdout.write(f"{float(v)!r}\n")
    return 0


_TABLE1_DEFAULTS = dict(mu=20.0, rho=None, p=None, out=None, json=False)


def cmd_table1(args: argparse.Namespace) -> int:
    eff = _merged(args, _TABLE1_DEFAULTS)
    rhos = [float(r) for r in (eff["rho"] or DEFAULT_RHOS)]
    ps = [float(p) for p in (eff["p"] or DEFAULT_PERCENTILES)]
    rows = table1_rows(float(eff["mu"]), rhos, ps)
    _emit(rows, eff["out"], eff["json"])
    return 0


_TABLE2_DEFAULTS = dict(mu=20.0, rho=None, p=None, delta=0.1, n=10**4,
                        reps=100, seed=1, c=1.0, t_max=TABLE2_T_MAX,
                        workers=1, out=None, json=False)


def cmd_table2(args: argparse.Namespace) -> int:
    eff = _merged(args, _TABLE2_DEFAULTS)
    rows = table2_rows(seed=int(eff["seed"]),
                       rhos=[float(r) for r in (eff["rho"] or DEFAULT_RHOS)],
                       percentiles=[float(p) for p in (eff["p"] or DEFAULT_PERCENTILES)],
                       mu=float(eff["mu"]), delta=float(eff["delta"]),
                       n=int(eff["n"]), reps=int(eff["reps"]),
                       c=float(eff["c"]), t_max=float(eff["t_max"]),
                       workers=int(eff["workers"]))
    _emit(rows, eff["out"], eff["json"])
    return 0


_CONVERGENCE_DEFAULTS = dict(n=None, rho=0.5, mu=20.0, delta=0.1, p=0.9,
                             w=None, reps=200, seed=1, c=1.0, workers=1,
                             out=None, json=False)


def cmd_convergence(args: argparse.Namespace) -> int:
    eff = _merged(args, _CONVERGENCE_DEFAULTS)
    ws = eff["w"]
    if ws is not None and len(ws) != 1:
        raise ParameterError("convergence takes a single --w")
    rows = convergence_rows(seed=int(eff["seed"]),
                            ns=[int(n) for n in (eff["n"] or (100, 1000, 10000))],
                            rho=float(eff["rho"]), mu=float(eff["mu"]),
                            delta=float(eff["delta"]),
                            percentile=float(eff["p"]),
                            w=None if ws is None else float(ws[0]),
                            reps=int(eff["reps"]), c=float(eff["c"]),
                            workers=int(eff["workers"]))
    _emit(rows, eff["out"], eff["json"])
    return 0


_DECOMPOUND_DEFAULTS = dict(map="poisson", lam=1.0, p_success=0.5, big_m=None,
                            job="exp", job_params="1", n=10**4, reps=50,
                            w=None, seed=1, c=1.0, workers=1, out=None,
                            json=False)


def cmd_decompound(args: argparse.Namespace) -> int:
    eff = _merged(args, _DECOMPOUND_DEFAULTS)
    name = eff["map"]
    if name == "mg1":
        raise ParameterError("decompound works with the counting maps, not mg1")
    transform_map = _transform_map(name, None, eff["big_m"])
    jobs = _job_model(eff["job"], eff["job_params"])
    if name == "poisson":
        counts = PoissonCounts(float(eff["lam"]))
    elif name == "binomial":
        counts = BinomialCounts(int(eff["big_m"]), float(eff["p_success"]))
    else:
        counts = NegBinomialCounts(int(eff["big_m"]), float(eff["p_success"]))
    ws = [float(w) for w in (eff["w"] or [math.log(2.0)])]
    rows = decompound_rows(seed=int(eff["seed"]), counts=counts, jobs=jobs,
                           transform_map=transform_map, ws=ws,
                           n=int(eff["n"]), reps=int(eff["reps"]),
                           c=float(eff["c"]), workers=int(eff["workers"]))
    _emit(rows, eff["out"], eff["json"])
    return 0


# --------------------------------------------------------------------------
# Parser wiring
# --------------------------------------------------------------------------

# Flags the subcommands pick from: name -> (option strings, add_argument
# keywords). Config values are checked against the same keywords.
_FLAGS = {
    "samples": (("--samples",), dict(metavar="PATH")),
    "map": (("--map",), dict(choices=["mg1", "poisson", "binomial", "negbinomial"])),
    "delta": (("--delta",), dict(type=float)),
    "big_m": (("--big-m",), dict(dest="big_m", type=int)),
    "w": (("--w",), dict(type=float, action="append")),
    "c": (("--c",), dict(type=float)),
    "n": (("--n",), dict(type=int)),
    "n_list": (("--n",), dict(type=int, action="append")),
    "reps": (("--reps",), dict(type=int)),
    "seed": (("--seed",), dict(type=int)),
    "lam": (("--lambda",), dict(dest="lam", type=float)),
    "mu": (("--mu",), dict(type=float)),
    "job": (("--job",), dict(choices=["exp", "det", "gamma"])),
    "job_params": (("--job-params",), dict(dest="job_params")),
    "t_max": (("--t-max",), dict(dest="t_max", type=float)),
    "out": (("--out",), dict(metavar="PATH")),
    "json": (("--json",), dict(action="store_true", default=None)),
    "config": (("--config",), dict(metavar="PATH")),
    "rho": (("--rho",), dict(type=float, action="append")),
    "rho_one": (("--rho",), dict(type=float)),
    "p": (("--p",), dict(type=float, action="append")),
    "p_one": (("--p",), dict(type=float)),
    "p_success": (("--p-success",), dict(dest="p_success", type=float)),
    "workers": (("--workers",), dict(type=int)),
    "what": (("--what",), dict(choices=["totals", "workload"])),
}


def _add_common(sub: argparse.ArgumentParser, *names: str) -> None:
    flags = {}
    for name in names:
        options, keywords = _FLAGS[name]
        flags[sub.add_argument(*options, **keywords).dest] = keywords
    sub.set_defaults(flags=flags)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="laptail",
                     description="Transform-based distribution estimation "
                                 "from interval totals, with queueing and "
                                 "decompounding studies.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    est = subs.add_parser("estimate", help="estimate a CDF from a sample file")
    _add_common(est, "samples", "map", "delta", "big_m", "w", "c", "t_max",
                "out", "json", "config")
    est.set_defaults(handler=cmd_estimate)

    sim = subs.add_parser("simulate", help="generate sample files")
    _add_common(sim, "what", "lam", "mu", "job", "job_params", "delta", "n",
                "seed", "out", "config")
    sim.set_defaults(handler=cmd_simulate)

    t1 = subs.add_parser("table1", help="stationary percentile table")
    _add_common(t1, "mu", "rho", "p", "out", "json", "config")
    t1.set_defaults(handler=cmd_table1)

    t2 = subs.add_parser("table2", help="estimator comparison study")
    _add_common(t2, "mu", "rho", "p", "delta", "n", "reps", "seed", "c",
                "t_max", "workers", "out", "json", "config")
    t2.set_defaults(handler=cmd_table2)

    conv = subs.add_parser("convergence", help="error decay in sample size")
    _add_common(conv, "n_list", "rho_one", "mu", "delta", "p_one", "w", "reps",
                "seed", "c", "workers", "out", "json", "config")
    conv.set_defaults(handler=cmd_convergence)

    dec = subs.add_parser("decompound", help="jump-size recovery study")
    _add_common(dec, "map", "lam", "p_success", "big_m", "job", "job_params",
                "n", "reps", "w", "seed", "c", "workers", "out", "json",
                "config")
    dec.set_defaults(handler=cmd_decompound)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
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
