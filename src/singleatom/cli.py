"""Scenario runner: parse a config, dispatch one computation, write CSV.

All boundary values use lab units encoded in the flag names (MHz, mW,
mW/cm^2, um, uK, ns, mGauss).  The flag checks convert the time flags of
``_SI`` to SI; a scenario's check and runner convert the flags they compute
with.  A JSON config file may supply any flag value (keys match the long
flag names with underscores); explicit command-line flags override the file.
Outputs are deterministic: identical inputs give byte-identical files.

Each scenario is one entry of ``SPECS``: its runner, its family module and
one ``Flag`` per flag.  The parsers, validation, config coercion, ``list``
and the metadata sidecar all read that table.  A refusal that names flags
with their values gets that text from ``cli_common._named`` alone.

Two parsers read the flags a command line gives, and ``_args`` resolves
them in one merge: each flag's table default, under the --config file's
values, under the command line.  A plain line is read from the table alone
(``_plain_args``): the scenario or ``list`` first, then exact flag names or
aliases, each ``--name=value`` or ``--name value``, switches bare, every
value converting with its kind's type, and a separate value that starts
with "-" a negative number by argparse's rule.  argparse (``build_parser``)
reads the given flags of every other line, or prints its help text or usage
error: --help, --version, a bare call, an unknown or abbreviated flag, a
value that does not convert or looks like an option, ``--`` alone or as a
value, a switch given a value.  argparse builds the invoked scenario's
subparser alone.

This module is what every run compiles: the table, the parsers, the flag
checks, the config merge, the CSV writer and ``main``, on the standard
library and ``cli_common`` (``json`` only for --config and --metadata,
``argparse`` only for the lines it reads).  A scenario's check and runner
live in its family module (``cli_beam``, ``cli_g2``, ``cli_readout``,
``cli_spectrum``), imported once its flags pass.

Exit codes: 0 success, 2 validation error, 3 numerical failure (also an
allocation that fails with ``MemoryError``).
"""

import math
import os
import sys
import warnings
from collections import namedtuple
from importlib import import_module
from itertools import chain
from types import SimpleNamespace

from . import __version__
from .cli_common import MAX_POINTS, ValidationError, _derived, _named

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# upper bound on loading --n-max; each rate's law is n_max + 1 values
MAX_ATOMS = 1000


def _column(values, name: str) -> tuple[str, list]:
    """The format field and values of one column; a float that is not finite
    is refused.  A float column is printed with 12 significant digits by the
    row template ("%.12g", the bytes of ``format(v, ".12g")``, faster than
    ``str.format``); any other column (labels, mixed values) value by value."""
    floats = all(type(v) is float for v in values)
    checked = values if floats else [v for v in values if isinstance(v, float)]
    if not all(map(math.isfinite, checked)):
        bad = next(v for v in checked if not math.isfinite(v))
        raise FloatingPointError(f"non-finite value {bad} in column {name}")
    if floats:
        return "%.12g", values
    return "%s", [format(v, ".12g") if isinstance(v, float) else str(v) for v in values]


def _write_csv(path: str | None, header: list[str], columns: list,
               meta: dict | None) -> None:
    """Format every value before writing, so a non-finite one leaves no file.

    ``columns`` holds one sequence per header name, all of one length; every
    row is printed by one template, applied once to the table's values.
    ``meta`` goes to the JSON sidecar.  A failed write raises ValidationError
    naming the path, and a failed write or allocation leaves no CSV.
    """
    fields, values = zip(*(_column(c, name) for c, name in zip(columns, header)))
    template = ",".join(header) + "\n" + (",".join(fields) + "\n") * len(values[0])
    text = template % tuple(chain.from_iterable(zip(*values)))
    if path is None:
        sys.stdout.write(text)
        return
    opened = False
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            opened = True
            fh.write(text)
        if meta is not None:
            import json

            with open(path + ".meta.json", "w", encoding="utf-8", newline="\n") as fh:
                json.dump(meta, fh, indent=2, sort_keys=True)
                fh.write("\n")
    except (OSError, MemoryError) as exc:
        if opened:  # the CSV was opened, so it is ours to remove
            os.remove(path)
        if isinstance(exc, MemoryError):
            raise
        raise ValidationError(f"cannot write {exc.filename or path}: {exc.strerror}") from exc


def _metadata(scenario: str, params: dict, method: str, diagnostics: dict) -> dict:
    """The sidecar: the scenario, the resolved parameters, the
    time-evolution method the runner reported ("none" where no state was
    evolved) and the numerical diagnostics the kernels reported (empty where
    they report none)."""
    return {
        "scenario": scenario,
        "library_version": __version__,
        "integrator": {"method": method},
        "diagnostics": diagnostics,
        "parameters": {k: params[k] for k in sorted(params)},
    }


def _parse_grid(spec: str, name: str) -> list[float]:
    """Parse 'start..stop:step' (inclusive endpoints) or a single number.

    The points are ``start + step * k``, bit for bit those of
    ``start + step * np.arange(n + 1)``.
    """
    try:
        if ".." in spec:
            span, step = spec.split(":")
            start, stop = span.split("..")
            start, stop, step = float(start), float(stop), float(step)
            if not (math.isfinite(start) and math.isfinite(stop)
                    and math.isfinite(step)) or step <= 0 or stop < start:
                raise ValueError
            intervals = (stop - start) / step
            if intervals >= MAX_POINTS:
                raise ValidationError(f"{name}: more than {MAX_POINTS} grid points")
            n = int(round(intervals))
            return [start + step * k for k in range(n + 1)]
        value = float(spec)
        if not math.isfinite(value):
            raise ValueError
        return [value]
    except ValueError as exc:
        raise ValidationError(
            f"{name}: expected a finite number or 'start..stop:step', got {spec!r}"
        ) from exc


# --- the scenario table -----------------------------------------------------


class Flag(namedtuple("Flag", "name kind default required check alias help",
                      defaults=("float", None, False, None, None, None))):
    """One flag of a scenario; its config key is the name with underscores.

    ``kind`` is float, int, str, grid (a number or 'a..b:step', parsed in
    validation), bracket ('lo,hi'), choice or switch.  ``required`` is
    True, or the (dest, value) of another flag under which this one is
    required.  ``check`` is 'positive', 'unit' (in [0, 1]) or 'nonnegative'
    for a float or every point of a grid, an inclusive (lo, hi) range for
    an int, and the allowed values of a choice.  No CLI run imports ``typing``.
    """

    __slots__ = ()

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


def _bracket(value: str):
    try:
        lo, hi = map(float, value.split(","))
    except ValueError:  # not two numbers
        raise ValueError("expected 'lo,hi' in um") from None
    return lo, hi


def _is_number(value) -> bool:
    """A JSON number that converts to a float (bools and huge ints do not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


# kind -> (type of a string value, what a non-string config value must be, its test)
_STRING = (str, "a string", lambda v: False)
_KINDS = {
    "float": (float, "a number", _is_number),
    "int": (int, "an integer", lambda v: isinstance(v, int) and _is_number(v)),
    "bracket": (_bracket, "'lo,hi' or [lo, hi]",
                lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))),
    "str": _STRING,
    "grid": _STRING,
    "choice": _STRING,
    "switch": (None, "true or false", lambda v: isinstance(v, bool)),
}

# float check -> (rule, test of one value)
_RULES = {
    "positive": ("must be positive and finite (unit in the key name)", lambda v: v > 0),
    "unit": ("must lie in [0, 1]", lambda v: 0 <= v <= 1),
    "nonnegative": ("must be nonnegative", lambda v: v >= 0),
}


# the positive flags whose SI value the run computes with: dest -> (quantity, unit in SI)
_SI = {"tau_max_ns": ("longest delay (s)", 1e-9), "t_max_us": ("longest time (s)", 1e-6),
       "env_tau_us": ("envelope decay time (s)", 1e-6), "cycle_us": ("cycle time (s)", 1e-6)}


def _check_flag(args, flag: Flag) -> None:
    """Refuse one flag's value with a ValidationError.  A grid is parsed
    here, once: the runner reads its points as ``args.<dest>_grid``."""
    value = getattr(args, flag.dest)
    if value is None:
        when = flag.required
        if when is True or (when and getattr(args, when[0]) == when[1]):
            raise ValidationError(f"missing required key --{flag.name}")
        return
    values = value if flag.kind == "bracket" else (value,)
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        raise ValidationError(f"{_named(args, (flag.name,))} must be finite")
    if flag.kind == "grid":
        values = _parse_grid(value, f"--{flag.name}")
        setattr(args, f"{flag.dest}_grid", values)
    check = flag.check
    if check is None:
        return
    if flag.kind == "choice":
        rule, ok = f"must be one of {', '.join(check)}", value in check
    elif flag.kind == "int":
        rule, ok = f"must lie in [{check[0]}, {check[1]}]", check[0] <= value <= check[1]
    else:
        rule, test = _RULES[check]
        ok = all(test(v) for v in values)
    if not ok:
        raise ValidationError(f"{_named(args, (flag.name,))} {rule}")
    if flag.dest in _SI:
        quantity, unit = _SI[flag.dest]
        _derived(args, (flag.name,), quantity, lambda: value * unit)


_COMMON = (Flag("config", "str", help="JSON file with flag values (flags override)"),
           Flag("out", "str", help="output CSV path (default: stdout)"),
           Flag("metadata", "switch", default=False,
                help="write a JSON sidecar with resolved parameters"),
           Flag("validate-only", "switch", default=False,
                help="validate the configuration and exit"))

_TRAP_BEAM = (Flag("power-mw", required=True, check="positive"),
              Flag("waist-um", required=True, check="positive"),
              Flag("wavelength-nm", default=856.0, check="positive"))


def _family(scenario: str) -> tuple:
    """(runner, check or None) of ``scenario`` from its family module,
    imported here, once the scenario's flags pass.  A check raises
    ValidationError."""
    return import_module(f"{__package__}.{SPECS[scenario][1]}").RUNS[scenario]


# the runners, by the names that the benchmark's tracer times
def run_lightshift(args): return _family("lightshift")[0](args)
def run_magic(args): return _family("magic")[0](args)
def run_trap(args): return _family("trap")[0](args)
def run_loading(args): return _family("loading")[0](args)
def run_g2(args): return _family("g2")[0](args)
def run_stirap(args): return _family("stirap")[0](args)
def run_larmor(args): return _family("larmor")[0](args)
def run_bell(args): return _family("bell")[0](args)
def run_correlations(args): return _family("correlations")[0](args)
def run_spectrum_fit(args): return _family("spectrum-fit")[0](args)
def run_pair_rate(args): return _family("pair-rate")[0](args)


# scenario -> (runner, family module, *flags).  A plain tuple, so the runner
# stays reachable when a tracer rebinds it
SPECS = {
    "lightshift": (run_lightshift, "cli_beam", *_TRAP_BEAM),
    "magic": (run_magic, "cli_beam", Flag("bracket-um", "bracket", default=(1.2, 1.6))),
    "trap": (run_trap, "cli_beam", *_TRAP_BEAM),
    "loading": (run_loading, "cli_beam",
                Flag("rate-per-s", "grid", required=True, check="nonnegative",
                     help="loading rate R, number or 'a..b:step'"),
                *_TRAP_BEAM,
                Flag("gamma-per-s", default=0.2, check="nonnegative"),
                Flag("beta-cm3-s", default=5e-10, check="positive"),
                Flag("temperature-uk", default=100.0, check="positive"),
                Flag("n-max", "int", default=5, check=(1, MAX_ATOMS))),
    "g2": (run_g2, "cli_g2",
           Flag("model", "choice", default="four-level",
                check=("two-level-analytic", "two-level-obe", "four-level", "full")),
           Flag("delta-mhz", required=True, help="cooling detuning / 2pi (MHz)"),
           Flag("delta-rl-mhz", default=0.0),
           Flag("icl-mw-cm2", required=True, check="nonnegative", alias="icl"),
           Flag("irl-mw-cm2", default=12.0, check="positive", alias="irl"),
           Flag("tau-max-ns", default=200.0, check="positive"),
           Flag("points", "int", default=801, check=(2, MAX_POINTS)),
           Flag("env-a", required=("model", "full"), check="nonnegative"),
           Flag("env-tau-us", required=("model", "full"), check="positive"),
           Flag("trap-power-mw", check="positive"),
           Flag("trap-waist-um", check="positive"),
           Flag("trap-wavelength-nm", default=856.0, check="positive"),
           Flag("kinetic-uk", default=100.0, check="nonnegative")),
    "stirap": (run_stirap, "cli_readout",
               Flag("alpha-deg", "grid", required=True,
                    help="polarization angle, number or 'a..b:step'"),
               Flag("visibility", default=1.0, check="unit"),
               Flag("prep-phase-rad", default=0.0)),
    "larmor": (run_larmor, "cli_readout",
               Flag("b-mgauss", required=True),
               Flag("g-f", default=-0.5),
               Flag("t-max-us", default=10.0, check="positive"),
               Flag("points", "int", default=501, check=(2, MAX_POINTS))),
    "bell": (run_bell, "cli_readout",
             Flag("phi-a-deg", default=0.0),
             Flag("phi-a2-deg", default=90.0),
             Flag("phi-b-deg", default=45.0),
             Flag("phi-b2-deg", default=135.0),
             Flag("noise-p", default=1.0, check="unit")),
    "correlations": (run_correlations, "cli_readout",
                     Flag("basis", "choice", default="x", check=("x", "y")),
                     Flag("beta-deg", "grid", required=True,
                          help="waveplate angle, number or 'a..b:step'"),
                     Flag("visibility", default=1.0, check="unit")),
    "spectrum-fit": (run_spectrum_fit, "cli_spectrum",
                     Flag("reference", "str", required=True,
                          help="two-column CSV (frequency_hz, amplitude)"),
                     Flag("fluorescence", "str", required=True,
                          help="two-column CSV (frequency_hz, amplitude)"),
                     Flag("wavelength-nm", check="positive",
                          help="default: the D2 line of the line table")),
    "pair-rate": (run_pair_rate, "cli_readout",
                  Flag("eta", required=True, check="unit"),
                  Flag("t-fiber", default=math.sqrt(0.95), check="unit"),
                  Flag("cycle-us", default=1.0, check="positive"),
                  Flag("duty-factor", default=1.0, check="unit")),
}

SCENARIOS = tuple(SPECS)
COMMANDS = ("list", *SCENARIOS)


# --- reading the command line ---------------------------------------------


def _negative_number(token: str) -> bool:
    """Whether a token that starts with "-" is a negative number by argparse's
    rule, ``^-\\d+$|^-\\d*\\.\\d+$``, and so a value, not an option."""
    whole, dot, fraction = token[1:].partition(".")
    return (fraction if dot else whole).isdecimal() and (not whole or whole.isdecimal())


def _plain_args(argv: list) -> dict | None:
    """The scenario and the flags of a plain command line (the module
    docstring says which lines are plain), read from the scenario table as
    argparse would read them, or None for any other line."""
    if not argv or argv[0] not in COMMANDS:
        return None
    if argv[0] == "list":
        return {"scenario": "list"} if len(argv) == 1 else None
    by_name = {f"--{name}": f for f in _COMMON + SPECS[argv[0]][2:]
               for name in (f.name, f.alias) if name}
    given, tokens = {"scenario": argv[0]}, iter(argv[1:])
    for token in tokens:
        name, explicit, value = token.partition("=")
        flag = by_name.get(name)
        # a "--" value, even after "=", is argparse's to refuse
        if flag is None or flag.kind == "switch" and explicit or value == "--":
            return None
        if flag.kind == "switch":
            given[flag.dest] = True
            continue
        if not explicit:
            value = next(tokens, None)
            if value is None or value[:1] == "-" and not _negative_number(value):
                return None
        try:
            given[flag.dest] = _KINDS[flag.kind][0](value)
        except ValueError:
            return None
    return given


def build_parser(commands=COMMANDS) -> "argparse.ArgumentParser":
    """The argparse parser of the lines that are not plain, with the
    subparsers of ``commands``; a parse holds the scenario and the flags the
    line gives, no defaults.  A usage error is one ``validation:`` line on
    stderr and exit 2, like every other bad input.  A line that names no
    command (``--help``, ``--version``, a bare call, an unknown scenario)
    needs every subparser, so that its text names every one."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.exit(EXIT_VALIDATION, f"validation: {message}\n")

    def bracket(value):
        # argparse prints the text of an ArgumentTypeError, and names the
        # type in that of a ValueError
        try:
            return _bracket(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parser = Parser(
        prog="singleatom",
        description="Single-atom dipole trap and atom-photon entanglement scenarios.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="scenario", required=True, parser_class=Parser)
    for name in commands:
        if name == "list":
            subparsers.add_parser("list", help="list scenarios and their required keys")
            continue
        subparser = subparsers.add_parser(name, argument_default=argparse.SUPPRESS)
        for flag in _COMMON + SPECS[name][2:]:
            names = [f"--{flag.name}"] + ([f"--{flag.alias}"] if flag.alias else [])
            if flag.kind == "switch":
                subparser.add_argument(*names, action="store_true", help=flag.help)
            else:
                # choices are checked with the other rules, not by argparse
                metavar = "{%s}" % ",".join(flag.check) if flag.kind == "choice" else None
                convert = bracket if flag.kind == "bracket" else _KINDS[flag.kind][0]
                subparser.add_argument(*names, type=convert, metavar=metavar, help=flag.help)
    return parser


def _args(argv: list) -> SimpleNamespace:
    """The namespace of a command line: each flag's table default, under the
    --config file's values, under the flags the line gives.  The table reads
    a plain line; argparse reads any other, or exits with its text."""
    given = _plain_args(argv)
    if given is None:
        # a parse that gets past the top-level options has the scenario first
        parser = build_parser(argv[:1] if argv[:1] and argv[0] in COMMANDS else COMMANDS)
        given = vars(parser.parse_args(argv))
        # argparse reads a "--" value (--name=--) as [] and no string
        dropped = [dest for dest, value in given.items() if value == []]
        if dropped:
            parser.error(f"argument --{dropped[0].replace('_', '-')}: expected one argument")
    scenario = given["scenario"]
    flags = () if scenario == "list" else _COMMON + SPECS[scenario][2:]
    values = {f.dest: f.default for f in flags}
    if given.get("config"):
        values.update(_config_defaults(given["config"], flags))
    return SimpleNamespace(**{**values, **given})


def list_scenarios() -> str:
    """One line per scenario naming the keys it requires."""
    lines = []
    for name, (_, _, *flags) in SPECS.items():
        keys = (", ".join(f.name for f in flags if f.required is True)
                or "(none; every key has a default)")
        conditional = [f for f in flags if isinstance(f.required, tuple)]
        if conditional:
            key, value = conditional[0].required
            keys += f"; with --{key} {value} also {', '.join(f.name for f in conditional)}"
        lines.append(f"{name}: {keys}")
    return "\n".join(lines) + "\n"


def _config_value(key: str, value, flag: Flag):
    """A config value as its flag would hold it: strings go through the flag's
    type, a float flag's number is a float and a bracket a tuple of floats."""
    convert, expected, fits = _KINDS[flag.kind]
    if convert is not None and isinstance(value, str):
        try:
            return convert(value)
        except ValueError as exc:
            raise ValidationError(f"config key {key!r}: {exc}") from exc
    if not fits(value):
        import json

        raise ValidationError(
            f"config key {key!r}: expected {expected}, got {json.dumps(value)}")
    if flag.kind == "bracket":
        return tuple(map(float, value))
    return float(value) if flag.kind == "float" else value


def _config_defaults(path: str, flags) -> dict:
    """The JSON config's values by flag dest, each as its flag would hold it."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(file_values, dict):
        raise ValidationError("config file must hold a JSON object")
    by_dest = {f.dest: f for f in flags}
    defaults = {}
    for key, value in file_values.items():
        flag = by_dest.get(key.replace("-", "_"))
        if flag is None:
            raise ValidationError(f"unknown config key {key!r}")
        defaults[flag.dest] = _config_value(key, value, flag)
    return defaults


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # argparse exits on the lines it refuses or answers with a text
        args = _args(argv)
        if args.scenario == "list":
            sys.stdout.write(list_scenarios())
            return EXIT_OK
        runner, _, *flags = SPECS[args.scenario]
        errors = []
        for flag in flags:
            try:
                _check_flag(args, flag)
            except ValidationError as exc:
                errors.append(str(exc))
        if args.metadata and args.out is None:
            errors.append("--metadata needs --out: the sidecar is written next to the CSV")
        if errors:
            raise ValidationError("; ".join(errors))
        check = _family(args.scenario)[1]
        if check is not None:
            check(args)
        if args.validate_only:
            sys.stdout.write("configuration ok\n")
            return EXIT_OK
        # a non-finite result is refused when the CSV is formatted
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            header, columns = runner(args)
        params = {f.dest: getattr(args, f.dest) for f in flags}
        meta = _metadata(args.scenario, params, getattr(args, "time_evolution", "none"),
                         getattr(args, "diagnostics", {})) if args.metadata else None
        _write_csv(args.out, header, columns, meta)
    except ValidationError as exc:
        sys.stderr.write(f"validation: {exc}\n")
        return EXIT_VALIDATION
    except (ArithmeticError, ValueError, KeyError, RuntimeError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except MemoryError as exc:
        # an allocation that no validation bound caught
        detail = f": {exc}" if str(exc) else ""
        sys.stderr.write(f"numerical failure: out of memory{detail}\n")
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
