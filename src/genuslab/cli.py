"""Command-line frontend.

Subcommands: genus, expand, verify, rigidity, obstruct.  Output is
machine-readable (json by default, csv or text on request) and deterministic:
identical configuration yields byte-identical bytes.  Each command returns
raw values and records, which carry no output form of their own; `encode` is
the one serializer, applied to every payload: rationals become "p/q" strings,
q-series {"lowest_s_exponent", "coefficients", ...}; no floats anywhere.

Exit codes: 0 success, 2 input validation, 3 internal inconsistency
(including a printed report whose status is FAIL), 4 resource cap.  Every
number read after argv (`--lambda`, $GENUSLAB_QORDER, the JSON of `obstruct`,
model and action files, the integers of builtin names) goes through the
readers of `rings`, so one past the int-to-str digit limit exits 4, refused
before it is converted.  The integer options of argv (`--qorder`, `--order`,
`--codim`, `--p`) are the exception: such a literal is a bad integer, exit 2,
since `parse_args` refuses argv misuse before it knows the output format
(`--format` may come last), and `int()` refuses it at once.

Argv: genuslab [GLOBAL ...] COMMAND [OPTION ...], read by `parse_args` from
the COMMANDS table.  GLOBAL is --format or --out, which may also stand among
the command's options; the last one given wins.  Every option takes one
value, as `--opt value` or `--opt=value`, and the token after `--opt` is its
value even when it begins with "-" (`--codim -1`).  A long option may be cut
to a prefix that names it alone (`--qord 6`).  `-h`/`--help` prints the help
of the command before it, or of genuslab, and exits 0.  Any other misuse
(no or an unknown command, an unknown or ambiguous option, a missing value or
required option, a bad integer or choice, a stray argument, an --out file
that cannot be opened for writing) writes a usage line and "genuslab: error:
..." to stderr, nothing to stdout, and exits 2, before any computation.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from .cusp import normalized
from .errors import (
    GenuslabError,
    InternalInconsistencyError,
    ResourceCapError,
    ValidationError,
)
from .genus import AHAT_CUSP, SIGNATURE_CUSP, GenusSpec, cusp_series, genus_value, pole_order
from .localization import builtin_action, load_action, rigidity_check
from .manifolds import _is_int, builtin, load_model
from .obstructions import (
    code_audit,
    lattice_normal_form,
    m_invariant,
    rfpd_check,
    vanish_count_cyclic_codim,
    vanish_count_from_m,
    vanish_count_involution,
)
from .rings import I_UNIT, GaussianRational, format_fraction, read_fraction, read_int, read_json
from .series import QSeries, TruncPoly
from .suites import run_suite

QORDER_ENV = "GENUSLAB_QORDER"
DEFAULT_QORDER = 6  # without --qorder and $GENUSLAB_QORDER
DESCRIPTION = ("Exact workbench for level-2 elliptic genera, twisted indices, localization sums "
               "and symmetry-obstruction combinatorics.")


# -- serialization ----------------------------------------------------------------


def encode(value):
    """The JSON data of a command result: every exact value becomes output here and nowhere else."""
    if isinstance(value, (Fraction, GaussianRational)):
        return format_fraction(value)
    if isinstance(value, TruncPoly):
        return {mono or "1": encode(c) for mono, c in value.terms()}
    if isinstance(value, QSeries):
        lo = value.lowest_exponent()
        coeffs = [] if lo is None else [encode(value.coefficient(e)) for e in range(lo, value.order)]
        return {"lowest_s_exponent": lo, "coefficients": coeffs, "known_below_s": value.order}
    if isinstance(value, tuple) and hasattr(value, "_asdict"):  # a NamedTuple record
        value = value._asdict()
    if isinstance(value, dict):
        return {str(key): encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    return value


def poly_text(poly: TruncPoly) -> str:
    parts = [(mono if c == 1 else f"{format_fraction(c)}*{mono}") if mono else format_fraction(c)
             for mono, c in poly.terms()]
    return " + ".join(parts) or "0"


def emit(payload: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        text = _to_csv(payload)
    else:
        text = _to_text(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            rows.extend(_flatten(payload[key], f"{prefix}{key}." if prefix else f"{key}."))
    elif isinstance(payload, list):
        for i, item in enumerate(payload):
            rows.extend(_flatten(item, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], payload))
    return rows


def _to_csv(payload) -> str:
    lines = ["key,value"]
    for key, value in _flatten(payload):
        text = str(value)
        if "," in text or '"' in text:
            text = '"' + text.replace('"', '""') + '"'
        lines.append(f"{key},{text}")
    return "\n".join(lines) + "\n"


def _to_text(payload) -> str:
    lines = []
    for key, value in _flatten(payload):
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# -- argument helpers ---------------------------------------------------------------


def resolve(ref: str, what: str, from_builtin, from_file):
    """The object named by a builtin:NAME or file:PATH reference."""
    for prefix, load in (("builtin:", from_builtin), ("file:", from_file)):
        if ref.startswith(prefix):
            return load(ref[len(prefix):])
    raise ValidationError(f"{what} reference must be builtin:NAME or file:PATH, got {ref!r}", code="invalid")


# -- subcommands -----------------------------------------------------------------------


def cmd_genus(args) -> dict:
    model = resolve(args.manifold, "manifold", builtin, load_model)
    spec = GenusSpec.named(args.spec)
    value = genus_value(spec, model)
    payload = {
        "command": "genus",
        "manifold": model.name,
        "spec": args.spec,
        "value": value,
    }
    if isinstance(value, TruncPoly):
        payload["value_text"] = poly_text(value)
    if args.spec == "signature" and model.dim_real % 4 == 0:
        # cross-check against the loop-series pipeline at q^0
        q0 = cusp_series(model, SIGNATURE_CUSP, 1).series.coefficient(0)
        if q0 != value:
            raise InternalInconsistencyError(
                f"signature pipelines disagree: genus {value}, loop q^0 {q0}"
            )
        payload["cross_check"] = "loop-series q^0 agrees"
    return payload


def cmd_expand(args) -> dict:
    model = resolve(args.manifold, "manifold", builtin, load_model)
    qorder = args.qorder
    raw = cusp_series(model, args.cusp, qorder)
    series = normalized(raw, args.cusp)
    pole = pole_order(series)
    payload = {
        "command": "expand",
        "manifold": model.name,
        "cusp": args.cusp,
        "qorder": qorder,
        "k": raw.k,
        "series": series,
        "pole_order_q": pole,
        "pole_indeterminate": pole is None,
    }
    if args.cusp == AHAT_CUSP:
        # r counts when the q^0..q^r coefficients vanish; the raw series has only even s-exponents
        upto, lo = min(qorder, (raw.series.order - 1) // 2), raw.series.lowest_exponent()
        payload["vanishing_head_indices"] = list(range(upto if lo is None else min(upto, lo // 2)))
        if model.spin:
            payload["spin_integrality"] = all(c.denominator == 1 for c in raw.series.coeffs)
    return payload


def cmd_verify(args) -> dict:
    checks = run_suite(args.suite, args.qorder)
    failed = [c["name"] for c in checks if c["status"] != "PASS"]
    payload = {
        "command": "verify",
        "suite": args.suite,
        "qorder": args.qorder,
        "checks": checks,
        "total": len(checks),
        "failed": failed,
        "status": "PASS" if not failed else "FAIL",
    }
    return payload


def cmd_rigidity(args) -> dict:
    action = resolve(args.action, "action", builtin_action, load_action)
    samples = []
    for text in filter(None, map(str.strip, args.samples.split(","))):
        try:
            samples.append({"i": I_UNIT, "-i": -I_UNIT}.get(text) or read_fraction(text))
        except ValueError:
            raise ValidationError(f"bad sample value {text!r}", code="invalid") from None
    if not samples:
        raise ValidationError("no sample values given", code="invalid")
    for sample in samples:  # the report prints each sample: one that cannot print is refused before the work
        format_fraction(sample)
    return {"command": "rigidity", **rigidity_check(action, samples, args.qorder)._asdict()}


OBSTRUCT_MODES = {  # flag: dest
    "--weights": "weights", "--codim": "codim", "--matrix-file": "matrix_file", "--fixdim": "fixdim",
}


def cmd_obstruct(args) -> dict:
    payload: dict = {"command": "obstruct"}
    given = [flag for flag, dest in OBSTRUCT_MODES.items() if getattr(args, dest) is not None]
    if len(given) != 1:  # before any work
        raise ValidationError(
            f"obstruct takes exactly one of {', '.join(OBSTRUCT_MODES)}; got {', '.join(given) or 'none'}",
            code="invalid",
        )
    if args.order is not None and args.order < 2:  # in every mode, before any work
        raise ValidationError("order must be >= 2", code="invalid")
    for flag, value, modes in (("--p", args.p, ("--matrix-file",)),
                               ("--order", args.order, ("--weights", "--codim"))):
        if value is not None and given[0] not in modes:  # an option the mode never reads, before any work
            raise ValidationError(f"{given[0]} does not take {flag}", code="invalid")
    if args.codim is not None:
        if args.codim < 0:
            raise ValidationError("--codim must be >= 0", code="invalid")
        payload["codim"] = args.codim
        if args.order is None:
            payload.update({"source": "involution", "vanish_count": vanish_count_involution(args.codim)})
        else:
            payload.update({"order": args.order, "source": "cyclic-codim",
                            "vanish_count": vanish_count_cyclic_codim(args.codim, args.order)})
        return payload
    try:  # the other modes' one JSON input: the text of --weights or --fixdim, or the file at --matrix-file
        data = read_json(args.fixdim if args.weights is None else args.weights, args.matrix_file)
    except (OSError, ValueError) as exc:
        what = {"--weights": "bad weights list", "--matrix-file": "cannot read matrix file",
                "--fixdim": "bad fixdim table"}[given[0]]
        raise ValidationError(f"{what}: {exc}", code="invalid") from exc
    if args.weights is not None:
        if not isinstance(data, list) or not all(_is_int(w) and w != 0 for w in data):
            raise ValidationError("weights must be a JSON list of nonzero integers", code="invalid")
        if args.order is None:
            raise ValidationError("--order is required with --weights", code="invalid")
        m = m_invariant(data, args.order)
        payload.update({"weights": data, "order": args.order, "m": m, "vanish_count": vanish_count_from_m(m)})
        return payload
    if args.matrix_file is not None:
        p = 2 if args.p is None else args.p
        normal_form = lattice_normal_form(data, p)  # before the audit's code-word cap
        payload.update({"normal_form": normal_form, "code_audit": code_audit(data), "p": p})
        return payload
    payload.update({"fixdim": data, "restricted": rfpd_check(data)})
    return payload


# -- entry point --------------------------------------------------------------------------


REQUIRED = object()  # the default of an option that must be given
MANIFOLD = ("manifold", str, REQUIRED, "builtin:NAME or file:PATH")
QORDER = ("qorder", int, None, f"q-order of the expansions (default ${QORDER_ENV}, else {DEFAULT_QORDER})")
# flag: (dest, int or str or a tuple of choices, default or REQUIRED, help)
GLOBAL_OPTIONS = {
    "--format": ("format", ("json", "csv", "text"), "json", "output format"),
    "--out": ("out", str, None, "write output to a file instead of stdout"),
}
# command: (function, help, options as in GLOBAL_OPTIONS)
COMMANDS = {
    "genus": (cmd_genus, "genus values, generic or specialized", {
        "--manifold": MANIFOLD,
        "--spec": ("spec", ("generic", "signature", "ahat"), "generic", "the genus to evaluate"),
    }),
    "expand": (cmd_expand, "cusp expansions, pole order, vanishing counts", {
        "--manifold": MANIFOLD,
        "--cusp": ("cusp", (SIGNATURE_CUSP, AHAT_CUSP), AHAT_CUSP, "the cusp to expand at"),
        "--qorder": QORDER,
    }),
    "verify": (cmd_verify, "named verification suites", {
        "--suite": ("suite", str, "all", "a suite name, or all"),
        "--qorder": QORDER,
    }),
    "rigidity": (cmd_rigidity, "equivariant localization across samples", {
        "--action": ("action", str, REQUIRED, "builtin:NAME or file:PATH"),
        "--lambda": ("samples", str, REQUIRED, "comma-separated samples"),
        "--qorder": QORDER,
    }),
    "obstruct": (cmd_obstruct, "m_o, vanishing predictions, normal forms, code audit", {
        "--weights": ("weights", str, None, "JSON list of rotation weights"),
        "--order": ("order", int, None, "order of the cyclic isotropy group, >= 2; with --weights or --codim"),
        "--codim": ("codim", int, None, "codimension of the fixed-point set"),
        "--matrix-file": ("matrix_file", str, None, "JSON integer matrix file"),
        "--p": ("p", int, None, "prime of the lattice normal form; with --matrix-file (default: 2)"),
        "--fixdim": ("fixdim", str, None, "JSON table of (dim, [component dims])"),
    }),
}


def render_help(command: str | None) -> str:
    """The `--help` text of genuslab (command None) or of one command, from the tables."""
    if command is None:
        usage, about, own = "genuslab [OPTION ...] {" + ",".join(COMMANDS) + "} ...", DESCRIPTION, {}
        sections = [("commands:", [(name, entry[1]) for name, entry in COMMANDS.items()])]
    else:
        (_, about, own), usage, sections = COMMANDS[command], f"genuslab {command} [OPTION ...]", []
    rows = [("-h, --help", "show this help and exit")]
    for flag, (dest, kind, default, text) in {**own, **GLOBAL_OPTIONS}.items():
        metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else dest.upper()
        note = " (required)" if default is REQUIRED else "" if default is None else f" (default: {default})"
        rows.append((f"{flag} {metavar}", text + note))
    sections.append(("options:", rows))
    width = max(len(name) for _, pairs in sections for name, _ in pairs) + 2
    lines = [f"usage: {usage}", "", about]
    for title, pairs in sections:
        lines += ["", title] + [f"  {name:<{width}}{text}" for name, text in pairs]
    return "\n".join(lines) + "\n"


def usage_error(message: str, command: str | None) -> None:
    """Bad argv, as argparse reports it: usage and message on stderr, exit 2."""
    sys.stderr.write(render_help(command).partition("\n")[0] + f"\ngenuslab: error: {message}\n")
    raise SystemExit(2)


def parse_args(argv) -> SimpleNamespace:
    """Read argv by the grammar of the module docstring into the command and its option values."""
    command, options, given = None, GLOBAL_OPTIONS, {}
    tokens = iter(argv)
    for token in tokens:
        name, eq, value = token.partition("=")
        if token == "-h" or token.startswith("--") and len(name) > 2:
            name = "--help" if token == "-h" else name
            hits = [flag for flag in [*options, "--help"] if flag.startswith(name)]
            hits = [name] if name in hits else hits  # an exact name is never ambiguous
            if len(hits) != 1 or hits[0] == "--help" and eq:  # --help takes no value
                usage_error(f"ambiguous option: {name} could match {', '.join(hits)}" if len(hits) > 1
                            else f"unrecognized arguments: {token}", command)
            if hits[0] == "--help":
                sys.stdout.write(render_help(command))
                raise SystemExit(0)
            value = value if eq else next(tokens, None)
            if value is None:
                usage_error(f"argument {hits[0]}: expected one argument", command)
            dest, kind, _, _ = options[hits[0]]
            try:  # int() or str() converts; a tuple of choices finds the value or raises
                given[dest] = kind(value) if callable(kind) else kind[kind.index(value)]
            except ValueError:
                wanted = "int value" if kind is int else f"choice (choose from {', '.join(kind)})"
                usage_error(f"argument {hits[0]}: invalid {wanted}: {value!r}", command)
        elif command is None and token in COMMANDS:
            command, options = token, {**COMMANDS[token][2], **GLOBAL_OPTIONS}
        else:
            choices = ", ".join(COMMANDS)
            usage_error(f"unrecognized arguments: {token}" if command
                        else f"argument command: invalid choice: {token!r} (choose from {choices})", command)
    values = {dest: default for dest, _, default, _ in options.values()} | given
    missing = [flag for flag, (dest, *_) in options.items() if values[dest] is REQUIRED]
    if command is None or missing:
        usage_error(f"the following arguments are required: {', '.join(missing or ['command'])}", command)
    return SimpleNamespace(command=command, **values)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:  # emit writes the file after the work; a path it cannot open fails before it
        if args.out:
            open(args.out, "w", encoding="utf-8").close()
    except OSError as exc:
        usage_error(f"argument --out: can't open {args.out!r}: {exc.strerror}", args.command)
    try:
        if getattr(args, "qorder", 1) is None:
            raw = os.environ.get(QORDER_ENV, str(DEFAULT_QORDER))
            try:
                args.qorder = read_int(raw)
            except ValueError:
                raise ValidationError(f"{QORDER_ENV} must be an integer, got {raw!r}", code="invalid") from None
            if args.qorder < 1:
                raise ValidationError(f"{QORDER_ENV} must be >= 1", code="invalid")
        minimum = 0 if args.command == "expand" else 1  # a bare constant term is a valid expansion
        if getattr(args, "qorder", 1) < minimum:
            raise ValidationError(f"q-order must be >= {minimum}", code="invalid")
        payload = encode(COMMANDS[args.command][0](args))  # an unprintable value is a resource cap
    except ValidationError as exc:
        emit({"error": str(exc), "code": exc.code}, args.format, args.out)
        return 2
    except ResourceCapError as exc:
        emit({"error": str(exc), "code": "resource-cap"}, args.format, args.out)
        return 4
    except InternalInconsistencyError as exc:
        emit({"error": str(exc), "code": "internal-inconsistency"}, args.format, args.out)
        return 3
    except GenuslabError as exc:
        emit({"error": str(exc), "code": "invalid"}, args.format, args.out)
        return 2
    emit(payload, args.format, args.out)
    return 3 if payload.get("status") == "FAIL" else 0


if __name__ == "__main__":
    sys.exit(main())
