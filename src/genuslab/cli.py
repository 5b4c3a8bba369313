"""Command-line frontend.

Subcommands: genus, expand, verify, rigidity, obstruct.  Output is
machine-readable (json by default, csv or text on request) and deterministic:
identical configuration yields byte-identical bytes.  Rationals serialize as
"p/q" strings and q-series as {"lowest_s_exponent", "coefficients", ...};
no floats anywhere.

Exit codes: 0 success, 2 input validation, 3 internal inconsistency
(including FAILed verification checks), 4 resource cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import (
    GenuslabError,
    InternalInconsistencyError,
    ResourceCapError,
    ValidationError,
)
from .genus import (
    AHAT_CUSP,
    DEFAULT_QORDER,
    SIGNATURE_CUSP,
    GenusSpec,
    cusp_series,
    genus_value,
    pole_order,
)
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
from .rings import GaussianRational, format_fraction
from .series import QSeries, TruncPoly
from .suites import run_suite

QORDER_ENV = "GENUSLAB_QORDER"


# -- serialization ----------------------------------------------------------------


def encode_value(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, GaussianRational):
        return str(value)
    if isinstance(value, QSeries):
        return encode_series(value)
    if isinstance(value, TruncPoly):
        return encode_poly(value)
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    return str(value)


def encode_series(series: QSeries) -> dict:
    lo = series.lowest_exponent()
    coeffs = []
    if lo is not None:
        coeffs = [encode_value(series.coefficient(e)) for e in range(lo, series.order)]
    return {
        "lowest_s_exponent": lo,
        "coefficients": coeffs,
        "known_below_s": series.order,
    }


def encode_poly(poly: TruncPoly) -> dict:
    return {mono or "1": encode_value(c) for mono, c in poly.terms()}


def poly_text(poly: TruncPoly) -> str:
    parts = [(mono if c == 1 else f"{c}*{mono}") if mono else str(c) for mono, c in poly.terms()]
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


def resolve_manifold(ref: str):
    if ref.startswith("builtin:"):
        return builtin(ref[len("builtin:") :])
    if ref.startswith("file:"):
        return load_model(ref[len("file:") :])
    raise ValidationError(
        f"manifold reference must be builtin:NAME or file:PATH, got {ref!r}", code="invalid"
    )


def resolve_action(ref: str):
    if ref.startswith("builtin:"):
        return builtin_action(ref[len("builtin:") :])
    if ref.startswith("file:"):
        return load_action(ref[len("file:") :])
    raise ValidationError(
        f"action reference must be builtin:NAME or file:PATH, got {ref!r}", code="invalid"
    )


def parse_lambda(text: str):
    text = text.strip()
    if text == "i":
        return GaussianRational(0, 1)
    if text == "-i":
        return GaussianRational(0, -1)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"bad sample value {text!r}", code="invalid") from None


def default_qorder() -> int:
    raw = os.environ.get(QORDER_ENV)
    if raw is None:
        return DEFAULT_QORDER
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"{QORDER_ENV} must be an integer, got {raw!r}", code="invalid")
    if value < 1:
        raise ValidationError(f"{QORDER_ENV} must be >= 1", code="invalid")
    return value


# -- subcommands -----------------------------------------------------------------------


def cmd_genus(args) -> dict:
    model = resolve_manifold(args.manifold)
    spec = GenusSpec.named(args.spec)
    value = genus_value(spec, model)
    payload = {
        "command": "genus",
        "manifold": model.name,
        "spec": args.spec,
        "value": encode_value(value),
    }
    if isinstance(value, TruncPoly):
        payload["value_text"] = poly_text(value)
    if args.spec == "signature" and model.dim_real % 4 == 0:
        # cross-check against the loop-series pipeline at q^0
        q0 = cusp_series(model, SIGNATURE_CUSP, 1).series.q_coefficient(0)
        if q0 != value:
            raise InternalInconsistencyError(
                f"signature pipelines disagree: genus {value}, loop q^0 {q0}"
            )
        payload["cross_check"] = "loop-series q^0 agrees"
    return payload


def cmd_expand(args) -> dict:
    model = resolve_manifold(args.manifold)
    qorder = args.qorder
    raw = cusp_series(model, args.cusp, qorder)
    series = raw.series.shift(-raw.k) if args.cusp == AHAT_CUSP else raw.series  # phi_0 = q^(-k/2) raw
    pole = pole_order(series)
    payload = {
        "command": "expand",
        "manifold": model.name,
        "cusp": args.cusp,
        "qorder": qorder,
        "k": raw.k,
        "series": encode_series(series),
        "pole_order_q": None if pole is None else format_fraction(pole),
        "pole_indeterminate": pole is None,
    }
    if args.cusp == AHAT_CUSP:
        counts = []
        upto = min(qorder, (raw.series.order - 1) // 2)
        for r in range(0, upto):
            if all(raw.series.coefficient(2 * j) == 0 for j in range(r + 1)):
                counts.append(r)
        payload["vanishing_head_indices"] = counts
        if model.spin:
            integral = all(
                getattr(raw.series.coefficient(e), "denominator", 1) == 1
                for e in raw.series.support()
            )
            payload["spin_integrality"] = integral
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
    action = resolve_action(args.action)
    samples = [parse_lambda(x) for x in args.samples.split(",") if x.strip()]
    if not samples:
        raise ValidationError("no sample values given", code="invalid")
    report = rigidity_check(action, samples, args.qorder)
    payload = {"command": "rigidity", **report.to_dict()}
    if report.spin and report.status == "FAIL":
        raise InternalInconsistencyError(
            "rigidity failed on a spin action: " + json.dumps(payload, sort_keys=True)
        )
    return payload


def cmd_obstruct(args) -> dict:
    payload: dict = {"command": "obstruct"}
    if args.weights:
        try:
            weights = json.loads(args.weights)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad weights list: {exc}", code="invalid") from exc
        if not isinstance(weights, list) or not all(_is_int(w) and w != 0 for w in weights):
            raise ValidationError("weights must be a JSON list of nonzero integers", code="invalid")
        if args.order is None:
            raise ValidationError("--order is required with --weights", code="invalid")
        m = m_invariant(weights, args.order)
        payload.update(
            {
                "weights": weights,
                "order": args.order,
                "m": format_fraction(m),
                "vanish_count": vanish_count_from_m(m),
            }
        )
        return payload
    if args.codim is not None:
        if args.codim < 0:
            raise ValidationError("--codim must be >= 0", code="invalid")
        if args.order is None:
            payload.update(
                {
                    "codim": args.codim,
                    "source": "involution",
                    "vanish_count": vanish_count_involution(args.codim),
                }
            )
        else:
            payload.update(
                {
                    "codim": args.codim,
                    "order": args.order,
                    "source": "cyclic-codim",
                    "vanish_count": vanish_count_cyclic_codim(args.codim, args.order),
                }
            )
        return payload
    if args.matrix_file:
        try:
            with open(args.matrix_file, "r", encoding="utf-8") as fh:
                matrix = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable file, bad encoding or bad JSON
            raise ValidationError(f"cannot read matrix file: {exc}", code="invalid") from exc
        result = lattice_normal_form(matrix, args.p)
        audit = code_audit(matrix)
        payload.update(
            {
                "normal_form": result.to_dict(),
                "code_audit": audit.to_dict(),
                "p": args.p,
            }
        )
        return payload
    if args.fixdim:
        try:
            table = json.loads(args.fixdim)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad fixdim table: {exc}", code="invalid") from exc
        payload.update({"fixdim": table, "restricted": rfpd_check(table)})
        return payload
    raise ValidationError(
        "obstruct needs one of --weights, --codim, --matrix-file, --fixdim", code="invalid"
    )


# -- entry point --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genuslab",
        description="Exact workbench for level-2 elliptic genera, twisted indices, "
        "localization sums and symmetry-obstruction combinatorics.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default=argparse.SUPPRESS
    )
    common.add_argument("--out", default=argparse.SUPPRESS, help="write output to a file")
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    parser.add_argument("--out", default=None, help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genus", parents=[common], help="genus values, generic or specialized")
    p.add_argument("--manifold", required=True, help="builtin:NAME or file:PATH")
    p.add_argument("--spec", choices=("generic", "signature", "ahat"), default="generic")
    p.set_defaults(run=cmd_genus)

    p = sub.add_parser("expand", parents=[common], help="cusp expansions, pole order, vanishing counts")
    p.add_argument("--manifold", required=True)
    p.add_argument("--cusp", choices=(SIGNATURE_CUSP, AHAT_CUSP), default=AHAT_CUSP)
    p.add_argument("--qorder", type=int, default=None)
    p.set_defaults(run=cmd_expand)

    p = sub.add_parser("verify", parents=[common], help="named verification suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--qorder", type=int, default=None)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("rigidity", parents=[common], help="equivariant localization across samples")
    p.add_argument("--action", required=True, help="builtin:NAME or file:PATH")
    p.add_argument("--lambda", dest="samples", required=True, help="comma-separated samples")
    p.add_argument("--qorder", type=int, default=None)
    p.set_defaults(run=cmd_rigidity)

    p = sub.add_parser("obstruct", parents=[common], help="m_o, vanishing predictions, normal forms, code audit")
    p.add_argument("--weights", default=None, help="JSON list of rotation weights")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--codim", type=int, default=None)
    p.add_argument("--matrix-file", default=None, help="JSON integer matrix file")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--fixdim", default=None, help="JSON table of (dim, [component dims])")
    p.set_defaults(run=cmd_obstruct)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "qorder") and args.qorder is None:
            args.qorder = default_qorder()
        minimum = 0 if args.command == "expand" else 1  # a bare constant term is a valid expansion
        if getattr(args, "qorder", 1) < minimum:
            raise ValidationError(f"q-order must be >= {minimum}", code="invalid")
        payload = args.run(args)
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
    if args.command == "verify" and payload.get("status") != "PASS":
        return 3
    if args.command == "rigidity" and payload.get("status") == "FAIL":
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
